//! Cross-executor differential conformance suite.
//!
//! Every executor the runtime offers — reference sequential, one-thread-
//! per-cluster parallel, the hyperclustered batch executor (plain and
//! switched), and the work-stealing pool — must
//! compute the same function, on every built-in model generator, at batch 1
//! and batch 4. Divergence messages name the model, the executor, the batch
//! element, and the *first diverging tensor* with its worst elementwise
//! error, so a regression is attributable from the assert text alone.

use ramiel_cluster::{cluster_graph, hypercluster, switched_hypercluster, StaticCost};
use ramiel_models::{build, ModelConfig, ModelKind};
use ramiel_runtime::{
    run_hyper_opts, run_hyper_stealing_opts, run_parallel_opts, run_sequential, run_stealing_opts,
    synth_inputs, Env, KernelBackend, RunOptions,
};
use ramiel_tensor::{ExecCtx, Value};

/// Relative/absolute tolerance for f32 outputs: parallel execution may
/// reassociate reductions, so exact equality is too strict in general.
const TOL: f32 = 1e-4;

/// First output tensor (in name order — `Env` is a BTreeMap) that diverges
/// beyond tolerance, with a human-readable reason.
fn first_divergence(expect: &Env, got: &Env) -> Option<(String, String)> {
    for (name, va) in expect {
        let Some(vb) = got.get(name) else {
            return Some((name.clone(), "missing from output".into()));
        };
        match (va, vb) {
            (Value::F32(x), Value::F32(y)) => {
                if x.shape() != y.shape() {
                    return Some((
                        name.clone(),
                        format!("shape {:?} vs {:?}", x.shape(), y.shape()),
                    ));
                }
                let mut worst = 0f32;
                let mut worst_at = 0usize;
                for (i, (p, q)) in x.data().iter().zip(y.data()).enumerate() {
                    if p.is_nan() && q.is_nan() {
                        continue;
                    }
                    let err = (p - q).abs() / p.abs().max(1.0);
                    if err > worst {
                        worst = err;
                        worst_at = i;
                    }
                }
                if worst > TOL {
                    return Some((
                        name.clone(),
                        format!(
                            "worst rel err {worst:.3e} at flat index {worst_at} \
                             ({} vs {})",
                            x.data()[worst_at],
                            y.data()[worst_at]
                        ),
                    ));
                }
            }
            (va, vb) => {
                if va != vb {
                    return Some((name.clone(), "non-f32 outputs differ exactly".into()));
                }
            }
        }
    }
    if got.len() != expect.len() {
        return Some(("<extra>".into(), "executor produced extra outputs".into()));
    }
    None
}

fn assert_conforms(expect: &Env, got: &Env, model: &str, executor: &str, batch_elem: usize) {
    if let Some((tensor, why)) = first_divergence(expect, got) {
        panic!(
            "{model}: executor `{executor}` diverged from sequential on batch \
             element {batch_elem}: first diverging tensor `{tensor}`: {why}"
        );
    }
}

/// The full matrix: 8 generators × batch {1, 4} × every executor.
#[test]
fn all_executors_conform_on_all_models() {
    let cfg = ModelConfig::tiny();
    let ctx = ExecCtx::sequential();
    for kind in ModelKind::all() {
        let model = kind.name();
        let g = build(kind, &cfg);
        let clustering = cluster_graph(&g, &StaticCost);
        for batch in [1usize, 4] {
            let inputs: Vec<Env> = (0..batch)
                .map(|b| synth_inputs(&g, 1000 * b as u64 + 17))
                .collect();
            let baseline: Vec<Env> = inputs
                .iter()
                .map(|inp| {
                    run_sequential(&g, inp, &ctx)
                        .unwrap_or_else(|e| panic!("{model}: sequential: {e}"))
                })
                .collect();

            // per-element executors
            for (b, inp) in inputs.iter().enumerate() {
                let par = run_parallel_opts(&g, &clustering, inp, &ctx, &RunOptions::default())
                    .unwrap_or_else(|e| panic!("{model}: parallel b{batch}: {e}"));
                assert_conforms(&baseline[b], &par, model, "parallel", b);
                let stolen = run_stealing_opts(&g, &clustering, inp, &ctx, &RunOptions::default())
                    .unwrap_or_else(|e| panic!("{model}: stealing b{batch}: {e}"));
                assert_conforms(&baseline[b], &stolen, model, "stealing", b);
            }

            // whole-batch executors
            for (label, hc) in [
                ("hyper", hypercluster(&clustering, batch)),
                ("hyper-switched", switched_hypercluster(&clustering, batch)),
            ] {
                let outs = run_hyper_opts(&g, &hc, &inputs, &ctx, &RunOptions::default())
                    .unwrap_or_else(|e| panic!("{model}: {label} b{batch}: {e}"));
                assert_eq!(outs.len(), batch, "{model}: {label} output count");
                for (b, out) in outs.iter().enumerate() {
                    assert_conforms(&baseline[b], out, model, label, b);
                }
                let outs = run_hyper_stealing_opts(&g, &hc, &inputs, &ctx, &RunOptions::default())
                    .unwrap_or_else(|e| panic!("{model}: {label}-stealing b{batch}: {e}"));
                assert_eq!(outs.len(), batch, "{model}: {label}-stealing output count");
                for (b, out) in outs.iter().enumerate() {
                    assert_conforms(&baseline[b], out, model, &format!("{label}-stealing"), b);
                }
            }
        }
    }
}

/// First `(tensor, index)` where two envs differ in their f32 *bit
/// patterns* (or any non-f32 value differs at all).
fn first_bit_divergence(expect: &Env, got: &Env) -> Option<(String, String)> {
    for (name, va) in expect {
        let Some(vb) = got.get(name) else {
            return Some((name.clone(), "missing from output".into()));
        };
        match (va, vb) {
            (Value::F32(x), Value::F32(y)) => {
                if x.shape() != y.shape() {
                    return Some((
                        name.clone(),
                        format!("shape {:?} vs {:?}", x.shape(), y.shape()),
                    ));
                }
                for (i, (p, q)) in x.data().iter().zip(y.data()).enumerate() {
                    if p.to_bits() != q.to_bits() {
                        return Some((
                            name.clone(),
                            format!("bits differ at flat index {i}: {p} vs {q}"),
                        ));
                    }
                }
            }
            (va, vb) => {
                if va != vb {
                    return Some((name.clone(), "non-f32 outputs differ".into()));
                }
            }
        }
    }
    None
}

/// Stronger than tolerance conformance: with a shared kernel context, every
/// executor must produce *bit-identical* outputs. The transports move the
/// same Arc-shared buffers through the same kernels, and every `mm` path
/// (sequential blocked, row-block parallel, column-tile parallel) accumulates
/// each output element in the same ascending-k order — so there is no
/// legitimate source of even a 1-ulp difference between executors. Any bit
/// that flips here means an executor copied, truncated, or reassociated
/// something it shouldn't have.
#[test]
fn executors_are_bit_identical_with_shared_kernels() {
    let cfg = ModelConfig::tiny();
    let ctx = ExecCtx::sequential();
    for kind in ModelKind::all() {
        let model = kind.name();
        let g = build(kind, &cfg);
        let clustering = cluster_graph(&g, &StaticCost);
        let inputs: Vec<Env> = (0..3)
            .map(|b| synth_inputs(&g, 31 * b as u64 + 7))
            .collect();
        let baseline: Vec<Env> = inputs
            .iter()
            .map(|inp| run_sequential(&g, inp, &ctx).unwrap())
            .collect();

        for (b, inp) in inputs.iter().enumerate() {
            let par =
                run_parallel_opts(&g, &clustering, inp, &ctx, &RunOptions::default()).unwrap();
            let stolen =
                run_stealing_opts(&g, &clustering, inp, &ctx, &RunOptions::default()).unwrap();
            for (label, out) in [("parallel", &par), ("stealing", &stolen)] {
                if let Some((tensor, why)) = first_bit_divergence(&baseline[b], out) {
                    panic!(
                        "{model}: `{label}` not bit-identical on element {b}: `{tensor}`: {why}"
                    );
                }
            }
        }
        for (label, hc) in [
            ("hyper", hypercluster(&clustering, inputs.len())),
            (
                "hyper-switched",
                switched_hypercluster(&clustering, inputs.len()),
            ),
        ] {
            let outs = run_hyper_opts(&g, &hc, &inputs, &ctx, &RunOptions::default()).unwrap();
            for (b, out) in outs.iter().enumerate() {
                if let Some((tensor, why)) = first_bit_divergence(&baseline[b], out) {
                    panic!(
                        "{model}: `{label}` not bit-identical on element {b}: `{tensor}`: {why}"
                    );
                }
            }
            let outs =
                run_hyper_stealing_opts(&g, &hc, &inputs, &ctx, &RunOptions::default()).unwrap();
            for (b, out) in outs.iter().enumerate() {
                if let Some((tensor, why)) = first_bit_divergence(&baseline[b], out) {
                    panic!(
                        "{model}: `{label}-stealing` not bit-identical on element {b}: \
                         `{tensor}`: {why}"
                    );
                }
            }
        }
    }
}

/// The SimdF32 backend's whole point of discipline: lane-unrolled, never
/// reassociated, so a full model run is *bit-identical* to ScalarF32 —
/// every Gemm/MatMul/Conv through the f32x8 microkernels included. This is
/// the end-to-end statement of the kernel-level proptests. The backend
/// reaches an executor only through its `ExecCtx`, so one stealing row
/// checks that the steal pool runs the kernels the context names.
#[test]
fn simd_backend_is_bit_identical_to_scalar_on_all_models() {
    let cfg = ModelConfig::tiny();
    let sctx = ExecCtx::sequential();
    let vctx = sctx.with_backend(KernelBackend::SimdF32);
    for kind in ModelKind::all() {
        let model = kind.name();
        let g = build(kind, &cfg);
        let inputs = synth_inputs(&g, 23);
        let scalar = run_sequential(&g, &inputs, &sctx).unwrap();
        let simd = run_sequential(&g, &inputs, &vctx).unwrap();
        if let Some((tensor, why)) = first_bit_divergence(&scalar, &simd) {
            panic!("{model}: SimdF32 not bit-identical to ScalarF32: `{tensor}`: {why}");
        }
        let clustering = cluster_graph(&g, &StaticCost);
        let stolen =
            run_stealing_opts(&g, &clustering, &inputs, &vctx, &RunOptions::default()).unwrap();
        if let Some((tensor, why)) = first_bit_divergence(&scalar, &stolen) {
            panic!("{model}: stealing under SimdF32 not bit-identical: `{tensor}`: {why}");
        }
    }
}

/// Executors must also agree on *failure*: a graph with a runtime data error
/// fails on every executor with the same stable error code.
#[test]
fn executors_agree_on_kernel_failures() {
    use ramiel_ir::{DType, GraphBuilder, OpKind, TensorData};
    let mut b = GraphBuilder::new("bad-gather");
    let x = b.input("x", DType::F32, vec![2, 2]);
    let idx = b.init("idx", TensorData::vec_i64(vec![9])); // out of range
    let y = b.op("g", OpKind::Gather { axis: 0 }, vec![x, idx]);
    b.output(&y);
    let g = b.finish().unwrap();
    let clustering = cluster_graph(&g, &StaticCost);
    let ctx = ExecCtx::sequential();
    let inputs = synth_inputs(&g, 5);

    let seq = run_sequential(&g, &inputs, &ctx).unwrap_err();
    let par =
        run_parallel_opts(&g, &clustering, &inputs, &ctx, &RunOptions::default()).unwrap_err();
    let hc = hypercluster(&clustering, 2);
    let hyper = run_hyper_opts(
        &g,
        &hc,
        &[inputs.clone(), inputs.clone()],
        &ctx,
        &RunOptions::default(),
    )
    .unwrap_err();
    let stolen =
        run_stealing_opts(&g, &clustering, &inputs, &ctx, &RunOptions::default()).unwrap_err();

    for (label, err) in [
        ("sequential", &seq),
        ("parallel", &par),
        ("hyper", &hyper),
        ("stealing", &stolen),
    ] {
        assert_eq!(err.code(), "RT-KERNEL", "{label}: {err}");
        assert!(
            err.to_string().contains("out of range"),
            "{label} should carry the kernel message: {err}"
        );
    }
}
