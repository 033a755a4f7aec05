//! The static peak-memory estimate is a *true upper bound*, and in-place
//! buffer reuse never changes results.
//!
//! Two contracts from `ramiel-analyze` / the reuse rewrite:
//!
//! 1. For every built-in model and every executor, the measured high-water
//!    mark of an allocation-tracking [`MemGauge`] never exceeds
//!    `estimate_memory`'s static bound — when the analysis view matches the
//!    executor's real replay policy (in-order for the sequential walk,
//!    first-ready for `run_parallel_opts` / `run_hyper_opts`, whose workers may
//!    legally reorder around a blocked op, and the estimate-only view for
//!    work stealing).
//! 2. Running with `reuse: false` (no in-place rewriting, no eviction) is
//!    bit-identical to the default `reuse: true` path on every executor:
//!    in-place kernels write the same values the allocating kernels do.

use ramiel::analyze::memory::estimate_memory;
use ramiel_cluster::{
    cluster_graph, clustering_view, hyper_view, hypercluster, stealing_view, switched_hypercluster,
    StaticCost,
};
use ramiel_models::{build, ModelConfig, ModelKind};
use ramiel_runtime::{
    run_hyper_opts, run_hyper_stealing_opts, run_parallel_opts, run_sequential,
    run_sequential_opts, run_stealing_opts, synth_inputs, Env, RunOptions,
};
use ramiel_tensor::{ExecCtx, MemGauge, Value};
use ramiel_verify::{ExecPolicy, ScheduleView};
use std::sync::Arc;

fn gauge_ctx() -> (Arc<MemGauge>, ExecCtx) {
    let gauge = MemGauge::new();
    let ctx = ExecCtx::sequential().with_mem_gauge(gauge.clone());
    (gauge, ctx)
}

fn assert_bound(model: &str, executor: &str, estimate: u64, gauge: &MemGauge) {
    let measured = gauge.peak_bytes();
    assert!(
        measured <= estimate,
        "{model}/{executor}: measured peak {measured} B exceeds static estimate {estimate} B"
    );
    assert_eq!(
        gauge.live_bytes(),
        0,
        "{model}/{executor}: gauge leaked live bytes after the run"
    );
}

/// Contract 1 over the whole 8-model × 6-executor matrix.
#[test]
fn estimate_upper_bounds_measured_peak_on_every_executor() {
    let cfg = ModelConfig::tiny();
    for kind in ModelKind::all() {
        let model = kind.name();
        let g = build(kind, &cfg);
        let clustering = cluster_graph(&g, &StaticCost);
        let inputs = synth_inputs(&g, 42);

        // sequential: single worker, the executor's own topological order
        let order = ramiel_ir::topo::topo_sort(&g).unwrap();
        let view = ScheduleView::single_batch(vec![order], ExecPolicy::InOrder);
        let (est, _) = estimate_memory(&g, &view);
        let (gauge, ctx) = gauge_ctx();
        run_sequential(&g, &inputs, &ctx).unwrap();
        assert_bound(model, "sequential", est.peak_bytes, &gauge);

        // run_parallel_opts: cluster-per-worker, first-ready-first replay
        let mut view = clustering_view(&clustering);
        view.policy = ExecPolicy::FirstReady;
        let (est, _) = estimate_memory(&g, &view);
        let (gauge, ctx) = gauge_ctx();
        run_parallel_opts(&g, &clustering, &inputs, &ctx, &RunOptions::default()).unwrap();
        assert_bound(model, "parallel", est.peak_bytes, &gauge);

        // work stealing: no static schedule, so the bound comes from the
        // estimate-only stealing view (first-ready resident sum — sound for
        // any interleaving the pool picks)
        let (est, _) = estimate_memory(&g, &stealing_view(&g, 1));
        assert!(!est.exact, "stealing view must be estimate-only");
        let (gauge, ctx) = gauge_ctx();
        run_stealing_opts(&g, &clustering, &inputs, &ctx, &RunOptions::default()).unwrap();
        assert_bound(model, "stealing", est.peak_bytes, &gauge);

        // hyperclustered batch executors, plain and switched, batch 4
        let batch_inputs: Vec<Env> = (0..4).map(|b| synth_inputs(&g, 100 + b as u64)).collect();
        for (label, hc) in [
            ("hyper", hypercluster(&clustering, 4)),
            ("hyper-switched", switched_hypercluster(&clustering, 4)),
        ] {
            let mut view = hyper_view(&hc);
            view.policy = ExecPolicy::FirstReady;
            let (est, _) = estimate_memory(&g, &view);
            let (gauge, ctx) = gauge_ctx();
            run_hyper_opts(&g, &hc, &batch_inputs, &ctx, &RunOptions::default()).unwrap();
            assert_bound(model, label, est.peak_bytes, &gauge);
        }

        // batched stealing under the batch-4 estimate-only view
        let (est, _) = estimate_memory(&g, &stealing_view(&g, 4));
        let hc = switched_hypercluster(&clustering, 4);
        let (gauge, ctx) = gauge_ctx();
        run_hyper_stealing_opts(&g, &hc, &batch_inputs, &ctx, &RunOptions::default()).unwrap();
        assert_bound(model, "hyper-stealing", est.peak_bytes, &gauge);
    }
}

/// First `(tensor, reason)` where two envs differ in exact f32 bit
/// patterns (or any non-f32 value differs at all).
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

fn assert_bits(expect: &Env, got: &Env, model: &str, executor: &str) {
    if let Some((tensor, why)) = first_bit_divergence(expect, got) {
        panic!("{model}/{executor}: reuse changed output `{tensor}`: {why}");
    }
    assert_eq!(expect.len(), got.len(), "{model}/{executor}: output count");
}

/// Contract 2: `reuse: true` (default, in-place + eviction) is bit-identical
/// to `reuse: false` on every executor and every model.
#[test]
fn in_place_reuse_is_bit_identical_on_every_executor() {
    let cfg = ModelConfig::tiny();
    let ctx = ExecCtx::sequential();
    let on = RunOptions::default();
    let off = RunOptions::default().reuse(false);
    for kind in ModelKind::all() {
        let model = kind.name();
        let g = build(kind, &cfg);
        let clustering = cluster_graph(&g, &StaticCost);
        let inputs = synth_inputs(&g, 7);

        let base = run_sequential_opts(&g, &inputs, &ctx, &off).unwrap();
        let seq = run_sequential_opts(&g, &inputs, &ctx, &on).unwrap();
        assert_bits(&base, &seq, model, "sequential");

        for (opts, tag) in [(&off, "off"), (&on, "on")] {
            let par = run_parallel_opts(&g, &clustering, &inputs, &ctx, opts).unwrap();
            assert_bits(&base, &par, model, &format!("parallel[reuse={tag}]"));

            let stolen = run_stealing_opts(&g, &clustering, &inputs, &ctx, opts).unwrap();
            assert_bits(&base, &stolen, model, &format!("stealing[reuse={tag}]"));
        }

        let batch_inputs: Vec<Env> = (0..3).map(|b| synth_inputs(&g, 7 + b as u64)).collect();
        let baseline: Vec<Env> = batch_inputs
            .iter()
            .map(|inp| run_sequential_opts(&g, inp, &ctx, &off).unwrap())
            .collect();
        let hc = switched_hypercluster(&clustering, 3);
        for (opts, tag) in [(&off, "off"), (&on, "on")] {
            let outs = run_hyper_opts(&g, &hc, &batch_inputs, &ctx, opts).unwrap();
            for (b, out) in outs.iter().enumerate() {
                assert_bits(
                    &baseline[b],
                    out,
                    model,
                    &format!("hyper[reuse={tag}] b{b}"),
                );
            }

            let outs = run_hyper_stealing_opts(&g, &hc, &batch_inputs, &ctx, opts).unwrap();
            for (b, out) in outs.iter().enumerate() {
                assert_bits(
                    &baseline[b],
                    out,
                    model,
                    &format!("hyper-stealing[reuse={tag}] b{b}"),
                );
            }
        }
    }
}

mod prop {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The bound holds for arbitrary input seeds, not just the fixed
        /// ones above: payload values can never change liveness.
        #[test]
        fn estimate_bounds_measured_peak_for_any_seed(
            seed in any::<u64>(),
            use_bert in any::<bool>(),
        ) {
            let kind = if use_bert {
                ModelKind::Bert
            } else {
                ModelKind::Squeezenet
            };
            let g = build(kind, &ModelConfig::tiny());
            let clustering = cluster_graph(&g, &StaticCost);
            let inputs = synth_inputs(&g, seed);

            let order = ramiel_ir::topo::topo_sort(&g).unwrap();
            let view = ScheduleView::single_batch(vec![order], ExecPolicy::InOrder);
            let (est, _) = estimate_memory(&g, &view);
            let (gauge, ctx) = gauge_ctx();
            run_sequential(&g, &inputs, &ctx).unwrap();
            prop_assert!(gauge.peak_bytes() <= est.peak_bytes);

            let mut view = clustering_view(&clustering);
            view.policy = ExecPolicy::FirstReady;
            let (est, _) = estimate_memory(&g, &view);
            let (gauge, ctx) = gauge_ctx();
            run_parallel_opts(&g, &clustering, &inputs, &ctx, &RunOptions::default()).unwrap();
            prop_assert!(gauge.peak_bytes() <= est.peak_bytes);

            let (est, _) = estimate_memory(&g, &stealing_view(&g, 1));
            let (gauge, ctx) = gauge_ctx();
            run_stealing_opts(&g, &clustering, &inputs, &ctx, &RunOptions::default()).unwrap();
            prop_assert!(gauge.peak_bytes() <= est.peak_bytes);
        }
    }
}
