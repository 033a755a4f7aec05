//! `infer-b1`: batch-1 inference over all eight prepared models in fixed
//! round-robin order, closed loop with one caller.
//!
//! Each op is one `run_stealing_opts` call, the library's public batch-1
//! entry point, and its outputs must match the `run_sequential` oracle
//! computed at setup bit for bit. The traced op makes the two calls that
//! entry point is made of (`StealPlan::new`, then `StealPool::run_plan`)
//! and times each; a replay afterwards times the sequential executor and
//! every kernel call (`ramiel_tensor::eval_op`) by op kind.

use crate::inputs::{graph_inputs, same_outputs, Rng};
use crate::ledger::Ledger;
use crate::{Measured, Metric};
use ramiel::{PipelineOptions, PreparedModel};
use ramiel_ir::OpKind;
use ramiel_models::{build, ModelConfig, ModelKind};
use ramiel_runtime::{Env, StealPlan, StealPool};
use ramiel_tensor::{ExecCtx, Value};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Seeded input sets per model.
const INPUT_SETS: usize = 2;

/// Kernel-time buckets of the tensor ledger. No zoo model has a fused
/// LayerNorm node (BERT spells it out as ReduceMean, Sub, Mul, Sqrt and
/// Div), so its time falls in `tensor.other_ms`.
const KINDS: [&str; 7] = [
    "tensor.conv_ms",
    "tensor.gemm_ms",
    "tensor.add_ms",
    "tensor.softmax_ms",
    "tensor.pool_ms",
    "tensor.concat_ms",
    "tensor.other_ms",
];

fn kind_of(op: &OpKind) -> &'static str {
    match op {
        OpKind::Conv { .. } => KINDS[0],
        OpKind::Gemm { .. } | OpKind::MatMul => KINDS[1],
        OpKind::Add => KINDS[2],
        OpKind::Softmax { .. } => KINDS[3],
        OpKind::MaxPool(_) | OpKind::AveragePool(_) | OpKind::GlobalAveragePool => KINDS[4],
        OpKind::Concat { .. } => KINDS[5],
        _ => KINDS[6],
    }
}

struct Model {
    prepared: PreparedModel,
    inputs: Vec<Env>,
    /// `run_sequential` outputs for each input set.
    oracle: Vec<Env>,
}

pub struct InferB1 {
    models: Vec<Model>,
    ctx: ExecCtx,
    next: usize,
}

impl InferB1 {
    pub fn setup(seed: u64) -> Result<InferB1, String> {
        let ctx = ExecCtx::sequential();
        let mut rng = Rng::stream(seed, "infer-inputs");
        let models = ModelKind::all()
            .into_iter()
            .map(|kind| {
                let g = build(kind, &ModelConfig::full());
                let prepared = ramiel::prepare(g, &PipelineOptions::all_optimizations())
                    .map_err(|e| e.to_string())?;
                let graph = &prepared.compiled.graph;
                let inputs: Vec<Env> = (0..INPUT_SETS)
                    .map(|_| graph_inputs(graph, &mut rng))
                    .collect();
                let oracle = inputs
                    .iter()
                    .map(|inp| {
                        ramiel_runtime::run_sequential_opts(
                            graph,
                            inp,
                            &ctx,
                            &prepared.run_options(),
                        )
                        .map_err(|e| format!("{}: {e}", kind.name()))
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                Ok(Model {
                    prepared,
                    inputs,
                    oracle,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(InferB1 {
            models,
            ctx,
            next: 0,
        })
    }

    /// Model and input set of the next op: models round-robin, input sets
    /// advancing once per round.
    fn next_op(&mut self) -> (usize, usize) {
        let i = self.next;
        self.next += 1;
        let n = self.models.len();
        (i % n, (i / n) % INPUT_SETS)
    }

    fn op(&self, m: usize, s: usize) -> bool {
        let model = &self.models[m];
        let c = &model.prepared.compiled;
        let out = ramiel_runtime::run_stealing_opts(
            &c.graph,
            &c.clustering,
            &model.inputs[s],
            &self.ctx,
            &model.prepared.run_options(),
        );
        out.is_ok_and(|o| same_outputs(&o, &model.oracle[s]))
    }

    fn traced_op(&self, m: usize, s: usize, ledger: &mut Ledger) -> bool {
        let model = &self.models[m];
        let c = &model.prepared.compiled;
        let t = Instant::now();
        let plan = match StealPlan::new(&c.graph, &c.clustering, 1) {
            Ok(p) => Arc::new(p),
            Err(_) => return false,
        };
        let built = Instant::now();
        ledger.add_ms("runtime.plan_build_ms", built - t);
        let out = StealPool::global().run_plan(
            &plan,
            std::slice::from_ref(&model.inputs[s]),
            &self.ctx,
            &model.prepared.run_options(),
        );
        ledger.add_ms("runtime.run_plan_ms", built.elapsed());
        ledger.add("ops", 1.0);
        out.is_ok_and(|mut o| o.len() == 1 && same_outputs(&o.remove(0), &model.oracle[s]))
    }

    /// Closed loop for `span`, or for `max_ops` ops if that comes first.
    pub fn run(
        &mut self,
        span: Duration,
        max_ops: usize,
        mut ledger: Option<&mut Ledger>,
    ) -> Measured {
        let pool = StealPool::global();
        let before = pool.stats_and_reset_window();
        let mut m = Measured::default();
        let start = Instant::now();
        while start.elapsed() < span && (m.attempted as usize) < max_ops {
            let (model, set) = self.next_op();
            let t = Instant::now();
            let ok = match ledger.as_deref_mut() {
                Some(l) => self.traced_op(model, set, l),
                None => self.op(model, set),
            };
            m.record(model, t.elapsed(), ok, true);
        }
        m.elapsed = start.elapsed();
        if let Some(l) = ledger {
            let after = pool.stats_and_reset_window();
            l.add("runtime.tasks", (after.tasks - before.tasks) as f64);
            l.add("runtime.steals", (after.steals - before.steals) as f64);
            l.add(
                "runtime.idle_ms",
                (after.idle_ns - before.idle_ns) as f64 / 1e6,
            );
            for _ in 0..2 {
                for (i, model) in self.models.iter().enumerate() {
                    m.attempted += 1;
                    if !self.replay(model, i % INPUT_SETS, l) {
                        m.failed += 1;
                    }
                }
            }
        }
        m
    }

    /// Time `run_sequential`, then the same graph node by node through
    /// `eval_op`, bucketing each kernel's time by op kind. Checks both
    /// against the oracle.
    fn replay(&self, model: &Model, s: usize, ledger: &mut Ledger) -> bool {
        let graph = &model.prepared.compiled.graph;
        let inputs = &model.inputs[s];
        let opts = model.prepared.run_options();
        let t = Instant::now();
        let seq = ramiel_runtime::run_sequential_opts(graph, inputs, &self.ctx, &opts);
        ledger.add_ms("runtime.seq_ms", t.elapsed());
        ledger.add("replay.runs", 1.0);
        let seq_ok = seq.is_ok_and(|o| same_outputs(&o, &model.oracle[s]));

        let Ok(order) = ramiel_ir::topo::topo_sort(graph) else {
            return false;
        };
        let init = &model.prepared.init_values;
        let mut env: HashMap<&str, Value> = inputs
            .iter()
            .map(|(k, v)| (k.as_str(), v.clone()))
            .collect();
        for id in order {
            let node = &graph.nodes[id];
            let outs = if matches!(node.op, OpKind::Constant) {
                match init.get(&node.outputs[0]) {
                    Some(v) => vec![v.clone()],
                    None => return false,
                }
            } else {
                let ins: Option<Vec<Value>> = node
                    .inputs
                    .iter()
                    .map(|name| env.get(name.as_str()).or_else(|| init.get(name)).cloned())
                    .collect();
                let Some(ins) = ins else {
                    return false;
                };
                let t = Instant::now();
                let r = ramiel_tensor::eval_op(&self.ctx, &node.op, &ins);
                ledger.add_ms(kind_of(&node.op), t.elapsed());
                match r {
                    Ok(o) => o,
                    Err(_) => return false,
                }
            };
            for (name, v) in node.outputs.iter().zip(outs) {
                env.insert(name.as_str(), v);
            }
        }
        let replayed: Env = graph
            .outputs
            .iter()
            .filter_map(|o| Some((o.clone(), env.get(o.as_str())?.clone())))
            .collect();
        seq_ok && same_outputs(&replayed, &model.oracle[s])
    }

    /// Close a traced run: per-op plan/run split, pool counters per op, and
    /// per-run sequential and kernel times with the share of the sequential
    /// run the kernels cover.
    pub fn finish_ledger(ledger: &Ledger, out: &mut Vec<Metric>) {
        let ops = ledger.sum("ops");
        let plan = ledger.sum("runtime.plan_build_ms") / ops;
        let run = ledger.sum("runtime.run_plan_ms") / ops;
        let runs = ledger.sum("replay.runs");
        let seq = ledger.sum("runtime.seq_ms") / runs;
        let tasks = ledger.sum("runtime.tasks");
        out.push(Metric::new("runtime.plan_build_ms", plan, "ms"));
        out.push(Metric::new("runtime.run_plan_ms", run, "ms"));
        out.push(Metric::new("runtime.seq_ms", seq, "ms"));
        // The replay visits every model equally often; the traced loop
        // visits them round-robin, so both means cover the same mix up to
        // the last partial round.
        out.push(Metric::new(
            "runtime.speedup_vs_seq",
            seq / (plan + run),
            "ratio",
        ));
        out.push(Metric::new("runtime.tasks", tasks / ops, "count"));
        out.push(Metric::new(
            "runtime.steal_ratio",
            ledger.sum("runtime.steals") / tasks.max(1.0),
            "ratio",
        ));
        out.push(Metric::new(
            "runtime.idle_ms",
            ledger.sum("runtime.idle_ms") / ops,
            "ms",
        ));
        let mut parts = Vec::new();
        for name in KINDS {
            let v = ledger.sum(name) / runs;
            parts.push(v);
            out.push(Metric::new(name, v, "ms"));
        }
        out.push(Metric::new(
            "tensor.coverage",
            crate::stats::coverage(&parts, seq),
            "ratio",
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_reports_per_op_means_and_kernel_coverage() {
        let mut l = Ledger::default();
        // 4 traced ops: 1 ms of plan building and 3 ms of running each;
        // 2 replays of 8 ms sequential, whose kernels took 6 ms in all.
        l.add("ops", 4.0);
        l.add("runtime.plan_build_ms", 4.0);
        l.add("runtime.run_plan_ms", 12.0);
        l.add("runtime.tasks", 400.0);
        l.add("runtime.steals", 40.0);
        l.add("replay.runs", 2.0);
        l.add("runtime.seq_ms", 16.0);
        l.add("tensor.conv_ms", 10.0);
        l.add("tensor.other_ms", 2.0);
        let mut out = Vec::new();
        InferB1::finish_ledger(&l, &mut out);
        let get = |name: &str| out.iter().find(|m| m.name == name).expect(name).value;
        assert_eq!(get("runtime.plan_build_ms"), 1.0);
        assert_eq!(get("runtime.seq_ms"), 8.0);
        assert_eq!(get("runtime.speedup_vs_seq"), 2.0);
        assert_eq!(get("runtime.tasks"), 100.0);
        assert_eq!(get("runtime.steal_ratio"), 0.1);
        assert_eq!(get("tensor.conv_ms"), 5.0);
        assert_eq!(get("tensor.coverage"), 0.75);
    }
}
