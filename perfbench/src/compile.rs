//! `compile-zoo`: import and compile the ONNX bytes of all eight full-size
//! models, closed loop on one thread.
//!
//! Each op is `ramiel_onnx::import_model` followed by `ramiel::prepare`
//! with every optimization on — the paper's compile-time metric over the
//! whole pipeline. The traced op makes the same calls stage by stage (the
//! sequence `ramiel::compile` runs) and times each one.

use crate::inputs::Rng;
use crate::ledger::Ledger;
use crate::Measured;
use ramiel::{CostKind, PipelineOptions};
use ramiel_models::{build, ModelConfig, ModelKind};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Per-layer stages of one compile, in pipeline order.
const STAGES: [&str; 8] = [
    "onnx.import_ms",
    "passes.prune_ms",
    "passes.clone_ms",
    "cluster.distance_ms",
    "cluster.lc_ms",
    "cluster.merge_ms",
    "codegen.emit_ms",
    "runtime.init_values_ms",
];

struct Model {
    onnx: Vec<u8>,
    /// Node and cluster counts `ramiel::prepare` produced at setup.
    nodes: usize,
    clusters: usize,
}

pub struct CompileZoo {
    models: Vec<Model>,
    /// Seeded visiting order: one shuffled round of the eight models after
    /// another.
    rng: Rng,
    round: Vec<usize>,
}

impl CompileZoo {
    pub fn setup(seed: u64) -> Result<CompileZoo, String> {
        let opts = PipelineOptions::all_optimizations();
        let models = ModelKind::all()
            .into_iter()
            .map(|kind| {
                let onnx = ramiel_onnx::export_model(&build(kind, &ModelConfig::full()));
                let g = ramiel_onnx::import_model(&onnx).map_err(|e| e.to_string())?;
                let p = ramiel::prepare(g, &opts).map_err(|e| e.to_string())?;
                Ok(Model {
                    onnx,
                    nodes: p.compiled.graph.num_nodes(),
                    clusters: p.compiled.clustering.num_clusters(),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(CompileZoo {
            models,
            rng: Rng::stream(seed, "compile-order"),
            round: Vec::new(),
        })
    }

    fn next_model(&mut self) -> usize {
        if self.round.is_empty() {
            self.round = (0..self.models.len()).collect();
            for i in (1..self.round.len()).rev() {
                let j = self.rng.below(i + 1);
                self.round.swap(i, j);
            }
        }
        self.round.pop().expect("round refilled above")
    }

    /// One untraced op; true when the compiled model has the node and
    /// cluster counts recorded at setup.
    fn op(&self, m: usize) -> bool {
        let model = &self.models[m];
        let Ok(g) = ramiel_onnx::import_model(&model.onnx) else {
            return false;
        };
        match ramiel::prepare(g, &PipelineOptions::all_optimizations()) {
            Ok(p) => {
                let ok = p.compiled.graph.num_nodes() == model.nodes
                    && p.compiled.clustering.num_clusters() == model.clusters;
                black_box(p);
                ok
            }
            Err(_) => false,
        }
    }

    /// One traced op: the same calls `prepare` makes, stage by stage.
    fn traced_op(&self, m: usize, ledger: &mut Ledger) -> bool {
        let model = &self.models[m];
        let cost = CostKind::Static.model();
        let start = Instant::now();
        let mut t = start;
        let mut lap = |ledger: &mut Ledger, name: &str| {
            let now = Instant::now();
            ledger.add_ms(name, now - t);
            t = now;
        };
        let Ok(mut g) = ramiel_onnx::import_model(&model.onnx) else {
            return false;
        };
        lap(ledger, STAGES[0]);
        if ramiel_passes::prune(&mut g).is_err() {
            return false;
        }
        lap(ledger, STAGES[1]);
        let clone_cfg = ramiel_passes::CloneConfig::default();
        if ramiel_passes::clone_nodes(&mut g, cost.as_ref(), &clone_cfg).is_err() {
            return false;
        }
        lap(ledger, STAGES[2]);
        let distances = ramiel_cluster::distance_to_end(&g, cost.as_ref());
        lap(ledger, STAGES[3]);
        let lc = ramiel_cluster::linear_clustering(&g, &distances);
        lap(ledger, STAGES[4]);
        let clustering = ramiel_cluster::merge_clusters_fixpoint(&lc, &distances);
        lap(ledger, STAGES[5]);
        let cg = ramiel_codegen::CodegenOptions::default();
        black_box(ramiel_codegen::generate_parallel(&g, &clustering, &cg));
        black_box(ramiel_codegen::generate_sequential(&g, &cg));
        lap(ledger, STAGES[6]);
        // The pipeline report is part of `compile` but no named stage.
        black_box(ramiel_cluster::parallelism_report(&g, cost.as_ref()));
        black_box(clustering.cross_cluster_edges(&g));
        lap(ledger, "compile.unnamed_ms");
        if black_box(ramiel_runtime::initializer_values(&g)).is_err() {
            return false;
        }
        lap(ledger, STAGES[7]);
        ledger.add("ops", 1.0);
        ledger.add_ms("wall_ms", start.elapsed());
        g.num_nodes() == model.nodes && clustering.num_clusters() == model.clusters
    }

    /// Closed loop for `span`, or for `max_ops` ops if that comes first.
    pub fn run(
        &mut self,
        span: Duration,
        max_ops: usize,
        mut ledger: Option<&mut Ledger>,
    ) -> Measured {
        let mut m = Measured::default();
        let start = Instant::now();
        while start.elapsed() < span && (m.attempted as usize) < max_ops {
            let model = self.next_model();
            let t = Instant::now();
            let ok = match ledger.as_deref_mut() {
                Some(l) => self.traced_op(model, l),
                None => self.op(model),
            };
            m.record(model, t.elapsed(), ok, true);
        }
        m.elapsed = start.elapsed();
        m
    }

    /// Close a traced run: per-op means of every stage, the share of the op
    /// they cover, and the exact node and cluster counts of the zoo (every
    /// traced op has checked its own counts against them).
    pub fn finish_ledger(&self, ledger: &Ledger, out: &mut Vec<crate::Metric>) {
        let ops = ledger.sum("ops");
        let mut parts = Vec::new();
        for name in STAGES {
            let v = ledger.sum(name) / ops;
            parts.push(v);
            out.push(crate::Metric::new(name, v, "ms"));
        }
        let nodes: usize = self.models.iter().map(|m| m.nodes).sum();
        let clusters: usize = self.models.iter().map(|m| m.clusters).sum();
        out.push(crate::Metric::new(
            "passes.nodes_out",
            nodes as f64,
            "count",
        ));
        out.push(crate::Metric::new(
            "cluster.clusters_out",
            clusters as f64,
            "count",
        ));
        out.push(crate::Metric::new(
            "compile.coverage",
            crate::stats::coverage(&parts, ledger.sum("wall_ms") / ops),
            "ratio",
        ));
    }
}
