//! Model registry and plan cache.
//!
//! `load()` pays every per-model cost exactly once — clustering,
//! work-stealing plans at the batch sizes the micro-batcher will actually
//! hit, the shared initializer table, and a per-plan [`ExecCtx`] whose
//! packed-weight cache persists across requests — and shares the result
//! as an [`Arc<CompiledPlan>`]. The cache is LRU-bounded
//! ([`PlanCache::new`]) and every (re)load gets a fresh monotonically
//! increasing `version`, which is how a hot swap is observed: lanes pick
//! up the new plan at the next batch boundary.

use crate::server::ServeError;
use parking_lot::Mutex;
use ramiel_cluster::{cluster_graph, hypercluster, switched_hypercluster, Clustering, StaticCost};
use ramiel_ir::Graph;
use ramiel_runtime::StealPlan;
use ramiel_tensor::{ExecCtx, KernelBackend, Value};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// What to compile into a plan. The graph is the only required piece:
/// callers that already ran the pipeline (the CLI's `prepare()` path) pass
/// their clustering and initializer table through so nothing is recomputed;
/// otherwise `load()` clusters with the paper's static cost model.
pub struct PlanSpec {
    pub graph: Graph,
    /// `None` → LC+merge clustering under [`StaticCost`].
    pub clustering: Option<Clustering>,
    /// Use switched (Fig. 9) instead of plain (Fig. 8) hyperclustering for
    /// the locality hints of batch > 1 steal plans.
    pub switched: bool,
    /// Batch sizes whose steal plans are built at load time. Batch 1 is
    /// always included; other sizes the batcher reaches are planned lazily
    /// on first use.
    pub batch_sizes: Vec<usize>,
    /// Pre-converted weights to share (e.g. from `ramiel::prepare`);
    /// `None` → converted once at load.
    pub init_values: Option<Arc<HashMap<String, Value>>>,
}

impl PlanSpec {
    pub fn new(graph: Graph) -> PlanSpec {
        PlanSpec {
            graph,
            clustering: None,
            switched: false,
            batch_sizes: Vec::new(),
            init_values: None,
        }
    }
}

/// A fully compiled, execution-ready model plan, shared by every request.
pub struct CompiledPlan {
    pub name: String,
    /// Monotonic across the owning [`PlanCache`]; bumped on every reload
    /// of the same name (hot reload).
    pub version: u64,
    pub graph: Graph,
    pub clustering: Clustering,
    pub switched: bool,
    /// Shared pre-converted weights — every fetch is a refcount bump.
    pub init_values: Arc<HashMap<String, Value>>,
    /// Per-plan execution context: its packed-weight cache warms up on the
    /// first request and is reused by every later one (clones share it).
    pub ctx: ExecCtx,
    /// Work-stealing plans, keyed by batch size.
    steal_plans: Mutex<BTreeMap<usize, Arc<StealPlan>>>,
}

impl std::fmt::Debug for CompiledPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledPlan")
            .field("name", &self.name)
            .field("version", &self.version)
            .field("clusters", &self.clustering.num_clusters())
            .field("switched", &self.switched)
            .finish_non_exhaustive()
    }
}

impl CompiledPlan {
    pub(crate) fn build(
        name: &str,
        version: u64,
        spec: PlanSpec,
        intra_op: usize,
        backend: KernelBackend,
    ) -> Result<CompiledPlan, ServeError> {
        let PlanSpec {
            graph,
            clustering,
            switched,
            batch_sizes,
            init_values,
        } = spec;
        let clustering = clustering.unwrap_or_else(|| cluster_graph(&graph, &StaticCost));
        let init_values = match init_values {
            Some(iv) => iv,
            None => ramiel_runtime::initializer_values(&graph).map_err(ServeError::Runtime)?,
        };
        let ctx = if intra_op > 1 {
            ExecCtx::with_intra_op(intra_op)
        } else {
            ExecCtx::sequential()
        }
        .with_backend(backend);
        let plan = CompiledPlan {
            name: name.to_string(),
            version,
            graph,
            clustering,
            switched,
            init_values,
            ctx,
            steal_plans: Mutex::new(BTreeMap::new()),
        };
        let mut sizes = batch_sizes;
        sizes.push(1);
        for b in sizes {
            plan.steal_plan_for(b)?;
        }
        Ok(plan)
    }

    /// The work-stealing plan for `batch` samples — built at load for the
    /// spec'd sizes, built lazily (then cached) for any other size the
    /// micro-batcher manages to collect. Locality hints for batch > 1 come
    /// from the plan's (plain or switched) hyperclustering.
    pub fn steal_plan_for(&self, batch: usize) -> Result<Arc<StealPlan>, ServeError> {
        if batch == 0 {
            return Err(ServeError::Internal("batch size 0".into()));
        }
        let mut plans = self.steal_plans.lock();
        if let Some(p) = plans.get(&batch) {
            return Ok(Arc::clone(p));
        }
        let plan = if batch == 1 {
            StealPlan::new(&self.graph, &self.clustering, 1)
        } else {
            let hc = if self.switched {
                switched_hypercluster(&self.clustering, batch)
            } else {
                hypercluster(&self.clustering, batch)
            };
            StealPlan::from_hyper(&self.graph, &hc)
        }
        .map_err(ServeError::Runtime)?;
        let plan = Arc::new(plan);
        plans.insert(batch, Arc::clone(&plan));
        Ok(plan)
    }

    /// Batch sizes with a built steal plan (load-time + lazily added).
    pub fn planned_batches(&self) -> Vec<usize> {
        self.steal_plans.lock().keys().copied().collect()
    }
}

/// LRU-bounded registry of compiled plans, keyed by model name.
pub struct PlanCache {
    capacity: usize,
    /// Most-recently-used first.
    inner: Mutex<Vec<Arc<CompiledPlan>>>,
    next_version: AtomicU64,
}

impl PlanCache {
    /// `capacity` is clamped to at least 1.
    pub fn new(capacity: usize) -> PlanCache {
        PlanCache {
            capacity: capacity.max(1),
            inner: Mutex::new(Vec::new()),
            next_version: AtomicU64::new(1),
        }
    }

    /// Compile `spec` under `name` and insert it. Reloading an existing
    /// name replaces the plan (with a bumped `version`); inserting past
    /// capacity evicts the least-recently-used plans. Returns the new plan
    /// and whatever was evicted (so the server can drain those lanes).
    /// Compilation runs outside the cache lock.
    #[allow(clippy::type_complexity)]
    pub fn load(
        &self,
        name: &str,
        spec: PlanSpec,
        intra_op: usize,
        backend: KernelBackend,
    ) -> Result<(Arc<CompiledPlan>, Vec<Arc<CompiledPlan>>), ServeError> {
        let version = self.next_version.fetch_add(1, Ordering::Relaxed);
        let plan = Arc::new(CompiledPlan::build(name, version, spec, intra_op, backend)?);
        let mut inner = self.inner.lock();
        inner.retain(|p| p.name != name);
        inner.insert(0, Arc::clone(&plan));
        let mut evicted = Vec::new();
        while inner.len() > self.capacity {
            evicted.push(inner.pop().expect("len > capacity >= 1"));
        }
        Ok((plan, evicted))
    }

    /// Fetch by name, marking the plan most-recently-used.
    pub fn get(&self, name: &str) -> Option<Arc<CompiledPlan>> {
        let mut inner = self.inner.lock();
        let idx = inner.iter().position(|p| p.name == name)?;
        let plan = inner.remove(idx);
        inner.insert(0, Arc::clone(&plan));
        Some(plan)
    }

    /// Loaded model names, most-recently-used first.
    pub fn names(&self) -> Vec<String> {
        self.inner.lock().iter().map(|p| p.name.clone()).collect()
    }

    /// `(name, version)` for every loaded plan, most-recently-used first —
    /// the observable a hot-swap verifier polls for the version bump.
    pub fn versions(&self) -> Vec<(String, u64)> {
        self.inner
            .lock()
            .iter()
            .map(|p| (p.name.clone(), p.version))
            .collect()
    }

    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.inner.lock().is_empty()
    }
}
