//! Parallel cluster executor.
//!
//! One OS thread per (hyper)cluster — the paper forks one Python process per
//! cluster; Rust threads give the same placement without the GIL dance.
//! Every cross-cluster tensor dependence becomes a message on the consumer's
//! inbox channel (the paper's `queue.put()` / `queue.get()` pairs).
//!
//! Workers execute their op list *first-ready-first*: they walk the list and
//! run the earliest op whose operands have arrived, buffering out-of-order
//! messages. For linear/merged clusters (ordered by decreasing
//! `distance_to_end`) this degenerates to strict in-order execution; for
//! *switched* hyperclusters it is load-bearing — a strict in-order worker
//! can deadlock on cross-batch wait cycles, which is precisely why the paper
//! calls automatic switched hyperclustering "complex" and hand-tunes it for
//! larger models.
//!
//! ## Failure semantics
//!
//! Worker panics are caught per-thread and surfaced as structured
//! [`RuntimeError`]s. The first failing worker raises a shared abort flag
//! and broadcasts [`Msg::Abort`] to every peer inbox, so workers blocked in
//! `recv` wake immediately instead of burning the full recv timeout. The
//! join path then reports the *root cause* (kernel error, panic, injected
//! fault, timeout) rather than the secondary teardown errors. Fault
//! injection ([`crate::fault`]) and the recv timeout are threaded through
//! [`RunOptions`].

use crate::fault::{panic_to_error, FaultInjector, FaultKind, InjectedPanic, INJECT_MARKER};
use crate::profile::{OpRecord, ProfileDb, WorkerSpan};
use crate::reuse::{charge_bytes, Liveness};
use crate::{value_bytes, Env, Result, RuntimeError, ABORT_DETAIL};
use crossbeam::channel::{bounded, Receiver, Sender};
use parking_lot::Mutex;
use ramiel_cluster::hyper::{HyperClustering, HyperOp};
use ramiel_cluster::Clustering;
use ramiel_ir::{Graph, OpKind};
use ramiel_obs::{ChannelMeter, Obs};
use ramiel_passes::{inplace_marks, InPlaceMarks};
use ramiel_tensor::{eval_op, eval_op_inplace, ExecCtx, Value};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a worker may block on a message before declaring the schedule
/// deadlocked (a schedule bug, not a transient condition). Overridable via
/// `RAMIEL_RECV_TIMEOUT_MS` so tests can exercise the deadlock path quickly,
/// or per-run via [`RunOptions::recv_timeout`].
pub(crate) fn default_recv_timeout() -> Duration {
    static TIMEOUT: std::sync::OnceLock<Duration> = std::sync::OnceLock::new();
    *TIMEOUT.get_or_init(|| {
        let default = Duration::from_millis(crate::limits::DEFAULT_RECV_TIMEOUT_MS);
        match std::env::var(crate::limits::RECV_TIMEOUT_ENV) {
            Ok(v) => v
                .parse::<u64>()
                .map(Duration::from_millis)
                .unwrap_or_else(|_| {
                    ramiel_obs::warn(
                        "RT-ENV",
                        format!(
                            "ignoring unparsable RAMIEL_RECV_TIMEOUT_MS=`{v}` \
                             (want milliseconds as an integer); using {}s",
                            default.as_secs()
                        ),
                    );
                    default
                }),
            Err(_) => default,
        }
    })
}

/// Per-run execution options: fault injection, failure-detection knobs, and
/// the observability sink.
#[derive(Clone)]
pub struct RunOptions {
    /// Fault injector shared across workers (and across supervised retries).
    pub injector: Option<Arc<FaultInjector>>,
    /// Worker recv timeout; `None` uses `RAMIEL_RECV_TIMEOUT_MS` or 30s.
    pub recv_timeout: Option<Duration>,
    /// Observability sink for structured fault/abort events; disabled by
    /// default (one null check per event).
    pub obs: Obs,
    /// Pre-converted initializer table (see [`crate::initializer_values`]).
    /// When set, runs reuse these shared `Value`s instead of re-converting
    /// the graph's `TensorData` — the win for repeated inference, since the
    /// conversion is the only remaining deep copy of the weights. Required
    /// by [`StealPool::run_plan`](crate::StealPool::run_plan): a plan holds
    /// no weights. The graph-taking entry points convert when it is unset.
    pub init_values: Option<Arc<HashMap<String, Value>>>,
    /// Lifetime-driven buffer reuse (on by default): evict tensors from
    /// worker environments after their last consumer and honor the
    /// `ramiel_passes::inplace` marks via `Arc::get_mut`. Outputs are
    /// bit-identical either way (the in-place kernels mirror the allocating
    /// ones and only fire on provably dead, uniquely-owned buffers); turning
    /// this off exists for memory-accounting baselines.
    pub reuse: bool,
    /// Scheduling adversary for the work-stealing executor (seeded stalls
    /// and placement permutations); ignored by the static executors. Used
    /// by the conformance harness — see `tests/steal_conformance.rs`.
    pub steal_chaos: Option<crate::stealing::StealChaos>,
    /// Request ids carried by a serve batch. Attached to the stealing
    /// executor's run span, so per-request serve traces can be joined with
    /// steal-pool task placement on the shared obs timeline. `None`
    /// outside the serving path.
    pub request_ids: Option<Arc<Vec<u64>>>,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            injector: None,
            recv_timeout: None,
            obs: Obs::default(),
            init_values: None,
            reuse: true,
            steal_chaos: None,
            request_ids: None,
        }
    }
}

impl RunOptions {
    pub fn with_injector(injector: Arc<FaultInjector>) -> Self {
        RunOptions {
            injector: Some(injector),
            ..RunOptions::default()
        }
    }

    /// Enable or disable lifetime-driven buffer reuse.
    pub fn reuse(mut self, reuse: bool) -> Self {
        self.reuse = reuse;
        self
    }

    pub fn recv_timeout(mut self, timeout: Duration) -> Self {
        self.recv_timeout = Some(timeout);
        self
    }

    pub fn obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Reuse a shared initializer table across runs.
    pub fn init_values(mut self, init_values: Arc<HashMap<String, Value>>) -> Self {
        self.init_values = Some(init_values);
        self
    }

    /// Arm the work-stealing scheduling adversary (no-op on the static
    /// executors).
    pub fn steal_chaos(mut self, chaos: crate::stealing::StealChaos) -> Self {
        self.steal_chaos = Some(chaos);
        self
    }
}

/// Key for a tensor instance: (tensor name, batch element).
type Key = (String, usize);

/// A message between cluster workers. Tensors carry the sending worker so
/// receivers can attribute blocked time to the right channel edge.
enum Msg {
    Tensor(Key, Value, usize),
    /// A peer failed; unwind without waiting for more tensors.
    Abort,
}

/// Execute a batch-1 clustering in parallel. Returns the graph outputs.
pub fn run_parallel_opts(
    graph: &Graph,
    clustering: &Clustering,
    inputs: &Env,
    ctx: &ExecCtx,
    opts: &RunOptions,
) -> Result<Env> {
    let hc = ramiel_cluster::hypercluster(clustering, 1);
    let mut outs = run_hyper_opts(graph, &hc, std::slice::from_ref(inputs), ctx, opts)?;
    Ok(outs.pop().expect("batch 1 yields one output env"))
}

/// Execute a hyperclustered schedule over `batch` independent input
/// environments. Returns one output environment per batch element.
pub fn run_hyper_opts(
    graph: &Graph,
    hc: &HyperClustering,
    inputs: &[Env],
    ctx: &ExecCtx,
    opts: &RunOptions,
) -> Result<Vec<Env>> {
    run_hyper_profiled_opts(graph, hc, inputs, ctx, opts).map(|(outs, _)| outs)
}

/// Shared read-only worker state (one instance per run, borrowed by every
/// worker thread in the scope).
struct Shared<'a> {
    graph: &'a Graph,
    inputs: &'a [Env],
    init_values: &'a HashMap<String, Value>,
    senders: &'a [Sender<Msg>],
    consumers: &'a HashMap<Key, Vec<usize>>,
    out_envs: &'a Mutex<Vec<Env>>,
    graph_outputs: &'a HashSet<&'a str>,
    db: &'a Mutex<ProfileDb>,
    meter: &'a ChannelMeter,
    obs: &'a Obs,
    epoch: Instant,
    abort: &'a AtomicBool,
    recv_timeout: Duration,
    injector: Option<&'a Arc<FaultInjector>>,
    marks: &'a InPlaceMarks,
    reuse: bool,
}

/// [`run_hyper_opts`] plus the profiling database (per-op times and
/// communication slack). Batch-1 callers pass `hypercluster(c, 1)`.
pub fn run_hyper_profiled_opts(
    graph: &Graph,
    hc: &HyperClustering,
    inputs: &[Env],
    ctx: &ExecCtx,
    opts: &RunOptions,
) -> Result<(Vec<Env>, ProfileDb)> {
    if inputs.len() != hc.batch {
        return Err(RuntimeError::Setup(format!(
            "hypercluster expects {} input envs, got {}",
            hc.batch,
            inputs.len()
        )));
    }
    let k = hc.num_hyperclusters();

    // (batch, node) → owning worker.
    let mut owner: HashMap<(usize, usize), usize> = HashMap::new();
    for (w, ops) in hc.hyperclusters.iter().enumerate() {
        for op in ops {
            owner.insert((op.batch, op.node), w);
        }
    }

    // For every produced tensor instance, the set of *remote* consumer
    // workers it must be sent to.
    let adj = graph.adjacency();
    let mut consumers: HashMap<Key, Vec<usize>> = HashMap::new();
    for (w, ops) in hc.hyperclusters.iter().enumerate() {
        for op in ops {
            let node = &graph.nodes[op.node];
            for inp in &node.inputs {
                if let Some(&p) = adj.producer_of.get(inp) {
                    let pw = owner
                        .get(&(op.batch, p))
                        .ok_or_else(|| RuntimeError::Setup(format!("node {p} unassigned")))?;
                    if *pw != w {
                        let entry = consumers.entry((inp.clone(), op.batch)).or_default();
                        if !entry.contains(&w) {
                            entry.push(w);
                        }
                    }
                }
            }
        }
    }

    // One inbox per worker. Bounded so a runaway producer applies
    // backpressure instead of growing without limit; the capacity lives in
    // `limits` where the ramiel-analyze RA0401 lint reads the same number.
    let channels: Vec<(Sender<Msg>, Receiver<Msg>)> = (0..k)
        .map(|_| bounded(crate::limits::DATA_CHANNEL_CAPACITY))
        .collect();
    let senders: Vec<Sender<Msg>> = channels.iter().map(|(s, _)| s.clone()).collect();

    // Shared read-only state. The initializer table is built (deep-copied
    // out of the graph) at most once per run — or zero times, when the
    // caller supplies a shared table via `RunOptions::init_values` — and
    // every worker fetch of a weight is then a refcount bump.
    let init_values: Arc<HashMap<String, Value>> = match &opts.init_values {
        Some(iv) => Arc::clone(iv),
        None => crate::initializer_values(graph)?,
    };
    let graph_outputs: HashSet<&str> = graph.outputs.iter().map(String::as_str).collect();

    let out_envs: Mutex<Vec<Env>> = Mutex::new(vec![Env::new(); hc.batch]);
    let mut db0 = ProfileDb::new(k, hc.batch);
    // Anchor this run on the sink's timeline so executor slices line up
    // with compile spans captured earlier on the same sink.
    db0.set_epoch_offset_ns(opts.obs.now_ns());
    db0.set_backend(ctx.backend().name());
    let db: Mutex<ProfileDb> = Mutex::new(db0);
    let meter = ChannelMeter::new(k);
    let abort = AtomicBool::new(false);
    let marks = if opts.reuse {
        inplace_marks(graph)
    } else {
        InPlaceMarks::empty()
    };
    let shared = Shared {
        graph,
        inputs,
        init_values: init_values.as_ref(),
        senders: &senders,
        consumers: &consumers,
        out_envs: &out_envs,
        graph_outputs: &graph_outputs,
        db: &db,
        meter: &meter,
        obs: &opts.obs,
        epoch: Instant::now(),
        abort: &abort,
        recv_timeout: opts.recv_timeout.unwrap_or_else(default_recv_timeout),
        injector: opts.injector.as_ref(),
        marks: &marks,
        reuse: opts.reuse,
    };

    std::thread::scope(|scope| -> Result<()> {
        let mut handles = Vec::with_capacity(k);
        for (w, ops) in hc.hyperclusters.iter().enumerate() {
            let rx = channels[w].1.clone();
            let ctx = ctx.clone();
            let sh = &shared;
            handles.push(scope.spawn(move || -> Result<()> {
                let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    worker_loop(sh, w, ops, rx, &ctx)
                }))
                .unwrap_or_else(|payload| Err(panic_to_error(Some(w), payload)));
                if let Err(e) = &r {
                    // First failure: raise the abort flag and wake every
                    // peer so nobody waits out the full recv timeout.
                    if !e.is_abort() {
                        sh.abort.store(true, Ordering::Relaxed);
                        for (t, s) in sh.senders.iter().enumerate() {
                            if t != w {
                                // try_send: the abort *flag* is the real
                                // signal; this only wakes peers blocked in
                                // recv, and a full inbox means the peer is
                                // not blocked.
                                let _ = s.try_send(Msg::Abort);
                            }
                        }
                    }
                }
                r
            }));
        }
        let mut errors: Vec<RuntimeError> = Vec::new();
        for (w, h) in handles.into_iter().enumerate() {
            match h.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => errors.push(e),
                // Unreachable in practice (panics are caught inside the
                // closure), but never let a panic escape the join path.
                Err(payload) => errors.push(panic_to_error(Some(w), payload)),
            }
        }
        match root_cause(errors) {
            Some(e) => Err(e),
            None => Ok(()),
        }
    })?;

    db.lock().set_channels(meter.stats());

    // Outputs that are direct inputs/initializers (degenerate but legal).
    let mut outs = out_envs.into_inner();
    for (b, env) in outs.iter_mut().enumerate() {
        for name in &graph.outputs {
            if !env.contains_key(name) {
                if let Some(v) = inputs[b].get(name).or_else(|| init_values.get(name)) {
                    env.insert(name.clone(), v.clone());
                }
            }
        }
    }
    Ok((outs, db.into_inner()))
}

/// Pick the most root-cause-like error from a failed run: injected faults,
/// kernel errors and panics outrank timeouts, which outrank closed
/// channels, which outrank the secondary post-abort teardown errors.
fn root_cause(errors: Vec<RuntimeError>) -> Option<RuntimeError> {
    errors
        .into_iter()
        .enumerate()
        .min_by_key(|(i, e)| (e.severity_rank(), *i))
        .map(|(_, e)| e)
}

fn abort_error(me: usize) -> RuntimeError {
    RuntimeError::ChannelClosed {
        cluster: Some(me),
        detail: ABORT_DETAIL.into(),
    }
}

/// The body of one cluster worker: first-ready-first execution over its op
/// list, draining the inbox while blocked.
fn worker_loop(
    sh: &Shared<'_>,
    me: usize,
    ops: &[HyperOp],
    rx: Receiver<Msg>,
    ctx: &ExecCtx,
) -> Result<()> {
    // Local environment of tensor instances available to this worker.
    let mut env: HashMap<Key, Value> = HashMap::new();
    // Liveness over this worker's keys: reads remaining per tensor instance
    // (graph outputs produced here carry one extra pin so they stay resident
    // — and charged — to the end, matching the static estimate).
    let mut live = {
        let mut uses: HashMap<Key, usize> = HashMap::new();
        for op in ops {
            let node = &sh.graph.nodes[op.node];
            for t in &node.inputs {
                *uses.entry((t.clone(), op.batch)).or_insert(0) += 1;
            }
            for name in &node.outputs {
                if sh.graph_outputs.contains(name.as_str()) {
                    *uses.entry((name.clone(), op.batch)).or_insert(0) += 1;
                }
            }
        }
        Liveness::new(uses, ctx.mem_gauge().cloned())
    };
    let mut remaining: Vec<bool> = vec![true; ops.len()];
    let mut left = ops.len();
    let mut records = Vec::with_capacity(ops.len());
    let loop_start_ns = (Instant::now() - sh.epoch).as_nanos() as u64;

    let available = |env: &HashMap<Key, Value>, tensor: &str, batch: usize| -> bool {
        env.contains_key(&(tensor.to_string(), batch))
            || sh.init_values.contains_key(tensor)
            || sh.inputs[batch].contains_key(tensor)
    };
    let fetch = |env: &HashMap<Key, Value>, tensor: &str, batch: usize| -> Result<Value> {
        if let Some(v) = env.get(&(tensor.to_string(), batch)) {
            return Ok(v.clone());
        }
        if let Some(v) = sh.inputs[batch].get(tensor) {
            return Ok(v.clone());
        }
        if let Some(v) = sh.init_values.get(tensor) {
            return Ok(v.clone());
        }
        Err(RuntimeError::Setup(format!(
            "worker {me}: tensor `{tensor}` (batch {batch}) unavailable"
        )))
    };

    while left > 0 {
        if sh.abort.load(Ordering::Relaxed) {
            return Err(abort_error(me));
        }
        // Drain any already-arrived messages without blocking.
        while let Ok(msg) = rx.try_recv() {
            match msg {
                Msg::Tensor(key, v, from) => {
                    sh.meter.on_recv(from, me, 0);
                    live.charge(key.clone(), value_bytes(&v));
                    env.insert(key, v);
                }
                Msg::Abort => return Err(abort_error(me)),
            }
        }
        // First op whose operands are all available.
        let next = ops.iter().enumerate().position(|(i, op)| {
            remaining[i]
                && sh.graph.nodes[op.node]
                    .inputs
                    .iter()
                    .all(|t| available(&env, t, op.batch))
        });
        let Some(i) = next else {
            // Block for the next message (bounded, so schedule bugs surface
            // as errors instead of hangs).
            let wait_start = Instant::now();
            match rx.recv_timeout(sh.recv_timeout) {
                Ok(Msg::Tensor(key, v, from)) => {
                    let waited = wait_start.elapsed().as_nanos() as u64;
                    sh.meter.on_recv(from, me, waited);
                    if let Some(last) = records.last_mut() {
                        let r: &mut OpRecord = last;
                        r.slack_after_ns += waited;
                    }
                    live.charge(key.clone(), value_bytes(&v));
                    env.insert(key, v);
                    continue;
                }
                Ok(Msg::Abort) => return Err(abort_error(me)),
                Err(_) => {
                    return Err(RuntimeError::Timeout {
                        cluster: Some(me),
                        pending_ops: left,
                        detail: format!(
                            "worker {me}: deadlocked waiting for messages; \
                             run `ramiel check <model>` to statically diagnose the schedule"
                        ),
                    })
                }
            }
        };

        remaining[i] = false;
        left -= 1;
        let op = &ops[i];
        let node = &sh.graph.nodes[op.node];

        // Fault injection: arm this execution's faults, if any.
        let armed = match sh.injector {
            Some(inj) => inj.begin_node(op.node, op.batch),
            None => Vec::new(),
        };
        let mut kernel_fault = false;
        let mut drop_msgs = false;
        let mut send_delay = None;
        for kind in &armed {
            sh.obs.instant(
                me as u32,
                format!("fault:{}", kind.name()),
                "fault",
                serde_json::json!({ "node": op.node, "batch": op.batch }),
            );
            match kind {
                FaultKind::KernelError => kernel_fault = true,
                FaultKind::WorkerPanic => std::panic::panic_any(InjectedPanic {
                    node: op.node,
                    cluster: Some(me),
                }),
                FaultKind::SendDelay { millis } => {
                    send_delay = Some(Duration::from_millis(*millis))
                }
                FaultKind::RecvDelay { millis } => {
                    std::thread::sleep(Duration::from_millis(*millis))
                }
                FaultKind::DropMessage => drop_msgs = true,
            }
        }

        let start = Instant::now();
        let outputs = if matches!(node.op, OpKind::Constant) {
            if kernel_fault {
                return Err(RuntimeError::Injected {
                    cluster: Some(me),
                    node: op.node,
                    kind: FaultKind::KernelError,
                });
            }
            // A Constant's payload is already in the shared initializer
            // table under its output name — share it, don't re-convert.
            let v = sh.init_values.get(&node.outputs[0]).ok_or_else(|| {
                RuntimeError::Setup(format!("Constant `{}` missing payload", node.name))
            })?;
            vec![v.clone()]
        } else {
            // A node marked by the in-place pass takes its dying operand
            // *out* of the env (sole remaining read), so the kernel's
            // `Arc::get_mut` gate can overwrite the buffer in place.
            let mark = sh.marks.slot(op.node);
            let mut owned_slot = None;
            let ins: Result<Vec<Value>> = node
                .inputs
                .iter()
                .enumerate()
                .map(|(i, t)| {
                    if mark == Some(i) {
                        let key = (t.clone(), op.batch);
                        if live.remaining(&key) == 1 {
                            if let Some(v) = env.remove(&key) {
                                owned_slot = Some(i);
                                return Ok(v);
                            }
                        }
                    }
                    fetch(&env, t, op.batch)
                })
                .collect();
            let hooked;
            let eval_ctx = if kernel_fault {
                hooked = FaultInjector::kernel_fault_ctx(ctx, Some(me), op.node);
                &hooked
            } else {
                ctx
            };
            match owned_slot {
                Some(s) => eval_op_inplace(eval_ctx, &node.op, ins?, s),
                None => eval_op(eval_ctx, &node.op, &ins?),
            }
            .map_err(|e| {
                if e.0.starts_with(INJECT_MARKER) {
                    RuntimeError::Injected {
                        cluster: Some(me),
                        node: op.node,
                        kind: FaultKind::KernelError,
                    }
                } else {
                    RuntimeError::Kernel {
                        cluster: Some(me),
                        node: Some(op.node),
                        msg: format!("{}: {}", node.name, e.0),
                    }
                }
            })?
        };
        let end = Instant::now();
        records.push(OpRecord {
            worker: me,
            batch: op.batch,
            node: op.node,
            start_ns: (start - sh.epoch).as_nanos() as u64,
            end_ns: (end - sh.epoch).as_nanos() as u64,
            slack_after_ns: 0,
        });

        if let Some(d) = send_delay {
            std::thread::sleep(d);
        }
        for (name, v) in node.outputs.iter().zip(outputs) {
            // Ship to remote consumers (one message per consumer worker) —
            // unless an injected DropMessage fault loses them in transit.
            if !drop_msgs {
                if let Some(targets) = sh.consumers.get(&(name.clone(), op.batch)) {
                    for &t in targets {
                        sh.meter
                            .on_send(me, t, value_bytes(&v), crate::value_copied_bytes(&v));
                        sh.senders[t]
                            .send(Msg::Tensor((name.clone(), op.batch), v.clone(), me))
                            .map_err(|_| RuntimeError::ChannelClosed {
                                cluster: Some(me),
                                detail: "consumer hung up".into(),
                            })?;
                    }
                }
            }
            if sh.graph_outputs.contains(name.as_str()) {
                sh.out_envs.lock()[op.batch].insert(name.clone(), v.clone());
            }
            live.charge((name.clone(), op.batch), charge_bytes(&node.op, &v));
            env.insert((name.clone(), op.batch), v);
        }
        if sh.reuse {
            // Inputs whose last local read this was — and outputs with no
            // local reader (already shipped/recorded above) — die here.
            for t in &node.inputs {
                let key = (t.clone(), op.batch);
                if live.consume(&key) {
                    env.remove(&key);
                    live.discharge(&key);
                }
            }
            for name in &node.outputs {
                let key = (name.clone(), op.batch);
                if live.remaining(&key) == 0 {
                    env.remove(&key);
                    live.discharge(&key);
                }
            }
        }
    }

    drop(live); // release remaining gauge charges (pinned graph outputs)
    let loop_end_ns = (Instant::now() - sh.epoch).as_nanos() as u64;
    let mut db = sh.db.lock();
    db.extend(records);
    db.push_worker_span(WorkerSpan {
        worker: me,
        start_ns: loop_start_ns,
        end_ns: loop_end_ns,
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::run_sequential;
    use crate::fault::{Fault, FaultPlan};
    use crate::synth_inputs;
    use ramiel_cluster::{cluster_graph, hypercluster, switched_hypercluster, StaticCost};
    use ramiel_models::{build, synthetic, ModelConfig, ModelKind};

    fn assert_close(a: &Env, b: &Env) {
        assert_eq!(a.len(), b.len());
        for (k, va) in a {
            let vb = &b[k];
            match (va, vb) {
                (Value::F32(x), Value::F32(y)) => {
                    assert_eq!(x.shape(), y.shape(), "{k} shape");
                    for (p, q) in x.data().iter().zip(y.data()) {
                        assert!((p - q).abs() <= 1e-4 * p.abs().max(1.0), "{k}: {p} vs {q}");
                    }
                }
                _ => assert_eq!(va, vb, "{k}"),
            }
        }
    }

    #[test]
    fn parallel_matches_sequential_on_fork_join() {
        let g = synthetic::fork_join(4, 3, 3);
        let clustering = cluster_graph(&g, &StaticCost);
        let inputs = synth_inputs(&g, 11);
        let ctx = ExecCtx::sequential();
        let seq = run_sequential(&g, &inputs, &ctx).unwrap();
        let par =
            run_parallel_opts(&g, &clustering, &inputs, &ctx, &RunOptions::default()).unwrap();
        assert_close(&seq, &par);
    }

    #[test]
    fn parallel_matches_sequential_on_every_model() {
        let cfg = ModelConfig::tiny();
        let ctx = ExecCtx::sequential();
        for kind in ModelKind::all() {
            let g = build(kind, &cfg);
            let clustering = cluster_graph(&g, &StaticCost);
            let inputs = synth_inputs(&g, 5);
            let seq = run_sequential(&g, &inputs, &ctx).unwrap();
            let par = run_parallel_opts(&g, &clustering, &inputs, &ctx, &RunOptions::default())
                .unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
            assert_close(&seq, &par);
        }
    }

    #[test]
    fn hypercluster_matches_per_sample_sequential() {
        let g = build(ModelKind::Squeezenet, &ModelConfig::tiny());
        let clustering = cluster_graph(&g, &StaticCost);
        let ctx = ExecCtx::sequential();
        for batch in [2usize, 4] {
            let hc = ramiel_cluster::hypercluster(&clustering, batch);
            let inputs: Vec<Env> = (0..batch).map(|b| synth_inputs(&g, b as u64)).collect();
            let outs = run_hyper_opts(&g, &hc, &inputs, &ctx, &RunOptions::default()).unwrap();
            for (b, inp) in inputs.iter().enumerate() {
                let seq = run_sequential(&g, inp, &ctx).unwrap();
                assert_close(&seq, &outs[b]);
            }
        }
    }

    #[test]
    fn switched_hypercluster_executes_without_deadlock() {
        let g = build(ModelKind::Squeezenet, &ModelConfig::tiny());
        let clustering = cluster_graph(&g, &StaticCost);
        let ctx = ExecCtx::sequential();
        let hc = switched_hypercluster(&clustering, 3);
        let inputs: Vec<Env> = (0..3).map(|b| synth_inputs(&g, 100 + b as u64)).collect();
        let outs = run_hyper_opts(&g, &hc, &inputs, &ctx, &RunOptions::default()).unwrap();
        for (b, inp) in inputs.iter().enumerate() {
            let seq = run_sequential(&g, inp, &ctx).unwrap();
            assert_close(&seq, &outs[b]);
        }
    }

    #[test]
    fn channel_sends_copy_headers_not_payloads() {
        // The zero-copy regression guard: every cross-cluster message
        // carries its full logical payload in `bytes`, but the sender only
        // deep-copies the Value header + shape vector (the element buffer
        // is Arc-shared). Aggregate copied bytes must therefore sit far
        // below aggregate payload bytes. A 64 KiB activation crossing two
        // clusters makes the header/payload gap unmistakable.
        use ramiel_cluster::{Cluster, Clustering};
        use ramiel_ir::{DType, GraphBuilder, OpKind};
        let mut b = GraphBuilder::new("zc");
        let x = b.input("x", DType::F32, vec![1, 16384]);
        let a = b.op("a", OpKind::Relu, vec![x]);
        let c = b.op("c", OpKind::Sigmoid, vec![a]);
        b.output(&c);
        let g = b.finish().unwrap();
        let clustering = Clustering::new(vec![Cluster::new(vec![0]), Cluster::new(vec![1])]);
        let inputs = synth_inputs(&g, 9);
        let (_, db) = run_hyper_profiled_opts(
            &g,
            &hypercluster(&clustering, 1),
            std::slice::from_ref(&inputs),
            &ExecCtx::sequential(),
            &RunOptions::default(),
        )
        .unwrap();
        let stats = db.channels();
        assert!(!stats.is_empty(), "expected cross-cluster traffic");
        let bytes: u64 = stats.iter().map(|c| c.bytes).sum();
        let copied: u64 = stats.iter().map(|c| c.copied_bytes).sum();
        assert!(copied > 0, "sends still copy the value header");
        assert!(
            copied * 2 <= bytes,
            "copied {copied} of {bytes} payload bytes — channel sends are deep-copying again"
        );
    }

    #[test]
    fn shared_init_table_is_reusable_across_runs() {
        let g = build(ModelKind::Squeezenet, &ModelConfig::tiny());
        let clustering = cluster_graph(&g, &StaticCost);
        let inputs = synth_inputs(&g, 21);
        let ctx = ExecCtx::sequential();
        let iv = crate::initializer_values(&g).unwrap();
        let opts = RunOptions::default().init_values(Arc::clone(&iv));
        let a = run_parallel_opts(&g, &clustering, &inputs, &ctx, &opts).unwrap();
        let b = run_parallel_opts(&g, &clustering, &inputs, &ctx, &opts).unwrap();
        let fresh =
            run_parallel_opts(&g, &clustering, &inputs, &ctx, &RunOptions::default()).unwrap();
        // Same table, same inputs, deterministic kernels → identical envs.
        assert_eq!(a, b);
        assert_eq!(a, fresh);
        // The shared table survives the runs untouched (COW means a run can
        // never mutate the weights in place).
        assert_eq!(iv.len(), g.initializers.len());
    }

    #[test]
    fn profiler_records_every_op() {
        let g = synthetic::fork_join(3, 2, 2);
        let clustering = cluster_graph(&g, &StaticCost);
        let inputs = synth_inputs(&g, 1);
        let (_, db) = run_hyper_profiled_opts(
            &g,
            &hypercluster(&clustering, 1),
            std::slice::from_ref(&inputs),
            &ExecCtx::sequential(),
            &RunOptions::default(),
        )
        .unwrap();
        assert_eq!(db.records().len(), g.num_nodes());
        // end >= start for every record
        assert!(db.records().iter().all(|r| r.end_ns >= r.start_ns));
    }

    #[test]
    fn invalid_schedule_missing_producers_fails_fast() {
        // A schedule that omits the producer ops entirely (check_coverage
        // would reject it) must error at setup, not hang in recv. Note
        // first-ready-first execution makes *covering* schedules
        // deadlock-free by construction: the topologically-minimal
        // unexecuted op always has its operands en route, so only broken
        // schedules like this one can stall — and they are caught here.
        use ramiel_cluster::hyper::{HyperClustering, HyperOp};
        use ramiel_ir::{DType, GraphBuilder, OpKind};

        let mut b = GraphBuilder::new("dl");
        let x = b.input("x", DType::F32, vec![2]);
        let a = b.op("a", OpKind::Relu, vec![x]);
        let c = b.op("c", OpKind::Sigmoid, vec![a]);
        b.output(&c);
        let g = b.finish().unwrap();

        let hc = HyperClustering {
            batch: 2,
            hyperclusters: vec![
                vec![HyperOp { batch: 0, node: 1 }],
                vec![HyperOp { batch: 1, node: 1 }],
            ],
            switched: true,
        };
        let inputs = vec![synth_inputs(&g, 0), synth_inputs(&g, 1)];
        let err = run_hyper_opts(
            &g,
            &hc,
            &inputs,
            &ExecCtx::sequential(),
            &RunOptions::default(),
        )
        .unwrap_err();
        assert_eq!(err.code(), "RT-SETUP");
        assert!(err.to_string().contains("unassigned"), "unexpected: {err}");
    }

    #[test]
    fn adversarial_cross_batch_order_still_completes() {
        // The wait-cycle shape that deadlocks strict in-order workers:
        // W0 = [c(b0), a(b1)], W1 = [c(b1), a(b0)]. First-ready-first
        // execution reorders around the blocked head and completes.
        use ramiel_cluster::hyper::{HyperClustering, HyperOp};
        use ramiel_ir::{DType, GraphBuilder, OpKind};

        let mut b = GraphBuilder::new("adv");
        let x = b.input("x", DType::F32, vec![2]);
        let a = b.op("a", OpKind::Relu, vec![x]);
        let c = b.op("c", OpKind::Sigmoid, vec![a]);
        b.output(&c);
        let g = b.finish().unwrap();

        let hc = HyperClustering {
            batch: 2,
            hyperclusters: vec![
                vec![HyperOp { batch: 0, node: 1 }, HyperOp { batch: 1, node: 0 }],
                vec![HyperOp { batch: 1, node: 1 }, HyperOp { batch: 0, node: 0 }],
            ],
            switched: true,
        };
        hc.check_coverage(2).unwrap();
        let inputs = vec![synth_inputs(&g, 0), synth_inputs(&g, 1)];
        let ctx = ExecCtx::sequential();
        let outs = run_hyper_opts(&g, &hc, &inputs, &ctx, &RunOptions::default()).unwrap();
        for (b_i, inp) in inputs.iter().enumerate() {
            let seq = crate::exec::run_sequential(&g, inp, &ctx).unwrap();
            assert_eq!(seq, outs[b_i]);
        }
    }

    #[test]
    fn wrong_batch_count_rejected() {
        let g = synthetic::chain(3);
        let clustering = cluster_graph(&g, &StaticCost);
        let hc = ramiel_cluster::hypercluster(&clustering, 2);
        let inputs = vec![synth_inputs(&g, 0)]; // only 1 env for batch 2
        let err = run_hyper_opts(
            &g,
            &hc,
            &inputs,
            &ExecCtx::sequential(),
            &RunOptions::default(),
        )
        .unwrap_err();
        assert_eq!(err.code(), "RT-SETUP");
    }

    /// Find a node whose output crosses clusters (so dropping its message
    /// actually starves a consumer).
    fn cross_cluster_producer(g: &Graph, clustering: &Clustering) -> usize {
        let assign = clustering.assignment();
        let adj = g.adjacency();
        for node in &g.nodes {
            for inp in &node.inputs {
                if let Some(&p) = adj.producer_of.get(inp) {
                    if assign[&p] != assign[&node.id] {
                        return p;
                    }
                }
            }
        }
        panic!("graph has no cross-cluster edge");
    }

    #[test]
    fn injected_kernel_fault_is_structured_and_aborts_peers() {
        let g = synthetic::fork_join(4, 3, 3);
        let clustering = cluster_graph(&g, &StaticCost);
        let inputs = synth_inputs(&g, 11);
        let node = cross_cluster_producer(&g, &clustering);
        let inj = FaultInjector::new(FaultPlan {
            seed: 0,
            faults: vec![Fault {
                node,
                batch: 0,
                exec_index: 0,
                kind: FaultKind::KernelError,
            }],
        });
        let opts = RunOptions::with_injector(inj.clone()).recv_timeout(Duration::from_secs(5));
        let start = Instant::now();
        let err =
            run_parallel_opts(&g, &clustering, &inputs, &ExecCtx::sequential(), &opts).unwrap_err();
        assert_eq!(err.code(), "RT-INJECT", "got {err}");
        assert!(
            matches!(err, RuntimeError::Injected { node: n, .. } if n == node),
            "{err}"
        );
        assert_eq!(inj.fired().len(), 1);
        // abort broadcast must beat the 5s recv timeout by a wide margin
        assert!(
            start.elapsed() < Duration::from_secs(4),
            "peers waited out the timeout"
        );
    }

    #[test]
    fn injected_worker_panic_is_captured_not_propagated() {
        let g = synthetic::fork_join(4, 3, 3);
        let clustering = cluster_graph(&g, &StaticCost);
        let inputs = synth_inputs(&g, 3);
        let node = cross_cluster_producer(&g, &clustering);
        let inj = FaultInjector::new(FaultPlan {
            seed: 0,
            faults: vec![Fault {
                node,
                batch: 0,
                exec_index: 0,
                kind: FaultKind::WorkerPanic,
            }],
        });
        let opts = RunOptions::with_injector(inj).recv_timeout(Duration::from_secs(5));
        let err =
            run_parallel_opts(&g, &clustering, &inputs, &ExecCtx::sequential(), &opts).unwrap_err();
        assert_eq!(err.code(), "RT-INJECT", "got {err}");
        assert!(
            matches!(
                err,
                RuntimeError::Injected {
                    kind: FaultKind::WorkerPanic,
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn dropped_message_surfaces_as_timeout() {
        let g = synthetic::fork_join(4, 3, 3);
        let clustering = cluster_graph(&g, &StaticCost);
        let inputs = synth_inputs(&g, 7);
        let node = cross_cluster_producer(&g, &clustering);
        let inj = FaultInjector::new(FaultPlan {
            seed: 0,
            faults: vec![Fault {
                node,
                batch: 0,
                exec_index: 0,
                kind: FaultKind::DropMessage,
            }],
        });
        let opts = RunOptions::with_injector(inj).recv_timeout(Duration::from_millis(200));
        let err =
            run_parallel_opts(&g, &clustering, &inputs, &ExecCtx::sequential(), &opts).unwrap_err();
        assert_eq!(err.code(), "RT-TIMEOUT", "got {err}");
    }

    #[test]
    fn delays_do_not_change_outputs() {
        let g = synthetic::fork_join(3, 2, 2);
        let clustering = cluster_graph(&g, &StaticCost);
        let inputs = synth_inputs(&g, 9);
        let ctx = ExecCtx::sequential();
        let seq = run_sequential(&g, &inputs, &ctx).unwrap();
        let inj = FaultInjector::new(FaultPlan {
            seed: 0,
            faults: vec![
                Fault {
                    node: 0,
                    batch: 0,
                    exec_index: 0,
                    kind: FaultKind::SendDelay { millis: 10 },
                },
                Fault {
                    node: 1,
                    batch: 0,
                    exec_index: 0,
                    kind: FaultKind::RecvDelay { millis: 10 },
                },
            ],
        });
        let opts = RunOptions::with_injector(inj.clone());
        let par = run_parallel_opts(&g, &clustering, &inputs, &ctx, &opts).unwrap();
        assert_close(&seq, &par);
        assert_eq!(inj.fired().len(), 2);
    }

    #[test]
    fn empty_plan_injector_changes_nothing() {
        let g = build(ModelKind::Squeezenet, &ModelConfig::tiny());
        let clustering = cluster_graph(&g, &StaticCost);
        let inputs = synth_inputs(&g, 5);
        let ctx = ExecCtx::sequential();
        let seq = run_sequential(&g, &inputs, &ctx).unwrap();
        let inj = FaultInjector::new(FaultPlan::none());
        let opts = RunOptions::with_injector(inj.clone());
        let par = run_parallel_opts(&g, &clustering, &inputs, &ctx, &opts).unwrap();
        assert_close(&seq, &par);
        assert!(inj.fired().is_empty());
    }
}
