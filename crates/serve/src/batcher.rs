//! Per-model dynamic micro-batcher.
//!
//! Each loaded model gets one *lane*: a bounded submission queue
//! (`std::sync::Mutex` + `Condvar` — the vendored `parking_lot` has no
//! condvar) drained by a dedicated collector thread. The collector blocks
//! for the first request, then coalesces follow-ups until it has
//! `max_batch` of them or `max_delay` has elapsed since the first —
//! whichever comes first — and executes the batch as ONE job on the
//! process-wide work-stealing pool ([`StealPool::global`]), whose workers
//! are shared by every lane and outlive plans. Per-sample outputs scatter
//! back to per-request one-shot channels.
//!
//! ## State machine (per collector iteration)
//!
//! ```text
//!        ┌─────────── idle: wait(not_empty) ───────────┐
//!        ▼                                             │
//!   pop first ──▶ gather: pop until max_batch,         │
//!        │        or wait_timeout(max_delay) expires    │
//!        ▼                                             │
//!   drop dead-on-arrival (deadline passed in queue)    │
//!        ▼                                             │
//!   run batch on StealPool ──retry (retryable, ≤N)──┐  │
//!        │                                          │  │
//!        ├── ok: scatter per-sample outputs ────────┼──┘
//!        └── still failing: per-request sequential
//!            fallback (isolates a poisoned sample) ─┘
//! ```
//!
//! Draining: shutdown flips `draining` *under the queue lock* (so
//! admission is linearized against it), wakes everything, and the
//! collector keeps executing until the queue is empty — in-flight and
//! already-queued requests complete; new ones are rejected.

use crate::plan::CompiledPlan;
use crate::server::{LaneConfig, OverflowPolicy, ServeError};
use crate::stats::ServeStats;
use crate::trace::RequestTrace;
use crossbeam::channel::Sender;
use ramiel_obs::{CounterHandle, GaugeHandle, HistHandle, PeakHandle};
use ramiel_runtime::{run_sequential_opts, Env, RunOptions, RuntimeError, StealPool};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

/// One queued inference request.
pub(crate) struct Request {
    /// Server-unique id minted at admission; joins serve traces with
    /// steal-pool spans (the stealing run span carries the batch's ids).
    pub id: u64,
    pub inputs: Env,
    pub deadline: Option<Instant>,
    pub enqueued: Instant,
    /// When the collector popped this request off the queue (`None` until
    /// then). Queue-wait = popped − enqueued; batch-wait = exec − popped.
    pub popped: Option<Instant>,
    /// One-shot response channel (crossbeam unbounded, used once).
    pub resp: Sender<Result<Env, ServeError>>,
}

/// Per-lane handles into the server's metric registry, resolved once at
/// lane spawn (label sets are fixed: the lane's model name).
/// Every handle is one branch when the registry is disabled.
pub(crate) struct LaneMetrics {
    queue_wait: HistHandle,
    batch_wait: HistHandle,
    execute: HistHandle,
    respond: HistHandle,
    latency: HistHandle,
    batch_size: HistHandle,
    batches: CounterHandle,
    completed: CounterHandle,
    failed: CounterHandle,
    shed_queue_full: CounterHandle,
    shed_deadline: CounterHandle,
    rejected_shutdown: CounterHandle,
    queue_depth: GaugeHandle,
    queue_peak: PeakHandle,
}

impl LaneMetrics {
    fn new(cfg: &LaneConfig, model: &str) -> LaneMetrics {
        let m = &cfg.metrics;
        let phase = |p: &str| {
            m.histogram(
                "ramiel_request_phase_ns",
                "per-request phase latency, nanoseconds",
                &[("model", model), ("phase", p)],
            )
        };
        let outcome = |o: &str| {
            m.counter(
                "ramiel_requests_total",
                "requests by final outcome",
                &[("model", model), ("outcome", o)],
            )
        };
        LaneMetrics {
            queue_wait: phase("queue"),
            batch_wait: phase("batch"),
            execute: phase("execute"),
            respond: phase("respond"),
            latency: m.histogram(
                "ramiel_request_latency_ns",
                "end-to-end request latency (enqueue to response), nanoseconds",
                &[("model", model)],
            ),
            batch_size: m.histogram(
                "ramiel_batch_size",
                "achieved micro-batch sizes",
                &[("model", model)],
            ),
            batches: m.counter(
                "ramiel_batches_total",
                "micro-batches executed",
                &[("model", model)],
            ),
            completed: outcome("completed"),
            failed: outcome("failed"),
            shed_queue_full: outcome("shed_queue_full"),
            shed_deadline: outcome("shed_deadline"),
            rejected_shutdown: outcome("rejected_shutdown"),
            queue_depth: m.gauge(
                "ramiel_queue_depth",
                "submission queue depth at the last queue transition",
                &[("model", model)],
            ),
            queue_peak: m.peak_gauge(
                "ramiel_queue_peak_depth",
                "queue-depth high-water mark (per scrape window)",
                &[("model", model)],
            ),
        }
    }
}

pub(crate) struct LaneShared {
    queue: StdMutex<VecDeque<Request>>,
    /// Signalled on push; the collector waits here.
    not_empty: Condvar,
    /// Signalled on pop; blocked (backpressure-policy) submitters wait here.
    space: Condvar,
    /// Set under the queue lock by `shutdown`, read under it by admission
    /// and the collector's exit check.
    draining: AtomicBool,
    /// Swapped on hot reload; the collector reads it once per batch.
    plan: parking_lot::Mutex<Arc<CompiledPlan>>,
    cfg: LaneConfig,
    stats: Arc<ServeStats>,
    /// The lane's model name (stable across hot reloads — lanes are keyed
    /// by name), used for metric labels and trace entries.
    model: String,
    metrics: LaneMetrics,
}

fn lock<'a, T>(m: &'a StdMutex<T>) -> MutexGuard<'a, T> {
    // A collector panic can poison the queue mutex; the data (a request
    // queue) stays valid, so keep serving rather than cascading panics.
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A running lane: shared state + the collector thread's handle.
pub(crate) struct Lane {
    pub shared: Arc<LaneShared>,
    handle: Option<JoinHandle<()>>,
}

impl Lane {
    pub fn spawn(plan: Arc<CompiledPlan>, cfg: LaneConfig, stats: Arc<ServeStats>) -> Lane {
        let model = plan.name.clone();
        let metrics = LaneMetrics::new(&cfg, &model);
        let shared = Arc::new(LaneShared {
            queue: StdMutex::new(VecDeque::new()),
            not_empty: Condvar::new(),
            space: Condvar::new(),
            draining: AtomicBool::new(false),
            plan: parking_lot::Mutex::new(plan),
            cfg,
            stats,
            model,
            metrics,
        });
        let collector_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("ramiel-serve-lane".into())
            .spawn(move || collector(collector_shared))
            .expect("spawn lane collector");
        Lane {
            shared,
            handle: Some(handle),
        }
    }

    /// Drain and stop: reject new work, execute everything queued, join
    /// the collector. Idempotent.
    pub fn shutdown(&mut self) {
        {
            let _q = lock(&self.shared.queue);
            self.shared.draining.store(true, Ordering::SeqCst);
        }
        self.shared.not_empty.notify_all();
        self.shared.space.notify_all();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }

    /// Swap in a reloaded plan; picked up at the next batch boundary.
    pub fn swap_plan(&self, plan: Arc<CompiledPlan>) {
        *self.shared.plan.lock() = plan;
    }
}

impl Drop for Lane {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl LaneShared {
    /// Admission: enforce the bounded queue per the overflow policy, then
    /// enqueue and wake the collector.
    pub fn enqueue(&self, req: Request) -> Result<(), ServeError> {
        let mut q = lock(&self.queue);
        if self.draining.load(Ordering::SeqCst) {
            self.stats.rejected_shutdown.fetch_add(1, Ordering::Relaxed);
            self.metrics.rejected_shutdown.inc();
            return Err(ServeError::ShuttingDown);
        }
        if q.len() >= self.cfg.queue_capacity {
            match self.cfg.policy {
                OverflowPolicy::Shed => {
                    self.stats.shed_queue_full.fetch_add(1, Ordering::Relaxed);
                    self.metrics.shed_queue_full.inc();
                    return Err(ServeError::QueueFull { depth: q.len() });
                }
                OverflowPolicy::Block { max_wait } => {
                    let give_up = Instant::now() + max_wait;
                    while q.len() >= self.cfg.queue_capacity
                        && !self.draining.load(Ordering::SeqCst)
                    {
                        let now = Instant::now();
                        if now >= give_up {
                            self.stats.shed_queue_full.fetch_add(1, Ordering::Relaxed);
                            self.metrics.shed_queue_full.inc();
                            return Err(ServeError::QueueFull { depth: q.len() });
                        }
                        let (guard, _timeout) = self
                            .space
                            .wait_timeout(q, give_up - now)
                            .unwrap_or_else(|e| e.into_inner());
                        q = guard;
                    }
                    if self.draining.load(Ordering::SeqCst) {
                        self.stats.rejected_shutdown.fetch_add(1, Ordering::Relaxed);
                        self.metrics.rejected_shutdown.inc();
                        return Err(ServeError::ShuttingDown);
                    }
                }
            }
        }
        q.push_back(req);
        let depth = q.len();
        drop(q);
        self.stats.submitted.fetch_add(1, Ordering::Relaxed);
        self.stats.note_depth(depth);
        self.metrics.queue_depth.set(depth as u64);
        self.metrics.queue_peak.observe(depth as u64);
        self.cfg.obs.counter("serve:queue_depth", depth as f64);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Record everything about an answered request in one place: the four
    /// phase histograms (queue-wait, batch-wait, execute, respond), the
    /// end-to-end latency, the per-model outcome counter, and — when
    /// tracing is on — one [`RequestTrace`] ring entry.
    ///
    /// `exec_start..exec_end` is the batch's execution window (equal
    /// instants for requests that never executed). Phase deltas use
    /// `saturating_duration_since`, so slightly out-of-order stamps clamp
    /// to zero instead of panicking.
    ///
    /// Call this BEFORE sending the response (mirroring the counter
    /// updates): once a caller's `wait()` returns, its request is fully
    /// visible in metrics and the trace ring.
    fn observe_done(
        &self,
        r: &Request,
        outcome: &'static str,
        batch: usize,
        exec_start: Instant,
        exec_end: Instant,
    ) {
        let responded = Instant::now();
        let popped = r.popped.unwrap_or(r.enqueued);
        let queue = popped.saturating_duration_since(r.enqueued);
        let batch_wait = exec_start.saturating_duration_since(popped);
        let execute = exec_end.saturating_duration_since(exec_start);
        let respond = responded.saturating_duration_since(exec_end);
        let latency = responded.saturating_duration_since(r.enqueued);

        self.stats.queue_wait_ns.record(queue.as_nanos() as u64);
        self.stats
            .batch_wait_ns
            .record(batch_wait.as_nanos() as u64);
        self.stats.execute_ns.record(execute.as_nanos() as u64);
        self.stats.respond_ns.record(respond.as_nanos() as u64);
        self.stats.latency_ns.record(latency.as_nanos() as u64);

        self.metrics.queue_wait.record_duration(queue);
        self.metrics.batch_wait.record_duration(batch_wait);
        self.metrics.execute.record_duration(execute);
        self.metrics.respond.record_duration(respond);
        self.metrics.latency.record_duration(latency);
        match outcome {
            "completed" => self.metrics.completed.inc(),
            "failed" => self.metrics.failed.inc(),
            "shed_deadline" => self.metrics.shed_deadline.inc(),
            _ => {}
        }

        if let Some(ring) = &self.cfg.trace {
            let ns = |i: Instant| i.saturating_duration_since(self.cfg.epoch).as_nanos() as u64;
            ring.push(RequestTrace {
                id: r.id,
                model: self.model.clone(),
                batch,
                outcome,
                enqueued_ns: ns(r.enqueued),
                popped_ns: ns(popped),
                exec_start_ns: ns(exec_start),
                exec_end_ns: ns(exec_end),
                responded_ns: ns(responded),
            });
        }
    }
}

/// The collector thread: idle-wait → gather → execute, until drained.
fn collector(sh: Arc<LaneShared>) {
    loop {
        // Idle: block for the first request of the next batch.
        let first = {
            let mut q = lock(&sh.queue);
            loop {
                if let Some(mut r) = q.pop_front() {
                    r.popped = Some(Instant::now());
                    sh.metrics.queue_depth.set(q.len() as u64);
                    sh.space.notify_one();
                    break r;
                }
                if sh.draining.load(Ordering::SeqCst) {
                    return; // drained: queue empty and no new admissions
                }
                q = sh.not_empty.wait(q).unwrap_or_else(|e| e.into_inner());
            }
        };
        // Gather: coalesce until max_batch or max_delay after the first.
        let batch_deadline = Instant::now() + sh.cfg.max_delay;
        let mut batch = vec![first];
        loop {
            let mut q = lock(&sh.queue);
            while batch.len() < sh.cfg.max_batch {
                match q.pop_front() {
                    Some(mut r) => {
                        r.popped = Some(Instant::now());
                        sh.metrics.queue_depth.set(q.len() as u64);
                        sh.space.notify_one();
                        batch.push(r);
                    }
                    None => break,
                }
            }
            if batch.len() >= sh.cfg.max_batch || sh.draining.load(Ordering::SeqCst) {
                break;
            }
            let now = Instant::now();
            if now >= batch_deadline {
                break;
            }
            let (guard, _timeout) = sh
                .not_empty
                .wait_timeout(q, batch_deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            drop(guard);
        }
        execute_batch(&sh, batch);
    }
}

fn fail_all(
    sh: &LaneShared,
    batch: Vec<Request>,
    err: &ServeError,
    exec_start: Instant,
    exec_end: Instant,
) {
    let n = batch.len();
    for r in batch {
        sh.stats.failed.fetch_add(1, Ordering::Relaxed);
        sh.observe_done(&r, "failed", n, exec_start, exec_end);
        let _ = r.resp.send(Err(err.clone()));
    }
}

/// Execute one gathered batch: deadline-filter, run it on the shared steal
/// pool with supervised retries, degrade to per-request sequential
/// execution if the batch stays poisoned, scatter results.
fn execute_batch(sh: &LaneShared, batch: Vec<Request>) {
    let obs = &sh.cfg.obs;
    // Dead-on-arrival filter: reject expired work *before* spending any
    // execution on it.
    let now = Instant::now();
    let mut live: Vec<Request> = Vec::with_capacity(batch.len());
    for r in batch {
        if r.deadline.is_some_and(|d| d < now) {
            sh.stats.shed_deadline.fetch_add(1, Ordering::Relaxed);
            // Dead-on-arrival: the execution window is empty.
            sh.observe_done(&r, "shed_deadline", 0, now, now);
            let _ = r
                .resp
                .send(Err(ServeError::DeadlineExceeded { stage: "queued" }));
        } else {
            live.push(r);
        }
    }
    if live.is_empty() {
        return;
    }

    let plan = Arc::clone(&sh.plan.lock());
    let ids: Arc<Vec<u64>> = Arc::new(live.iter().map(|r| r.id).collect());
    let run_opts = RunOptions {
        injector: sh.cfg.injector.clone(),
        recv_timeout: sh.cfg.recv_timeout,
        obs: obs.clone(),
        init_values: Some(Arc::clone(&plan.init_values)),
        reuse: true,
        steal_chaos: None,
        request_ids: Some(Arc::clone(&ids)),
    };
    let n = live.len();
    sh.stats.record_batch(n);
    sh.metrics.batches.inc();
    sh.metrics.batch_size.record(n as u64);
    obs.instant(
        0,
        format!("serve:batch x{n}"),
        "serve",
        serde_json::json!({
            "model": plan.name, "batch": n, "version": plan.version,
            "requests": &ids[..],
        }),
    );
    obs.counter("serve:batch_size", n as f64);

    // Resolve the batch's steal plan up front so setup errors fail the
    // whole batch before any execution. A hot-reloaded plan simply brings
    // its own steal plans; the shared pool outlives plans.
    let splan = match plan.steal_plan_for(n) {
        Ok(p) => p,
        Err(e) => {
            let t = Instant::now();
            fail_all(sh, live, &e, t, t);
            return;
        }
    };
    let inputs: Vec<Env> = live.iter().map(|r| r.inputs.clone()).collect();

    // Supervised execution on the shared pool: retry transient-shaped
    // failures with bounded backoff (the pool survives failed jobs). The
    // execution window charged to each request spans the whole retry loop
    // (backoff sleeps included) — that is the latency callers actually saw.
    let sup = &sh.cfg.supervisor;
    let mut attempt = 0u32;
    let exec_start = Instant::now();
    let result: Result<Vec<Env>, RuntimeError> = loop {
        match StealPool::global().run_plan(&splan, &inputs, &plan.ctx, &run_opts) {
            Ok(outs) => break Ok(outs),
            Err(e) => {
                if !e.is_retryable() || attempt >= sup.max_retries {
                    break Err(e);
                }
                sh.stats.retries.fetch_add(1, Ordering::Relaxed);
                obs.instant(
                    0,
                    format!("serve:retry (attempt {})", attempt + 2),
                    "serve",
                    serde_json::json!({ "model": plan.name, "error": e.code() }),
                );
                std::thread::sleep(sup.backoff(attempt));
                attempt += 1;
            }
        }
    };

    let exec_end = Instant::now();

    match result {
        Ok(outs) => {
            for (r, out) in live.into_iter().zip(outs) {
                sh.stats.completed.fetch_add(1, Ordering::Relaxed);
                sh.observe_done(&r, "completed", n, exec_start, exec_end);
                let _ = r.resp.send(Ok(out));
            }
        }
        Err(batch_err) if sup.fallback => {
            // Degrade, don't die: re-run each sample alone on the reference
            // sequential executor. A poisoned sample fails alone; its
            // batch-mates still get answers.
            sh.stats.fallbacks.fetch_add(1, Ordering::Relaxed);
            obs.instant(
                0,
                "serve:fallback to per-request sequential".to_string(),
                "serve",
                serde_json::json!({ "model": plan.name, "error": batch_err.code() }),
            );
            for r in live {
                let solo_start = Instant::now();
                let res = catch_unwind(AssertUnwindSafe(|| {
                    run_sequential_opts(&plan.graph, &r.inputs, &plan.ctx, &run_opts)
                }))
                .unwrap_or_else(|payload| {
                    Err(ramiel_runtime::fault::panic_to_error(None, payload))
                });
                let solo_end = Instant::now();
                match res {
                    Ok(out) => {
                        sh.stats.completed.fetch_add(1, Ordering::Relaxed);
                        sh.observe_done(&r, "completed", 1, solo_start, solo_end);
                        let _ = r.resp.send(Ok(out));
                    }
                    Err(e) => {
                        sh.stats.failed.fetch_add(1, Ordering::Relaxed);
                        sh.observe_done(&r, "failed", 1, solo_start, solo_end);
                        let _ = r.resp.send(Err(ServeError::Runtime(e)));
                    }
                }
            }
        }
        Err(e) => {
            fail_all(sh, live, &ServeError::Runtime(e), exec_start, exec_end);
        }
    }
}
