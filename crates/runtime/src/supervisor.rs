//! Supervised parallel execution: retry, backoff, and sequential fallback.
//!
//! The parallel executor already converts worker panics, timeouts and
//! injected faults into structured [`RuntimeError`]s; the supervisor decides
//! what to do with them. Policy:
//!
//! 1. **Retry** transient-shaped failures (`RT-TIMEOUT`, `RT-PANIC`,
//!    `RT-CHANNEL`, `RT-INJECT`) up to [`SupervisorConfig::max_retries`]
//!    times with bounded exponential backoff. Every cluster is idempotent —
//!    kernels are pure functions of their inputs and workers own disjoint
//!    node sets — so re-running a failed inference from scratch is safe.
//!    Injected faults are keyed to an execution index, so a retry advances
//!    past them by construction (the determinism guarantee: which attempt a
//!    fault hits is a pure function of the [`crate::FaultPlan`]).
//! 2. **Fall back** to the reference sequential executor once retries are
//!    exhausted, re-executing the failed run's work on the calling thread so
//!    callers still get correct outputs with no channels left to fail.
//! 3. **Give up immediately** on deterministic failures (`RT-KERNEL`,
//!    `RT-SETUP`): a genuine kernel/data error or a broken schedule fails
//!    identically on every attempt, and papering over a schedule bug with
//!    the sequential executor would hide exactly what `ramiel check` exists
//!    to catch.

use crate::exec::run_sequential_opts;
use crate::fault::{panic_to_error, Fault};
use crate::parallel::{run_hyper_opts, RunOptions};
use crate::stealing::run_hyper_stealing_opts;
use crate::{Env, Result, RuntimeError};
use ramiel_cluster::hyper::HyperClustering;
use ramiel_ir::Graph;
use ramiel_tensor::ExecCtx;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

/// Supervision policy knobs.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Retry attempts after the first failure (0 = single attempt).
    pub max_retries: u32,
    /// First backoff pause; doubles per retry.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_max: Duration,
    /// Re-execute on the reference sequential executor after retries are
    /// exhausted (retryable failures only).
    pub fallback: bool,
    /// Worker recv timeout; `None` uses `RAMIEL_RECV_TIMEOUT_MS` or 30s.
    pub recv_timeout: Option<Duration>,
    /// Observability sink: retry/fallback decisions are emitted as trace
    /// instants (disabled handle = zero cost).
    pub obs: ramiel_obs::Obs,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            max_retries: 2,
            backoff_base: Duration::from_millis(10),
            backoff_max: Duration::from_secs(1),
            fallback: true,
            recv_timeout: None,
            obs: ramiel_obs::Obs::disabled(),
        }
    }
}

impl SupervisorConfig {
    /// Pause before retry number `retry` (0-based): `backoff_base`
    /// doubled per retry, saturating at `backoff_max`.
    pub fn backoff(&self, retry: u32) -> Duration {
        let mult = 1u32.checked_shl(retry).unwrap_or(u32::MAX);
        self.backoff_base
            .checked_mul(mult)
            .unwrap_or(self.backoff_max)
            .min(self.backoff_max)
    }
}

/// What happened during one supervised run.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Parallel attempts made (including the first).
    pub attempts: u32,
    /// Whether the sequential fallback produced the final result.
    pub fell_back: bool,
    /// Errors that triggered a retry or the fallback, in order.
    pub errors: Vec<RuntimeError>,
    /// Faults the injector actually fired, across all attempts.
    pub faults_fired: Vec<Fault>,
}

/// The parallel executor a supervised run attempts before it falls back to
/// the sequential one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Executor {
    /// One thread per (hyper)cluster with channels between them: the
    /// paper's reproduction.
    Channel,
    /// The process-wide work-stealing pool, clusters as locality hints.
    Stealing,
}

impl Executor {
    /// Parse a CLI spelling (`--executor <channel|stealing>`).
    pub fn parse(s: &str) -> Option<Executor> {
        match s {
            "channel" | "parallel" => Some(Executor::Channel),
            "stealing" => Some(Executor::Stealing),
            _ => None,
        }
    }
}

/// Supervised run of a hyperclustered schedule on `exec`: retry with
/// bounded backoff while failures are retryable, then fall back to
/// per-batch-element sequential execution. Batch-1 callers pass
/// `hypercluster(c, 1)`. A caller-supplied `opts.init_values` table is
/// reused across every attempt **and** the fallback, so supervision never
/// rebuilds (deep-copies) the weights. Returns the outcome plus a
/// [`RunReport`].
pub fn run_supervised(
    exec: Executor,
    graph: &Graph,
    hc: &HyperClustering,
    inputs: &[Env],
    ctx: &ExecCtx,
    opts: &RunOptions,
    cfg: &SupervisorConfig,
) -> (Result<Vec<Env>>, RunReport) {
    let attempt = |o: &RunOptions| match exec {
        Executor::Channel => run_hyper_opts(graph, hc, inputs, ctx, o),
        Executor::Stealing => run_hyper_stealing_opts(graph, hc, inputs, ctx, o),
    };
    let mut opts = opts.clone();
    if opts.recv_timeout.is_none() {
        opts.recv_timeout = cfg.recv_timeout;
    }
    if !opts.obs.is_enabled() {
        opts.obs = cfg.obs.clone();
    }
    if opts.init_values.is_none() {
        // Convert the weights once here so retries and the sequential
        // fallback share one table instead of rebuilding it per attempt.
        // On failure fall back to per-run conversion, which will surface
        // the same error with run context attached.
        opts.init_values = crate::initializer_values(graph).ok();
    }
    let injector = opts.injector.clone();
    let mut report = RunReport::default();
    let finish = |report: &mut RunReport| {
        if let Some(inj) = &injector {
            report.faults_fired = inj.fired();
        }
    };

    let mut last_err: Option<RuntimeError> = None;
    for retry in 0..=cfg.max_retries {
        report.attempts += 1;
        let r = catch_unwind(AssertUnwindSafe(|| attempt(&opts)))
            .unwrap_or_else(|payload| Err(panic_to_error(None, payload)));
        match r {
            Ok(outs) => {
                finish(&mut report);
                return (Ok(outs), report);
            }
            Err(e) => {
                let retryable = e.is_retryable();
                report.errors.push(e.clone());
                last_err = Some(e);
                if !retryable {
                    // Deterministic failure: neither retry nor fallback can
                    // produce a different (honest) answer.
                    finish(&mut report);
                    return (Err(last_err.expect("just set")), report);
                }
                if retry < cfg.max_retries {
                    cfg.obs.instant(
                        0,
                        format!("supervisor:retry (attempt {})", retry + 2),
                        "supervisor",
                        serde_json::json!({
                            "error": last_err.as_ref().expect("just set").code(),
                            "backoff_ms": cfg.backoff(retry).as_millis() as u64,
                        }),
                    );
                    std::thread::sleep(cfg.backoff(retry));
                }
            }
        }
    }

    if cfg.fallback {
        report.fell_back = true;
        cfg.obs.instant(
            0,
            "supervisor:fallback to sequential".to_string(),
            "supervisor",
            serde_json::json!({
                "error": last_err.as_ref().expect("retries exhausted").code(),
                "attempts": report.attempts,
            }),
        );
        let mut outs = Vec::with_capacity(inputs.len());
        for env in inputs {
            let r = catch_unwind(AssertUnwindSafe(|| {
                run_sequential_opts(graph, env, ctx, &opts)
            }))
            .unwrap_or_else(|payload| Err(panic_to_error(None, payload)));
            match r {
                Ok(out) => outs.push(out),
                Err(e) => {
                    report.errors.push(e.clone());
                    finish(&mut report);
                    return (Err(e), report);
                }
            }
        }
        finish(&mut report);
        return (Ok(outs), report);
    }

    finish(&mut report);
    (
        Err(last_err.expect("loop ran at least one attempt")),
        report,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultInjector, FaultKind, FaultPlan};
    use crate::{run_sequential, synth_inputs};
    use ramiel_cluster::{cluster_graph, hypercluster, StaticCost};
    use ramiel_models::synthetic;
    use std::sync::Arc;

    /// Supervised batch-1 run on the channel executor.
    fn supervised(
        g: &Graph,
        inputs: &Env,
        opts: &RunOptions,
        cfg: &SupervisorConfig,
    ) -> (Result<Env>, RunReport) {
        let hc = hypercluster(&cluster_graph(g, &StaticCost), 1);
        let ctx = ExecCtx::sequential();
        let inputs = std::slice::from_ref(inputs);
        let (res, report) = run_supervised(Executor::Channel, g, &hc, inputs, &ctx, opts, cfg);
        (res.map(|mut outs| outs.remove(0)), report)
    }

    fn quiet_injected_panics() {
        use std::sync::Once;
        static ONCE: Once = Once::new();
        ONCE.call_once(|| {
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                if info
                    .payload()
                    .downcast_ref::<crate::fault::InjectedPanic>()
                    .is_some()
                {
                    return; // expected chaos, keep test output readable
                }
                prev(info);
            }));
        });
    }

    fn one_fault(node: usize, exec_index: u32, kind: FaultKind) -> Arc<FaultInjector> {
        FaultInjector::new(FaultPlan {
            seed: 0,
            faults: vec![Fault {
                node,
                batch: 0,
                exec_index,
                kind,
            }],
        })
    }

    #[test]
    fn retry_recovers_from_injected_kernel_fault() {
        let g = synthetic::fork_join(4, 3, 3);
        let inputs = synth_inputs(&g, 11);
        let ctx = ExecCtx::sequential();
        let expect = run_sequential(&g, &inputs, &ctx).unwrap();
        let inj = one_fault(2, 0, FaultKind::KernelError);
        let cfg = SupervisorConfig {
            max_retries: 1,
            backoff_base: Duration::from_millis(1),
            fallback: false,
            recv_timeout: Some(Duration::from_secs(5)),
            ..Default::default()
        };
        let (res, report) = supervised(&g, &inputs, &RunOptions::with_injector(inj), &cfg);
        assert_eq!(res.unwrap(), expect);
        assert_eq!(report.attempts, 2);
        assert!(!report.fell_back);
        assert_eq!(report.errors.len(), 1);
        assert_eq!(report.faults_fired.len(), 1);
    }

    #[test]
    fn fallback_recovers_when_retries_exhausted() {
        quiet_injected_panics();
        let g = synthetic::fork_join(4, 3, 3);
        let inputs = synth_inputs(&g, 4);
        let ctx = ExecCtx::sequential();
        let expect = run_sequential(&g, &inputs, &ctx).unwrap();
        // panic on both the first AND the retry attempt
        let inj = FaultInjector::new(FaultPlan {
            seed: 0,
            faults: vec![
                Fault {
                    node: 1,
                    batch: 0,
                    exec_index: 0,
                    kind: FaultKind::WorkerPanic,
                },
                Fault {
                    node: 1,
                    batch: 0,
                    exec_index: 1,
                    kind: FaultKind::WorkerPanic,
                },
            ],
        });
        let cfg = SupervisorConfig {
            max_retries: 1,
            backoff_base: Duration::from_millis(1),
            fallback: true,
            recv_timeout: Some(Duration::from_secs(5)),
            ..Default::default()
        };
        let (res, report) = supervised(&g, &inputs, &RunOptions::with_injector(inj), &cfg);
        assert_eq!(res.unwrap(), expect);
        assert_eq!(report.attempts, 2);
        assert!(report.fell_back);
        assert_eq!(report.faults_fired.len(), 2);
    }

    #[test]
    fn non_retryable_kernel_error_fails_without_retry() {
        // A graph whose Gather goes out of range at runtime: deterministic
        // data error → one attempt, no fallback masking.
        use ramiel_ir::{DType, GraphBuilder, OpKind};
        let mut b = GraphBuilder::new("bad");
        let x = b.input("x", DType::F32, vec![2, 2]);
        let idx = b.init("idx", ramiel_ir::TensorData::vec_i64(vec![5]));
        let y = b.op("g", OpKind::Gather { axis: 0 }, vec![x, idx]);
        b.output(&y);
        let g = b.finish().unwrap();
        let inputs = synth_inputs(&g, 1);
        let cfg = SupervisorConfig {
            max_retries: 3,
            fallback: true,
            ..Default::default()
        };
        let (res, report) = supervised(&g, &inputs, &RunOptions::default(), &cfg);
        let err = res.unwrap_err();
        assert_eq!(err.code(), "RT-KERNEL");
        assert_eq!(report.attempts, 1, "deterministic errors must not retry");
        assert!(!report.fell_back);
    }

    #[test]
    fn opts_variant_reuses_caller_init_table_through_fallback() {
        quiet_injected_panics();
        let g = synthetic::fork_join(4, 3, 3);
        let inputs = synth_inputs(&g, 4);
        let ctx = ExecCtx::sequential();
        let expect = run_sequential(&g, &inputs, &ctx).unwrap();
        let iv = crate::initializer_values(&g).unwrap();
        // Panic on every parallel attempt so the sequential fallback runs —
        // both paths must share the caller's table, not rebuild it.
        let inj = FaultInjector::new(FaultPlan {
            seed: 0,
            faults: vec![
                Fault {
                    node: 1,
                    batch: 0,
                    exec_index: 0,
                    kind: FaultKind::WorkerPanic,
                },
                Fault {
                    node: 1,
                    batch: 0,
                    exec_index: 1,
                    kind: FaultKind::WorkerPanic,
                },
            ],
        });
        let opts = RunOptions::with_injector(inj)
            .recv_timeout(Duration::from_secs(5))
            .init_values(Arc::clone(&iv));
        let cfg = SupervisorConfig {
            max_retries: 1,
            backoff_base: Duration::from_millis(1),
            fallback: true,
            ..Default::default()
        };
        let (res, report) = supervised(&g, &inputs, &opts, &cfg);
        assert_eq!(res.unwrap(), expect);
        assert!(report.fell_back);
        // The shared table is still ours alone once the run finished: no
        // attempt squirreled away a rebuilt copy.
        assert_eq!(iv.len(), g.initializers.len());
    }

    #[test]
    fn backoff_is_bounded() {
        let cfg = SupervisorConfig {
            backoff_base: Duration::from_millis(10),
            backoff_max: Duration::from_millis(40),
            ..Default::default()
        };
        assert_eq!(cfg.backoff(0), Duration::from_millis(10));
        assert_eq!(cfg.backoff(1), Duration::from_millis(20));
        assert_eq!(cfg.backoff(2), Duration::from_millis(40));
        assert_eq!(cfg.backoff(10), Duration::from_millis(40));
        assert_eq!(cfg.backoff(40), Duration::from_millis(40));
    }
}
