//! The ramiel benchmark: three workloads, each checked against the
//! sequential oracle, with end-to-end metrics from an untraced run and a
//! per-layer ledger from a traced one.
//!
//! ```text
//! perfbench --workload <compile-zoo|infer-b1|serve-light>
//!           --seed N --seconds S --trace <0|1>
//!           --ramiel <path to the ramiel binary> --work-dir <dir>
//! ```
//!
//! `perfbench/run.sh` builds both binaries and supplies the last two
//! arguments. The last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`; every line before it
//! prints one metric by name and unit. The exit code is nonzero when any
//! output was wrong or any op failed.

mod compile;
mod infer;
mod inputs;
mod ledger;
mod loadgen;
mod serve;
mod stats;

use compile::CompileZoo;
use infer::InferB1;
use ledger::Ledger;
use serve::ServeLoad;
use stats::Tail;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Untimed warm-up after set-up: lazy pools, caches and socket buffers
/// settle before the measured phase.
const WARMUP: Duration = Duration::from_secs(2);

/// Ops each short traced probe of another workload runs (see [`traced`]).
const PROBE_OPS: usize = 16;
/// Longest time a traced probe runs.
const PROBE_SPAN: Duration = Duration::from_secs(2);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    CompileZoo,
    InferB1,
    ServeLight,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        Some(match s {
            "compile-zoo" => Workload::CompileZoo,
            "infer-b1" => Workload::InferB1,
            "serve-light" => Workload::ServeLight,
            _ => return None,
        })
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

/// Ops of one measured phase.
#[derive(Debug, Default)]
pub struct Measured {
    /// (model, latency in milliseconds) of every correct op.
    pub lat_ms: Vec<(usize, f64)>,
    pub attempted: u64,
    /// Ops that failed, were refused, went unanswered or gave a wrong
    /// output.
    pub failed: u64,
    /// Correct ops within the workload's latency limit.
    pub good: u64,
    pub elapsed: Duration,
}

impl Measured {
    pub fn record(&mut self, model: usize, latency: Duration, ok: bool, within_limit: bool) {
        self.attempted += 1;
        if ok {
            self.lat_ms.push((model, latency.as_secs_f64() * 1e3));
            self.good += u64::from(within_limit);
        } else {
            self.failed += 1;
        }
    }

    fn ok(&self) -> u64 {
        self.attempted - self.failed
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    ramiel: PathBuf,
    work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut kv = std::collections::BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(k) = it.next() {
        let v = it.next().ok_or(format!("{k} needs a value"))?;
        kv.insert(k, v);
    }
    let get = |k: &str| kv.get(k).cloned().ok_or(format!("missing {k}"));
    let workload = get("--workload")?;
    Ok(Args {
        workload: Workload::parse(&workload).ok_or(format!("unknown workload `{workload}`"))?,
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: get("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace must be 0 or 1, not `{t}`")),
        },
        ramiel: get("--ramiel")?.into(),
        work: get("--work-dir")?.into(),
    })
}

/// VmHWM (peak resident set) from a `/proc/<pid>/status` file, in MiB.
pub fn vm_hwm_mb(status_path: &str) -> Option<f64> {
    let text = std::fs::read_to_string(status_path).ok()?;
    let kb: f64 = text
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// A workload after set-up, ready to measure.
enum Ready {
    Compile(CompileZoo),
    Infer(InferB1),
    Serve(ServeLoad),
}

impl Ready {
    fn setup(w: Workload, a: &Args) -> Result<Ready, String> {
        Ok(match w {
            Workload::CompileZoo => Ready::Compile(CompileZoo::setup(a.seed)?),
            Workload::InferB1 => Ready::Infer(InferB1::setup(a.seed)?),
            Workload::ServeLight => Ready::Serve(ServeLoad::setup(a.seed, &a.ramiel, &a.work)?),
        })
    }

    /// Measure for `span` (closed-loop workloads stop early after
    /// `max_ops`), recording into `ledger` when traced.
    fn run(
        &mut self,
        span: Duration,
        max_ops: usize,
        ledger: Option<&mut Ledger>,
    ) -> Result<Measured, String> {
        Ok(match self {
            Ready::Compile(z) => z.run(span, max_ops, ledger),
            Ready::Infer(b) => b.run(span, max_ops, ledger),
            Ready::Serve(s) => s.run(span, ledger)?,
        })
    }

    fn finish_ledger(&self, ledger: &Ledger, out: &mut Vec<Metric>) {
        match self {
            Ready::Compile(z) => z.finish_ledger(ledger, out),
            Ready::Infer(_) => InferB1::finish_ledger(ledger, out),
            Ready::Serve(_) => ServeLoad::finish_ledger(ledger, out),
        }
    }

    /// Peak resident set of the measured process: the server child for the
    /// serve workload, this process otherwise.
    fn peak_rss_mb(&self) -> Result<f64, String> {
        match self {
            Ready::Serve(s) => s.peak_rss_mb(),
            _ => vm_hwm_mb("/proc/self/status").ok_or("no VmHWM for this process".into()),
        }
    }
}

/// Set up `SETUPS` times, keeping the last; returns it with the median
/// set-up time in seconds.
fn setup_repeated(w: Workload, a: &Args) -> Result<(Ready, f64), String> {
    let mut times = Vec::new();
    let mut ready = None;
    for _ in 0..SETUPS {
        // Stop the previous server before timing the next set-up.
        drop(ready.take());
        let t = Instant::now();
        ready = Some(Ready::setup(w, a)?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((ready.expect("SETUPS > 0"), stats::median(&times)))
}

/// Latency summary of one measured phase.
struct Latency {
    /// Geometric mean over models of each model's median.
    p50: f64,
    /// Pooled over all ops by the percentile rule.
    tail: Tail,
}

/// Print the human-readable lines of one measured phase.
fn report_phase(label: &str, m: &Measured) -> Latency {
    let all: Vec<f64> = m.lat_ms.iter().map(|&(_, v)| v).collect();
    let lat = Latency {
        p50: stats::geomean_of_medians(&m.lat_ms),
        tail: Tail::of(&all),
    };
    let tail = lat.tail;
    println!(
        "{label}: sent {} ok {} failed {} error_rate {:.6}",
        m.attempted,
        m.ok(),
        m.failed,
        m.failed as f64 / m.attempted.max(1) as f64
    );
    println!(
        "{label}: latency p50 {:.4} ms (geometric mean of per-model medians; pooled {:.4} ms) \
         over {} samples; p{:.2} {:.4} ms with {} samples beyond",
        lat.p50,
        tail.p50,
        tail.n,
        tail.percentile(),
        tail.tail,
        tail.beyond()
    );
    lat
}

/// The end-to-end metrics of an untraced run.
fn untraced(w: Workload, a: &Args) -> Result<(Vec<Metric>, Measured), String> {
    let (mut ready, setup_s) = setup_repeated(w, a)?;
    let warm = ready.run(WARMUP, usize::MAX, None)?;
    let m = ready.run(Duration::from_secs(a.seconds), usize::MAX, None)?;
    let rss = ready.peak_rss_mb()?;
    drop(ready);
    report_phase("warm-up", &warm);
    let lat = report_phase("measured", &m);
    let secs = m.elapsed.as_secs_f64();
    let metrics = vec![
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("latency_p50_ms", lat.p50, "ms"),
        Metric::new("throughput_per_s", m.ok() as f64 / secs, "1/s"),
        Metric::new("goodput_per_s", m.good as f64 / secs, "1/s"),
        Metric::new("peak_rss_mb", rss, "MB"),
    ];
    let checked = Measured {
        attempted: warm.attempted + m.attempted,
        failed: warm.failed + m.failed,
        ..Measured::default()
    };
    Ok((metrics, checked))
}

/// The per-layer ledger of a traced run.
///
/// The workload runs untraced for the first half of the time and traced for
/// the second; the difference of their median latencies is the tracing
/// overhead. The traced half fills the layers this workload exercises.
/// The other two layer groups are then filled by a short traced probe of
/// the workload they belong to — compile layers by `compile-zoo`, runtime
/// and tensor layers by `infer-b1`, serve layers by `serve-light` — so that
/// every traced run reports the whole ledger.
fn traced(w: Workload, a: &Args) -> Result<(Vec<Metric>, Measured), String> {
    let half = Duration::from_secs(a.seconds) / 2;
    let mut out = Vec::new();
    let mut total = Measured::default();
    let mut absorb = |m: &Measured| {
        total.attempted += m.attempted;
        total.failed += m.failed;
    };

    let mut ready = Ready::setup(w, a)?;
    absorb(&ready.run(WARMUP, usize::MAX, None)?);
    let plain = ready.run(half, usize::MAX, None)?;
    let plain_lat = report_phase("untraced half", &plain);
    absorb(&plain);
    let mut ledger = Ledger::default();
    let traced = ready.run(half, usize::MAX, Some(&mut ledger))?;
    let traced_p50 = report_phase("traced half", &traced).p50;
    absorb(&traced);
    ready.finish_ledger(&ledger, &mut out);
    drop(ready);
    out.push(Metric::new(
        "trace.overhead_pct",
        100.0 * (traced_p50 - plain_lat.p50) / plain_lat.p50,
        "%",
    ));
    // Too noisy on a shared host to bound (see perfbench/README.md), so the
    // tail is reported here, from the untraced half, and on the phase lines.
    out.push(Metric::new("latency_tail_ms", plain_lat.tail.tail, "ms"));

    let probes = [
        Workload::CompileZoo,
        Workload::InferB1,
        Workload::ServeLight,
    ];
    for p in probes.into_iter().filter(|&p| p != w) {
        let mut ready = Ready::setup(p, a)?;
        let mut ledger = Ledger::default();
        let m = ready.run(PROBE_SPAN, PROBE_OPS, Some(&mut ledger))?;
        report_phase(&format!("probe {p:?}"), &m);
        absorb(&m);
        ready.finish_ledger(&ledger, &mut out);
    }
    Ok((out, total))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "workload {:?} seed {} seconds {} trace {} (available parallelism {})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let result = if args.trace {
        traced(args.workload, &args)
    } else {
        untraced(args.workload, &args)
    };
    let (metrics, m) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    for metric in &metrics {
        println!("{} = {} {}", metric.name, metric.value, metric.unit);
    }
    let correct = m.failed == 0;
    let json = serde_json::Value::Object(vec![
        ("correct".into(), serde_json::Value::Bool(correct)),
        ("attempted".into(), serde_json::Value::UInt(m.attempted)),
        ("failed".into(), serde_json::Value::UInt(m.failed)),
        (
            "metrics".into(),
            serde_json::Value::Object(
                metrics
                    .iter()
                    .map(|x| {
                        (
                            x.name.clone(),
                            serde_json::Value::Object(vec![
                                ("value".into(), serde_json::Value::Float(x.value)),
                                ("unit".into(), serde_json::Value::String(x.unit.into())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    println!(
        "{}",
        serde_json::to_string(&json).expect("result serializes")
    );
    if !correct {
        std::process::exit(1);
    }
}
