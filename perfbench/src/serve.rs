//! `serve-light`: the real `ramiel serve` binary as a child process,
//! serving a Squeezenet `.onnx` file exported at setup, driven open loop
//! over two connections with seeded `infer` frames that carry real tensors.
//!
//! Every response is checked against the `run_sequential` oracle of its
//! frame. The traced run reads the server's own phase split (queue, batch
//! wait, execute, respond) through its `metrics` verb before and after the
//! traced load, and times the wire conversions of the same frames in this
//! process.

use crate::inputs::{graph_inputs, same_value, Rng};
use crate::ledger::Ledger;
use crate::loadgen::{self, Arrival, Outcome};
use crate::stats::Tail;
use crate::{Measured, Metric};
use ramiel_ir::TensorData;
use ramiel_models::{build, ModelConfig, ModelKind};
use ramiel_runtime::Env;
use ramiel_tensor::{ExecCtx, Value};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Distinct seeded frames; requests draw from this pool.
const FRAMES: usize = 16;

/// Client connections (the load budget allows at most two).
const CONNECTIONS: usize = 2;

/// Offered load, requests per second: about a quarter of what the default
/// server sustains over two connections.
const RPS: f64 = 100.0;

/// A request counts toward goodput only if answered correctly within this
/// many milliseconds of when it was due.
const LATENCY_LIMIT_MS: f64 = 25.0;

/// How long the generator waits for answers after the last due time.
const DRAIN: Duration = Duration::from_secs(10);

#[derive(Serialize)]
struct InferFrame {
    id: u64,
    op: String,
    inputs: BTreeMap<String, TensorData>,
}

#[derive(Deserialize)]
struct InferRequest {
    inputs: BTreeMap<String, TensorData>,
}

#[derive(Serialize)]
struct InferReply {
    id: u64,
    ok: bool,
    outputs: BTreeMap<String, TensorData>,
}

#[derive(Deserialize)]
struct Response {
    id: u64,
    ok: bool,
    outputs: Option<BTreeMap<String, TensorData>>,
    metrics: Option<String>,
}

/// The model, its frame pool and the oracle answer of every frame.
struct Frames {
    /// Serialized request lines, newline included.
    lines: Vec<Vec<u8>>,
    oracle: Vec<Env>,
}

impl Frames {
    fn new(graph: &ramiel_ir::Graph, seed: u64) -> Result<Frames, String> {
        let ctx = ExecCtx::sequential();
        let mut rng = Rng::stream(seed, "serve-frames");
        let mut frames = Frames {
            lines: Vec::new(),
            oracle: Vec::new(),
        };
        for id in 0..FRAMES {
            let inputs = graph_inputs(graph, &mut rng);
            let oracle =
                ramiel_runtime::run_sequential(graph, &inputs, &ctx).map_err(|e| e.to_string())?;
            let frame = InferFrame {
                id: id as u64,
                op: "infer".into(),
                inputs: inputs
                    .iter()
                    .map(|(k, v)| (k.clone(), v.to_tensor_data()))
                    .collect(),
            };
            let mut line = serde_json::to_string(&frame).map_err(|e| e.to_string())?;
            line.push('\n');
            frames.lines.push(line.into_bytes());
            frames.oracle.push(oracle);
        }
        Ok(frames)
    }

    /// Whether `line` is a successful answer to frame `frame` whose
    /// outputs equal the oracle's bit for bit.
    fn check(&self, frame: usize, line: &str) -> bool {
        let Ok(r) = serde_json::from_str::<Response>(line) else {
            return false;
        };
        let Some(outputs) = r.outputs.filter(|_| r.ok && r.id == frame as u64) else {
            return false;
        };
        let oracle = &self.oracle[frame];
        outputs.len() == oracle.len()
            && outputs.iter().all(|(name, td)| {
                let got = Value::from_tensor_data(td);
                oracle
                    .get(name)
                    .is_some_and(|want| got.is_ok_and(|g| same_value(&g, want)))
            })
    }
}

/// A running `ramiel serve` child and the client's connections to it.
struct Server {
    child: Child,
    /// Kept open so the server's last lines never meet a closed pipe.
    stdout: BufReader<ChildStdout>,
    conns: Vec<TcpStream>,
}

impl Server {
    fn spawn(bin: &Path, model: &Path, work: &Path) -> Result<Server, String> {
        let mut child = Command::new(bin)
            .arg("serve")
            .arg(model)
            .args(["--port", "0"])
            .env("RAMIEL_CACHE", work.join("cache"))
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            match stdout.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("server exited before listening".into());
                }
                Ok(_) => {
                    if let Some(addr) = line.trim().strip_prefix("listening on ") {
                        break addr.to_string();
                    }
                }
            }
        };
        let mut server = Server {
            child,
            stdout,
            conns: Vec::new(),
        };
        for _ in 0..CONNECTIONS {
            let c = TcpStream::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?;
            c.set_nodelay(true).map_err(|e| e.to_string())?;
            c.set_read_timeout(Some(Duration::from_secs(60)))
                .map_err(|e| e.to_string())?;
            server.conns.push(c);
        }
        Ok(server)
    }

    /// One blocking request-response on connection 0.
    fn call(&self, line: &[u8]) -> Result<String, String> {
        let mut c = &self.conns[0];
        c.write_all(line).map_err(|e| e.to_string())?;
        let mut reader = BufReader::new(c);
        let mut resp = String::new();
        match reader.read_line(&mut resp) {
            Ok(n) if n > 0 && resp.ends_with('\n') => Ok(resp.trim_end().to_string()),
            Ok(_) => Err("server closed the connection".into()),
            Err(e) => Err(e.to_string()),
        }
    }

    /// Sums and counts of the server's phase histograms, in nanoseconds.
    fn scrape(&self) -> Result<BTreeMap<String, f64>, String> {
        let resp = self.call(b"{\"id\":0,\"op\":\"metrics\"}\n")?;
        let text = serde_json::from_str::<Response>(&resp)
            .ok()
            .and_then(|r| r.metrics)
            .ok_or("metrics verb returned no exposition")?;
        let mut sums = BTreeMap::new();
        for s in ramiel_obs::parse_prometheus(&text) {
            let key = match (s.name.as_str(), s.label("phase")) {
                ("ramiel_request_phase_ns_sum", Some(p)) => format!("{p}_sum"),
                ("ramiel_request_phase_ns_count", Some(p)) => format!("{p}_count"),
                ("ramiel_request_latency_ns_sum", _) => "latency_sum".into(),
                ("ramiel_request_latency_ns_count", _) => "latency_count".into(),
                ("ramiel_batch_size_sum", _) => "batch_size_sum".into(),
                ("ramiel_batch_size_count", _) => "batch_size_count".into(),
                _ => continue,
            };
            *sums.entry(key).or_insert(0.0) += s.value;
        }
        Ok(sums)
    }

    /// VmHWM of the server process, in MiB.
    fn peak_rss_mb(&self) -> Option<f64> {
        crate::vm_hwm_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// Ask for a graceful shutdown and wait for the process to end.
    fn stop(mut self) {
        let _ = self.call(b"{\"id\":0,\"op\":\"shutdown\"}\n");
        self.conns.clear();
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                let _ = std::io::copy(&mut self.stdout, &mut std::io::sink());
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

pub struct ServeLoad {
    frames: Frames,
    server: Option<Server>,
    rng: Rng,
}

impl ServeLoad {
    /// Export Squeezenet, build the frame pool and its oracle, start the
    /// server and wait for its first correct answer.
    pub fn setup(seed: u64, bin: &Path, work: &Path) -> Result<ServeLoad, String> {
        std::fs::create_dir_all(work).map_err(|e| format!("{}: {e}", work.display()))?;
        let onnx = ramiel_onnx::export_model(&build(ModelKind::Squeezenet, &ModelConfig::full()));
        let path: PathBuf = work.join("squeezenet.onnx");
        std::fs::write(&path, &onnx).map_err(|e| format!("{}: {e}", path.display()))?;
        let graph = ramiel_onnx::import_model(&onnx).map_err(|e| e.to_string())?;
        let frames = Frames::new(&graph, seed)?;
        let server = Server::spawn(bin, &path, work)?;
        let first = server.call(&frames.lines[0])?;
        if !frames.check(0, &first) {
            return Err(format!("first answer is wrong: {:.200}", first));
        }
        Ok(ServeLoad {
            frames,
            server: Some(server),
            rng: Rng::stream(seed, "serve-arrivals"),
        })
    }

    fn server(&self) -> &Server {
        self.server.as_ref().expect("server runs until stop")
    }

    /// Open loop at the workload's rate for `span`.
    fn drive(&mut self, span: Duration) -> Result<(Vec<Arrival>, Vec<Outcome>), String> {
        let n = (RPS * span.as_secs_f64()).round().max(1.0) as usize;
        let schedule: Vec<Arrival> = loadgen::poisson_arrivals(n, span, &mut self.rng)
            .into_iter()
            .map(|due| Arrival {
                due,
                frame: self.rng.below(FRAMES),
            })
            .collect();
        let out = loadgen::run(&self.server().conns, &self.frames.lines, &schedule, DRAIN)
            .map_err(|e| e.to_string())?;
        Ok((schedule, out))
    }

    pub fn run(&mut self, span: Duration, ledger: Option<&mut Ledger>) -> Result<Measured, String> {
        let before = match ledger {
            Some(_) => Some(self.server().scrape()?),
            None => None,
        };
        let (schedule, outcomes) = self.drive(span)?;
        let mut m = Measured::default();
        // The phase runs from its start until the last answer arrives.
        let mut last = Duration::from_millis(1);
        for (s, o) in schedule.iter().zip(&outcomes) {
            let ok = o
                .response
                .as_deref()
                .is_some_and(|line| self.frames.check(s.frame, line));
            let lat = o.latency().unwrap_or(Duration::MAX);
            if ok {
                last = last.max(o.received.expect("answered"));
            }
            m.record(0, lat, ok, lat.as_secs_f64() * 1e3 <= LATENCY_LIMIT_MS);
        }
        m.elapsed = last;
        if let (Some(before), Some(ledger)) = (before, ledger) {
            let after = self.server().scrape()?;
            for (k, v) in &after {
                ledger.add(
                    &format!("server.{k}"),
                    v - before.get(k).copied().unwrap_or(0.0),
                );
            }
            for o in outcomes.iter() {
                if let Some(svc) = o.service() {
                    ledger.add_ms("client.service_ms", svc);
                    ledger.add("client.answered", 1.0);
                }
                if let Some(late) = o.lateness() {
                    ledger.push_sample("loadgen.late_ms", late.as_secs_f64() * 1e3);
                }
            }
            self.time_wire(ledger);
        }
        Ok(m)
    }

    /// Time the conversions a request and its answer go through on the
    /// wire: JSON text to `TensorData` to `Value` for each frame, and
    /// `Value` to `TensorData` to JSON text for its outputs.
    fn time_wire(&self, ledger: &mut Ledger) {
        for _ in 0..4 {
            for (i, line) in self.frames.lines.iter().enumerate() {
                let text = std::str::from_utf8(line).expect("frames are JSON text");
                let t = Instant::now();
                let req: InferRequest = serde_json::from_str(text).expect("frame parses");
                let env: Env = req
                    .inputs
                    .iter()
                    .map(|(k, td)| {
                        (
                            k.clone(),
                            Value::from_tensor_data(td).expect("frame tensor"),
                        )
                    })
                    .collect();
                ledger.add_ms("wire.decode_ms", t.elapsed());
                std::hint::black_box(env);
                let t = Instant::now();
                let reply = InferReply {
                    id: i as u64,
                    ok: true,
                    outputs: self.frames.oracle[i]
                        .iter()
                        .map(|(k, v)| (k.clone(), v.to_tensor_data()))
                        .collect(),
                };
                let text = serde_json::to_string(&reply).expect("reply serializes");
                ledger.add_ms("wire.encode_ms", t.elapsed());
                ledger.add("wire.frames", 1.0);
                std::hint::black_box(text);
            }
        }
    }

    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        self.server()
            .peak_rss_mb()
            .ok_or("no VmHWM for the server".into())
    }

    /// Close a traced run: the server's mean phase times per request, the
    /// client's transport share, wire conversion times, mean batch size and
    /// generator lateness. Coverage is the share of the client's service
    /// time that the named parts — wire conversions and the server's four
    /// phases — account for; what they miss is spent in sockets and threads.
    pub fn finish_ledger(ledger: &Ledger, out: &mut Vec<Metric>) {
        let per_req = |phase: &str| {
            ledger.sum(&format!("server.{phase}_sum"))
                / ledger.sum(&format!("server.{phase}_count")).max(1.0)
                / 1e6
        };
        let frames = ledger.sum("wire.frames").max(1.0);
        let decode = ledger.sum("wire.decode_ms") / frames;
        let encode = ledger.sum("wire.encode_ms") / frames;
        let phases = [
            per_req("queue"),
            per_req("batch"),
            per_req("execute"),
            per_req("respond"),
        ];
        let server = per_req("latency");
        let client = ledger.sum("client.service_ms") / ledger.sum("client.answered").max(1.0);
        let mut parts = phases.to_vec();
        parts.extend([decode, encode]);
        out.push(Metric::new("serve.wire_decode_ms", decode, "ms"));
        out.push(Metric::new("serve.wire_encode_ms", encode, "ms"));
        out.push(Metric::new("serve.transport_ms", client - server, "ms"));
        out.push(Metric::new("serve.queue_ms", phases[0], "ms"));
        out.push(Metric::new("serve.batch_wait_ms", phases[1], "ms"));
        out.push(Metric::new("serve.execute_ms", phases[2], "ms"));
        out.push(Metric::new("serve.respond_ms", phases[3], "ms"));
        out.push(Metric::new(
            "serve.mean_batch",
            ledger.sum("server.batch_size_sum") / ledger.sum("server.batch_size_count").max(1.0),
            "count",
        ));
        out.push(Metric::new(
            "serve.coverage",
            crate::stats::coverage(&parts, client),
            "ratio",
        ));
        let late = Tail::of(ledger.samples("loadgen.late_ms"));
        out.push(Metric::new("loadgen.late_tail_ms", late.tail, "ms"));
    }
}

impl Drop for ServeLoad {
    fn drop(&mut self) {
        if let Some(s) = self.server.take() {
            s.stop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(out: &[Metric], name: &str) -> f64 {
        out.iter().find(|m| m.name == name).expect(name).value
    }

    #[test]
    fn ledger_splits_the_client_time() {
        let mut l = Ledger::default();
        // Two requests: the server saw 2 ms each (phases 0.5 + 1 + 0.4 +
        // 0.1 ms), the client 5 ms each; 4 frames decoded in 0.2 ms and
        // encoded in 0.1 ms apiece.
        for (phase, ms) in [
            ("queue", 0.5),
            ("batch", 1.0),
            ("execute", 0.4),
            ("respond", 0.1),
        ] {
            l.add(&format!("server.{phase}_sum"), 2.0 * ms * 1e6);
            l.add(&format!("server.{phase}_count"), 2.0);
        }
        l.add("server.latency_sum", 4.0e6);
        l.add("server.latency_count", 2.0);
        l.add("server.batch_size_sum", 3.0);
        l.add("server.batch_size_count", 2.0);
        l.add("client.service_ms", 10.0);
        l.add("client.answered", 2.0);
        l.add("wire.decode_ms", 0.8);
        l.add("wire.encode_ms", 0.4);
        l.add("wire.frames", 4.0);
        for late in [0.1, 0.2] {
            l.push_sample("loadgen.late_ms", late);
        }
        let mut out = Vec::new();
        ServeLoad::finish_ledger(&l, &mut out);
        let close = |name: &str, want: f64| {
            let got = metric(&out, name);
            assert!((got - want).abs() < 1e-9, "{name}: {got} != {want}");
        };
        close("serve.transport_ms", 3.0);
        close("serve.batch_wait_ms", 1.0);
        close("serve.mean_batch", 1.5);
        // (0.5 + 1 + 0.4 + 0.1 + 0.2 + 0.1) / 5
        close("serve.coverage", 0.46);
        close("loadgen.late_tail_ms", 0.2);
    }
}
