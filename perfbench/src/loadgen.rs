//! Open-loop load over newline-delimited TCP connections.
//!
//! Requests fall due on a fixed schedule whatever the server's progress,
//! so a stall builds a backlog instead of slowing the arrivals. Like a
//! client's connection pool, each connection carries one request at a
//! time: a due request leaves on the first idle connection, and waits in
//! the generator while every connection is busy. One thread multiplexes
//! the connections with non-blocking sockets.
//!
//! Each request's latency runs from the time it was *due*, so the wait a
//! stall imposes on later requests is counted. How late each request left
//! the generator is recorded too: near zero while the server keeps up,
//! growing when it stalls or when the generator itself falls behind.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// One scheduled request.
#[derive(Debug, Clone)]
pub struct Arrival {
    /// Offset from the start of the run.
    pub due: Duration,
    /// Index into the frame pool.
    pub frame: usize,
}

/// What happened to one request. Times are offsets from the run start.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub due: Duration,
    /// When the last byte of the frame was handed to the socket.
    pub sent: Option<Duration>,
    pub received: Option<Duration>,
    /// The response line, without its newline.
    pub response: Option<String>,
}

impl Outcome {
    /// Latency from the due time, if answered.
    pub fn latency(&self) -> Option<Duration> {
        self.received.map(|r| r.saturating_sub(self.due))
    }

    /// Client-side service time: from the frame being sent to its answer.
    pub fn service(&self) -> Option<Duration> {
        Some(self.received?.saturating_sub(self.sent?))
    }

    /// How late the generator sent the frame.
    pub fn lateness(&self) -> Option<Duration> {
        self.sent.map(|s| s.saturating_sub(self.due))
    }
}

/// `n` arrival offsets of a Poisson process conditioned on `n` arrivals in
/// `span`: sorted independent uniform draws. Conditioning on the count
/// keeps the offered rate exact while the gaps stay random.
pub fn poisson_arrivals(n: usize, span: Duration, rng: &mut crate::inputs::Rng) -> Vec<Duration> {
    let mut t: Vec<f64> = (0..n).map(|_| rng.unit() * span.as_secs_f64()).collect();
    t.sort_by(f64::total_cmp);
    t.into_iter().map(Duration::from_secs_f64).collect()
}

struct Conn {
    stream: TcpStream,
    /// The request on this connection: its index, the bytes of its frame
    /// written so far, and whether all of them are.
    current: Option<(usize, usize, bool)>,
    inbuf: Vec<u8>,
    open: bool,
}

/// Drive `schedule` (sorted by `due`) over `streams`, then wait up to
/// `drain` after the last due time for outstanding answers. Requests still
/// unanswered at the end have no `received` time.
pub fn run(
    streams: &[TcpStream],
    frames: &[Vec<u8>],
    schedule: &[Arrival],
    drain: Duration,
) -> std::io::Result<Vec<Outcome>> {
    let mut conns = streams
        .iter()
        .map(|s| {
            let stream = s.try_clone()?;
            stream.set_nonblocking(true)?;
            stream.set_nodelay(true)?;
            Ok(Conn {
                stream,
                current: None,
                inbuf: Vec::new(),
                open: true,
            })
        })
        .collect::<std::io::Result<Vec<_>>>()?;
    let mut outcomes: Vec<Outcome> = schedule
        .iter()
        .map(|s| Outcome {
            due: s.due,
            ..Outcome::default()
        })
        .collect();
    let last_due = schedule.last().map_or(Duration::ZERO, |s| s.due);
    let mut chunk = vec![0u8; 1 << 16];
    let start = Instant::now();
    let mut next = 0;
    // Due requests not yet on a connection, oldest first.
    let mut waiting: VecDeque<usize> = VecDeque::new();
    loop {
        let now = start.elapsed();
        while next < schedule.len() && schedule[next].due <= now {
            waiting.push_back(next);
            next += 1;
        }
        let mut progressed = false;
        for c in conns.iter_mut().filter(|c| c.open) {
            if c.current.is_none() {
                c.current = waiting.pop_front().map(|i| (i, 0, false));
            }
            while let Some((i, off, false)) = c.current {
                let frame = &frames[schedule[i].frame];
                match c.stream.write(&frame[off..]) {
                    Ok(k) => {
                        let done = off + k == frame.len();
                        if done {
                            outcomes[i].sent = Some(start.elapsed());
                        }
                        c.current = Some((i, off + k, done));
                        progressed = true;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => {
                        c.open = false;
                        break;
                    }
                }
            }
            loop {
                match c.stream.read(&mut chunk) {
                    Ok(0) => {
                        c.open = false;
                        break;
                    }
                    Ok(k) => {
                        let at = start.elapsed();
                        progressed = true;
                        let scan_from = c.inbuf.len();
                        c.inbuf.extend_from_slice(&chunk[..k]);
                        let mut consumed = 0;
                        let mut from = scan_from;
                        while let Some(p) = c.inbuf[from..].iter().position(|&b| b == b'\n') {
                            let end = from + p;
                            let line =
                                String::from_utf8_lossy(&c.inbuf[consumed..end]).into_owned();
                            if let Some((i, _, true)) = c.current.take() {
                                outcomes[i].received = Some(at);
                                outcomes[i].response = Some(line);
                            }
                            consumed = end + 1;
                            from = consumed;
                        }
                        c.inbuf.drain(..consumed);
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => {
                        c.open = false;
                        break;
                    }
                }
            }
        }
        let busy = !waiting.is_empty() || conns.iter().any(|c| c.open && c.current.is_some());
        if (next == schedule.len() && !busy) || conns.iter().all(|c| !c.open) {
            break;
        }
        let now = start.elapsed();
        if now > last_due + drain {
            break;
        }
        if !progressed {
            // Poll again soon, or exactly when the next request is due.
            let mut nap = Duration::from_micros(100);
            if next < schedule.len() {
                nap = nap.min(schedule[next].due.saturating_sub(now));
            }
            if !nap.is_zero() {
                std::thread::sleep(nap);
            }
        }
    }
    for c in &conns {
        c.stream.set_nonblocking(false)?;
    }
    Ok(outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::net::TcpListener;

    /// A one-connection echo server that answers each line with `ok`,
    /// except that it stops reading for `stall` after the `stall_at`-th
    /// line. Returns the client end.
    fn fake_server(stall_at: usize, stall: Duration) -> (TcpStream, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (s, _) = listener.accept().unwrap();
            let mut w = s.try_clone().unwrap();
            let mut r = BufReader::new(s);
            let mut line = String::new();
            let mut n = 0;
            while r.read_line(&mut line).unwrap_or(0) > 0 {
                n += 1;
                if n == stall_at {
                    std::thread::sleep(stall);
                }
                if w.write_all(b"ok\n").is_err() {
                    break;
                }
                line.clear();
            }
        });
        (TcpStream::connect(addr).unwrap(), handle)
    }

    fn schedule(n: usize, gap: Duration) -> Vec<Arrival> {
        (0..n)
            .map(|i| Arrival {
                due: gap * i as u32,
                frame: 0,
            })
            .collect()
    }

    #[test]
    fn latency_and_lateness_run_from_the_due_time_through_a_stall() {
        let stall = Duration::from_millis(300);
        let (client, server) = fake_server(3, stall);
        let frames = vec![b"x\n".to_vec()];
        let gap = Duration::from_millis(20);
        let out = run(
            &[client.try_clone().unwrap()],
            &frames,
            &schedule(20, gap),
            Duration::from_secs(5),
        )
        .unwrap();
        drop(client);
        server.join().unwrap();
        assert!(out.iter().all(|o| o.response.as_deref() == Some("ok")));
        // Before the stall the generator is on time.
        assert!(out[..3]
            .iter()
            .all(|o| o.lateness().unwrap() < Duration::from_millis(15)));
        // Every request due during the stall waits for its end, and both its
        // latency and its lateness count that wait from when it was due.
        let stall_end = out[2].received.unwrap();
        assert!(stall_end >= gap * 2 + stall);
        let delayed: Vec<&Outcome> = out.iter().skip(3).filter(|o| o.due < stall_end).collect();
        assert!(
            delayed.len() >= 10,
            "{} requests fell due during the stall",
            delayed.len()
        );
        for o in delayed {
            assert!(o.lateness().unwrap() >= stall_end - o.due, "{o:?}");
            assert!(o.latency().unwrap() >= o.lateness().unwrap() + o.service().unwrap());
        }
    }

    #[test]
    fn one_request_per_connection_at_a_time() {
        // A server that never answers: each connection takes one request
        // and the rest wait in the generator, unsent.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let a = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let b = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let _held = (listener.accept().unwrap(), listener.accept().unwrap());
        let frames = vec![b"x\n".to_vec()];
        let out = run(
            &[a, b],
            &frames,
            &schedule(5, Duration::from_millis(1)),
            Duration::from_millis(50),
        )
        .unwrap();
        assert_eq!(out.iter().filter(|o| o.sent.is_some()).count(), 2);
        assert!(out.iter().all(|o| o.received.is_none()));
    }

    #[test]
    fn generator_lateness_is_counted_when_the_server_stops_reading() {
        let stall = Duration::from_millis(400);
        let (client, server) = fake_server(1, stall);
        // 4 MiB frames fill the socket buffers while the server is not
        // reading, so later frames cannot leave on time.
        let mut frame = vec![b'x'; 4 << 20];
        frame.push(b'\n');
        let frames = vec![frame];
        let out = run(
            &[client.try_clone().unwrap()],
            &frames,
            &schedule(6, Duration::from_millis(10)),
            Duration::from_secs(10),
        )
        .unwrap();
        drop(client);
        server.join().unwrap();
        assert!(out.iter().all(|o| o.response.is_some()));
        let worst = out.iter().filter_map(Outcome::lateness).max().unwrap();
        assert!(
            worst >= Duration::from_millis(200),
            "worst lateness {worst:?}"
        );
        for o in &out {
            assert!(o.latency().unwrap() >= o.lateness().unwrap());
        }
    }

    #[test]
    fn poisson_arrivals_are_sorted_within_the_span() {
        let mut rng = crate::inputs::Rng::stream(3, "test");
        let span = Duration::from_secs(2);
        let t = poisson_arrivals(500, span, &mut rng);
        assert_eq!(t.len(), 500);
        assert!(t.windows(2).all(|w| w[0] <= w[1]));
        assert!(*t.last().unwrap() < span);
    }
}
