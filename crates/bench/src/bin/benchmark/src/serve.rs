//! `serve_mixed`: `/analyze` under open-loop load beside a `/healthz`
//! monitor, against the in-process nonblocking server.
//!
//! One generator thread drives two loopback connections through
//! `wla_net::poll::wait`:
//!
//! - **A** posts the corpus bodies to `/analyze` on an open-loop schedule:
//!   request `k` is due at `start + k / rate` whether or not earlier ones
//!   were answered, requests queue (pipelined) on the one keep-alive
//!   connection, and each is timed from when it was *due*, so a stall is
//!   charged to every request it delays. How late the generator itself
//!   sent each request is recorded too; a fixed-rate phase whose lateness
//!   p99 exceeds 1 ms measured the generator, not the server, and is rerun
//!   once; if the rerun is late too, the phase's timings read 0.
//! - **B** keeps one `/healthz` in flight, closed loop, with a 0.5 ms
//!   think time between probes. Without the think time the ping-pong alone
//!   would keep a core of a two-core host busy, and the load would be the
//!   health checks, not `/analyze`.
//!
//! Every response is checked against an in-process `Router::dispatch` of
//! the same request: same status, same body bytes.

use crate::measure::{self, median, Fnv, Summary};
use crate::trace::Tracer;
use crate::workloads::{corpus_inputs, drive_layers, time_setups, Checks, Opts, Outcome};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::Arc;
use std::time::{Duration, Instant};
use wla_core::service_router;
use wla_core::wla_corpus::{CorpusConfig, Generator};
use wla_core::wla_net::http::form_encode;
use wla_core::wla_net::poll::{self, Interest};
use wla_core::wla_net::{
    fetch, BeaconStore, NetLog, Request, Router, Server, ServerConfig, Status,
};
use wla_core::wla_sdk_index::SdkIndex;
use wla_core::wla_static::{run_pipeline, PipelineConfig};
use wla_core::wla_web::testpage::test_page_html;

/// The fixed rate the e2e latency is measured at.
pub const FIXED_RATE: f64 = 4_000.0;
/// Think time between `/healthz` probes on connection B.
const HEALTHZ_THINK: Duration = Duration::from_micros(500);
/// Below this much time to the next send, spin on `poll(0)` instead of
/// sleeping, so sends go out on time.
const SPIN: Duration = Duration::from_micros(100);
/// Stop writing new requests while this many bytes are still unsent;
/// overdue requests keep their due time and wait in the schedule.
const SEND_BUFFER_CAP: usize = 1 << 20;
/// A probe passes only if every response arrived within this long of its
/// end.
const PROBE_DRAIN: Duration = Duration::from_secs(1);
/// Give up on a response this long after a phase ends.
const HARD_DRAIN: Duration = Duration::from_secs(20);
/// Latency limit the maximum sustainable rate is searched against.
const P99_LIMIT_S: f64 = 1e-3;
/// A fixed-rate phase whose generator lateness p99 is over this measured
/// the generator, not the server...
const LATE_LIMIT_S: f64 = 1e-3;
/// ...when it sent enough requests for a p99 with ten samples beyond it.
const LATE_MIN_SAMPLES: usize = 1_000;
/// Rate range and probe count of the log-space bisection.
const SEARCH_LO: f64 = 1_000.0;
const SEARCH_HI: f64 = 32_000.0;
const PROBES: usize = 6;

/// One framed HTTP response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Status code.
    pub status: u16,
    /// Body bytes.
    pub body: Vec<u8>,
}

/// Incremental response framer: feed it bytes as they arrive, split
/// anywhere, and take complete responses out. Framing is strictly on
/// `content-length`, which the server always sends.
#[derive(Debug, Default)]
pub struct Framer {
    buf: Vec<u8>,
    start: usize,
}

impl Framer {
    /// Append received bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        if self.start > 0 && self.start * 2 >= self.buf.len() {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// The next complete response, if one is buffered.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, String> {
        let data = &self.buf[self.start..];
        let Some(head_len) = data.windows(4).position(|w| w == b"\r\n\r\n") else {
            if data.len() > 64 * 1024 {
                return Err("response head over 64 KiB".to_owned());
            }
            return Ok(None);
        };
        let head = std::str::from_utf8(&data[..head_len]).map_err(|_| "non-UTF-8 head")?;
        let mut lines = head.split("\r\n");
        let status = lines
            .next()
            .and_then(|l| l.strip_prefix("HTTP/1."))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|c| c.parse::<u16>().ok())
            .ok_or_else(|| format!("bad status line in {head:?}"))?;
        let len = lines
            .filter_map(|l| l.split_once(':'))
            .find(|(n, _)| n.trim().eq_ignore_ascii_case("content-length"))
            .and_then(|(_, v)| v.trim().parse::<usize>().ok())
            .ok_or("response without a content-length")?;
        let body_start = head_len + 4;
        if data.len() < body_start + len {
            return Ok(None);
        }
        let body = data[body_start..body_start + len].to_vec();
        self.start += body_start + len;
        Ok(Some(Frame { status, body }))
    }
}

/// Open-loop arrival schedule for one phase: request `k` is due
/// `k / rate` after the phase starts, for every `k` due before it ends.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoop {
    period_ns: f64,
    count: u64,
    next: u64,
}

impl OpenLoop {
    /// `rate` requests per second for `duration`; a zero rate sends
    /// nothing.
    pub fn new(rate: f64, duration: Duration) -> OpenLoop {
        if rate <= 0.0 {
            return OpenLoop {
                period_ns: 0.0,
                count: 0,
                next: 0,
            };
        }
        let period_ns = 1e9 / rate;
        OpenLoop {
            period_ns,
            count: (duration.as_nanos() as f64 / period_ns).ceil() as u64,
            next: 0,
        }
    }

    /// Requests the phase schedules.
    #[cfg(test)]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Due time of the next unsent request, ns after the phase start.
    pub fn next_due_ns(&self) -> Option<u64> {
        (self.next < self.count).then_some((self.next as f64 * self.period_ns) as u64)
    }

    /// Claim the next request if it is due at `now_ns`: its index and due
    /// time. Overdue requests come out one by one, each with its own
    /// (earlier) due time.
    pub fn take_due(&mut self, now_ns: u64) -> Option<(u64, u64)> {
        let due = self.next_due_ns()?;
        if due > now_ns {
            return None;
        }
        self.next += 1;
        Some((self.next - 1, due))
    }
}

/// A nonblocking client connection with a send buffer and a framer.
struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    sent: usize,
    framer: Framer,
}

impl Conn {
    fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            out: Vec::new(),
            sent: 0,
            framer: Framer::default(),
        })
    }

    fn interest(&self) -> Interest {
        Interest::new(
            self.stream.as_raw_fd() as i64,
            true,
            self.sent < self.out.len(),
        )
    }

    fn unsent(&self) -> usize {
        self.out.len() - self.sent
    }

    fn queue(&mut self, bytes: &[u8]) {
        self.out.extend_from_slice(bytes);
    }

    fn flush(&mut self) -> std::io::Result<()> {
        while self.sent < self.out.len() {
            match self.stream.write(&self.out[self.sent..]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => self.sent += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if self.sent == self.out.len() {
            self.out.clear();
            self.sent = 0;
        }
        Ok(())
    }

    fn fill(&mut self) -> std::io::Result<()> {
        let mut chunk = [0u8; 64 * 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.framer.push(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// The request stream and the answers it must get.
struct Inputs {
    /// Serialized keep-alive `/analyze` requests, one per corpus app.
    wire: Vec<Vec<u8>>,
    /// `(status, body)` of an in-process dispatch of each request.
    expected: Answers,
    /// Serialized keep-alive `GET /healthz`.
    healthz: Vec<u8>,
}

/// One load phase's raw samples and counts.
#[derive(Debug, Default)]
struct Phase {
    /// `/analyze` latency from due time, seconds.
    analyze_s: Vec<f64>,
    /// Generator lateness (send time − due time), seconds.
    late_s: Vec<f64>,
    /// `/healthz` round trips, seconds.
    healthz_s: Vec<f64>,
    /// Requests sent on either connection.
    sent: u64,
    /// Requests whose response was wrong, unexpected, or missing.
    failed: u64,
    /// What went wrong, first few.
    problems: Vec<String>,
    /// Time from the phase end until the last response arrived.
    drained: Duration,
}

impl Phase {
    fn fail(&mut self, problem: String) {
        self.failed += 1;
        if self.problems.len() < 5 {
            self.problems.push(problem);
        }
    }

    /// Fold this phase's requests and failures into the run's checks.
    fn account(&self, checks: &mut Checks) {
        checks.attempted += self.sent;
        checks.failed += self.failed;
        checks.problems.extend(self.problems.iter().cloned());
    }
}

fn p99(samples: &[f64]) -> f64 {
    measure::quantile(&measure::sorted(samples), 0.99)
}

/// Whether a fixed-rate phase's generator ran too late to measure it.
fn too_late(p: &Phase) -> bool {
    p.late_s.len() >= LATE_MIN_SAMPLES && p99(&p.late_s) > LATE_LIMIT_S
}

/// Drive one phase: open-loop `/analyze` at `rate` (none when 0) on A and
/// the `/healthz` monitor on B, then drain.
fn run_phase(
    a: &mut Conn,
    b: &mut Conn,
    inputs: &Inputs,
    cursor: &mut usize,
    rate: f64,
    duration: Duration,
) -> Phase {
    let mut phase = Phase::default();
    let mut schedule = OpenLoop::new(rate, duration);
    let mut in_flight: VecDeque<(usize, Instant)> = VecDeque::new();
    let mut healthz_sent: Option<Instant> = None;
    let mut healthz_next = Instant::now();
    let start = Instant::now();
    let end = start + duration;
    loop {
        let now = Instant::now();
        let now_ns = now.duration_since(start).as_nanos() as u64;
        while a.unsent() < SEND_BUFFER_CAP {
            let Some((_, due_ns)) = schedule.take_due(now_ns) else {
                break;
            };
            let i = *cursor % inputs.wire.len();
            *cursor += 1;
            a.queue(&inputs.wire[i]);
            in_flight.push_back((i, start + Duration::from_nanos(due_ns)));
            phase.late_s.push((now_ns - due_ns) as f64 * 1e-9);
            phase.sent += 1;
        }
        if now < end && healthz_sent.is_none() && now >= healthz_next {
            b.queue(&inputs.healthz);
            healthz_sent = Some(now);
            phase.sent += 1;
        }
        let io = a.flush().and(b.flush()).and(a.fill()).and(b.fill());
        let received = Instant::now();
        if let Err(e) = io {
            phase.problems.push(format!("transport error: {e}"));
            break;
        }
        while let Some(frame) = take(&mut a.framer, &mut phase) {
            let Some((i, due)) = in_flight.pop_front() else {
                phase.fail("response without a request".to_owned());
                continue;
            };
            phase
                .analyze_s
                .push(received.duration_since(due).as_secs_f64());
            let (status, body) = &inputs.expected[i];
            if frame.status != *status || frame.body != *body {
                phase.fail(format!(
                    "/analyze response {} differs from the in-process dispatch ({status})",
                    frame.status
                ));
            }
        }
        while let Some(frame) = take(&mut b.framer, &mut phase) {
            match healthz_sent.take() {
                Some(sent) => phase
                    .healthz_s
                    .push(received.duration_since(sent).as_secs_f64()),
                None => phase.fail("unsolicited /healthz response".to_owned()),
            }
            if frame.status != 200 || frame.body != b"ok" {
                phase.fail(format!("/healthz answered {}", frame.status));
            }
            healthz_next = received + HEALTHZ_THINK;
        }
        let idle = in_flight.is_empty() && healthz_sent.is_none();
        if received >= end && schedule.next_due_ns().is_none() && idle {
            phase.drained = received.saturating_duration_since(end);
            break;
        }
        if received >= end + HARD_DRAIN {
            phase.problems.push(format!(
                "responses still missing {HARD_DRAIN:?} after the phase"
            ));
            break;
        }

        // Sleep until the next send is due, but wake on readiness while a
        // response is outstanding; poll's millisecond timeout is too coarse
        // for the last stretch, which spins.
        let mut next = if received < end {
            end
        } else {
            end + HARD_DRAIN
        };
        if let Some(due_ns) = schedule.next_due_ns() {
            next = next.min(start + Duration::from_nanos(due_ns));
        }
        if received < end && healthz_sent.is_none() {
            next = next.min(healthz_next);
        }
        let until = next.saturating_duration_since(received);
        let mut sources = [a.interest(), b.interest()];
        if until >= Duration::from_millis(2) {
            poll::wait(&mut sources, until - Duration::from_millis(1));
        } else if !idle || until <= SPIN {
            poll::wait(&mut sources, Duration::ZERO);
        } else {
            std::thread::sleep(until - SPIN);
        }
    }
    let unanswered = in_flight.len() as u64 + u64::from(healthz_sent.is_some());
    if unanswered > 0 {
        phase.failed += unanswered;
        phase
            .problems
            .push(format!("{unanswered} requests unanswered"));
    }
    phase
}

/// Next frame, recording a framing error as a failure.
fn take(framer: &mut Framer, phase: &mut Phase) -> Option<Frame> {
    match framer.next_frame() {
        Ok(frame) => frame,
        Err(e) => {
            phase.fail(format!("framing error: {e}"));
            None
        }
    }
}

/// The router `wla serve` fronts.
fn router() -> Router {
    service_router(
        Arc::new(SdkIndex::paper()),
        Arc::new(test_page_html()),
        BeaconStore::default(),
        NetLog::new(),
    )
}

/// Start the server on an ephemeral loopback port and wait for the first
/// `/healthz` 200.
fn start_server() -> Server {
    let server = Server::start_with(router().into_handler(), ServerConfig::default())
        .expect("bind an ephemeral loopback port");
    let resp = fetch(server.addr(), Request::get("/healthz")).expect("first /healthz");
    assert_eq!(resp.status, Status::Ok, "first /healthz");
    server
}

/// What the oracle answered: `(status, body)` per request.
type Answers = Vec<(u16, Vec<u8>)>;

/// The oracle: an in-process dispatch of every request through the same
/// router, timed. Returns the expected answer per request, the
/// per-request dispatch times, and the digest over all answers.
fn dispatch_all(requests: &[Request]) -> (Answers, Vec<f64>, u64) {
    let oracle = router();
    let mut expected = Vec::with_capacity(requests.len());
    let mut times = Vec::with_capacity(requests.len());
    let mut digest = Fnv::default();
    for req in requests {
        let t0 = Instant::now();
        let resp = oracle.dispatch(req);
        times.push(t0.elapsed().as_secs_f64());
        digest.write(&resp.status.code().to_le_bytes());
        digest.write(&resp.body);
        expected.push((resp.status.code(), resp.body.to_vec()));
    }
    (expected, times, digest.finish())
}

/// Keep-alive wire form of a request.
fn wire(req: &Request) -> Vec<u8> {
    let mut bytes = Vec::new();
    req.write_into(&mut bytes, false)
        .expect("serializing into a Vec cannot fail");
    bytes
}

/// The `serve_mixed` workload.
pub fn serve_mixed(o: &Opts) -> Outcome {
    let mut out = Outcome::new(o.trace);
    let scale = if o.toy { 4_000 } else { 100 };
    let catalog = SdkIndex::paper();
    let corpus = Generator::new(
        &catalog,
        CorpusConfig {
            scale,
            seed: o.seed,
            ..CorpusConfig::default()
        },
    )
    .generate();
    let requests: Vec<Request> = corpus
        .iter()
        .map(|g| {
            let meta = &g.spec.meta;
            let target = format!(
                "/analyze?package={}&category={}&downloads={}",
                form_encode(&meta.package),
                form_encode(meta.category.label()),
                meta.downloads
            );
            Request::post(target, g.bytes.clone())
        })
        .collect();

    let mut setup_s = Vec::new();
    time_setups(&mut setup_s, start_server);
    let mut server = start_server();
    let mut a = Conn::connect(server.addr()).expect("connect A");
    let mut b = Conn::connect(server.addr()).expect("connect B");
    let mut cursor = 0usize;
    let secs = o.seconds;
    let mut tracer = Tracer::new(o.trace);
    tracer.span("rep", |t| {
        let (expected, dispatch_s, digest) = t.span("service.dispatch", |_| dispatch_all(&requests));
        out.report.push(format!("digest {digest:016x}"));
        out.checks.record(match o.expected_digest {
            Some(e) if e != digest => Err(format!(
                "dispatch digest {digest:016x} does not match the stored default-seed digest {e:016x}"
            )),
            _ => Ok(()),
        });
        let inputs = Inputs {
            wire: requests.iter().map(wire).collect(),
            expected,
            healthz: wire(&Request::get("/healthz")),
        };
        // Peak RSS through set-up and the in-process dispatch, like the
        // batch workloads' first repetition. Under load the server buffers
        // pipelined requests up to its read cap for as long as the host
        // stalls it, which added up to 6 MiB in contended runs: the host,
        // not the code, would set the number.
        let peak_rss_mib = measure::peak_rss_mib();
        let mut phase = |t: &mut Tracer, name: &'static str, rate: f64, share: f64| {
            let p = t.span(name, |_| {
                run_phase(&mut a, &mut b, &inputs, &mut cursor, rate, dur(secs * share))
            });
            p.account(&mut out.checks);
            // Server set-ups are timed after every phase, so that they
            // spread across the run.
            t.span("setup", |_| time_setups(&mut setup_s, start_server));
            p
        };

        let unloaded = phase(t, "net.unloaded", 0.0, 0.1);
        let fixed_share = if o.trace { 0.4 } else { 0.9 };
        let mut fixed = phase(t, "net.fixed", FIXED_RATE, fixed_share);
        if too_late(&fixed) {
            out.report.push(format!(
                "fixed phase invalid: generator lateness p99 {:.3} ms > 1 ms; rerun",
                p99(&fixed.late_s) * 1e3
            ));
            fixed = phase(t, "net.fixed", FIXED_RATE, fixed_share);
        }
        let late_p99 = p99(&fixed.late_s);
        let still_late = too_late(&fixed);

        // Highest probed rate whose p99 stays under the limit with every
        // response drained within a second of the probe's end (0 if no
        // probe passed).
        let mut max_rps = 0.0;
        if o.trace {
            let (mut lo, mut hi) = (SEARCH_LO, SEARCH_HI);
            for _ in 0..PROBES {
                let rate = (lo * hi).sqrt();
                let p = phase(t, "net.probe", rate, 0.5 / PROBES as f64);
                let pass = p.failed == 0
                    && p.drained <= PROBE_DRAIN
                    && p99(&p.analyze_s) <= P99_LIMIT_S;
                out.report.push(format!(
                    "probe {rate:>6.0} req/s: p99 {:.3} ms, drained {:.1} ms after the end: {}",
                    p99(&p.analyze_s) * 1e3,
                    p.drained.as_secs_f64() * 1e3,
                    if pass { "pass" } else { "fail" }
                ));
                if pass {
                    lo = rate;
                    max_rps = rate;
                } else {
                    hi = rate;
                }
            }
        }
        // A rerun that is still late leaves no valid fixed-rate timing: the
        // metrics taken from the phase read 0, as for a layer not measured,
        // and `gen.late_p99_ms` beside them says why. The responses were
        // still checked, so the run stays correct.
        if still_late {
            out.report.push(format!(
                "fixed phase invalid after its rerun: generator lateness p99 {:.3} ms > 1 ms; \
                 its timings read 0",
                late_p99 * 1e3
            ));
        }
        let timing = |v: f64| if still_late { 0.0 } else { v };

        let analyze = Summary::of(&fixed.analyze_s);
        let dispatch = Summary::of(&dispatch_s);
        out.e2e.extend([
            ("setup_s", median(&setup_s)),
            ("peak_rss_mib", peak_rss_mib),
        ]);
        for (what, samples, scale, unit) in [
            ("set-up", &setup_s, 1e3, "ms"),
            ("/analyze @ 4000 req/s, from due time", &fixed.analyze_s, 1e3, "ms"),
            ("/healthz unloaded", &unloaded.healthz_s, 1e3, "ms"),
            ("/healthz under load", &fixed.healthz_s, 1e3, "ms"),
            ("generator lateness", &fixed.late_s, 1e3, "ms"),
            ("in-process dispatch", &dispatch_s, 1e6, "us"),
        ] {
            out.report
                .push(format!("{what}: {}", Summary::of(samples).line(scale, unit)));
        }
        let snap = server.stats().snapshot();
        out.layer.extend([
            ("latency_ms", timing(analyze.median * 1e3)),
            ("service.dispatch_p50_us", dispatch.median * 1e6),
            (
                "net.wire_overhead_p50_us",
                timing((analyze.median - dispatch.median) * 1e6),
            ),
            ("net.healthz_p99_unloaded_ms", p99(&unloaded.healthz_s) * 1e3),
            ("net.healthz_p99_ms", timing(p99(&fixed.healthz_s) * 1e3)),
            ("net.server_p99_us", snap.p99_us),
            ("net.shed", snap.shed as f64),
            ("gen.late_p99_ms", late_p99 * 1e3),
            ("analyze.p99_ms", timing(p99(&fixed.analyze_s) * 1e3)),
            ("analyze.max_rps", max_rps),
        ]);
    });
    drop((a, b));
    server.shutdown();
    out.tracer = tracer;

    if o.trace {
        let reference = run_pipeline(&corpus_inputs(&corpus), &catalog, PipelineConfig::default());
        drive_layers(
            &mut out,
            &catalog,
            corpus.iter().map(|g| g.bytes.as_slice()),
            &reference,
        );
    }
    out
}

fn dur(seconds: f64) -> Duration {
    Duration::from_secs_f64(seconds.max(0.01))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn response(status: u16, body: &str) -> Vec<u8> {
        format!(
            "HTTP/1.1 {status} X\r\ncontent-type: text/plain\r\ncontent-length: {}\r\nconnection: keep-alive\r\n\r\n{body}",
            body.len()
        )
        .into_bytes()
    }

    #[test]
    fn framer_reassembles_responses_split_anywhere() {
        let stream: Vec<u8> = [
            response(200, "ok"),
            response(422, "{\"error\":{\"kind\":\"bad-magic\"}}"),
            response(204, ""),
        ]
        .concat();
        let want = vec![
            Frame {
                status: 200,
                body: b"ok".to_vec(),
            },
            Frame {
                status: 422,
                body: b"{\"error\":{\"kind\":\"bad-magic\"}}".to_vec(),
            },
            Frame {
                status: 204,
                body: Vec::new(),
            },
        ];
        for chunk in [1usize, 2, 3, 7, 16, stream.len()] {
            let mut f = Framer::default();
            let mut got = Vec::new();
            for piece in stream.chunks(chunk) {
                f.push(piece);
                while let Some(frame) = f.next_frame().unwrap() {
                    got.push(frame);
                }
            }
            assert_eq!(got, want, "chunk size {chunk}");
        }
        let mut bad = Framer::default();
        bad.push(b"HTTP/1.1 200 OK\r\n\r\n");
        assert!(bad.next_frame().is_err(), "no content-length");
    }

    #[test]
    fn open_loop_charges_a_stall_to_every_request_it_delays() {
        let ms = 1_000_000u64;
        let mut s = OpenLoop::new(1_000.0, Duration::from_millis(10));
        assert_eq!(s.count(), 10);
        assert_eq!(s.take_due(0), Some((0, 0)));
        assert_eq!(s.take_due(ms / 2), None);
        // The generator stalls until 5.2 ms: requests 1..=5 come out at
        // once, each keeping its own due time, so its lateness (and any
        // latency measured from it) includes the stall.
        let now = 5 * ms + ms / 5;
        let mut late = Vec::new();
        while let Some((k, due)) = s.take_due(now) {
            late.push((k, now - due));
        }
        assert_eq!(
            late,
            vec![
                (1, 4 * ms + ms / 5),
                (2, 3 * ms + ms / 5),
                (3, 2 * ms + ms / 5),
                (4, ms + ms / 5),
                (5, ms / 5),
            ]
        );
        assert_eq!(s.next_due_ns(), Some(6 * ms));
        // Nothing past the phase end is scheduled.
        let rest: Vec<u64> = std::iter::from_fn(|| s.take_due(u64::MAX).map(|x| x.0)).collect();
        assert_eq!(rest, vec![6, 7, 8, 9]);
        assert_eq!(s.next_due_ns(), None);
        assert_eq!(OpenLoop::new(0.0, Duration::from_secs(1)).count(), 0);
    }

    #[test]
    fn a_phase_is_too_late_only_with_a_supported_p99_over_a_millisecond() {
        let phase = |n: usize, late_every: usize| Phase {
            late_s: (0..n)
                .map(|i| if i % late_every == 0 { 2e-3 } else { 1e-6 })
                .collect(),
            ..Phase::default()
        };
        assert!(too_late(&phase(2_000, 50)), "2% over 1 ms");
        assert!(!too_late(&phase(2_000, 200)), "0.5% over 1 ms");
        assert!(!too_late(&phase(100, 1)), "100 samples support no p99");
    }
}
