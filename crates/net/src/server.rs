//! Nonblocking HTTP/1.1 server: a readiness loop over `std::net`.
//!
//! Architecture (DESIGN 6.8): `event_loops` threads each own a
//! `try_clone`'d nonblocking listener and a flat vector of per-connection
//! state machines, multiplexed with the `poll(2)` shim in [`crate::poll`].
//! Connections are keep-alive by default (HTTP/1.1 semantics), requests
//! may be pipelined, and both directions are bounded: the read buffer is
//! capped by the codec [`Limits`], the write buffer at 256 KiB a
//! connection — a connection whose peer stops draining responses stops
//! being read (TCP backpressure) instead of growing server memory.
//!
//! Overload policy: past [`ServerConfig::shed_high_water`] open
//! connections a new accept is answered with an immediate
//! `503 Service Unavailable` + `connection: close` (load shedding); past
//! 1,024 open connections the listener is simply not polled (accept
//! backpressure via the OS backlog). A loop waits at most 25 ms in one
//! poll, which bounds how long shutdown and the idle sweep wait. An
//! idle-timeout sweep closes keep-alive connections that go quiet so they
//! can never pin the loop — in particular not past [`Server::shutdown`],
//! which idle peers would otherwise survive.
//!
//! The seed thread-per-connection blocking server is preserved as
//! `wla_oracle::server`; `tests/server_equivalence.rs` pins the two
//! byte-identical for identical request streams. Everything
//! behavior-relevant is shared: the codec parsers ([`parse_request`] is
//! proptest-pinned against the streaming reader), [`error_response`],
//! [`dispatch`] and [`Response::write_into`].

use crate::http::{parse_request, HttpError, Limits, Method, Request, Response, Status};
use crate::poll::{self, Interest};
use crate::stats::ServerStats;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Request handler: pure function from request to response. Handlers run
/// on event-loop (or, in the blocking reference server, connection)
/// threads, so they must be `Send + Sync`.
pub type Handler = Arc<dyn Fn(&Request) -> Response + Send + Sync>;

/// Tuning knobs for the readiness-loop server.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Codec limits applied to every connection.
    pub limits: Limits,
    /// Load-shed threshold: a connection accepted while this many are
    /// already open gets an immediate 503 and a close.
    pub shed_high_water: usize,
    /// Keep-alive connections quiet for longer than this are closed by
    /// the sweep (and counted in `ServerStats::idle_closed`).
    pub idle_timeout: Duration,
    /// Number of sharded event loops, each with its own cloned listener.
    pub event_loops: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            limits: Limits::default(),
            shed_high_water: 896,
            idle_timeout: Duration::from_secs(5),
            event_loops: 2,
        }
    }
}

/// A running nonblocking HTTP server.
///
/// Dropping the server (or calling [`shutdown`](Server::shutdown)) stops
/// every event loop and closes every connection, idle keep-alive ones
/// included.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    stats: Arc<ServerStats>,
    loops: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server").field("addr", &self.addr).finish()
    }
}

impl Server {
    /// Bind to an ephemeral loopback port with default config.
    pub fn start(handler: Handler) -> std::io::Result<Server> {
        Server::start_with(handler, ServerConfig::default())
    }

    /// Bind to an ephemeral loopback port with explicit config.
    pub fn start_with(handler: Handler, config: ServerConfig) -> std::io::Result<Server> {
        Server::bind(("127.0.0.1", 0), handler, config)
    }

    /// Bind to an explicit address (the `wla serve` entry point).
    pub fn bind(
        addr: impl ToSocketAddrs,
        handler: Handler,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(ServerStats::new());
        let shards = config.event_loops.max(1);
        let mut loops = Vec::with_capacity(shards);
        for _ in 0..shards {
            let listener = listener.try_clone()?;
            let handler = Arc::clone(&handler);
            let stop = Arc::clone(&stop);
            let stats = Arc::clone(&stats);
            loops.push(std::thread::spawn(move || {
                event_loop(listener, handler, config, stats, stop)
            }));
        }
        drop(listener);
        Ok(Server {
            addr,
            stop,
            stats,
            loops,
        })
    }

    /// Address the server listens on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live server counters (shared across event loops).
    pub fn stats(&self) -> Arc<ServerStats> {
        Arc::clone(&self.stats)
    }

    /// Stop every event loop and join it. Open connections — idle
    /// keep-alive ones included — are closed, not waited out.
    pub fn shutdown(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake whichever loop wins the accept race; the rest notice the
        // flag within one `POLL_INTERVAL`.
        let _ = TcpStream::connect(self.addr);
        for h in self.loops.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Map a codec error onto the response both servers (this one and
/// `wla_oracle::server`) emit for it. EOF is not in the table: a peer
/// that closes mid-message gets a silent close.
pub fn error_response(e: &HttpError) -> Response {
    match e {
        HttpError::BodyTooLarge(_) => Response::error(Status::PayloadTooLarge, "body too large"),
        HttpError::HeadersTooLarge | HttpError::TooManyHeaders(_) => {
            Response::error(Status::HeaderFieldsTooLarge, &e.to_string())
        }
        other => Response::error(Status::BadRequest, &other.to_string()),
    }
}

/// Answer one request, shared by both servers (this one and
/// `wla_oracle::server`): the handler runs under the panic isolator, so a
/// panicking handler costs its own request a 500 — never the event loop or
/// the connection — and the flag reports the panic.
///
/// RFC 9110 §9.3.2: HEAD responses carry the GET's metadata but no body.
/// Our codec frames strictly on content-length, so the would-be entity
/// size is advertised in `x-entity-length` instead of lying in
/// content-length (documented codec deviation).
pub fn dispatch(handler: &Handler, request: &Request) -> (Response, bool) {
    let (mut response, panicked) = match wla_pool::isolate(|| handler(request)) {
        Ok(response) => (response, false),
        Err(_) => (
            Response::error(Status::InternalError, "handler panicked"),
            true,
        ),
    };
    if request.method == Method::Head {
        response
            .headers
            .push(("x-entity-length".into(), response.body.len().to_string()));
        response.body = bytes::Bytes::new();
    }
    (response, panicked)
}

/// The 503 a shed connection is answered with.
pub(crate) fn shed_response() -> Response {
    Response::error(Status::ServiceUnavailable, "server over capacity")
}

#[cfg(unix)]
fn fd_of<T: std::os::unix::io::AsRawFd>(t: &T) -> i64 {
    t.as_raw_fd() as i64
}
#[cfg(not(unix))]
fn fd_of<T>(_t: &T) -> i64 {
    0
}

/// Per-connection state machine. Lifecycle: accepted (possibly straight
/// into shedding) → read/parse/dispatch/buffer → flush → either back to
/// reading (keep-alive) or closed (`close_after_flush`, peer EOF, error,
/// idle sweep, shutdown).
struct Conn {
    stream: TcpStream,
    fd: i64,
    read_buf: Vec<u8>,
    write_buf: Vec<u8>,
    write_pos: usize,
    /// Peer half-closed its sending side (read returned 0).
    read_closed: bool,
    /// Close once the write buffer drains (explicit `connection: close`,
    /// a codec error, shedding, or peer EOF).
    close_after_flush: bool,
    /// Unrecoverable: remove on the next sweep.
    dead: bool,
    last_activity: Instant,
    /// Requests served on this connection (keep-alive accounting).
    served: u64,
}

impl Conn {
    fn new(stream: TcpStream, now: Instant) -> Conn {
        let fd = fd_of(&stream);
        Conn {
            stream,
            fd,
            read_buf: Vec::new(),
            write_buf: Vec::new(),
            write_pos: 0,
            read_closed: false,
            close_after_flush: false,
            dead: false,
            last_activity: now,
            served: 0,
        }
    }

    fn pending_write(&self) -> usize {
        self.write_buf.len() - self.write_pos
    }

    /// Upper bound on buffered request bytes: the largest stream a single
    /// in-flight request can legitimately occupy (request line + header
    /// block + declared body, each individually capped) plus slack. At the
    /// cap [`parse_request`] either completes or errors, so reading stops
    /// only transiently.
    fn read_cap(limits: &Limits) -> usize {
        2 * limits.max_header_bytes + limits.max_body_bytes + 1024
    }

    fn wants_read(&self, config: &ServerConfig) -> bool {
        !self.dead
            && !self.read_closed
            && !self.close_after_flush
            && self.pending_write() < WRITE_BUF_LIMIT
            && self.read_buf.len() < Conn::read_cap(&config.limits)
    }

    fn wants_write(&self) -> bool {
        !self.dead && self.pending_write() > 0
    }

    /// Drain the socket into `read_buf` until `WouldBlock`, EOF, or the
    /// read cap.
    fn fill(&mut self, config: &ServerConfig, now: Instant) {
        let cap = Conn::read_cap(&config.limits);
        let mut chunk = [0u8; 16 * 1024];
        while self.read_buf.len() < cap {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.read_closed = true;
                    break;
                }
                Ok(n) => {
                    self.read_buf.extend_from_slice(&chunk[..n]);
                    self.last_activity = now;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
    }

    /// Parse and dispatch every complete pipelined request currently
    /// buffered, appending responses to the write buffer.
    fn drain_requests(&mut self, handler: &Handler, config: &ServerConfig, stats: &ServerStats) {
        while !self.dead && !self.close_after_flush {
            if self.pending_write() >= WRITE_BUF_LIMIT {
                // Backpressure: stop producing responses the peer is not
                // draining; leftover buffered requests wait here.
                break;
            }
            match parse_request(&self.read_buf, &config.limits) {
                Ok(Some((request, consumed))) => {
                    self.read_buf.drain(..consumed);
                    let t0 = Instant::now();
                    let close = request.wants_close();
                    let (response, panicked) = dispatch(handler, &request);
                    if panicked {
                        stats.handler_panics.fetch_add(1, Ordering::Relaxed);
                    }
                    stats.requests.fetch_add(1, Ordering::Relaxed);
                    if self.served > 0 {
                        stats.keepalive_requests.fetch_add(1, Ordering::Relaxed);
                    }
                    self.served += 1;
                    response.write_into(&mut self.write_buf, close);
                    stats.service.record(t0.elapsed().as_nanos() as u64);
                    if close {
                        self.close_after_flush = true;
                    }
                }
                Ok(None) => {
                    if self.read_closed {
                        // Peer finished sending. A partial trailing request
                        // gets the oracle's silent-close treatment; either
                        // way, flush what is owed and close.
                        self.read_buf.clear();
                        self.close_after_flush = true;
                    }
                    break;
                }
                Err(e) => {
                    stats.parse_failures.fetch_add(1, Ordering::Relaxed);
                    error_response(&e).write_into(&mut self.write_buf, true);
                    self.read_buf.clear();
                    self.close_after_flush = true;
                    break;
                }
            }
        }
    }

    /// Write buffered response bytes until `WouldBlock` or drained.
    fn flush(&mut self, now: Instant) {
        while self.pending_write() > 0 {
            match self.stream.write(&self.write_buf[self.write_pos..]) {
                Ok(0) => {
                    self.dead = true;
                    break;
                }
                Ok(n) => {
                    self.write_pos += n;
                    self.last_activity = now;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        if self.pending_write() == 0 {
            self.write_buf.clear();
            self.write_pos = 0;
            if self.close_after_flush || (self.read_closed && self.read_buf.is_empty()) {
                self.dead = true;
            }
        }
    }
}

/// Hard cap on open connections per server; at the cap the listener stops
/// being polled and the OS backlog absorbs the burst.
const MAX_CONNECTIONS: usize = 1024;
/// Per-connection cap on buffered response bytes; past it the connection
/// is not read until the peer drains.
const WRITE_BUF_LIMIT: usize = 256 * 1024;
/// Upper bound on one poll wait: bounds shutdown and idle-sweep latency,
/// never adds request latency (poll returns on readiness).
const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// One sharded event loop: poll listener + connections, accept/shed,
/// read/parse/dispatch, flush, sweep.
fn event_loop(
    listener: TcpListener,
    handler: Handler,
    config: ServerConfig,
    stats: Arc<ServerStats>,
    stop: Arc<AtomicBool>,
) {
    let listener_fd = fd_of(&listener);
    let mut conns: Vec<Conn> = Vec::new();
    let mut sources: Vec<Interest> = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        let accepting = (stats.active.load(Ordering::Relaxed) as usize) < MAX_CONNECTIONS;
        sources.clear();
        sources.push(Interest::new(listener_fd, accepting, false));
        for c in &conns {
            sources.push(Interest::new(c.fd, c.wants_read(&config), c.wants_write()));
        }
        poll::wait(&mut sources, POLL_INTERVAL);
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let now = Instant::now();

        // Accept every pending connection (shared listener: losing an
        // accept race to a sibling loop is just WouldBlock).
        if accepting && sources[0].readable {
            loop {
                if (stats.active.load(Ordering::Relaxed) as usize) >= MAX_CONNECTIONS {
                    break;
                }
                match listener.accept() {
                    Ok((stream, _)) => {
                        let _ = stream.set_nonblocking(true);
                        let _ = stream.set_nodelay(true);
                        let mut conn = Conn::new(stream, now);
                        stats.active.fetch_add(1, Ordering::Relaxed);
                        if (stats.active.load(Ordering::Relaxed) as usize) > config.shed_high_water
                        {
                            stats.shed.fetch_add(1, Ordering::Relaxed);
                            shed_response().write_into(&mut conn.write_buf, true);
                            conn.close_after_flush = true;
                        } else {
                            stats.accepted.fetch_add(1, Ordering::Relaxed);
                        }
                        conns.push(conn);
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => break,
                }
            }
        }

        // Per-connection I/O. `sources[i + 1]` still lines up with
        // `conns[i]`: accepts only append past the polled prefix.
        for (i, conn) in conns.iter_mut().enumerate() {
            if conn.dead {
                continue;
            }
            if let Some(s) = sources.get(i + 1) {
                if s.error {
                    // Let a pending flush discover the exact error; a
                    // connection with nothing to say is just dead.
                    if !conn.wants_write() {
                        conn.dead = true;
                        continue;
                    }
                }
                if s.readable && conn.wants_read(&config) {
                    conn.fill(&config, now);
                }
            }
            // Always attempt parse + flush: progress must not wait a poll
            // round after backpressure lifts, and writes are attempted
            // optimistically (loopback sockets almost always accept a
            // response without waiting for POLLOUT).
            conn.drain_requests(&handler, &config, &stats);
            if conn.wants_write() || conn.close_after_flush || conn.read_closed {
                conn.flush(now);
            }
        }

        // Sweep: reap dead connections, close idle ones.
        conns.retain(|c| {
            if c.dead {
                stats.active.fetch_sub(1, Ordering::Relaxed);
                return false;
            }
            if now.duration_since(c.last_activity) > config.idle_timeout {
                stats.idle_closed.fetch_add(1, Ordering::Relaxed);
                stats.active.fetch_sub(1, Ordering::Relaxed);
                return false;
            }
            true
        });
    }
    // Shutdown: dropping `conns` closes every socket, idle keep-alive
    // connections included — nothing pins the loop past stop().
    for c in conns.drain(..) {
        stats.active.fetch_sub(1, Ordering::Relaxed);
        drop(c);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::fetch;
    use crate::http::header;
    use std::io::{BufReader, Read, Write};

    fn echo_handler() -> Handler {
        Arc::new(|req: &Request| match (req.method, req.path()) {
            (Method::Get, "/hello") => Response::ok("text/plain", &b"world"[..]),
            (Method::Post, "/echo") => Response::ok("application/octet-stream", req.body.clone()),
            (Method::Head, _) => Response::ok("text/plain", &b"head-body"[..]),
            _ => Response::error(Status::NotFound, "nope"),
        })
    }

    fn echo_server() -> Server {
        Server::start(echo_handler()).expect("bind")
    }

    #[test]
    fn get_and_post_roundtrip() {
        let server = echo_server();
        let resp = fetch(server.addr(), Request::get("/hello")).unwrap();
        assert_eq!(resp.status, Status::Ok);
        assert_eq!(&resp.body[..], b"world");
        let resp = fetch(server.addr(), Request::post("/echo", &b"payload"[..])).unwrap();
        assert_eq!(&resp.body[..], b"payload");
    }

    #[test]
    fn unknown_route_is_404() {
        let server = echo_server();
        let resp = fetch(server.addr(), Request::get("/missing")).unwrap();
        assert_eq!(resp.status, Status::NotFound);
    }

    #[test]
    fn concurrent_requests() {
        let server = echo_server();
        let addr = server.addr();
        let handles: Vec<_> = (0..16)
            .map(|i| {
                std::thread::spawn(move || {
                    let body = format!("req-{i}");
                    let resp = fetch(addr, Request::post("/echo", body.clone().into_bytes()))
                        .expect("fetch");
                    assert_eq!(&resp.body[..], body.as_bytes());
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn keep_alive_serves_sequential_requests_on_one_connection() {
        let server = echo_server();
        let stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut out = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        for i in 0..5 {
            let body = format!("ka-{i}");
            let mut raw = Vec::new();
            Request::post("/echo", body.clone().into_bytes())
                .write_into(&mut raw, false)
                .unwrap();
            out.write_all(&raw).unwrap();
            let resp = Response::read_from(&mut reader).unwrap();
            assert_eq!(resp.status, Status::Ok);
            assert_eq!(&resp.body[..], body.as_bytes());
            assert_eq!(header(&resp.headers, "connection"), Some("keep-alive"));
        }
        let snap = server.stats().snapshot();
        assert_eq!(snap.accepted, 1);
        assert_eq!(snap.requests, 5);
        assert_eq!(snap.keepalive_requests, 4);
        assert!(snap.requests_per_connection > 4.9);
    }

    #[test]
    fn pipelined_requests_answered_in_order() {
        let server = echo_server();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut raw = Vec::new();
        for i in 0..3 {
            Request::post("/echo", format!("p-{i}").into_bytes())
                .write_into(&mut raw, i == 2)
                .unwrap();
        }
        stream.write_all(&raw).unwrap();
        let mut reader = BufReader::new(stream);
        for i in 0..3 {
            let resp = Response::read_from(&mut reader).unwrap();
            assert_eq!(&resp.body[..], format!("p-{i}").as_bytes(), "response {i}");
        }
    }

    #[test]
    fn fragmented_writes_parse_identically() {
        let server = echo_server();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut raw = Vec::new();
        Request::post("/echo", &b"fragmented body"[..])
            .write_into(&mut raw, true)
            .unwrap();
        // Trickle the request a few bytes at a time across many writes.
        for chunk in raw.chunks(3) {
            stream.write_all(chunk).unwrap();
            stream.flush().unwrap();
        }
        let resp = Response::read_from(&mut BufReader::new(stream)).unwrap();
        assert_eq!(&resp.body[..], b"fragmented body");
    }

    #[test]
    fn head_gets_headers_without_body() {
        let server = echo_server();
        let mut req = Request::get("/hello");
        req.method = Method::Head;
        let resp = fetch(server.addr(), req).unwrap();
        assert_eq!(resp.status, Status::Ok);
        assert!(resp.body.is_empty());
        assert_eq!(header(&resp.headers, "x-entity-length"), Some("9"));
    }

    #[test]
    fn malformed_request_gets_400() {
        let server = echo_server();
        let buf = raw_exchange(server.addr(), b"NOT-HTTP\r\n\r\n");
        assert!(buf.starts_with("HTTP/1.1 400"), "{buf}");
        assert_eq!(server.stats().snapshot().parse_failures, 1);
    }

    /// Write raw bytes, read whatever comes back until EOF.
    fn raw_exchange(addr: SocketAddr, payload: &[u8]) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream.write_all(payload).unwrap();
        let mut buf = String::new();
        let _ = stream.read_to_string(&mut buf);
        buf
    }

    #[test]
    fn bad_content_length_gets_400_not_a_hang() {
        let server = echo_server();
        for bad in [
            "abc",
            "-5",
            "+5",
            "18446744073709551616",
            "5\r\ncontent-length: 7",
        ] {
            let raw = format!("POST /echo HTTP/1.1\r\ncontent-length: {bad}\r\n\r\nxyz");
            let buf = raw_exchange(server.addr(), raw.as_bytes());
            assert!(buf.starts_with("HTTP/1.1 400"), "value {bad:?}: {buf}");
        }
    }

    #[test]
    fn oversized_content_length_gets_413() {
        let server = echo_server();
        let raw = format!(
            "POST /echo HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
            crate::http::MAX_BODY_BYTES + 1
        );
        let buf = raw_exchange(server.addr(), raw.as_bytes());
        assert!(buf.starts_with("HTTP/1.1 413"), "{buf}");
    }

    #[test]
    fn header_bomb_gets_431() {
        let server = echo_server();
        let mut raw = String::from("GET /hello HTTP/1.1\r\n");
        for i in 0..200 {
            raw.push_str(&format!("x-filler-{i}: v\r\n"));
        }
        raw.push_str("\r\n");
        let buf = raw_exchange(server.addr(), raw.as_bytes());
        assert!(buf.starts_with("HTTP/1.1 431"), "{buf}");
    }

    #[test]
    fn sheds_with_503_past_high_water() {
        let mut config = ServerConfig {
            shed_high_water: 1,
            ..ServerConfig::default()
        };
        config.event_loops = 1;
        let server = Server::start_with(echo_handler(), config).expect("bind");
        // Occupy the one below-water slot with a served keep-alive conn.
        let stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut out = stream.try_clone().unwrap();
        let mut raw = Vec::new();
        Request::get("/hello").write_into(&mut raw, false).unwrap();
        out.write_all(&raw).unwrap();
        let resp = Response::read_from(&mut BufReader::new(stream)).unwrap();
        assert_eq!(resp.status, Status::Ok);
        // The next connection lands above the mark and is shed.
        let buf = raw_exchange(server.addr(), b"GET /hello HTTP/1.1\r\n\r\n");
        assert!(buf.starts_with("HTTP/1.1 503"), "{buf}");
        assert!(buf.contains("connection: close"), "{buf}");
        let snap = server.stats().snapshot();
        assert_eq!(snap.shed, 1);
        assert_eq!(snap.accepted, 1);
    }

    #[test]
    fn idle_keep_alive_connection_is_swept() {
        let config = ServerConfig {
            idle_timeout: Duration::from_millis(50),
            ..ServerConfig::default()
        };
        let server = Server::start_with(echo_handler(), config).expect("bind");
        let stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut out = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut raw = Vec::new();
        Request::get("/hello").write_into(&mut raw, false).unwrap();
        out.write_all(&raw).unwrap();
        let resp = Response::read_from(&mut reader).unwrap();
        assert_eq!(resp.status, Status::Ok);
        // Go quiet; the sweep must close us from the server side.
        let mut rest = Vec::new();
        let mut one = [0u8; 64];
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match reader.read(&mut one) {
                Ok(0) => break, // server closed: swept
                Ok(n) => rest.extend_from_slice(&one[..n]),
                Err(_) => assert!(Instant::now() < deadline, "idle sweep never fired"),
            }
        }
        assert!(rest.is_empty(), "unexpected extra bytes: {rest:?}");
        assert_eq!(server.stats().snapshot().idle_closed, 1);
    }

    #[test]
    fn shutdown_closes_idle_keep_alive_connections_promptly() {
        // Satellite regression: a persistent idle connection must not pin
        // shutdown. Seed behavior would have a worker thread stuck in a
        // blocking read until its timeout.
        let mut server = echo_server();
        let stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut out = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut raw = Vec::new();
        Request::get("/hello").write_into(&mut raw, false).unwrap();
        out.write_all(&raw).unwrap();
        let _ = Response::read_from(&mut reader).unwrap();
        // Connection now idles in keep-alive. Shutdown must return fast.
        let t0 = Instant::now();
        server.shutdown();
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "shutdown pinned by idle keep-alive connection: {:?}",
            t0.elapsed()
        );
        // And the client sees the close.
        let mut one = [0u8; 16];
        assert_eq!(reader.read(&mut one).unwrap_or(0), 0);
    }

    #[test]
    fn shutdown_is_idempotent_and_unbinds() {
        let mut server = echo_server();
        let addr = server.addr();
        server.shutdown();
        server.shutdown();
        let result = fetch(addr, Request::get("/hello"));
        assert!(result.is_err());
    }

    #[test]
    fn shutdown_races_with_connects() {
        for _ in 0..8 {
            let mut server = echo_server();
            let addr = server.addr();
            let stop = Arc::new(AtomicBool::new(false));
            let clients: Vec<_> = (0..4)
                .map(|_| {
                    let stop = Arc::clone(&stop);
                    std::thread::spawn(move || {
                        while !stop.load(Ordering::SeqCst) {
                            let _ = fetch(addr, Request::get("/hello"));
                        }
                    })
                })
                .collect();
            std::thread::sleep(Duration::from_millis(2));
            server.shutdown();
            stop.store(true, Ordering::SeqCst);
            for c in clients {
                c.join().unwrap();
            }
        }
    }

    #[test]
    fn half_close_still_answers_buffered_pipeline() {
        // Client writes two pipelined requests then shuts down its write
        // side; both responses must still arrive before the close.
        let server = echo_server();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut raw = Vec::new();
        Request::post("/echo", &b"one"[..])
            .write_into(&mut raw, false)
            .unwrap();
        Request::post("/echo", &b"two"[..])
            .write_into(&mut raw, false)
            .unwrap();
        stream.write_all(&raw).unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let mut reader = BufReader::new(stream);
        let first = Response::read_from(&mut reader).unwrap();
        let second = Response::read_from(&mut reader).unwrap();
        assert_eq!(&first.body[..], b"one");
        assert_eq!(&second.body[..], b"two");
        let mut one = [0u8; 16];
        assert_eq!(reader.read(&mut one).unwrap_or(0), 0, "then closed");
    }
}
