//! Thread-per-connection blocking HTTP server — the seed implementation,
//! preserved as the behavioral oracle for the readiness-loop server.
//!
//! Two modes: [`Server::start`] keeps the seed's one-request-per-connection
//! shape (every response is framed `connection: close`) and is the bench
//! baseline the nonblocking server is measured against;
//! [`Server::start_persistent`] runs the same blocking read path in a
//! keep-alive loop, which — because both servers share the codec,
//! [`error_response`], [`dispatch`] and `Response::write_into` — makes its
//! byte stream the reference the equivalence suite pins the nonblocking
//! server against, pipelining included (the `BufReader` naturally carries
//! buffered follow-on requests between iterations).

use parking_lot::Mutex;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;
use wla_net::server::{dispatch, error_response};
use wla_net::{Handler, HttpError, Limits, Request};

/// A running blocking HTTP server bound to a loopback port.
///
/// Dropping the server (or calling [`shutdown`](Server::shutdown)) stops
/// the accept loop and joins every worker.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    workers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("oracle::Server")
            .field("addr", &self.addr)
            .finish()
    }
}

/// Per-connection read timeout. Generous for loopback; prevents a stuck
/// client from pinning a thread forever (the blocking analogue of the
/// nonblocking server's idle sweep).
const READ_TIMEOUT: Duration = Duration::from_secs(5);

impl Server {
    /// Bind to an ephemeral loopback port and serve one request per
    /// connection (the seed shape).
    pub fn start(handler: Handler) -> std::io::Result<Server> {
        Server::start_with(handler, Limits::default(), false)
    }

    /// Bind and serve keep-alive connections: requests are read in a loop
    /// until the client asks for `connection: close`, errors, or goes
    /// quiet past the read timeout.
    pub fn start_persistent(handler: Handler) -> std::io::Result<Server> {
        Server::start_with(handler, Limits::default(), true)
    }

    /// Bind with explicit codec limits and connection persistence.
    pub fn start_with(
        handler: Handler,
        limits: Limits,
        persistent: bool,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let workers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

        let accept_stop = Arc::clone(&stop);
        let accept_workers = Arc::clone(&workers);
        let accept_thread = std::thread::spawn(move || {
            for conn in listener.incoming() {
                let stream = match conn {
                    Ok(stream) => stream,
                    Err(_) => continue,
                };
                // The stop check must sit between accept and spawn: this
                // stream may be shutdown's wake-up connection, or a client
                // that raced the stop-flag store. Spawning a worker for it
                // here would hand `shutdown` a handle it could miss when it
                // drains the vector, leaking an unjoined thread. The check
                // happens-before the push, and `shutdown` only drains after
                // this thread has been joined, so every pushed handle is
                // visible to the drain.
                if accept_stop.load(Ordering::SeqCst) {
                    break;
                }
                let handler = Arc::clone(&handler);
                let handle = std::thread::spawn(move || {
                    serve_connection(stream, handler, limits, persistent)
                });
                let mut guard = accept_workers.lock();
                // Opportunistically reap finished workers so the
                // vector doesn't grow with connection count.
                guard.retain(|h| !h.is_finished());
                guard.push(handle);
            }
        });

        Ok(Server {
            addr,
            stop,
            accept_thread: Some(accept_thread),
            workers,
        })
    }

    /// Address the server listens on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, then join every thread.
    pub fn shutdown(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the accept loop with a no-op connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
        // Drain only after the accept thread has joined — no new handles
        // can be pushed past this point. Loop until the vector stays
        // empty so a handle pushed concurrently with an earlier take is
        // still joined rather than leaked.
        loop {
            let handles: Vec<JoinHandle<()>> = std::mem::take(&mut *self.workers.lock());
            if handles.is_empty() {
                break;
            }
            for h in handles {
                let _ = h.join();
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn serve_connection(stream: TcpStream, handler: Handler, limits: Limits, persistent: bool) {
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let _ = stream.set_nodelay(true);
    let Ok(mut out) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);
    loop {
        let (response, close) = match Request::read_from_limited(&mut reader, &limits) {
            Ok(request) => {
                let close = !persistent || request.wants_close();
                (dispatch(&handler, &request).0, close)
            }
            Err(HttpError::UnexpectedEof) => return, // probe/shutdown connection
            Err(e) => (error_response(&e), true),
        };
        let mut buf = Vec::new();
        response.write_into(&mut buf, close);
        if out.write_all(&buf).is_err() || out.flush().is_err() {
            return;
        }
        if close {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use wla_net::http::header;
    use wla_net::{fetch, Method, Response, Status};

    fn echo_server() -> Server {
        Server::start(Arc::new(|req: &Request| match (req.method, req.path()) {
            (Method::Get, "/hello") => Response::ok("text/plain", &b"world"[..]),
            (Method::Post, "/echo") => Response::ok("application/octet-stream", req.body.clone()),
            _ => Response::error(Status::NotFound, "nope"),
        }))
        .expect("bind")
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
    fn shutdown_is_idempotent_and_unbinds() {
        let mut server = echo_server();
        let addr = server.addr();
        server.shutdown();
        server.shutdown();
        // After shutdown the port stops answering HTTP.
        let result = fetch(addr, Request::get("/hello"));
        assert!(result.is_err());
    }

    #[test]
    fn malformed_request_gets_400() {
        let server = echo_server();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.write_all(b"NOT-HTTP\r\n\r\n").unwrap();
        let mut buf = String::new();
        let _ = stream.read_to_string(&mut buf);
        assert!(buf.starts_with("HTTP/1.1 400"), "{buf}");
    }

    /// Write raw bytes, read whatever comes back as a status line.
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
        // Unparseable, negative, and usize-overflowing declared lengths
        // must each produce an immediate 400 — the old codec treated them
        // as 0 and left the connection waiting on a body that never comes.
        for bad in ["abc", "-5", "18446744073709551616"] {
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
            wla_net::http::MAX_BODY_BYTES + 1
        );
        let buf = raw_exchange(server.addr(), raw.as_bytes());
        assert!(buf.starts_with("HTTP/1.1 413"), "{buf}");
    }

    #[test]
    fn shutdown_races_with_connects() {
        // Hammer the listener while shutdown runs. Connections that race
        // the stop flag must either be served or dropped — never spawn a
        // worker the drain misses — and shutdown must not hang on them.
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
    fn head_gets_headers_without_body() {
        let server = Server::start(Arc::new(|_req: &Request| {
            Response::ok("text/html", &b"<html>full body</html>"[..])
        }))
        .expect("bind");
        let mut req = Request::get("/page");
        req.method = Method::Head;
        let resp = fetch(server.addr(), req).unwrap();
        assert_eq!(resp.status, Status::Ok);
        assert!(resp.body.is_empty());
        // The would-be entity length is advertised.
        assert_eq!(header(&resp.headers, "x-entity-length"), Some("22"));
    }

    #[test]
    fn persistent_mode_serves_keep_alive_and_pipelined_requests() {
        let server = Server::start_persistent(Arc::new(|req: &Request| {
            Response::ok("application/octet-stream", req.body.clone())
        }))
        .expect("bind");
        let stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut out = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        // Sequential keep-alive exchanges...
        for i in 0..3 {
            let body = format!("seq-{i}");
            let mut raw = Vec::new();
            Request::post("/echo", body.clone().into_bytes())
                .write_into(&mut raw, false)
                .unwrap();
            out.write_all(&raw).unwrap();
            let resp = Response::read_from(&mut reader).unwrap();
            assert_eq!(&resp.body[..], body.as_bytes());
            assert_eq!(header(&resp.headers, "connection"), Some("keep-alive"));
        }
        // ...then a pipelined burst ending in connection: close.
        let mut raw = Vec::new();
        for i in 0..3 {
            Request::post("/echo", format!("pipe-{i}").into_bytes())
                .write_into(&mut raw, i == 2)
                .unwrap();
        }
        out.write_all(&raw).unwrap();
        for i in 0..3 {
            let resp = Response::read_from(&mut reader).unwrap();
            assert_eq!(&resp.body[..], format!("pipe-{i}").as_bytes());
        }
        let mut one = [0u8; 8];
        assert_eq!(reader.read(&mut one).unwrap_or(0), 0, "closed after burst");
    }
}
