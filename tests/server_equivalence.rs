//! The readiness-loop server is pinned byte-identical to the blocking
//! thread-per-connection oracle (`wla_oracle::server`).
//!
//! Both servers share one response serialization (`Response::write_into`)
//! and one error classification (`server::error_response`), so for any
//! request byte stream the per-connection response byte stream must match
//! exactly — across the beacon, netlog, and `/analyze` routes, for serial
//! keep-alive exchanges, pipelined bursts, fragmented (trickled) writes,
//! and malformed requests. Each server gets its own freshly-built router
//! (own `BeaconStore`/`NetLog`) so stateful routes see identical update
//! sequences.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;
use wla_core::service_router;
use wla_corpus::generator::{CorpusConfig, Generator};
use wla_net::beacon::encode_beacon;
use wla_net::{Handler, Method, Request, Server, ServerConfig};
use wla_oracle::server as oracle;
use wla_sdk_index::SdkIndex;

/// A fresh service router over the paper catalog, plus a `/panic` route
/// whose handler always panics. Every call builds its own beacon store and
/// netlog so the two servers under comparison track state independently
/// from identical inputs.
fn make_handler() -> Handler {
    let catalog = Arc::new(SdkIndex::paper());
    let page = Arc::new("<html><body>controlled page</body></html>".to_owned());
    service_router(
        catalog,
        page,
        wla_net::BeaconStore::default(),
        wla_net::NetLog::new(),
    )
    .route(Method::Get, "/panic", |_| panic!("injected handler fault"))
    .into_handler()
}

/// Write `raw` to the server in `chunk`-byte fragments (1 ms apart when
/// fragmenting), half-close, and read the complete response stream.
fn exchange(addr: SocketAddr, raw: &[u8], chunk: usize) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).ok();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let fragmented = chunk < raw.len();
    for part in raw.chunks(chunk.max(1)) {
        stream.write_all(part).unwrap();
        if fragmented {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    stream.shutdown(Shutdown::Write).unwrap();
    let mut out = Vec::new();
    stream.read_to_end(&mut out).unwrap();
    out
}

/// Assert both servers answer `raw` with byte-identical streams, whole
/// and trickled; returns the stream for content sanity checks.
fn assert_equivalent(raw: &[u8]) -> Vec<u8> {
    let mut oracle_server = oracle::Server::start_persistent(make_handler()).unwrap();
    let nb_server = Server::start(make_handler()).unwrap();

    let from_oracle = exchange(oracle_server.addr(), raw, raw.len());
    let from_nb = exchange(nb_server.addr(), raw, raw.len());
    assert_eq!(
        from_oracle,
        from_nb,
        "whole-write streams diverged:\n--- oracle ---\n{}\n--- nonblocking ---\n{}",
        String::from_utf8_lossy(&from_oracle),
        String::from_utf8_lossy(&from_nb)
    );

    // The same bytes trickled in small fragments must parse — and answer —
    // identically on both sides.
    let trickled_oracle = exchange(oracle_server.addr(), raw, 7);
    let trickled_nb = exchange(nb_server.addr(), raw, 7);
    assert_eq!(trickled_oracle, from_oracle, "oracle is fragment-sensitive");
    assert_eq!(trickled_nb, from_nb, "nonblocking is fragment-sensitive");

    oracle_server.shutdown();
    from_oracle
}

/// Keep-alive framing for every request but the last, which closes.
fn stream_of(requests: &[Request]) -> Vec<u8> {
    let mut raw = Vec::new();
    for (i, request) in requests.iter().enumerate() {
        request
            .write_into(&mut raw, i + 1 == requests.len())
            .unwrap();
    }
    raw
}

#[test]
fn beacon_and_page_streams_match() {
    let beacon = encode_beacon("Document", "write", None, "com.equiv.app");
    let stream = stream_of(&[
        Request::get("/page"),
        Request::post("/beacon", beacon.into_bytes()),
        Request::get("/page"),
    ]);
    let bytes = assert_equivalent(&stream);
    let text = String::from_utf8_lossy(&bytes);
    assert_eq!(text.matches("HTTP/1.1").count(), 3, "{text}");
    assert!(text.contains("controlled page"), "{text}");
    assert!(text.contains("204 No Content"), "{text}");
}

#[test]
fn netlog_streams_match() {
    let stream = stream_of(&[
        Request::post(
            "/netlog",
            &b"source=3&url=https%3A%2F%2Fads.example%2Fpx&phase=sent"[..],
        ),
        Request::post(
            "/netlog",
            &b"source=3&url=https%3A%2F%2Fcdn.example%2Fa.js"[..],
        ),
        Request::get("/netlog/hosts?source=3"),
    ]);
    let bytes = assert_equivalent(&stream);
    let text = String::from_utf8_lossy(&bytes);
    assert!(text.contains("ads.example"), "{text}");
    assert!(text.contains("cdn.example"), "{text}");
}

#[test]
fn analyze_streams_match() {
    // One decodable app and one corrupted container, pipelined: the 200
    // JSON document and the 422 taxonomy body must both be identical.
    let catalog = SdkIndex::paper();
    let config = CorpusConfig {
        scale: 2_000,
        seed: 7,
        corrupt_fraction: 0.0,
        ..CorpusConfig::default()
    };
    let app = Generator::new(&catalog, config)
        .generate()
        .into_iter()
        .find(|a| wla_oracle::analyze::analyze_app(&a.spec.meta, &a.bytes).is_ok())
        .expect("corpus contains a decodable app");
    let stream = stream_of(&[
        Request::post("/analyze?package=com.equiv.app", app.bytes),
        Request::post("/analyze", &b"definitely not an sdex container"[..]),
    ]);
    let bytes = assert_equivalent(&stream);
    let text = String::from_utf8_lossy(&bytes);
    assert!(text.contains("200 OK"), "{text}");
    assert!(text.contains("\"uses_webview\":"), "{text}");
    assert!(text.contains("422 Unprocessable Entity"), "{text}");
    assert!(text.contains("\"kind\":\"bad-magic\""), "{text}");
}

#[test]
fn mixed_route_pipelined_burst_matches() {
    let beacon = encode_beacon("Navigator", "userAgent", None, "com.equiv.app");
    let stream = stream_of(&[
        Request::get("/healthz"),
        Request::post("/beacon", beacon.into_bytes()),
        Request::post(
            "/netlog",
            &b"source=1&url=https%3A%2F%2Ftracker.example%2Ft"[..],
        ),
        Request::get("/netlog/hosts?source=1"),
        Request::get("/nope"),
        Request::get("/healthz"),
    ]);
    let bytes = assert_equivalent(&stream);
    let text = String::from_utf8_lossy(&bytes);
    assert_eq!(text.matches("HTTP/1.1").count(), 6, "{text}");
    assert!(text.contains("404 Not Found"), "{text}");
    assert!(text.contains("tracker.example"), "{text}");
}

#[test]
fn malformed_and_method_errors_match() {
    // A bad request line closes the connection identically on both sides.
    let bytes = assert_equivalent(b"BOGUS /x HTTP/1.1\r\n\r\n");
    let text = String::from_utf8_lossy(&bytes);
    assert!(text.contains("400 Bad Request"), "{text}");
    assert!(text.contains("connection: close"), "{text}");

    // Wrong method on a known route answers 405 through the router on
    // both servers (no close: the connection itself is healthy).
    let stream = stream_of(&[Request::get("/analyze"), Request::get("/healthz")]);
    let bytes = assert_equivalent(&stream);
    let text = String::from_utf8_lossy(&bytes);
    assert!(text.contains("405 Method Not Allowed"), "{text}");
    assert!(text.contains("allow: POST"), "{text}");
}

#[test]
fn half_open_request_closes_silently_on_both() {
    // EOF mid-request: no response bytes at all, from either server.
    let bytes = assert_equivalent(b"GET /healthz HTTP/1.1\r\ncontent-le");
    assert!(bytes.is_empty(), "{}", String::from_utf8_lossy(&bytes));
}

#[test]
fn oversized_body_matches_with_small_limits() {
    let limits = wla_net::Limits {
        max_body_bytes: 64,
        ..wla_net::Limits::default()
    };
    let mut oracle_server = oracle::Server::start_with(make_handler(), limits, true).unwrap();
    let nb_server = Server::start_with(
        make_handler(),
        ServerConfig {
            limits,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let raw = stream_of(&[Request::post("/analyze", vec![0u8; 65])]);
    let from_oracle = exchange(oracle_server.addr(), &raw, raw.len());
    let from_nb = exchange(nb_server.addr(), &raw, raw.len());
    assert_eq!(from_oracle, from_nb);
    let text = String::from_utf8_lossy(&from_nb);
    assert!(text.contains("413 Payload Too Large"), "{text}");
    oracle_server.shutdown();
}

/// Silence the default panic hook for the injected handler panics so the
/// expected backtraces don't pollute test output; any other panic still
/// reports. Process-global, so installed once.
fn quiet_injected_panics() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<&str>()
                .is_some_and(|s| s.contains("injected"));
            if !injected {
                previous(info);
            }
        }));
    });
}

#[test]
fn panicking_handler_answers_500_and_the_connection_carries_on() {
    quiet_injected_panics();
    // The first pipelined request's handler panics: both servers answer it
    // with the same 500 and still serve the request queued behind it.
    let stream = stream_of(&[Request::get("/panic"), Request::get("/healthz")]);
    let bytes = assert_equivalent(&stream);
    let text = String::from_utf8_lossy(&bytes);
    assert_eq!(text.matches("HTTP/1.1").count(), 2, "{text}");
    assert!(
        text.starts_with("HTTP/1.1 500 Internal Server Error"),
        "{text}"
    );
    assert!(text.ends_with("ok"), "{text}");

    // The nonblocking server counts the panic; its event loop survived it.
    let server = Server::start(make_handler()).unwrap();
    exchange(server.addr(), &stream, stream.len());
    assert_eq!(server.stats().snapshot().handler_panics, 1);
}
