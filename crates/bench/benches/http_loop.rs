//! HTTP serving-stack saturation: the readiness-loop nonblocking server
//! vs the seed thread-per-connection oracle under concurrent load.
//!
//! Every saturation bench drives the same trivial router from `CLIENTS`
//! client threads so the measured cost is the serving stack, not the
//! handler. The grid is the framing strategies the tentpole cares about:
//!
//! * `oracle_close_64`   — seed baseline: one thread + one connection per
//!   request (`Connection: close`), accept → spawn → serve → join;
//! * `nb_close_64`       — nonblocking server, same one-connection-per-
//!   request client pattern (isolates the event loop from keep-alive);
//! * `nb_keepalive_64`   — nonblocking server, one persistent connection
//!   per client, serial request/response exchanges;
//! * `nb_pipelined_64`   — nonblocking server, persistent connections,
//!   requests written back-to-back in pipelined bursts.
//!
//! The legacy measurement-path benches (`beacon_roundtrip`, `page_fetch`)
//! stay for continuity with earlier snapshots. Server-side p50/p99
//! service times for each saturation bench are printed to stderr after
//! the group runs (they ride the `ServerStats` histogram, not criterion).

use criterion::{criterion_group, criterion_main, Criterion};
use std::sync::Arc;
use wla_core::wla_net::beacon::encode_beacon;
use wla_core::wla_net::{
    fetch, Handler, MeasurementServer, Request, Response, Server, ServerConfig,
};
use wla_core::wla_web::testpage::test_page_html;
use wla_oracle::client::ClientConn;
use wla_oracle::server as oracle;

/// Concurrent client threads for the saturation grid.
const CLIENTS: usize = 64;

/// Requests issued per client per iteration. Quick mode keeps the whole
/// group inside the CI budget; full mode saturates long enough for the
/// histogram tails to mean something.
fn requests_per_client() -> usize {
    if std::env::var_os("WLA_BENCH_QUICK").is_some_and(|v| v != "0" && !v.is_empty()) {
        8
    } else {
        32
    }
}

/// The handler every saturation bench serves: a fixed small body, so the
/// measurement is framing + scheduling, not handler work.
fn ping_handler() -> Handler {
    Arc::new(|_req: &Request| Response::ok("text/plain", &b"pong"[..]))
}

/// Run `CLIENTS` threads, each issuing `per_client` requests via `client`.
fn saturate(
    addr: std::net::SocketAddr,
    per_client: usize,
    client: fn(std::net::SocketAddr, usize),
) {
    let handles: Vec<_> = (0..CLIENTS)
        .map(|_| std::thread::spawn(move || client(addr, per_client)))
        .collect();
    for h in handles {
        h.join().unwrap();
    }
}

/// One fresh `Connection: close` round trip per request (the seed client).
fn close_client(addr: std::net::SocketAddr, n: usize) {
    for _ in 0..n {
        let resp = fetch(addr, Request::get("/ping")).unwrap();
        assert_eq!(&resp.body[..], b"pong");
    }
}

/// One persistent connection, serial keep-alive exchanges.
fn keepalive_client(addr: std::net::SocketAddr, n: usize) {
    let mut conn = ClientConn::connect(addr).unwrap();
    for _ in 0..n {
        let resp = conn.send(&Request::get("/ping")).unwrap();
        assert_eq!(&resp.body[..], b"pong");
    }
}

/// One persistent connection, all requests written as one pipelined burst.
fn pipelined_client(addr: std::net::SocketAddr, n: usize) {
    let mut conn = ClientConn::connect(addr).unwrap();
    let burst: Vec<Request> = (0..n).map(|_| Request::get("/ping")).collect();
    let responses = conn.send_pipelined(&burst).unwrap();
    assert_eq!(responses.len(), n);
    for resp in &responses {
        assert_eq!(&resp.body[..], b"pong");
    }
}

fn bench(c: &mut Criterion) {
    let per_client = requests_per_client();

    let measurement = MeasurementServer::start(test_page_html()).unwrap();
    let measurement_addr = measurement.addr();

    let mut group = c.benchmark_group("http_loop");
    group.sample_size(30);

    // Legacy measurement-path round trips (single client, close framing).
    group.bench_function("beacon_roundtrip", |b| {
        b.iter(|| {
            let body = encode_beacon("Document", "getElementById", Some("x"), "bench");
            fetch(
                measurement_addr,
                Request::post("/beacon", body.into_bytes()),
            )
            .unwrap()
        })
    });
    group.bench_function("page_fetch", |b| {
        b.iter(|| fetch(measurement_addr, Request::get("/page")).unwrap())
    });

    group.sample_size(10);

    // Seed baseline: thread-per-connection oracle, close framing.
    let mut oracle_server = oracle::Server::start(ping_handler()).unwrap();
    let oracle_addr = oracle_server.addr();
    group.bench_function("oracle_close_64", |b| {
        b.iter(|| saturate(oracle_addr, per_client, close_client))
    });

    // The nonblocking server serves the remaining three shapes. One event
    // loop per available core: extra shards only add context switching.
    let shards = std::thread::available_parallelism().map_or(1, |n| n.get());
    let nb_server = Server::start_with(
        ping_handler(),
        ServerConfig {
            event_loops: shards,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let nb_addr = nb_server.addr();
    group.bench_function("nb_close_64", |b| {
        b.iter(|| saturate(nb_addr, per_client, close_client))
    });
    group.bench_function("nb_keepalive_64", |b| {
        b.iter(|| saturate(nb_addr, per_client, keepalive_client))
    });
    group.bench_function("nb_pipelined_64", |b| {
        b.iter(|| saturate(nb_addr, per_client, pipelined_client))
    });
    group.finish();

    let snap = nb_server.stats().snapshot();
    eprintln!(
        "nonblocking server: {} conns, {} requests ({} keep-alive), \
         service p50 {:.1} us, p99 {:.1} us",
        snap.accepted, snap.requests, snap.keepalive_requests, snap.p50_us, snap.p99_us
    );

    oracle_server.shutdown();
    drop(measurement);
}

criterion_group!(benches, bench);
criterion_main!(benches);
