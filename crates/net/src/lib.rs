//! # wla-net — loopback HTTP and network logging
//!
//! The dynamic half of the study (§3.2.2) needs a *real* network path:
//!
//! * a **controlled web page** served from the researchers' own server;
//! * a **measurement endpoint** that the instrumented page posts
//!   intercepted Web-API calls back to;
//! * **NetLog**-style per-WebView network capture (the paper pulls Chrome's
//!   netlog from a rooted Pixel 3 rather than using a device-wide proxy).
//!
//! The north star additionally wants the *static* pipeline served as a
//! service at production traffic levels, so the crate now carries a full
//! HTTP/1.1 serving stack over `std::net` TCP:
//!
//! * [`http`] — request/response types and a hardened codec: configurable
//!   [`Limits`] (413 body / 431 header caps), strict
//!   Content-Length framing, and two proptest-pinned parsers — the
//!   blocking streaming reader and the incremental
//!   [`parse_request`](http::parse_request) the nonblocking server feeds
//!   from fragmented reads (no chunked encoding — the measurement traffic
//!   never needs it and simplicity wins per the smoltcp ethos);
//! * [`poll`] — the event-source shim: `poll(2)` readiness multiplexing
//!   declared via two lines of FFI (vendored-stub ethos, no new deps);
//! * [`server`] — the readiness-loop nonblocking server: keep-alive,
//!   pipelining, bounded per-connection buffers, connection limits with
//!   accept backpressure, 503 load shedding past a high-water mark, and an
//!   idle-timeout sweep. The seed thread-per-connection blocking server
//!   lives in `wla-oracle` (`wla_oracle::server`), built on this crate's
//!   [`server::dispatch`] and [`server::error_response`], and is pinned
//!   byte-identical by `tests/server_equivalence.rs`;
//! * [`stats`] — [`ServerStats`]: accepted/active/shed gauges, requests
//!   per connection, parse failures, p50/p99 service-time histogram;
//! * [`router`] — method+path dispatch (404/405) shared by every frontend;
//! * [`client`] — the blocking `Connection: close` [`fetch`];
//! * [`beacon`] — the measurement server: serves the controlled page,
//!   records `POST /beacon` Web-API reports;
//! * [`netlog`] — structured per-source network event capture with
//!   simulated-clock timestamps, plus its HTTP routes.
//!
//! ```
//! use std::sync::Arc;
//! use wla_net::{fetch, Request, Response, Server, Status};
//!
//! let server = Server::start(Arc::new(|req: &Request| match req.path() {
//!     "/hello" => Response::ok("text/plain", &b"world"[..]),
//!     _ => Response::error(Status::NotFound, "nope"),
//! })).unwrap();
//!
//! let resp = fetch(server.addr(), Request::get("/hello")).unwrap();
//! assert_eq!(&resp.body[..], b"world");
//! ```

#![deny(unsafe_code)]

pub mod beacon;
pub mod client;
pub mod http;
pub mod netlog;
pub mod poll;
pub mod router;
pub mod server;
pub mod stats;

pub use beacon::{beacon_routes, BeaconRecord, BeaconStore, MeasurementServer};
pub use client::{fetch, ClientError};
pub use http::{HttpError, Limits, Method, Request, Response, Status};
pub use netlog::{netlog_routes, NetLog, NetLogEvent, NetLogPhase};
pub use router::Router;
pub use server::{Handler, Server, ServerConfig};
pub use stats::{LatencyHistogram, ServerStats, ServerStatsSnapshot};
