//! NetLog — Chrome-style structured network event capture.
//!
//! The paper records "network logs directly from Chrome's network stack" on
//! a rooted device, attributing each request to a specific WebView instance
//! (more precise than a device-wide proxy). [`NetLog`] plays that role for
//! the simulated device: every URL request a WebView (or CT/browser) makes
//! is logged with a source id, phase, and simulated-clock timestamp.
//!
//! URLs are stored as `Arc<str>`. Every page a WebView or Custom Tab loads
//! carries its fetch list resolved once into shared strings, and every IAB
//! endpoint rule holds its contact URL once, so recording a page's arrival
//! or a rule's contact bumps a reference count per event instead of
//! allocating a string ([`NetLog::record_shared`],
//! [`NetLog::record_request_pairs`]). The crawl visits each site's page
//! through eleven WebViews, so its URLs are shared across all of them.

use parking_lot::Mutex;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Request lifecycle phases (a compact subset of Chrome's).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetLogPhase {
    /// URL request issued.
    RequestSent,
    /// Response headers received.
    ResponseReceived,
    /// Request failed.
    Failed,
}

/// One captured event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetLogEvent {
    /// Identifier of the requesting WebView / tab instance.
    pub source_id: u32,
    /// Requested URL (shared, so replayed prepared URLs don't reallocate).
    pub url: Arc<str>,
    /// Phase.
    pub phase: NetLogPhase,
    /// Simulated milliseconds since capture start.
    pub timestamp_ms: u64,
}

/// Thread-safe event log with a monotonically advancing simulated clock.
#[derive(Debug, Default, Clone)]
pub struct NetLog {
    inner: Arc<Mutex<Inner>>,
}

#[derive(Debug, Default)]
struct Inner {
    events: Vec<NetLogEvent>,
    clock_ms: u64,
}

impl NetLog {
    /// Fresh empty log.
    pub fn new() -> NetLog {
        NetLog::default()
    }

    /// Advance the simulated clock.
    pub fn advance_clock(&self, ms: u64) {
        self.inner.lock().clock_ms += ms;
    }

    /// Record an event at the current simulated time.
    pub fn record(&self, source_id: u32, url: &str, phase: NetLogPhase) {
        self.record_shared(source_id, Arc::from(url), phase);
    }

    /// Record an event whose URL is already shared — no string allocation.
    pub fn record_shared(&self, source_id: u32, url: Arc<str>, phase: NetLogPhase) {
        let mut inner = self.inner.lock();
        let timestamp_ms = inner.clock_ms;
        inner.events.push(NetLogEvent {
            source_id,
            url,
            phase,
            timestamp_ms,
        });
    }

    /// Record a `RequestSent`/`ResponseReceived` pair per URL under one
    /// lock acquisition, advancing the clock by `clock_step_ms` before
    /// each pair — the shape of a page's subresource fetch burst. Room for
    /// the events is reserved once, from the iterator's size hint.
    pub fn record_request_pairs<'a>(
        &self,
        source_id: u32,
        urls: impl IntoIterator<Item = &'a Arc<str>>,
        clock_step_ms: u64,
    ) {
        let urls = urls.into_iter();
        let mut inner = self.inner.lock();
        inner.events.reserve(urls.size_hint().0 * 2);
        for url in urls {
            inner.clock_ms += clock_step_ms;
            let timestamp_ms = inner.clock_ms;
            inner.events.push(NetLogEvent {
                source_id,
                url: url.clone(),
                phase: NetLogPhase::RequestSent,
                timestamp_ms,
            });
            inner.events.push(NetLogEvent {
                source_id,
                url: url.clone(),
                phase: NetLogPhase::ResponseReceived,
                timestamp_ms,
            });
        }
    }

    /// Total events captured.
    pub fn len(&self) -> usize {
        self.inner.lock().events.len()
    }

    /// Whether anything was captured.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().events.is_empty()
    }

    /// Snapshot of all events.
    pub fn events(&self) -> Vec<NetLogEvent> {
        self.inner.lock().events.clone()
    }

    /// Events for one source (one WebView instance).
    pub fn events_for(&self, source_id: u32) -> Vec<NetLogEvent> {
        self.inner
            .lock()
            .events
            .iter()
            .filter(|e| e.source_id == source_id)
            .cloned()
            .collect()
    }

    /// Distinct hosts contacted by one source — the unit Figures 6a/6b
    /// count ("distinct endpoints contacted by an IAB").
    pub fn distinct_hosts_for(&self, source_id: u32) -> BTreeSet<String> {
        self.inner
            .lock()
            .events
            .iter()
            .filter(|e| e.source_id == source_id && e.phase == NetLogPhase::RequestSent)
            .filter_map(|e| host_of(&e.url).map(str::to_owned))
            .collect()
    }

    /// Visit the shared URL of every `RequestSent` event for one source,
    /// in capture order. Prepared-page and endpoint-rule URLs are one
    /// `Arc` shared across every visit that fetches them, so callers can
    /// key per-URL caches on the `Arc`'s pointer identity instead of
    /// re-parsing the string each time.
    pub fn for_each_request_url(&self, source_id: u32, mut f: impl FnMut(&Arc<str>)) {
        for e in self.inner.lock().events.iter() {
            if e.source_id == source_id && e.phase == NetLogPhase::RequestSent {
                f(&e.url);
            }
        }
    }
}

/// Mount the netlog capture endpoints onto a router: `POST /netlog`
/// records a form-encoded event (`source`, `url`, optional `phase` of
/// `sent`/`received`/`failed`), and `GET /netlog/hosts?source=N` returns
/// the distinct hosts contacted by that source, one per line — the
/// HTTP face of the device-side "pull the netlog from the rooted Pixel"
/// step, served by the same router as the beacon and analysis routes.
pub fn netlog_routes(router: crate::router::Router, log: NetLog) -> crate::router::Router {
    use crate::http::{parse_form, Method, Request, Response, Status};
    let post_log = log.clone();
    router
        .route(Method::Post, "/netlog", move |req: &Request| {
            let body = String::from_utf8_lossy(&req.body);
            let pairs = parse_form(&body);
            let get = |k: &str| pairs.iter().find(|(n, _)| n == k).map(|(_, v)| v.clone());
            let source = get("source").and_then(|s| s.parse::<u32>().ok());
            let phase = match get("phase").as_deref() {
                None | Some("sent") => Some(NetLogPhase::RequestSent),
                Some("received") => Some(NetLogPhase::ResponseReceived),
                Some("failed") => Some(NetLogPhase::Failed),
                Some(_) => None,
            };
            match (source, get("url"), phase) {
                (Some(source), Some(url), Some(phase)) if !url.is_empty() => {
                    post_log.record(source, &url, phase);
                    Response::no_content()
                }
                _ => Response::error(Status::BadRequest, "missing/invalid source, url, or phase"),
            }
        })
        .route(Method::Get, "/netlog/hosts", move |req: &Request| {
            let source = req
                .query()
                .and_then(|q| {
                    parse_form(q)
                        .into_iter()
                        .find(|(k, _)| k == "source")
                        .map(|(_, v)| v)
                })
                .and_then(|s| s.parse::<u32>().ok());
            match source {
                Some(source) => {
                    let hosts: Vec<String> = log.distinct_hosts_for(source).into_iter().collect();
                    Response::ok("text/plain", hosts.join("\n").into_bytes())
                }
                None => Response::error(Status::BadRequest, "missing/invalid source"),
            }
        })
}

/// Extract the host from a URL (scheme-optional). An IPv6 literal keeps
/// its brackets (`[::1]`).
pub fn host_of(url: &str) -> Option<&str> {
    let rest = url.split("://").nth(1).unwrap_or(url);
    let host = rest.split(['/', '?', '#']).next()?;
    let host = host.split('@').next_back()?; // strip userinfo
    let host = match host.strip_prefix('[') {
        Some(literal) => &host[..literal.find(']')? + 2],
        None => host.split(':').next()?, // strip port
    };
    if host.is_empty() {
        None
    } else {
        Some(host)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_filters_by_source() {
        let log = NetLog::new();
        log.record(1, "https://a.example/x", NetLogPhase::RequestSent);
        log.advance_clock(10);
        log.record(2, "https://b.example/y", NetLogPhase::RequestSent);
        log.record(1, "https://a.example/x", NetLogPhase::ResponseReceived);
        assert_eq!(log.events().len(), 3);
        assert_eq!(log.len(), 3);
        assert!(!log.is_empty());
        assert_eq!(log.events_for(1).len(), 2);
        assert_eq!(log.events_for(2)[0].timestamp_ms, 10);
    }

    #[test]
    fn distinct_hosts_deduplicate() {
        let log = NetLog::new();
        log.record(1, "https://cdn.x.com/a.js", NetLogPhase::RequestSent);
        log.record(1, "https://cdn.x.com/b.js", NetLogPhase::RequestSent);
        log.record(1, "https://ads.mopub.com/bid", NetLogPhase::RequestSent);
        log.record(1, "https://fail.example/", NetLogPhase::Failed); // not a request
        let hosts = log.distinct_hosts_for(1);
        assert_eq!(
            hosts.into_iter().collect::<Vec<_>>(),
            vec!["ads.mopub.com".to_owned(), "cdn.x.com".to_owned()]
        );
    }

    #[test]
    fn request_pairs_match_individual_records() {
        let urls: Vec<Arc<str>> = vec![
            Arc::from("https://cdn.x.com/a.js"),
            Arc::from("https://img.x.com/b.jpg"),
        ];
        let batched = NetLog::new();
        batched.record_request_pairs(7, &urls, 2);

        let serial = NetLog::new();
        for url in &urls {
            serial.advance_clock(2);
            serial.record_shared(7, url.clone(), NetLogPhase::RequestSent);
            serial.record_shared(7, url.clone(), NetLogPhase::ResponseReceived);
        }
        // Both clocks stand at the same time: one more event on each
        // carries the same timestamp.
        for log in [&batched, &serial] {
            log.record(7, "https://x.com/", NetLogPhase::RequestSent);
        }
        assert_eq!(batched.events(), serial.events());
    }

    #[test]
    fn for_each_request_url_sees_sent_only() {
        let log = NetLog::new();
        log.record(1, "https://a.x.com/1", NetLogPhase::RequestSent);
        log.record(1, "https://a.x.com/2", NetLogPhase::ResponseReceived);
        log.record(2, "https://other.com/", NetLogPhase::RequestSent);
        log.record(1, "https://b.x.com/", NetLogPhase::RequestSent);
        let mut seen = Vec::new();
        log.for_each_request_url(1, |u| seen.push(u.to_string()));
        assert_eq!(seen, ["https://a.x.com/1", "https://b.x.com/"]);
    }

    #[test]
    fn host_extraction() {
        assert_eq!(host_of("https://a.b.c/path?q=1"), Some("a.b.c"));
        assert_eq!(host_of("http://host:8080/"), Some("host"));
        assert_eq!(host_of("host.only"), Some("host.only"));
        assert_eq!(host_of("https://user@host/p"), Some("host"));
        assert_eq!(host_of("https:///nohost"), None);
        // An IPv6 literal keeps its brackets, with a port or without.
        assert_eq!(host_of("http://[::1]:8080/x"), Some("[::1]"));
        assert_eq!(host_of("https://[2001:db8::7]/p?q"), Some("[2001:db8::7]"));
        assert_eq!(host_of("[::1]"), Some("[::1]"));
        assert_eq!(host_of("https://user@[::1]:443/"), Some("[::1]"));
        assert_eq!(host_of("http://[::1/x"), None);
    }

    #[test]
    fn netlog_http_routes_record_and_report() {
        use crate::http::{form_encode, Request, Status};
        use crate::router::Router;

        let log = NetLog::new();
        let router = netlog_routes(Router::new(), log.clone());
        let post = |body: String| router.dispatch(&Request::post("/netlog", body.into_bytes()));
        let url = "https://ads.mopub.com/bid?x=1";
        let resp = post(format!("source=7&url={}", form_encode(url)));
        assert_eq!(resp.status, Status::NoContent);
        let resp = post(format!("source=7&url={}&phase=received", form_encode(url)));
        assert_eq!(resp.status, Status::NoContent);
        let resp = post("source=notanum&url=https%3A%2F%2Fx%2F".into());
        assert_eq!(resp.status, Status::BadRequest);
        let resp = post("source=1&url=https%3A%2F%2Fx%2F&phase=bogus".into());
        assert_eq!(resp.status, Status::BadRequest);

        assert_eq!(log.len(), 2);
        assert_eq!(log.events_for(7)[0].url.as_ref(), url);

        let resp = router.dispatch(&Request::get("/netlog/hosts?source=7"));
        assert_eq!(resp.status, Status::Ok);
        assert_eq!(&resp.body[..], b"ads.mopub.com");
        let resp = router.dispatch(&Request::get("/netlog/hosts"));
        assert_eq!(resp.status, Status::BadRequest);
    }

    #[test]
    fn concurrent_recording_is_safe() {
        let log = NetLog::new();
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let log = log.clone();
                std::thread::spawn(move || {
                    for j in 0..100 {
                        log.record(
                            i,
                            &format!("https://h{i}.example/{j}"),
                            NetLogPhase::RequestSent,
                        );
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(log.events().len(), 800);
    }
}
