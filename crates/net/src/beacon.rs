//! The measurement server of §3.2.2.
//!
//! The paper hosts an HTML5 test page whose only script overrides all Web
//! API methods and submits each intercepted call back to the researchers'
//! server. This module is that server: it serves the controlled page at
//! `GET /page`, accepts interception reports at `POST /beacon`
//! (form-encoded `interface`, `method`, `argument`, `visitor`), and records
//! them for later analysis.

use crate::http::{parse_form, Method, Request, Response, Status};
use crate::router::Router;
use crate::server::Server;
use parking_lot::Mutex;
use std::net::SocketAddr;
use std::sync::Arc;

/// One intercepted Web-API call, as reported by the instrumented page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BeaconRecord {
    /// Web API interface (`Document`, `Element`, …).
    pub interface: String,
    /// Method name (`getElementById`, …).
    pub method: String,
    /// Stringified first argument, if reported.
    pub argument: Option<String>,
    /// Identifier of the visiting WebView/app (from the `visitor` field or
    /// the `X-Requested-With` header WebView requests carry).
    pub visitor: Option<String>,
}

/// Shared store of beacon records.
#[derive(Debug, Default, Clone)]
pub struct BeaconStore(Arc<Mutex<Vec<BeaconRecord>>>);

impl BeaconStore {
    /// Snapshot of all records.
    pub fn records(&self) -> Vec<BeaconRecord> {
        self.0.lock().clone()
    }

    fn push(&self, record: BeaconRecord) {
        self.0.lock().push(record);
    }
}

/// The measurement server: controlled page + beacon endpoint.
#[derive(Debug)]
pub struct MeasurementServer {
    server: Server,
    store: BeaconStore,
}

/// Mount the measurement routes — `GET /page` (the controlled page) and
/// `POST /beacon` (interception reports) — onto a router, so they compose
/// with the netlog and analysis routes on one server.
pub fn beacon_routes(router: Router, page_html: Arc<String>, store: BeaconStore) -> Router {
    router
        .route(Method::Get, "/page", move |_req: &Request| {
            Response::ok("text/html", page_html.as_bytes().to_vec())
        })
        .route(Method::Post, "/beacon", move |req: &Request| {
            let body = String::from_utf8_lossy(&req.body);
            let pairs = parse_form(&body);
            let get = |k: &str| pairs.iter().find(|(n, _)| n == k).map(|(_, v)| v.clone());
            match (get("interface"), get("method")) {
                (Some(interface), Some(method)) => {
                    store.push(BeaconRecord {
                        interface,
                        method,
                        argument: get("argument"),
                        visitor: get("visitor")
                            .or_else(|| req.header("x-requested-with").map(str::to_owned)),
                    });
                    Response::no_content()
                }
                _ => Response::error(Status::BadRequest, "missing interface/method"),
            }
        })
}

impl MeasurementServer {
    /// Start with the given controlled-page HTML.
    pub fn start(page_html: String) -> std::io::Result<MeasurementServer> {
        let store = BeaconStore::default();
        let router = beacon_routes(Router::new(), Arc::new(page_html), store.clone());
        let server = Server::start(router.into_handler())?;
        Ok(MeasurementServer { server, store })
    }

    /// Server address.
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// Recorded beacons.
    pub fn records(&self) -> Vec<BeaconRecord> {
        self.store.records()
    }

    /// Stop the server.
    pub fn shutdown(&mut self) {
        self.server.shutdown();
    }
}

/// Build a form-encoded beacon body — used by the instrumented Web-API
/// layer in `wla-web`.
pub fn encode_beacon(
    interface: &str,
    method: &str,
    argument: Option<&str>,
    visitor: &str,
) -> String {
    use crate::http::form_encode;
    let mut body = format!(
        "interface={}&method={}&visitor={}",
        form_encode(interface),
        form_encode(method),
        form_encode(visitor)
    );
    if let Some(arg) = argument {
        body.push_str(&format!("&argument={}", form_encode(arg)));
    }
    body
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::fetch;

    #[test]
    fn beacons_recorded_over_real_sockets() {
        let server = MeasurementServer::start("<html><body>test</body></html>".into()).unwrap();

        let page = fetch(server.addr(), Request::get("/page")).unwrap();
        assert_eq!(page.status, Status::Ok);
        assert!(std::str::from_utf8(&page.body).unwrap().contains("test"));

        let body = encode_beacon(
            "Document",
            "getElementById",
            Some("checkout & pay"),
            "com.facebook.katana",
        );
        let resp = fetch(server.addr(), Request::post("/beacon", body.into_bytes())).unwrap();
        assert_eq!(resp.status, Status::NoContent);

        let records = server.records();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].interface, "Document");
        assert_eq!(records[0].method, "getElementById");
        assert_eq!(records[0].argument.as_deref(), Some("checkout & pay"));
        assert_eq!(records[0].visitor.as_deref(), Some("com.facebook.katana"));
    }

    #[test]
    fn visitor_falls_back_to_x_requested_with() {
        let server = MeasurementServer::start(String::new()).unwrap();
        let body = encode_beacon("Element", "insertBefore", None, "");
        // Strip the empty visitor param to force fallback.
        let body = body.replace("&visitor=", "&ignored=");
        let req = Request::post("/beacon", body.into_bytes())
            .with_header("X-Requested-With", "kik.android");
        fetch(server.addr(), req).unwrap();
        let records = server.records();
        assert_eq!(records[0].visitor.as_deref(), Some("kik.android"));
    }

    #[test]
    fn malformed_beacon_rejected() {
        let server = MeasurementServer::start(String::new()).unwrap();
        let resp = fetch(
            server.addr(),
            Request::post("/beacon", &b"nothing=here"[..]),
        )
        .unwrap();
        assert_eq!(resp.status, Status::BadRequest);
        assert!(server.records().is_empty());
    }
}
