//! Method+path request router shared by every server frontend.
//!
//! One [`Router`] now fronts both workloads — the dynamic-crawl endpoints
//! (beacon, netlog) and the static-analysis service (`POST /analyze` in
//! `wla-core`) — on either server implementation, since it lowers to the
//! plain [`Handler`] both accept. Dispatch policy: unknown path → 404;
//! known path but unregistered method → 405 with an `allow` header listing
//! the methods that would have worked (deterministic registration order,
//! so oracle and nonblocking responses stay byte-identical).

use crate::http::{Method, Request, Response, Status};
use crate::server::Handler;
use std::sync::Arc;

type RouteFn = Box<dyn Fn(&Request) -> Response + Send + Sync>;

/// Exact-path router.
#[derive(Default)]
pub struct Router {
    routes: Vec<(Method, String, RouteFn)>,
}

impl std::fmt::Debug for Router {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let paths: Vec<String> = self
            .routes
            .iter()
            .map(|(m, p, _)| format!("{} {p}", m.as_str()))
            .collect();
        f.debug_struct("Router").field("routes", &paths).finish()
    }
}

impl Router {
    /// Empty router.
    pub fn new() -> Router {
        Router::default()
    }

    /// Register a handler for `method` + exact `path` (query excluded).
    pub fn route(
        mut self,
        method: Method,
        path: &str,
        f: impl Fn(&Request) -> Response + Send + Sync + 'static,
    ) -> Router {
        self.routes.push((method, path.to_owned(), Box::new(f)));
        self
    }

    /// Dispatch one request: exact method+path match, else 405 (path known
    /// under another method) or 404.
    pub fn dispatch(&self, req: &Request) -> Response {
        let path = req.path();
        let mut allowed: Vec<&'static str> = Vec::new();
        for (method, route_path, f) in &self.routes {
            if route_path != path {
                continue;
            }
            if *method == req.method {
                return f(req);
            }
            if !allowed.contains(&method.as_str()) {
                allowed.push(method.as_str());
            }
        }
        if allowed.is_empty() {
            Response::error(Status::NotFound, "unknown route")
        } else {
            let mut resp = Response::error(Status::MethodNotAllowed, "method not allowed");
            resp.headers.push(("allow".into(), allowed.join(", ")));
            resp
        }
    }

    /// Lower to the [`Handler`] both server implementations accept.
    pub fn into_handler(self) -> Handler {
        Arc::new(move |req: &Request| self.dispatch(req))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::header;
    use bytes::Bytes;

    fn router() -> Router {
        Router::new()
            .route(Method::Get, "/page", |_| {
                Response::ok("text/plain", &b"page"[..])
            })
            .route(Method::Post, "/beacon", |req| {
                Response::ok("application/octet-stream", req.body.clone())
            })
            .route(Method::Get, "/beacon", |_| {
                Response::ok("text/plain", &b"beacon-get"[..])
            })
    }

    fn req(method: Method, target: &str) -> Request {
        Request {
            method,
            target: target.into(),
            headers: Vec::new(),
            body: Bytes::new(),
        }
    }

    #[test]
    fn dispatches_on_method_and_path() {
        let r = router();
        assert_eq!(&r.dispatch(&req(Method::Get, "/page")).body[..], b"page");
        assert_eq!(
            &r.dispatch(&req(Method::Get, "/beacon")).body[..],
            b"beacon-get"
        );
        // Query strings don't affect matching.
        assert_eq!(
            &r.dispatch(&req(Method::Get, "/page?x=1")).body[..],
            b"page"
        );
    }

    #[test]
    fn unknown_path_is_404() {
        let resp = router().dispatch(&req(Method::Get, "/missing"));
        assert_eq!(resp.status, Status::NotFound);
    }

    #[test]
    fn known_path_wrong_method_is_405_with_allow() {
        let resp = router().dispatch(&req(Method::Head, "/page"));
        assert_eq!(resp.status, Status::MethodNotAllowed);
        assert_eq!(header(&resp.headers, "allow"), Some("GET"));
        let resp = router().dispatch(&req(Method::Head, "/beacon"));
        assert_eq!(header(&resp.headers, "allow"), Some("POST, GET"));
    }
}
