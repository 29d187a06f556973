//! The Web-API interception layer.
//!
//! The paper's controlled page runs one script that "overrides all methods
//! of all Web APIs … and submits the intercepted requests with parameters
//! back to our server". [`DomSession`] is that layer: every DOM operation
//! flows through it, is recorded locally, and — when a measurement server
//! is attached — reported as a beacon over real loopback HTTP.
//!
//! Interfaces follow the concrete-receiver convention of a prototype-chain
//! override (what the paper's harness sees): `insertBefore` on `<body>`
//! reports as `HTMLBodyElement`, `getAttribute` on `<meta>` reports as
//! `HTMLMetaElement`, and so on — matching the rows of Appendix Table 9.

use crate::dom::{Document, NodeId};
use std::net::SocketAddr;
use std::sync::Arc;
use wla_net::beacon::encode_beacon;
use wla_net::{fetch, Request};

/// One intercepted API call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApiCall {
    /// Interface name as a harness would report it.
    pub interface: &'static str,
    /// Method name.
    pub method: &'static str,
    /// Stringified first argument.
    pub argument: Option<String>,
}

/// An instrumented DOM session for one page visit.
///
/// The document may be shared with the page it was loaded from: reads go
/// straight to it, and the first change ([`DomSession::doc_mut`]) copies
/// it, so a visit whose scripts only read never copies the page.
#[derive(Debug)]
pub struct DomSession {
    /// The live document. Change it only through [`DomSession::doc_mut`].
    pub doc: Arc<Document>,
    calls: Vec<ApiCall>,
    reporter: Option<(SocketAddr, String)>,
    /// Registered event listeners (event name, marker).
    listeners: Vec<String>,
}

impl DomSession {
    /// Session without network reporting (local recording only).
    pub fn new(doc: impl Into<Arc<Document>>) -> DomSession {
        DomSession {
            doc: doc.into(),
            calls: Vec::new(),
            reporter: None,
            listeners: Vec::new(),
        }
    }

    /// Session that reports every call to a measurement server as
    /// `visitor` (the app package, mirroring `X-Requested-With`).
    pub fn with_reporter(
        doc: impl Into<Arc<Document>>,
        server: SocketAddr,
        visitor: &str,
    ) -> DomSession {
        DomSession {
            doc: doc.into(),
            calls: Vec::new(),
            reporter: Some((server, visitor.to_owned())),
            listeners: Vec::new(),
        }
    }

    /// The document, for a change: copied first if the page still shares
    /// it, so the change stays in this session.
    pub fn doc_mut(&mut self) -> &mut Document {
        Arc::make_mut(&mut self.doc)
    }

    /// All intercepted calls, in order.
    #[cfg(test)]
    pub fn calls(&self) -> &[ApiCall] {
        &self.calls
    }

    /// Distinct `(interface, method)` pairs — the unit Table 9 reports.
    #[cfg(test)]
    pub fn distinct_api_usage(&self) -> Vec<(String, String)> {
        let mut pairs: Vec<(String, String)> = self
            .calls
            .iter()
            .map(|c| (c.interface.to_owned(), c.method.to_owned()))
            .collect();
        pairs.sort();
        pairs.dedup();
        pairs
    }

    fn record(&mut self, interface: &'static str, method: &'static str, argument: Option<&str>) {
        self.calls.push(ApiCall {
            interface,
            method,
            argument: argument.map(str::to_owned),
        });
        if let Some((addr, visitor)) = &self.reporter {
            let body = encode_beacon(interface, method, argument, visitor);
            // Beacons are fire-and-forget in the page too; a lost beacon
            // must not break the page.
            let _ = fetch(*addr, Request::post("/beacon", body.into_bytes()));
        }
    }

    // ---- Document ---------------------------------------------------------

    /// `Document.getElementById`.
    pub fn get_element_by_id(&mut self, id: &str) -> Option<NodeId> {
        self.record("Document", "getElementById", Some(id));
        self.doc.get_element_by_id(id)
    }

    /// `Document.createElement`.
    pub fn create_element(&mut self, tag: &str) -> NodeId {
        self.record("Document", "createElement", Some(tag));
        self.doc_mut().alloc_element(tag)
    }

    /// `Document.querySelectorAll` (returns a NodeList).
    pub fn query_selector_all(&mut self, selector: &str) -> Vec<NodeId> {
        self.record("Document", "querySelectorAll", Some(selector));
        self.doc.query_selector_all(selector)
    }

    /// `HTMLDocument.querySelectorAll` — same operation reported under the
    /// legacy interface some scripts reach it through (Kik, Table 9).
    pub fn html_document_query_selector_all(&mut self, selector: &str) -> Vec<NodeId> {
        self.record("HTMLDocument", "querySelectorAll", Some(selector));
        self.doc.query_selector_all(selector)
    }

    /// `Document.getElementsByTagName` (returns an HTMLCollection).
    pub fn get_elements_by_tag_name(&mut self, tag: &str) -> Vec<NodeId> {
        self.record("Document", "getElementsByTagName", Some(tag));
        self.doc.get_elements_by_tag_name(tag)
    }

    /// `Document.addEventListener`.
    pub fn add_event_listener(&mut self, event: &str) {
        self.record("Document", "addEventListener", Some(event));
        self.listeners.push(event.to_owned());
    }

    /// `Document.removeEventListener`.
    pub fn remove_event_listener(&mut self, event: &str) {
        self.record("Document", "removeEventListener", Some(event));
        if let Some(pos) = self.listeners.iter().position(|e| e == event) {
            self.listeners.remove(pos);
        }
    }

    /// Currently registered listeners (for assertions).
    #[cfg(test)]
    pub fn listeners(&self) -> &[String] {
        &self.listeners
    }

    // ---- Element family ----------------------------------------------------

    /// `insertBefore` on `parent` — reported as `HTMLBodyElement` when the
    /// receiver is `<body>`, `Element` otherwise.
    pub fn insert_before(&mut self, parent: NodeId, node: NodeId, reference: NodeId) {
        let interface = if self.doc.tag(parent) == Some("body") {
            "HTMLBodyElement"
        } else {
            "Element"
        };
        let arg = self.doc.tag(node).map(str::to_owned);
        self.record(interface, "insertBefore", arg.as_deref());
        self.doc_mut().insert_before(parent, node, reference);
    }

    /// `Element.hasAttribute`.
    pub fn has_attribute(&mut self, el: NodeId, name: &str) -> bool {
        self.record("Element", "hasAttribute", Some(name));
        self.doc.has_attr(el, name)
    }

    /// `getAttribute` — reported as `HTMLMetaElement` on `<meta>` receivers,
    /// `Element` otherwise.
    pub fn get_attribute(&mut self, el: NodeId, name: &str) -> Option<String> {
        let interface = if self.doc.tag(el) == Some("meta") {
            "HTMLMetaElement"
        } else {
            "Element"
        };
        self.record(interface, "getAttribute", Some(name));
        self.doc.get_attr(el, name).map(str::to_owned)
    }

    /// `Element.getElementsByTagName` scoped to a subtree.
    pub fn element_get_elements_by_tag_name(&mut self, el: NodeId, tag: &str) -> Vec<NodeId> {
        self.record("Element", "getElementsByTagName", Some(tag));
        let tag = tag.to_ascii_lowercase();
        // Subtree walk.
        let mut out = Vec::new();
        let mut stack = vec![el];
        while let Some(id) = stack.pop() {
            if id != el {
                if let Some(t) = self.doc.tag(id) {
                    if tag == "*" || t == tag {
                        out.push(id);
                    }
                }
            }
            stack.extend(self.doc.children(id).rev());
        }
        out
    }

    // ---- Collections --------------------------------------------------------

    /// `HTMLCollection.item`.
    pub fn collection_item(&mut self, collection: &[NodeId], index: usize) -> Option<NodeId> {
        self.record("HTMLCollection", "item", Some(&index.to_string()));
        collection.get(index).copied()
    }

    /// `NodeList.item`.
    pub fn nodelist_item(&mut self, list: &[NodeId], index: usize) -> Option<NodeId> {
        self.record("NodeList", "item", Some(&index.to_string()));
        list.get(index).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::html::parse;

    fn session() -> DomSession {
        DomSession::new(parse(
            "<head><meta name=\"viewport\" content=\"width=device-width\"></head>\
             <body><div id=\"main\"><p>text</p></div><script src=\"a.js\"></script></body>",
        ))
    }

    #[test]
    fn calls_are_recorded_in_order() {
        let mut s = session();
        s.get_element_by_id("main");
        let el = s.create_element("script");
        let body = s.doc.body().unwrap();
        let first = s.doc.children(body).next().unwrap();
        s.insert_before(body, el, first);
        let calls = s.calls();
        assert_eq!(calls[0].interface, "Document");
        assert_eq!(calls[0].method, "getElementById");
        assert_eq!(calls[1].method, "createElement");
        assert_eq!(calls[2].interface, "HTMLBodyElement");
        assert_eq!(calls[2].method, "insertBefore");
    }

    #[test]
    fn interface_dispatch_by_receiver() {
        let mut s = session();
        let metas = s.get_elements_by_tag_name("meta");
        let meta = s.collection_item(&metas, 0).unwrap();
        assert_eq!(s.get_attribute(meta, "name").as_deref(), Some("viewport"));
        let div = s.doc.get_element_by_id("main").unwrap();
        s.get_attribute(div, "id");
        let ifaces: Vec<_> = s
            .calls()
            .iter()
            .filter(|c| c.method == "getAttribute")
            .map(|c| c.interface)
            .collect();
        assert_eq!(ifaces, ["HTMLMetaElement", "Element"]);
    }

    #[test]
    fn element_scoped_tag_search() {
        let mut s = session();
        let div = s.doc.get_element_by_id("main").unwrap();
        let ps = s.element_get_elements_by_tag_name(div, "p");
        assert_eq!(ps.len(), 1);
        let all = s.element_get_elements_by_tag_name(div, "*");
        assert_eq!(all.len(), 1); // excludes the receiver itself
    }

    #[test]
    fn listener_bookkeeping() {
        let mut s = session();
        s.add_event_listener("DOMContentLoaded");
        assert_eq!(s.listeners(), ["DOMContentLoaded"]);
        s.remove_event_listener("DOMContentLoaded");
        assert!(s.listeners().is_empty());
    }

    #[test]
    fn distinct_usage_dedupes() {
        let mut s = session();
        s.query_selector_all("*");
        s.query_selector_all("p");
        s.html_document_query_selector_all("meta");
        let usage = s.distinct_api_usage();
        assert_eq!(
            usage,
            vec![
                ("Document".to_owned(), "querySelectorAll".to_owned()),
                ("HTMLDocument".to_owned(), "querySelectorAll".to_owned()),
            ]
        );
    }

    #[test]
    fn beacons_reach_measurement_server() {
        let server = wla_net::MeasurementServer::start(String::new()).unwrap();
        let mut s =
            DomSession::with_reporter(parse("<p id=\"x\">t</p>"), server.addr(), "kik.android");
        s.get_element_by_id("x");
        let records = server.records();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].interface, "Document");
        assert_eq!(records[0].visitor.as_deref(), Some("kik.android"));
    }
}
