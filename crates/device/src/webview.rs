//! The WebView runtime.
//!
//! Every public method interposes through the attached [`FridaRecorder`]
//! (method name + arguments) before acting — that is the paper's
//! measurement surface. Pages load over real loopback HTTP (the
//! controlled page), from synthetic site markup, or as a page prepared
//! once per site (the top-site crawl); every source becomes one
//! [`PreparedPage`], whose arrival records the main document and every
//! subresource the parsed DOM references in the instance's netlog,
//! attributable to this instance's source id.

use crate::frida::FridaRecorder;
use crate::logcat::Logcat;
use std::net::SocketAddr;
use std::sync::Arc;
use wla_net::netlog::host_of;
use wla_net::{fetch, NetLog, NetLogPhase, Request};
use wla_web::script::{execute, ScriptEffect, ScriptOutcome};
use wla_web::webapi::DomSession;
use wla_web::{html, Document};

/// WebView settings (the knobs §4.1.1 discusses — Ad SDKs can disable Safe
/// Browsing in a WebView; a CT is always subject to the browser's).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WebViewSettings {
    /// `setJavaScriptEnabled`.
    pub javascript_enabled: bool,
    /// `setSafeBrowsingEnabled`.
    pub safe_browsing_enabled: bool,
}

impl Default for WebViewSettings {
    fn default() -> Self {
        WebViewSettings {
            javascript_enabled: true,
            safe_browsing_enabled: true,
        }
    }
}

/// Where a page's content comes from. [`WebViewInstance::load`] turns
/// every variant into one [`PreparedPage`].
#[derive(Debug, Clone)]
pub enum PageSource {
    /// Fetch `path` from a real loopback server; the page is *addressed*
    /// as `url` for netlog purposes. The fetched body is parsed with no
    /// extra requests; a failed fetch loads an empty document.
    Http {
        /// Server to fetch from.
        server: SocketAddr,
        /// Request path (e.g. `/page`).
        path: String,
        /// Logical URL of the page.
        url: String,
    },
    /// Synthetic content (top-site model), parsed on load.
    Synthetic {
        /// Logical URL.
        url: String,
        /// Page markup.
        html: String,
        /// Additional requests the page makes beyond DOM-referenced
        /// subresources (XHR endpoints, trackers), resolved against the
        /// page like the DOM's references.
        extra_requests: Vec<String>,
    },
    /// A page parsed once and shared across many visits (the crawl
    /// visits every site through eleven WebViews; the parse and the
    /// fetch list are made once per site, not per visit).
    Prepared(Arc<PreparedPage>),
}

impl PageSource {
    /// Logical URL of the page.
    pub fn url(&self) -> &str {
        match self {
            PageSource::Http { url, .. } | PageSource::Synthetic { url, .. } => url,
            PageSource::Prepared(page) => &page.url,
        }
    }
}

/// A loaded page: its parsed document and its fetch list, each URL
/// resolved once into a shared string. Every page a WebView or Custom Tab
/// loads is one, and [`PreparedPage::from_markup`] is the one way to make
/// it. A page may be shared (`Arc`) across visits: a visit's
/// [`DomSession`] reads the shared document and copies it only to change
/// it.
#[derive(Debug, Clone)]
pub struct PreparedPage {
    /// Logical URL.
    pub url: Arc<str>,
    /// Parsed document, shared by every session loaded from the page.
    pub doc: Arc<Document>,
    /// Resolved subresource URLs (DOM-referenced first, then extras), in
    /// the order the page fetches them.
    pub sub_urls: Vec<Arc<str>>,
}

impl PreparedPage {
    /// Parse `markup` once and precompute the full fetch list: the
    /// DOM-referenced subresources, then `extra_requests`, each reference
    /// resolved against the page ([`resolve_url`]) straight into its shared
    /// string. The document and the list are frozen at exact capacity.
    pub fn from_markup(url: &str, markup: &str, extra_requests: &[&str]) -> PreparedPage {
        let mut doc = html::parse(markup);
        let page_host = host_of(url).unwrap_or("localhost");
        let mut resolved_url = String::new();
        let mut sub_urls: Vec<Arc<str>> = subresource_refs(&doc)
            .chain(extra_requests.iter().copied())
            .map(|raw| {
                resolved_url.clear();
                resolved_url.extend(resolved(raw, page_host));
                Arc::from(resolved_url.as_str())
            })
            .collect();
        sub_urls.shrink_to_fit();
        doc.shrink_to_fit();
        PreparedPage {
            url: Arc::from(url),
            doc: Arc::new(doc),
            sub_urls,
        }
    }

    /// Record the page arriving on `source_id`: the main document's
    /// response, then a request/response pair per subresource, the clock
    /// advancing `clock_step_ms` before each pair.
    pub fn record_arrival(&self, netlog: &NetLog, source_id: u32, clock_step_ms: u64) {
        netlog.record_shared(source_id, self.url.clone(), NetLogPhase::ResponseReceived);
        netlog.record_request_pairs(source_id, &self.sub_urls, clock_step_ms);
    }

    /// Heap bytes the page holds: the shared document (its node,
    /// attribute and string tables), the page URL and the fetch list.
    /// Counted as the allocator is asked for them.
    pub fn heap_bytes(&self) -> usize {
        // An `Arc` allocation: two reference counts, then the value,
        // padded to the counts' alignment.
        let arc =
            |value: usize| (2 * size_of::<usize>() + value).next_multiple_of(align_of::<usize>());
        arc(size_of::<Document>())
            + self.doc.heap_bytes()
            + arc(self.url.len())
            + self.sub_urls.capacity() * size_of::<Arc<str>>()
            + self.sub_urls.iter().map(|u| arc(u.len())).sum::<usize>()
    }
}

/// The subresource references of a parsed DOM as the page writes them, in
/// document order: the `src` of each `script`, `img` and `iframe`, the
/// `href` of each `link`.
fn subresource_refs(doc: &Document) -> impl Iterator<Item = &str> {
    doc.walk()
        .into_iter()
        .filter_map(move |node| match doc.tag(node) {
            Some("script" | "img" | "iframe") => doc.get_attr(node, "src"),
            Some("link") => doc.get_attr(node, "href"),
            _ => None,
        })
}

/// One WebView instance inside an app.
#[derive(Debug)]
pub struct WebViewInstance {
    /// Netlog source id of this instance.
    pub source_id: u32,
    /// Owning app package (sent as `X-Requested-With`, §5).
    pub app_package: String,
    /// Settings.
    pub settings: WebViewSettings,
    recorder: FridaRecorder,
    netlog: NetLog,
    logcat: Logcat,
    bridges: Vec<String>,
    dom: Option<DomSession>,
    reporter: Option<SocketAddr>,
}

impl WebViewInstance {
    /// Create an instance wired to the device's recorder/netlog/logcat.
    pub fn new(
        source_id: u32,
        app_package: &str,
        recorder: FridaRecorder,
        netlog: NetLog,
        logcat: Logcat,
    ) -> WebViewInstance {
        WebViewInstance {
            source_id,
            app_package: app_package.to_owned(),
            settings: WebViewSettings::default(),
            recorder,
            netlog,
            logcat,
            bridges: Vec::new(),
            dom: None,
            reporter: None,
        }
    }

    /// Attach a measurement server: Web-API calls made by injected scripts
    /// will beacon to it over real HTTP.
    pub fn with_reporter(mut self, server: SocketAddr) -> WebViewInstance {
        self.reporter = Some(server);
        self
    }

    /// Exposed JS bridge names.
    pub fn bridges(&self) -> &[String] {
        &self.bridges
    }

    /// The instrumented DOM session of the loaded page (`None` until a
    /// page is loaded).
    #[cfg(test)]
    pub fn session(&self) -> Option<&DomSession> {
        self.dom.as_ref()
    }

    /// Mutable session access (for assertions and follow-up effects).
    pub fn session_mut(&mut self) -> Option<&mut DomSession> {
        self.dom.as_mut()
    }

    fn make_session(&self, doc: Arc<Document>) -> DomSession {
        match self.reporter {
            Some(addr) => DomSession::with_reporter(doc, addr, &self.app_package),
            None => DomSession::new(doc),
        }
    }

    /// `addJavascriptInterface` — expose a JS bridge.
    pub fn add_javascript_interface(&mut self, object_class: &str, name: &str) {
        self.recorder
            .record("addJavascriptInterface", &[object_class, name]);
        self.logcat
            .info("WebView", &format!("bridge exposed: {name}"));
        self.bridges.push(name.to_owned());
    }

    /// `loadUrl` with a page source. Records the hook, turns the source
    /// into a [`PreparedPage`] (fetching and parsing it unless it comes
    /// prepared), records its arrival, and opens a session on its
    /// document. A failed fetch records `Failed` and opens an empty one.
    pub fn load(&mut self, source: PageSource) {
        let url: Arc<str> = match &source {
            PageSource::Prepared(page) => page.url.clone(),
            other => Arc::from(other.url()),
        };
        self.recorder.record("loadUrl", &[&url]);
        self.logcat
            .info("WebView", &format!("loading {url} in {}", self.app_package));
        self.netlog
            .record_shared(self.source_id, url.clone(), NetLogPhase::RequestSent);

        let page = match source {
            PageSource::Prepared(page) => page,
            PageSource::Synthetic {
                html: markup,
                extra_requests,
                ..
            } => {
                let extras: Vec<&str> = extra_requests.iter().map(String::as_str).collect();
                Arc::new(PreparedPage::from_markup(&url, &markup, &extras))
            }
            PageSource::Http { server, path, .. } => {
                let request = Request::get(path).with_header("X-Requested-With", &self.app_package);
                match fetch(server, request) {
                    Ok(resp) => {
                        let body = String::from_utf8_lossy(&resp.body);
                        Arc::new(PreparedPage::from_markup(&url, &body, &[]))
                    }
                    Err(e) => {
                        self.netlog
                            .record_shared(self.source_id, url.clone(), NetLogPhase::Failed);
                        self.logcat
                            .info("WebView", &format!("load failed for {url}: {e}"));
                        self.dom = Some(self.make_session(Arc::new(Document::new())));
                        return;
                    }
                }
            }
        };
        page.record_arrival(&self.netlog, self.source_id, 2);
        self.dom = Some(self.make_session(page.doc.clone()));
    }

    /// `evaluateJavascript` — inject and run a script effect.
    /// Returns `None` when JavaScript is disabled or no page is loaded.
    pub fn evaluate_javascript(&mut self, effect: &ScriptEffect) -> Option<ScriptOutcome> {
        self.recorder
            .record("evaluateJavascript", &[&effect_js(effect)]);
        self.run_effect(effect)
    }

    fn run_effect(&mut self, effect: &ScriptEffect) -> Option<ScriptOutcome> {
        if !self.settings.javascript_enabled {
            self.logcat
                .info("WebView", "JS disabled; injection ignored");
            return None;
        }
        Some(execute(effect, self.session_mut()?))
    }
}

/// Resolve a (possibly relative) resource URL against the page host.
pub fn resolve_url(raw: &str, page_host: &str) -> String {
    resolved(raw, page_host).concat()
}

/// The pieces [`resolve_url`] joins: an absolute URL as is, anything else
/// fetched over https from the host it names or, when relative, the
/// page's.
fn resolved<'a>(raw: &'a str, page_host: &'a str) -> [&'a str; 4] {
    if raw.starts_with("http://") || raw.starts_with("https://") {
        [raw, "", "", ""]
    } else if let Some(rest) = raw.strip_prefix("//") {
        ["https://", rest, "", ""]
    } else if raw.starts_with('/') {
        ["https://", page_host, raw, ""]
    } else {
        ["https://", page_host, "/", raw]
    }
}

/// Compact pseudo-JS rendering of an effect — what the Frida hook sees as
/// the injected argument. Borrowed for the parameter-free effects so the
/// per-visit injection hooks don't allocate.
pub fn effect_js(effect: &ScriptEffect) -> std::borrow::Cow<'static, str> {
    match effect {
        ScriptEffect::InsertScriptElement { src, element_id } => format!(
            "(function(d,s,id){{var js,fjs=d.getElementsByTagName(s)[0];if(d.getElementById(id)){{return;}}js=d.createElement(s);js.id=id;js.src=\"{src}\";fjs.parentNode.insertBefore(js,fjs);}}(document,'script','{element_id}'))"
        )
        .into(),
        ScriptEffect::DomTagCounts => {
            "(function(){var c={};document.querySelectorAll('*')…return c;})()".into()
        }
        ScriptEffect::SimHashPage => {
            "(function(){/* cloaker-catcher simhash: text+dom, text, dom */})()".into()
        }
        ScriptEffect::LogPerformance { .. } => {
            "(function(){console.log('perf', performance.timing)})()".into()
        }
        ScriptEffect::AdProbe(p) => format!(
            "(function(){{var ad={{\"adUnit\":\"{}\",\"src\":\"{}\",\"width\":{},\"height\":{}}};/* obfuscated */}})()",
            p.ad_unit, p.source_host, p.width, p.height
        )
        .into(),
        ScriptEffect::ReadOnlyScan => {
            "(function(){document.querySelectorAll('ins,.adsbygoogle')})()".into()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wla_net::MeasurementServer;
    use wla_web::testpage::test_page_html;

    fn instance() -> WebViewInstance {
        WebViewInstance::new(
            1,
            "com.example.app",
            FridaRecorder::new(),
            NetLog::new(),
            Logcat::new(),
        )
    }

    #[test]
    fn load_real_page_over_http() {
        let server = MeasurementServer::start(test_page_html()).unwrap();
        let recorder = FridaRecorder::new();
        let netlog = NetLog::new();
        let mut wv = WebViewInstance::new(
            7,
            "com.facebook.katana",
            recorder.clone(),
            netlog.clone(),
            Logcat::new(),
        )
        .with_reporter(server.addr());
        wv.load(PageSource::Http {
            server: server.addr(),
            path: "/page".into(),
            url: "https://measurement.example/page".into(),
        });
        assert!(wv.session().is_some());
        // Hook saw the load.
        assert_eq!(recorder.calls_to("loadUrl").len(), 1);
        // Netlog attributed the main document + subresources to source 7.
        let events = netlog.events_for(7);
        assert!(events.len() >= 3, "{events:?}");
        // DOM-referenced subresources appear (page.js etc.).
        assert!(events.iter().any(|e| e.url.contains("page.js")));
    }

    #[test]
    fn a_refused_fetch_fails_the_load_and_leaves_an_empty_session() {
        // A port whose listener is dropped refuses the connection.
        let refused = std::net::TcpListener::bind("127.0.0.1:0")
            .and_then(|listener| listener.local_addr())
            .unwrap();
        let (netlog, logcat) = (NetLog::new(), Logcat::new());
        let url = "https://measurement.example/page";
        let mut wv = WebViewInstance::new(
            5,
            "com.example.app",
            FridaRecorder::new(),
            netlog.clone(),
            logcat.clone(),
        );
        wv.load(PageSource::Http {
            server: refused,
            path: "/page".into(),
            url: url.into(),
        });
        let events: Vec<_> = netlog
            .events_for(5)
            .into_iter()
            .map(|e| (e.url.to_string(), e.phase))
            .collect();
        assert_eq!(
            events,
            [
                (url.to_owned(), NetLogPhase::RequestSent),
                (url.to_owned(), NetLogPhase::Failed),
            ]
        );
        assert!(logcat.contains("load failed"));
        let session = wv.session().expect("a failed load still opens a session");
        assert_eq!(*session.doc, Document::new());
    }

    #[test]
    fn synthetic_page_logs_extras() {
        let netlog = NetLog::new();
        let mut wv = WebViewInstance::new(
            2,
            "kik.android",
            FridaRecorder::new(),
            netlog.clone(),
            Logcat::new(),
        );
        wv.load(PageSource::Synthetic {
            url: "https://news.example.com/".into(),
            html: "<img src=\"/hero.png\"><script src=\"https://cdn.site/app.js\"></script>".into(),
            extra_requests: vec!["https://ads.mopub.com/bid".into()],
        });
        let hosts = netlog.distinct_hosts_for(2);
        assert!(hosts.contains("news.example.com"));
        assert!(hosts.contains("cdn.site"));
        assert!(hosts.contains("ads.mopub.com"));
    }

    #[test]
    fn injection_requires_js_enabled() {
        let mut wv = instance();
        wv.load(PageSource::Synthetic {
            url: "https://x.example/".into(),
            html: "<p>hi</p>".into(),
            extra_requests: vec![],
        });
        wv.settings.javascript_enabled = false;
        assert!(wv
            .evaluate_javascript(&ScriptEffect::DomTagCounts)
            .is_none());
        wv.settings.javascript_enabled = true;
        assert!(wv
            .evaluate_javascript(&ScriptEffect::DomTagCounts)
            .is_some());
    }

    #[test]
    fn injection_without_page_is_none() {
        let mut wv = instance();
        assert!(wv
            .evaluate_javascript(&ScriptEffect::DomTagCounts)
            .is_none());
    }

    #[test]
    fn bridges_are_recorded_and_tracked() {
        let recorder = FridaRecorder::new();
        let mut wv = WebViewInstance::new(
            3,
            "in.mohalla.video",
            recorder.clone(),
            NetLog::new(),
            Logcat::new(),
        );
        wv.add_javascript_interface("com.google.ads.JsBridge", "googleAdsJsInterface");
        assert_eq!(wv.bridges(), ["googleAdsJsInterface"]);
        assert_eq!(recorder.calls_to("addJavascriptInterface").len(), 1);
    }

    #[test]
    fn url_resolution() {
        assert_eq!(resolve_url("https://a/b", "h"), "https://a/b");
        assert_eq!(resolve_url("//cdn.x/y", "h"), "https://cdn.x/y");
        assert_eq!(
            resolve_url("/p.png", "host.example"),
            "https://host.example/p.png"
        );
        assert_eq!(
            resolve_url("r.js", "host.example"),
            "https://host.example/r.js"
        );
    }
}
