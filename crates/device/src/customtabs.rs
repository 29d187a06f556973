//! The Custom Tabs runtime.
//!
//! The contrast with [`crate::webview`] is structural, not behavioural:
//! [`CustomTab`] exposes *no* injection or bridge API at all — the page
//! loads in the browser's context, and the app only gets the coarse
//! engagement callbacks `CustomTabsCallback` provides. "Untrusted web
//! content loads in browser context isolated from app context (no
//! bidirectional access)" (Table 1). The browser sessions a tab shares,
//! the scroll signals and the Partial Custom Tab are modeled in
//! `wla-extensions`.

use crate::browser::Browser;
use crate::webview::PreparedPage;
use wla_net::NetLogPhase;

/// Navigation events surfaced through `CustomTabsCallback` — the paper
/// notes CTs "natively measure similar user engagement signals" (§4.1.2),
/// and the Engagement Signals API reports scroll behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NavigationEvent {
    /// Navigation started.
    Started,
    /// Navigation finished.
    Finished,
    /// Greatest scroll percentage reached (Engagement Signals API).
    GreatestScrollPercentage(u8),
    /// The user interacted with the page (vertical scroll observed).
    VerticalScroll,
}

/// A launched Custom Tab.
#[derive(Debug)]
pub struct CustomTab {
    /// Netlog source id (a browser tab source).
    pub source_id: u32,
    /// URL shown.
    pub url: String,
    /// Whether the secure UI (TLS lock) is visible — always, in a CT.
    pub secure_ui: bool,
    /// Engagement callbacks delivered to the app.
    pub callbacks: Vec<NavigationEvent>,
}

impl CustomTab {
    /// `CustomTabsIntent.launchUrl`: load `url` (with `html` content) in
    /// the browser context. The page is parsed and its fetch list resolved
    /// as a WebView's would be, and arrives on a browser tab source.
    pub fn launch(browser: &mut Browser, url: &str, page_html: &str) -> CustomTab {
        let source_id = browser.allocate_source();
        browser
            .netlog
            .record(source_id, url, NetLogPhase::RequestSent);
        let page = PreparedPage::from_markup(url, page_html, &[]);
        page.record_arrival(&browser.netlog, source_id, 1);
        CustomTab {
            source_id,
            url: url.to_owned(),
            secure_ui: true,
            callbacks: vec![NavigationEvent::Started, NavigationEvent::Finished],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wla_net::NetLog;

    #[test]
    fn ct_requests_attributed_to_browser_source() {
        let netlog = NetLog::new();
        let mut browser = Browser::new(netlog.clone());
        let tab = CustomTab::launch(
            &mut browser,
            "https://site.example/",
            "<script src=\"https://cdn.example/x.js\"></script>",
        );
        let hosts = netlog.distinct_hosts_for(tab.source_id);
        assert!(hosts.contains("site.example"));
        assert!(hosts.contains("cdn.example"));
    }

    #[test]
    fn a_custom_tab_requests_what_a_webview_requests() {
        use crate::webview::{PageSource, WebViewInstance};
        use crate::{FridaRecorder, Logcat};
        let (url, page) = (
            "https://site.example/news/",
            "<img src=\"httpdocs/a.png\"><script src=\"//cdn.example/x.js\"></script>",
        );
        let tab_log = NetLog::new();
        let tab = CustomTab::launch(&mut Browser::new(tab_log.clone()), url, page);
        let webview_log = NetLog::new();
        let mut wv = WebViewInstance::new(
            7,
            "com.example.app",
            FridaRecorder::new(),
            webview_log.clone(),
            Logcat::new(),
        );
        wv.load(PageSource::Synthetic {
            url: url.into(),
            html: page.into(),
            extra_requests: vec![],
        });
        let requests = |log: &NetLog, source_id| {
            let mut urls = Vec::new();
            log.for_each_request_url(source_id, |url| urls.push(url.to_string()));
            urls
        };
        let in_tab = requests(&tab_log, tab.source_id);
        assert_eq!(in_tab, requests(&webview_log, 7));
        assert_eq!(
            in_tab,
            [
                url,
                "https://site.example/httpdocs/a.png",
                "https://cdn.example/x.js"
            ]
        );
    }

    #[test]
    fn engagement_callbacks_delivered() {
        let mut browser = Browser::new(NetLog::new());
        let tab = CustomTab::launch(&mut browser, "https://x.example/", "<p>t</p>");
        assert_eq!(
            tab.callbacks,
            vec![NavigationEvent::Started, NavigationEvent::Finished]
        );
    }
}
