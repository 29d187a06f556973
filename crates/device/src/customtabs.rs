//! The Custom Tabs runtime.
//!
//! The contrast with [`crate::webview`] is structural, not behavioural:
//! [`CustomTab`] exposes *no* injection or bridge API at all — the page
//! loads in the browser's context with the browser's cookies, and the app
//! only gets the coarse engagement callbacks `CustomTabsCallback`
//! provides. "Untrusted web content loads in browser context isolated from
//! app context (no bidirectional access)" (Table 1).

use crate::browser::Browser;
use crate::webview::PreparedPage;
use wla_net::netlog::host_of;
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
        // The page sees the browser's cookies: an authenticated session on
        // this host stays authenticated (Table 1's UX row).
        let page = PreparedPage::from_markup(url, page_html, &[]);
        page.record_arrival(&browser.netlog, source_id, 1);
        CustomTab {
            source_id,
            url: url.to_owned(),
            secure_ui: true,
            callbacks: vec![NavigationEvent::Started, NavigationEvent::Finished],
        }
    }

    /// Whether the user's existing session on the tab's host is active —
    /// true iff the *browser* jar says so.
    pub fn session_restored(&self, browser: &Browser) -> bool {
        host_of(&self.url).is_some_and(|h| browser.cookies.is_logged_in(h))
    }

    /// The user scrolled; the Engagement Signals API reports it to the app
    /// as coarse callbacks — the whole engagement surface a CT offers,
    /// versus a WebView's full DOM access (§4.1.2).
    pub fn report_scroll(&mut self, greatest_percentage: u8) {
        self.callbacks.push(NavigationEvent::VerticalScroll);
        self.callbacks
            .push(NavigationEvent::GreatestScrollPercentage(
                greatest_percentage.min(100),
            ));
    }

    /// Peak scroll percentage reported so far.
    pub fn greatest_scroll(&self) -> u8 {
        self.callbacks
            .iter()
            .filter_map(|e| match e {
                NavigationEvent::GreatestScrollPercentage(p) => Some(*p),
                _ => None,
            })
            .max()
            .unwrap_or(0)
    }
}

/// A Partial Custom Tab — the resizable inline variant Google showcased in
/// 2023 for launching CTs "in response to native ads" (§5's future-work
/// direction for migrating ad SDKs off WebViews).
#[derive(Debug)]
pub struct PartialCustomTab {
    /// The underlying tab (browser context, shared cookies, secure UI).
    pub tab: CustomTab,
    /// Current sheet height in pixels.
    pub height_px: u32,
    /// Height of the host activity's window.
    pub window_height_px: u32,
}

impl PartialCustomTab {
    /// Launch a partial CT occupying `height_px` of a `window_height_px`
    /// window.
    pub fn launch(
        browser: &mut Browser,
        url: &str,
        page_html: &str,
        height_px: u32,
        window_height_px: u32,
    ) -> PartialCustomTab {
        PartialCustomTab {
            tab: CustomTab::launch(browser, url, page_html),
            height_px: height_px.min(window_height_px),
            window_height_px,
        }
    }

    /// User drags the sheet; height is clamped to the window.
    pub fn resize(&mut self, height_px: u32) {
        self.height_px = height_px.min(self.window_height_px);
    }

    /// Expand to full height.
    pub fn maximize(&mut self) {
        self.height_px = self.window_height_px;
    }

    /// Fraction of the window the sheet covers.
    pub fn coverage(&self) -> f64 {
        self.height_px as f64 / self.window_height_px as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wla_net::NetLog;

    #[test]
    fn ct_uses_browser_cookies() {
        let mut browser = Browser::new(NetLog::new());
        browser.cookies.login("example.com");
        let tab = CustomTab::launch(&mut browser, "https://example.com/article", "<p>t</p>");
        assert!(tab.session_restored(&browser));
        assert!(tab.secure_ui);
        // A different host is not logged in.
        let tab2 = CustomTab::launch(&mut browser, "https://other.com/", "<p>t</p>");
        assert!(!tab2.session_restored(&browser));
    }

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

#[cfg(test)]
mod partial_tests {
    use super::*;
    use wla_net::NetLog;

    #[test]
    fn partial_ct_resizes_within_window() {
        let mut browser = Browser::new(NetLog::new());
        let mut pct = PartialCustomTab::launch(
            &mut browser,
            "https://ad-landing.example/",
            "<p>offer</p>",
            600,
            2_000,
        );
        assert!((pct.coverage() - 0.3).abs() < 1e-9);
        pct.resize(5_000); // clamped
        assert_eq!(pct.height_px, 2_000);
        pct.resize(900);
        pct.maximize();
        assert_eq!(pct.height_px, 2_000);
        // Still a real CT underneath: secure UI, browser cookies.
        assert!(pct.tab.secure_ui);
    }

    #[test]
    fn engagement_signals_report_scroll() {
        let mut browser = Browser::new(NetLog::new());
        let mut tab = CustomTab::launch(&mut browser, "https://news.example/", "<p>story</p>");
        assert_eq!(tab.greatest_scroll(), 0);
        tab.report_scroll(40);
        tab.report_scroll(90);
        tab.report_scroll(250); // clamped to 100
        assert_eq!(tab.greatest_scroll(), 100);
        assert!(tab
            .callbacks
            .iter()
            .any(|e| matches!(e, NavigationEvent::VerticalScroll)));
    }
}
