//! What a Custom Tab offers beyond the page loads `wla` measures: the
//! browser's login sessions (Table 1's UX row), the Engagement Signals
//! callbacks (§4.1.2) and the Partial Custom Tab (§5).
//!
//! A [`CustomTab`] loads in the browser context, so it sees the browser's
//! [`CookieJar`]; a WebView starts with an empty jar of its own, so a
//! session the user holds in the browser is invisible to it. Only these
//! models read sessions: the device the crawl and the IAB study drive keeps
//! no cookies.

use std::collections::HashSet;
use wla_device::browser::Browser;
use wla_device::customtabs::{CustomTab, NavigationEvent};
use wla_net::netlog::host_of;

/// The hosts a user holds an authenticated session on.
#[derive(Debug, Default, Clone)]
pub struct CookieJar {
    sessions: HashSet<String>,
}

impl CookieJar {
    /// Fresh empty jar.
    pub fn new() -> CookieJar {
        CookieJar::default()
    }

    /// Mark the user as logged in on `host` (session cookie).
    pub fn login(&mut self, host: &str) {
        self.sessions.insert(host.to_owned());
    }

    /// Whether an authenticated session exists for `host`.
    pub fn is_logged_in(&self, host: &str) -> bool {
        self.sessions.contains(host)
    }
}

/// Whether the user's session on `tab`'s host is active: true iff the
/// browser's jar `browser_cookies` says so.
pub fn session_restored(tab: &CustomTab, browser_cookies: &CookieJar) -> bool {
    host_of(&tab.url).is_some_and(|h| browser_cookies.is_logged_in(h))
}

/// The user scrolled `tab`; the Engagement Signals API reports it to the
/// app as coarse callbacks — the whole engagement surface a CT offers,
/// versus a WebView's full DOM access (§4.1.2).
pub fn report_scroll(tab: &mut CustomTab, greatest_percentage: u8) {
    tab.callbacks.push(NavigationEvent::VerticalScroll);
    tab.callbacks
        .push(NavigationEvent::GreatestScrollPercentage(
            greatest_percentage.min(100),
        ));
}

/// Peak scroll percentage `tab` reported so far.
pub fn greatest_scroll(tab: &CustomTab) -> u8 {
    tab.callbacks
        .iter()
        .filter_map(|e| match e {
            NavigationEvent::GreatestScrollPercentage(p) => Some(*p),
            _ => None,
        })
        .max()
        .unwrap_or(0)
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
        let mut cookies = CookieJar::new();
        cookies.login("example.com");
        let tab = CustomTab::launch(&mut browser, "https://example.com/article", "<p>t</p>");
        assert!(session_restored(&tab, &cookies));
        assert!(tab.secure_ui);
        // A different host is not logged in.
        let tab2 = CustomTab::launch(&mut browser, "https://other.com/", "<p>t</p>");
        assert!(!session_restored(&tab2, &cookies));
    }

    #[test]
    fn cookie_persistence_and_login() {
        let mut jar = CookieJar::new();
        assert!(!jar.is_logged_in("facebook.com"));
        jar.login("facebook.com");
        assert!(jar.is_logged_in("facebook.com"));
        assert!(!jar.is_logged_in("example.com"));
    }

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
        assert_eq!(greatest_scroll(&tab), 0);
        report_scroll(&mut tab, 40);
        report_scroll(&mut tab, 90);
        report_scroll(&mut tab, 250); // clamped to 100
        assert_eq!(greatest_scroll(&tab), 100);
        assert!(tab
            .callbacks
            .iter()
            .any(|e| matches!(e, NavigationEvent::VerticalScroll)));
    }
}
