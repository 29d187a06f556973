//! OAuth flows over WebViews vs Custom Tabs — §4.1.6/§4.1.8 and RFC 8252.
//!
//! "Using CTs for authorization requests is also in line with the best
//! practices set out in the IETF RFC 8252 for 'OAuth 2.0 for Native
//! Apps'." This module runs both flows against the simulated device and
//! produces the properties the paper argues from:
//!
//! * a CT flow reuses the browser session (no retyped credentials), shows
//!   the secure browser UI, and keeps credentials outside the app's reach;
//! * a WebView flow forces fresh credential entry (its cookie jar is
//!   empty), has no trusted UI, and types the password *through app-
//!   controllable surface* (keystrokes and DOM are both interceptable) —
//!   and the IDP may refuse it outright (Figure 5).

use crate::customtabs::{session_restored, CookieJar};
use crate::website::{ClientContext, Website};
use wla_device::browser::Browser;
use wla_device::customtabs::CustomTab;
use wla_device::frida::FridaRecorder;
use wla_device::logcat::Logcat;
use wla_device::webview::{PageSource, WebViewInstance};
use wla_net::NetLog;

/// Which mechanism the app's auth SDK uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuthMechanism {
    /// Embedded WebView (Gigya, VK, Kakao, Amazon Identity …).
    EmbeddedWebView,
    /// Custom Tab (Facebook Login, Firebase Auth, NAVER …).
    CustomTab,
}

/// Observable outcome of one authorization attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OAuthOutcome {
    /// The flow completed with an authorization grant.
    pub authorized: bool,
    /// An existing IDP session was reused (no credential entry).
    pub session_reused: bool,
    /// The user had to type credentials into app-controllable surface.
    pub credentials_typed_in_app_surface: bool,
    /// A trusted (browser-drawn) security UI was visible.
    pub trusted_ui: bool,
    /// The IDP refused the client (Figure 5's "Log in Disabled").
    pub refused_by_idp: bool,
}

/// Run an authorization flow for `app_package` against `idp`, given the
/// user's browser and the browser's sessions `cookies`.
pub fn run_oauth_flow(
    mechanism: AuthMechanism,
    app_package: &str,
    idp: &Website,
    browser: &mut Browser,
    cookies: &mut CookieJar,
) -> OAuthOutcome {
    match mechanism {
        AuthMechanism::CustomTab => {
            let page = idp.login_page(&ClientContext::browser());
            let tab = CustomTab::launch(
                browser,
                &format!("https://{}/oauth/authorize", idp.host),
                "<p>authorize</p>",
            );
            let session_reused = session_restored(&tab, cookies);
            if !session_reused {
                // The user signs in *in the browser context*; the session
                // persists for every future flow.
                cookies.login(&idp.host);
            }
            OAuthOutcome {
                authorized: page.login_possible(),
                session_reused,
                credentials_typed_in_app_surface: false,
                trusted_ui: tab.secure_ui,
                refused_by_idp: !page.login_possible(),
            }
        }
        AuthMechanism::EmbeddedWebView => {
            let mut wv = WebViewInstance::new(
                500,
                app_package,
                FridaRecorder::new(),
                NetLog::new(),
                Logcat::new(),
            );
            wv.load(PageSource::Synthetic {
                url: format!("https://{}/oauth/authorize", idp.host),
                html: "<p>authorize</p>".into(),
                extra_requests: vec![],
            });
            let page = idp.login_page(&ClientContext::webview(app_package));
            let refused = !page.login_possible();
            // A WebView's cookie jar is its own and starts cold: the
            // browser session is invisible, so credentials must be typed
            // unless the IDP refuses entirely.
            OAuthOutcome {
                authorized: !refused,
                session_reused: false,
                credentials_typed_in_app_surface: !refused,
                trusted_ui: false,
                refused_by_idp: refused,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::website::WebViewLoginPolicy;

    fn idp() -> Website {
        Website::new("idp.example", WebViewLoginPolicy::Allow)
    }

    #[test]
    fn ct_flow_reuses_browser_session() {
        let mut browser = Browser::new(NetLog::new());
        let mut cookies = CookieJar::new();
        cookies.login("idp.example");
        let out = run_oauth_flow(
            AuthMechanism::CustomTab,
            "com.app",
            &idp(),
            &mut browser,
            &mut cookies,
        );
        assert!(out.authorized);
        assert!(out.session_reused);
        assert!(!out.credentials_typed_in_app_surface);
        assert!(out.trusted_ui);
    }

    #[test]
    fn first_ct_login_persists_for_later_flows() {
        let mut browser = Browser::new(NetLog::new());
        let mut cookies = CookieJar::new();
        let first = run_oauth_flow(
            AuthMechanism::CustomTab,
            "com.a",
            &idp(),
            &mut browser,
            &mut cookies,
        );
        assert!(!first.session_reused);
        // A different app's flow now reuses the session — the conversion
        // benefit the paper attributes to Facebook's CT migration.
        let second = run_oauth_flow(
            AuthMechanism::CustomTab,
            "com.b",
            &idp(),
            &mut browser,
            &mut cookies,
        );
        assert!(second.session_reused);
    }

    #[test]
    fn webview_flow_types_credentials_without_trusted_ui() {
        let mut browser = Browser::new(NetLog::new());
        let mut cookies = CookieJar::new();
        cookies.login("idp.example"); // browser session exists…
        let out = run_oauth_flow(
            AuthMechanism::EmbeddedWebView,
            "com.app",
            &idp(),
            &mut browser,
            &mut cookies,
        );
        assert!(out.authorized);
        // …but the WebView can't see it: credentials go through app
        // surface, with no trusted UI.
        assert!(!out.session_reused);
        assert!(out.credentials_typed_in_app_surface);
        assert!(!out.trusted_ui);
    }

    #[test]
    fn blocking_idp_refuses_webview_but_not_ct() {
        let fb = Website::facebook();
        let mut browser = Browser::new(NetLog::new());
        let mut cookies = CookieJar::new();
        let wv = run_oauth_flow(
            AuthMechanism::EmbeddedWebView,
            "com.app",
            &fb,
            &mut browser,
            &mut cookies,
        );
        assert!(wv.refused_by_idp);
        assert!(!wv.authorized);
        let ct = run_oauth_flow(
            AuthMechanism::CustomTab,
            "com.app",
            &fb,
            &mut browser,
            &mut cookies,
        );
        assert!(ct.authorized);
        assert!(!ct.refused_by_idp);
    }
}
