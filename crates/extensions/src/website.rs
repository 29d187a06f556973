//! Website-side WebView defenses (§5 and Figure 5).
//!
//! "Every request that comes from a WebView has a `X-Requested-With`
//! header field with the app's APK name as its value. The steps could vary
//! from showing the user a prompt … to completely blocking access to
//! sessions from WebViews, as Facebook did." This module models a website
//! that inspects that header and applies a policy — the server-side
//! counterpart to everything else in this crate.

use wla_web::dom::Document;
use wla_web::html::parse;

/// How a site treats sessions arriving from a WebView.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WebViewLoginPolicy {
    /// No special handling (most sites).
    Allow,
    /// Show a consent/risk prompt before sensitive actions.
    Warn,
    /// Refuse login entirely — Facebook's "Log in Disabled" (Figure 5).
    Block,
}

/// What the client looks like to the site.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClientContext {
    /// Value of `X-Requested-With`, present iff the request came from a
    /// WebView (CTs and browsers do not send it).
    pub x_requested_with: Option<String>,
}

impl ClientContext {
    /// A browser or Custom-Tab client.
    pub fn browser() -> ClientContext {
        ClientContext::default()
    }

    /// A WebView client belonging to `apk`.
    pub fn webview(apk: &str) -> ClientContext {
        ClientContext {
            x_requested_with: Some(apk.to_owned()),
        }
    }

    /// Did the request come from a WebView?
    pub fn is_webview(&self) -> bool {
        self.x_requested_with.is_some()
    }
}

/// A site with a login page and a WebView policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Website {
    /// Host name.
    pub host: String,
    /// WebView-session policy.
    pub policy: WebViewLoginPolicy,
}

/// Outcome of a login-page request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoginPage {
    /// The normal login form was served.
    Form(Document),
    /// A warning interstitial was served; login continues after consent.
    Warning(Document),
    /// Login is disabled for this client (Figure 5).
    Disabled(Document),
}

impl LoginPage {
    /// Can the user authenticate through this response (possibly after a
    /// consent step)?
    pub fn login_possible(&self) -> bool {
        !matches!(self, LoginPage::Disabled(_))
    }
}

impl Website {
    /// A site with the given policy.
    pub fn new(host: &str, policy: WebViewLoginPolicy) -> Website {
        Website {
            host: host.to_owned(),
            policy,
        }
    }

    /// Facebook's configuration since October 2021.
    pub fn facebook() -> Website {
        Website::new("facebook.com", WebViewLoginPolicy::Block)
    }

    /// Serve the login page for `client`.
    pub fn login_page(&self, client: &ClientContext) -> LoginPage {
        if !client.is_webview() {
            return LoginPage::Form(self.form_document());
        }
        match self.policy {
            WebViewLoginPolicy::Allow => LoginPage::Form(self.form_document()),
            WebViewLoginPolicy::Warn => {
                let html = format!(
                    "<html><body><div class=\"warning\"><h1>Security notice</h1>\
                     <p>You are signing in to {} from inside the app {}. \
                     Continue only if you trust this app.</p>\
                     <button id=\"consent\">Continue</button></div></body></html>",
                    self.host,
                    client.x_requested_with.as_deref().unwrap_or("unknown"),
                );
                LoginPage::Warning(parse(&html))
            }
            WebViewLoginPolicy::Block => {
                let html = format!(
                    "<html><body><div class=\"error\"><h1>Log in Disabled</h1>\
                     <p>For your account security, logging in to {} from an \
                     embedded browser is disabled. Open this page in your \
                     browser instead.</p></div></body></html>",
                    self.host,
                );
                LoginPage::Disabled(parse(&html))
            }
        }
    }
}

impl Website {
    fn form_document(&self) -> Document {
        parse(&format!(
            "<html><body><form action=\"https://{}/session\" method=\"post\">\
             <input type=\"text\" id=\"username\" name=\"username\">\
             <input type=\"password\" id=\"password\" name=\"password\">\
             <button type=\"submit\">Log in</button></form></body></html>",
            self.host,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facebook_blocks_webview_logins_only() {
        let fb = Website::facebook();
        // Figure 5: WebView visitors see "Log in Disabled".
        let via_webview = fb.login_page(&ClientContext::webview("com.example.app"));
        assert!(!via_webview.login_possible());
        match via_webview {
            LoginPage::Disabled(doc) => {
                assert!(doc.text_content().contains("Log in Disabled"));
            }
            other => panic!("{other:?}"),
        }
        // Browsers and CTs get the normal form.
        assert!(fb.login_page(&ClientContext::browser()).login_possible());
    }

    #[test]
    fn warn_policy_serves_interstitial_with_consent() {
        let site = Website::new("bank.example", WebViewLoginPolicy::Warn);
        match site.login_page(&ClientContext::webview("kik.android")) {
            LoginPage::Warning(doc) => {
                assert!(doc.get_element_by_id("consent").is_some());
                assert!(doc.text_content().contains("kik.android"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn allow_policy_ignores_the_header() {
        let site = Website::new("blog.example", WebViewLoginPolicy::Allow);
        assert!(site
            .login_page(&ClientContext::webview("com.app"))
            .login_possible());
    }

    #[test]
    fn form_contains_credential_inputs() {
        let site = Website::new("x.example", WebViewLoginPolicy::Allow);
        match site.login_page(&ClientContext::browser()) {
            LoginPage::Form(doc) => {
                assert!(doc.get_element_by_id("username").is_some());
                assert!(doc.get_element_by_id("password").is_some());
            }
            other => panic!("{other:?}"),
        }
    }
}
