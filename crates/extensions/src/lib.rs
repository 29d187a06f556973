//! # wla-extensions — the paper's §4.1.2 and §5 discussion models
//!
//! §4.1.2 and §5 argue from scenarios the measurement campaigns do not
//! run: what a Custom Tab shares with the browser and reports to the app,
//! how an OAuth login differs in a WebView and a Custom Tab, what Safe
//! Browsing and a JS bridge expose, why the Monkey cannot replace scripted
//! crawling, how linkable a WebView's fingerprint is, and how a website
//! can refuse WebViews. This crate makes each one executable on the
//! simulated device and web platform. `wla` runs none of them: only the
//! root package's tests (`tests/extensions.rs`,
//! `tests/end_to_end_dynamic.rs`) and examples depend on it.
//!
//! * [`customtabs`] — what a Custom Tab offers beyond the page loads `wla`
//!   measures: the browser's login sessions (Table 1's UX row), §4.1.2's
//!   engagement signals and §5's Partial Custom Tab;
//! * [`oauth`] — the two OAuth flows (RFC 8252) against an identity
//!   provider's [`website`] policy;
//! * [`security`] — Table 1's Safe Browsing and JS-bridge rows;
//! * [`monkey`] — the random UI exerciser the paper rejected (§3.2.3);
//! * [`fingerprint`] — Table 1's fingerprinting row;
//! * [`website`] — website-side WebView defenses (Figure 5).

#![forbid(unsafe_code)]

pub mod customtabs;
pub mod fingerprint;
pub mod monkey;
pub mod oauth;
pub mod security;
pub mod website;

pub use customtabs::{session_restored, CookieJar, PartialCustomTab};
pub use monkey::{monkey_success_rate, run_monkey, MonkeyOutcome};
pub use oauth::{run_oauth_flow, AuthMechanism, OAuthOutcome};
pub use security::{page_invoke_bridge, BridgeData, BridgeHost, LoadVerdict, SafeBrowsing};
pub use website::{ClientContext, LoginPage, WebViewLoginPolicy, Website};
