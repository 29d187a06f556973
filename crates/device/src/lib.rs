//! # wla-device — simulated Android device
//!
//! The dynamic study (§3.2) runs on a rooted Pixel 3: apps are installed,
//! links are tapped, WebView methods are hooked with Frida, and Chrome
//! netlogs are pulled per WebView instance. This crate is that device:
//!
//! * [`intent`] — Web URI intents and Android-12 resolution (default
//!   browser unless an installed app claims the host);
//! * [`webview`] — the WebView runtime: settings, JS bridges
//!   (`addJavascriptInterface`), page loading over real loopback HTTP or
//!   from synthetic page content, script injection via
//!   `evaluateJavascript`/`loadUrl("javascript:…")` and per-instance
//!   netlog attribution;
//! * [`customtabs`] — the Custom Tabs runtime: browser-context loading on
//!   a browser netlog source, and *no* injection surface — the security
//!   contrast the paper centers on;
//! * [`frida`] — the dynamic-instrumentation analog: a recorder that
//!   intercepts every WebView API call with its arguments;
//! * [`logcat`] — the device log buffer;
//! * [`iab`] — In-App Browser behaviour profiles for the ten WebView-IAB
//!   apps of Table 8 (plus Discord's CT IAB), and the machinery to drive a
//!   profile through a page visit;
//! * [`browser`] — the default browser: the netlog sources its tabs load
//!   on.
//!
//! §4.1.2's and §5's models built on this device (cookie sessions shared
//! with Custom Tabs, engagement signals, Partial Custom Tabs, OAuth, Safe
//! Browsing, JS bridges, the Monkey) live in `wla-extensions`.

#![forbid(unsafe_code)]

pub mod browser;
pub mod customtabs;
pub mod frida;
pub mod iab;
pub mod intent;
pub mod logcat;
pub mod session;
pub mod webview;

pub use browser::Browser;
pub use customtabs::{CustomTab, NavigationEvent};
pub use frida::{FridaRecorder, HookedCall};
pub use iab::{profile_for, IabProfile, IabVisit};
pub use intent::{resolve_intent, Intent, IntentTarget};
pub use logcat::Logcat;
pub use session::VisitSession;
pub use webview::{PageSource, PreparedPage, WebViewInstance, WebViewSettings};
