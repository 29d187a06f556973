//! Frida-analog dynamic instrumentation.
//!
//! The paper "dynamically override\[s\] all methods of `android.webkit.
//! WebView` at run-time in order to record the WebView APIs used by the
//! app, along with the arguments passed". [`FridaRecorder`] is that
//! interposition layer for the simulated runtime: every WebView API entry
//! point reports itself (method name + stringified arguments) before
//! executing.

use parking_lot::Mutex;
use std::sync::Arc;

/// One intercepted WebView API call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HookedCall {
    /// WebView method name.
    pub method: String,
    /// Stringified arguments, in order.
    pub args: Vec<String>,
}

/// Shared, thread-safe hook recorder attached to WebView instances.
#[derive(Debug, Default, Clone)]
pub struct FridaRecorder {
    calls: Arc<Mutex<Vec<HookedCall>>>,
}

impl FridaRecorder {
    /// Fresh recorder.
    pub fn new() -> FridaRecorder {
        FridaRecorder::default()
    }

    /// Record one call.
    pub fn record(&self, method: &str, args: &[&str]) {
        self.calls.lock().push(HookedCall {
            method: method.to_owned(),
            args: args.iter().map(|s| (*s).to_owned()).collect(),
        });
    }

    /// Snapshot of all calls.
    pub fn calls(&self) -> Vec<HookedCall> {
        self.calls.lock().clone()
    }
}

#[cfg(test)]
impl FridaRecorder {
    /// Calls to a specific method.
    pub fn calls_to(&self, method: &str) -> Vec<HookedCall> {
        self.calls
            .lock()
            .iter()
            .filter(|c| c.method == method)
            .cloned()
            .collect()
    }

    /// Whether any call beyond plain page loading happened — "when an app
    /// interacts with WebView beyond mere loading of the URL" (§3.2.2).
    pub fn interacts_beyond_loading(&self) -> bool {
        self.calls
            .lock()
            .iter()
            .any(|c| c.method != "loadUrl" || c.args.iter().any(|a| a.starts_with("javascript:")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_methods_and_args() {
        let rec = FridaRecorder::new();
        rec.record("loadUrl", &["https://example.com/"]);
        rec.record("addJavascriptInterface", &["obj", "fbpayIAWBridge"]);
        assert_eq!(rec.calls().len(), 2);
        assert_eq!(rec.calls_to("loadUrl").len(), 1);
        assert_eq!(
            rec.calls_to("addJavascriptInterface")[0].args[1],
            "fbpayIAWBridge"
        );
    }

    #[test]
    fn plain_loading_is_not_interaction() {
        let rec = FridaRecorder::new();
        rec.record("loadUrl", &["https://example.com/"]);
        assert!(!rec.interacts_beyond_loading());
        rec.record("loadUrl", &["javascript:(function(){})()"]);
        assert!(rec.interacts_beyond_loading());
    }

    #[test]
    fn evaluate_counts_as_interaction() {
        let rec = FridaRecorder::new();
        rec.record("evaluateJavascript", &["document.title"]);
        assert!(rec.interacts_beyond_loading());
    }

    #[test]
    fn shared_clone_sees_same_calls() {
        let rec = FridaRecorder::new();
        let other = rec.clone();
        rec.record("loadUrl", &["x"]);
        assert_eq!(other.calls().len(), 1);
    }
}
