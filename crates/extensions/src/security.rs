//! Executable versions of Table 1's attack-surface rows.
//!
//! * **Safe Browsing** (§4.1.1): "Ad SDKs can choose to disable
//!   SafeBrowsing \[in a WebView\], whereas Ad SDKs using CTs would be
//!   subject to SafeBrowsing unless the user has explicitly disabled it in
//!   their browser." [`SafeBrowsing`] is the threat-intelligence service;
//!   WebViews consult it only when their own setting allows, Custom Tabs
//!   always go through the browser's.
//! * **JS-bridge exposure** (Mahmud et al., §4.1.4): a bridge injected
//!   with `addJavascriptInterface` is callable by *any* page loaded in the
//!   WebView — [`BridgeHost`] models the native object, and
//!   [`page_invoke_bridge`] is the malicious page's call. The CT analog
//!   does not exist: `CustomTab` has no bridge API at all.

use parking_lot::RwLock;
use std::collections::HashSet;
use std::sync::Arc;
use wla_device::webview::WebViewInstance;

/// A Safe-Browsing-style URL reputation service.
#[derive(Debug, Default, Clone)]
pub struct SafeBrowsing {
    flagged_hosts: Arc<RwLock<HashSet<String>>>,
}

impl SafeBrowsing {
    /// Empty blocklist.
    pub fn new() -> SafeBrowsing {
        SafeBrowsing::default()
    }

    /// Flag a host as dangerous.
    pub fn flag(&self, host: &str) {
        self.flagged_hosts.write().insert(host.to_owned());
    }

    /// Is the URL's host flagged?
    pub fn is_flagged(&self, url: &str) -> bool {
        match wla_net::netlog::host_of(url) {
            Some(host) => self.flagged_hosts.read().contains(host),
            None => false,
        }
    }

    /// Verdict for a load attempted by a WebView with the given setting:
    /// blocked only when the check actually runs.
    pub fn webview_verdict(&self, url: &str, safe_browsing_enabled: bool) -> LoadVerdict {
        if safe_browsing_enabled && self.is_flagged(url) {
            LoadVerdict::Blocked
        } else if self.is_flagged(url) {
            LoadVerdict::LoadedDespiteThreat
        } else {
            LoadVerdict::Loaded
        }
    }

    /// Verdict for a Custom-Tab load: the browser's check always runs.
    pub fn custom_tab_verdict(&self, url: &str) -> LoadVerdict {
        if self.is_flagged(url) {
            LoadVerdict::Blocked
        } else {
            LoadVerdict::Loaded
        }
    }
}

/// Outcome of a guarded load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadVerdict {
    /// Clean URL, loaded.
    Loaded,
    /// Flagged URL, interstitial shown.
    Blocked,
    /// Flagged URL loaded anyway — the WebView had Safe Browsing off.
    LoadedDespiteThreat,
}

/// The kinds of data a real payment/identity bridge exposes (Mahmud et
/// al. found 20 SDKs breaching OWASP MASVS PLAT-4 this way).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BridgeData {
    /// Cardholder data from a payment SDK.
    PaymentCard {
        /// PAN (already a breach to expose).
        number: String,
        /// Cardholder.
        holder: String,
    },
    /// Profile data from an identity SDK.
    UserProfile {
        /// Real name.
        name: String,
        /// Email.
        email: String,
    },
    /// No sensitive payload.
    Benign,
}

/// A native object registered via `addJavascriptInterface`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BridgeHost {
    /// Bridge name as exposed to JS.
    pub name: String,
    /// What `getData()` returns to the page.
    pub data: BridgeData,
}

/// A page's attempt to call `window.<bridge>.getData()`. Succeeds iff the
/// WebView actually exposed the bridge — which is exactly the attack
/// surface: the page does not have to be the page the SDK intended.
pub fn page_invoke_bridge(
    webview: &WebViewInstance,
    hosts: &[BridgeHost],
    bridge_name: &str,
) -> Option<BridgeData> {
    if !webview.bridges().iter().any(|b| b == bridge_name) {
        return None;
    }
    hosts
        .iter()
        .find(|h| h.name == bridge_name)
        .map(|h| h.data.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use wla_device::frida::FridaRecorder;
    use wla_device::logcat::Logcat;
    use wla_device::webview::PageSource;
    use wla_net::NetLog;

    fn webview() -> WebViewInstance {
        WebViewInstance::new(
            1,
            "com.app",
            FridaRecorder::new(),
            NetLog::new(),
            Logcat::new(),
        )
    }

    #[test]
    fn safe_browsing_blocks_when_enabled() {
        let sb = SafeBrowsing::new();
        sb.flag("malware.example");
        assert_eq!(
            sb.webview_verdict("https://malware.example/drop", true),
            LoadVerdict::Blocked
        );
        assert_eq!(
            sb.webview_verdict("https://clean.example/", true),
            LoadVerdict::Loaded
        );
    }

    #[test]
    fn webview_with_safebrowsing_off_loads_threats() {
        // The Table 1 asymmetry: the app (or an ad SDK) can switch the
        // check off in a WebView; it cannot in a CT.
        let sb = SafeBrowsing::new();
        sb.flag("cryptojack.example");
        assert_eq!(
            sb.webview_verdict("https://cryptojack.example/miner.js", false),
            LoadVerdict::LoadedDespiteThreat
        );
        assert_eq!(
            sb.custom_tab_verdict("https://cryptojack.example/miner.js"),
            LoadVerdict::Blocked
        );
    }

    #[test]
    fn any_page_can_call_an_exposed_bridge() {
        let mut wv = webview();
        wv.load(PageSource::Synthetic {
            url: "https://attacker.example/".into(),
            html: "<p>innocent looking page</p>".into(),
            extra_requests: vec![],
        });
        // A payment SDK exposed its checkout bridge earlier in the session.
        wv.add_javascript_interface("com.paysdk.CheckoutBridge", "checkoutBridge");
        let hosts = [BridgeHost {
            name: "checkoutBridge".into(),
            data: BridgeData::PaymentCard {
                number: "4111111111111111".into(),
                holder: "A. User".into(),
            },
        }];
        // The attacker's page reads the card data.
        let leaked = page_invoke_bridge(&wv, &hosts, "checkoutBridge");
        assert!(matches!(leaked, Some(BridgeData::PaymentCard { .. })));
    }

    #[test]
    fn unexposed_bridge_is_unreachable() {
        let wv = webview();
        let hosts = [BridgeHost {
            name: "fbpayIAWBridge".into(),
            data: BridgeData::UserProfile {
                name: "A".into(),
                email: "a@example.com".into(),
            },
        }];
        assert_eq!(page_invoke_bridge(&wv, &hosts, "fbpayIAWBridge"), None);
    }
}
