//! Top-1K hyperlink-click classification — Table 6.
//!
//! The paper installs each app on a Pixel, creates dummy accounts where
//! needed, finds surfaces with user-generated links, posts
//! `https://example.com`, and follows it. The classifier here does the
//! same against the simulated device: every verdict comes from *observing*
//! the tap (which runtime surface opened, what logcat shows), not from
//! reading the ground-truth spec directly.

use std::collections::BTreeMap;
use wla_corpus::ecosystem::{AccessGate, LinkBehavior, TopAppSpec};
use wla_device::browser::Browser;
use wla_device::customtabs::CustomTab;
use wla_device::iab::{open_in_iab, profile_for, IabProfile};
use wla_device::intent::{resolve_intent, Intent, IntentTarget};
use wla_device::webview::PageSource;
use wla_device::{FridaRecorder, Logcat};
use wla_net::{NetLog, NetLogPhase};

/// The probe URL the paper submits.
pub const PROBE_URL: &str = "https://example.com";

/// What the analyst observed for one app.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClassificationOutcome {
    /// Link opened in the default browser (a Web URI intent was raised).
    OpensInBrowser,
    /// Link opened in a WebView-based IAB (no intent; WebView activity).
    OpensInWebViewIab,
    /// Link opened in a Custom Tab.
    OpensInCustomTab,
    /// No surface with user-posted links exists.
    NoUserLinks,
    /// The app itself is a browser.
    BrowserApp,
    /// Could not classify (with the blocking gate).
    Unclassifiable(AccessGate),
}

/// Simulate tapping the probe link inside `app`, returning what the
/// analyst observes. The app's runtime behaviour (IAB vs intent) comes
/// from executing the corresponding device path and leaves real traces in
/// `logcat`/`netlog`; the observation is derived from those traces.
fn tap_link(
    app: &TopAppSpec,
    browser: &mut Browser,
    netlog: &NetLog,
    logcat: &Logcat,
    source_id: u32,
) -> ClassificationOutcome {
    match app.link_behavior {
        LinkBehavior::OpensBrowser => {
            // The app raises a Web URI intent; Android resolves it.
            let intent = Intent::view(PROBE_URL);
            logcat.info(
                "ActivityManager",
                &format!("START u0 {{act=android.intent.action.VIEW dat={PROBE_URL}}}"),
            );
            match resolve_intent(&intent, &[]) {
                IntentTarget::DefaultBrowser => {
                    let tab_source = browser.allocate_source();
                    browser
                        .netlog
                        .record(tab_source, PROBE_URL, NetLogPhase::RequestSent);
                }
                other => {
                    logcat.info("ActivityManager", &format!("resolved to {other:?}"));
                }
            }
        }
        LinkBehavior::OpensWebViewIab => {
            // The app intercepts the tap: no VIEW intent in logcat.
            let profile = profile_for(&app.package).unwrap_or_else(|| generic_iab(&app.package));
            let _ = open_in_iab(
                &profile,
                source_id,
                PageSource::Synthetic {
                    url: PROBE_URL.to_owned(),
                    html: "<html><body><h1>Example Domain</h1></body></html>".into(),
                    extra_requests: vec![],
                },
                0,
                FridaRecorder::new(),
                netlog.clone(),
                logcat.clone(),
                None,
            );
        }
        LinkBehavior::OpensCustomTab => {
            let _ = CustomTab::launch(browser, PROBE_URL, "<h1>Example Domain</h1>");
        }
    }

    // --- Observation phase: what did the device traces show? ---
    let intent_raised = logcat.contains("act=android.intent.action.VIEW");
    let iab_activity = logcat.contains(".IabActivity");
    let app_webview_loaded = !netlog.events_for(source_id).is_empty();
    let browser_tab_loaded = netlog
        .events()
        .iter()
        .any(|e| e.source_id >= 1_000 && e.url.starts_with(PROBE_URL));

    if intent_raised && browser_tab_loaded {
        ClassificationOutcome::OpensInBrowser
    } else if iab_activity || app_webview_loaded {
        ClassificationOutcome::OpensInWebViewIab
    } else if browser_tab_loaded {
        // Browser context without an intent: a Custom Tab.
        ClassificationOutcome::OpensInCustomTab
    } else {
        // Nothing observable happened; treat as browser default.
        ClassificationOutcome::OpensInBrowser
    }
}

/// A generic WebView IAB for link-intercepting apps without a named
/// Table 8 profile.
fn generic_iab(package: &str) -> IabProfile {
    IabProfile {
        app_name: "generic",
        package: Box::leak(package.to_owned().into_boxed_str()),
        surface: "Post",
        redirector: None,
        bridges: vec![],
        obfuscated_bridge: false,
        scripts: vec![],
        endpoint_rules: vec![],
    }
}

/// User-controlled device/app settings affecting link handling.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkSettings {
    /// "Disable in-app browsers" — the opt-out §5 notes some apps offer
    /// (and recommends making opt-in). When set, apps that would open a
    /// WebView IAB raise a Web URI intent instead.
    pub disable_in_app_browsers: bool,
}

/// Classify one app under explicit settings.
pub fn classify_app_with_settings(
    app: &TopAppSpec,
    source_id: u32,
    settings: LinkSettings,
) -> ClassificationOutcome {
    // Installation / account-creation gates first.
    if let Some(gate) = app.gate {
        return ClassificationOutcome::Unclassifiable(gate);
    }
    if app.is_browser {
        return ClassificationOutcome::BrowserApp;
    }
    if app.ugc.is_none() {
        return ClassificationOutcome::NoUserLinks;
    }
    let mut effective = app.clone();
    if settings.disable_in_app_browsers && effective.link_behavior == LinkBehavior::OpensWebViewIab
    {
        effective.link_behavior = LinkBehavior::OpensBrowser;
    }
    let netlog = NetLog::new();
    let logcat = Logcat::new();
    let mut browser = Browser::new(netlog.clone());
    tap_link(&effective, &mut browser, &netlog, &logcat, source_id)
}

/// Classify one app with default settings.
pub fn classify_app(app: &TopAppSpec, source_id: u32) -> ClassificationOutcome {
    classify_app_with_settings(app, source_id, LinkSettings::default())
}

/// Table 6's row counts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Table6Counts {
    /// Users can post links.
    pub can_post_links: usize,
    /// …of which: link opens in browser.
    pub opens_browser: usize,
    /// …of which: link opens in a WebView IAB.
    pub opens_webview: usize,
    /// …of which: link opens in a CT.
    pub opens_ct: usize,
    /// Users cannot post links.
    pub no_user_links: usize,
    /// Browser apps.
    pub browser_apps: usize,
    /// Could not classify.
    pub unclassifiable: usize,
    /// …of which: required a phone number.
    pub required_phone: usize,
    /// …of which: app incompatibility.
    pub incompatible: usize,
    /// …of which: required a paid account.
    pub required_paid: usize,
}

/// Classify the whole top-1K population and tally Table 6. Also returns
/// per-app outcomes for downstream selection of the WebView-IAB set.
pub fn classify_top_apps(
    apps: &[TopAppSpec],
) -> (Table6Counts, BTreeMap<String, ClassificationOutcome>) {
    let mut counts = Table6Counts::default();
    let mut outcomes = BTreeMap::new();
    for (i, app) in apps.iter().enumerate() {
        let outcome = classify_app(app, i as u32 + 1);
        match &outcome {
            ClassificationOutcome::OpensInBrowser => {
                counts.can_post_links += 1;
                counts.opens_browser += 1;
            }
            ClassificationOutcome::OpensInWebViewIab => {
                counts.can_post_links += 1;
                counts.opens_webview += 1;
            }
            ClassificationOutcome::OpensInCustomTab => {
                counts.can_post_links += 1;
                counts.opens_ct += 1;
            }
            ClassificationOutcome::NoUserLinks => counts.no_user_links += 1,
            ClassificationOutcome::BrowserApp => counts.browser_apps += 1,
            ClassificationOutcome::Unclassifiable(gate) => {
                counts.unclassifiable += 1;
                match gate {
                    AccessGate::PhoneNumber => counts.required_phone += 1,
                    AccessGate::Incompatible => counts.incompatible += 1,
                    AccessGate::PaidAccount => counts.required_paid += 1,
                }
            }
        }
        outcomes.insert(app.package.clone(), outcome);
    }
    (counts, outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wla_corpus::ecosystem::top_thousand;

    #[test]
    fn table6_counts_match_paper() {
        let apps = top_thousand(1234);
        let (counts, outcomes) = classify_top_apps(&apps);
        assert_eq!(counts.can_post_links, 38);
        assert_eq!(counts.opens_browser, 27);
        assert_eq!(counts.opens_webview, 10);
        assert_eq!(counts.opens_ct, 1);
        assert_eq!(counts.no_user_links, 905);
        assert_eq!(counts.browser_apps, 9);
        assert_eq!(counts.unclassifiable, 48);
        assert_eq!(counts.required_phone, 24);
        assert_eq!(counts.incompatible, 22);
        assert_eq!(counts.required_paid, 2);
        assert_eq!(outcomes.len(), 1_000);
    }

    #[test]
    fn facebook_observed_as_webview_iab() {
        let apps = top_thousand(5);
        let fb = apps
            .iter()
            .find(|a| a.package == "com.facebook.katana")
            .unwrap();
        assert_eq!(
            classify_app(fb, 99),
            ClassificationOutcome::OpensInWebViewIab
        );
    }

    #[test]
    fn discord_observed_as_custom_tab() {
        let apps = top_thousand(5);
        let discord = apps.iter().find(|a| a.package == "com.discord").unwrap();
        assert_eq!(
            classify_app(discord, 99),
            ClassificationOutcome::OpensInCustomTab
        );
    }

    #[test]
    fn browser_opener_observed_via_intent() {
        let apps = top_thousand(5);
        let opener = apps
            .iter()
            .find(|a| a.ugc.is_some() && a.link_behavior == LinkBehavior::OpensBrowser)
            .unwrap();
        assert_eq!(
            classify_app(opener, 99),
            ClassificationOutcome::OpensInBrowser
        );
    }

    #[test]
    fn gates_block_classification() {
        let apps = top_thousand(5);
        let gated = apps.iter().find(|a| a.gate.is_some()).unwrap();
        assert!(matches!(
            classify_app(gated, 99),
            ClassificationOutcome::Unclassifiable(_)
        ));
    }
}

#[cfg(test)]
mod settings_tests {
    use super::*;
    use wla_corpus::ecosystem::top_thousand;

    #[test]
    fn disabling_iabs_reroutes_webview_apps_to_the_browser() {
        let apps = top_thousand(7);
        let fb = apps
            .iter()
            .find(|a| a.package == "com.facebook.katana")
            .unwrap();
        let settings = LinkSettings {
            disable_in_app_browsers: true,
        };
        assert_eq!(
            classify_app_with_settings(fb, 1, settings),
            ClassificationOutcome::OpensInBrowser
        );
        // Without the opt-out, the IAB opens.
        assert_eq!(
            classify_app(fb, 2),
            ClassificationOutcome::OpensInWebViewIab
        );
        // The CT app is unaffected (CTs are not the privacy problem).
        let discord = apps.iter().find(|a| a.package == "com.discord").unwrap();
        assert_eq!(
            classify_app_with_settings(discord, 3, settings),
            ClassificationOutcome::OpensInCustomTab
        );
    }
}
