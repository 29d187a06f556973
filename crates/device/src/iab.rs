//! In-App Browser behaviour profiles — Table 8 as executable models.
//!
//! For each of the ten apps whose WebView-based IAB the paper instruments,
//! the profile lists the app's redirector (if any), the JS bridges it
//! injects, the script effects it runs, and the network endpoints its IAB
//! contacts as a function of page richness. [`open_in_iab`] drives a
//! profile through a page visit on the simulated device; everything the
//! paper measured (hooked WebView calls, Web-API beacons, netlog
//! endpoints) falls out of running it.

use crate::frida::FridaRecorder;
use crate::logcat::Logcat;
use crate::webview::{resolve_url, PageSource, WebViewInstance};
use std::sync::Arc;
use wla_net::netlog::host_of;
use wla_net::{NetLog, NetLogPhase};
use wla_web::script::{AdPayload, ScriptEffect, ScriptOutcome};

/// One endpoint the IAB contacts on its own initiative, gated on how
/// content-rich the visited page is (0 = always, 10 = only the richest).
/// A profile's rules are kept ordered by `min_richness`, so the set that
/// fires for a given page is always a prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EndpointRule {
    /// Host contacted.
    pub host: &'static str,
    /// Minimum page richness (0–10) for the contact to fire.
    pub min_richness: u8,
    /// The contact URL, made once with the rule and shared by every visit
    /// that fires it.
    pub url: Arc<str>,
}

impl EndpointRule {
    /// A rule contacting `https://{host}/collect` on pages of at least
    /// `min_richness`.
    pub fn new(host: &'static str, min_richness: u8) -> EndpointRule {
        EndpointRule {
            host,
            min_richness,
            url: format!("https://{host}/collect").into(),
        }
    }
}

/// Behaviour profile of one app's IAB.
#[derive(Debug, Clone)]
pub struct IabProfile {
    /// Display name.
    pub app_name: &'static str,
    /// Package name.
    pub package: &'static str,
    /// UGC surface the link was tapped on (Table 8's "WebView Via").
    pub surface: &'static str,
    /// Redirector host+path the tap routes through, if any.
    pub redirector: Option<&'static str>,
    /// JS bridge names injected via `addJavascriptInterface`.
    pub bridges: Vec<&'static str>,
    /// Whether the bridge class name is obfuscated (Pinterest).
    pub obfuscated_bridge: bool,
    /// Script effects injected after page load.
    pub scripts: Vec<ScriptEffect>,
    /// IAB-initiated endpoint contacts, ordered by `min_richness`.
    pub endpoint_rules: Vec<EndpointRule>,
}

#[cfg(test)]
impl IabProfile {
    /// Does the profile inject any HTML/JS?
    pub fn injects_js(&self) -> bool {
        !self.scripts.is_empty()
    }

    /// Does the profile inject any JS bridge?
    pub fn injects_bridge(&self) -> bool {
        !self.bridges.is_empty()
    }
}

/// The zero-size Google Ads payload Moj/Chingari/Kik inject on pages with
/// no compatible ad view.
fn google_ads_probe() -> ScriptEffect {
    ScriptEffect::AdProbe(AdPayload {
        ad_unit: "/21775744923/example/fixed".into(),
        source_host: "googleads.g.doubleclick.net".into(),
        width: 0,
        height: 0,
    })
}

/// All ten WebView-IAB profiles of Table 8.
pub fn all_profiles() -> Vec<IabProfile> {
    let meta_scripts = vec![
        ScriptEffect::InsertScriptElement {
            src: "//connect.facebook.net/en_US/iab.autofill.enhanced.js".into(),
            element_id: "instagram-autofill-sdk".into(),
        },
        ScriptEffect::DomTagCounts,
        ScriptEffect::SimHashPage,
        ScriptEffect::LogPerformance {
            dom_content_loaded_ms: 340,
        },
    ];
    let meta_bridges = vec![
        "fbpayIAWBridge",
        "metaCheckoutIAWBridge",
        "_AutofillExtensions",
    ];

    vec![
        IabProfile {
            app_name: "Facebook",
            package: "com.facebook.katana",
            surface: "Post",
            redirector: Some("lm.facebook.com/l.php"),
            bridges: meta_bridges.clone(),
            obfuscated_bridge: false,
            scripts: meta_scripts.clone(),
            endpoint_rules: vec![],
        },
        IabProfile {
            app_name: "Instagram",
            package: "com.instagram.android",
            surface: "DM",
            redirector: Some("l.instagram.com"),
            bridges: meta_bridges,
            obfuscated_bridge: false,
            scripts: meta_scripts,
            endpoint_rules: vec![],
        },
        IabProfile {
            app_name: "Snapchat",
            package: "com.snapchat.android",
            surface: "Story",
            redirector: None,
            bridges: vec![],
            obfuscated_bridge: false,
            scripts: vec![],
            endpoint_rules: vec![],
        },
        IabProfile {
            app_name: "Twitter",
            package: "com.twitter.android",
            surface: "DM",
            redirector: Some("t.co"),
            bridges: vec![],
            obfuscated_bridge: false,
            scripts: vec![],
            endpoint_rules: vec![],
        },
        IabProfile {
            app_name: "LinkedIn",
            package: "com.linkedin.android",
            surface: "Post",
            redirector: None,
            bridges: vec![],
            obfuscated_bridge: false,
            // The Cedexis Radar client runs as injected JS interacting with
            // the radar API; its network side is the endpoint rules below.
            scripts: vec![ScriptEffect::ReadOnlyScan],
            endpoint_rules: vec![
                EndpointRule::new("radar.cedexis.com", 0),
                EndpointRule::new("cedexis-radar.net", 0),
                EndpointRule::new("licdn.com", 2),
                EndpointRule::new("perf.linkedin.com", 4),
                EndpointRule::new("px.ads.linkedin.com", 5),
                EndpointRule::new("api.linkedin.com", 7),
                EndpointRule::new("www.linkedin.com", 8),
            ],
        },
        IabProfile {
            app_name: "Pinterest",
            package: "com.pinterest",
            surface: "DM",
            redirector: None,
            bridges: vec!["a"],
            obfuscated_bridge: true,
            scripts: vec![],
            endpoint_rules: vec![],
        },
        IabProfile {
            app_name: "Moj",
            package: "in.mohalla.video",
            surface: "Profile",
            redirector: None,
            bridges: vec!["googleAdsJsInterface"],
            obfuscated_bridge: false,
            scripts: vec![google_ads_probe()],
            endpoint_rules: vec![
                EndpointRule::new("googleads.g.doubleclick.net", 0),
                EndpointRule::new("pagead2.googlesyndication.com", 3),
            ],
        },
        IabProfile {
            app_name: "Chingari",
            package: "io.chingari.app",
            surface: "Bio",
            redirector: None,
            bridges: vec!["googleAdsJsInterface"],
            obfuscated_bridge: false,
            scripts: vec![google_ads_probe()],
            endpoint_rules: vec![
                EndpointRule::new("googleads.g.doubleclick.net", 0),
                EndpointRule::new("pagead2.googlesyndication.com", 3),
            ],
        },
        IabProfile {
            app_name: "Reddit",
            package: "com.reddit.frontpage",
            surface: "DM",
            redirector: None,
            bridges: vec![],
            obfuscated_bridge: false,
            scripts: vec![],
            endpoint_rules: vec![],
        },
        IabProfile {
            app_name: "Kik",
            package: "kik.android",
            surface: "DM",
            redirector: None,
            bridges: vec!["googleAdsJsInterface"],
            obfuscated_bridge: false,
            scripts: vec![google_ads_probe(), ScriptEffect::ReadOnlyScan],
            endpoint_rules: vec![
                EndpointRule::new("ads.mopub.com", 0),
                EndpointRule::new("supply.inmobicdn.net", 2),
                EndpointRule::new("googleads.g.doubleclick.net", 3),
                EndpointRule::new("cloudfront.net", 3),
                EndpointRule::new("adnxs.com", 4),
                EndpointRule::new("criteo.com", 4),
                EndpointRule::new("rubiconproject.com", 5),
                EndpointRule::new("openx.net", 5),
                EndpointRule::new("pubmatic.com", 6),
                EndpointRule::new("adsrvr.org", 6),
                EndpointRule::new("casalemedia.com", 7),
                EndpointRule::new("smartadserver.com", 7),
                EndpointRule::new("taboola.com", 7),
                EndpointRule::new("outbrain.com", 8),
                EndpointRule::new("amazon-adsystem.com", 8),
                EndpointRule::new("yieldmo.com", 8),
                EndpointRule::new("sharethrough.com", 9),
                EndpointRule::new("triplelift.com", 9),
            ],
        },
    ]
}

/// Profile lookup by package name.
pub fn profile_for(package: &str) -> Option<IabProfile> {
    all_profiles().into_iter().find(|p| p.package == package)
}

/// Result of driving a profile through one page visit.
#[derive(Debug)]
pub struct IabVisit {
    /// The WebView instance after the visit (session, bridges).
    pub webview: WebViewInstance,
    /// Script outcomes in injection order.
    pub outcomes: Vec<ScriptOutcome>,
    /// The URL the user asked for.
    pub requested_url: String,
    /// Redirector URL actually loaded first, if the app uses one.
    pub redirector_url: Option<String>,
}

/// Open `source` in the app's WebView-based IAB: redirector hop, page
/// load, bridge injection, script injection, and IAB-initiated endpoint
/// contacts — all recorded through the supplied recorder/netlog/logcat.
#[allow(clippy::too_many_arguments)] // mirrors the device wiring: every handle is distinct
pub fn open_in_iab(
    profile: &IabProfile,
    source_id: u32,
    source: PageSource,
    richness: u8,
    recorder: FridaRecorder,
    netlog: NetLog,
    logcat: Logcat,
    reporter: Option<std::net::SocketAddr>,
) -> IabVisit {
    let requested_url = source.url().to_owned();
    logcat.info(
        "ActivityManager",
        &format!(
            "START u0 {{cmp={}/.IabActivity}} (no VIEW intent raised)",
            profile.package
        ),
    );

    let mut webview = WebViewInstance::new(
        source_id,
        profile.package,
        recorder,
        netlog.clone(),
        logcat.clone(),
    );
    if let Some(addr) = reporter {
        webview = webview.with_reporter(addr);
    }

    // Redirector hop: the app routes the tap through its own tracker URL
    // ("which could be exploited for tracking the user", §4.2.1).
    let redirector_url = profile.redirector.map(|r| {
        let tracked = format!(
            "https://{r}?u={}&h=wla{:08x}",
            wla_net::http::form_encode(&requested_url),
            source_id.wrapping_mul(0x9E37_79B9)
        );
        netlog.record(source_id, &tracked, NetLogPhase::RequestSent);
        netlog.record(source_id, &tracked, NetLogPhase::ResponseReceived);
        tracked
    });

    webview.load(source);

    // Bridges first (apps inject them before page scripts run).
    for bridge in &profile.bridges {
        let class = if profile.obfuscated_bridge {
            "a.b.c".to_owned()
        } else {
            format!("com.{}.bridge.{bridge}", profile.app_name.to_lowercase())
        };
        webview.add_javascript_interface(&class, bridge);
    }

    // Script injections.
    let page_host = host_of(&requested_url).unwrap_or("localhost");
    let mut outcomes = Vec::new();
    for effect in &profile.scripts {
        if let Some(outcome) = webview.evaluate_javascript(effect) {
            // An inserted script element is fetched by the page, its
            // `src` resolved against the page as a subresource's is.
            if let ScriptOutcome::ScriptInserted {
                src,
                already_present: false,
            } = &outcome
            {
                let url = resolve_url(src, page_host);
                netlog.record(source_id, &url, NetLogPhase::RequestSent);
                netlog.record(source_id, &url, NetLogPhase::ResponseReceived);
            }
            outcomes.push(outcome);
        }
    }

    // IAB-initiated endpoint contacts, richness-gated. Rules are ordered
    // by `min_richness`, so the firing set is a prefix.
    let fired = profile
        .endpoint_rules
        .partition_point(|rule| richness >= rule.min_richness);
    netlog.record_request_pairs(
        source_id,
        profile.endpoint_rules[..fired].iter().map(|rule| &rule.url),
        1,
    );

    IabVisit {
        webview,
        outcomes,
        requested_url,
        redirector_url,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wla_web::testpage::test_page_html;

    fn visit(package: &str, richness: u8) -> (IabVisit, NetLog, FridaRecorder) {
        let profile = profile_for(package).expect("profile");
        let netlog = NetLog::new();
        let recorder = FridaRecorder::new();
        let visit = open_in_iab(
            &profile,
            42,
            PageSource::Synthetic {
                url: "https://example.com/".into(),
                html: test_page_html(),
                extra_requests: vec![],
            },
            richness,
            recorder.clone(),
            netlog.clone(),
            Logcat::new(),
            None,
        );
        (visit, netlog, recorder)
    }

    #[test]
    fn endpoint_rules_are_richness_ordered() {
        for p in all_profiles() {
            assert!(
                p.endpoint_rules
                    .windows(2)
                    .all(|w| w[0].min_richness <= w[1].min_richness),
                "{}",
                p.app_name
            );
            for rule in &p.endpoint_rules {
                assert_eq!(rule.url.as_ref(), format!("https://{}/collect", rule.host));
            }
        }
    }

    #[test]
    fn ten_profiles_match_table8() {
        let profiles = all_profiles();
        assert_eq!(profiles.len(), 10);
        let get = |n: &str| profiles.iter().find(|p| p.app_name == n).unwrap();
        // No-injection apps.
        for app in ["Snapchat", "Twitter", "Reddit"] {
            let p = get(app);
            assert!(!p.injects_js() && !p.injects_bridge(), "{app}");
        }
        // Pinterest: obfuscated bridge, no JS.
        let pinterest = get("Pinterest");
        assert!(pinterest.injects_bridge() && pinterest.obfuscated_bridge);
        assert!(!pinterest.injects_js());
        // Meta apps inject both.
        for app in ["Facebook", "Instagram"] {
            let p = get(app);
            assert!(p.injects_js() && p.injects_bridge(), "{app}");
            assert!(p.bridges.contains(&"fbpayIAWBridge"));
        }
        // Ad-injecting apps share the Google Ads bridge.
        for app in ["Moj", "Chingari", "Kik"] {
            assert!(get(app).bridges.contains(&"googleAdsJsInterface"), "{app}");
        }
    }

    #[test]
    fn facebook_visit_produces_meta_behaviours() {
        let (visit, netlog, recorder) = visit("com.facebook.katana", 0);
        // Redirector hop observed.
        let red = visit.redirector_url.expect("redirector");
        assert!(red.contains("lm.facebook.com"));
        assert!(red.contains("u=https%3A%2F%2Fexample.com"));
        // All three bridges exposed.
        assert_eq!(visit.webview.bridges().len(), 3);
        // Four script outcomes; autofill script fetched from Meta's CDN.
        assert_eq!(visit.outcomes.len(), 4);
        assert!(netlog
            .distinct_hosts_for(42)
            .contains("connect.facebook.net"));
        // Frida saw injections beyond loading.
        assert!(recorder.interacts_beyond_loading());
    }

    #[test]
    fn an_inserted_script_resolves_against_the_page() {
        let mut profile = profile_for("com.facebook.katana").expect("profile");
        profile.scripts = vec![ScriptEffect::InsertScriptElement {
            src: "/sdk/loader.js".into(),
            element_id: "relative-loader".into(),
        }];
        let netlog = NetLog::new();
        open_in_iab(
            &profile,
            42,
            PageSource::Synthetic {
                url: "https://example.com/article".into(),
                html: test_page_html(),
                extra_requests: vec![],
            },
            0,
            FridaRecorder::new(),
            netlog.clone(),
            Logcat::new(),
            None,
        );
        let mut fetched = Vec::new();
        netlog.for_each_request_url(42, |url| fetched.push(url.to_string()));
        assert!(
            fetched
                .iter()
                .any(|u| u == "https://example.com/sdk/loader.js"),
            "{fetched:?}"
        );
    }

    #[test]
    fn snapchat_visit_is_clean() {
        let (visit, netlog, recorder) = visit("com.snapchat.android", 10);
        assert!(visit.outcomes.is_empty());
        assert!(visit.webview.bridges().is_empty());
        assert!(visit.redirector_url.is_none());
        // Only the page and its own subresources — no IAB endpoints.
        for host in netlog.distinct_hosts_for(42) {
            assert!(
                host == "example.com"
                    || host.ends_with(".example.com")
                    || host == "cdn.example"
                    || host.contains("localhost"),
                "unexpected host {host}"
            );
        }
        // Plain loading only.
        assert!(!recorder.interacts_beyond_loading());
    }

    #[test]
    fn kik_endpoints_scale_with_richness() {
        let (_, netlog_poor, _) = visit("kik.android", 0);
        let poor = netlog_poor.distinct_hosts_for(42).len();
        let (_, netlog_rich, _) = visit("kik.android", 10);
        let rich = netlog_rich.distinct_hosts_for(42).len();
        assert!(rich > poor + 10, "poor={poor} rich={rich}");
        assert!(netlog_rich.distinct_hosts_for(42).contains("ads.mopub.com"));
        assert!(netlog_rich
            .distinct_hosts_for(42)
            .contains("supply.inmobicdn.net"));
    }

    #[test]
    fn moj_ad_probe_reports_no_ad_view() {
        let (visit, _, _) = visit("in.mohalla.video", 0);
        assert_eq!(visit.outcomes.len(), 1);
        assert_eq!(
            visit.outcomes[0],
            ScriptOutcome::AdResult {
                displayed: false,
                not_visible_reason: Some("noAdView".into()),
            }
        );
    }

    #[test]
    fn linkedin_contacts_cedexis_even_on_plain_pages() {
        let (_, netlog, _) = visit("com.linkedin.android", 0);
        let hosts = netlog.distinct_hosts_for(42);
        assert!(hosts.contains("radar.cedexis.com"));
        assert!(hosts.contains("cedexis-radar.net"));
        assert!(!hosts.contains("px.ads.linkedin.com")); // needs rich pages
    }
}
