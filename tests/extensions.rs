//! Integration coverage for the discussion-section extensions: website
//! defenses, Safe Browsing, bridges, OAuth, Partial CTs, fingerprinting,
//! privacy labels, the opt-out setting, and the Monkey contrast.

use whatcha_lookin_at::wla_corpus::ecosystem::top_thousand;
use whatcha_lookin_at::wla_device::browser::Browser;
use whatcha_lookin_at::wla_dynamic::classify::{classify_top_apps, PROBE_URL};
use whatcha_lookin_at::wla_net::NetLog;
use whatcha_lookin_at::wla_static::{grade_distribution, privacy_label, ExposureGrade};
use whatcha_lookin_at::Study;
use wla_extensions::fingerprint::{collect, DeviceProfile, Surface};
use wla_extensions::monkey::monkey_success_rate;
use wla_extensions::oauth::{run_oauth_flow, AuthMechanism};
use wla_extensions::website::Website;
use wla_extensions::CookieJar;

#[test]
fn scripted_driver_beats_the_monkey() {
    // §3.2.3: the scripted per-app crawler reaches every accessible UGC
    // app (the classification finds all 38), while Monkey at the same kind
    // of effort budget reaches only a fraction.
    let apps = top_thousand(21);
    let (counts, _) = classify_top_apps(&apps);
    assert_eq!(counts.can_post_links, 38); // scripted: every accessible one
    let monkey = monkey_success_rate(&apps, 21, 1_000);
    assert!(monkey < 0.5, "monkey rate {monkey}");
    assert!(!PROBE_URL.is_empty());
}

#[test]
fn privacy_labels_cover_the_corpus_and_track_bridges() {
    let study = Study::new(500, 17);
    let run = study.run_static();
    let out = whatcha_lookin_at::wla_static::run_pipeline(
        &run.corpus,
        &study.catalog,
        whatcha_lookin_at::wla_static::PipelineConfig::default(),
    );
    let labels: Vec<_> = out
        .analyzed()
        .map(|a| privacy_label(a, &study.catalog))
        .collect();
    let dist = grade_distribution(&labels);
    let total: usize = dist.iter().map(|(_, n)| *n).sum();
    assert_eq!(total, out.analyzed().count());
    // Cross-check against the pipeline's own bridge census.
    let high = labels
        .iter()
        .filter(|l| l.grade == ExposureGrade::High)
        .count();
    let bridge_apps = run
        .results
        .method_census
        .iter()
        .find(|m| m.method == "addJavascriptInterface")
        .unwrap()
        .apps;
    assert_eq!(high, bridge_apps);
}

#[test]
fn oauth_against_blocking_idp_mirrors_figure5() {
    let mut browser = Browser::new(NetLog::new());
    let mut cookies = CookieJar::new();
    let fb = Website::facebook();
    let wv = run_oauth_flow(
        AuthMechanism::EmbeddedWebView,
        "com.app",
        &fb,
        &mut browser,
        &mut cookies,
    );
    let ct = run_oauth_flow(
        AuthMechanism::CustomTab,
        "com.app",
        &fb,
        &mut browser,
        &mut cookies,
    );
    assert!(wv.refused_by_idp && !ct.refused_by_idp);
    assert!(!wv.trusted_ui && ct.trusted_ui);
}

#[test]
fn fingerprints_link_users_across_apps_only_via_webviews() {
    let device = DeviceProfile::pixel3();
    let apps = ["com.facebook.katana", "kik.android", "com.pinterest"];
    // WebView fingerprints: all distinct (per-app linkable identity).
    let wv: Vec<u64> = apps
        .iter()
        .map(|a| collect(&device, Surface::WebView, a).digest())
        .collect();
    let mut unique = wv.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), apps.len());
    // CT fingerprints: one shared identity.
    let ct: Vec<u64> = apps
        .iter()
        .map(|a| collect(&device, Surface::Browser, a).digest())
        .collect();
    assert!(ct.windows(2).all(|w| w[0] == w[1]));
}
