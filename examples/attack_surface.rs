//! Attack-surface demo: Table 1's security rows, executed.
//!
//! Walks through four contrasts between a WebView and a Custom Tab on the
//! simulated device: Safe Browsing, JS-bridge data exposure, cookie/session
//! isolation, and the trusted-UI / IDP-blocking story of Figure 5.
//!
//! ```sh
//! cargo run --release --example attack_surface
//! ```

use whatcha_lookin_at::wla_device::browser::Browser;
use whatcha_lookin_at::wla_device::customtabs::CustomTab;
use whatcha_lookin_at::wla_device::webview::{PageSource, WebViewInstance};
use whatcha_lookin_at::wla_device::{FridaRecorder, Logcat};
use whatcha_lookin_at::wla_net::NetLog;
use wla_extensions::customtabs::{session_restored, CookieJar};
use wla_extensions::security::{page_invoke_bridge, BridgeData, BridgeHost, SafeBrowsing};
use wla_extensions::website::{ClientContext, Website};

fn main() {
    println!("== 1. Safe Browsing can be switched off in a WebView ==");
    let sb = SafeBrowsing::new();
    sb.flag("malvertising.example");
    let url = "https://malvertising.example/creative.html";
    println!(
        "  WebView, SafeBrowsing on : {:?}",
        sb.webview_verdict(url, true)
    );
    println!(
        "  WebView, SafeBrowsing off: {:?}   <- an ad SDK can do this",
        sb.webview_verdict(url, false)
    );
    println!(
        "  Custom Tab               : {:?}\n",
        sb.custom_tab_verdict(url)
    );

    println!("== 2. JS bridges leak to any loaded page ==");
    let mut wv = WebViewInstance::new(
        1,
        "com.shopping.app",
        FridaRecorder::new(),
        NetLog::new(),
        Logcat::new(),
    );
    wv.add_javascript_interface("com.paysdk.Checkout", "checkoutBridge");
    wv.load(PageSource::Synthetic {
        url: "https://attacker.example/free-gift".into(),
        html: "<h1>You won!</h1>".into(),
        extra_requests: vec![],
    });
    let hosts = [BridgeHost {
        name: "checkoutBridge".into(),
        data: BridgeData::PaymentCard {
            number: "4111 1111 1111 1111".into(),
            holder: "A. User".into(),
        },
    }];
    match page_invoke_bridge(&wv, &hosts, "checkoutBridge") {
        Some(BridgeData::PaymentCard { number, holder }) => {
            println!("  attacker page read via window.checkoutBridge: {holder} / {number}")
        }
        other => println!("  bridge call result: {other:?}"),
    }
    println!("  (a CustomTab has no addJavascriptInterface — nothing to leak)\n");

    println!("== 3. Session isolation vs session restore ==");
    let netlog = NetLog::new();
    let mut browser = Browser::new(netlog.clone());
    let mut browser_cookies = CookieJar::new();
    browser_cookies.login("social.example");
    let tab = CustomTab::launch(&mut browser, "https://social.example/feed", "<p>feed</p>");
    println!(
        "  Custom Tab session restored: {}",
        session_restored(&tab, &browser_cookies)
    );
    let mut wv2 = WebViewInstance::new(
        2,
        "com.other.app",
        FridaRecorder::new(),
        netlog,
        Logcat::new(),
    );
    wv2.load(PageSource::Synthetic {
        url: "https://social.example/feed".into(),
        html: "<p>feed</p>".into(),
        extra_requests: vec![],
    });
    println!(
        "  WebView sees the session:    {} (own cold cookie jar)\n",
        CookieJar::new().is_logged_in("social.example")
    );

    println!("== 4. The IDP's view (Figure 5) ==");
    let fb = Website::facebook();
    let via_wv = fb.login_page(&ClientContext::webview("com.some.app"));
    let via_ct = fb.login_page(&ClientContext::browser());
    println!("  login via WebView possible: {}", via_wv.login_possible());
    println!("  login via CT/browser:       {}", via_ct.login_possible());
}
