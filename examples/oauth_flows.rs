//! OAuth flows per RFC 8252: the same authorization run through an
//! embedded WebView and through a Custom Tab, against an ordinary IDP and
//! against one that blocks embedded browsers (Facebook, Figure 5).
//!
//! ```sh
//! cargo run --release --example oauth_flows
//! ```

use whatcha_lookin_at::wla_device::browser::Browser;
use whatcha_lookin_at::wla_net::NetLog;
use wla_extensions::oauth::{run_oauth_flow, AuthMechanism, OAuthOutcome};
use wla_extensions::website::{WebViewLoginPolicy, Website};
use wla_extensions::CookieJar;

fn show(label: &str, out: &OAuthOutcome) {
    println!("{label}");
    println!("  authorized:            {}", out.authorized);
    println!("  session reused:        {}", out.session_reused);
    println!(
        "  credentials typed into app surface: {}",
        out.credentials_typed_in_app_surface
    );
    println!("  trusted browser UI:    {}", out.trusted_ui);
    println!("  refused by IDP:        {}\n", out.refused_by_idp);
}

fn main() {
    let idp = Website::new("login.idp.example", WebViewLoginPolicy::Allow);
    let mut browser = Browser::new(NetLog::new());
    let mut cookies = CookieJar::new();
    cookies.login("login.idp.example"); // user signed in yesterday

    show(
        "— Custom Tab flow (RFC 8252 best practice) —",
        &run_oauth_flow(
            AuthMechanism::CustomTab,
            "com.game.app",
            &idp,
            &mut browser,
            &mut cookies,
        ),
    );
    show(
        "— Embedded WebView flow —",
        &run_oauth_flow(
            AuthMechanism::EmbeddedWebView,
            "com.game.app",
            &idp,
            &mut browser,
            &mut cookies,
        ),
    );

    println!("— Against Facebook (blocks embedded browsers since 2021) —\n");
    let fb = Website::facebook();
    show(
        "  via WebView:",
        &run_oauth_flow(
            AuthMechanism::EmbeddedWebView,
            "com.game.app",
            &fb,
            &mut browser,
            &mut cookies,
        ),
    );
    show(
        "  via Custom Tab:",
        &run_oauth_flow(
            AuthMechanism::CustomTab,
            "com.game.app",
            &fb,
            &mut browser,
            &mut cookies,
        ),
    );
}
