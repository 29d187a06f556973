//! The paper's SDK catalog.
//!
//! Every SDK named in Table 4 (WebView) or Table 5 (Custom Tabs) appears
//! here with its published app count as a calibration target. The paper
//! additionally *counted* SDKs it did not name (Table 3: 46 advertising
//! SDKs use WebViews, but Table 4 names only five, and §4.1.2 names
//! AdColony and Ogury with approximate counts). For those we synthesize
//! entries with real-world SDK names and plausible package prefixes so the
//! per-category SDK counts of Table 3 are met exactly:
//!
//! | Category            | WebView | CT | Both |
//! |---------------------|---------|----|------|
//! | Advertising         | 46      | 3  | 3    |
//! | Payments            | 15      | 6  | 5    |
//! | Development Tools   | 11      | 7  | 5    |
//! | Engagement          | 12      | 0  | 0    |
//! | Social              | 10      | 6  | 4    |
//! | Authentication      | 7       | 10 | 6    |
//! | Unknown             | 10      | 4  | 4    |
//! | Hybrid Functionality| 6       | 7  | 5    |
//! | Utility             | 4       | 2  | 2    |
//! | User Support        | 4       | 0  | 0    |
//! | **Total**           | **125** | **45** | **34** |
//!
//! Plus 4 obfuscated packages (not in Table 3's category counts) — with the
//! excluded `com.google.android`, that is the paper's 141 packages each used
//! by more than 100 apps.

use crate::{Sdk, SdkCategory, WebMechanism};
use SdkCategory::*;
use WebMechanism::{Both, CustomTabs as Ct, WebView as Wv};

/// A categorized entry.
const fn sdk(
    name: &'static str,
    category: SdkCategory,
    mechanism: WebMechanism,
    prefixes: &'static [&'static str],
    wv_apps: u32,
    ct_apps: u32,
) -> Sdk {
    Sdk {
        name,
        category,
        prefixes,
        mechanism,
        wv_apps,
        ct_apps,
        obfuscated: false,
    }
}

/// One of the four obfuscated packages: WebView only, outside Table 3's
/// categories.
const fn obfuscated(name: &'static str, prefixes: &'static [&'static str], wv_apps: u32) -> Sdk {
    Sdk {
        obfuscated: true,
        ..sdk(name, Unknown, Wv, prefixes, wv_apps, 0)
    }
}

/// Tables 3–5 as data, in catalog-index order: one entry per line.
#[rustfmt::skip]
static PAPER_CATALOG: [Sdk; 140] = [
    // ---------------- Advertising: 46 WV / 3 CT / 3 both ----------------
    // Table 4 names the top five; §4.1.2 names AdColony and Ogury; §4.1.1
    // says the three CT ad SDKs all also use WebViews.
    sdk("AppLovin", Advertising, Wv, &["com.applovin"], 27_397, 0),
    sdk("ironSource", Advertising, Wv, &["com.ironsource"], 16_326, 0),
    sdk("ByteDance", Advertising, Wv, &["com.bytedance"], 13_080, 0),
    sdk("InMobi", Advertising, Wv, &["com.inmobi"], 10_066, 0),
    sdk("Digital Turbine", Advertising, Wv, &["com.fyber", "com.digitalturbine"], 8_654, 0),
    sdk("HyprMX", Advertising, Both, &["com.hyprmx"], 1_257, 1_257),
    sdk("Linkvertise", Advertising, Both, &["com.linkvertise"], 383, 383),
    sdk("Taboola", Advertising, Both, &["com.taboola"], 317, 317),
    // Unnamed members of the 46 (real ad networks, synthesized counts).
    sdk("AdColony", Advertising, Wv, &["com.adcolony"], 10_600, 0),
    sdk("Unity Ads", Advertising, Wv, &["com.unity3d.ads"], 8_900, 0),
    sdk("Vungle", Advertising, Wv, &["com.vungle"], 7_200, 0),
    sdk("Chartboost", Advertising, Wv, &["com.chartboost"], 5_100, 0),
    sdk("Mintegral", Advertising, Wv, &["com.mintegral"], 4_800, 0),
    sdk("Tapjoy", Advertising, Wv, &["com.tapjoy"], 3_900, 0),
    sdk("Start.io", Advertising, Wv, &["com.startapp"], 3_400, 0),
    sdk("Smaato", Advertising, Wv, &["com.smaato"], 2_900, 0),
    sdk("Appodeal", Advertising, Wv, &["com.appodeal"], 2_600, 0),
    sdk("Criteo", Advertising, Wv, &["com.criteo"], 2_300, 0),
    sdk("Amazon Ads", Advertising, Wv, &["com.amazon.device.ads"], 2_100, 0),
    sdk("Yandex Ads", Advertising, Wv, &["com.yandex.mobile.ads"], 1_900, 0),
    sdk("myTarget", Advertising, Wv, &["com.my.target"], 1_700, 0),
    sdk("MoPub", Advertising, Wv, &["com.mopub"], 1_600, 0),
    sdk("Ogury", Advertising, Wv, &["io.presage"], 1_400, 0),
    sdk("Adfurikun", Advertising, Wv, &["jp.tjkapp.adfurikun"], 1_200, 0),
    sdk("Five Ads", Advertising, Wv, &["com.five_corp"], 1_100, 0),
    sdk("Nend", Advertising, Wv, &["net.nend"], 950, 0),
    sdk("Maio", Advertising, Wv, &["jp.maio"], 900, 0),
    sdk("Zucks", Advertising, Wv, &["net.zucks"], 850, 0),
    sdk("Kakao AdFit", Advertising, Wv, &["com.kakao.adfit"], 800, 0),
    sdk("GreedyGame", Advertising, Wv, &["com.greedygame"], 700, 0),
    sdk("AdGeneration", Advertising, Wv, &["com.socdm.d.adgeneration"], 650, 0),
    sdk("i-mobile", Advertising, Wv, &["jp.co.imobile"], 600, 0),
    sdk("AdStir", Advertising, Wv, &["com.ad_stir"], 550, 0),
    sdk("Fluct", Advertising, Wv, &["jp.fluct"], 500, 0),
    sdk("AppNext", Advertising, Wv, &["com.appnext"], 480, 0),
    sdk("Adivery", Advertising, Wv, &["ir.adivery"], 450, 0),
    sdk("Tapsell", Advertising, Wv, &["ir.tapsell"], 420, 0),
    sdk("Verve", Advertising, Wv, &["net.pubnative"], 400, 0),
    sdk("BidMachine", Advertising, Wv, &["io.bidmachine"], 380, 0),
    sdk("Leadbolt", Advertising, Wv, &["com.apptracker"], 350, 0),
    sdk("Airpush", Advertising, Wv, &["com.airpush"], 330, 0),
    sdk("Madvertise", Advertising, Wv, &["de.madvertise"], 310, 0),
    sdk("AppBrain", Advertising, Wv, &["com.appbrain"], 290, 0),
    sdk("AdinCube", Advertising, Wv, &["com.adincube"], 270, 0),
    sdk("MobFox", Advertising, Wv, &["com.mobfox"], 250, 0),
    sdk("LoopMe", Advertising, Wv, &["com.loopme"], 230, 0),

    // ---------------- Engagement: 12 WV / 0 CT / 0 both -----------------
    sdk("Open Measurement", Engagement, Wv, &["com.iab.omid"], 11_333, 0),
    sdk("SafeDK", Engagement, Wv, &["com.safedk"], 7_427, 0),
    sdk("Airship", Engagement, Wv, &["com.urbanairship"], 652, 0),
    sdk("Branch", Engagement, Wv, &["io.branch"], 514, 0),
    sdk("Adjust", Engagement, Wv, &["com.adjust"], 2_400, 0),
    sdk("AppsFlyer", Engagement, Wv, &["com.appsflyer"], 2_100, 0),
    sdk("CleverTap", Engagement, Wv, &["com.clevertap"], 900, 0),
    sdk("MoEngage", Engagement, Wv, &["com.moengage"], 700, 0),
    sdk("Kochava", Engagement, Wv, &["com.kochava"], 500, 0),
    sdk("Singular", Engagement, Wv, &["com.singular"], 400, 0),
    sdk("Mixpanel", Engagement, Wv, &["com.mixpanel"], 300, 0),
    sdk("Amplitude", Engagement, Wv, &["com.amplitude"], 200, 0),

    // ------------- Development Tools: 11 WV / 7 CT / 5 both -------------
    sdk("Flutter", DevelopmentTools, Wv, &["io.flutter"], 5_568, 0),
    sdk("InAppWebView", DevelopmentTools, Wv, &["com.pichillilorenzo"], 1_868, 0),
    sdk("Corona", DevelopmentTools, Wv, &["com.ansca.corona"], 449, 0),
    sdk("AdvancedWebView", DevelopmentTools, Wv, &["im.delight.android.webview"], 386, 0),
    sdk("Cordova", DevelopmentTools, Wv, &["org.apache.cordova"], 900, 0),
    sdk("React Native WebView", DevelopmentTools, Wv, &["com.reactnativecommunity.webview"], 750, 0),
    sdk("GoodBarber", DevelopmentTools, Both, &["com.goodbarber"], 30, 48),
    sdk("Mobiroller", DevelopmentTools, Both, &["com.mobiroller"], 20, 27),
    sdk("Ionic", DevelopmentTools, Both, &["io.ionic"], 40, 15),
    sdk("Median", DevelopmentTools, Both, &["co.median"], 15, 10),
    sdk("Thunkable", DevelopmentTools, Both, &["com.thunkable"], 12, 8),
    sdk("android-customtabs", DevelopmentTools, Ct, &["saschpe.android.customtabs"], 0, 53),
    sdk("Capacitor Browser", DevelopmentTools, Ct, &["com.capacitorjs.browser"], 0, 11),

    // ------------------ Payments: 15 WV / 6 CT / 5 both -----------------
    sdk("Stripe", Payments, Wv, &["com.stripe"], 1_171, 0),
    sdk("RazorPay", Payments, Wv, &["com.razorpay"], 484, 0),
    sdk("PayTM", Payments, Wv, &["net.one97.paytm"], 400, 0),
    sdk("Braintree", Payments, Wv, &["com.braintreepayments"], 350, 0),
    sdk("Square", Payments, Wv, &["com.squareup.sdk"], 300, 0),
    sdk("MercadoPago", Payments, Wv, &["com.mercadopago"], 280, 0),
    sdk("Paystack", Payments, Wv, &["co.paystack"], 180, 0),
    sdk("Flutterwave", Payments, Wv, &["com.flutterwave"], 150, 0),
    sdk("CCAvenue", Payments, Wv, &["com.ccavenue"], 130, 0),
    sdk("Mollie", Payments, Wv, &["com.mollie"], 110, 0),
    sdk("Ticketmaster Checkout", Payments, Both, &["com.ticketmaster.purchase"], 30, 47),
    sdk("Checkout", Payments, Both, &["com.checkout"], 25, 47),
    sdk("PayPal", Payments, Both, &["com.paypal"], 200, 40),
    sdk("PayU", Payments, Both, &["com.payu"], 160, 30),
    sdk("Midtrans", Payments, Both, &["com.midtrans"], 90, 20),
    sdk("Juspay", Payments, Ct, &["in.juspay"], 0, 77),

    // ---------------- User Support: 4 WV / 0 CT / 0 both ----------------
    sdk("Zendesk", UserSupport, Wv, &["zendesk", "com.zendesk"], 1_000, 0),
    sdk("Freshchat", UserSupport, Wv, &["com.freshchat"], 438, 0),
    sdk("LicensesDialog", UserSupport, Wv, &["de.psdev.licensesdialog"], 129, 0),
    sdk("Intercom", UserSupport, Wv, &["io.intercom"], 125, 0),

    // ------------------- Social: 10 WV / 6 CT / 4 both ------------------
    // Facebook deprecated WebView login in 2021 — CT only (§4.1.6).
    sdk("Facebook", Social, Ct, &["com.facebook"], 0, 23_234),
    sdk("VK", Social, Wv, &["com.vk"], 456, 0),
    sdk("NAVER", Social, Both, &["com.navercorp.nid"], 406, 157),
    sdk("Kakao", Social, Both, &["com.kakao"], 347, 54),
    sdk("LINE", Social, Both, &["jp.naver.line"], 130, 60),
    sdk("Weibo", Social, Both, &["com.sina.weibo"], 120, 40),
    sdk("Twitter", Social, Ct, &["com.twitter.sdk"], 0, 262),
    sdk("Odnoklassniki", Social, Wv, &["ru.ok"], 180, 0),
    sdk("Zalo", Social, Wv, &["com.zing.zalo"], 160, 0),
    sdk("Tencent QQ", Social, Wv, &["com.tencent.tauth"], 150, 0),
    sdk("WeChat", Social, Wv, &["com.tencent.mm.opensdk"], 140, 0),
    sdk("Tumblr", Social, Wv, &["com.tumblr"], 110, 0),

    // -------------------- Utility: 4 WV / 2 CT / 2 both -----------------
    sdk("NAVER Maps", Utility, Wv, &["com.naver.maps"], 130, 0),
    sdk("Barcode Scanner", Utility, Wv, &["com.google.zxing"], 129, 0),
    sdk("Ticketmaster", Utility, Both, &["com.ticketmaster.tickets"], 64, 55),
    sdk("MyChart", Utility, Both, &["epic.mychart"], 39, 16),

    // ---------------- Authentication: 7 WV / 10 CT / 6 both -------------
    sdk("Google Firebase", Authentication, Ct, &["com.google.firebase"], 0, 7_565),
    sdk("Gigya", Authentication, Wv, &["com.gigya"], 120, 0),
    sdk("NAVER Identity", Authentication, Both, &["com.navercorp.identity"], 90, 81),
    sdk("Amazon Identity", Authentication, Both, &["com.amazon.identity"], 37, 20),
    sdk("AdobePass", Authentication, Ct, &["com.adobe.adobepass"], 0, 55),
    sdk("Auth0", Authentication, Both, &["com.auth0"], 60, 95),
    sdk("Okta", Authentication, Both, &["com.okta"], 45, 50),
    sdk("OneLogin", Authentication, Both, &["com.onelogin"], 25, 25),
    sdk("Ping Identity", Authentication, Both, &["com.pingidentity"], 20, 15),
    sdk("Clerk", Authentication, Ct, &["com.clerk"], 0, 30),
    sdk("LoginRadius", Authentication, Ct, &["com.loginradius"], 0, 25),

    // ----------- Hybrid Functionality: 6 WV / 7 CT / 5 both -------------
    sdk("Baby Panda World", HybridFunctionality, Wv, &["com.sinyee.babybus"], 194, 0),
    sdk("SoftCraft", HybridFunctionality, Both, &["com.softcraft"], 15, 8),
    sdk("Cube Storm", HybridFunctionality, Both, &["com.cubestorm"], 14, 14),
    sdk("WebMobi", HybridFunctionality, Both, &["com.webmobi"], 12, 12),
    sdk("Appy Pie", HybridFunctionality, Both, &["com.appypie"], 11, 10),
    sdk("SiberianCMS", HybridFunctionality, Both, &["com.siberiancms"], 10, 9),
    sdk("Scripps News", HybridFunctionality, Ct, &["com.scripps.newsapps"], 0, 13),
    sdk("GoNative", HybridFunctionality, Ct, &["io.gonative"], 0, 21),

    // ------------------- Unknown: 10 WV / 4 CT / 4 both -----------------
    // Conventional package names the paper "could not associate with any
    // known SDK".
    sdk("Unknown #1 (com.dotc.sdk)", Unknown, Wv, &["com.dotc.sdk"], 290, 0),
    sdk("Unknown #2 (com.polestar.core)", Unknown, Wv, &["com.polestar.core"], 260, 0),
    sdk("Unknown #3 (net.appcloudbox)", Unknown, Wv, &["net.appcloudbox"], 230, 0),
    sdk("Unknown #4 (com.ihandysoft.core)", Unknown, Wv, &["com.ihandysoft.core"], 200, 0),
    sdk("Unknown #5 (mobi.oneway)", Unknown, Wv, &["mobi.oneway"], 170, 0),
    sdk("Unknown #6 (com.cootek.business)", Unknown, Wv, &["com.cootek.business"], 140, 0),
    sdk("Unknown #7 (com.tachikoma.core)", Unknown, Both, &["com.tachikoma.core"], 200, 110),
    sdk("Unknown #8 (org.hapjs.webviewapp)", Unknown, Both, &["org.hapjs.webviewapp"], 180, 105),
    sdk("Unknown #9 (com.quickgame.web)", Unknown, Both, &["com.quickgame.web"], 160, 100),
    sdk("Unknown #10 (io.dcloud.feature)", Unknown, Both, &["io.dcloud.feature"], 140, 102),

    // -------------------- Obfuscated packages (4) -----------------------
    obfuscated("Obfuscated #1", &["a.a"], 400),
    obfuscated("Obfuscated #2", &["b.bb"], 300),
    obfuscated("Obfuscated #3", &["c.ab"], 220),
    obfuscated("Obfuscated #4", &["d.e"], 150),
];

/// The full catalog: 140 entries, 136 categorized (the 10 unknown-category
/// ones among them) plus 4 obfuscated. The entries are static data, so
/// this allocates only the returned `Vec`.
pub fn paper_catalog() -> Vec<Sdk> {
    PAPER_CATALOG.to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_size() {
        // 136 categorized + 4 obfuscated = 140; with the excluded
        // com.google.android this is the paper's 141 packages.
        assert_eq!(paper_catalog().len(), 140);
    }

    #[test]
    fn unknown_category_count_matches_paper() {
        let cat = paper_catalog();
        let unknown: Vec<_> = cat
            .iter()
            .filter(|s| s.category == SdkCategory::Unknown && !s.obfuscated)
            .collect();
        assert_eq!(unknown.len(), 10);
    }

    #[test]
    fn mechanism_consistent_with_targets() {
        for s in paper_catalog() {
            assert_eq!(
                s.mechanism.uses_webview(),
                s.wv_apps > 0,
                "{}: wv_apps inconsistent with mechanism",
                s.name
            );
            assert_eq!(
                s.mechanism.uses_custom_tabs(),
                s.ct_apps > 0,
                "{}: ct_apps inconsistent with mechanism",
                s.name
            );
        }
    }

    #[test]
    fn every_sdk_has_a_prefix() {
        for s in paper_catalog() {
            assert!(!s.prefixes.is_empty(), "{} has no prefixes", s.name);
            for p in s.prefixes {
                assert!(!p.is_empty());
                assert!(!p.starts_with('.') && !p.ends_with('.'));
            }
        }
    }

    #[test]
    fn user_support_totals_match_table4_exactly() {
        // 1000 + 438 + 129 + 125 = 1692 — Table 4's category total.
        let total: u32 = paper_catalog()
            .iter()
            .filter(|s| s.category == SdkCategory::UserSupport)
            .map(|s| s.wv_apps)
            .sum();
        assert_eq!(total, 1_692);
    }

    #[test]
    fn hybrid_wv_totals_match_table4_exactly() {
        // 194 + 15 + 14 + 12 + 11 + 10 = 256.
        let total: u32 = paper_catalog()
            .iter()
            .filter(|s| s.category == SdkCategory::HybridFunctionality)
            .map(|s| s.wv_apps)
            .sum();
        assert_eq!(total, 256);
    }
}
