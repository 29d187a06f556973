//! Java binary-name helpers.
//!
//! The pipeline extracts the *package* of the class that invokes a
//! content-loading method (§3.1.4 of the paper), "assuming that package
//! names adhere to the proper Java conventions". These helpers centralize
//! that logic so the corpus generator and the analyzer agree on naming.

/// Well-known framework class names the study keys on.
pub mod framework {
    /// The WebView class every measurement centers on.
    pub const WEBVIEW: &str = "android/webkit/WebView";
    /// The Custom Tabs intent class (`androidx.browser.customtabs`).
    pub const CUSTOM_TABS_INTENT: &str = "androidx/browser/customtabs/CustomTabsIntent";
    /// The Custom Tabs intent builder.
    pub const CUSTOM_TABS_BUILDER: &str = "androidx/browser/customtabs/CustomTabsIntent$Builder";
    /// Base activity class.
    pub const ACTIVITY: &str = "android/app/Activity";
    /// Base service class.
    pub const SERVICE: &str = "android/app/Service";
    /// Base broadcast receiver class.
    pub const RECEIVER: &str = "android/content/BroadcastReceiver";
    /// Base content provider class.
    pub const PROVIDER: &str = "android/content/ContentProvider";
    /// Root of the class hierarchy.
    pub const OBJECT: &str = "java/lang/Object";
}

/// WebView methods that load or modify web content — the exact set the
/// paper records in Table 7.
pub const WEBVIEW_CONTENT_METHODS: [&str; 7] = [
    "loadUrl",
    "addJavascriptInterface",
    "loadDataWithBaseURL",
    "evaluateJavascript",
    "removeJavascriptInterface",
    "loadData",
    "postUrl",
];

/// The subset of WebView methods that *populate* content; package names are
/// extracted at call sites of these (plus `launchUrl` for CTs) in §3.1.4.
pub const WEBVIEW_LOAD_METHODS: [&str; 3] = ["loadUrl", "loadData", "loadDataWithBaseURL"];

/// [`WEBVIEW_LOAD_METHODS`] as a bit set over [`WEBVIEW_CONTENT_METHODS`]:
/// bit `i` is set when `WEBVIEW_CONTENT_METHODS[i]` populates content, so a
/// call site that keeps its method's index tests the flag without a
/// string compare.
pub const WEBVIEW_LOAD_METHOD_MASK: u8 = {
    const fn same(a: &[u8], b: &[u8]) -> bool {
        match (a, b) {
            ([], []) => true,
            ([x, a @ ..], [y, b @ ..]) => *x == *y && same(a, b),
            _ => false,
        }
    }
    let (mut mask, mut i) = (0, 0);
    while i < WEBVIEW_CONTENT_METHODS.len() {
        let mut j = 0;
        while j < WEBVIEW_LOAD_METHODS.len() {
            if same(
                WEBVIEW_CONTENT_METHODS[i].as_bytes(),
                WEBVIEW_LOAD_METHODS[j].as_bytes(),
            ) {
                mask |= 1 << i;
            }
            j += 1;
        }
        i += 1;
    }
    mask
};

/// The CT method that populates content.
pub const CT_LAUNCH_METHOD: &str = "launchUrl";

/// The package of a binary class name (`com/foo/bar/Baz` → `com.foo.bar`)
/// without allocating: writes the dotted package into `out` (cleared
/// first) and returns `true`, or returns `false` for classes in the default
/// package. The caller keeps one scratch `String` alive across call sites
/// instead of allocating per class.
pub fn package_of_into(binary_name: &str, out: &mut String) -> bool {
    out.clear();
    let Some(idx) = binary_name.rfind('/') else {
        return false;
    };
    out.reserve(idx);
    for c in binary_name[..idx].chars() {
        out.push(if c == '/' { '.' } else { c });
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn package_extraction_into_scratch() {
        let mut scratch = String::from("stale");
        assert!(package_of_into(
            "com/applovin/adview/AdRenderer",
            &mut scratch
        ));
        assert_eq!(scratch, "com.applovin.adview");
        assert!(!package_of_into("TopLevel", &mut scratch));
        assert!(scratch.is_empty());
        assert!(package_of_into("a/b", &mut scratch));
        assert_eq!(scratch, "a");
    }

    #[test]
    fn method_sets_match_paper() {
        assert_eq!(WEBVIEW_CONTENT_METHODS.len(), 7);
        for m in WEBVIEW_LOAD_METHODS {
            assert!(WEBVIEW_CONTENT_METHODS.contains(&m));
        }
        for (i, m) in WEBVIEW_CONTENT_METHODS.iter().enumerate() {
            let in_mask = WEBVIEW_LOAD_METHOD_MASK & (1 << i) != 0;
            assert_eq!(in_mask, WEBVIEW_LOAD_METHODS.contains(m), "{m}");
        }
        assert_eq!(WEBVIEW_LOAD_METHOD_MASK.count_ones(), 3);
    }
}
