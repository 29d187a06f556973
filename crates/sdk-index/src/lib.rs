//! # wla-sdk-index — Google Play SDK Index analog
//!
//! §3.1.4 of the paper labels the Java packages that invoke content-loading
//! methods against the Google Play SDK Index (plus manual search), yielding
//! 141 packages used by >100 apps: 126 categorized, 1 excluded
//! (`com.google.android`), 4 obfuscated, 10 unknown.
//!
//! This crate provides:
//!
//! * [`SdkCategory`] — the paper's SDK taxonomy (Table 3 rows);
//! * [`Sdk`] — one catalog entry: name, package prefixes, which web
//!   mechanism(s) it uses, and its paper-scale app-count calibration targets;
//! * [`catalog::paper_catalog`] — the full catalog: every SDK named in
//!   Tables 4 and 5 with its published app count, plus synthesized filler
//!   SDKs so that per-category SDK *counts* match Table 3 exactly
//!   (46 WebView advertising SDKs, 10 CT authentication SDKs, …);
//! * [`trie::InternedTrie`] and [`SdkIndex`] — longest-prefix package
//!   labeling to a `Copy` [`LabelId`], the pipeline's hot lookup.
//!
//! ```
//! use wla_sdk_index::{LabelId, SdkIndex};
//!
//! let index = SdkIndex::paper();
//! match index.label_id("com.applovin.adview") {
//!     LabelId::Sdk(i) => assert_eq!(index.sdks()[i as usize].name, "AppLovin"),
//!     other => panic!("{other:?}"),
//! }
//! assert_eq!(index.label_id("com.google.android.gms.ads"), LabelId::CoreAndroid);
//! assert_eq!(index.label_id("a.b.c"), LabelId::Obfuscated);
//! ```

#![forbid(unsafe_code)]

pub mod catalog;
pub mod trie;

use wla_intern::PkgId;

/// SDK functional categories — exactly the rows of Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SdkCategory {
    /// In-app ad networks and mediation.
    Advertising,
    /// Engagement / ad-performance measurement (OM SDK, SafeDK, …).
    Engagement,
    /// Cross-platform frameworks and embeddable components (Flutter, …).
    DevelopmentTools,
    /// Payment processing (Stripe, RazorPay, …).
    Payments,
    /// In-app customer service (Zendesk, Freshchat, …).
    UserSupport,
    /// Social-platform integration (Facebook, VK, Kakao, …).
    Social,
    /// Feature utilities (maps, ticketing, barcode, health portals).
    Utility,
    /// Identity providers and auth flows (Firebase Auth, Gigya, …).
    Authentication,
    /// Hybrid web+native app engines.
    HybridFunctionality,
    /// Packages that could not be associated with any known SDK.
    Unknown,
}

impl SdkCategory {
    /// All categories in Table 3 row order.
    pub const ALL: [SdkCategory; 10] = [
        SdkCategory::Advertising,
        SdkCategory::Payments,
        SdkCategory::DevelopmentTools,
        SdkCategory::Engagement,
        SdkCategory::Social,
        SdkCategory::Authentication,
        SdkCategory::Unknown,
        SdkCategory::HybridFunctionality,
        SdkCategory::Utility,
        SdkCategory::UserSupport,
    ];

    /// Dense index of this category in [`SdkCategory::ALL`] (Table 3 row
    /// order) — lets aggregation use flat arrays instead of keyed maps.
    pub fn table3_index(self) -> usize {
        match self {
            SdkCategory::Advertising => 0,
            SdkCategory::Payments => 1,
            SdkCategory::DevelopmentTools => 2,
            SdkCategory::Engagement => 3,
            SdkCategory::Social => 4,
            SdkCategory::Authentication => 5,
            SdkCategory::Unknown => 6,
            SdkCategory::HybridFunctionality => 7,
            SdkCategory::Utility => 8,
            SdkCategory::UserSupport => 9,
        }
    }

    /// Human-readable label used in tables.
    pub fn label(self) -> &'static str {
        match self {
            SdkCategory::Advertising => "Advertising",
            SdkCategory::Engagement => "Engagement",
            SdkCategory::DevelopmentTools => "Development Tools",
            SdkCategory::Payments => "Payments",
            SdkCategory::UserSupport => "User Support",
            SdkCategory::Social => "Social",
            SdkCategory::Utility => "Utility",
            SdkCategory::Authentication => "Authentication",
            SdkCategory::HybridFunctionality => "Hybrid Functionality",
            SdkCategory::Unknown => "Unknown",
        }
    }
}

/// Which web-content mechanism an SDK embeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WebMechanism {
    /// Uses `android.webkit.WebView` only.
    WebView,
    /// Uses Custom Tabs only.
    CustomTabs,
    /// Uses both (e.g. falls back to WebView when no CT-capable browser).
    Both,
}

#[cfg(test)]
impl WebMechanism {
    /// Does the SDK have a WebView code path?
    pub fn uses_webview(self) -> bool {
        matches!(self, WebMechanism::WebView | WebMechanism::Both)
    }

    /// Does the SDK have a Custom Tabs code path?
    pub fn uses_custom_tabs(self) -> bool {
        matches!(self, WebMechanism::CustomTabs | WebMechanism::Both)
    }
}

/// One SDK catalog entry. Every field is static data, so copying an entry
/// allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sdk {
    /// Display name ("AppLovin", "Google Firebase", …).
    pub name: &'static str,
    /// Functional category.
    pub category: SdkCategory,
    /// Dotted package prefixes attributable to this SDK.
    pub prefixes: &'static [&'static str],
    /// Which mechanism(s) the SDK's code contains.
    pub mechanism: WebMechanism,
    /// Paper-scale calibration target: apps observed using this SDK's
    /// WebView path (0 when it has none). From Table 4 for named SDKs.
    pub wv_apps: u32,
    /// Paper-scale calibration target for the CT path. From Table 5.
    pub ct_apps: u32,
    /// Whether the package naming is ProGuard-obfuscated (one of the 4
    /// packages the paper could not label for that reason).
    pub obfuscated: bool,
}

impl Sdk {
    /// Primary (first) package prefix.
    pub fn primary_prefix(&self) -> &'static str {
        self.prefixes[0]
    }
}

/// Result of labeling a package name: a 4-byte `Copy` handle stored on
/// every call-site record. `Sdk` carries the catalog index of the matched
/// entry, a `u16`: [`SdkIndex::new`] refuses a catalog past `u16::MAX +
/// 1` (65,536) entries (the paper's has 140).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LabelId {
    /// Attributed to a cataloged SDK (catalog index).
    Sdk(u16),
    /// Part of the core Android SDK (`com.google.android`), excluded from
    /// SDK accounting "due to its multiple essential functions".
    CoreAndroid,
    /// ProGuard-style obfuscated package: the obfuscation heuristic or an
    /// obfuscated catalog entry, merged.
    Obfuscated,
    /// No catalog match.
    Unlabeled,
}

/// The labeling index: catalog + segment-interned prefix trie.
#[derive(Debug, Clone)]
pub struct SdkIndex {
    sdks: Vec<Sdk>,
    trie: trie::InternedTrie<'static>,
}

/// Prefix excluded from SDK attribution.
pub const CORE_ANDROID_PREFIX: &str = "com.google.android";

impl SdkIndex {
    /// Build an index over an arbitrary catalog. The trie borrows the
    /// catalog's static prefixes and is sized once from their segment
    /// count, so this allocates its three tables and nothing else.
    ///
    /// # Panics
    /// If the catalog has more entries than a [`LabelId::Sdk`] index can
    /// name (`u16::MAX + 1`).
    pub fn new(sdks: Vec<Sdk>) -> Self {
        assert!(
            sdks.len() <= usize::from(u16::MAX) + 1,
            "a catalog of {} SDKs does not fit a u16 label index",
            sdks.len()
        );
        let segments = sdks
            .iter()
            .flat_map(|sdk| sdk.prefixes)
            .map(|p| p.split('.').count())
            .sum();
        let mut trie = trie::InternedTrie::with_capacity(segments);
        for (i, sdk) in sdks.iter().enumerate() {
            for p in sdk.prefixes {
                trie.insert(p, i as u32);
            }
        }
        SdkIndex { sdks, trie }
    }

    /// The full paper catalog (Tables 3–5), built afresh on every call.
    pub fn paper() -> Self {
        SdkIndex::new(catalog::paper_catalog())
    }

    /// All catalog entries.
    pub fn sdks(&self) -> &[Sdk] {
        &self.sdks
    }

    /// Label a dotted package name: `com.google.android` takes precedence,
    /// then the longest catalog prefix; obfuscated catalog entries and
    /// unmatched packages that pass the obfuscation heuristic both
    /// collapse to [`LabelId::Obfuscated`].
    pub fn label_id(&self, package: &str) -> LabelId {
        if package == CORE_ANDROID_PREFIX || package.starts_with("com.google.android.") {
            return LabelId::CoreAndroid;
        }
        if let Some(idx) = self.trie.longest_match(package) {
            if self.sdks[idx as usize].obfuscated {
                return LabelId::Obfuscated;
            }
            // `new` refused a catalog whose indices do not fit a `u16`.
            return LabelId::Sdk(idx as u16);
        }
        if is_obfuscated_package(package) {
            return LabelId::Obfuscated;
        }
        LabelId::Unlabeled
    }
}

/// Per-worker package-label memo: [`PkgId`] → [`LabelId`].
///
/// Caller packages repeat massively across call sites and apps (every
/// AppLovin app calls from the same handful of packages), and within one
/// worker a [`PkgId`] is a stable dense key — so after the first trie walk
/// a label costs one `u32`-hash probe. Hit/miss counters feed the
/// pipeline's interner observability.
#[derive(Debug, Default)]
pub struct LabelCache {
    map: std::collections::HashMap<u32, LabelId, wla_intern::FxBuildHasher>,
    /// Labels served from the memo.
    pub hits: u64,
    /// Labels that walked the trie.
    pub misses: u64,
}

impl LabelCache {
    /// Empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Label `pkg` (whose resolved text is `package`), memoized.
    pub fn label(&mut self, catalog: &SdkIndex, pkg: PkgId, package: &str) -> LabelId {
        if let Some(&l) = self.map.get(&pkg.symbol().raw()) {
            self.hits += 1;
            return l;
        }
        self.misses += 1;
        let l = catalog.label_id(package);
        self.map.insert(pkg.symbol().raw(), l);
        l
    }

    /// Forget every memoized label, keeping the map's capacity and the
    /// hit and miss counters: for a worker that forgets the lexicon the
    /// memo's keys resolve against.
    pub fn forget(&mut self) {
        self.map.clear();
    }
}

/// ProGuard/R8-style obfuscation heuristic: every segment is at most two
/// characters (`a.b`; `com.a.b` is *not* obfuscated because `com` is 3
/// chars — matching how analysts eyeball these). [`SdkIndex::label_id`]
/// labels an unmatched package that passes it [`LabelId::Obfuscated`].
pub fn is_obfuscated_package(pkg: &str) -> bool {
    pkg.split('.').all(|s| !s.is_empty() && s.len() <= 2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_catalog_matches_table3_counts() {
        let index = SdkIndex::paper();
        // Table 3: per-category (webview, ct, both) SDK counts.
        let expect: &[(SdkCategory, u32, u32, u32)] = &[
            (SdkCategory::Advertising, 46, 3, 3),
            (SdkCategory::Payments, 15, 6, 5),
            (SdkCategory::DevelopmentTools, 11, 7, 5),
            (SdkCategory::Engagement, 12, 0, 0),
            (SdkCategory::Social, 10, 6, 4),
            (SdkCategory::Authentication, 7, 10, 6),
            (SdkCategory::Unknown, 10, 4, 4),
            (SdkCategory::HybridFunctionality, 6, 7, 5),
            (SdkCategory::Utility, 4, 2, 2),
            (SdkCategory::UserSupport, 4, 0, 0),
        ];
        for &(cat, wv, ct, both) in expect {
            let of_cat: Vec<_> = index
                .sdks()
                .iter()
                .filter(|s| s.category == cat && !s.obfuscated)
                .collect();
            let n_wv = of_cat.iter().filter(|s| s.mechanism.uses_webview()).count() as u32;
            let n_ct = of_cat
                .iter()
                .filter(|s| s.mechanism.uses_custom_tabs())
                .count() as u32;
            let n_both = of_cat
                .iter()
                .filter(|s| s.mechanism == WebMechanism::Both)
                .count() as u32;
            assert_eq!((n_wv, n_ct, n_both), (wv, ct, both), "category {cat:?}");
        }
        // Totals row.
        let all: Vec<_> = index.sdks().iter().filter(|s| !s.obfuscated).collect();
        assert_eq!(
            all.iter().filter(|s| s.mechanism.uses_webview()).count(),
            125
        );
        assert_eq!(
            all.iter()
                .filter(|s| s.mechanism.uses_custom_tabs())
                .count(),
            45
        );
        assert_eq!(
            all.iter()
                .filter(|s| s.mechanism == WebMechanism::Both)
                .count(),
            34
        );
    }

    #[test]
    fn named_sdk_targets_match_table4_and_5() {
        let index = SdkIndex::paper();
        let get = |name: &str| {
            index
                .sdks()
                .iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("{name} missing"))
        };
        assert_eq!(get("AppLovin").wv_apps, 27_397);
        assert_eq!(get("ironSource").wv_apps, 16_326);
        assert_eq!(get("Facebook").ct_apps, 23_234);
        assert_eq!(get("Google Firebase").ct_apps, 7_565);
        assert_eq!(get("Stripe").wv_apps, 1_171);
        assert_eq!(get("HyprMX").ct_apps, 1_257);
        assert_eq!(get("Open Measurement").wv_apps, 11_333);
        assert_eq!(get("Juspay").ct_apps, 77);
        // Ticketmaster appears for payments and utility with both paths.
        assert!(get("Ticketmaster Checkout").mechanism.uses_custom_tabs());
        assert!(get("Ticketmaster").mechanism.uses_webview());
    }

    #[test]
    fn obfuscated_entries_exist() {
        let index = SdkIndex::paper();
        assert_eq!(index.sdks().iter().filter(|s| s.obfuscated).count(), 4);
    }

    #[test]
    fn labeling_basics() {
        let index = SdkIndex::paper();
        match index.label_id("com.applovin.adview") {
            LabelId::Sdk(i) => assert_eq!(index.sdks()[i as usize].name, "AppLovin"),
            other => panic!("expected AppLovin, got {other:?}"),
        }
        assert_eq!(
            index.label_id("com.google.android.gms"),
            LabelId::CoreAndroid
        );
        assert_eq!(index.label_id("a.b.c"), LabelId::Obfuscated);
        assert_eq!(index.label_id("org.nonexistent.thing"), LabelId::Unlabeled);
    }

    #[test]
    fn longest_prefix_wins() {
        // NAVER corporate (auth) vs NAVER social login share the com.navercorp root.
        let index = SdkIndex::paper();
        match index.label_id("com.navercorp.nid.oauth") {
            LabelId::Sdk(i) => assert_eq!(index.sdks()[i as usize].category, SdkCategory::Social),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn prefix_is_segment_aligned() {
        let index = SdkIndex::paper();
        // "com.applovinx" must NOT match the "com.applovin" prefix.
        assert_eq!(index.label_id("com.applovinx.ads"), LabelId::Unlabeled);
    }

    #[test]
    fn obfuscation_heuristic() {
        assert!(is_obfuscated_package("a.b.c"));
        assert!(is_obfuscated_package("ab.c"));
        assert!(!is_obfuscated_package("com.a.b"));
        assert!(!is_obfuscated_package("com.applovin"));
    }

    /// A label names an SDK by a `u16` index, so a catalog of 65,536
    /// entries is the largest an index accepts.
    #[test]
    #[should_panic(expected = "a catalog of 65537 SDKs does not fit a u16 label index")]
    fn a_catalog_past_u16_is_refused() {
        let sdk = catalog::paper_catalog()[0];
        let largest = SdkIndex::new(vec![sdk; 65_536]);
        assert_eq!(largest.label_id(sdk.primary_prefix()), LabelId::Sdk(65_535));
        SdkIndex::new(vec![sdk; 65_537]);
    }

    #[test]
    fn label_cache_memoizes_by_pkgid() {
        use wla_intern::LocalInterner;
        let index = SdkIndex::paper();
        let mut lex = LocalInterner::new();
        let mut cache = LabelCache::new();
        let pkg = PkgId(lex.intern("com.applovin.adview"));
        let first = cache.label(&index, pkg, "com.applovin.adview");
        let second = cache.label(&index, pkg, "com.applovin.adview");
        assert_eq!(first, second);
        assert!(matches!(first, LabelId::Sdk(_)));
        assert_eq!((cache.hits, cache.misses), (1, 1));
        // Forgotten, the same key walks the trie again; the counters stay.
        cache.forget();
        assert_eq!(cache.label(&index, pkg, "com.applovin.adview"), first);
        assert_eq!((cache.hits, cache.misses), (1, 2));
    }

    #[test]
    fn prefixes_are_unique_across_catalog() {
        let index = SdkIndex::paper();
        let mut seen = std::collections::HashSet::new();
        for sdk in index.sdks() {
            for p in sdk.prefixes {
                assert!(seen.insert(p), "duplicate prefix {p} ({})", sdk.name);
            }
        }
    }
}
