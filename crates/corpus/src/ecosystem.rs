//! Per-app behaviour sampling, calibrated to the paper's aggregates.
//!
//! The sampling model (the pool totals in [`EcosystemParams`], every other
//! value a constant next to the code that samples it; all derived from the
//! paper, see DESIGN.md §2):
//!
//! * **SDK adoption** is sampled per *(SDK category, mechanism pool)*: an
//!   app adopts the WebView-advertising pool with probability
//!   `39,163 / 146,558` (Table 4's category total over the analyzed corpus)
//!   and, conditioned on adoption, includes each SDK of the pool with
//!   probability `sdk_apps / category_total` (Table 4/5 per-SDK counts),
//!   forcing at least one — so the *union* of SDK users per category equals
//!   the category total in expectation. This reproduces the heavy
//!   co-installation the tables imply (the top-5 ad SDKs sum to 75K uses
//!   across only 39K distinct apps: mediation).
//! * **Correlations**: engagement SDKs ride on advertising adoption (the OM
//!   SDK measures ad performance, §4.1.2); Custom-Tab pools are sampled
//!   inside a latent "CT affinity" subset that is itself biased toward ad
//!   adopters — this reproduces both the distinct-CT-app total and the
//!   "15% of apps use both" overlap without per-pair tuning.
//! * **Direct (non-SDK) usage** adds first-party WebView/CT code with
//!   probabilities chosen so Table 7's totals (81,720 WebView apps, 29,130
//!   CT apps) emerge after the union with SDK-driven usage.
//! * **Method profiles**: each app draws one WebView method set per SDK
//!   category it uses, from [`category_method_probs`] (SDKs ship modular
//!   artifacts, so which methods are reachable varies per integrating
//!   app — Figure 4's conditional pattern), and direct users sample
//!   methods from Table 7's residual marginals.
//! * **App-category effects** (Figure 3): per-Play-category multipliers on
//!   pool adoption (education: fewer ads, more payments; games: more
//!   CT-social; finance: more payments).

use crate::distributions::{coin, weighted_index};
use crate::playstore::{AppMeta, PlayCategory};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wla_sdk_index::{Sdk, SdkCategory, SdkIndex};

/// The seven WebView content methods of Table 7, in table order: bit `i`
/// of a [`MethodSet`] is method `i`.
pub use wla_apk::names::WEBVIEW_CONTENT_METHODS as METHODS;

/// Index of `loadUrl` in [`METHODS`].
pub const M_LOAD_URL: usize = 0;
/// Index of `addJavascriptInterface`.
pub const M_ADD_JS_IFACE: usize = 1;
/// Index of `loadDataWithBaseURL`.
pub const M_LOAD_DATA_BASE: usize = 2;
/// Index of `evaluateJavascript`.
pub const M_EVAL_JS: usize = 3;
/// Index of `removeJavascriptInterface`.
pub const M_REMOVE_JS_IFACE: usize = 4;
/// Index of `loadData`.
pub const M_LOAD_DATA: usize = 5;
/// Index of `postUrl`.
pub const M_POST_URL: usize = 6;

/// A set of WebView content methods, one bit per [`METHODS`] index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MethodSet(pub u8);

impl MethodSet {
    /// Empty set.
    pub const EMPTY: MethodSet = MethodSet(0);

    /// Set containing only `loadUrl`.
    pub fn load_url_only() -> MethodSet {
        let mut s = MethodSet::EMPTY;
        s.insert(M_LOAD_URL);
        s
    }

    /// Insert by method index.
    pub fn insert(&mut self, idx: usize) {
        self.0 |= 1 << idx;
    }

    /// Membership by method index.
    pub fn contains(self, idx: usize) -> bool {
        self.0 & (1 << idx) != 0
    }

    /// Union.
    pub fn union(self, other: MethodSet) -> MethodSet {
        MethodSet(self.0 | other.0)
    }

    /// Is the set empty?
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }
}

/// One SDK embedded in an app. For `Both`-mechanism SDKs the app may link
/// only one of the code paths (SDKs ship modular artifacts and release
/// builds shrink unused code), which is how the paper can observe NAVER's
/// WebView path in 406 apps but its CT path in only 157.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SdkUse {
    /// Index into the [`SdkIndex`] catalog.
    pub sdk_idx: usize,
    /// The SDK's WebView module is linked into this app.
    pub webview: bool,
    /// The SDK's Custom-Tabs module is linked into this app.
    pub custom_tabs: bool,
}

/// First-party deep-link hosting: the app has an exported BROWSABLE
/// activity for `host`; if `uses_webview`, that activity renders the
/// content in a WebView — *first-party* usage the pipeline must exclude.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeepLinkSpec {
    /// Verified web host.
    pub host: String,
    /// Whether the deep-link activity itself drives a WebView.
    pub uses_webview: bool,
}

/// Ground truth for one generated app, as sampled: [`lower`] writes its
/// container from it. The static pipeline never sees this struct; a
/// generated corpus keeps only its [`GroundTruth`], what tests check the
/// pipeline recovers.
///
/// [`lower`]: crate::lowering::lower
/// [`GroundTruth`]: crate::GroundTruth
#[derive(Debug, Clone, PartialEq)]
pub struct AppSpec {
    /// Play metadata.
    pub meta: AppMeta,
    /// Embedded SDKs.
    pub sdks: Vec<SdkUse>,
    /// Per-SDK-category WebView method sets for *this app*. SDKs ship
    /// modular artifacts and release builds shrink unused code, so which of
    /// an SDK's WebView methods are reachable varies per integrating app —
    /// that is how Table 7 can show `addJavascriptInterface` via SDKs in
    /// only 42% of SDK-using apps while the biggest ad SDKs alone cover far
    /// more. Sampled once per (app, category) from
    /// [`category_method_probs`].
    pub sdk_category_methods: Vec<(SdkCategory, MethodSet)>,
    /// Methods the app's first-party code calls on WebView (empty ⇒ no
    /// direct WebView usage).
    pub direct_wv_methods: MethodSet,
    /// First-party code routes WebView calls through its own
    /// `extends WebView` subclass.
    pub direct_wv_subclass: bool,
    /// First-party Custom-Tabs usage.
    pub direct_ct: bool,
    /// Deep-link (first-party) hosting, if any.
    pub deep_link: Option<DeepLinkSpec>,
    /// The app ships a class that calls `loadUrl` but is unreachable from
    /// every component entry point (dead code the traversal must skip).
    pub dead_code_webview: bool,
    /// Count of behaviour-free filler classes (size realism).
    pub noise_classes: u8,
}

impl AppSpec {
    /// The method set this app's SDKs of `category` expose (empty when the
    /// app has no WebView SDK of that category).
    pub fn methods_for(&self, category: SdkCategory) -> MethodSet {
        self.sdk_category_methods
            .iter()
            .find(|(c, _)| *c == category)
            .map(|(_, m)| *m)
            .unwrap_or(MethodSet::EMPTY)
    }

    /// Ground truth: does any reachable code use a WebView?
    /// (Per-category method sets are never empty, so any linked WebView
    /// module implies at least one call.)
    pub fn uses_webview(&self) -> bool {
        !self.direct_wv_methods.is_empty() || self.sdks.iter().any(|u| u.webview)
    }

    /// Ground truth: does any reachable code launch a Custom Tab?
    pub fn uses_custom_tabs(&self) -> bool {
        self.direct_ct || self.sdks.iter().any(|u| u.custom_tabs)
    }

    /// Ground truth: the full method census for this app (union of the
    /// per-category SDK sets and the direct methods).
    pub fn method_census(&self) -> MethodSet {
        let mut set = self.direct_wv_methods;
        for (_, m) in &self.sdk_category_methods {
            set = set.union(*m);
        }
        set
    }
}

/// P(method | app using WebView SDKs of this category) — the per-app
/// modular-inclusion probabilities. Index-aligned with [`METHODS`]; the
/// `removeJavascriptInterface` entry is *conditional on
/// `addJavascriptInterface`* (an SDK only removes a bridge it added).
/// Calibrated so the population union reproduces Table 7's "via top SDKs"
/// column and the row patterns of Figure 4 (§4.1.1: >45% of ad-SDK apps
/// expose a bridge; §4.1.4: 48.5% of payment apps; §4.1.5: every
/// user-support app calls `loadDataWithBaseURL`, 45.9% `loadUrl`).
pub fn category_method_probs(category: SdkCategory) -> [f64; 7] {
    match category {
        SdkCategory::Advertising => [0.97, 0.45, 0.52, 0.32, 0.65, 0.005, 0.02],
        SdkCategory::Engagement => [0.30, 0.10, 0.15, 0.35, 0.65, 0.005, 0.00],
        SdkCategory::DevelopmentTools => [0.98, 0.30, 0.35, 0.15, 0.65, 0.06, 0.03],
        SdkCategory::Payments => [0.90, 0.485, 0.30, 0.08, 0.65, 0.02, 0.45],
        SdkCategory::UserSupport => [0.459, 0.20, 1.00, 0.05, 0.65, 0.05, 0.00],
        SdkCategory::Social => [0.95, 0.25, 0.20, 0.03, 0.65, 0.005, 0.02],
        SdkCategory::Utility => [0.90, 0.30, 0.40, 0.10, 0.65, 0.05, 0.02],
        SdkCategory::Authentication => [0.95, 0.30, 0.15, 0.10, 0.65, 0.02, 0.05],
        SdkCategory::HybridFunctionality => [0.95, 0.60, 0.60, 0.40, 0.65, 0.20, 0.05],
        SdkCategory::Unknown => [0.80, 0.30, 0.35, 0.20, 0.65, 0.04, 0.05],
    }
}

/// One coin per method of `p` (index-aligned with [`METHODS`]), in
/// order, with the `removeJavascriptInterface` coin drawn last and only
/// when `addJavascriptInterface` came up: a caller only removes a bridge
/// it added. The set may be empty.
fn sample_methods<R: Rng + ?Sized>(rng: &mut R, p: &[f64; 7]) -> MethodSet {
    let mut set = MethodSet::EMPTY;
    for (i, &pi) in p.iter().enumerate() {
        if i != M_REMOVE_JS_IFACE && coin(rng, pi) {
            set.insert(i);
        }
    }
    if set.contains(M_ADD_JS_IFACE) && coin(rng, p[M_REMOVE_JS_IFACE]) {
        set.insert(M_REMOVE_JS_IFACE);
    }
    set
}

/// Sample one (app, category) method set.
pub fn sample_category_methods<R: Rng + ?Sized>(rng: &mut R, category: SdkCategory) -> MethodSet {
    let mut set = sample_methods(rng, &category_method_probs(category));
    // A linked WebView module calls at least something.
    if set.is_empty() {
        set.insert(M_LOAD_URL);
    }
    set
}

/// UGC surfaces where a user can encounter a link (Table 8's "WebView Via"
/// column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UgcSurface {
    /// Feed post.
    Post,
    /// Direct message.
    DirectMessage,
    /// Story.
    Story,
    /// Profile page.
    Profile,
    /// Profile biography.
    Bio,
}

/// What happens when a user taps an external link (Table 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkBehavior {
    /// A Web URI intent reaches the default browser — Android's default.
    OpensBrowser,
    /// The app intercepts the tap and opens a WebView-based IAB.
    OpensWebViewIab,
    /// The app opens a Custom Tab.
    OpensCustomTab,
}

/// Why an app could not be classified during the manual top-1K analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessGate {
    /// Registration demanded a phone number (24 apps).
    PhoneNumber,
    /// The app crashed or refused to run on the test device (22 apps).
    Incompatible,
    /// Content locked behind a paid account (2 apps).
    PaidAccount,
}

/// Ground truth for one top-1K app in the dynamic study.
#[derive(Debug, Clone, PartialEq)]
pub struct TopAppSpec {
    /// Display name ("Facebook", or a generated one).
    pub name: String,
    /// Package name.
    pub package: String,
    /// Install count.
    pub downloads: u64,
    /// Play category.
    pub category: PlayCategory,
    /// The app itself is a browser (9 apps).
    pub is_browser: bool,
    /// Access gate blocking classification, if any (48 apps).
    pub gate: Option<AccessGate>,
    /// UGC surface where users can post links, if any (38 apps).
    pub ugc: Option<UgcSurface>,
    /// Link-tap behaviour (meaningful only when `ugc` is `Some`).
    pub link_behavior: LinkBehavior,
}

/// The pool adoption totals, the one calibration a caller changes: `wla
/// whatif` moves mass between the two lists
/// ([`EcosystemParams::simulate_ct_migration`]). Defaults encode Tables 4
/// and 5; pool adoption is each total over the analyzed corpus
/// ([`crate::ANALYZED_APPS`]).
#[derive(Debug, Clone, PartialEq)]
pub struct EcosystemParams {
    /// Per-category WebView-pool adoption totals (paper scale, Table 4).
    pub wv_pool_totals: Vec<(SdkCategory, u64)>,
    /// Per-category CT-pool adoption totals (paper scale, Table 5).
    pub ct_pool_totals: Vec<(SdkCategory, u64)>,
}

impl Default for EcosystemParams {
    fn default() -> Self {
        use SdkCategory::*;
        EcosystemParams {
            wv_pool_totals: vec![
                (Advertising, 39_163),
                (Engagement, 21_040),
                (DevelopmentTools, 7_020),
                (Payments, 3_212),
                (UserSupport, 1_692),
                (Social, 1_686),
                (Utility, 362),
                (Authentication, 342),
                (HybridFunctionality, 256),
                (Unknown, 1_600),
            ],
            ct_pool_totals: vec![
                (Social, 23_807),
                (Authentication, 7_802),
                (Advertising, 1_953),
                (Payments, 208),
                (DevelopmentTools, 172),
                (HybridFunctionality, 87),
                (Utility, 71),
                (Unknown, 350),
            ],
        }
    }
}

/// Adoption total for the obfuscated packages' pool.
const OBFUSCATED_POOL_TOTAL: u64 = 900;
/// P(app monetizes with ads) — the latent trait that engagement SDKs and
/// CT affinity key on: the advertising pool's adoption (39,163 / 146,558),
/// fixed so what-if transforms that move pool mass between mechanisms
/// leave it alone.
const AD_MONETIZATION_PROBABILITY: f64 = 39_163.0 / 146_558.0;
/// P(engagement adoption | advertising adopter) — engagement SDKs measure
/// ad performance, so they ride on ads.
const ENGAGEMENT_GIVEN_ADS: f64 = 0.537;
/// P(CT affinity | ad adopter): the latent subset CT pools are sampled
/// within.
const CT_AFFINITY_GIVEN_ADS: f64 = 0.62;
/// P(CT affinity | not an ad adopter).
const CT_AFFINITY_OTHERWISE: f64 = 0.183;
/// The population-level CT affinity the two above imply; CT pool adoption
/// is divided by it inside the affinity subset.
const CT_AFFINITY_MARGINAL: f64 = 0.30;
/// P(first-party WebView code | app).
const DIRECT_WEBVIEW_PROBABILITY: f64 = 0.320;
/// P(first-party CT code | app).
const DIRECT_CT_PROBABILITY: f64 = 0.006;
/// P(method | direct WebView user), indexed like [`METHODS`]: Table 7's
/// residuals (total − via-top-SDKs), corrected for the SDK overlap each
/// method already has, over the direct-user population. The
/// `removeJavascriptInterface` entry is conditional on
/// `addJavascriptInterface`.
const DIRECT_METHOD_PROBABILITIES: [f64; 7] = [0.881, 0.35, 0.215, 0.20, 0.32, 0.158, 0.051];
/// P(first-party code defines an `extends WebView` subclass | direct).
const DIRECT_SUBCLASS_PROBABILITY: f64 = 0.35;
/// P(app exports a BROWSABLE deep-link activity).
const DEEP_LINK_PROBABILITY: f64 = 0.18;
/// P(the deep-link activity renders in a WebView | deep link).
const DEEP_LINK_WEBVIEW_PROBABILITY: f64 = 0.5;
/// P(app ships dead code that calls WebView APIs).
const DEAD_CODE_PROBABILITY: f64 = 0.15;

/// Figure 3 app-category effect: multiplier applied to a pool's adoption
/// probability for apps of `play_cat`.
pub fn category_multiplier(
    play_cat: PlayCategory,
    sdk_cat: SdkCategory,
    custom_tabs_pool: bool,
) -> f64 {
    use PlayCategory as P;
    use SdkCategory as S;
    match (play_cat, sdk_cat) {
        // Education apps: fewer ads (44% vs overall), more payments (~16.2%).
        (P::Education, S::Advertising) => 0.7,
        (P::Education, S::Payments) => 2.8,
        // Gaming apps frequently use CT-based social SDKs; ads everywhere.
        (c, S::Social) if c.is_game() && custom_tabs_pool => 2.2,
        (c, S::Advertising) if c.is_game() => 1.4,
        // Finance: payments-heavy, ad-light.
        (P::Finance, S::Payments) => 3.0,
        (P::Finance, S::Advertising) => 0.5,
        (P::Finance, S::Authentication) => 2.0,
        // Social & communication apps integrate social SDKs.
        (P::Social | P::Communication, S::Social) => 2.0,
        // News apps monetize with ads.
        (P::News, S::Advertising) => 1.3,
        _ => 1.0,
    }
}

/// Deterministic FNV-1a hash used to derive per-SDK RNG seeds from names.
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Whether an SDK's WebView path goes through its own `extends WebView`
/// subclass (≈40% of SDKs; ad SDKs customize heavily). Deterministic.
pub fn sdk_uses_subclass(sdk: &Sdk) -> bool {
    match sdk.name {
        "AppLovin" | "ironSource" | "InMobi" | "InAppWebView" | "AdvancedWebView" => true,
        "Zendesk" | "Flutter" => false,
        _ => fnv1a(sdk.name) % 100 < 40,
    }
}

/// Population mean of [`category_multiplier`] under the Play-category
/// weight distribution. Pool adoption probabilities are divided by this at
/// sample time so the multipliers redistribute usage *across* app
/// categories without inflating the population marginal.
pub fn mean_category_multiplier(sdk_cat: SdkCategory, custom_tabs_pool: bool) -> f64 {
    let total: f64 = PlayCategory::ALL.iter().map(|c| c.weight()).sum();
    PlayCategory::ALL
        .iter()
        .map(|c| c.weight() * category_multiplier(*c, sdk_cat, custom_tabs_pool))
        .sum::<f64>()
        / total
}

/// The ecosystem sampler. Owns the catalog-derived pools.
#[derive(Debug)]
pub struct Ecosystem {
    /// Category per catalog index (avoids borrowing the catalog at sample
    /// time).
    catalog_categories: Vec<SdkCategory>,
    /// (category, adoption probability, member sdk indices, member weights) —
    /// WebView pools.
    wv_pools: Vec<Pool>,
    /// Same for CT pools.
    ct_pools: Vec<Pool>,
    /// Obfuscated-package pool.
    obf_pool: Pool,
}

#[derive(Debug, Clone)]
struct Pool {
    category: SdkCategory,
    adoption: f64,
    /// Normalizer for the Figure 3 category multipliers (see
    /// [`mean_category_multiplier`]).
    multiplier_mean: f64,
    members: Vec<usize>,
    /// Target per-SDK inclusion probabilities (`sdk_apps / pool_total`).
    weights: Vec<f64>,
    /// Adjusted Bernoulli probabilities compensating for the
    /// force-at-least-one rule (see [`adjust_for_forcing`]).
    sample_weights: Vec<f64>,
}

/// The pool sampler forces at least one member when the Bernoulli draws
/// all miss, which inflates every member's marginal by
/// `P(none) * weight/total`. Solve for adjusted probabilities `w'` with
/// `w'_i + prod(1 - w'_j) * share_i = w_i` by damped fixed-point iteration
/// so the *observed* per-SDK marginals match the Table 4/5 targets.
/// Dominant pools (prod ~ 0) are unchanged; small pools (e.g. the three CT
/// ad SDKs) would otherwise run 25-80% hot.
fn adjust_for_forcing(weights: &[f64]) -> Vec<f64> {
    let total: f64 = weights.iter().sum();
    if total <= 0.0 {
        return weights.to_vec();
    }
    let shares: Vec<f64> = weights.iter().map(|w| w / total).collect();
    let mut adj: Vec<f64> = weights.to_vec();
    for _ in 0..64 {
        let p_none: f64 = adj.iter().map(|w| (1.0 - w).max(0.0)).product();
        for i in 0..adj.len() {
            let target = (weights[i] - p_none * shares[i]).clamp(0.0, 1.0);
            // Damping keeps oscillating small pools convergent.
            adj[i] = 0.5 * adj[i] + 0.5 * target;
        }
    }
    adj
}

/// One mechanism's pools: per `(category, total)`, the catalog's
/// non-obfuscated SDKs of that category with apps on the mechanism, each
/// weighted by its app count over `total` (Table 4 for WebViews, Table 5
/// for Custom Tabs).
fn mechanism_pools(
    catalog: &SdkIndex,
    totals: &[(SdkCategory, u64)],
    custom_tabs: bool,
) -> Vec<Pool> {
    let apps = |s: &Sdk| if custom_tabs { s.ct_apps } else { s.wv_apps };
    totals
        .iter()
        .map(|&(cat, total)| {
            let members: Vec<usize> = catalog
                .sdks()
                .iter()
                .enumerate()
                .filter(|(_, s)| s.category == cat && !s.obfuscated && apps(s) > 0)
                .map(|(i, _)| i)
                .collect();
            let weights: Vec<f64> = members
                .iter()
                .map(|&i| apps(&catalog.sdks()[i]) as f64 / total as f64)
                .collect();
            Pool {
                category: cat,
                adoption: total as f64 / crate::ANALYZED_APPS as f64,
                multiplier_mean: mean_category_multiplier(cat, custom_tabs),
                members,
                sample_weights: adjust_for_forcing(&weights),
                weights,
            }
        })
        .collect()
}

impl Ecosystem {
    /// Build pools from the catalog and the pool totals.
    pub fn new(catalog: &SdkIndex, params: EcosystemParams) -> Self {
        let obf_members: Vec<usize> = catalog
            .sdks()
            .iter()
            .enumerate()
            .filter(|(_, s)| s.obfuscated)
            .map(|(i, _)| i)
            .collect();
        let obf_total: f64 = obf_members
            .iter()
            .map(|&i| catalog.sdks()[i].wv_apps as f64)
            .sum();
        let obf_weights: Vec<f64> = obf_members
            .iter()
            .map(|&i| catalog.sdks()[i].wv_apps as f64 / obf_total)
            .collect();
        let obf_pool = Pool {
            category: SdkCategory::Unknown,
            adoption: OBFUSCATED_POOL_TOTAL as f64 / crate::ANALYZED_APPS as f64,
            multiplier_mean: 1.0,
            sample_weights: adjust_for_forcing(&obf_weights),
            weights: obf_weights,
            members: obf_members,
        };
        Ecosystem {
            catalog_categories: catalog.sdks().iter().map(|s| s.category).collect(),
            wv_pools: mechanism_pools(catalog, &params.wv_pool_totals, false),
            ct_pools: mechanism_pools(catalog, &params.ct_pool_totals, true),
            obf_pool,
        }
    }

    /// Sample the included members of one pool: each member by weight,
    /// forcing at least one so pool adoption translates into usage.
    fn sample_pool<R: Rng + ?Sized>(rng: &mut R, pool: &Pool) -> Vec<usize> {
        let mut chosen: Vec<usize> = pool
            .members
            .iter()
            .zip(&pool.sample_weights)
            .filter(|&(_, &w)| coin(rng, w.min(1.0)))
            .map(|(&i, _)| i)
            .collect();
        if chosen.is_empty() && !pool.members.is_empty() {
            chosen.push(pool.members[weighted_index(rng, &pool.weights)]);
        }
        chosen
    }

    /// Sample the full behaviour of one app given its metadata.
    pub fn sample_app<R: Rng + ?Sized>(&self, rng: &mut R, meta: AppMeta) -> AppSpec {
        let mut wv_sdks: Vec<usize> = Vec::new();
        // The latent monetization trait: drawn first so engagement riding
        // and CT affinity survive what-if transforms that empty the
        // advertising WebView pool.
        let ads_adopted = coin(rng, AD_MONETIZATION_PROBABILITY);

        for pool in &self.wv_pools {
            let mult =
                category_multiplier(meta.category, pool.category, false) / pool.multiplier_mean;
            let adopted = match pool.category {
                // Engagement rides on ads rather than adopting independently.
                SdkCategory::Engagement => ads_adopted && coin(rng, ENGAGEMENT_GIVEN_ADS),
                // The ad pool is the monetization trait expressed through
                // this mechanism: conditional on the latent draw.
                SdkCategory::Advertising => {
                    let conditional = (pool.adoption * mult / AD_MONETIZATION_PROBABILITY).min(1.0);
                    ads_adopted && coin(rng, conditional)
                }
                _ => coin(rng, (pool.adoption * mult).min(0.95)),
            };
            if adopted {
                wv_sdks.extend(Self::sample_pool(rng, pool));
            }
        }
        if coin(rng, self.obf_pool.adoption) {
            wv_sdks.extend(Self::sample_pool(rng, &self.obf_pool));
        }

        // CT pools sample within the latent affinity subset.
        let affinity = if ads_adopted {
            CT_AFFINITY_GIVEN_ADS
        } else {
            CT_AFFINITY_OTHERWISE
        };
        let mut ct_sdks: Vec<usize> = Vec::new();
        if coin(rng, affinity) {
            for pool in &self.ct_pools {
                let mult =
                    category_multiplier(meta.category, pool.category, true) / pool.multiplier_mean;
                let conditional = (pool.adoption * mult / CT_AFFINITY_MARGINAL).min(0.95);
                if coin(rng, conditional) {
                    ct_sdks.extend(Self::sample_pool(rng, pool));
                }
            }
        }

        // Merge into SdkUse entries (an SDK may appear in both pools).
        let mut sdks: Vec<SdkUse> = Vec::new();
        for idx in wv_sdks {
            match sdks.iter_mut().find(|u| u.sdk_idx == idx) {
                Some(u) => u.webview = true,
                None => sdks.push(SdkUse {
                    sdk_idx: idx,
                    webview: true,
                    custom_tabs: false,
                }),
            }
        }
        for idx in ct_sdks {
            match sdks.iter_mut().find(|u| u.sdk_idx == idx) {
                Some(u) => u.custom_tabs = true,
                None => sdks.push(SdkUse {
                    sdk_idx: idx,
                    webview: false,
                    custom_tabs: true,
                }),
            }
        }
        sdks.sort_by_key(|u| u.sdk_idx);

        // Per-(app, category) SDK method sets (see `category_method_probs`).
        let mut wv_categories: Vec<SdkCategory> = sdks
            .iter()
            .filter(|u| u.webview)
            .map(|u| self.catalog_categories[u.sdk_idx])
            .collect();
        wv_categories.sort();
        wv_categories.dedup();
        let sdk_category_methods: Vec<(SdkCategory, MethodSet)> = wv_categories
            .into_iter()
            .map(|c| (c, sample_category_methods(rng, c)))
            .collect();

        // First-party usage: an app that uses a WebView calls at least
        // one method, drawn by weight when every coin came up tails.
        let direct_wv = coin(rng, DIRECT_WEBVIEW_PROBABILITY);
        let mut direct_wv_methods = MethodSet::EMPTY;
        if direct_wv {
            direct_wv_methods = sample_methods(rng, &DIRECT_METHOD_PROBABILITIES);
            if direct_wv_methods.is_empty() {
                direct_wv_methods.insert(weighted_index(rng, &DIRECT_METHOD_PROBABILITIES));
            }
        }
        let direct_wv_subclass = direct_wv && coin(rng, DIRECT_SUBCLASS_PROBABILITY);
        let direct_ct = coin(rng, DIRECT_CT_PROBABILITY);

        let deep_link = if coin(rng, DEEP_LINK_PROBABILITY) {
            Some(DeepLinkSpec {
                host: format!("www.{}.example.com", meta.package.replace('.', "-")),
                uses_webview: coin(rng, DEEP_LINK_WEBVIEW_PROBABILITY),
            })
        } else {
            None
        };

        AppSpec {
            meta,
            sdks,
            sdk_category_methods,
            direct_wv_methods,
            direct_wv_subclass,
            direct_ct,
            deep_link,
            dead_code_webview: coin(rng, DEAD_CODE_PROBABILITY),
            noise_classes: rng.gen_range(2..10),
        }
    }
}

/// The ten WebView-IAB apps of Table 8 plus Discord (the lone CT IAB),
/// with their download counts and UGC surfaces.
pub fn named_top_apps() -> Vec<TopAppSpec> {
    let named: &[(&str, &str, u64, UgcSurface, LinkBehavior)] = &[
        (
            "Facebook",
            "com.facebook.katana",
            8_400_000_000,
            UgcSurface::Post,
            LinkBehavior::OpensWebViewIab,
        ),
        (
            "Instagram",
            "com.instagram.android",
            4_600_000_000,
            UgcSurface::DirectMessage,
            LinkBehavior::OpensWebViewIab,
        ),
        (
            "Snapchat",
            "com.snapchat.android",
            2_340_000_000,
            UgcSurface::Story,
            LinkBehavior::OpensWebViewIab,
        ),
        (
            "Twitter",
            "com.twitter.android",
            1_380_000_000,
            UgcSurface::DirectMessage,
            LinkBehavior::OpensWebViewIab,
        ),
        (
            "LinkedIn",
            "com.linkedin.android",
            1_200_000_000,
            UgcSurface::Post,
            LinkBehavior::OpensWebViewIab,
        ),
        (
            "Pinterest",
            "com.pinterest",
            840_000_000,
            UgcSurface::DirectMessage,
            LinkBehavior::OpensWebViewIab,
        ),
        (
            "Moj",
            "in.mohalla.video",
            289_000_000,
            UgcSurface::Profile,
            LinkBehavior::OpensWebViewIab,
        ),
        (
            "Kik",
            "kik.android",
            176_500_000,
            UgcSurface::DirectMessage,
            LinkBehavior::OpensWebViewIab,
        ),
        (
            "Reddit",
            "com.reddit.frontpage",
            124_000_000,
            UgcSurface::DirectMessage,
            LinkBehavior::OpensWebViewIab,
        ),
        (
            "Chingari",
            "io.chingari.app",
            97_500_000,
            UgcSurface::Bio,
            LinkBehavior::OpensWebViewIab,
        ),
        (
            "Discord",
            "com.discord",
            500_000_000,
            UgcSurface::DirectMessage,
            LinkBehavior::OpensCustomTab,
        ),
    ];
    named
        .iter()
        .map(
            |&(name, package, downloads, ugc, link_behavior)| TopAppSpec {
                name: name.to_owned(),
                package: package.to_owned(),
                downloads,
                category: if name == "LinkedIn" {
                    PlayCategory::Business
                } else {
                    PlayCategory::Social
                },
                is_browser: false,
                gate: None,
                ugc: Some(ugc),
                link_behavior,
            },
        )
        .collect()
}

/// Generate the top-1K population of Table 6: the 11 named IAB apps, 27
/// browser-opening link apps, 9 browsers, 48 gated apps, and 905 apps
/// without user-generated links. Order is randomized (by `seed`) but the
/// composition is the planted ground truth the classifier must *discover*
/// by driving each app in the device simulator.
pub fn top_thousand(seed: u64) -> Vec<TopAppSpec> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = named_top_apps();

    let filler_downloads =
        |rng: &mut StdRng| -> u64 { 10f64.powf(rng.gen_range(7.94..9.3)) as u64 };

    // 27 social/communication apps where links open in the browser.
    for i in 0..27 {
        let surface = match i % 3 {
            0 => UgcSurface::Post,
            1 => UgcSurface::DirectMessage,
            _ => UgcSurface::Bio,
        };
        out.push(TopAppSpec {
            name: format!("SocialApp{i:02}"),
            package: format!("com.socialnet{i:02}.app"),
            downloads: filler_downloads(&mut rng),
            category: if i % 2 == 0 {
                PlayCategory::Social
            } else {
                PlayCategory::Communication
            },
            is_browser: false,
            gate: None,
            ugc: Some(surface),
            link_behavior: LinkBehavior::OpensBrowser,
        });
    }

    // 9 browser apps.
    for i in 0..9 {
        out.push(TopAppSpec {
            name: format!("Browser{i}"),
            package: format!("com.browser{i}.android"),
            downloads: filler_downloads(&mut rng),
            category: PlayCategory::Communication,
            is_browser: true,
            gate: None,
            ugc: None,
            link_behavior: LinkBehavior::OpensBrowser,
        });
    }

    // 48 gated apps: 24 phone-number, 22 incompatible, 2 paid.
    let gates = std::iter::repeat_n(AccessGate::PhoneNumber, 24)
        .chain(std::iter::repeat_n(AccessGate::Incompatible, 22))
        .chain(std::iter::repeat_n(AccessGate::PaidAccount, 2));
    for (i, gate) in gates.enumerate() {
        out.push(TopAppSpec {
            name: format!("GatedApp{i:02}"),
            package: format!("com.gated{i:02}.app"),
            downloads: filler_downloads(&mut rng),
            category: PlayCategory::Communication,
            is_browser: false,
            gate: Some(gate),
            ugc: None,
            link_behavior: LinkBehavior::OpensBrowser,
        });
    }

    // 905 apps without user-generated content: "predominantly utility apps
    // such as media players, entertainment, stock, and gaming apps".
    let no_ugc_cats = [
        PlayCategory::Video,
        PlayCategory::Entertainment,
        PlayCategory::Finance,
        PlayCategory::Arcade,
        PlayCategory::Puzzle,
        PlayCategory::Tools,
        PlayCategory::Music,
        PlayCategory::Education,
    ];
    for i in 0..905 {
        out.push(TopAppSpec {
            name: format!("App{i:03}"),
            package: format!("com.popular{i:03}.app"),
            downloads: filler_downloads(&mut rng),
            category: no_ugc_cats[i % no_ugc_cats.len()],
            is_browser: false,
            gate: None,
            ugc: None,
            link_behavior: LinkBehavior::OpensBrowser,
        });
    }

    // Shuffle so position encodes nothing (Fisher–Yates).
    for i in (1..out.len()).rev() {
        let j = rng.gen_range(0..=i);
        out.swap(i, j);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::playstore::{MetadataUniverse, UniverseConfig};

    fn catalog() -> SdkIndex {
        SdkIndex::paper()
    }

    fn sample_specs(n: u64, seed: u64) -> (SdkIndex, Vec<AppSpec>) {
        let cat = catalog();
        let eco = Ecosystem::new(&cat, EcosystemParams::default());
        let mut rng = StdRng::seed_from_u64(seed);
        let metas: Vec<AppMeta> = MetadataUniverse::new(UniverseConfig {
            total_apps: n * 20,
            ..UniverseConfig::default()
        })
        .filter(|m| crate::playstore::FilterSpec::default().accepts(m))
        .take(n as usize)
        .collect();
        let specs = metas
            .into_iter()
            .map(|m| eco.sample_app(&mut rng, m))
            .collect();
        (cat, specs)
    }

    #[test]
    fn method_set_ops() {
        let mut s = MethodSet::EMPTY;
        assert!(s.is_empty());
        s.insert(M_LOAD_URL);
        s.insert(M_EVAL_JS);
        assert!(s.contains(M_LOAD_URL));
        assert!(!s.contains(M_POST_URL));
    }

    #[test]
    fn user_support_apps_all_load_local_data() {
        // §4.1.5: "all apps using WebViews for user support load local data
        // into the WebView using the loadDataWithBaseURL method". The
        // generator draws every app's user-support method set here.
        let mut rng = StdRng::seed_from_u64(7);
        for draw in 0..2_000 {
            let set = sample_category_methods(&mut rng, SdkCategory::UserSupport);
            assert!(set.contains(M_LOAD_DATA_BASE), "draw {draw}: {set:?}");
        }
    }

    #[test]
    fn population_shares_match_paper_shape() {
        let (_, specs) = sample_specs(6_000, 42);
        let n = specs.len() as f64;
        let wv = specs.iter().filter(|s| s.uses_webview()).count() as f64 / n;
        let ct = specs.iter().filter(|s| s.uses_custom_tabs()).count() as f64 / n;
        let both = specs
            .iter()
            .filter(|s| s.uses_webview() && s.uses_custom_tabs())
            .count() as f64
            / n;
        // Paper: 55.7% / ~20% / ~15%. Allow generous sampling tolerance.
        assert!((wv - 0.557).abs() < 0.04, "webview share {wv}");
        assert!((ct - 0.199).abs() < 0.04, "ct share {ct}");
        assert!((both - 0.15).abs() < 0.04, "both share {both}");
        // Orderings that define the paper's story.
        assert!(wv > ct && ct > both);
    }

    #[test]
    fn advertising_is_dominant_webview_use_case() {
        let (cat, specs) = sample_specs(4_000, 7);
        let ad_apps = specs
            .iter()
            .filter(|s| {
                s.sdks.iter().any(|u| {
                    u.webview && cat.sdks()[u.sdk_idx].category == SdkCategory::Advertising
                })
            })
            .count() as f64;
        let share = ad_apps / specs.len() as f64;
        // 39,163 / 146,558 ≈ 26.7%. The realized share rides on the
        // metadata universe's category mix, which is a deterministic
        // function of the RNG stream (vendor/README.md) — so the band is
        // wider than per-app binomial noise alone would suggest.
        assert!((share - 0.267).abs() < 0.06, "ad share {share}");
    }

    #[test]
    fn facebook_dominates_ct_social() {
        let (cat, specs) = sample_specs(4_000, 9);
        let fb_idx = cat
            .sdks()
            .iter()
            .position(|s| s.name == "Facebook")
            .unwrap();
        let soc_ct = specs
            .iter()
            .filter(|s| {
                s.sdks
                    .iter()
                    .any(|u| u.custom_tabs && cat.sdks()[u.sdk_idx].category == SdkCategory::Social)
            })
            .count() as f64;
        let fb = specs
            .iter()
            .filter(|s| s.sdks.iter().any(|u| u.custom_tabs && u.sdk_idx == fb_idx))
            .count() as f64;
        assert!(fb / soc_ct > 0.9, "facebook share {}", fb / soc_ct);
    }

    #[test]
    fn sampling_is_deterministic() {
        let (_, a) = sample_specs(200, 5);
        let (_, b) = sample_specs(200, 5);
        assert_eq!(a, b);
    }

    #[test]
    fn sdk_uses_are_unique_and_sorted() {
        let (_, specs) = sample_specs(500, 3);
        for s in &specs {
            for w in s.sdks.windows(2) {
                assert!(w[0].sdk_idx < w[1].sdk_idx);
            }
            for u in &s.sdks {
                assert!(u.webview || u.custom_tabs);
            }
        }
    }

    #[test]
    fn top_thousand_composition_matches_table6_ground_truth() {
        let apps = top_thousand(99);
        assert_eq!(apps.len(), 1_000);
        assert_eq!(apps.iter().filter(|a| a.ugc.is_some()).count(), 38);
        assert_eq!(apps.iter().filter(|a| a.is_browser).count(), 9);
        assert_eq!(apps.iter().filter(|a| a.gate.is_some()).count(), 48);
        assert_eq!(
            apps.iter()
                .filter(|a| a.link_behavior == LinkBehavior::OpensWebViewIab && a.ugc.is_some())
                .count(),
            10
        );
        assert_eq!(
            apps.iter()
                .filter(|a| a.link_behavior == LinkBehavior::OpensCustomTab)
                .count(),
            1
        );
        // Everyone in the top 1K has at least ~86M downloads (paper §5).
        assert!(apps.iter().all(|a| a.downloads >= 86_000_000));
    }

    #[test]
    fn named_apps_have_paper_downloads() {
        let named = named_top_apps();
        let get = |n: &str| named.iter().find(|a| a.name == n).unwrap().downloads;
        assert_eq!(get("Facebook"), 8_400_000_000);
        assert_eq!(get("Kik"), 176_500_000);
        assert_eq!(get("Chingari"), 97_500_000);
    }

    #[test]
    fn category_multipliers_shape() {
        assert!(
            category_multiplier(PlayCategory::Education, SdkCategory::Advertising, false) < 1.0
        );
        assert!(category_multiplier(PlayCategory::Education, SdkCategory::Payments, false) > 1.0);
        assert!(category_multiplier(PlayCategory::Puzzle, SdkCategory::Social, true) > 1.0);
        assert_eq!(
            category_multiplier(PlayCategory::Tools, SdkCategory::Social, true),
            1.0
        );
    }
}

impl EcosystemParams {
    /// What-if transform for §5's recommendations: SDKs of `categories`
    /// migrate `fraction` of their WebView-path adoption to Custom Tabs
    /// (as Facebook and NAVER already did, and as the paper urges payment
    /// and identity SDKs to do; Google's Ad SDK began this in March 2024).
    ///
    /// Only the *adoption mass* moves between the per-category pools;
    /// within-pool SDK attribution keeps the catalog's weights. Shares of
    /// apps using WebViews / CTs / both are the meaningful outputs.
    pub fn simulate_ct_migration(mut self, categories: &[SdkCategory], fraction: f64) -> Self {
        let fraction = fraction.clamp(0.0, 1.0);
        for (cat, total) in &mut self.wv_pool_totals {
            if !categories.contains(cat) {
                continue;
            }
            let moved = (*total as f64 * fraction) as u64;
            *total -= moved;
            match self.ct_pool_totals.iter_mut().find(|(c, _)| c == cat) {
                Some((_, ct_total)) => *ct_total += moved,
                None => self.ct_pool_totals.push((*cat, moved)),
            }
        }
        // Remove emptied pools so sampling skips them cleanly.
        self.wv_pool_totals.retain(|(_, t)| *t > 0);
        self
    }
}

#[cfg(test)]
mod migration_tests {
    use super::*;

    #[test]
    fn migration_moves_mass_between_pools() {
        let base = EcosystemParams::default();
        let migrated = base
            .clone()
            .simulate_ct_migration(&[SdkCategory::Advertising], 1.0);
        // Advertising WebView pool is gone…
        assert!(!migrated
            .wv_pool_totals
            .iter()
            .any(|(c, _)| *c == SdkCategory::Advertising));
        // …and its mass landed on the CT side.
        let base_ct = base
            .ct_pool_totals
            .iter()
            .find(|(c, _)| *c == SdkCategory::Advertising)
            .unwrap()
            .1;
        let new_ct = migrated
            .ct_pool_totals
            .iter()
            .find(|(c, _)| *c == SdkCategory::Advertising)
            .unwrap()
            .1;
        assert_eq!(new_ct, base_ct + 39_163);
    }

    #[test]
    fn partial_migration_keeps_both_pools() {
        let migrated =
            EcosystemParams::default().simulate_ct_migration(&[SdkCategory::Payments], 0.5);
        let wv = migrated
            .wv_pool_totals
            .iter()
            .find(|(c, _)| *c == SdkCategory::Payments)
            .unwrap()
            .1;
        assert_eq!(wv, 3_212 - 1_606);
    }

    #[test]
    fn migrated_ecosystem_shifts_shares() {
        let catalog = SdkIndex::paper();
        let base_params = EcosystemParams::default();
        let migrated_params = base_params
            .clone()
            .simulate_ct_migration(&[SdkCategory::Advertising, SdkCategory::Payments], 1.0);
        let sample = |params: EcosystemParams| {
            let eco = Ecosystem::new(&catalog, params);
            let mut rng = StdRng::seed_from_u64(5);
            let metas: Vec<AppMeta> =
                crate::playstore::MetadataUniverse::new(crate::playstore::UniverseConfig {
                    total_apps: 60_000,
                    ..Default::default()
                })
                .filter(|m| crate::playstore::FilterSpec::default().accepts(m))
                .take(2_500)
                .collect();
            let specs: Vec<AppSpec> = metas
                .into_iter()
                .map(|m| eco.sample_app(&mut rng, m))
                .collect();
            let n = specs.len() as f64;
            (
                specs.iter().filter(|s| s.uses_webview()).count() as f64 / n,
                specs.iter().filter(|s| s.uses_custom_tabs()).count() as f64 / n,
            )
        };
        let (base_wv, base_ct) = sample(base_params);
        let (mig_wv, mig_ct) = sample(migrated_params);
        assert!(mig_wv < base_wv - 0.05, "wv {base_wv} -> {mig_wv}");
        assert!(mig_ct > base_ct + 0.05, "ct {base_ct} -> {mig_ct}");
    }
}
