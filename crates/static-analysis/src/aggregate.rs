//! Corpus-level aggregation: everything Tables 3/4/5/7 and Figures 3/4
//! report, computed from per-app analyses plus the SDK index.
//!
//! The sums live in a [`Tally`]: one per pool worker on the folded path
//! ([`run_pipeline_tallied`](crate::run_pipeline_tallied)), one per
//! [`PipelineOutput`] in [`aggregate`]. [`Tally::add`] runs entirely on
//! the interned IR: methods are counted by
//! their record-time [`WEBVIEW_CONTENT_METHODS`] index, packages by their
//! record-time [`LabelId`], and SDKs by catalog index into flat arrays.
//! No symbol is resolved and no `String` is hashed anywhere in here —
//! the only strings the result owns are display names copied at the very
//! end (method names, SDK names).
//!
//! [`WEBVIEW_CONTENT_METHODS`]: wla_apk::names::WEBVIEW_CONTENT_METHODS

use crate::analyze::AppView;
use crate::pipeline::PipelineOutput;
use std::collections::{BTreeMap, HashSet};
use std::fmt;
use wla_callgraph::UrlOrigin;
use wla_corpus::playstore::PlayCategory;
use wla_corpus::METHODS;
use wla_intern::FxBuildHasher;
use wla_sdk_index::{LabelId, SdkCategory, SdkIndex};

/// Number of SDK categories (Table 3 rows).
const NCAT: usize = SdkCategory::ALL.len();

/// Per-SDK usage counts (Tables 4 and 5 rows).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SdkUsageRow {
    /// SDK display name, borrowed from the static catalog.
    pub name: &'static str,
    /// SDK category.
    pub category: SdkCategory,
    /// Apps observed calling a WebView load method from this SDK's package.
    pub wv_apps: usize,
    /// Apps observed calling `launchUrl` from this SDK's package.
    pub ct_apps: usize,
}

/// Per-category SDK counts (Table 3 rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SdkTypeCount {
    /// SDK category.
    pub category: SdkCategory,
    /// SDKs observed using WebViews (≥ threshold apps).
    pub webview: usize,
    /// SDKs observed using CTs.
    pub custom_tabs: usize,
    /// SDKs observed using both.
    pub both: usize,
}

/// One Table 7 row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MethodCensusRow {
    /// Method name.
    pub method: String,
    /// Apps with a reachable third-party call to this method.
    pub apps: usize,
    /// Of those, apps where the call comes from a labeled SDK package.
    pub apps_via_top_sdks: usize,
}

/// One Figure 4 heatmap row: P(method | app uses SDKs of this category).
#[derive(Debug, Clone, PartialEq)]
pub struct HeatmapRow {
    /// SDK category.
    pub category: SdkCategory,
    /// Apps using WebView SDKs of this category (denominator).
    pub apps: usize,
    /// Per-method fraction, aligned with [`METHODS`].
    pub method_fraction: [f64; 7],
}

/// One Figure 3 bar: apps per (Play category × SDK category).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CategoryBreakdown {
    /// Play category.
    pub play_category: PlayCategory,
    /// Total apps of this Play category using the mechanism via SDKs.
    pub total: usize,
    /// Apps per SDK category.
    pub by_sdk_category: Vec<(SdkCategory, usize)>,
}

/// §3.1.4 URL-origin census: of the third-party URL-bearing call sites
/// (WebView *load* methods and CT `launchUrl`), how many did constant
/// propagation resolve to a single URL constant, and how many apps are
/// fully accounted for.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UrlOriginCensus {
    /// Sites whose URL argument resolved to one string constant.
    pub resolved_sites: usize,
    /// Sites whose URL argument never resolved to a constant.
    pub unknown_sites: usize,
    /// Sites where distinct constants merge on different paths.
    pub conflict_sites: usize,
    /// Apps with ≥ 1 URL-bearing site, all of them resolved.
    pub apps_fully_resolved: usize,
    /// Apps with ≥ 1 unresolved (unknown or conflicting) site.
    pub apps_with_unresolved: usize,
}

impl UrlOriginCensus {
    /// Total URL-bearing sites classified.
    pub fn sites(&self) -> usize {
        self.resolved_sites + self.unknown_sites + self.conflict_sites
    }
}

/// Everything the static study measures.
#[derive(Debug, Clone, PartialEq)]
pub struct StudyResults {
    /// Apps whose containers decoded and analyzed.
    pub analyzed: usize,
    /// Broken containers.
    pub broken: usize,
    /// Apps using WebViews (third-party-capable sites only).
    pub webview_apps: usize,
    /// Apps using Custom Tabs.
    pub ct_apps: usize,
    /// Apps using both.
    pub both_apps: usize,
    /// WebView apps whose load methods are called from labeled SDKs.
    pub webview_apps_via_top_sdks: usize,
    /// CT apps whose `launchUrl` is called from labeled SDKs.
    pub ct_apps_via_top_sdks: usize,
    /// Apps using both, both via labeled SDKs.
    pub both_apps_via_top_sdks: usize,
    /// Table 7 per-method rows, in [`METHODS`] order.
    pub method_census: Vec<MethodCensusRow>,
    /// Per-SDK usage rows, sorted by total usage descending.
    pub sdk_usage: Vec<SdkUsageRow>,
    /// Table 3 rows (SDKs observed with ≥ `top_sdk_threshold` apps).
    pub sdk_type_counts: Vec<SdkTypeCount>,
    /// Figure 4 heatmap rows.
    pub heatmap: Vec<HeatmapRow>,
    /// Figure 3, WebView panel (top-10 Play categories).
    pub category_webview: Vec<CategoryBreakdown>,
    /// Figure 3, CT panel.
    pub category_ct: Vec<CategoryBreakdown>,
    /// Apps with load-method calls from obfuscated packages.
    pub obfuscated_caller_apps: usize,
    /// Apps with load-method calls from unlabeled packages.
    pub unlabeled_caller_apps: usize,
    /// Custom `extends WebView` classes found across the corpus.
    pub custom_webview_classes: usize,
    /// Unreachable WebView sites discarded by traversal (ablation metric).
    pub unreachable_sites_discarded: usize,
    /// Ablation: WebView-app count if deep-link (first-party) activities
    /// were *not* excluded — the §3.1.3 filter's effect.
    pub webview_apps_without_deeplink_exclusion: usize,
    /// Ablation: WebView-app count if unreachable (dead-code) sites were
    /// counted — what a whole-graph scan without entry-point traversal
    /// would report.
    pub webview_apps_without_reachability: usize,
    /// §3.1.4 resolved-vs-unknown URL-origin census over third-party
    /// URL-bearing sites.
    pub url_origin_census: UrlOriginCensus,
}

/// Aggregate pipeline output. `top_sdk_threshold` is the minimum number of
/// observed apps for an SDK to appear in the per-SDK usage rows. The
/// paper's >100-apps popularity criterion is already encoded in the
/// catalog (every entry is a package the paper found in >100 apps), so the
/// usual threshold is 1; rare SDKs simply may not be sampled at high scale
/// divisors — EXPERIMENTS.md quantifies this.
pub fn aggregate(
    output: &PipelineOutput,
    catalog: &SdkIndex,
    top_sdk_threshold: usize,
) -> StudyResults {
    let mut tally = Tally::new(catalog);
    for result in output.results() {
        match result {
            Ok(analysis) => tally.add(analysis),
            Err(_) => tally.add_broken(),
        }
    }
    tally.finish(top_sdk_threshold)
}

/// Everything [`StudyResults`] reports, kept as running sums over apps:
/// counters, flat arrays indexed by method, SDK category and catalog
/// position, and a per-Play-category map. Each is a plain sum, so the
/// tallies of any split of a corpus [`merge`](Tally::merge) into exactly
/// the tally of the whole, in any order. [`aggregate`] folds a
/// [`PipelineOutput`] through one tally;
/// [`run_pipeline_tallied`](crate::run_pipeline_tallied) gives each pool
/// worker its own and keeps no per-app result.
pub struct Tally<'c> {
    catalog: &'c SdkIndex,
    sums: Sums,
    // Per-app scratch, reused across apps (cleared, not realloc'd).
    app_wv_sdks: HashSet<u32, FxBuildHasher>,
    app_ct_sdks: HashSet<u32, FxBuildHasher>,
}

/// The sums a [`Tally`] keeps; its scratch sets are no part of them.
#[derive(Debug, Default, PartialEq, Eq)]
struct Sums {
    analyzed: usize,
    broken: usize,
    webview_apps: usize,
    ct_apps: usize,
    both_apps: usize,
    wv_via: usize,
    ct_via: usize,
    both_via: usize,
    obfuscated_caller_apps: usize,
    unlabeled_caller_apps: usize,
    custom_webview_classes: usize,
    unreachable: usize,
    // Ablation counters: what naive pipelines would have reported.
    wv_no_deeplink_excl: usize,
    wv_no_reach: usize,
    method_apps: [usize; 7],
    method_via: [usize; 7],
    // Per-SDK app counts, indexed by catalog position.
    sdk_wv_apps: Vec<usize>,
    sdk_ct_apps: Vec<usize>,
    // Figure 4, indexed by `SdkCategory::table3_index`: per SDK category,
    // apps using it (wv) and per method, apps where that category's SDK
    // code calls the method.
    cat_apps: [usize; NCAT],
    cat_method_apps: [[usize; 7]; NCAT],
    // Figure 3: Play category → per-SDK-category app counts.
    play_wv: BTreeMap<PlayCategory, [usize; NCAT]>,
    play_ct: BTreeMap<PlayCategory, [usize; NCAT]>,
    census: UrlOriginCensus,
}

/// Add `more` into `sum`, element by element.
fn add_into(sum: &mut [usize], more: &[usize]) {
    debug_assert_eq!(sum.len(), more.len());
    for (s, m) in sum.iter_mut().zip(more) {
        *s += m;
    }
}

impl<'c> Tally<'c> {
    /// An empty tally that labels SDK hits against `catalog`.
    pub fn new(catalog: &'c SdkIndex) -> Tally<'c> {
        let n_sdks = catalog.sdks().len();
        Tally {
            catalog,
            sums: Sums {
                sdk_wv_apps: vec![0; n_sdks],
                sdk_ct_apps: vec![0; n_sdks],
                ..Sums::default()
            },
            app_wv_sdks: HashSet::default(),
            app_ct_sdks: HashSet::default(),
        }
    }

    /// Fold in one analyzed app.
    pub fn add(&mut self, a: AppView<'_>) {
        let sdks = self.catalog.sdks();
        let s = &mut self.sums;
        s.analyzed += 1;
        s.custom_webview_classes += a.custom_webview_classes.len();
        s.unreachable += a.unreachable_webview_sites;
        if !a.webview_sites.is_empty() {
            s.wv_no_deeplink_excl += 1;
        }
        if !a.webview_sites.is_empty() || a.unreachable_webview_sites > 0 {
            s.wv_no_reach += 1;
        }
        let uses_wv = a.uses_webview();
        let uses_ct = a.uses_custom_tabs();
        if uses_wv {
            s.webview_apps += 1;
        }
        if uses_ct {
            s.ct_apps += 1;
        }
        if uses_wv && uses_ct {
            s.both_apps += 1;
        }

        // Record-time labels: no trie walks, no package strings here.
        let app_wv_sdks = &mut self.app_wv_sdks;
        let app_ct_sdks = &mut self.app_ct_sdks;
        app_wv_sdks.clear();
        app_ct_sdks.clear();
        let mut app_obfuscated = false;
        let mut app_unlabeled = false;
        // Methods called, and methods called from any labeled SDK package.
        let mut methods = [false; 7];
        let mut methods_sdk = [false; 7];
        // Per SDK category, methods called from that category's packages.
        let mut methods_by_cat = [[false; 7]; NCAT];
        // URL-origin census over this app's URL-bearing sites.
        let mut app_url_sites = 0usize;
        let mut app_unresolved = 0usize;
        let mut tally_origin = |census: &mut UrlOriginCensus, origin: UrlOrigin| {
            app_url_sites += 1;
            match origin {
                UrlOrigin::Resolved => census.resolved_sites += 1,
                UrlOrigin::Unknown => {
                    census.unknown_sites += 1;
                    app_unresolved += 1;
                }
                UrlOrigin::Conflict => {
                    census.conflict_sites += 1;
                    app_unresolved += 1;
                }
            }
        };

        for site in a.third_party_webview() {
            let mi = site.method_idx as usize;
            methods[mi] = true;
            let is_load_method = site.is_load_method();
            if is_load_method {
                tally_origin(&mut s.census, site.origin);
            }
            match site.label {
                LabelId::Sdk(idx) => {
                    methods_sdk[mi] = true;
                    let cat = sdks[idx as usize].category;
                    methods_by_cat[cat.table3_index()][mi] = true;
                    if is_load_method {
                        app_wv_sdks.insert(u32::from(idx));
                    }
                }
                LabelId::Obfuscated if is_load_method => app_obfuscated = true,
                LabelId::Unlabeled if is_load_method => app_unlabeled = true,
                _ => {}
            }
        }
        for site in a.third_party_ct() {
            if !site.is_launch {
                continue;
            }
            tally_origin(&mut s.census, site.origin);
            if let LabelId::Sdk(idx) = site.label {
                app_ct_sdks.insert(u32::from(idx));
            }
        }
        if app_url_sites > 0 {
            if app_unresolved == 0 {
                s.census.apps_fully_resolved += 1;
            } else {
                s.census.apps_with_unresolved += 1;
            }
        }

        for (i, &m) in methods.iter().enumerate() {
            if m {
                s.method_apps[i] += 1;
            }
            if methods_sdk[i] {
                s.method_via[i] += 1;
            }
        }
        for &idx in app_wv_sdks.iter() {
            s.sdk_wv_apps[idx as usize] += 1;
        }
        for &idx in app_ct_sdks.iter() {
            s.sdk_ct_apps[idx as usize] += 1;
        }
        if app_obfuscated {
            s.obfuscated_caller_apps += 1;
        }
        if app_unlabeled {
            s.unlabeled_caller_apps += 1;
        }

        let wv_sdk = !app_wv_sdks.is_empty();
        let ct_sdk = !app_ct_sdks.is_empty();
        if uses_wv && wv_sdk {
            s.wv_via += 1;
        }
        if uses_ct && ct_sdk {
            s.ct_via += 1;
        }
        if uses_wv && uses_ct && wv_sdk && ct_sdk {
            s.both_via += 1;
        }

        // Figure 4: categories of this app's load-method SDK callers.
        let mut app_cats = [false; NCAT];
        for &idx in app_wv_sdks.iter() {
            app_cats[sdks[idx as usize].category.table3_index()] = true;
        }
        for (t3, &used) in app_cats.iter().enumerate() {
            if !used {
                continue;
            }
            s.cat_apps[t3] += 1;
            for (i, &hit) in methods_by_cat[t3].iter().enumerate() {
                if hit {
                    s.cat_method_apps[t3][i] += 1;
                }
            }
        }

        // Figure 3.
        if app_cats.iter().any(|&u| u) {
            let row = s.play_wv.entry(a.category).or_insert([0; NCAT]);
            for (t3, &used) in app_cats.iter().enumerate() {
                if used {
                    row[t3] += 1;
                }
            }
        }
        let mut ct_cats = [false; NCAT];
        for &idx in app_ct_sdks.iter() {
            ct_cats[sdks[idx as usize].category.table3_index()] = true;
        }
        if ct_cats.iter().any(|&u| u) {
            let row = s.play_ct.entry(a.category).or_insert([0; NCAT]);
            for (t3, &used) in ct_cats.iter().enumerate() {
                if used {
                    row[t3] += 1;
                }
            }
        }
    }

    /// Count one app whose container failed to decode or whose analysis
    /// failed (Table 2's broken row).
    pub fn add_broken(&mut self) {
        self.sums.broken += 1;
    }

    /// Add `other`'s sums to this tally's. Both must label against the
    /// same catalog.
    pub fn merge(&mut self, other: &Tally<'_>) {
        // Destructured, so a sum added to `Sums` cannot be left unmerged.
        let Sums {
            analyzed,
            broken,
            webview_apps,
            ct_apps,
            both_apps,
            wv_via,
            ct_via,
            both_via,
            obfuscated_caller_apps,
            unlabeled_caller_apps,
            custom_webview_classes,
            unreachable,
            wv_no_deeplink_excl,
            wv_no_reach,
            method_apps,
            method_via,
            sdk_wv_apps,
            sdk_ct_apps,
            cat_apps,
            cat_method_apps,
            play_wv,
            play_ct,
            census,
        } = &other.sums;
        let s = &mut self.sums;
        s.analyzed += analyzed;
        s.broken += broken;
        s.webview_apps += webview_apps;
        s.ct_apps += ct_apps;
        s.both_apps += both_apps;
        s.wv_via += wv_via;
        s.ct_via += ct_via;
        s.both_via += both_via;
        s.obfuscated_caller_apps += obfuscated_caller_apps;
        s.unlabeled_caller_apps += unlabeled_caller_apps;
        s.custom_webview_classes += custom_webview_classes;
        s.unreachable += unreachable;
        s.wv_no_deeplink_excl += wv_no_deeplink_excl;
        s.wv_no_reach += wv_no_reach;
        add_into(&mut s.method_apps, method_apps);
        add_into(&mut s.method_via, method_via);
        add_into(&mut s.sdk_wv_apps, sdk_wv_apps);
        add_into(&mut s.sdk_ct_apps, sdk_ct_apps);
        add_into(&mut s.cat_apps, cat_apps);
        for (sum, more) in s.cat_method_apps.iter_mut().zip(cat_method_apps) {
            add_into(sum, more);
        }
        for (&key, row) in play_wv {
            add_into(s.play_wv.entry(key).or_insert([0; NCAT]), row);
        }
        for (&key, row) in play_ct {
            add_into(s.play_ct.entry(key).or_insert([0; NCAT]), row);
        }
        s.census.resolved_sites += census.resolved_sites;
        s.census.unknown_sites += census.unknown_sites;
        s.census.conflict_sites += census.conflict_sites;
        s.census.apps_fully_resolved += census.apps_fully_resolved;
        s.census.apps_with_unresolved += census.apps_with_unresolved;
    }

    /// The tables: per-SDK usage rows of SDKs seen in at least
    /// `top_sdk_threshold` apps (see [`aggregate`]), Table 3 counts, the
    /// Figure 4 heatmap, the Figure 3 top-10 panels and Table 7's census.
    pub fn finish(self, top_sdk_threshold: usize) -> StudyResults {
        let s = self.sums;

        // Per-SDK usage rows above the popularity threshold.
        let mut sdk_usage: Vec<SdkUsageRow> = self
            .catalog
            .sdks()
            .iter()
            .enumerate()
            .filter_map(|(i, sdk)| {
                let wv = s.sdk_wv_apps[i];
                let ct = s.sdk_ct_apps[i];
                if wv.max(ct) >= top_sdk_threshold.max(1) && !sdk.obfuscated {
                    Some(SdkUsageRow {
                        name: sdk.name,
                        category: sdk.category,
                        wv_apps: wv,
                        ct_apps: ct,
                    })
                } else {
                    None
                }
            })
            .collect();
        sdk_usage.sort_by_key(|r| std::cmp::Reverse(r.wv_apps + r.ct_apps));

        // Table 3 counts.
        let sdk_type_counts = SdkCategory::ALL
            .iter()
            .map(|&category| {
                let of_cat: Vec<&SdkUsageRow> = sdk_usage
                    .iter()
                    .filter(|r| r.category == category)
                    .collect();
                SdkTypeCount {
                    category,
                    webview: of_cat
                        .iter()
                        .filter(|r| r.wv_apps >= top_sdk_threshold)
                        .count(),
                    custom_tabs: of_cat
                        .iter()
                        .filter(|r| r.ct_apps >= top_sdk_threshold)
                        .count(),
                    both: of_cat
                        .iter()
                        .filter(|r| {
                            r.wv_apps >= top_sdk_threshold && r.ct_apps >= top_sdk_threshold
                        })
                        .count(),
                }
            })
            .collect();

        // Figure 4 rows, in `SdkCategory` order (the order keyed maps used
        // to produce) — only categories with observed apps appear.
        let mut heatmap: Vec<HeatmapRow> = SdkCategory::ALL
            .iter()
            .filter(|c| s.cat_apps[c.table3_index()] > 0)
            .map(|&category| {
                let t3 = category.table3_index();
                let apps = s.cat_apps[t3];
                HeatmapRow {
                    category,
                    apps,
                    method_fraction: s.cat_method_apps[t3].map(|hits| hits as f64 / apps as f64),
                }
            })
            .collect();
        heatmap.sort_by_key(|r| r.category);

        // Figure 3 top-10 panels.
        let top10 = |map: BTreeMap<PlayCategory, [usize; NCAT]>| {
            let mut rows: Vec<CategoryBreakdown> = map
                .into_iter()
                .map(|(play_category, by)| {
                    let mut by_sdk_category: Vec<(SdkCategory, usize)> = SdkCategory::ALL
                        .iter()
                        .filter_map(|&c| {
                            let count = by[c.table3_index()];
                            (count > 0).then_some((c, count))
                        })
                        .collect();
                    by_sdk_category.sort_by_key(|&(c, _)| c);
                    CategoryBreakdown {
                        play_category,
                        total: by_sdk_category.iter().map(|&(_, n)| n).sum(),
                        by_sdk_category,
                    }
                })
                .collect();
            rows.sort_by_key(|r| std::cmp::Reverse(r.total));
            rows.truncate(10);
            rows
        };

        let method_census = METHODS
            .iter()
            .enumerate()
            .map(|(i, m)| MethodCensusRow {
                method: (*m).to_owned(),
                apps: s.method_apps[i],
                apps_via_top_sdks: s.method_via[i],
            })
            .collect();

        StudyResults {
            analyzed: s.analyzed,
            broken: s.broken,
            webview_apps: s.webview_apps,
            ct_apps: s.ct_apps,
            both_apps: s.both_apps,
            webview_apps_via_top_sdks: s.wv_via,
            ct_apps_via_top_sdks: s.ct_via,
            both_apps_via_top_sdks: s.both_via,
            method_census,
            sdk_usage,
            sdk_type_counts,
            heatmap,
            category_webview: top10(s.play_wv),
            category_ct: top10(s.play_ct),
            obfuscated_caller_apps: s.obfuscated_caller_apps,
            unlabeled_caller_apps: s.unlabeled_caller_apps,
            custom_webview_classes: s.custom_webview_classes,
            unreachable_sites_discarded: s.unreachable,
            webview_apps_without_deeplink_exclusion: s.wv_no_deeplink_excl,
            webview_apps_without_reachability: s.wv_no_reach,
            url_origin_census: s.census,
        }
    }
}

/// Two tallies are equal when their sums are; the catalog and the
/// per-app scratch do not count.
impl PartialEq for Tally<'_> {
    fn eq(&self, other: &Tally<'_>) -> bool {
        self.sums == other.sums
    }
}

impl fmt::Debug for Tally<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Tally").field(&self.sums).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{run_pipeline, PipelineConfig};
    use wla_corpus::{CorpusConfig, Generator};

    fn study(scale: u32, seed: u64) -> (StudyResults, Vec<wla_corpus::GeneratedApp>) {
        let catalog = SdkIndex::paper();
        let cfg = CorpusConfig {
            scale,
            seed,
            ..CorpusConfig::default()
        };
        let apps = Generator::new(&catalog, cfg).generate();
        let out = run_pipeline(&apps, &catalog, PipelineConfig::default());
        let threshold = (100 / scale as usize).max(1);
        (aggregate(&out, &catalog, threshold), apps)
    }

    #[test]
    fn recovered_totals_match_ground_truth_exactly() {
        let (results, apps) = study(400, 21);
        let truth_wv = apps
            .iter()
            .filter(|g| !g.corrupted && g.spec.uses_webview)
            .count();
        let truth_ct = apps
            .iter()
            .filter(|g| !g.corrupted && g.spec.uses_custom_tabs)
            .count();
        assert_eq!(results.webview_apps, truth_wv);
        assert_eq!(results.ct_apps, truth_ct);
        assert_eq!(results.analyzed + results.broken, apps.len());
    }

    #[test]
    fn shares_match_paper_shape_at_scale() {
        let (results, _) = study(100, 77);
        let n = results.analyzed as f64;
        let wv = results.webview_apps as f64 / n;
        let ct = results.ct_apps as f64 / n;
        let both = results.both_apps as f64 / n;
        assert!((wv - 0.557).abs() < 0.05, "wv {wv}");
        assert!((ct - 0.199).abs() < 0.05, "ct {ct}");
        assert!((both - 0.15).abs() < 0.05, "both {both}");
        // loadUrl dominates the method census (Table 7's ordering).
        let census = &results.method_census;
        assert_eq!(census[0].method, "loadUrl");
        assert!(census[0].apps > census[1].apps);
        // Advertising SDKs dominate WebView usage; social dominates CT.
        let ads = results
            .sdk_usage
            .iter()
            .filter(|r| r.category == SdkCategory::Advertising)
            .map(|r| r.wv_apps)
            .max()
            .unwrap_or(0);
        assert!(ads > 0);
        let fb = results
            .sdk_usage
            .iter()
            .find(|r| r.name == "Facebook")
            .map(|r| r.ct_apps)
            .unwrap_or(0);
        assert!(
            fb as f64 / results.ct_apps as f64 > 0.5,
            "facebook {fb} of {}",
            results.ct_apps
        );
    }

    #[test]
    fn heatmap_user_support_loads_local_data() {
        let (results, _) = study(200, 5);
        let row = results
            .heatmap
            .iter()
            .find(|r| r.category == SdkCategory::UserSupport)
            .expect("the 1:200 corpus has user-support apps");
        // Figure 4 / §4.1.5: all user-support apps call
        // loadDataWithBaseURL (index 2).
        assert!(row.method_fraction[2] > 0.99, "{:?}", row.method_fraction);
    }

    #[test]
    fn figure3_panels_have_at_most_ten_rows() {
        let (results, _) = study(200, 6);
        assert!(results.category_webview.len() <= 10);
        assert!(results.category_ct.len() <= 10);
        assert!(!results.category_webview.is_empty());
    }

    #[test]
    fn url_census_fully_resolves_generated_corpus() {
        // The lowering register-shuffles every URL call, but the argument
        // register always carries exactly one constant on every path, so
        // the dataflow pass must resolve 100% of URL-bearing sites.
        let (results, _) = study(200, 13);
        let c = results.url_origin_census;
        assert!(c.resolved_sites > 0);
        assert_eq!(c.unknown_sites, 0);
        assert_eq!(c.conflict_sites, 0);
        assert!(c.apps_fully_resolved > 0);
        assert_eq!(c.apps_with_unresolved, 0);
    }

    #[test]
    fn dead_sites_are_counted_as_discarded() {
        let (results, apps) = study(400, 8);
        let truth: usize = apps
            .iter()
            .filter(|g| !g.corrupted && g.spec.dead_code_webview)
            .count();
        assert_eq!(results.unreachable_sites_discarded, truth);
    }
}
