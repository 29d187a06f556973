//! String-path aggregation oracle.
//!
//! A faithful copy of the *pre-interning* aggregation: every site's method
//! is taken as text (a WebView site's name by its index, a Custom-Tabs
//! site's resolved) and matched by string compare,
//! every caller package is derived as text from the resolved caller class
//! and re-labeled through [`SdkIndex::label_id`] per site (no memo), and
//! per-SDK accounting goes through keyed maps. It exists for two jobs:
//!
//! 1. the metamorphic suite proves `aggregate` (interned path) produces
//!    *identical* [`StudyResults`] on randomized corpora, and
//! 2. the `static_pipeline` bench measures the interned path's speedup
//!    against it (EXPERIMENTS.md ablation).
//!
//! Deliberately not optimized — its value is being the obviously-correct
//! old semantics, kept compiling against the interned data model.

use std::collections::{BTreeMap, HashMap, HashSet};
use wla_apk::names::package_of_into;
use wla_callgraph::UrlOrigin;
use wla_corpus::playstore::PlayCategory;
use wla_corpus::METHODS;
use wla_intern::Symbol;
use wla_sdk_index::{LabelId, SdkCategory, SdkIndex};
use wla_static::aggregate::{
    CategoryBreakdown, HeatmapRow, MethodCensusRow, SdkTypeCount, SdkUsageRow, StudyResults,
    UrlOriginCensus,
};
use wla_static::{AppView, PipelineOutput};

/// [`wla_static::aggregate()`] re-implemented over resolved strings.
pub fn aggregate_string_oracle(
    output: &PipelineOutput,
    catalog: &SdkIndex,
    top_sdk_threshold: usize,
) -> StudyResults {
    let symbols = &output.symbols;
    let analyses: Vec<AppView<'_>> = output.analyzed().collect();
    // A caller class's label, from its package's text in `package`.
    let mut package = String::new();
    let mut label_of = |class: Symbol| {
        if package_of_into(symbols.resolve(class), &mut package) {
            catalog.label_id(&package)
        } else {
            LabelId::Unlabeled
        }
    };

    // Per-SDK app counts, keyed by catalog index.
    let mut sdk_wv_apps: HashMap<usize, usize> = HashMap::new();
    let mut sdk_ct_apps: HashMap<usize, usize> = HashMap::new();

    let mut webview_apps = 0usize;
    let mut ct_apps = 0usize;
    let mut both_apps = 0usize;
    let mut wv_via = 0usize;
    let mut ct_via = 0usize;
    let mut both_via = 0usize;
    let mut obfuscated_caller_apps = 0usize;
    let mut unlabeled_caller_apps = 0usize;
    let mut custom_webview_classes = 0usize;
    let mut unreachable = 0usize;

    let mut method_apps = [0usize; 7];
    let mut method_via = [0usize; 7];

    let mut cat_apps: BTreeMap<SdkCategory, usize> = BTreeMap::new();
    let mut cat_method_apps: BTreeMap<SdkCategory, [usize; 7]> = BTreeMap::new();

    let mut play_wv: BTreeMap<PlayCategory, BTreeMap<SdkCategory, usize>> = BTreeMap::new();
    let mut play_ct: BTreeMap<PlayCategory, BTreeMap<SdkCategory, usize>> = BTreeMap::new();

    let mut wv_no_deeplink_excl = 0usize;
    let mut wv_no_reach = 0usize;
    // The old way: collect each app's URL-bearing origins into a Vec and
    // tally afterwards — no streaming counters.
    let mut census = UrlOriginCensus::default();
    for a in &analyses {
        custom_webview_classes += a.custom_webview_classes.len();
        unreachable += a.unreachable_webview_sites;
        if !a.webview_sites.is_empty() {
            wv_no_deeplink_excl += 1;
        }
        if !a.webview_sites.is_empty() || a.unreachable_webview_sites > 0 {
            wv_no_reach += 1;
        }
        let uses_wv = a.uses_webview();
        let uses_ct = a.uses_custom_tabs();
        if uses_wv {
            webview_apps += 1;
        }
        if uses_ct {
            ct_apps += 1;
        }
        if uses_wv && uses_ct {
            both_apps += 1;
        }

        // Label caller packages per site — the old, memo-less way.
        let mut app_wv_sdks: HashSet<usize> = HashSet::new();
        let mut app_ct_sdks: HashSet<usize> = HashSet::new();
        let mut app_obfuscated = false;
        let mut app_unlabeled = false;
        let mut methods = [false; 7];
        let mut methods_sdk = [false; 7];
        let mut methods_by_cat: HashMap<SdkCategory, [bool; 7]> = HashMap::new();

        for site in a.third_party_webview() {
            let method = site.method();
            let mi = METHODS
                .iter()
                .position(|m| *m == method)
                .expect("known method");
            methods[mi] = true;
            match label_of(site.caller_class) {
                LabelId::Sdk(idx) => {
                    methods_sdk[mi] = true;
                    let category = catalog.sdks()[idx as usize].category;
                    methods_by_cat.entry(category).or_default()[mi] = true;
                    if site.is_load_method() {
                        app_wv_sdks.insert(idx as usize);
                    }
                }
                LabelId::Obfuscated if site.is_load_method() => app_obfuscated = true,
                LabelId::Unlabeled if site.is_load_method() => app_unlabeled = true,
                _ => {}
            }
        }
        for site in a.third_party_ct() {
            if symbols.resolve(site.method) != wla_apk::names::CT_LAUNCH_METHOD {
                continue;
            }
            if let LabelId::Sdk(idx) = label_of(site.caller_class) {
                app_ct_sdks.insert(idx as usize);
            }
        }

        // URL-origin census, the materialize-then-count way: gather this
        // app's URL-bearing origins (string-matching `launchUrl` like the
        // loop above) and tally them in separate passes.
        let origins: Vec<UrlOrigin> = a
            .third_party_webview()
            .filter(|s| s.is_load_method())
            .map(|s| s.origin)
            .chain(
                a.third_party_ct()
                    .filter(|s| symbols.resolve(s.method) == wla_apk::names::CT_LAUNCH_METHOD)
                    .map(|s| s.origin),
            )
            .collect();
        census.resolved_sites += origins
            .iter()
            .filter(|o| **o == UrlOrigin::Resolved)
            .count();
        census.unknown_sites += origins.iter().filter(|o| **o == UrlOrigin::Unknown).count();
        census.conflict_sites += origins
            .iter()
            .filter(|o| **o == UrlOrigin::Conflict)
            .count();
        if !origins.is_empty() {
            if origins.iter().all(|o| *o == UrlOrigin::Resolved) {
                census.apps_fully_resolved += 1;
            } else {
                census.apps_with_unresolved += 1;
            }
        }

        for (i, &m) in methods.iter().enumerate() {
            if m {
                method_apps[i] += 1;
            }
            if methods_sdk[i] {
                method_via[i] += 1;
            }
        }
        for idx in &app_wv_sdks {
            *sdk_wv_apps.entry(*idx).or_default() += 1;
        }
        for idx in &app_ct_sdks {
            *sdk_ct_apps.entry(*idx).or_default() += 1;
        }
        if app_obfuscated {
            obfuscated_caller_apps += 1;
        }
        if app_unlabeled {
            unlabeled_caller_apps += 1;
        }

        let wv_sdk = !app_wv_sdks.is_empty();
        let ct_sdk = !app_ct_sdks.is_empty();
        if uses_wv && wv_sdk {
            wv_via += 1;
        }
        if uses_ct && ct_sdk {
            ct_via += 1;
        }
        if uses_wv && uses_ct && wv_sdk && ct_sdk {
            both_via += 1;
        }

        let app_cats: HashSet<SdkCategory> = app_wv_sdks
            .iter()
            .map(|&i| catalog.sdks()[i].category)
            .collect();
        for cat in &app_cats {
            *cat_apps.entry(*cat).or_default() += 1;
            let row = cat_method_apps.entry(*cat).or_default();
            if let Some(ms) = methods_by_cat.get(cat) {
                for (i, &hit) in ms.iter().enumerate() {
                    if hit {
                        row[i] += 1;
                    }
                }
            }
        }

        for cat in &app_cats {
            *play_wv
                .entry(a.category)
                .or_default()
                .entry(*cat)
                .or_default() += 1;
        }
        let ct_cats: HashSet<SdkCategory> = app_ct_sdks
            .iter()
            .map(|&i| catalog.sdks()[i].category)
            .collect();
        for cat in &ct_cats {
            *play_ct
                .entry(a.category)
                .or_default()
                .entry(*cat)
                .or_default() += 1;
        }
    }

    let mut sdk_usage: Vec<SdkUsageRow> = catalog
        .sdks()
        .iter()
        .enumerate()
        .filter_map(|(i, sdk)| {
            let wv = sdk_wv_apps.get(&i).copied().unwrap_or(0);
            let ct = sdk_ct_apps.get(&i).copied().unwrap_or(0);
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
                    .filter(|r| r.wv_apps >= top_sdk_threshold && r.ct_apps >= top_sdk_threshold)
                    .count(),
            }
        })
        .collect();

    let heatmap = cat_apps
        .iter()
        .map(|(&category, &apps)| {
            let hits = cat_method_apps.get(&category).copied().unwrap_or_default();
            let mut frac = [0f64; 7];
            for i in 0..7 {
                frac[i] = if apps > 0 {
                    hits[i] as f64 / apps as f64
                } else {
                    0.0
                };
            }
            HeatmapRow {
                category,
                apps,
                method_fraction: frac,
            }
        })
        .collect();

    let top10 = |map: BTreeMap<PlayCategory, BTreeMap<SdkCategory, usize>>| {
        let mut rows: Vec<CategoryBreakdown> = map
            .into_iter()
            .map(|(play_category, by)| {
                let total = by.values().sum();
                CategoryBreakdown {
                    play_category,
                    total,
                    by_sdk_category: by.into_iter().collect(),
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
            apps: method_apps[i],
            apps_via_top_sdks: method_via[i],
        })
        .collect();

    StudyResults {
        analyzed: analyses.len(),
        broken: output.broken_count(),
        webview_apps,
        ct_apps,
        both_apps,
        webview_apps_via_top_sdks: wv_via,
        ct_apps_via_top_sdks: ct_via,
        both_apps_via_top_sdks: both_via,
        method_census,
        sdk_usage,
        sdk_type_counts,
        heatmap,
        category_webview: top10(play_wv),
        category_ct: top10(play_ct),
        obfuscated_caller_apps,
        unlabeled_caller_apps,
        custom_webview_classes,
        unreachable_sites_discarded: unreachable,
        webview_apps_without_deeplink_exclusion: wv_no_deeplink_excl,
        webview_apps_without_reachability: wv_no_reach,
        url_origin_census: census,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wla_corpus::{CorpusConfig, Generator};
    use wla_static::{aggregate, run_pipeline, PipelineConfig};

    #[test]
    fn oracle_agrees_with_interned_aggregate_on_a_fixed_corpus() {
        let catalog = SdkIndex::paper();
        let cfg = CorpusConfig {
            scale: 400,
            seed: 33,
            corrupt_fraction: 0.1,
            ..CorpusConfig::default()
        };
        let apps = Generator::new(&catalog, cfg).generate();
        let out = run_pipeline(&apps, &catalog, PipelineConfig::default());
        assert_eq!(
            aggregate(&out, &catalog, 1),
            aggregate_string_oracle(&out, &catalog, 1)
        );
    }
}
