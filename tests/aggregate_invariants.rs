//! Structural invariants of the aggregated study results, checked across
//! random corpus seeds — the regression net under every table builder.

use proptest::prelude::*;
use whatcha_lookin_at::wla_corpus::{CorpusConfig, Generator};
use whatcha_lookin_at::wla_sdk_index::SdkIndex;
use whatcha_lookin_at::wla_static::{aggregate, run_pipeline, PipelineConfig};

fn results(seed: u64) -> whatcha_lookin_at::wla_static::StudyResults {
    let catalog = SdkIndex::paper();
    let cfg = CorpusConfig {
        scale: 1_000,
        seed,
        ..CorpusConfig::default()
    };
    let inputs = Generator::new(&catalog, cfg).generate();
    let out = run_pipeline(&inputs, &catalog, PipelineConfig::default());
    aggregate(&out, &catalog, 1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn aggregate_invariants_hold(seed in 0u64..10_000) {
        let r = results(seed);

        // Set relations.
        prop_assert!(r.both_apps <= r.webview_apps.min(r.ct_apps));
        prop_assert!(r.webview_apps_via_top_sdks <= r.webview_apps);
        prop_assert!(r.ct_apps_via_top_sdks <= r.ct_apps);
        prop_assert!(r.both_apps_via_top_sdks <= r.both_apps);
        prop_assert!(r.webview_apps <= r.analyzed);

        // Per-method: via-SDK never exceeds total; every method total never
        // exceeds the WebView-app count; loadUrl is never beaten.
        let load_url = r.method_census[0].apps;
        for row in &r.method_census {
            prop_assert!(row.apps_via_top_sdks <= row.apps, "{}", row.method);
            prop_assert!(row.apps <= r.webview_apps, "{}", row.method);
            prop_assert!(row.apps <= load_url.max(row.apps), "{}", row.method);
        }

        // Ablation counters only ever add apps.
        prop_assert!(r.webview_apps_without_deeplink_exclusion >= r.webview_apps);
        prop_assert!(r.webview_apps_without_reachability >= r.webview_apps_without_deeplink_exclusion);

        // Heatmap fractions are probabilities over positive denominators.
        for row in &r.heatmap {
            prop_assert!(row.apps > 0);
            for f in row.method_fraction {
                prop_assert!((0.0..=1.0).contains(&f));
            }
        }

        // SDK usage rows: every listed SDK has some usage, and no count
        // exceeds the corpus.
        for row in &r.sdk_usage {
            prop_assert!(row.wv_apps + row.ct_apps > 0, "{}", row.name);
            prop_assert!(row.wv_apps <= r.analyzed && row.ct_apps <= r.analyzed);
        }

        // Figure 3 panels: totals equal the sum of their breakdowns.
        for panel in [&r.category_webview, &r.category_ct] {
            for row in panel {
                let sum: usize = row.by_sdk_category.iter().map(|(_, n)| n).sum();
                prop_assert_eq!(row.total, sum);
            }
        }
    }
}
