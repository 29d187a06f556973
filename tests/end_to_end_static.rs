//! Cross-crate integration: the full §3.1 static pipeline from corpus
//! bytes to aggregated results, checked against planted ground truth.

use whatcha_lookin_at::wla_corpus::{CorpusConfig, Generator, METHODS};
use whatcha_lookin_at::wla_sdk_index::{SdkCategory, SdkIndex};
use whatcha_lookin_at::wla_static::{aggregate, run_pipeline, PipelineConfig};
use whatcha_lookin_at::Study;
use wla_oracle::analyze::analyze_app;

#[test]
fn pipeline_recovers_planted_ground_truth_exactly() {
    let catalog = SdkIndex::paper();
    let cfg = CorpusConfig {
        scale: 500,
        seed: 31337,
        ..CorpusConfig::default()
    };
    let corpus = Generator::new(&catalog, cfg).generate();

    for g in &corpus {
        let result = analyze_app(&g.spec.meta, &g.bytes);
        if g.corrupted {
            assert!(
                result.is_err(),
                "corrupted container decoded: {}",
                g.spec.meta.package
            );
            continue;
        }
        let table = result.expect("clean container analyzes");
        let analysis = table.get(0).expect("an analyzed row");
        assert_eq!(
            analysis.uses_webview(),
            g.spec.uses_webview,
            "webview verdict for {}",
            g.spec.meta.package
        );
        assert_eq!(
            analysis.uses_custom_tabs(),
            g.spec.uses_custom_tabs,
            "ct verdict for {}",
            g.spec.meta.package
        );
        let truth: std::collections::HashSet<&str> = METHODS
            .iter()
            .enumerate()
            .filter(|&(i, _)| g.spec.method_census.contains(i))
            .map(|(_, &m)| m)
            .collect();
        assert_eq!(analysis.methods_used(), truth, "{}", g.spec.meta.package);
    }
}

#[test]
fn study_shares_match_paper_at_scale() {
    let study = Study::new(100, 424_242);
    let run = study.run_static();
    let n = run.results.analyzed as f64;
    let wv = run.results.webview_apps as f64 / n;
    let ct = run.results.ct_apps as f64 / n;
    let both = run.results.both_apps as f64 / n;
    assert!((wv - 0.557).abs() < 0.05, "webview share {wv}");
    assert!((ct - 0.199).abs() < 0.05, "ct share {ct}");
    assert!((both - 0.150).abs() < 0.05, "both share {both}");
    // Ordering invariants that define the paper's story.
    assert!(run.results.webview_apps > run.results.ct_apps);
    assert!(run.results.ct_apps > run.results.both_apps);
    // loadUrl is the dominant method.
    assert!(run.results.method_census[0].apps >= run.results.method_census[1].apps);
}

/// 1:250 is 587 apps in ten 64-app claims, so all 7 workers run.
#[test]
fn pipeline_is_deterministic_across_worker_counts() {
    let catalog = SdkIndex::paper();
    let cfg = CorpusConfig {
        scale: 250,
        seed: 5,
        ..CorpusConfig::default()
    };
    let inputs = Generator::new(&catalog, cfg).generate();
    let run = |workers| run_pipeline(&inputs, &catalog, PipelineConfig { workers });
    let (one, seven) = (run(1), run(7));
    assert_eq!(seven.stats.workers.len(), 7);
    assert_eq!(aggregate(&one, &catalog, 1), aggregate(&seven, &catalog, 1));
}

#[test]
fn advertising_dominates_webview_social_dominates_ct() {
    let study = Study::new(100, 90_210);
    let run = study.run_static();
    let by_cat = |cat: SdkCategory, ct: bool| -> usize {
        run.results
            .sdk_usage
            .iter()
            .filter(|r| r.category == cat)
            .map(|r| if ct { r.ct_apps } else { r.wv_apps })
            .sum()
    };
    // WebView panel: advertising beats every other category.
    let ads = by_cat(SdkCategory::Advertising, false);
    for cat in SdkCategory::ALL {
        if cat != SdkCategory::Advertising {
            assert!(
                ads >= by_cat(cat, false),
                "{cat:?} beats ads in WebView usage"
            );
        }
    }
    // CT panel: social beats every other category.
    let social = by_cat(SdkCategory::Social, true);
    for cat in SdkCategory::ALL {
        if cat != SdkCategory::Social {
            assert!(
                social >= by_cat(cat, true),
                "{cat:?} beats social in CT usage"
            );
        }
    }
}

#[test]
fn funnel_reproduces_table2_within_one_percent() {
    let study = Study::new(1_000, 8);
    let static_run = study.run_static();
    let funnel = study.run_funnel(&static_run);
    let close = |measured: u64, paper: u64, tol: f64| {
        (measured as f64 - paper as f64).abs() / paper as f64 <= tol
    };
    assert_eq!(funnel.total, 6_507_222);
    assert!(close(funnel.found, 2_454_488, 0.01), "{}", funnel.found);
    assert!(close(funnel.popular, 198_324, 0.02), "{}", funnel.popular);
    assert!(
        close(funnel.maintained, 146_800, 0.02),
        "{}",
        funnel.maintained
    );
}
