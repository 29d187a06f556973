//! Metamorphic properties of the pipeline: transformations of an app that
//! must not (or must, in a precise way) change the analysis verdicts.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use whatcha_lookin_at::wla_apk::ApkError;
use whatcha_lookin_at::wla_corpus::ecosystem::{Ecosystem, EcosystemParams, MethodSet};
use whatcha_lookin_at::wla_corpus::lowering::lower;
use whatcha_lookin_at::wla_corpus::playstore::{AppMeta, PlayCategory};
use whatcha_lookin_at::wla_corpus::{CorpusConfig, Generator};
use whatcha_lookin_at::wla_sdk_index::SdkIndex;
use whatcha_lookin_at::wla_static::{aggregate, run_pipeline, AppView, PipelineConfig, Tally};
use wla_oracle::aggregate_string_oracle;
use wla_oracle::analyze::analyze_app;

fn meta() -> AppMeta {
    AppMeta {
        package: "com.meta.morphic".into(),
        on_play_store: true,
        downloads: 3_000_000,
        category: PlayCategory::Entertainment,
        last_update_day: 700,
    }
}

fn spec(seed: u64) -> (SdkIndex, whatcha_lookin_at::wla_corpus::AppSpec) {
    let catalog = SdkIndex::paper();
    let eco = Ecosystem::new(&catalog, EcosystemParams::default());
    let mut rng = StdRng::seed_from_u64(seed);
    let s = eco.sample_app(&mut rng, meta());
    (catalog, s)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Noise classes are behaviour-free: changing their count never
    /// changes any verdict.
    #[test]
    fn noise_classes_are_inert(seed in 0u64..1_000, noise in 0u8..12) {
        let (catalog, mut s) = spec(seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let base = analyze_app(&meta(), &lower(&s, &catalog, &mut rng).encode()).unwrap();
        s.noise_classes = noise;
        let mut rng = StdRng::seed_from_u64(seed);
        let changed = analyze_app(&meta(), &lower(&s, &catalog, &mut rng).encode()).unwrap();
        let (base, changed) = (base.get(0).unwrap(), changed.get(0).unwrap());
        prop_assert_eq!(base.uses_webview(), changed.uses_webview());
        prop_assert_eq!(base.uses_custom_tabs(), changed.uses_custom_tabs());
        prop_assert_eq!(base.methods_used(), changed.methods_used());
    }

    /// Dead code toggles the discarded-site counter and nothing else.
    #[test]
    fn dead_code_only_moves_the_dead_counter(seed in 0u64..1_000) {
        let (catalog, mut s) = spec(seed);
        s.dead_code_webview = false;
        let mut rng = StdRng::seed_from_u64(seed);
        let without = analyze_app(&meta(), &lower(&s, &catalog, &mut rng).encode()).unwrap();
        s.dead_code_webview = true;
        let mut rng = StdRng::seed_from_u64(seed);
        let with = analyze_app(&meta(), &lower(&s, &catalog, &mut rng).encode()).unwrap();
        let (without, with) = (without.get(0).unwrap(), with.get(0).unwrap());
        prop_assert_eq!(without.uses_webview(), with.uses_webview());
        prop_assert_eq!(without.methods_used(), with.methods_used());
        prop_assert_eq!(with.unreachable_webview_sites, without.unreachable_webview_sites + 1);
    }

    /// A deep link that renders in a WebView adds only *flagged* sites:
    /// third-party accounting is unchanged.
    #[test]
    fn deep_link_rendering_never_leaks_into_third_party_counts(seed in 0u64..1_000) {
        let (catalog, mut s) = spec(seed);
        s.deep_link = None;
        let mut rng = StdRng::seed_from_u64(seed);
        let without = analyze_app(&meta(), &lower(&s, &catalog, &mut rng).encode()).unwrap();
        s.deep_link = Some(whatcha_lookin_at::wla_corpus::DeepLinkSpec {
            host: "first.party.example".into(),
            uses_webview: true,
        });
        let mut rng = StdRng::seed_from_u64(seed);
        let with = analyze_app(&meta(), &lower(&s, &catalog, &mut rng).encode()).unwrap();
        let (without, with) = (without.get(0).unwrap(), with.get(0).unwrap());
        prop_assert_eq!(without.uses_webview(), with.uses_webview());
        prop_assert_eq!(without.methods_used(), with.methods_used());
        // The flagged site exists, though.
        prop_assert_eq!(
            with.webview_sites.iter().filter(|x| x.in_deep_link_activity).count(),
            1
        );
    }

    /// Removing every behaviour yields a clean app.
    #[test]
    fn stripped_app_is_clean(seed in 0u64..1_000) {
        let (catalog, mut s) = spec(seed);
        s.sdks.clear();
        s.sdk_category_methods.clear();
        s.direct_wv_methods = MethodSet::EMPTY;
        s.direct_wv_subclass = false;
        s.direct_ct = false;
        s.deep_link = None;
        s.dead_code_webview = false;
        let mut rng = StdRng::seed_from_u64(seed);
        let analysis = analyze_app(&meta(), &lower(&s, &catalog, &mut rng).encode()).unwrap();
        let analysis = analysis.get(0).unwrap();
        prop_assert!(!analysis.uses_webview());
        prop_assert!(!analysis.uses_custom_tabs());
        prop_assert!(analysis.webview_sites.is_empty());
        prop_assert!(analysis.ct_sites.is_empty());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The interned aggregation path (u32 keys end to end) produces
    /// *identical* `StudyResults` to the string-path oracle on randomized
    /// corpora — including broken containers and any worker count. The
    /// tallies of any split of the corpus, merged in reverse order, equal
    /// the single-pass tally, and finish to the oracle's results too.
    /// 1:250 is 587 apps in ten 64-app claims, so every worker count runs.
    #[test]
    fn interned_aggregate_matches_string_oracle(
        seed in 0u64..10_000,
        workers in 1usize..8,
        cuts in proptest::collection::vec(0usize..10_000, 0..6),
    ) {
        let catalog = SdkIndex::paper();
        let cfg = CorpusConfig {
            scale: 250,
            seed,
            corrupt_fraction: 0.1,
            ..CorpusConfig::default()
        };
        let inputs = Generator::new(&catalog, cfg).generate();
        let out = run_pipeline(
            &inputs,
            &catalog,
            PipelineConfig { workers },
        );
        prop_assert_eq!(out.stats.workers.len(), workers);
        let oracle = aggregate_string_oracle(&out, &catalog, 1);
        prop_assert_eq!(aggregate(&out, &catalog, 1), oracle.clone());

        let results: Vec<Result<AppView<'_>, &ApkError>> = out.results().collect();
        let whole = tally(&catalog, &results);
        let mut bounds: Vec<usize> = cuts.iter().map(|c| c % (results.len() + 1)).collect();
        bounds.sort_unstable();
        bounds.push(results.len());
        let mut parts = Vec::new();
        let mut from = 0;
        for to in bounds {
            parts.push(tally(&catalog, &results[from..to]));
            from = to;
        }
        let mut merged = Tally::new(&catalog);
        for part in parts.iter().rev() {
            merged.merge(part);
        }
        prop_assert_eq!(&merged, &whole);
        prop_assert_eq!(merged.finish(1), oracle);
    }
}

/// One tally over `results`, in order.
fn tally<'c>(catalog: &'c SdkIndex, results: &[Result<AppView<'_>, &ApkError>]) -> Tally<'c> {
    let mut tally = Tally::new(catalog);
    for result in results {
        match result {
            Ok(analysis) => tally.add(*analysis),
            Err(_) => tally.add_broken(),
        }
    }
    tally
}
