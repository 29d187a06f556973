//! Cross-crate fault-isolation check: a corpus containing deliberately
//! panicking containers must complete — every app accounted for, panics
//! converted to `ApkError::AnalysisPanic` and visible in the stats — and
//! the aggregation layer must count those apps as broken, not vanish them.

use bytes::Bytes;
use whatcha_lookin_at::wla_apk::ApkError;
use whatcha_lookin_at::wla_corpus::{CorpusConfig, Generator};
use whatcha_lookin_at::wla_sdk_index::SdkIndex;
use whatcha_lookin_at::wla_static::{
    aggregate, analyze_app_timed_with, run_pipeline_with, AppInput, PipelineConfig,
};

/// Suppress the default panic-hook backtrace for the panics this test
/// injects on purpose, without hiding unexpected ones.
fn quiet_injected_panics() {
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .map(|s| s.contains("injected fault"))
            .unwrap_or(false);
        if !injected {
            previous(info);
        }
    }));
}

#[test]
fn panicking_containers_do_not_abort_the_corpus_run() {
    quiet_injected_panics();
    let catalog = SdkIndex::paper();
    let cfg = CorpusConfig {
        scale: 1_000,
        seed: 4242,
        corrupt_fraction: 0.1,
        ..CorpusConfig::default()
    };
    let inputs = Generator::new(&catalog, cfg).generate();

    // Every 10th app trips a panic inside "analysis" — simulating the
    // pathological containers a 146.8K-app corpus inevitably contains.
    let output = run_pipeline_with(
        &inputs,
        &catalog,
        PipelineConfig { workers: 4 },
        |input, ctx| {
            let idx = inputs
                .iter()
                .position(|i| std::ptr::eq(i, input))
                .expect("input comes from the slice");
            if idx % 10 == 0 {
                panic!("injected fault in app {idx}");
            }
            let bytes = Bytes::copy_from_slice(input.bytes());
            analyze_app_timed_with(input.meta(), bytes, ctx)
        },
    );

    let expected_panics = inputs.len().div_ceil(10);
    assert_eq!(output.results().len(), inputs.len());
    assert_eq!(
        output.analyzed().count() + output.broken_count(),
        inputs.len(),
        "every app must be accounted for"
    );
    assert_eq!(output.stats.panicked, expected_panics);
    assert_eq!(
        output.stats.failure_kinds.get("analysis-panic"),
        Some(&expected_panics)
    );
    for (idx, result) in output.results().enumerate() {
        if idx % 10 == 0 {
            match result {
                Err(ApkError::AnalysisPanic { message }) => {
                    assert!(message.contains(&format!("app {idx}")), "{message}");
                }
                other => panic!("index {idx}: expected AnalysisPanic, got {other:?}"),
            }
        }
    }

    // Aggregation counts panicked apps in the broken row (Table 2).
    let results = aggregate(&output, &catalog, 1);
    assert_eq!(results.analyzed + results.broken, inputs.len());
    assert!(results.broken >= expected_panics);
}
