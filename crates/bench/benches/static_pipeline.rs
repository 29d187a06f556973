//! End-to-end static pipeline cost: per-APK analysis, corpus throughput
//! at several worker counts (parallel-width sweep, DESIGN.md §6.1), and
//! the interned-vs-string aggregation ablation (DESIGN.md §6,
//! EXPERIMENTS.md).

use bytes::Bytes;
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use wla_core::wla_apk::sdex::oracle;
use wla_core::wla_apk::{Dex, Sapk, SectionTag};
use wla_core::wla_corpus::{CorpusConfig, GeneratedApp, Generator};
use wla_core::wla_sdk_index::SdkIndex;
use wla_core::wla_static::{
    aggregate, analyze_app_timed_with, run_pipeline, AnalysisCtx, AppInput, PipelineConfig,
};
use wla_oracle::aggregate_string_oracle;

fn corpus(n_apps_scale: u32) -> Vec<GeneratedApp> {
    let catalog = SdkIndex::paper();
    let cfg = CorpusConfig {
        scale: n_apps_scale,
        seed: 77,
        corrupt_fraction: 0.0,
        ..CorpusConfig::default()
    };
    Generator::new(&catalog, cfg).generate()
}

fn bench(c: &mut Criterion) {
    let catalog = SdkIndex::paper();
    let single = corpus(2_000);
    // ~734 apps: enough work per thread for the fan-out sweep to mean
    // something (73 apps amortize to thread-pool overhead).
    let inputs = corpus(200);

    let mut group = c.benchmark_group("static_pipeline");
    group.sample_size(10);
    group.bench_function("analyze_single_apk", |b| {
        let input = &single[0];
        // Reuse one worker context across iterations, as the pipeline does
        // — re-building the catalog/lexicon per app is not the steady state.
        let mut ctx = AnalysisCtx::new(&catalog);
        // The container copy is part of the step, as in `run_pipeline`; the
        // row is cleared after each app, as the fold does.
        b.iter(|| {
            let bytes = Bytes::copy_from_slice(black_box(input.bytes()));
            let row = analyze_app_timed_with(input.meta(), bytes, &mut ctx).unwrap();
            ctx.results.clear();
            row
        })
    });
    // Worker-count sweep. The ids keep their `stats_on` label so they
    // still match the committed snapshot's rows; stage timers are always
    // collected.
    for workers in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("corpus_734_apps_stats_on", workers),
            &workers,
            |b, &workers| {
                b.iter(|| run_pipeline(black_box(&inputs), &catalog, PipelineConfig { workers }))
            },
        );
    }
    // Decode ablation: the zero-copy span-pool decoder versus the owning
    // per-entry-String oracle, over every dex blob of the same corpus.
    // The blobs are `Bytes` sections of their containers, so the zero-copy
    // path measures its real shape: refcount bump in, spans out.
    let dex_blobs: Vec<_> = inputs
        .iter()
        .flat_map(|input| {
            let apk = Sapk::decode(&input.bytes).expect("generated app decodes");
            apk.sections()
                .iter()
                .filter(|s| s.tag == SectionTag::Dex)
                .map(|s| s.data.clone())
                .collect::<Vec<_>>()
        })
        .collect();
    group.bench_function("decode_zero_copy", |b| {
        b.iter(|| {
            for blob in &dex_blobs {
                black_box(Dex::decode_bytes(black_box(blob.clone())).unwrap());
            }
        })
    });
    group.bench_function("decode_owned_oracle", |b| {
        b.iter(|| {
            for blob in &dex_blobs {
                black_box(oracle::decode(black_box(blob)).unwrap());
            }
        })
    });
    // Interned-IR ablation: the shipping u32-keyed aggregation versus the
    // string-path oracle (resolve + string-compare + trie re-label per
    // site) over the identical pipeline output.
    let out = run_pipeline(&inputs, &catalog, PipelineConfig::default());
    group.bench_function("aggregate_interned", |b| {
        b.iter(|| aggregate(black_box(&out), &catalog, 1))
    });
    group.bench_function("aggregate_string_oracle", |b| {
        b.iter(|| aggregate_string_oracle(black_box(&out), &catalog, 1))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
