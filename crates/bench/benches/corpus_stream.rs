//! Sharded-corpus streaming cost (DESIGN.md §6.6): the shard-streaming
//! path (one buffered read per shard) versus the in-memory pipeline over
//! the same apps, plus the resume-manifest fast path and the shard-write
//! cost itself. All runs use the same 734-app corpus and 8 workers as
//! `static_pipeline`'s corpus sweep, so the groups are directly
//! comparable. The cold streamed row writes no cache: a plain file sits
//! where the manifest directory would be, so every iteration streams
//! every shard and every cache write fails.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::path::PathBuf;
use wla_core::wla_corpus::{write_sharded_corpus, CorpusConfig, GeneratedApp, Generator};
use wla_core::wla_sdk_index::SdkIndex;
use wla_core::wla_static::{run_pipeline, run_pipeline_streamed, PipelineConfig, MANIFEST_SUBDIR};

fn corpus(scale: u32) -> Vec<GeneratedApp> {
    let catalog = SdkIndex::paper();
    let cfg = CorpusConfig {
        scale,
        seed: 77,
        corrupt_fraction: 0.0,
        ..CorpusConfig::default()
    };
    Generator::new(&catalog, cfg).generate()
}

fn shard_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wla-bench-stream-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

const EIGHT: PipelineConfig = PipelineConfig { workers: 8 };

fn bench(c: &mut Criterion) {
    let catalog = SdkIndex::paper();
    // ~734 apps, matching static_pipeline's corpus sweep.
    let apps = corpus(200);

    let mut group = c.benchmark_group("corpus_stream");
    group.sample_size(10);

    group.bench_function("shard_write_734", |b| {
        let dir = shard_dir("write");
        b.iter(|| write_sharded_corpus(black_box(&dir), black_box(&apps), 64).unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    });

    let dir = shard_dir("read");
    write_sharded_corpus(&dir, &apps, 64).unwrap();

    let manifest = dir.join(MANIFEST_SUBDIR);
    std::fs::write(&manifest, b"no cache").unwrap();
    group.bench_function("stream_buffered_734", |b| {
        b.iter(|| {
            let out = run_pipeline_streamed(black_box(&dir), &catalog, EIGHT).unwrap();
            assert_eq!(out.stats.stream.shards_cached, 0);
            out
        })
    });
    std::fs::remove_file(&manifest).unwrap();
    group.bench_function("in_memory_734", |b| {
        b.iter(|| run_pipeline(black_box(&apps), &catalog, EIGHT))
    });

    // Resume fast path: warm the manifest once, then every iteration is
    // served entirely from per-shard result caches.
    run_pipeline_streamed(&dir, &catalog, EIGHT).unwrap();
    group.bench_function("stream_resume_cached_734", |b| {
        b.iter(|| {
            let out = run_pipeline_streamed(black_box(&dir), &catalog, EIGHT).unwrap();
            assert_eq!(out.stats.stream.shards_read, 0);
            out
        })
    });
    let _ = std::fs::remove_dir_all(&dir);

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
