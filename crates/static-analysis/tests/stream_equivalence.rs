//! Streamed-shard ⇔ in-memory equivalence: analyzing a sharded on-disk
//! corpus through `run_pipeline_streamed` must produce **bit-identical**
//! results to loading the same apps into memory and running
//! `run_pipeline` — across worker counts, shard sizes, corrupted entries,
//! damaged shard files, and resume-after-partial-run.

use proptest::prelude::*;
use std::path::PathBuf;
use wla_corpus::{write_sharded_corpus, CorpusConfig, GeneratedApp, Generator};
use wla_sdk_index::SdkIndex;
use wla_static::stream::MANIFEST_SUBDIR;
use wla_static::{
    aggregate, run_pipeline, run_pipeline_streamed, run_pipeline_tallied, PipelineConfig,
    PipelineOutput, StudyResults,
};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "wla-stream-eq-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn corpus(scale: u32, seed: u64, corrupt: f64) -> Vec<GeneratedApp> {
    let catalog = SdkIndex::paper();
    let cfg = CorpusConfig {
        scale,
        seed,
        corrupt_fraction: corrupt,
        ..CorpusConfig::default()
    };
    Generator::new(&catalog, cfg).generate()
}

fn in_memory_baseline(apps: &[GeneratedApp], catalog: &SdkIndex) -> (PipelineOutput, StudyResults) {
    let output = run_pipeline(apps, catalog, PipelineConfig { workers: 1 });
    let results = aggregate(&output, catalog, 1);
    (output, results)
}

/// Full bit-identity check: per-app results (values and global symbol
/// ids), interner contents, and aggregated study results.
fn assert_outputs_identical(streamed: &PipelineOutput, baseline: &PipelineOutput) {
    assert_eq!(streamed.results().len(), baseline.results().len());
    for (i, (s, b)) in streamed.results().zip(baseline.results()).enumerate() {
        match (s, b) {
            (Ok(x), Ok(y)) => assert_eq!(x, y, "analysis diverged at input {i}"),
            (Err(x), Err(y)) => assert_eq!(x, y, "error diverged at input {i}"),
            other => panic!("ok/err mismatch at input {i}: {other:?}"),
        }
    }
    assert_eq!(streamed.symbols.len(), baseline.symbols.len());
    let (ss, bs) = (&streamed.symbols, &baseline.symbols);
    for a in streamed.analyzed() {
        for site in a.webview_sites {
            assert_eq!(ss.resolve(site.caller_class), bs.resolve(site.caller_class));
        }
        for site in a.ct_sites {
            assert_eq!(ss.resolve(site.method), bs.resolve(site.method));
        }
    }
}

#[test]
fn streamed_matches_in_memory_across_workers_and_shard_sizes() {
    let catalog = SdkIndex::paper();
    let apps = corpus(2_000, 41, 0.1);
    let (baseline, baseline_study) = in_memory_baseline(&apps, &catalog);
    for per_shard in [3usize, 16] {
        let dir = temp_dir(&format!("wk-{per_shard}"));
        write_sharded_corpus(&dir, &apps, per_shard).unwrap();
        for workers in [1usize, 2, 4, 8] {
            // A cold run: the previous run's resume manifest goes first.
            let _ = std::fs::remove_dir_all(dir.join(MANIFEST_SUBDIR));
            let out = run_pipeline_streamed(&dir, &catalog, PipelineConfig { workers }).unwrap();
            assert_outputs_identical(&out, &baseline);
            assert_eq!(aggregate(&out, &catalog, 1), baseline_study);
            assert_eq!(out.stats.stream.entries_streamed, apps.len());
            // Each worker counts the apps of its shards, not the shards.
            let items: usize = out.stats.workers.iter().map(|w| w.items).sum();
            assert_eq!(items, apps.len());
            assert_eq!(out.stats.stream.shards_cached, 0);
            assert_eq!(out.stats.stream.shard_failures, 0);
            // Every shard read counts toward both gauges; the peak held can
            // never exceed the total read.
            let stream = &out.stats.stream;
            assert!(stream.bytes_mapped > 0);
            assert!(0 < stream.peak_mapped_bytes);
            assert!(stream.peak_mapped_bytes <= stream.bytes_mapped);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn resume_after_partial_run_is_bit_identical() {
    let catalog = SdkIndex::paper();
    let apps = corpus(2_000, 29, 0.12);
    let (baseline, baseline_study) = in_memory_baseline(&apps, &catalog);
    let dir = temp_dir("resume");
    write_sharded_corpus(&dir, &apps, 5).unwrap();
    let config = PipelineConfig { workers: 3 };

    // First full run populates the manifest.
    let first = run_pipeline_streamed(&dir, &catalog, config).unwrap();
    assert_outputs_identical(&first, &baseline);
    assert_eq!(first.stats.stream.shards_cached, 0);

    // Simulate a partial previous run: drop some of the caches.
    let manifest = dir.join(MANIFEST_SUBDIR);
    let mut dropped = 0usize;
    for (i, entry) in std::fs::read_dir(&manifest).unwrap().enumerate() {
        if i % 3 == 0 {
            std::fs::remove_file(entry.unwrap().path()).unwrap();
            dropped += 1;
        }
    }
    assert!(dropped > 0);
    let partial = run_pipeline_streamed(&dir, &catalog, config).unwrap();
    assert_outputs_identical(&partial, &baseline);
    assert_eq!(aggregate(&partial, &catalog, 1), baseline_study);
    assert_eq!(partial.stats.stream.shards_read, dropped);
    // Entries served from the cache count as their worker's apps too.
    let items: usize = partial.stats.workers.iter().map(|w| w.items).sum();
    assert_eq!(items, apps.len());
    assert!(partial.stats.stream.shards_cached > 0);
    assert!(partial.stats.stream.entries_cached > 0);

    // Third run: everything cached, still identical.
    let resumed = run_pipeline_streamed(&dir, &catalog, config).unwrap();
    assert_outputs_identical(&resumed, &baseline);
    assert_eq!(resumed.stats.stream.shards_read, 0);
    assert_eq!(resumed.stats.stream.entries_cached, apps.len());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn cache_from_an_older_format_is_a_clean_miss() {
    let catalog = SdkIndex::paper();
    let apps = corpus(2_000, 67, 0.1);
    let (baseline, baseline_study) = in_memory_baseline(&apps, &catalog);
    let dir = temp_dir("old-format");
    let paths = write_sharded_corpus(&dir, &apps, 8).unwrap();
    assert!(paths.len() >= 3);
    let config = PipelineConfig { workers: 2 };
    let first = run_pipeline_streamed(&dir, &catalog, config).unwrap();
    assert_outputs_identical(&first, &baseline);
    assert_eq!(first.stats.stream.shards_read, paths.len());

    // Make shard 1's cache look written by an older build: bytes 4..6 of a
    // `.done` file are its little-endian format version, outside the body
    // checksum, and version 1 is the format before the current one.
    let stem = paths[1].file_stem().unwrap().to_str().unwrap();
    let done = dir.join(MANIFEST_SUBDIR).join(format!("{stem}.done"));
    let mut raw = std::fs::read(&done).unwrap();
    raw[4..6].copy_from_slice(&1u16.to_le_bytes());
    std::fs::write(&done, &raw).unwrap();
    let shard1_entries = wla_corpus::Shard::open(&paths[1]).unwrap().len();

    // That shard alone is re-analyzed; every other entry comes from cache.
    let second = run_pipeline_streamed(&dir, &catalog, config).unwrap();
    assert_eq!(second.stats.stream.shards_read, 1);
    assert_eq!(
        second.stats.stream.entries_cached,
        apps.len() - shard1_entries
    );
    assert_outputs_identical(&second, &baseline);
    assert_eq!(aggregate(&second, &catalog, 1), baseline_study);

    // The re-analysis rewrote the cache in the current format.
    let third = run_pipeline_streamed(&dir, &catalog, config).unwrap();
    assert_eq!(third.stats.stream.shards_read, 0);
    assert_eq!(third.stats.stream.entries_cached, apps.len());
    assert_outputs_identical(&third, &baseline);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn rewritten_shard_invalidates_its_cache() {
    let catalog = SdkIndex::paper();
    let apps = corpus(3_000, 53, 0.0);
    let dir = temp_dir("invalidate");
    let paths = write_sharded_corpus(&dir, &apps, 4).unwrap();
    let config = PipelineConfig::default();
    let first = run_pipeline_streamed(&dir, &catalog, config).unwrap();
    assert_eq!(first.stats.stream.shards_cached, 0);

    // Rewrite shard 0 with different contents (drop its last entry).
    let shard0 = wla_corpus::Shard::open(&paths[0]).unwrap();
    let metas: Vec<_> = (0..shard0.len() - 1)
        .map(|i| (shard0.entry_meta(i).clone(), shard0.entry_bytes(i).to_vec()))
        .collect();
    drop(shard0);
    let entries: Vec<(&wla_corpus::AppMeta, &[u8])> =
        metas.iter().map(|(m, b)| (m, b.as_slice())).collect();
    wla_corpus::write_shard(&paths[0], &entries).unwrap();

    let second = run_pipeline_streamed(&dir, &catalog, config).unwrap();
    // The rewritten shard misses its stale cache and is re-analyzed; the
    // untouched shards come back from cache.
    assert_eq!(second.stats.stream.shards_read, 1);
    assert_eq!(second.stats.stream.shards_cached, paths.len() - 1);
    assert_eq!(second.results().len(), first.results().len() - 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupt_shard_file_is_counted_and_skipped() {
    let catalog = SdkIndex::paper();
    let apps = corpus(3_000, 61, 0.0);
    // Shard 1 holds apps[6..12]; every other shard's entries, in order.
    let survivors: Vec<GeneratedApp> = apps[..6].iter().chain(&apps[12..]).cloned().collect();
    let (baseline, _) = in_memory_baseline(&survivors, &catalog);
    // Damage the second shard: one flipped payload byte, or a file cut to
    // half its length.
    for tag in ["flip", "truncate"] {
        let dir = temp_dir(&format!("corrupt-shard-{tag}"));
        let paths = write_sharded_corpus(&dir, &apps, 6).unwrap();
        assert!(paths.len() >= 3);
        let mut raw = std::fs::read(&paths[1]).unwrap();
        let mid = raw.len() / 2;
        if tag == "flip" {
            raw[mid] ^= 0xff;
        } else {
            raw.truncate(mid);
        }
        std::fs::write(&paths[1], &raw).unwrap();

        let out = run_pipeline_streamed(&dir, &catalog, PipelineConfig::default()).unwrap();
        assert_eq!(out.stats.stream.shard_failures, 1, "{tag}");
        assert_eq!(
            out.stats
                .stream
                .shard_failure_kinds
                .get("checksum-mismatch"),
            Some(&1),
            "{tag}"
        );
        assert_eq!(out.stats.stream.shards_read, paths.len() - 1, "{tag}");
        assert_outputs_identical(&out, &baseline);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn restamped_cache_damage_is_a_miss_and_the_shard_is_reanalyzed() {
    let catalog = SdkIndex::paper();
    let apps = corpus(2_000, 83, 0.1);
    let (baseline, baseline_study) = in_memory_baseline(&apps, &catalog);
    let dir = temp_dir("restamped");
    let paths = write_sharded_corpus(&dir, &apps, 16).unwrap();
    assert!(paths.len() >= 3);
    let config = PipelineConfig { workers: 2 };
    let cold = run_pipeline_streamed(&dir, &catalog, config).unwrap();
    assert_outputs_identical(&cold, &baseline);

    // Append a byte to shard 1's cache body and re-stamp its Adler-32: the
    // checksum passes, every entry parses, and the trailing byte is found
    // only after all of the shard's rows were committed.
    let stem = paths[1].file_stem().unwrap().to_str().unwrap();
    let done = dir.join(MANIFEST_SUBDIR).join(format!("{stem}.done"));
    let mut raw = std::fs::read(&done).unwrap();
    raw.push(0);
    let checksum = wla_apk::wire::adler32(&raw[22..]);
    raw[18..22].copy_from_slice(&checksum.to_le_bytes());
    std::fs::write(&done, &raw).unwrap();
    let shard1_entries = wla_corpus::Shard::open(&paths[1]).unwrap().len();

    let warm = run_pipeline_streamed(&dir, &catalog, config).unwrap();
    assert_eq!(warm.stats.stream.shards_read, 1);
    assert_eq!(warm.stats.stream.entries_streamed, shard1_entries);
    assert_eq!(
        warm.stats.stream.entries_cached,
        apps.len() - shard1_entries
    );
    assert_outputs_identical(&warm, &cold);
    assert_eq!(aggregate(&warm, &catalog, 1), baseline_study);
    std::fs::remove_dir_all(&dir).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    #[test]
    fn prop_streamed_equals_in_memory(
        seed in 0u64..500,
        workers in 1usize..9,
        per_shard in 1usize..20,
        corrupt in prop_oneof![Just(0.0f64), Just(0.2f64)],
    ) {
        let catalog = SdkIndex::paper();
        let apps = corpus(4_000, seed, corrupt);
        let (baseline, baseline_study) = in_memory_baseline(&apps, &catalog);
        let dir = temp_dir(&format!("prop-{seed}-{workers}-{per_shard}"));
        write_sharded_corpus(&dir, &apps, per_shard).unwrap();
        let config = PipelineConfig { workers };
        let out = run_pipeline_streamed(&dir, &catalog, config).unwrap();
        prop_assert_eq!(out.results().len(), baseline.results().len());
        for (s, b) in out.results().zip(baseline.results()) {
            match (s, b) {
                (Ok(x), Ok(y)) => prop_assert_eq!(x, y),
                (Err(x), Err(y)) => prop_assert_eq!(x, y),
                other => prop_assert!(false, "ok/err mismatch: {other:?}"),
            }
        }
        prop_assert_eq!(aggregate(&out, &catalog, 1), baseline_study);
        // Stats invariants carry over to the streamed path.
        let s = &out.stats;
        prop_assert_eq!(s.total, apps.len());
        prop_assert_eq!(s.analyzed + s.broken, s.total);
        prop_assert_eq!(s.failure_kinds.values().sum::<usize>(), s.broken);
        prop_assert_eq!(
            s.stream.entries_streamed + s.stream.entries_cached,
            apps.len()
        );
        // A second run serves everything from the manifest, identically.
        let again = run_pipeline_streamed(&dir, &catalog, config).unwrap();
        prop_assert_eq!(again.stats.stream.entries_cached, apps.len());
        prop_assert_eq!(again.stats.stream.shards_read, 0);
        prop_assert_eq!(aggregate(&again, &catalog, 1), baseline_study);
        for (s, b) in again.results().zip(baseline.results()) {
            match (s, b) {
                (Ok(x), Ok(y)) => prop_assert_eq!(x, y),
                (Err(x), Err(y)) => prop_assert_eq!(x, y),
                other => prop_assert!(false, "resume mismatch: {other:?}"),
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Paper-scale acceptance: ≥50K apps streamed from disk shards with
/// results identical at several worker counts, plus a full resume pass.
/// At each worker count the in-memory aggregate and the fold's
/// (`run_pipeline_tallied`) must equal the streamed one.
/// Ignored in tier-1 (debug-mode) runs — execute with
/// `cargo test --release -p wla-static --test stream_equivalence -- --ignored`.
#[test]
#[ignore = "paper-scale: run in release mode"]
fn paper_scale_stream_50k() {
    let catalog = SdkIndex::paper();
    // scale=2 ⇒ 146_800 / 2 = 73_400 apps.
    let apps = corpus(2, 4242, 0.0016);
    assert!(
        apps.len() >= 50_000,
        "need a 50K+ corpus, got {}",
        apps.len()
    );
    let dir = temp_dir("50k");
    write_sharded_corpus(&dir, &apps, 512).unwrap();

    // A cold run: the previous run's resume manifest goes first, so every
    // shard is analyzed.
    let cold = |workers: usize| {
        let _ = std::fs::remove_dir_all(dir.join(MANIFEST_SUBDIR));
        let out = run_pipeline_streamed(&dir, &catalog, PipelineConfig { workers }).unwrap();
        assert_eq!(
            out.stats.stream.entries_streamed,
            apps.len(),
            "{workers} workers"
        );
        assert_eq!(out.stats.stream.shards_cached, 0, "{workers} workers");
        out
    };

    // The in-memory aggregate and the fold, at `workers`, must both
    // reproduce the streamed study.
    let in_memory_and_folded = |workers: usize, study: &StudyResults| {
        let config = PipelineConfig { workers };
        let in_memory = aggregate(&run_pipeline(&apps, &catalog, config), &catalog, 1);
        assert_eq!(in_memory, *study, "in-memory at {workers} workers");
        let (folded, stats) = run_pipeline_tallied(&apps, &catalog, config, 1);
        assert_eq!(folded, *study, "fold at {workers} workers");
        assert_eq!(stats.total, apps.len());
    };

    let first = cold(1);
    let study = aggregate(&first, &catalog, 1);
    eprintln!(
        "paper-scale: {} apps, {} shards, {:.1} MiB of shards read, {:.1} MiB peak held, \
         output {:.2} MiB",
        apps.len(),
        first.stats.stream.shards_read,
        first.stats.stream.bytes_mapped as f64 / (1024.0 * 1024.0),
        first.stats.stream.peak_mapped_bytes as f64 / (1024.0 * 1024.0),
        first.stats.result_bytes as f64 / (1024.0 * 1024.0),
    );
    assert_eq!(first.stats.result_bytes, first.heap_bytes());
    in_memory_and_folded(1, &study);
    for workers in [2usize, 4, 8] {
        let out = cold(workers);
        assert_eq!(out.results().len(), first.results().len());
        for (i, (a, b)) in out.results().zip(first.results()).enumerate() {
            assert_eq!(a, b, "diverged at {i} with {workers} workers");
        }
        assert_eq!(aggregate(&out, &catalog, 1), study);
        in_memory_and_folded(workers, &study);
    }

    // Resume: populate the manifest, then a second pass must skip every
    // shard and reproduce the study bit-for-bit.
    let warm = cold(8);
    eprintln!(
        "paper-scale @8 workers: {:.1} MiB peak shard bytes held",
        warm.stats.stream.peak_mapped_bytes as f64 / (1024.0 * 1024.0),
    );
    assert_eq!(aggregate(&warm, &catalog, 1), study);
    let resumed = run_pipeline_streamed(&dir, &catalog, PipelineConfig { workers: 8 }).unwrap();
    assert_eq!(resumed.stats.stream.shards_read, 0);
    assert_eq!(resumed.stats.stream.entries_cached, apps.len());
    assert_eq!(aggregate(&resumed, &catalog, 1), study);
    std::fs::remove_dir_all(&dir).unwrap();
}
