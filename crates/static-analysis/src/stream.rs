//! Shard-level streaming corpus runner: analyze a sharded on-disk corpus
//! without ever materializing it in memory.
//!
//! The workspace's one claim pool ([`wla_pool::run`]) runs over shards:
//! each worker reads a shard it claims into one buffer ([`Shard::open`])
//! and analyzes its entries through the zero-copy decode path — every
//! container window aliases that buffer, so resident shard memory is
//! bounded by the number of *concurrently held* shards (one per worker),
//! not the corpus size. A shard is to this runner what a 64-app batch is
//! to the in-memory one: its entries run through the same per-entry loop,
//! on the claiming worker's [`AnalysisCtx`], under the same one-row
//! contract.
//! The pool returns shards in shard order, each with its rows in entry
//! order, so the shards' tables in that order are in global entry order,
//! and the in-memory pipeline's join ([`crate::pipeline`]) then makes the
//! [`PipelineOutput`] bit-identical to loading the same corpus in memory
//! and running [`crate::run_pipeline`], at any worker count.
//!
//! **Result rows.** Each entry's row goes into the claiming worker's
//! [`ResultTable`], committed when the entry is done (a failed or
//! panicked entry's row holds its error). When the shard is done its rows
//! are frozen into one exact-size table, the shard's, which the join
//! keeps as it is, so a streamed run copies no per-app result either.
//!
//! **Fault isolation.** Each entry runs under its own panic isolator, so a
//! panicking entry fails alone as `analysis-panic`, and the records it
//! wrote before panicking are never committed. A shard file that fails to
//! open or validate costs its own entries and is counted by kind in
//! [`StreamCounters`]; so is a panic in shard-level code (cache load,
//! open, entry index, cache write), under the `shard-panic` kind, and the
//! worker's table is cleared of the rows the shard had committed.
//!
//! **Resumability.** Every run keeps the resume manifest: each finished
//! shard's table is serialized to `<dir>/manifest/<shard>.done` keyed to
//! the shard's stamp (header checksum + length), in cache format 2. A
//! rerun parses those straight into the worker's table instead of
//! re-analyzing; any staleness or damage in a cache file — an SDK label
//! past the worker's catalog included — is a silent miss that leaves the
//! table as it was. The cache is never worth a run: where the manifest
//! directory cannot be made (say, a plain file sits at its path), every
//! load misses and every write fails, and the run streams every shard.
//! [`StreamCounters`] reports what was streamed, what was served from
//! cache, shard-level failures, and shard bytes held.

use crate::analyze::{analyze_app_timed_with, AnalysisCtx};
use crate::cache;
use crate::pipeline::{analyze_rows, join, PipelineConfig, PipelineOutput};
use crate::table::ResultTable;
use bytes::Bytes;
use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use wla_apk::ApkError;
use wla_corpus::playstore::AppMeta;
use wla_corpus::shard::{list_shards, read_shard_stamp, Shard, ShardStamp};
use wla_sdk_index::SdkIndex;

/// Subdirectory of a sharded corpus holding per-shard resume caches.
pub const MANIFEST_SUBDIR: &str = "manifest";

/// Shard failure kind for a panic in shard-level code; a panic inside one
/// entry's analysis fails that entry alone, as `analysis-panic`.
const SHARD_PANIC: &str = "shard-panic";

/// The streamed runner's older name for [`PipelineConfig`], kept for
/// callers that still name it: a streamed run takes the worker count
/// alone, and its claim unit is one shard.
pub type StreamConfig = PipelineConfig;

/// Counters specific to the shard-streaming path, carried on
/// [`PipelineStats::stream`](crate::PipelineStats) (all-zero for
/// in-memory runs).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StreamCounters {
    /// Shards opened, validated, and analyzed this run.
    pub shards_read: usize,
    /// Shards skipped entirely — their results came from the resume
    /// manifest.
    pub shards_cached: usize,
    /// Shard *files* that failed to open or validate, or whose shard-level
    /// code panicked (distinct from per-entry container failures, which
    /// land in `failure_kinds`).
    pub shard_failures: usize,
    /// Shard-level failure taxonomy, keyed by
    /// [`ShardError::kind`](wla_corpus::ShardError::kind), plus
    /// `shard-panic`.
    pub shard_failure_kinds: BTreeMap<&'static str, usize>,
    /// Entries analyzed from shard bytes this run.
    pub entries_streamed: usize,
    /// Entries whose results were loaded from the resume manifest.
    pub entries_cached: usize,
    /// Shard bytes read: the total size of the shard files read and
    /// validated this run (cached and failed shards count nothing).
    pub bytes_mapped: u64,
    /// Peak shard bytes held in memory at once: the high-water mark of
    /// the shard buffers the workers held concurrently.
    pub peak_mapped_bytes: u64,
}

/// What one claimed shard produced.
#[derive(Default)]
struct ShardRun {
    /// The entries' results, one row each in entry order; symbols are
    /// local to the claiming worker's lexicon.
    table: ResultTable,
    /// Served from the resume manifest.
    cached: bool,
    /// Shard-level failure kind; a failed shard contributes no entries.
    failure: Option<&'static str>,
    /// Shard file bytes read for this claim.
    bytes_read: u64,
}

/// Counts a shard buffer in the concurrently-held gauge while it lives.
/// Released on drop, so a shard-level panic cannot leave it counted.
struct HeldGauge<'a> {
    now: &'a AtomicU64,
    bytes: u64,
}

impl<'a> HeldGauge<'a> {
    fn hold(now: &'a AtomicU64, peak: &AtomicU64, bytes: u64) -> HeldGauge<'a> {
        peak.fetch_max(
            now.fetch_add(bytes, Ordering::Relaxed) + bytes,
            Ordering::Relaxed,
        );
        HeldGauge { now, bytes }
    }
}

impl Drop for HeldGauge<'_> {
    fn drop(&mut self) {
        self.now.fetch_sub(self.bytes, Ordering::Relaxed);
    }
}

/// Resume-cache path for a shard file.
fn cache_path_for(manifest_dir: &Path, shard_path: &Path) -> PathBuf {
    let stem = shard_path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("shard");
    manifest_dir.join(format!("{stem}.done"))
}

/// Analyze a sharded corpus directory (written by
/// [`wla_corpus::write_sharded_corpus`]) end-to-end.
///
/// Output is bit-identical to reading every shard entry into memory and
/// running [`crate::run_pipeline`] over it, for any worker count and
/// shard size. The `io::Result` covers only corpus-level failures (no
/// shard directory); individual shard and entry failures are counted in
/// [`StreamCounters`] and the failure taxonomy instead.
pub fn run_pipeline_streamed(
    dir: &Path,
    catalog: &SdkIndex,
    config: PipelineConfig,
) -> io::Result<PipelineOutput> {
    stream_with(dir, catalog, config, analyze_app_timed_with)
}

/// [`run_pipeline_streamed`] with a caller-supplied per-entry analysis,
/// as [`run_pipeline_with`](crate::run_pipeline_with) is to
/// [`run_pipeline`](crate::run_pipeline).
pub(crate) fn stream_with<F>(
    dir: &Path,
    catalog: &SdkIndex,
    config: PipelineConfig,
    analyze: F,
) -> io::Result<PipelineOutput>
where
    F: Fn(&AppMeta, Bytes, &mut AnalysisCtx<'_>) -> Result<usize, ApkError> + Sync,
{
    let shards = list_shards(dir)?;
    let manifest_dir = dir.join(MANIFEST_SUBDIR);
    // A manifest that cannot be made costs only the cache: its loads miss
    // and its writes fail.
    let _ = fs::create_dir_all(&manifest_dir);
    let started = Instant::now();
    let held_now = AtomicU64::new(0);
    let held_peak = AtomicU64::new(0);
    let pool = wla_pool::run(
        shards.len(),
        config.workers,
        || AnalysisCtx::new(catalog),
        |ctx, s| {
            let held = (&held_now, &held_peak);
            let shard = &shards[s];
            let run = wla_pool::isolate(|| stream_shard(shard, &manifest_dir, ctx, &analyze, held));
            if run.is_err() {
                // A panic in shard-level code costs the shard every row it
                // had committed.
                ctx.results.clear();
            }
            run
        },
    );

    // Shards come back in shard order and rows in entry order, so the
    // claims' tables in order hold global entry order.
    let mut counters = StreamCounters::default();
    let mut claims = Vec::with_capacity(pool.results.len());
    for (w, outcome) in pool.results {
        // The claim's own isolator or the pool's: either way a shard panic.
        let shard = outcome.and_then(|run| run).unwrap_or_else(|_| ShardRun {
            failure: Some(SHARD_PANIC),
            ..ShardRun::default()
        });
        counters.bytes_mapped += shard.bytes_read;
        let entries = shard.table.len();
        if let Some(kind) = shard.failure {
            counters.shard_failures += 1;
            *counters.shard_failure_kinds.entry(kind).or_insert(0) += 1;
        } else if shard.cached {
            counters.shards_cached += 1;
            counters.entries_cached += entries;
        } else {
            counters.shards_read += 1;
            counters.entries_streamed += entries;
        }
        claims.push((w, shard.table));
    }
    counters.peak_mapped_bytes = held_peak.load(Ordering::Relaxed);

    let mut output = join(claims, pool.contexts, pool.workers, started);
    output.stats.stream = counters;
    Ok(output)
}

/// Claim body for one shard: resume-cache lookup, streaming analysis,
/// cache write-back, shard-bytes accounting, and the freeze of the
/// shard's rows into its table. `held` is the concurrently-held gauge and
/// its peak.
fn stream_shard<F>(
    path: &Path,
    manifest_dir: &Path,
    ctx: &mut AnalysisCtx<'_>,
    analyze: &F,
    (held_now, held_peak): (&AtomicU64, &AtomicU64),
) -> ShardRun
where
    F: Fn(&AppMeta, Bytes, &mut AnalysisCtx<'_>) -> Result<usize, ApkError>,
{
    let cache_path = cache_path_for(manifest_dir, path);
    if let Ok(stamp) = read_shard_stamp(path) {
        if cache::load_result_cache(&cache_path, stamp, ctx) {
            return ShardRun {
                table: ctx.results.freeze(),
                cached: true,
                ..ShardRun::default()
            };
        }
    }

    let shard = match Shard::open(path) {
        Ok(shard) => shard,
        Err(e) => {
            return ShardRun {
                failure: Some(e.kind()),
                ..ShardRun::default()
            }
        }
    };
    let bytes_read = shard.file_len();
    let _gauge = HeldGauge::hold(held_now, held_peak, bytes_read);

    analyze_rows(ctx, 0..shard.len(), |e, ctx| {
        analyze(shard.entry_meta(e), shard.entry_bytes(e), ctx)
    });

    // Keyed to the exact bytes just analyzed (the open-time checksum),
    // written atomically; failure to cache is not failure to analyze.
    let stamp = ShardStamp {
        checksum: shard.checksum(),
        file_len: shard.file_len(),
    };
    let _ = cache::write_result_cache(&cache_path, stamp, &ctx.results, &ctx.lexicon);
    ShardRun {
        table: ctx.results.freeze(),
        bytes_read,
        ..ShardRun::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::panicked;
    use crate::pipeline::tests::{
        assert_holds_only_its_rows, assert_same_run, quiet_injected_panics, write_then_panic,
    };
    use crate::run_pipeline;
    use wla_corpus::{write_sharded_corpus, CorpusConfig, GeneratedApp, Generator};
    use wla_intern::LocalInterner;

    /// A streamed entry whose analysis writes records and then panics
    /// leaves no orphan row, in the output or in the resume cache: both
    /// equal a fault-free run in which that entry is an `analysis-panic`.
    #[test]
    fn a_panic_mid_write_in_a_streamed_entry_leaves_no_orphan_rows() {
        quiet_injected_panics();
        let catalog = SdkIndex::paper();
        let config = CorpusConfig {
            scale: 2_000,
            seed: 31,
            corrupt_fraction: 0.1,
            ..CorpusConfig::default()
        };
        let apps = Generator::new(&catalog, config).generate();
        let traps: Vec<String> = [1, apps.len() / 2, apps.len() - 1]
            .iter()
            .map(|&i| apps[i].spec.meta.package.clone())
            .collect();
        let message = "injected fault in a streamed entry";
        let is_trap = |meta: &AppMeta| traps.contains(&meta.package);
        let panicking = |meta: &AppMeta, bytes: Bytes, ctx: &mut AnalysisCtx<'_>| {
            if is_trap(meta) {
                write_then_panic(ctx, message);
            }
            analyze_app_timed_with(meta, bytes, ctx)
        };
        let failing = |meta: &AppMeta, bytes: Bytes, ctx: &mut AnalysisCtx<'_>| {
            if is_trap(meta) {
                return Err(panicked(message.to_owned()));
            }
            analyze_app_timed_with(meta, bytes, ctx)
        };
        let root = std::env::temp_dir().join(format!("wla-stream-orphan-{}", std::process::id()));
        for workers in [1usize, 2, 8] {
            let config = PipelineConfig { workers };
            let dirs = ["panicking", "failing"].map(|tag| root.join(format!("{tag}-{workers}")));
            for dir in &dirs {
                let _ = fs::remove_dir_all(dir);
                write_sharded_corpus(dir, &apps, 8).unwrap();
            }
            let out = stream_with(&dirs[0], &catalog, config, panicking).unwrap();
            let want = stream_with(&dirs[1], &catalog, config, failing).unwrap();
            assert_same_run(&out, &want);
            assert_holds_only_its_rows(&out);
            assert_eq!(out.stats.panicked, traps.len(), "{workers} workers");
            assert_eq!(out.broken_count(), want.broken_count());
            // The resume caches hold the same rows, byte for byte.
            for entry in fs::read_dir(dirs[1].join(MANIFEST_SUBDIR)).unwrap() {
                let path = entry.unwrap().path();
                let name = path.file_name().unwrap();
                let written = fs::read(dirs[0].join(MANIFEST_SUBDIR).join(name)).unwrap();
                assert_eq!(written, fs::read(&path).unwrap(), "{name:?}");
            }
            // And a warm run reads them back as the same output.
            let warm = run_pipeline_streamed(&dirs[0], &catalog, config).unwrap();
            assert_eq!(warm.stats.stream.entries_cached, apps.len());
            assert_same_run(&warm, &want);
        }
        fs::remove_dir_all(&root).unwrap();
    }

    /// A panic in shard-level code — here the resume-cache write, outside
    /// every entry's isolator — costs its shard alone: the shard is one
    /// `shard-panic` that leaves no row in the output and no `.done` file,
    /// the worker's next claim starts clean, and a rerun analyzes exactly
    /// that shard.
    #[test]
    fn a_shard_level_panic_costs_only_its_shard() {
        let catalog = SdkIndex::paper();
        let config = CorpusConfig {
            scale: 2_000,
            seed: 37,
            corrupt_fraction: 0.1,
            ..CorpusConfig::default()
        };
        let apps = Generator::new(&catalog, config).generate();
        let (shard, per_shard) = (2, 8);
        // One entry of the shard commits a row whose class its worker's
        // lexicon does not hold, so resolving it for the cache panics.
        let poisoned = &apps[shard * per_shard + 3].spec.meta.package;
        let mut scratch = LocalInterner::new();
        let stranger = (0..=100_000)
            .map(|i| scratch.intern(&i.to_string()))
            .last()
            .unwrap();
        let poisoning = |meta: &AppMeta, bytes: Bytes, ctx: &mut AnalysisCtx<'_>| {
            if meta.package != *poisoned {
                return analyze_app_timed_with(meta, bytes, ctx);
            }
            let mut row = ctx.results.row();
            row.push_class(stranger);
            Ok(row.commit(meta.category, &meta.package, 0))
        };
        let others: Vec<GeneratedApp> = apps[..shard * per_shard]
            .iter()
            .chain(&apps[(shard + 1) * per_shard..])
            .cloned()
            .collect();
        let root = std::env::temp_dir().join(format!("wla-shard-panic-{}", std::process::id()));
        for workers in [1usize, 2, 8] {
            let config = PipelineConfig { workers };
            let dir = root.join(workers.to_string());
            let _ = fs::remove_dir_all(&dir);
            let paths = write_sharded_corpus(&dir, &apps, per_shard).unwrap();
            let out = stream_with(&dir, &catalog, config, poisoning).unwrap();
            let stream = &out.stats.stream;
            assert_eq!(stream.shard_failures, 1, "{workers} workers");
            assert_eq!(stream.shard_failure_kinds.get(SHARD_PANIC), Some(&1));
            assert_eq!(out.stats.total, apps.len() - per_shard, "{workers} workers");
            assert_eq!(out.stats.workers.len(), workers);
            assert_holds_only_its_rows(&out);
            assert_same_run(&out, &run_pipeline(&others, &catalog, config));
            let manifest = dir.join(MANIFEST_SUBDIR);
            for (i, path) in paths.iter().enumerate() {
                let done = cache_path_for(&manifest, path).exists();
                assert_eq!(done, i != shard, "shard {i}, {workers} workers");
            }
            // With the normal analysis, a rerun reads that shard alone and
            // equals the full in-memory run.
            let rerun = run_pipeline_streamed(&dir, &catalog, config).unwrap();
            let stream = &rerun.stats.stream;
            assert_eq!(
                (stream.shards_read, stream.entries_streamed),
                (1, per_shard)
            );
            assert_same_run(&rerun, &run_pipeline(&apps, &catalog, config));
        }
        fs::remove_dir_all(&root).unwrap();
    }

    /// A corpus directory whose manifest cannot be made — a plain file
    /// sits at its path — still streams: every load misses, every write
    /// fails, and each run at any worker count analyzes every entry and
    /// equals the in-memory run.
    #[test]
    fn a_manifest_that_cannot_be_made_costs_only_the_cache() {
        let catalog = SdkIndex::paper();
        let config = CorpusConfig {
            scale: 2_000,
            seed: 43,
            corrupt_fraction: 0.1,
            ..CorpusConfig::default()
        };
        let apps = Generator::new(&catalog, config).generate();
        let dir = std::env::temp_dir().join(format!("wla-no-manifest-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let paths = write_sharded_corpus(&dir, &apps, 8).unwrap();
        assert!(paths.len() >= 8);
        let blocker = dir.join(MANIFEST_SUBDIR);
        fs::write(&blocker, b"not a directory").unwrap();
        let want = run_pipeline(&apps, &catalog, PipelineConfig { workers: 1 });
        for workers in [1usize, 2, 8] {
            let out = run_pipeline_streamed(&dir, &catalog, PipelineConfig { workers }).unwrap();
            let stream = &out.stats.stream;
            assert_eq!(stream.entries_streamed, apps.len(), "{workers} workers");
            assert_eq!(
                (stream.shards_read, stream.shard_failures),
                (paths.len(), 0)
            );
            assert_eq!((stream.shards_cached, stream.entries_cached), (0, 0));
            assert_eq!(out.stats.workers.len(), workers);
            assert_same_run(&out, &want);
        }
        assert_eq!(fs::read(&blocker).unwrap(), b"not a directory");
        fs::remove_dir_all(&dir).unwrap();
    }
}
