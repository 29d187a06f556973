//! Shard-level streaming corpus runner: analyze a sharded on-disk corpus
//! without ever materializing it in memory.
//!
//! The workspace's one claim pool ([`wla_pool::run`]) runs over shards:
//! each worker reads a shard it claims into one buffer ([`Shard::open`])
//! and analyzes its entries through the zero-copy decode path — every
//! container window aliases that buffer, so resident shard memory is
//! bounded by the number of *concurrently held* shards (one per worker),
//! not the corpus size. Every entry runs the in-memory pipeline's per-app
//! step. The pool returns shards in shard order with entries in entry
//! order, so flattening them gives global entry order, and the in-memory
//! pipeline's join ([`crate::pipeline`]) then makes the [`PipelineOutput`]
//! bit-identical to loading the same corpus in memory and running
//! [`crate::run_pipeline`], at any worker count.
//!
//! **Fault isolation.** Each entry runs under its own panic isolator, so a
//! panicking entry fails alone as `analysis-panic`. A shard file that
//! fails to open or validate costs its own entries and is counted by kind
//! in [`StreamCounters`]; so is a panic in shard-level code (cache load,
//! open, entry index, cache write), under the `shard-panic` kind.
//!
//! **Resumability.** With [`StreamConfig::resume`] on, each finished
//! shard's results are serialized to `<dir>/manifest/<shard>.done` keyed
//! to the shard's stamp (header checksum + length). A rerun loads those
//! instead of re-analyzing; any staleness or damage in a cache file is a
//! silent miss. [`StreamCounters`] reports what was streamed, what was
//! served from cache, shard-level failures, and shard bytes held.

use crate::analyze::{analyze_app_timed_with, AppAnalysis};
use crate::cache;
use crate::pipeline::{join, panicked, PipelineConfig, PipelineOutput, Worker};
use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use wla_apk::ApkError;
use wla_corpus::shard::{list_shards, read_shard_stamp, Shard, ShardStamp};
use wla_sdk_index::SdkIndex;

/// Subdirectory of a sharded corpus holding per-shard resume caches.
pub const MANIFEST_SUBDIR: &str = "manifest";

/// Shard failure kind for a panic in shard-level code; a panic inside one
/// entry's analysis fails that entry alone, as `analysis-panic`.
const SHARD_PANIC: &str = "shard-panic";

/// Streaming-run configuration.
#[derive(Debug, Clone, Copy)]
pub struct StreamConfig {
    /// Worker count and analysis knobs shared with the in-memory pipeline;
    /// the streaming claim unit is one shard.
    pub pipeline: PipelineConfig,
    /// Maintain and honor the per-shard resume manifest (default). When
    /// off, nothing under [`MANIFEST_SUBDIR`] is read or written.
    pub resume: bool,
}

impl Default for StreamConfig {
    fn default() -> StreamConfig {
        StreamConfig {
            pipeline: PipelineConfig::default(),
            resume: true,
        }
    }
}

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
    /// Entry results in entry order; symbols are local to the claiming
    /// worker's lexicon.
    entries: Vec<Result<AppAnalysis, ApkError>>,
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
    config: StreamConfig,
) -> io::Result<PipelineOutput> {
    let shards = list_shards(dir)?;
    let manifest_dir = dir.join(MANIFEST_SUBDIR);
    if config.resume {
        fs::create_dir_all(&manifest_dir)?;
    }
    let started = Instant::now();
    let held_now = AtomicU64::new(0);
    let held_peak = AtomicU64::new(0);
    let pool = wla_pool::run(
        shards.len(),
        config.pipeline.workers,
        || config.pipeline.worker(catalog),
        |worker, s| {
            stream_shard(
                &shards[s],
                &manifest_dir,
                config,
                worker,
                &held_now,
                &held_peak,
            )
        },
    );

    // Shards come back in shard order and entries in entry order, so the
    // flattened list is already in global entry order.
    let mut counters = StreamCounters::default();
    let mut results = Vec::new();
    for (w, outcome) in pool.results {
        let shard = outcome.unwrap_or_else(|_| ShardRun {
            failure: Some(SHARD_PANIC),
            ..ShardRun::default()
        });
        counters.bytes_mapped += shard.bytes_read;
        if let Some(kind) = shard.failure {
            counters.shard_failures += 1;
            *counters.shard_failure_kinds.entry(kind).or_insert(0) += 1;
        } else if shard.cached {
            counters.shards_cached += 1;
            counters.entries_cached += shard.entries.len();
        } else {
            counters.shards_read += 1;
            counters.entries_streamed += shard.entries.len();
        }
        results.extend(shard.entries.into_iter().map(|result| (w, result)));
    }
    counters.peak_mapped_bytes = held_peak.load(Ordering::Relaxed);

    let mut output = join(results, pool.contexts, pool.workers, started);
    output.stats.stream = counters;
    Ok(output)
}

/// Claim body for one shard: resume-cache lookup, streaming analysis,
/// cache write-back, and shard-bytes accounting.
fn stream_shard(
    path: &Path,
    manifest_dir: &Path,
    config: StreamConfig,
    worker: &mut Worker<'_>,
    held_now: &AtomicU64,
    held_peak: &AtomicU64,
) -> ShardRun {
    let cache_path = cache_path_for(manifest_dir, path);
    if config.resume {
        if let Ok(stamp) = read_shard_stamp(path) {
            if let Some(entries) =
                cache::load_result_cache(&cache_path, stamp, &mut worker.ctx.lexicon)
            {
                return ShardRun {
                    entries,
                    cached: true,
                    ..ShardRun::default()
                };
            }
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

    let entries: Vec<_> = (0..shard.len())
        .map(|e| {
            let (meta, bytes) = (shard.entry_meta(e), shard.entry_bytes(e));
            wla_pool::isolate(|| worker.analyze(|ctx| analyze_app_timed_with(meta, bytes, ctx)))
                .unwrap_or_else(panicked)
        })
        .collect();

    if config.resume {
        // Keyed to the exact bytes just analyzed (the open-time checksum),
        // written atomically; failure to cache is not failure to analyze.
        let stamp = ShardStamp {
            checksum: shard.checksum(),
            file_len: shard.file_len(),
        };
        let _ = cache::write_result_cache(&cache_path, stamp, &entries, &worker.ctx.lexicon);
    }
    ShardRun {
        entries,
        bytes_read,
        ..ShardRun::default()
    }
}
