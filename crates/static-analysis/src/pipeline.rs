//! Fault-isolated, instrumented parallel corpus runner.
//!
//! Static analysis is CPU-bound, so the runner is the workspace's one
//! claim pool ([`wla_pool::run`]) over 64-app batches of the corpus, the
//! size of the streamed runner's shards — scoped threads, no async
//! runtime, per the project's networking guides ("use threads for
//! CPU-bound work"). Three properties the paper's scale (146.8K apps,
//! Table 2) demands of it:
//!
//! - **Fault isolation.** Each app of a claimed batch runs under its own
//!   [`wla_pool::isolate`], in one per-entry loop every static runner
//!   shares, which also holds each analysis to committing exactly one
//!   row; a panicking container, or one whose analysis broke that rule,
//!   becomes an [`ApkError::AnalysisPanic`] result feeding the broken-apps
//!   row, and the rest of the batch runs.
//! - **Contention-free output.** A pool worker is its [`AnalysisCtx`]:
//!   lexicon, label memo, counters, stage timers and [`ResultTable`];
//!   nothing shares a mutex on the hot path.
//! - **Observability.** [`PipelineStats`] carries per-stage timers,
//!   per-worker counters, interner counters, throughput, and a failure
//!   taxonomy, surfaced through [`PipelineOutput::stats`] and rendered
//!   straight from that struct by `wla-core::stats`.
//!
//! Results stay where the worker wrote them. Each app's records and its
//! row go into its worker's table, the row committed when the app is
//! done (a failed app's row holds its error); at the end of each batch
//! the worker freezes the batch's rows into one exact-size
//! [`ResultTable`], the batch's outcome in the pool, and the pool hands
//! the batches back in input order. The serial join tail (timed as
//! [`PipelineStats::serial_tail_ns`]) keeps those tables, in that order,
//! as the [`PipelineOutput`], and has [`wla_intern::merge_ordered`]
//! rewrite every row's worker-local symbols in place into one fresh
//! [`SymbolTable`], which the output owns. Its ids depend only on the
//! input order — never on worker count or scheduling — which keeps
//! parallel and serial runs bit-identical, and so does the output's size.
//! Nothing is copied per app. The shard-streaming runner in
//! [`crate::stream`] differs only in where a claim's entries come from: it
//! shares the per-entry loop and the join.
//!
//! A caller that reads only the corpus aggregates skips all of that:
//! [`run_pipeline_tallied`] runs each app through the same per-entry loop
//! on its own, folds the row into its worker's [`Tally`] and reuses the
//! table it was written to, so no per-app result outlives its app, and
//! the tail merges tallies instead of symbols. [`aggregate`] reads no
//! symbol, so the fold needs no symbol table, and a folding worker
//! forgets its lexicon and label memo after every batch: its symbols live
//! one batch.
//!
//! [`aggregate`]: crate::aggregate::aggregate

use crate::aggregate::{StudyResults, Tally};
use crate::analyze::{analyze_app_timed_with, AnalysisCtx, AppView, DecodeCounters, StageTimings};
use crate::dataflow::DataflowCounters;
use crate::stream::StreamCounters;
use crate::table::ResultTable;
use bytes::Bytes;
use std::collections::BTreeMap;
use std::mem::size_of;
use std::ops::Range;
use std::time::Instant;
use wla_apk::ApkError;
use wla_callgraph::CallGraphCounters;
use wla_corpus::playstore::AppMeta;
use wla_corpus::GeneratedApp;
use wla_intern::{merge_ordered, LocalInterner, SymbolTable};
use wla_sdk_index::{LabelId, SdkIndex};

pub use wla_pool::WorkerStats;

/// Apps one static claim covers: an in-memory runner's batch, and the
/// shard size a streamed corpus is written at (the end-to-end benchmark's
/// `stream_s10` writes 64-app shards), so a run claims the same 64 apps at
/// a time in memory and streamed. A
/// keep-output worker freezes each claim's rows into one exact-size
/// [`ResultTable`].
pub const CLAIM_APPS: usize = 64;

/// One corpus entry: the metadata the Play Store provides plus the raw
/// container bytes fetched from the archive.
#[derive(Debug, Clone)]
pub struct CorpusInput {
    /// Play metadata.
    pub meta: AppMeta,
    /// SAPK container bytes.
    pub bytes: Vec<u8>,
}

/// What the runners read of one corpus entry: its Play metadata and its
/// container bytes, borrowed where the entry lies. A generated corpus is
/// analyzed in place, so a run holds one copy of the corpus, not two.
pub trait AppInput: Sync {
    /// Play metadata.
    fn meta(&self) -> &AppMeta;
    /// SAPK container bytes.
    fn bytes(&self) -> &[u8];
}

impl AppInput for CorpusInput {
    fn meta(&self) -> &AppMeta {
        &self.meta
    }

    fn bytes(&self) -> &[u8] {
        &self.bytes
    }
}

/// Reads only `spec.meta` — the Play metadata — and the container; the
/// rest of the [`GroundTruth`](wla_corpus::GroundTruth) is what the
/// analysis must recover, never see.
impl AppInput for GeneratedApp {
    fn meta(&self) -> &AppMeta {
        &self.spec.meta
    }

    fn bytes(&self) -> &[u8] {
        &self.bytes
    }
}

/// What a static run takes: its worker count, and nothing else. Every run
/// resolves URL provenance with the one constant-propagation pass, and a
/// streamed run ([`run_pipeline_streamed`](crate::run_pipeline_streamed))
/// always keeps its resume manifest, as far as the corpus directory lets
/// it.
#[derive(Debug, Clone, Copy, Default)]
pub struct PipelineConfig {
    /// Worker thread count (0 ⇒ available parallelism). Explicit counts
    /// are honoured, capped at the number of items.
    pub workers: usize,
}

/// Interning observability for one run: how much string work the corpus
/// generated and how well the worker-local memos absorbed it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InternerCounters {
    /// Distinct symbols in the merged global table (0 for a folded run,
    /// which merges no table).
    pub global_symbols: usize,
    /// Bytes of distinct strings in the global table (0 for a folded run).
    pub global_bytes: usize,
    /// Worker-local intern calls that found the string already present.
    pub local_hits: u64,
    /// Worker-local intern calls that inserted a new string: the distinct
    /// symbols summed over worker-local interners (≥ global: workers
    /// re-discover shared names independently; a folded run's batches
    /// re-discover what its earlier batches forgot).
    pub local_misses: u64,
    /// Package labels served from the per-worker memo.
    pub label_hits: u64,
    /// Package labels that walked the catalog trie.
    pub label_misses: u64,
}

impl InternerCounters {
    /// Fraction of intern calls absorbed by worker-local tables.
    pub fn local_hit_rate(&self) -> f64 {
        let total = self.local_hits + self.local_misses;
        if total == 0 {
            return 0.0;
        }
        self.local_hits as f64 / total as f64
    }

    /// Fraction of package-label lookups served from the memo.
    pub fn label_hit_rate(&self) -> f64 {
        let total = self.label_hits + self.label_misses;
        if total == 0 {
            return 0.0;
        }
        self.label_hits as f64 / total as f64
    }
}

/// Run-level observability: totals, failure taxonomy, per-stage timers,
/// per-worker counters, and throughput.
///
/// A folded run ([`run_pipeline_tallied`]) fills every counter except
/// `interner.global_symbols` and `interner.global_bytes`, which stay 0:
/// it merges no symbol table. Its `serial_tail_ns` is the counter fold
/// and the tally merge. Every static runner claims apps a batch or a shard
/// at a time, and each worker's [`WorkerStats::items`] counts the apps of
/// its claims, so they sum to `total`.
#[derive(Debug, Clone, Default)]
pub struct PipelineStats {
    /// Corpus size (`analyzed + broken`).
    pub total: usize,
    /// Apps that analyzed successfully.
    pub analyzed: usize,
    /// Apps whose container failed to decode or whose analysis failed
    /// (Table 2's broken row — includes `panicked`).
    pub broken: usize,
    /// Apps whose analysis panicked and was converted to
    /// [`ApkError::AnalysisPanic`] by the fault isolation.
    pub panicked: usize,
    /// Per-stage analysis time summed over all apps.
    pub stage: StageTimings,
    /// End-to-end wall-clock time of the run.
    pub wall_ns: u64,
    /// Time spent in the serial join tail after the worker pool finished:
    /// stats fold and the local→global symbol remap (a folded run: stats
    /// fold and tally merge).
    pub serial_tail_ns: u64,
    /// The pool's per-worker counters, in spawn order; `items` counts
    /// apps (a streamed run: the entries of the worker's shards, cached
    /// ones included), not claims.
    pub workers: Vec<WorkerStats>,
    /// Failure counts keyed by [`ApkError::kind`] label.
    pub failure_kinds: BTreeMap<&'static str, usize>,
    /// Interned-IR counters for the run.
    pub interner: InternerCounters,
    /// Call-graph counters for the run (CSR edges, vtable cache, bitset
    /// scratch reuse), merged across workers.
    pub callgraph: CallGraphCounters,
    /// Constant-propagation counters (basic blocks, fixpoint iterations,
    /// resolved/unknown/conflict invokes), merged across workers.
    pub dataflow: DataflowCounters,
    /// Dex-decode counters, merged across workers.
    pub decode: DecodeCounters,
    /// Shard-streaming counters; all-zero for the in-memory path.
    pub stream: StreamCounters,
    /// Heap bytes the output's result tables and symbol table hold
    /// ([`PipelineOutput::heap_bytes`]), set by the join; 0 for a folded
    /// run, which builds no output.
    pub result_bytes: usize,
}

impl PipelineStats {
    /// A run over `total` apps, each counted as analyzed until
    /// [`count_failure`](Self::count_failure) moves it to broken.
    fn new(total: usize, workers: Vec<WorkerStats>) -> PipelineStats {
        PipelineStats {
            total,
            analyzed: total,
            workers,
            ..PipelineStats::default()
        }
    }

    /// Move one app from analyzed to broken, counting its failure kind
    /// (and a panic).
    fn count_failure(&mut self, e: &ApkError) {
        self.analyzed -= 1;
        self.broken += 1;
        if matches!(e, ApkError::AnalysisPanic { .. }) {
            self.panicked += 1;
        }
        *self.failure_kinds.entry(e.kind()).or_insert(0) += 1;
    }

    /// Fold one finished worker's counters into the run's, handing back
    /// its lexicon.
    fn fold_worker(&mut self, ctx: AnalysisCtx<'_>) -> LocalInterner {
        self.stage.accumulate(&ctx.stage);
        self.interner.local_hits += ctx.lexicon.hits();
        self.interner.local_misses += ctx.lexicon.misses();
        self.interner.label_hits += ctx.labels.hits;
        self.interner.label_misses += ctx.labels.misses;
        self.callgraph.merge(&ctx.callgraph_counters());
        self.dataflow.merge(&ctx.dataflow);
        self.decode.merge(&ctx.decode);
        ctx.lexicon
    }

    /// Corpus throughput over the whole run.
    pub fn apps_per_second(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        self.total as f64 / (self.wall_ns as f64 * 1e-9)
    }

    /// Total busy time across workers (CPU-seconds spent analyzing).
    pub fn busy_ns(&self) -> u64 {
        self.workers.iter().map(|w| w.busy_ns).sum()
    }

    /// Pool utilization: busy time over `workers × wall` (1.0 = perfectly
    /// balanced, no idle tails).
    pub fn utilization(&self) -> f64 {
        let capacity = self.wall_ns.saturating_mul(self.workers.len() as u64);
        if capacity == 0 {
            return 0.0;
        }
        self.busy_ns() as f64 / capacity as f64
    }

    /// Traversal speed: CSR edges scanned per second of callgraph-stage
    /// time (0 when no call graph was built).
    pub fn edges_per_second(&self) -> f64 {
        if self.stage.callgraph_ns == 0 {
            return 0.0;
        }
        self.callgraph.edges_traversed as f64 / (self.stage.callgraph_ns as f64 * 1e-9)
    }
}

/// Pipeline output: one result table per claim, in input order, run
/// statistics, and the symbol table every row resolves against.
#[derive(Debug)]
pub struct PipelineOutput {
    /// The claims' tables, as their workers wrote them; symbols are global
    /// (rewritten in place by the join).
    tables: Box<[ResultTable]>,
    /// Observability counters for the run.
    pub stats: PipelineStats,
    /// The merged symbol table — the report boundary's only way to turn a
    /// [`wla_intern::Symbol`] back into text.
    pub symbols: SymbolTable,
}

impl PipelineOutput {
    /// Every app's analysis or decode error, in input order.
    pub fn results(&self) -> impl ExactSizeIterator<Item = Result<AppView<'_>, &ApkError>> {
        Counted {
            left: self.tables.iter().map(ResultTable::len).sum(),
            items: self.tables.iter().flat_map(ResultTable::iter),
        }
    }

    /// Successfully analyzed apps.
    pub fn analyzed(&self) -> impl Iterator<Item = AppView<'_>> {
        self.results().filter_map(Result::ok)
    }

    /// Number of broken containers (Table 2's 242).
    pub fn broken_count(&self) -> usize {
        self.results().filter(Result::is_err).count()
    }

    /// Heap bytes held by the result tables and the symbol table.
    pub fn heap_bytes(&self) -> usize {
        self.tables.len() * size_of::<ResultTable>()
            + self
                .tables
                .iter()
                .map(ResultTable::heap_bytes)
                .sum::<usize>()
            + self.symbols.heap_bytes()
    }
}

/// `items`, known to hold `left` more: how [`PipelineOutput::results`]
/// walks its tables one after another as one exact-size iterator.
struct Counted<I> {
    items: I,
    left: usize,
}

impl<I: Iterator> Iterator for Counted<I> {
    type Item = I::Item;

    fn next(&mut self) -> Option<I::Item> {
        let item = self.items.next()?;
        self.left -= 1;
        Some(item)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl<I: Iterator> ExactSizeIterator for Counted<I> {}

/// A panic's text as the per-app error Table 2's broken row counts.
pub(crate) fn panicked(message: String) -> ApkError {
    ApkError::AnalysisPanic { message }
}

/// The per-entry loop every static runner shares. It runs `analyze` on
/// each entry of a claim in turn, each under [`wla_pool::isolate`], so a
/// panic costs that entry alone and the rest of the claim still runs, and
/// commits exactly one row per entry to `ctx.results`, in entry order.
///
/// `analyze` must commit the entry's one row and return its number, or
/// return the entry's error. The loop holds it to that: an error, a
/// panic's included, takes the place of any row the entry committed, and
/// an `Ok` that did not commit exactly the row it names, or whose row
/// labels a site with an SDK past `ctx.catalog`, fails the entry as
/// `analysis-panic`. So no runner hands [`Tally::add`] a row it cannot
/// fold.
pub(crate) fn analyze_rows<'c, E>(
    ctx: &mut AnalysisCtx<'c>,
    entries: impl IntoIterator<Item = E>,
    analyze: impl Fn(E, &mut AnalysisCtx<'c>) -> Result<usize, ApkError>,
) {
    let sdks = ctx.catalog.sdks().len();
    let in_catalog = |label: LabelId| !matches!(label, LabelId::Sdk(i) if i as usize >= sdks);
    for entry in entries {
        let row = ctx.results.len();
        let outcome = wla_pool::isolate(|| {
            let committed = analyze(entry, ctx)?;
            assert!(
                committed == row && ctx.results.len() == row + 1,
                "an analysis must commit exactly the one row it returns"
            );
            if let Ok(app) = ctx.results.get(row) {
                let ct = app.ct_sites.iter().map(|s| s.label);
                let mut labels = app.webview_sites.iter().map(|s| s.label).chain(ct);
                assert!(
                    labels.all(in_catalog),
                    "an analysis must label sites against its catalog"
                );
            }
            Ok(())
        });
        if let Err(e) = outcome.unwrap_or_else(|message| Err(panicked(message))) {
            ctx.results.truncate(row);
            ctx.results.commit_error(e);
        }
    }
}

/// The per-app analysis both in-memory runners run by default.
fn analyze_input<I: AppInput>(input: &I, ctx: &mut AnalysisCtx<'_>) -> Result<usize, ApkError> {
    // The one copy of the container this run makes: the decode and
    // every dex string span share it.
    let bytes = Bytes::copy_from_slice(input.bytes());
    analyze_app_timed_with(input.meta(), bytes, ctx)
}

/// Analyze every corpus entry, in parallel, labeling against `catalog`.
pub fn run_pipeline<I: AppInput>(
    inputs: &[I],
    catalog: &SdkIndex,
    config: PipelineConfig,
) -> PipelineOutput {
    run_pipeline_with(inputs, catalog, config, analyze_input)
}

/// Analyze every corpus entry, in parallel, and aggregate as it goes:
/// the [`StudyResults`] that [`aggregate`](crate::aggregate::aggregate)
/// makes of [`run_pipeline`]'s output, and the same run stats, without
/// building a [`PipelineOutput`].
///
/// Each worker runs one app at a time through the per-entry loop the
/// keep-output runners share, so its row is held to the same one-row
/// contract, then folds that row into its own [`Tally`], reusing its
/// table's capacity for the next app, and forgets its lexicon and label
/// memo after every batch: nothing a tally keeps is a symbol. The tail
/// merges the tallies. The fold runs under an isolator of its own, so a
/// panic in the analysis or in the fold is caught at that app, which is
/// counted as broken, and the rest of the batch runs. No symbol table is
/// merged (see [`PipelineStats`]).
pub fn run_pipeline_tallied<I: AppInput>(
    inputs: &[I],
    catalog: &SdkIndex,
    config: PipelineConfig,
    top_sdk_threshold: usize,
) -> (StudyResults, PipelineStats) {
    tally_with(inputs, catalog, config, top_sdk_threshold, analyze_input)
}

/// Why a batch claim cannot panic: its apps run under [`analyze_rows`].
const ISOLATED: &str = "every app of a batch runs under its own isolator";

/// The apps of batch `b` of an `n`-app corpus.
fn batch(b: usize, n: usize) -> Range<usize> {
    b * CLAIM_APPS..n.min((b + 1) * CLAIM_APPS)
}

/// Set each worker's `items` to the apps of the claims it ran — one
/// `(worker, apps)` per claim — where the pool counted claims.
fn count_apps(workers: &mut [WorkerStats], claims: impl IntoIterator<Item = (usize, usize)>) {
    for stats in workers.iter_mut() {
        stats.items = 0;
    }
    for (w, apps) in claims {
        workers[w].items += apps;
    }
}

/// [`run_pipeline_tallied`] with a caller-supplied analysis function, as
/// [`run_pipeline_with`] is to [`run_pipeline`].
pub(crate) fn tally_with<I, F>(
    inputs: &[I],
    catalog: &SdkIndex,
    config: PipelineConfig,
    top_sdk_threshold: usize,
    analyze: F,
) -> (StudyResults, PipelineStats)
where
    I: AppInput,
    F: Fn(&I, &mut AnalysisCtx<'_>) -> Result<usize, ApkError> + Sync,
{
    let started = Instant::now();
    let n = inputs.len();
    // Each worker keeps its tally and its apps' errors; a batch hands
    // back nothing.
    let pool = wla_pool::run(
        n.div_ceil(CLAIM_APPS),
        config.workers,
        || (AnalysisCtx::new(catalog), Tally::new(catalog), Vec::new()),
        |(ctx, tally, failed), b| {
            for i in batch(b, n) {
                // One app in flight: its row is the table's only one.
                ctx.results.clear();
                analyze_rows(ctx, [&inputs[i]], &analyze);
                let folded = wla_pool::isolate(|| {
                    tally.add(ctx.results.get(0).map_err(Clone::clone)?);
                    Ok(())
                });
                if let Err(e) = folded.unwrap_or_else(|message| Err(panicked(message))) {
                    failed.push(e);
                }
            }
            // Nothing the tally keeps is a symbol: forget the batch's,
            // keeping the memos' capacity and counters.
            ctx.lexicon.forget();
            ctx.labels.forget();
        },
    );
    // The serial tail: fold the workers' counters and tallies, then count
    // every failure, a panicked analysis included.
    let tail_started = Instant::now();
    let mut stats = PipelineStats::new(n, pool.workers);
    count_apps(
        &mut stats.workers,
        pool.results.iter().enumerate().map(|(b, (w, outcome))| {
            outcome.as_ref().expect(ISOLATED);
            (*w, batch(b, n).len())
        }),
    );
    let mut tally = Tally::new(catalog);
    let mut failures = Vec::new();
    for (ctx, worker_tally, failed) in pool.contexts {
        stats.fold_worker(ctx);
        tally.merge(&worker_tally);
        failures.extend(failed);
    }
    for e in failures {
        stats.count_failure(&e);
        tally.add_broken();
    }
    stats.serial_tail_ns = tail_started.elapsed().as_nanos() as u64;
    stats.wall_ns = started.elapsed().as_nanos() as u64;
    (tally.finish(top_sdk_threshold), stats)
}

/// [`run_pipeline`] with a caller-supplied analysis function.
///
/// The scheduler, fault isolation, interner merge, and stats collection
/// are identical to [`run_pipeline`]; only the per-app work differs. Tests
/// use this to inject deliberately panicking or contract-breaking
/// analyses (this module's and `tests/pipeline_faults.rs`). The analysis
/// function receives the worker's [`AnalysisCtx`]. It must intern every
/// symbol it records into `ctx.lexicon`, and either commit the app's row
/// to `ctx.results` and return its number (as [`analyze_app_timed_with`]
/// does, adding its stage times to `ctx.stage`) or return the app's
/// error, which the runner commits.
pub fn run_pipeline_with<I, F>(
    inputs: &[I],
    catalog: &SdkIndex,
    config: PipelineConfig,
    analyze: F,
) -> PipelineOutput
where
    I: AppInput,
    F: Fn(&I, &mut AnalysisCtx<'_>) -> Result<usize, ApkError> + Sync,
{
    let started = Instant::now();
    let n = inputs.len();
    let pool = wla_pool::run(
        n.div_ceil(CLAIM_APPS),
        config.workers,
        || AnalysisCtx::new(catalog),
        |ctx, b| {
            analyze_rows(ctx, batch(b, n), |i, ctx| analyze(&inputs[i], ctx));
            ctx.results.freeze()
        },
    );
    let claims = pool
        .results
        .into_iter()
        .map(|(w, table)| (w, table.expect(ISOLATED)))
        .collect();
    join(claims, pool.contexts, pool.workers, started)
}

/// The serial join tail both keep-output runners share: fold the
/// per-worker counters, count failures, and rewrite every row's
/// worker-local symbols in place into one global table. `claims` holds
/// `(worker, table)` for every claim in claim order, which is input order.
pub(crate) fn join(
    mut claims: Vec<(usize, ResultTable)>,
    workers: Vec<AnalysisCtx<'_>>,
    mut worker_stats: Vec<WorkerStats>,
    started: Instant,
) -> PipelineOutput {
    // Everything from here to return runs on one thread after the pool
    // joins — the serial tail `stats.serial_tail_ns` exposes.
    let tail_started = Instant::now();
    count_apps(
        &mut worker_stats,
        claims.iter().map(|(w, table)| (*w, table.len())),
    );
    let total = claims.iter().map(|(_, table)| table.len()).sum();
    let mut stats = PipelineStats::new(total, worker_stats);
    let lexicons: Vec<LocalInterner> = workers
        .into_iter()
        .map(|ctx| stats.fold_worker(ctx))
        .collect();
    for e in claims
        .iter()
        .flat_map(|(_, table)| table.iter())
        .filter_map(Result::err)
    {
        stats.count_failure(e);
    }
    // A claim's worker is each of its rows' worker, and `remap` visits
    // the rows in row order: the merge ranks symbols in input order.
    let symbols = merge_ordered(
        &mut claims,
        lexicons,
        |&(w, _)| w,
        |(_, table), f| table.remap(f),
    );
    stats.interner.global_symbols = symbols.len();
    stats.interner.global_bytes = symbols.bytes();
    let mut output = PipelineOutput {
        tables: claims.into_iter().map(|(_, table)| table).collect(),
        stats,
        symbols,
    };
    output.stats.result_bytes = output.heap_bytes();
    output.stats.serial_tail_ns = tail_started.elapsed().as_nanos() as u64;
    output.stats.wall_ns = started.elapsed().as_nanos() as u64;
    output
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::aggregate::aggregate;
    use crate::analyze::WebViewSiteSummary;
    use proptest::prelude::*;
    use wla_corpus::{CorpusConfig, EcosystemParams, Generator};
    use wla_sdk_index::SdkCategory;

    /// A corpus scale with claims enough for every worker count the tests
    /// use: 1:250 is 587 apps, ten 64-app batches.
    const TEN_BATCHES: u32 = 250;

    fn inputs(catalog: &SdkIndex, scale: u32, seed: u64, corrupt: f64) -> Vec<GeneratedApp> {
        let cfg = CorpusConfig {
            scale,
            seed,
            corrupt_fraction: corrupt,
            ..CorpusConfig::default()
        };
        Generator::new(catalog, cfg).generate()
    }

    fn workers(workers: usize) -> PipelineConfig {
        PipelineConfig { workers }
    }

    /// Bit-identity of two runs: every result (global symbol ids
    /// included), the failure taxonomy, and the global tables
    /// symbol-for-symbol — the table holds exactly the symbols the
    /// results carry, so resolving each of them covers it.
    pub(crate) fn assert_same_run(a: &PipelineOutput, b: &PipelineOutput) {
        assert_eq!(a.results().len(), b.results().len());
        for (x, y) in a.results().zip(b.results()) {
            match (x, y) {
                (Ok(x), Ok(y)) => assert_eq!(x, y),
                (Err(x), Err(y)) => assert_eq!(x, y),
                other => panic!("mismatch {other:?}"),
            }
        }
        assert_eq!(a.stats.failure_kinds, b.stats.failure_kinds);
        assert_eq!(a.symbols.len(), b.symbols.len());
        let (sa, sb) = (&a.symbols, &b.symbols);
        for analysis in a.analyzed() {
            for s in analysis.symbols() {
                assert_eq!(sa.resolve(s), sb.resolve(s));
            }
        }
    }

    #[test]
    fn parallel_matches_serial() {
        let catalog = SdkIndex::paper();
        let apps = inputs(&catalog, TEN_BATCHES, 11, 0.1);
        // The input-order remap makes global symbol ids — and therefore
        // whole analyses — bit-identical across worker counts.
        let par = run_pipeline(&apps, &catalog, workers(8));
        let ser = run_pipeline(&apps, &catalog, workers(1));
        assert_eq!(par.stats.workers.len(), 8);
        assert_same_run(&par, &ser);
        // Dataflow counters are per-app sums, so worker count and
        // scheduling cannot change them (metamorphic provenance pin).
        assert_eq!(par.stats.dataflow, ser.stats.dataflow);
        assert!(par.stats.dataflow.resolved_sites > 0);
        // Analyzing the generated corpus in place is analyzing its copy.
        let copies: Vec<CorpusInput> = apps
            .iter()
            .map(|g| CorpusInput {
                meta: g.spec.meta.clone(),
                bytes: g.bytes.clone(),
            })
            .collect();
        for n in [1, 4] {
            let borrowed = run_pipeline(&apps, &catalog, workers(n));
            let copied = run_pipeline(&copies, &catalog, workers(n));
            assert_same_run(&borrowed, &copied);
        }
    }

    /// The fold and the materialized path agree at 1, 2 and 8 workers:
    /// the same `StudyResults` as `aggregate(&run_pipeline(..))`, and the
    /// same totals, failure taxonomy and per-app counter sums.
    fn assert_fold_matches_materialized<I: AppInput>(apps: &[I], catalog: &SdkIndex) {
        for n in [1, 2, 8] {
            let out = run_pipeline(apps, catalog, workers(n));
            let (results, stats) = run_pipeline_tallied(apps, catalog, workers(n), 1);
            assert_eq!(results, aggregate(&out, catalog, 1), "{n} workers");
            let want = &out.stats;
            assert_eq!(want.workers.len(), n, "a claim for every worker");
            assert_eq!(stats.total, want.total, "{n} workers");
            assert_eq!(stats.analyzed, want.analyzed, "{n} workers");
            assert_eq!(stats.broken, want.broken, "{n} workers");
            assert_eq!(stats.panicked, want.panicked, "{n} workers");
            assert_eq!(stats.failure_kinds, want.failure_kinds, "{n} workers");
            assert_eq!(stats.dataflow, want.dataflow, "{n} workers");
            assert_eq!(stats.decode, want.decode, "{n} workers");
            assert_eq!(stats.workers.len(), want.workers.len(), "{n} workers");
            // The fold merges no symbol table.
            assert_eq!(stats.interner.global_symbols, 0);
            assert_eq!(stats.interner.global_bytes, 0);
            assert!(stats.serial_tail_ns <= stats.wall_ns);
        }
    }

    #[test]
    fn broken_fraction_counted() {
        let catalog = SdkIndex::paper();
        let ins = inputs(&catalog, TEN_BATCHES, 3, 0.25);
        let out = run_pipeline(&ins, &catalog, PipelineConfig::default());
        assert_eq!(out.results().len(), ins.len());
        assert!(out.broken_count() > 0);
        assert_eq!(out.analyzed().count() + out.broken_count(), ins.len());
        assert_fold_matches_materialized(&ins, &catalog);
    }

    #[test]
    fn fold_matches_materialized_on_a_ct_migration_corpus() {
        // `wla whatif`'s input: the ecosystem after every migration it
        // simulates, which moves WebView adoption to Custom Tabs.
        use SdkCategory::{Advertising, Authentication, Payments, Social};
        let catalog = SdkIndex::paper();
        let cfg = CorpusConfig {
            scale: TEN_BATCHES,
            seed: 17,
            params: EcosystemParams::default()
                .simulate_ct_migration(&[Payments, Authentication, Social, Advertising], 1.0),
            ..CorpusConfig::default()
        };
        let apps = Generator::new(&catalog, cfg).generate();
        let (results, _) = run_pipeline_tallied(&apps, &catalog, workers(2), 1);
        assert!(results.ct_apps > 0 && results.webview_apps > 0);
        assert_fold_matches_materialized(&apps, &catalog);
    }

    #[test]
    fn empty_corpus_ok() {
        let catalog = SdkIndex::paper();
        let out = run_pipeline::<CorpusInput>(&[], &catalog, PipelineConfig::default());
        assert_eq!(out.results().len(), 0);
        assert_eq!(out.broken_count(), 0);
        assert_eq!(out.stats.total, 0);
        assert_eq!(out.stats.apps_per_second(), 0.0);
        assert_eq!(out.stats.interner.global_symbols, 0);
    }

    #[test]
    fn edges_per_second_is_zero_without_callgraph_time() {
        let stats = PipelineStats {
            callgraph: CallGraphCounters {
                edges_traversed: 1_000,
                ..CallGraphCounters::default()
            },
            ..PipelineStats::default()
        };
        assert_eq!(stats.edges_per_second(), 0.0);
        assert_eq!(PipelineStats::default().edges_per_second(), 0.0);
    }

    #[test]
    fn interner_counters_populated() {
        let catalog = SdkIndex::paper();
        let ins = inputs(&catalog, TEN_BATCHES, 23, 0.0);
        let out = run_pipeline(&ins, &catalog, PipelineConfig { workers: 4 });
        assert_eq!(out.stats.workers.len(), 4);
        let c = &out.stats.interner;
        assert!(c.global_symbols > 0);
        assert_eq!(c.global_symbols, out.symbols.len());
        assert!(c.global_bytes > 0);
        // Every unique local string misses exactly once, and workers
        // re-discover shared strings, so local misses ≥ global symbols;
        // repeats (method names, shared packages) land as hits.
        assert!(c.local_misses >= c.global_symbols as u64);
        assert!(c.local_hits > 0);
        // Package labels are memoized per worker, so repeats hit the cache.
        assert!(c.label_hits > 0);
        assert!(c.label_hit_rate() > 0.0);
        // The serial tail was timed.
        assert!(out.stats.serial_tail_ns > 0);
        assert!(out.stats.serial_tail_ns <= out.stats.wall_ns);
        // The output's table is exactly the merged one.
        assert_eq!(out.symbols.bytes(), c.global_bytes);

        // The fold forgets its symbols after every batch: batches
        // re-discover what a worker's earlier batches interned, and what
        // each batch interns depends on no schedule.
        let (_, folded) = run_pipeline_tallied(&ins, &catalog, workers(4), 1);
        assert_eq!(folded.workers.len(), 4);
        let f = &folded.interner;
        assert!(f.local_misses >= c.local_misses);
        assert!(f.label_misses >= c.label_misses);
        let (_, serial) = run_pipeline_tallied(&ins, &catalog, workers(1), 1);
        assert_eq!(serial.interner, folded.interner);
        for stats in [&out.stats, &folded, &serial] {
            let items: usize = stats.workers.iter().map(|w| w.items).sum();
            assert_eq!(items, ins.len(), "items count apps, not batches");
        }
    }

    /// Keep deliberate test panics out of stderr while still letting any
    /// unexpected panic report normally. Process-global, so installed once.
    pub(crate) fn quiet_injected_panics() {
        use std::sync::Once;
        static ONCE: Once = Once::new();
        ONCE.call_once(|| {
            let previous = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let injected = info
                    .payload()
                    .downcast_ref::<&str>()
                    .map(|s| s.contains("injected"))
                    .or_else(|| {
                        info.payload()
                            .downcast_ref::<String>()
                            .map(|s| s.contains("injected"))
                    })
                    .unwrap_or(false);
                if !injected {
                    previous(info);
                }
            }));
        });
    }

    #[test]
    fn panicking_analysis_is_isolated() {
        quiet_injected_panics();
        let catalog = SdkIndex::paper();
        let ins = inputs(&catalog, TEN_BATCHES, 7, 0.0);
        let trap = ins.len() / 2;
        let trapped = |input: &GeneratedApp, ctx: &mut AnalysisCtx<'_>| {
            if std::ptr::eq(input, &ins[trap]) {
                panic!("injected analysis fault");
            }
            analyze_input(input, ctx)
        };
        let out = run_pipeline_with(&ins, &catalog, workers(4), trapped);
        assert_eq!(out.stats.workers.len(), 4);
        assert_eq!(out.results().len(), ins.len());
        assert_eq!(out.stats.panicked, 1);
        match out.results().nth(trap).unwrap() {
            Err(ApkError::AnalysisPanic { message }) => {
                assert!(message.contains("injected analysis fault"), "{message}");
            }
            other => panic!("expected AnalysisPanic, got {other:?}"),
        }
        assert_eq!(out.analyzed().count() + out.broken_count(), ins.len());
        assert_eq!(out.stats.failure_kinds.get("analysis-panic"), Some(&1));

        // The fold: the trapped app never reaches its worker's tally, so
        // it is counted once as broken, once as panicked and once under
        // `analysis-panic`, and every other app exactly as without it.
        let (clean, _) = run_pipeline_tallied(&ins, &catalog, workers(2), 1);
        let want = aggregate(&out, &catalog, 1);
        for n in [1, 2, 8] {
            let (results, stats) = tally_with(&ins, &catalog, workers(n), 1, trapped);
            assert_eq!(stats.workers.len(), n);
            assert_eq!(results, want, "{n} workers");
            assert_eq!(results.analyzed, clean.analyzed - 1, "{n} workers");
            assert_eq!(results.broken, clean.broken + 1, "{n} workers");
            assert_eq!(stats.total, ins.len());
            assert_eq!(stats.broken, results.broken);
            assert_eq!(stats.panicked, 1);
            assert_eq!(stats.failure_kinds, out.stats.failure_kinds);
        }
    }

    /// Every row the output's tables hold is one of its results, and
    /// every record they hold belongs to one of those rows: no record of
    /// an unfinished row was kept.
    pub(crate) fn assert_holds_only_its_rows(out: &PipelineOutput) {
        let rows: usize = out.tables.iter().map(ResultTable::len).sum();
        assert_eq!(rows, out.results().len());
        let records: usize = out.tables.iter().map(ResultTable::records).sum();
        let of_rows: usize = out
            .analyzed()
            .map(|a| a.webview_sites.len() + a.ct_sites.len() + a.custom_webview_classes.len())
            .sum();
        assert_eq!(records, of_rows);
    }

    /// Start a row in `ctx`'s table, write records into it, and panic
    /// before committing it: what a fault mid-analysis leaves behind.
    pub(crate) fn write_then_panic(ctx: &mut AnalysisCtx<'_>, message: &str) -> ! {
        let class = ctx.lexicon.intern("com/orphan/NeverCommitted");
        let mut row = ctx.results.row();
        row.push_webview(WebViewSiteSummary {
            method_idx: 0,
            caller_class: class,
            label: wla_sdk_index::LabelId::Unlabeled,
            in_deep_link_activity: false,
            argument: Some(class),
            origin: wla_callgraph::UrlOrigin::Resolved,
        });
        row.push_class(class);
        panic!("{message}");
    }

    /// An analysis that writes records and then panics leaves no orphan
    /// row: the output, and the fold's results, equal a fault-free run in
    /// which those apps fail as `analysis-panic`.
    #[test]
    fn a_panic_mid_write_leaves_no_orphan_rows() {
        quiet_injected_panics();
        let catalog = SdkIndex::paper();
        let ins = inputs(&catalog, TEN_BATCHES, 19, 0.1);
        let traps = [0, ins.len() / 2, ins.len() - 1];
        let message = "injected fault mid-write";
        let is_trap = |input: &GeneratedApp| traps.iter().any(|&t| std::ptr::eq(input, &ins[t]));
        let panicking = |input: &GeneratedApp, ctx: &mut AnalysisCtx<'_>| {
            if is_trap(input) {
                write_then_panic(ctx, message);
            }
            analyze_input(input, ctx)
        };
        let failing = |input: &GeneratedApp, ctx: &mut AnalysisCtx<'_>| {
            if is_trap(input) {
                return Err(panicked(message.to_owned()));
            }
            analyze_input(input, ctx)
        };
        for n in [1, 2, 8] {
            let out = run_pipeline_with(&ins, &catalog, workers(n), panicking);
            let want = run_pipeline_with(&ins, &catalog, workers(n), failing);
            assert_eq!(out.stats.workers.len(), n);
            assert_same_run(&out, &want);
            assert_eq!(out.stats.panicked, traps.len(), "{n} workers");
            for &t in &traps {
                assert_eq!(
                    out.results().nth(t),
                    Some(Err(&panicked(message.to_owned())))
                );
            }
            assert_holds_only_its_rows(&out);
            assert_eq!(out.stats.result_bytes, out.heap_bytes());

            let (folded, stats) = tally_with(&ins, &catalog, workers(n), 1, panicking);
            let (want_folded, want_stats) = tally_with(&ins, &catalog, workers(n), 1, failing);
            assert_eq!(stats.workers.len(), n);
            assert_eq!(folded, want_folded, "{n} workers");
            assert_eq!(folded, aggregate(&want, &catalog, 1), "{n} workers");
            assert_eq!(stats.failure_kinds, want_stats.failure_kinds);
            assert_eq!(stats.panicked, traps.len());
            assert_eq!(stats.result_bytes, 0, "a fold builds no output");
        }
    }

    /// An analysis that breaks the one-row contract of [`analyze_rows`]
    /// costs its own app alone, on the keep path and in the fold alike,
    /// and every other row stays in place: a row committed before an
    /// error gives way to the error, and an `Ok` that committed two rows,
    /// or none, or a row with a site labelled past the catalog, fails the
    /// app as `analysis-panic`.
    #[test]
    fn a_broken_row_contract_costs_only_its_app() {
        use crate::analyze::CtSiteSummary;
        let catalog = SdkIndex::paper();
        let ins = inputs(&catalog, TEN_BATCHES, 29, 0.0);
        let (twice, then_err, none) = (3, ins.len() / 2, ins.len() - 2);
        let (past, ct_past) = (ins.len() / 4, ins.len() / 3);
        let is = |input: &GeneratedApp, i: usize| std::ptr::eq(input, &ins[i]);
        let contract = "an analysis must commit exactly the one row it returns";
        let labels = "an analysis must label sites against its catalog";
        /// Commit a row with a CT site labelled just past the catalog,
        /// after a WebView site labelled far past it if `webview`.
        fn mislabel(meta: &AppMeta, ctx: &mut AnalysisCtx<'_>, webview: bool) -> usize {
            let class = ctx.lexicon.intern("com/past/Catalog");
            let past = ctx.catalog.sdks().len() as u16;
            let mut row = ctx.results.row();
            if webview {
                row.push_webview(WebViewSiteSummary {
                    method_idx: 0,
                    caller_class: class,
                    label: LabelId::Sdk(10_000),
                    in_deep_link_activity: false,
                    argument: None,
                    origin: wla_callgraph::UrlOrigin::Unknown,
                });
            }
            row.push_ct(CtSiteSummary {
                method: class,
                is_launch: true,
                caller_class: class,
                label: LabelId::Sdk(past),
                in_deep_link_activity: false,
                argument: None,
                origin: wla_callgraph::UrlOrigin::Unknown,
            });
            row.commit(meta.category, &meta.package, 0)
        }
        let sloppy = |input: &GeneratedApp, ctx: &mut AnalysisCtx<'_>| {
            if is(input, none) {
                return Ok(ctx.results.len());
            }
            if is(input, past) || is(input, ct_past) {
                return Ok(mislabel(input.meta(), ctx, is(input, past)));
            }
            let outcome = analyze_input(input, ctx);
            if is(input, twice) {
                return analyze_input(input, ctx);
            }
            if is(input, then_err) {
                return Err(ApkError::BadVarint);
            }
            outcome
        };
        let failing = |input: &GeneratedApp, ctx: &mut AnalysisCtx<'_>| {
            if is(input, then_err) {
                return Err(ApkError::BadVarint);
            }
            if is(input, twice) || is(input, none) {
                return Err(panicked(contract.to_owned()));
            }
            if is(input, past) || is(input, ct_past) {
                return Err(panicked(labels.to_owned()));
            }
            analyze_input(input, ctx)
        };
        for n in [1, 2, 8] {
            let out = run_pipeline_with(&ins, &catalog, workers(n), sloppy);
            let want = run_pipeline_with(&ins, &catalog, workers(n), failing);
            assert_eq!(out.stats.workers.len(), n);
            assert_same_run(&out, &want);
            assert_eq!(out.stats.panicked, 4, "{n} workers");
            assert_holds_only_its_rows(&out);
            let want_results = aggregate(&want, &catalog, 1);
            assert_eq!(aggregate(&out, &catalog, 1), want_results, "{n} workers");

            let (folded, stats) = tally_with(&ins, &catalog, workers(n), 1, sloppy);
            let (want_folded, want_stats) = tally_with(&ins, &catalog, workers(n), 1, failing);
            assert_eq!(stats.workers.len(), n);
            assert_eq!(folded, want_folded, "{n} workers");
            assert_eq!(folded, want_results, "{n} workers");
            assert_eq!(stats.failure_kinds, want_stats.failure_kinds, "{n} workers");
            assert_eq!(stats.panicked, want_stats.panicked, "{n} workers");
            assert_eq!(stats.analyzed + stats.broken, ins.len(), "{n} workers");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]
        #[test]
        fn stats_counters_sum_to_result_counts(
            seed in 0u64..1_000,
            workers in 1usize..9,
            corrupt in prop_oneof![Just(0.0f64), Just(0.2f64)],
        ) {
            let catalog = SdkIndex::paper();
            let ins = inputs(&catalog, TEN_BATCHES, seed, corrupt);
            let out = run_pipeline(
                &ins,
                &catalog,
                PipelineConfig { workers },
            );
            let s = &out.stats;
            prop_assert_eq!(s.total, out.results().len());
            prop_assert_eq!(s.analyzed, out.analyzed().count());
            prop_assert_eq!(s.broken, out.broken_count());
            prop_assert_eq!(s.analyzed + s.broken, s.total);
            prop_assert_eq!(s.panicked, 0);
            prop_assert_eq!(
                s.failure_kinds.values().sum::<usize>(),
                s.broken
            );
            prop_assert_eq!(
                s.workers.iter().map(|w| w.items).sum::<usize>(),
                s.total
            );
            prop_assert_eq!(s.workers.len(), workers);
            // Symbol-table invariants: the local tables cover the merged one.
            prop_assert!(s.interner.local_misses >= s.interner.global_symbols as u64);
            prop_assert_eq!(s.interner.global_symbols, out.symbols.len());
            prop_assert!(s.serial_tail_ns <= s.wall_ns);
            // Call-graph counters: one graph (and one traversal) per dex,
            // so graphs ≥ analyzed apps and every traversal either reused
            // or grew the worker's bitset.
            prop_assert!(s.callgraph.graphs >= s.analyzed as u64);
            prop_assert_eq!(
                s.callgraph.bitset_reuses + s.callgraph.bitset_grows,
                s.callgraph.graphs
            );
            // Every analyzed app decoded at least one dex.
            prop_assert!(s.decode.dexes >= s.analyzed as u64);
            if s.analyzed > 0 {
                // The provenance pass ran, under its own stage timer.
                prop_assert!(s.stage.dataflow_ns > 0);
                prop_assert!(s.callgraph.edges > 0);
                prop_assert!(s.callgraph.edges_traversed > 0);
                prop_assert!(s.callgraph.vtable_hit_rate() <= 1.0);
                // Constant propagation ran over every analyzed dex: every
                // method was classified, branchy ones built blocks, and
                // each block was visited at least once.
                prop_assert!(s.dataflow.methods > 0);
                prop_assert!(s.dataflow.linear_methods <= s.dataflow.methods);
                prop_assert!(s.dataflow.iterations >= s.dataflow.blocks);
                prop_assert!(s.dataflow.resolved_rate() <= 1.0);
            }
            if s.total > 0 {
                prop_assert!(s.wall_ns > 0);
                prop_assert!(s.apps_per_second() > 0.0);
            }
        }
    }
}
