//! Fault-isolated, instrumented parallel corpus runner.
//!
//! Static analysis is CPU-bound, so the runner is the workspace's one
//! claim pool ([`wla_pool::run`]) over app indices — scoped threads, no
//! async runtime, per the project's networking guides ("use threads for
//! CPU-bound work"). Three properties the paper's scale (146.8K apps,
//! Table 2) demands of it:
//!
//! - **Fault isolation.** Each per-app analysis runs under
//!   [`wla_pool::isolate`]; a panicking container becomes an
//!   [`ApkError::AnalysisPanic`] result feeding the broken-apps row
//!   instead of aborting the whole corpus run.
//! - **Contention-free output.** Each worker owns its [`AnalysisCtx`] and
//!   stage timers, and the pool hands results back in input order;
//!   nothing shares a mutex on the hot path.
//! - **Observability.** [`PipelineStats`] carries per-stage timers,
//!   per-worker counters, interner counters, throughput, and a failure
//!   taxonomy, surfaced through [`PipelineOutput::stats`] and rendered
//!   straight from that struct by `wla-core::stats`.
//!
//! Interned-IR lifecycle: each worker interns into a private
//! [`LocalInterner`] (no synchronization while
//! analyzing); the serial join tail (timed as
//! [`PipelineStats::serial_tail_ns`]) translates every symbol into one
//! fresh [`SymbolTable`] with [`wla_intern::merge_ordered`], which the
//! [`PipelineOutput`] owns. Its ids depend only on the input order — never
//! on worker count or scheduling — which keeps parallel and serial runs
//! bit-identical. The shard-streaming
//! runner in [`crate::stream`] shares the per-app step and the join.
//!
//! A caller that reads only the corpus aggregates skips all of that:
//! [`run_pipeline_tallied`] folds each app into its worker's [`Tally`] as
//! soon as it is analyzed and drops it, so no per-app result outlives its
//! claim, and the tail merges tallies instead of symbols. [`aggregate`]
//! reads no symbol, so the fold needs no symbol table.
//!
//! [`aggregate`]: crate::aggregate::aggregate

use crate::aggregate::{StudyResults, Tally};
use crate::analyze::{
    analyze_app_timed_with, AnalysisCtx, AppAnalysis, DecodeCounters, StageTimings,
};
use crate::dataflow::DataflowCounters;
use crate::stream::StreamCounters;
use bytes::Bytes;
use std::collections::BTreeMap;
use std::time::Instant;
use wla_apk::ApkError;
use wla_callgraph::CallGraphCounters;
use wla_corpus::playstore::AppMeta;
use wla_corpus::GeneratedApp;
use wla_intern::{merge_ordered, LocalInterner, SymbolTable};
use wla_sdk_index::SdkIndex;

pub use wla_pool::WorkerStats;

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
/// rest of the spec is ground truth the analysis must never see.
impl AppInput for GeneratedApp {
    fn meta(&self) -> &AppMeta {
        &self.spec.meta
    }

    fn bytes(&self) -> &[u8] {
        &self.bytes
    }
}

/// Pipeline configuration.
#[derive(Debug, Clone, Copy)]
pub struct PipelineConfig {
    /// Worker thread count (0 ⇒ available parallelism). Explicit counts
    /// are honoured, capped at the number of items.
    pub workers: usize,
    /// Resolve URL provenance with the constant-propagation pass
    /// (default). `false` ablates to the linear pending-string heuristic
    /// — the bench knob behind EXPERIMENTS.md's provenance table.
    pub use_dataflow: bool,
}

impl Default for PipelineConfig {
    fn default() -> PipelineConfig {
        PipelineConfig {
            workers: 0,
            use_dataflow: true,
        }
    }
}

impl PipelineConfig {
    /// A fresh pool worker whose context carries this run's analysis knobs.
    pub(crate) fn worker<'c>(&self, catalog: &'c SdkIndex) -> Worker<'c> {
        let mut ctx = AnalysisCtx::new(catalog);
        ctx.use_dataflow = self.use_dataflow;
        Worker {
            ctx,
            stage: StageTimings::default(),
        }
    }
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
    /// Distinct symbols summed over worker-local interners (≥ global:
    /// workers re-discover shared names independently).
    pub local_symbols: usize,
    /// Bytes summed over worker-local interners.
    pub local_bytes: usize,
    /// Worker-local intern calls that found the string already present.
    pub local_hits: u64,
    /// Worker-local intern calls that inserted a new string.
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
/// and the tally merge.
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
    /// The pool's per-worker counters, in spawn order.
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
    fn fold_worker(&mut self, Worker { ctx, stage }: Worker<'_>) -> LocalInterner {
        self.stage.accumulate(&stage);
        self.interner.local_symbols += ctx.lexicon.len();
        self.interner.local_bytes += ctx.lexicon.bytes();
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

/// Pipeline output: per-app results in input order, run statistics, and
/// the symbol table every surviving [`AppAnalysis`] resolves against.
#[derive(Debug)]
pub struct PipelineOutput {
    /// Per-app analysis or decode error, in input order. Symbols are
    /// global (already remapped).
    pub results: Vec<Result<AppAnalysis, ApkError>>,
    /// Observability counters for the run.
    pub stats: PipelineStats,
    /// The merged symbol table — the report boundary's only way to turn a
    /// [`wla_intern::Symbol`] back into text.
    pub symbols: SymbolTable,
}

impl PipelineOutput {
    /// Successfully analyzed apps.
    pub fn analyzed(&self) -> impl Iterator<Item = &AppAnalysis> {
        self.results.iter().filter_map(|r| r.as_ref().ok())
    }

    /// Number of successfully analyzed apps.
    pub fn analyzed_count(&self) -> usize {
        self.analyzed().count()
    }

    /// Number of broken containers (Table 2's 242).
    pub fn broken_count(&self) -> usize {
        self.results.iter().filter(|r| r.is_err()).count()
    }
}

/// One pool worker's state: its analysis context plus the stage timers
/// summed over the apps it analyzed.
pub(crate) struct Worker<'c> {
    pub(crate) ctx: AnalysisCtx<'c>,
    pub(crate) stage: StageTimings,
}

impl<'c> Worker<'c> {
    /// The per-app step every runner shares: run `analyze` on this
    /// worker's context and sum its stage timers. Callers run it under
    /// [`wla_pool::isolate`] — the in-memory runners through the pool, the
    /// streamed runner once per shard entry — and turn a panic into
    /// [`panicked`].
    pub(crate) fn analyze(
        &mut self,
        analyze: impl FnOnce(&mut AnalysisCtx<'c>) -> (Result<AppAnalysis, ApkError>, StageTimings),
    ) -> Result<AppAnalysis, ApkError> {
        let (result, timings) = analyze(&mut self.ctx);
        self.stage.accumulate(&timings);
        result
    }
}

/// A panic's text as the per-app error Table 2's broken row counts.
pub(crate) fn panicked<T>(message: String) -> Result<T, ApkError> {
    Err(ApkError::AnalysisPanic { message })
}

/// The per-app analysis both in-memory runners run by default.
fn analyze_input<I: AppInput>(
    input: &I,
    ctx: &mut AnalysisCtx<'_>,
) -> (Result<AppAnalysis, ApkError>, StageTimings) {
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
/// Each worker folds an app into its own [`Tally`] once the analysis
/// returns, then drops it; the tail merges the tallies. A panicking
/// analysis never reaches the fold, so it costs only its own app, counted
/// as broken. No symbol table is merged (see [`PipelineStats`]).
pub fn run_pipeline_tallied<I: AppInput>(
    inputs: &[I],
    catalog: &SdkIndex,
    config: PipelineConfig,
    top_sdk_threshold: usize,
) -> (StudyResults, PipelineStats) {
    tally_with(inputs, catalog, config, top_sdk_threshold, analyze_input)
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
    F: Fn(&I, &mut AnalysisCtx<'_>) -> (Result<AppAnalysis, ApkError>, StageTimings) + Sync,
{
    let started = Instant::now();
    // Each worker keeps its tally and its apps' errors; an item hands
    // back nothing, so the pool's per-item results stay at their smallest.
    let pool = wla_pool::run(
        inputs.len(),
        config.workers,
        || (config.worker(catalog), Tally::new(catalog), Vec::new()),
        |(worker, tally, failed), i| match worker.analyze(|ctx| analyze(&inputs[i], ctx)) {
            Ok(analysis) => tally.add(&analysis),
            Err(e) => failed.push(e),
        },
    );
    // The serial tail: fold the workers' counters and tallies, then count
    // every failure, a panicked analysis included.
    let tail_started = Instant::now();
    let mut stats = PipelineStats::new(inputs.len(), pool.workers);
    let mut tally = Tally::new(catalog);
    let mut failures = Vec::new();
    for (worker, worker_tally, failed) in pool.contexts {
        stats.fold_worker(worker);
        tally.merge(&worker_tally);
        failures.extend(failed);
    }
    let panics = pool
        .results
        .into_iter()
        .filter_map(|(_, outcome)| outcome.or_else(panicked).err());
    for e in failures.into_iter().chain(panics) {
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
/// use this to inject deliberately panicking analyses; ablation benches
/// use it to isolate scheduler overhead from analysis cost. The analysis
/// function receives the worker's [`AnalysisCtx`] and must intern every
/// symbol its result carries into `ctx.lexicon`.
pub fn run_pipeline_with<I, F>(
    inputs: &[I],
    catalog: &SdkIndex,
    config: PipelineConfig,
    analyze: F,
) -> PipelineOutput
where
    I: AppInput,
    F: Fn(&I, &mut AnalysisCtx<'_>) -> (Result<AppAnalysis, ApkError>, StageTimings) + Sync,
{
    let started = Instant::now();
    let pool = wla_pool::run(
        inputs.len(),
        config.workers,
        || config.worker(catalog),
        |worker, i| worker.analyze(|ctx| analyze(&inputs[i], ctx)),
    );
    let results = pool
        .results
        .into_iter()
        .map(|(w, result)| (w, result.unwrap_or_else(panicked)))
        .collect();
    join(results, pool.contexts, pool.workers, started)
}

/// The serial join tail both runners share: fold the per-worker counters,
/// count failures, and translate worker-local symbols into one global
/// table. `results` holds `(worker, result)` pairs in input order.
pub(crate) fn join(
    results: Vec<(usize, Result<AppAnalysis, ApkError>)>,
    workers: Vec<Worker<'_>>,
    worker_stats: Vec<WorkerStats>,
    started: Instant,
) -> PipelineOutput {
    // Everything from here to return runs on one thread after the pool
    // joins — the serial tail `stats.serial_tail_ns` exposes.
    let tail_started = Instant::now();
    let mut stats = PipelineStats::new(results.len(), worker_stats);
    for (_, result) in &results {
        if let Err(e) = result {
            stats.count_failure(e);
        }
    }
    let lexicons: Vec<LocalInterner> = workers
        .into_iter()
        .map(|worker| stats.fold_worker(worker))
        .collect();
    let (results, symbols) = merge_ordered(results, &lexicons, |result, f| {
        if let Ok(analysis) = result {
            analysis.remap_symbols(f);
        }
    });
    stats.interner.global_symbols = symbols.len();
    stats.interner.global_bytes = symbols.bytes();
    stats.serial_tail_ns = tail_started.elapsed().as_nanos() as u64;
    stats.wall_ns = started.elapsed().as_nanos() as u64;
    PipelineOutput {
        results,
        stats,
        symbols,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::aggregate;
    use proptest::prelude::*;
    use wla_corpus::{CorpusConfig, EcosystemParams, Generator};
    use wla_sdk_index::SdkCategory;

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
        PipelineConfig {
            workers,
            ..PipelineConfig::default()
        }
    }

    /// Bit-identity of two runs: every result (global symbol ids
    /// included), the failure taxonomy, and the global tables
    /// symbol-for-symbol — the table holds exactly the symbols the
    /// results carry, so resolving each of them covers it.
    fn assert_same_run(a: &PipelineOutput, b: &PipelineOutput) {
        assert_eq!(a.results.len(), b.results.len());
        for (x, y) in a.results.iter().zip(&b.results) {
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
            analysis.clone().remap_symbols(|s| {
                assert_eq!(sa.resolve(s), sb.resolve(s));
                s
            });
        }
    }

    #[test]
    fn parallel_matches_serial() {
        let catalog = SdkIndex::paper();
        let apps = inputs(&catalog, 2_000, 11, 0.1);
        // The input-order remap makes global symbol ids — and therefore
        // whole analyses — bit-identical across worker counts.
        let par = run_pipeline(&apps, &catalog, workers(8));
        let ser = run_pipeline(&apps, &catalog, workers(1));
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
        let ins = inputs(&catalog, 2_000, 3, 0.25);
        let out = run_pipeline(&ins, &catalog, PipelineConfig::default());
        assert_eq!(out.results.len(), ins.len());
        assert!(out.broken_count() > 0);
        assert_eq!(out.analyzed_count() + out.broken_count(), ins.len());
        assert_fold_matches_materialized(&ins, &catalog);
    }

    #[test]
    fn fold_matches_materialized_on_a_ct_migration_corpus() {
        // `wla whatif`'s input: the ecosystem after every migration it
        // simulates, which moves WebView adoption to Custom Tabs.
        use SdkCategory::{Advertising, Authentication, Payments, Social};
        let catalog = SdkIndex::paper();
        let cfg = CorpusConfig {
            scale: 1_500,
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
        assert_eq!(out.results.len(), 0);
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
        let ins = inputs(&catalog, 2_000, 23, 0.0);
        let out = run_pipeline(
            &ins,
            &catalog,
            PipelineConfig {
                workers: 4,
                ..PipelineConfig::default()
            },
        );
        let c = &out.stats.interner;
        assert!(c.global_symbols > 0);
        assert_eq!(c.global_symbols, out.symbols.len());
        assert!(c.global_bytes > 0);
        // Workers re-discover shared strings, so local ≥ global.
        assert!(c.local_symbols >= c.global_symbols);
        assert!(c.local_bytes >= c.global_bytes);
        // Every unique local string misses exactly once; repeats (method
        // names, shared packages) land as hits.
        assert_eq!(c.local_misses, c.local_symbols as u64);
        assert!(c.local_hits > 0);
        // Package labels are memoized per worker, so repeats hit the cache.
        assert!(c.label_hits > 0);
        assert!(c.label_hit_rate() > 0.0);
        // The serial tail was timed.
        assert!(out.stats.serial_tail_ns > 0);
        assert!(out.stats.serial_tail_ns <= out.stats.wall_ns);
        // The output's table is exactly the merged one.
        assert_eq!(out.symbols.bytes(), c.global_bytes);
    }

    /// Keep deliberate test panics out of stderr while still letting any
    /// unexpected panic report normally. Process-global, so installed once.
    fn quiet_injected_panics() {
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
        let ins = inputs(&catalog, 2_000, 7, 0.0);
        let trap = ins.len() / 2;
        let trapped = |input: &GeneratedApp, ctx: &mut AnalysisCtx<'_>| {
            if std::ptr::eq(input, &ins[trap]) {
                panic!("injected analysis fault");
            }
            analyze_input(input, ctx)
        };
        let out = run_pipeline_with(&ins, &catalog, workers(4), trapped);
        assert_eq!(out.results.len(), ins.len());
        assert_eq!(out.stats.panicked, 1);
        match &out.results[trap] {
            Err(ApkError::AnalysisPanic { message }) => {
                assert!(message.contains("injected analysis fault"), "{message}");
            }
            other => panic!("expected AnalysisPanic, got {other:?}"),
        }
        assert_eq!(out.analyzed_count() + out.broken_count(), ins.len());
        assert_eq!(out.stats.failure_kinds.get("analysis-panic"), Some(&1));

        // The fold: the trapped app never reaches its worker's tally, so
        // it is counted once as broken, once as panicked and once under
        // `analysis-panic`, and every other app exactly as without it.
        let (clean, _) = run_pipeline_tallied(&ins, &catalog, workers(2), 1);
        let want = aggregate(&out, &catalog, 1);
        for n in [1, 2, 8] {
            let (results, stats) = tally_with(&ins, &catalog, workers(n), 1, trapped);
            assert_eq!(results, want, "{n} workers");
            assert_eq!(results.analyzed, clean.analyzed - 1, "{n} workers");
            assert_eq!(results.broken, clean.broken + 1, "{n} workers");
            assert_eq!(stats.total, ins.len());
            assert_eq!(stats.broken, results.broken);
            assert_eq!(stats.panicked, 1);
            assert_eq!(stats.failure_kinds, out.stats.failure_kinds);
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
            let ins = inputs(&catalog, 4_000, seed, corrupt);
            let out = run_pipeline(
                &ins,
                &catalog,
                PipelineConfig {
                    workers,
                    ..PipelineConfig::default()
                },
            );
            let s = &out.stats;
            prop_assert_eq!(s.total, out.results.len());
            prop_assert_eq!(s.analyzed, out.analyzed_count());
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
            prop_assert!(s.workers.len() <= workers);
            // Symbol-table invariants: the local tables cover the merged one.
            prop_assert!(s.interner.local_symbols >= s.interner.global_symbols);
            prop_assert_eq!(s.interner.global_symbols, out.symbols.len());
            prop_assert_eq!(
                s.interner.local_misses,
                s.interner.local_symbols as u64
            );
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
