//! Per-app static analysis: container → decoded artifacts → decompiled
//! subclass map → call graph → recorded, deep-link-filtered call sites.
//!
//! Everything downstream of decoding speaks the interned IR: site
//! summaries carry [`Symbol`] handles resolved against the worker's
//! [`LocalInterner`], and package labels are baked in at record time. A
//! site stores its caller class and that label, not the package: a reader
//! that prints the package derives it from the class. Results go straight
//! into the worker's [`ResultTable`]: the
//! app's WebView-site, Custom-Tabs-site and custom-class records, then
//! one fixed-size row (Play category, record ends, package text,
//! unreachable-site count) committed when the app is done. A failed
//! decode commits nothing; the caller records the error. Readers see an
//! app as an [`AppView`] of slices into the table.
//!
//! The worker's [`AnalysisCtx`] is the one piece of state an analysis
//! reads and writes besides its input: lexicon, label memo, result table,
//! counters, and the [`StageTimings`] each stage adds its wall time to.

use crate::dataflow::{self, DataflowCounters};
use crate::table::ResultTable;
use bytes::Bytes;
use std::collections::HashSet;
use std::time::Instant;
use wla_apk::names::{WEBVIEW_CONTENT_METHODS, WEBVIEW_LOAD_METHOD_MASK};
use wla_apk::{ApkError, Dex, Sapk};
use wla_callgraph::{
    entry_points, record_web_calls_with, CallGraph, CallGraphCounters, ReachScratch, UrlOrigin,
    WebCallRecord,
};
use wla_corpus::playstore::{AppMeta, PlayCategory};
use wla_decompile::webview_subclasses_dex_interned;
use wla_intern::{LocalInterner, Symbol};
use wla_manifest::{wireformat, Manifest};
use wla_sdk_index::{LabelCache, LabelId, SdkIndex};

/// Wall-clock nanoseconds spent in each per-app analysis stage.
///
/// Stage boundaries follow Figure 1: container/dex *decode*, *decompile*
/// (source lifting + WebView-subclass closure), *callgraph* (build,
/// entry points, traversal + recording), *dataflow* (URL-argument
/// provenance over each graph's call sites), and *label* (summary
/// building, package extraction, deep-link exclusion). Summed over a
/// worker's apps in [`AnalysisCtx::stage`]; a failed decode adds to
/// `decode_ns` alone, since the later stages never ran.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimings {
    /// Container + dex decoding.
    pub decode_ns: u64,
    /// `extends WebView` closure over the dex class tables (the stage the
    /// paper spends on JADX decompilation; the lifted-source oracle lives
    /// in `wla-oracle`).
    pub decompile_ns: u64,
    /// Call-graph construction, entry points, traversal, recording.
    pub callgraph_ns: u64,
    /// URL-argument provenance annotation of each graph's call sites.
    pub dataflow_ns: u64,
    /// Summary construction: package labels, deep-link filtering.
    pub label_ns: u64,
}

impl StageTimings {
    /// Total time across all stages.
    pub fn total_ns(&self) -> u64 {
        self.decode_ns + self.decompile_ns + self.callgraph_ns + self.dataflow_ns + self.label_ns
    }

    /// Add another worker's timings to this one.
    pub fn accumulate(&mut self, other: &StageTimings) {
        self.decode_ns += other.decode_ns;
        self.decompile_ns += other.decompile_ns;
        self.callgraph_ns += other.callgraph_ns;
        self.dataflow_ns += other.dataflow_ns;
        self.label_ns += other.label_ns;
    }
}

/// Dex-decode observability, summed across a worker's apps and merged
/// into [`PipelineStats`](crate::PipelineStats) at join time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecodeCounters {
    /// Dex sections decoded (every one fully validated).
    pub dexes: u64,
}

impl DecodeCounters {
    /// Accumulate another worker's counters into this one.
    pub fn merge(&mut self, other: &DecodeCounters) {
        self.dexes += other.dexes;
    }
}

/// Per-worker analysis state threaded through [`analyze_app_timed_with`]:
/// the shared catalog plus the worker-local string lexicon, package-label
/// memo, result table and stage timers. It is all a pool worker of the
/// static runners holds: one context serves many apps, and when the
/// pipeline joins, its table stays where it is, its counters fold into the
/// run's stats and its lexicon is merged into the run's symbol table. It
/// holds no setting: every runner builds it with [`AnalysisCtx::new`], and
/// every analysis resolves URL provenance with the one [`dataflow`] pass.
#[derive(Debug)]
pub struct AnalysisCtx<'c> {
    /// SDK catalog used for record-time package labeling.
    pub catalog: &'c SdkIndex,
    /// Worker-local interner; every symbol in this worker's analyses
    /// resolves against it.
    pub lexicon: LocalInterner,
    /// Package-label memo shared across this worker's apps.
    pub labels: LabelCache,
    /// Reusable reachability scratch (bitset + worklist), cleared — not
    /// reallocated — between apps.
    pub reach: ReachScratch,
    /// Call-graph build counters (vtable hits/misses, edges, dedup)
    /// accumulated across this worker's apps; traversal counters stay on
    /// `reach` until [`AnalysisCtx::callgraph_counters`] folds them in.
    pub graph_counters: CallGraphCounters,
    /// Constant-propagation counters (blocks, fixpoint iterations,
    /// resolved/unknown/conflict sites) accumulated across this worker's
    /// apps.
    pub dataflow: DataflowCounters,
    /// Decode counters accumulated across this worker's apps.
    pub decode: DecodeCounters,
    /// Every result this worker's analyses committed; symbols resolve
    /// against `lexicon`.
    pub results: ResultTable,
    /// Per-stage wall-clock time summed over this worker's apps, a failed
    /// app's decode time included.
    pub stage: StageTimings,
}

impl<'c> AnalysisCtx<'c> {
    /// Fresh context over `catalog`.
    pub fn new(catalog: &'c SdkIndex) -> Self {
        AnalysisCtx {
            catalog,
            lexicon: LocalInterner::new(),
            labels: LabelCache::new(),
            reach: ReachScratch::new(),
            graph_counters: CallGraphCounters::default(),
            dataflow: DataflowCounters::default(),
            decode: DecodeCounters::default(),
            results: ResultTable::new(),
            stage: StageTimings::default(),
        }
    }

    /// Complete counter snapshot: build counters plus the scratch's
    /// traversal counters. Call once per worker when its shard is done.
    pub fn callgraph_counters(&self) -> CallGraphCounters {
        let mut c = self.graph_counters;
        c.absorb_scratch(&self.reach);
        c
    }
}

/// One reachable WebView content-method call, summarized for aggregation:
/// 16 bytes. Names are symbols in the producing [`AnalysisCtx`]'s lexicon
/// (or the run's symbol table after the join). The method is its index
/// alone: its name and whether it loads content both follow from it. The
/// caller package follows from the caller class
/// ([`package_of_into`](wla_apk::names::package_of_into)), so only its label is
/// stored; a reader that prints the package derives it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WebViewSiteSummary {
    /// Position of the method in
    /// [`WEBVIEW_CONTENT_METHODS`];
    /// Table 7 accounting indexes by this.
    pub method_idx: u8,
    /// Binary name of the calling class.
    pub caller_class: Symbol,
    /// Catalog label of the calling class's package, fixed at record time
    /// (`Unlabeled` for the default package).
    pub label: LabelId,
    /// The call sits inside a deep-link (first-party) activity and is
    /// excluded from third-party accounting.
    pub in_deep_link_activity: bool,
    /// URL argument of the call, when constant propagation resolved it to
    /// a single string constant.
    pub argument: Option<Symbol>,
    /// How the URL argument resolved (constant / unknown / conflicting).
    pub origin: UrlOrigin,
}

impl WebViewSiteSummary {
    /// Method name (`loadUrl`, …).
    pub fn method(&self) -> &'static str {
        WEBVIEW_CONTENT_METHODS[self.method_idx as usize]
    }

    /// Whether this is one of the three *content-populating* load methods
    /// whose caller package the paper labels (§3.1.4).
    pub fn is_load_method(&self) -> bool {
        WEBVIEW_LOAD_METHOD_MASK & (1 << self.method_idx) != 0
    }
}

/// One reachable Custom-Tabs interaction: 20 bytes. Like a WebView site,
/// it stores its caller package's label, not the package.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CtSiteSummary {
    /// `launchUrl`, `build`, or `<init>`.
    pub method: Symbol,
    /// Whether this is the content-populating `launchUrl`.
    pub is_launch: bool,
    /// Binary name of the calling class.
    pub caller_class: Symbol,
    /// Catalog label of the calling class's package, fixed at record time
    /// (`Unlabeled` for the default package).
    pub label: LabelId,
    /// Deep-link exclusion flag (parallel to WebView sites).
    pub in_deep_link_activity: bool,
    /// URL argument for `launchUrl` sites, when provenance resolved it.
    pub argument: Option<Symbol>,
    /// How the URL argument resolved (constant / unknown / conflicting).
    pub origin: UrlOrigin,
}

/// The full static-analysis result for one app: a view into the
/// [`ResultTable`] row that holds it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppView<'a> {
    /// Play category, the one piece of the app's Play metadata that
    /// per-category aggregation reads.
    pub category: PlayCategory,
    /// Manifest package name.
    pub package: &'a str,
    /// Reachable WebView call sites (deep-link ones included but flagged).
    pub webview_sites: &'a [WebViewSiteSummary],
    /// Reachable CT call sites.
    pub ct_sites: &'a [CtSiteSummary],
    /// `extends WebView` classes found by decompilation, sorted by
    /// resolved binary name.
    pub custom_webview_classes: &'a [Symbol],
    /// Unreachable WebView call sites that were discarded (kept as a count
    /// for the traversal ablation).
    pub unreachable_webview_sites: usize,
}

impl<'a> AppView<'a> {
    /// Third-party WebView sites (reachable, outside deep-link activities).
    pub fn third_party_webview(self) -> impl Iterator<Item = &'a WebViewSiteSummary> {
        self.webview_sites
            .iter()
            .filter(|s| !s.in_deep_link_activity)
    }

    /// Third-party CT sites.
    pub fn third_party_ct(self) -> impl Iterator<Item = &'a CtSiteSummary> {
        self.ct_sites.iter().filter(|s| !s.in_deep_link_activity)
    }

    /// Does the app use WebViews for third-party-capable content?
    pub fn uses_webview(self) -> bool {
        self.third_party_webview().next().is_some()
    }

    /// Does the app use Custom Tabs?
    pub fn uses_custom_tabs(self) -> bool {
        self.third_party_ct().next().is_some()
    }

    /// Bitmask over `WEBVIEW_CONTENT_METHODS` of distinct methods called
    /// (third-party sites only) — bit `i` set iff method `i` is used.
    pub fn method_mask(self) -> u8 {
        self.third_party_webview()
            .fold(0u8, |m, s| m | (1 << s.method_idx))
    }

    /// Distinct method names called (third-party sites only), recovered
    /// from the mask — no symbol resolution involved.
    pub fn methods_used(self) -> HashSet<&'static str> {
        let mask = self.method_mask();
        WEBVIEW_CONTENT_METHODS
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, m)| *m)
            .collect()
    }

    /// Every symbol the app's records carry, in the order the join ranks
    /// them.
    #[cfg(test)]
    pub(crate) fn symbols(self) -> Vec<Symbol> {
        let mut out = Vec::new();
        for s in self.webview_sites {
            out.push(s.caller_class);
            out.extend(s.argument);
        }
        for s in self.ct_sites {
            out.extend([s.method, s.caller_class]);
            out.extend(s.argument);
        }
        out.extend(self.custom_webview_classes);
        out
    }
}

/// The per-app pipeline against a reusable worker context. On success the
/// app's row is committed to `ctx.results` and its row number returned; on
/// failure nothing is committed. Either way the app's per-stage wall-clock
/// times are added to `ctx.stage`: a broken container still spends (and
/// reports) its decode time, which is what the pipeline's
/// failure-taxonomy throughput accounting wants.
///
/// Multi-dex containers are handled the way the paper's tooling handles
/// `classes2.dex`: every dex section is decoded (one broken dex makes the
/// whole app unanalyzable), decompiled sources are pooled for the
/// WebView-subclass closure, and call graphs are built and traversed per
/// dex with the records merged. Cross-dex calls resolve as framework
/// (external) targets — sound for reachability *within* each dex, and the
/// generator keeps behavioural chains dex-local, as R8's main-dex rules do
/// for entry-point code in practice.
///
/// `meta` is borrowed: the analysis keeps only its Play category. `bytes`
/// is shared, never copied: the container decode and every dex
/// string span alias it, whether it is a window into a corpus shard's
/// buffer, an HTTP request body, or a container the in-memory runner
/// copied once.
pub fn analyze_app_timed_with(
    meta: &AppMeta,
    bytes: Bytes,
    ctx: &mut AnalysisCtx<'_>,
) -> Result<usize, ApkError> {
    let started = Instant::now();
    let decoded = Sapk::decode_bytes(bytes).and_then(|apk| decode_rest(apk, ctx));
    ctx.stage.decode_ns += started.elapsed().as_nanos() as u64;
    let (manifest, dexes) = decoded?;
    Ok(finish_analysis(meta.category, manifest, dexes, ctx))
}

/// Stages (3)–(5) plus the app's row in `ctx.results`; returns its number.
fn finish_analysis(
    category: PlayCategory,
    manifest: Manifest,
    dexes: Vec<Dex>,
    ctx: &mut AnalysisCtx<'_>,
) -> usize {
    // (3) custom WebView classes across all dexes. The closure runs
    // directly on the pooled dex superclass links; the paper-faithful
    // lift-to-Java + re-parse route (`webview_subclasses_interned`) is the
    // oracle it is equivalence-pinned against — see `wla-oracle`.
    let started = Instant::now();
    let subclasses = webview_subclasses_dex_interned(&dexes, &mut ctx.lexicon);
    ctx.stage.decompile_ns += started.elapsed().as_nanos() as u64;

    // (4) call graph; (5) traversal + recording — per dex. Recording
    // interns every retained name and labels caller packages in one pass.
    // Annotation gets its own timer; the call-graph stage is the rest of
    // the loop, so the stages still sum to the per-app wall time.
    let started = Instant::now();
    let mut dataflow_ns = 0u64;
    let records: Vec<WebCallRecord> = dexes
        .iter()
        .map(|dex| {
            let mut graph = CallGraph::build(dex);
            ctx.graph_counters
                .absorb_build(&graph.build_stats(), graph.edge_count());
            // URL-argument provenance rides on the site stream before
            // recording.
            let annotate = Instant::now();
            dataflow::annotate(dex, graph.sites_mut(), &mut ctx.dataflow);
            dataflow_ns += annotate.elapsed().as_nanos() as u64;
            let roots = entry_points(&graph, &manifest);
            record_web_calls_with(
                &graph,
                &roots,
                &subclasses,
                ctx.catalog,
                &mut ctx.lexicon,
                &mut ctx.labels,
                &mut ctx.reach,
            )
        })
        .collect();
    ctx.stage.dataflow_ns += dataflow_ns;
    ctx.stage.callgraph_ns += (started.elapsed().as_nanos() as u64).saturating_sub(dataflow_ns);

    // §3.1.3–3.1.4: deep-link exclusion. Non-inserting lookups: a
    // deep-link class no site referenced was never interned and can't
    // match anything.
    let started = Instant::now();
    let deep_link_classes: HashSet<Symbol> = manifest
        .deep_link_activities()
        .iter()
        .filter_map(|c| ctx.lexicon.get(&c.class_name))
        .collect();

    let mut row = ctx.results.row();
    let mut unreachable_webview_sites = 0usize;
    for record in &records {
        unreachable_webview_sites += record.webview.iter().filter(|s| !s.reachable).count();
        for s in record.webview.iter().filter(|s| s.reachable) {
            row.push_webview(WebViewSiteSummary {
                method_idx: s.method_idx,
                caller_class: s.caller_class,
                label: s.label,
                in_deep_link_activity: deep_link_classes.contains(&s.caller_class),
                argument: s.argument,
                origin: s.origin,
            });
        }
        for s in record.custom_tabs.iter().filter(|s| s.reachable) {
            row.push_ct(CtSiteSummary {
                method: s.method,
                is_launch: s.is_launch,
                caller_class: s.caller_class,
                label: s.label,
                in_deep_link_activity: deep_link_classes.contains(&s.caller_class),
                argument: s.argument,
                origin: s.origin,
            });
        }
    }

    for class in subclasses {
        row.push_class(class);
    }
    row.classes_mut()
        .sort_by(|a, b| ctx.lexicon.resolve(*a).cmp(ctx.lexicon.resolve(*b)));
    let row = row.commit(category, &manifest.package, unreachable_webview_sites);
    ctx.stage.label_ns += started.elapsed().as_nanos() as u64;
    row
}

/// Manifest + dex decoding over an already-decoded container. Dex decoding
/// is zero-copy: each section's `Bytes` handle is shared with the dex's
/// span table, so no string data is copied out of the container buffer.
/// Every decode is tallied into [`AnalysisCtx::decode`].
fn decode_rest(apk: Sapk, ctx: &mut AnalysisCtx<'_>) -> Result<(Manifest, Vec<Dex>), ApkError> {
    let manifest: Manifest = wireformat::decode(apk.manifest_bytes()?)?;
    let mut dexes: Vec<Dex> = Vec::new();
    for s in apk
        .sections()
        .iter()
        .filter(|s| s.tag == wla_apk::SectionTag::Dex)
    {
        dexes.push(Dex::decode_bytes(s.data.clone())?);
        ctx.decode.dexes += 1;
    }
    if dexes.is_empty() {
        return Err(ApkError::MissingSection("dex"));
    }
    Ok((manifest, dexes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use wla_apk::names::package_of_into;
    use wla_corpus::ecosystem::{Ecosystem, MethodSet, METHODS};
    use wla_corpus::lowering::lower;
    use wla_corpus::playstore::PlayCategory;
    use wla_corpus::EcosystemParams;

    /// One app through the pipeline with a fresh context over the paper
    /// catalog: its one-row table.
    pub(super) fn analyze_app(meta: &AppMeta, bytes: &[u8]) -> Result<ResultTable, ApkError> {
        let catalog = SdkIndex::paper();
        let mut ctx = AnalysisCtx::new(&catalog);
        analyze_app_timed_with(meta, Bytes::copy_from_slice(bytes), &mut ctx)?;
        Ok(ctx.results)
    }

    /// The method names of a ground-truth census.
    pub(super) fn census_names(census: MethodSet) -> HashSet<&'static str> {
        let names = METHODS.iter().enumerate();
        names
            .filter(|&(i, _)| census.contains(i))
            .map(|(_, &m)| m)
            .collect()
    }

    fn meta() -> AppMeta {
        AppMeta {
            package: "com.testapp.example".into(),
            on_play_store: true,
            downloads: 1_000_000,
            category: PlayCategory::Tools,
            last_update_day: 800,
        }
    }

    fn sample_spec(seed: u64) -> (SdkIndex, wla_corpus::AppSpec) {
        let catalog = SdkIndex::paper();
        let eco = Ecosystem::new(&catalog, EcosystemParams::default());
        let mut rng = StdRng::seed_from_u64(seed);
        let spec = eco.sample_app(&mut rng, meta());
        (catalog, spec)
    }

    #[test]
    fn recovers_ground_truth_per_app() {
        // Over a batch of sampled apps, the pipeline's webview/ct verdicts
        // must exactly match the planted ground truth.
        for seed in 0..60 {
            let (catalog, spec) = sample_spec(seed);
            let mut rng = StdRng::seed_from_u64(seed);
            let bytes = lower(&spec, &catalog, &mut rng).encode();
            let table = analyze_app(&meta(), &bytes).expect("analyzes");
            let analysis = table.get(0).unwrap();
            assert_eq!(
                analysis.uses_webview(),
                spec.uses_webview(),
                "webview mismatch at seed {seed}"
            );
            assert_eq!(
                analysis.uses_custom_tabs(),
                spec.uses_custom_tabs(),
                "ct mismatch at seed {seed}"
            );
        }
    }

    #[test]
    fn method_census_matches_ground_truth() {
        for seed in 0..40 {
            let (catalog, spec) = sample_spec(seed);
            let mut rng = StdRng::seed_from_u64(seed);
            let bytes = lower(&spec, &catalog, &mut rng).encode();
            let table = analyze_app(&meta(), &bytes).unwrap();
            let analysis = table.get(0).unwrap();
            let truth = census_names(spec.method_census());
            let measured = analysis.methods_used();
            assert_eq!(measured, truth, "seed {seed}");
        }
    }

    #[test]
    fn url_arguments_resolve_despite_register_shuffling() {
        // The lowering interleaves decoy constants, moves, nops, and
        // branch diamonds around every URL call; the dataflow pass must
        // still pin each one to its single constant.
        let mut sites_seen = 0usize;
        for seed in 0..20 {
            let (catalog, spec) = sample_spec(seed);
            let mut rng = StdRng::seed_from_u64(seed);
            let bytes = Bytes::from(lower(&spec, &catalog, &mut rng).encode());
            let mut ctx = AnalysisCtx::new(&catalog);
            let row = analyze_app_timed_with(&meta(), bytes, &mut ctx).unwrap();
            let analysis = ctx.results.get(row).unwrap();
            for s in analysis.webview_sites.iter().filter(|s| s.is_load_method()) {
                assert_eq!(s.origin, UrlOrigin::Resolved, "seed {seed}");
                let arg = ctx.lexicon.resolve(s.argument.expect("resolved argument"));
                assert!(!arg.is_empty(), "seed {seed}");
                sites_seen += 1;
            }
            for s in analysis.ct_sites.iter().filter(|s| s.is_launch) {
                assert_eq!(s.origin, UrlOrigin::Resolved, "seed {seed}");
                assert!(s.argument.is_some());
                sites_seen += 1;
            }
            assert!(ctx.dataflow.methods > 0);
            assert!(ctx.dataflow.iterations >= ctx.dataflow.blocks);
        }
        assert!(sites_seen > 0, "corpus sample must contain URL sites");
    }

    #[test]
    fn dead_code_not_counted() {
        let (catalog, mut spec) = sample_spec(1);
        spec.sdks.clear();
        spec.direct_wv_methods = MethodSet::EMPTY;
        spec.direct_wv_subclass = false;
        spec.direct_ct = false;
        spec.deep_link = None;
        spec.dead_code_webview = true;
        let mut rng = StdRng::seed_from_u64(1);
        let bytes = lower(&spec, &catalog, &mut rng).encode();
        let table = analyze_app(&meta(), &bytes).unwrap();
        let analysis = table.get(0).unwrap();
        assert!(!analysis.uses_webview());
        assert_eq!(analysis.unreachable_webview_sites, 1);
    }

    #[test]
    fn deep_link_webview_excluded() {
        let (catalog, mut spec) = sample_spec(2);
        spec.sdks.clear();
        spec.direct_wv_methods = MethodSet::EMPTY;
        spec.direct_wv_subclass = false;
        spec.direct_ct = false;
        spec.dead_code_webview = false;
        spec.deep_link = Some(wla_corpus::DeepLinkSpec {
            host: "firstparty.example.com".into(),
            uses_webview: true,
        });
        let mut rng = StdRng::seed_from_u64(2);
        let bytes = lower(&spec, &catalog, &mut rng).encode();
        let table = analyze_app(&meta(), &bytes).unwrap();
        let analysis = table.get(0).unwrap();
        // The loadUrl call exists and is reachable, but it's first-party.
        assert_eq!(analysis.webview_sites.len(), 1);
        assert!(analysis.webview_sites[0].in_deep_link_activity);
        assert!(!analysis.uses_webview());
    }

    #[test]
    fn subclass_attribution_works() {
        let (catalog, mut spec) = sample_spec(3);
        spec.sdks.clear();
        spec.direct_wv_methods = MethodSet::load_url_only();
        spec.direct_wv_subclass = true;
        spec.direct_ct = false;
        spec.deep_link = None;
        spec.dead_code_webview = false;
        let mut rng = StdRng::seed_from_u64(3);
        let bytes = Bytes::from(lower(&spec, &catalog, &mut rng).encode());
        let mut ctx = AnalysisCtx::new(&catalog);
        let row = analyze_app_timed_with(&meta(), bytes, &mut ctx).unwrap();
        let analysis = ctx.results.get(row).unwrap();
        assert!(analysis.uses_webview());
        let resolved: Vec<&str> = analysis
            .custom_webview_classes
            .iter()
            .map(|s| ctx.lexicon.resolve(*s))
            .collect();
        assert_eq!(resolved, vec!["com/testapp/example/web/AppWebView"]);
    }

    #[test]
    fn records_have_exact_layouts() {
        use std::mem::size_of;
        assert!(size_of::<WebViewSiteSummary>() <= 16);
        assert!(size_of::<CtSiteSummary>() <= 20);
        assert!(size_of::<crate::table::AppRow>() <= 24);
    }

    #[test]
    fn a_site_method_index_is_its_name_and_load_flag() {
        use wla_apk::names::WEBVIEW_LOAD_METHODS;
        for (i, name) in WEBVIEW_CONTENT_METHODS.iter().enumerate() {
            let site = WebViewSiteSummary {
                method_idx: i as u8,
                caller_class: LocalInterner::new().intern("C"),
                label: LabelId::Unlabeled,
                in_deep_link_activity: false,
                argument: None,
                origin: UrlOrigin::Unknown,
            };
            assert_eq!(site.method(), *name);
            assert_eq!(site.is_load_method(), WEBVIEW_LOAD_METHODS.contains(name));
        }
    }

    #[test]
    fn corrupted_bytes_error() {
        let (catalog, spec) = sample_spec(4);
        let mut rng = StdRng::seed_from_u64(4);
        let bytes = lower(&spec, &catalog, &mut rng).encode();
        let bad = wla_apk::corrupt::corrupt(
            &bytes,
            wla_apk::corrupt::CorruptionKind::Truncate { keep_num: 100 },
        );
        assert!(analyze_app(&meta(), &bad).is_err());
    }

    #[test]
    fn sdk_caller_packages_extracted() {
        let (catalog, mut spec) = sample_spec(5);
        // Force exactly AppLovin.
        let applovin = catalog
            .sdks()
            .iter()
            .position(|s| s.name == "AppLovin")
            .unwrap();
        spec.sdks = vec![wla_corpus::SdkUse {
            sdk_idx: applovin,
            webview: true,
            custom_tabs: false,
        }];
        spec.sdk_category_methods = vec![(
            wla_sdk_index::SdkCategory::Advertising,
            MethodSet::load_url_only(),
        )];
        spec.direct_wv_methods = MethodSet::EMPTY;
        spec.direct_wv_subclass = false;
        spec.direct_ct = false;
        spec.deep_link = None;
        spec.dead_code_webview = false;
        let mut rng = StdRng::seed_from_u64(5);
        let bytes = Bytes::from(lower(&spec, &catalog, &mut rng).encode());
        let mut ctx = AnalysisCtx::new(&catalog);
        let row = analyze_app_timed_with(&meta(), bytes, &mut ctx).unwrap();
        let analysis = ctx.results.get(row).unwrap();
        let load_packages: HashSet<String> = analysis
            .third_party_webview()
            .filter(|s| s.is_load_method())
            .filter_map(|s| {
                let mut package = String::new();
                package_of_into(ctx.lexicon.resolve(s.caller_class), &mut package)
                    .then_some(package)
            })
            .collect();
        assert!(
            load_packages.iter().all(|p| p.starts_with("com.applovin")),
            "{load_packages:?}"
        );
        assert!(!load_packages.is_empty());
        // Record-time labels agree: every AppLovin caller is Sdk-labeled.
        assert!(analysis
            .third_party_webview()
            .filter(|s| s.is_load_method())
            .all(|s| matches!(s.label, LabelId::Sdk(i) if i as usize == applovin)));
    }
}

#[cfg(test)]
mod multidex_tests {
    use super::tests::{analyze_app, census_names};
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use wla_corpus::ecosystem::Ecosystem;
    use wla_corpus::lowering::lower;
    use wla_corpus::playstore::PlayCategory;
    use wla_corpus::EcosystemParams;

    fn meta() -> AppMeta {
        AppMeta {
            package: "com.multidex.app".into(),
            on_play_store: true,
            downloads: 900_000_000,
            category: PlayCategory::Social,
            last_update_day: 1_000,
        }
    }

    /// Build an app guaranteed to be multi-dex (noise_classes >= 6) with
    /// dead code in the secondary dex.
    fn multidex_app() -> (SdkIndex, wla_corpus::AppSpec, Vec<u8>) {
        let catalog = SdkIndex::paper();
        let eco = Ecosystem::new(&catalog, EcosystemParams::default());
        let mut rng = StdRng::seed_from_u64(99);
        let mut spec = eco.sample_app(&mut rng, meta());
        spec.noise_classes = 8;
        spec.dead_code_webview = true;
        let bytes = lower(&spec, &catalog, &mut rng).encode().to_vec();
        (catalog, spec, bytes)
    }

    #[test]
    fn container_actually_has_two_dex_sections() {
        let (_, _, bytes) = multidex_app();
        let apk = Sapk::decode(&bytes).unwrap();
        let dex_sections = apk
            .sections()
            .iter()
            .filter(|s| s.tag == wla_apk::SectionTag::Dex)
            .count();
        assert_eq!(dex_sections, 2);
    }

    #[test]
    fn multidex_analysis_matches_ground_truth() {
        let (_, spec, bytes) = multidex_app();
        let table = analyze_app(&meta(), &bytes).unwrap();
        let analysis = table.get(0).unwrap();
        assert_eq!(analysis.uses_webview(), spec.uses_webview());
        assert_eq!(analysis.uses_custom_tabs(), spec.uses_custom_tabs());
        let truth = census_names(spec.method_census());
        assert_eq!(analysis.methods_used(), truth);
        // The dead class lives in classes2.dex and stays dead.
        assert_eq!(analysis.unreachable_webview_sites, 1);
    }

    #[test]
    fn corrupt_secondary_dex_breaks_the_app() {
        let (_, _, bytes) = multidex_app();
        // Flip a byte near the end of the container, where the secondary
        // dex and resources live; container checksum catches it.
        let mut bad = bytes.clone();
        let i = bad.len() - 40;
        bad[i] ^= 0x20;
        assert!(analyze_app(&meta(), &bad).is_err());
    }
}
