//! Parallel, fault-isolated crawl pipeline on interned endpoint identities.
//!
//! The crawl matrix is `(baseline + selected apps) × sites`. The
//! workspace's one claim pool ([`wla_pool::run`], which schedules
//! `wla-static`'s pipelines too) runs every visit on its own
//! [`VisitSession`] under the pool's panic isolator — a poisoned site
//! becomes a [`CrawlFailure`], never a dead run — and each worker records
//! endpoints as worker-local [`wla_intern::Symbol`]s with a per-host
//! classification memo. The serial join tail translates local symbols into
//! one fresh [`SymbolTable`] with [`wla_intern::merge_ordered`] (the static
//! pipeline's input-order merge), which the [`CrawlOutput`] owns, and folds
//! Figure 6 through the crawler crate's own row averaging.
//!
//! Determinism contract: for a given `(sites, apps)` input the output is
//! bit-identical at any worker count — records, figures, failure list, and
//! visit counts — because every visit is a pure function of its task, task
//! order is fixed by the matrix, and global symbol ids depend only on the
//! input-order walk. `tests/crawl_equivalence.rs` pins this down.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;
use wla_crawler::classify::{classify_third_party, is_first_party, EndpointKind};
use wla_crawler::driver::{figure6_row, run_visit_prepared, VisitObservation, BASELINE_APP};
use wla_crawler::sites::{site_page, SiteCategory, TopSite};
use wla_device::iab::{all_profiles, IabProfile};
use wla_device::session::VisitSession;
use wla_device::webview::PreparedPage;
use wla_intern::{merge_ordered, FxBuildHasher, LocalInterner, Symbol, SymbolTable};
use wla_pool::{PoolOutput, WorkerStats};

/// Parallelism for the crawl pipeline.
#[derive(Debug, Clone, Copy, Default)]
pub struct CrawlConfig {
    /// Worker threads (0 ⇒ one per available core). Explicit counts are
    /// honoured, capped at the number of visits.
    pub workers: usize,
}

/// Why a visit produced no record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CrawlFailureKind {
    /// The visit panicked; the pool's panic isolator contained it.
    VisitPanic,
    /// The visit completed but the pulled netlog was empty — on a real
    /// device, a log that failed to capture.
    EmptyNetlog,
}

impl CrawlFailureKind {
    /// Stable display/aggregation label.
    pub fn label(self) -> &'static str {
        match self {
            CrawlFailureKind::VisitPanic => "visit-panic",
            CrawlFailureKind::EmptyNetlog => "empty-netlog",
        }
    }
}

/// One failed visit, attributed to its matrix cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrawlFailure {
    /// App package (or [`BASELINE_APP`]).
    pub app: String,
    /// Site whose visit failed.
    pub site_host: String,
    /// Failure taxonomy entry.
    pub kind: CrawlFailureKind,
    /// Panic payload text (empty for non-panic kinds).
    pub message: String,
}

/// One completed visit, on interned identities. Hosts are kept in netlog
/// capture order (deterministic per visit); `kinds` is parallel to
/// `hosts`, classified exactly once per distinct host via the worker's
/// memo.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VisitRecord {
    /// App package symbol (or [`BASELINE_APP`]).
    pub app: Symbol,
    /// Visited site host symbol.
    pub site: Symbol,
    /// Site category.
    pub category: SiteCategory,
    /// Distinct hosts contacted, in first-contact order.
    pub hosts: Vec<Symbol>,
    /// Endpoint kind per host, parallel to `hosts`.
    pub kinds: Vec<EndpointKind>,
}

impl VisitRecord {
    /// Rewrite every symbol through `f` — how the join translates
    /// worker-local symbols into the global table.
    pub fn remap_symbols(&mut self, mut f: impl FnMut(Symbol) -> Symbol) {
        self.app = f(self.app);
        self.site = f(self.site);
        for h in &mut self.hosts {
            *h = f(*h);
        }
    }
}

/// Symbol-table and classification-memo counters, folded across workers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CrawlInternerCounters {
    /// Worker-local intern hits.
    pub local_hits: u64,
    /// Worker-local intern misses: the summed per-worker lexicon sizes
    /// (pre-dedup).
    pub local_misses: u64,
    /// Distinct symbols in the merged global table.
    pub global_symbols: usize,
    /// Bytes in the merged global table.
    pub global_bytes: usize,
    /// Third-party classifications answered from the per-symbol memo.
    pub classify_hits: u64,
    /// Third-party classifications that ran the suffix-rule tables.
    pub classify_misses: u64,
}

impl CrawlInternerCounters {
    /// Fraction of intern calls absorbed by worker-local tables.
    pub fn local_hit_rate(&self) -> f64 {
        let total = self.local_hits + self.local_misses;
        if total == 0 {
            return 0.0;
        }
        self.local_hits as f64 / total as f64
    }
}

/// Crawl observability: what ran, what failed, where the time went.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CrawlStats {
    /// Visits in the matrix (`rows × sites`).
    pub visits_total: usize,
    /// Visits that produced a record.
    pub visits_completed: usize,
    /// Visits whose panic the pool isolated.
    pub visits_panicked: usize,
    /// Matrix rows (baseline + apps).
    pub rows: usize,
    /// Matrix columns.
    pub sites: usize,
    /// Script steps executed across completed visits.
    pub steps_executed: u64,
    /// Netlog events captured across completed visits.
    pub requests_logged: u64,
    /// Failure counts by taxonomy label.
    pub failure_kinds: BTreeMap<&'static str, usize>,
    /// The pool's per-worker counters, in spawn order.
    pub workers: Vec<WorkerStats>,
    /// Nanoseconds preparing per-site pages (serial, before the pool).
    pub prepare_ns: u64,
    /// Heap bytes the prepared pages hold for the whole run: each page's
    /// node, attribute and string tables, URL and fetch list
    /// ([`PreparedPage::heap_bytes`]).
    pub prepared_bytes: usize,
    /// Summed worker busy nanoseconds.
    pub visit_ns: u64,
    /// Serial join tail: merge + symbol remap + figure fold.
    pub merge_ns: u64,
    /// End-to-end wall clock.
    pub total_ns: u64,
    /// Symbol-table / classification-memo counters.
    pub interner: CrawlInternerCounters,
}

impl CrawlStats {
    /// Busy fraction of the pool: summed worker busy time over
    /// `workers × wall`. 1.0 means no worker ever starved.
    pub fn utilization(&self) -> f64 {
        let capacity = self.workers.len() as u64 * self.total_ns;
        if capacity == 0 {
            return 0.0;
        }
        self.visit_ns as f64 / capacity as f64
    }

    /// Classification-memo hit rate.
    pub fn classify_hit_rate(&self) -> f64 {
        let total = self.interner.classify_hits + self.interner.classify_misses;
        if total == 0 {
            return 0.0;
        }
        self.interner.classify_hits as f64 / total as f64
    }

    /// Visit throughput over the whole run.
    pub fn visits_per_second(&self) -> f64 {
        if self.total_ns == 0 {
            return 0.0;
        }
        self.visits_total as f64 / (self.total_ns as f64 * 1e-9)
    }
}

/// Figure 6 output row (re-exported shape from the crawler crate).
pub use wla_crawler::driver::Figure6Row;

/// Output of the interned crawl pipeline.
#[derive(Debug, Clone)]
pub struct CrawlOutput {
    /// Baseline (System WebView Shell) records, in site order; visits that
    /// failed are absent.
    pub baseline: Vec<VisitRecord>,
    /// Per-app records keyed by display app name, in site order.
    pub per_app: BTreeMap<String, Vec<VisitRecord>>,
    /// Per-app Figure 6 rows (baseline-subtracted), one row per category.
    pub figures: BTreeMap<String, Vec<Figure6Row>>,
    /// Failed visits, in matrix order.
    pub failures: Vec<CrawlFailure>,
    /// The merged symbol table, for display-time host resolution.
    pub symbols: SymbolTable,
    /// Observability counters.
    pub stats: CrawlStats,
}

impl CrawlOutput {
    /// Figure 6 rows for one app.
    pub fn figure_for(&self, app_name: &str) -> Option<&Vec<Figure6Row>> {
        self.figures.get(app_name)
    }
}

/// One crawl worker's private state: its lexicon plus the memos that keep
/// the per-visit harvest allocation-free.
#[derive(Default)]
struct CrawlWorker {
    lexicon: LocalInterner,
    /// Per-visit distinct-host scratch, symbol-keyed: strings hash once at
    /// intern time.
    seen: HashSet<Symbol, FxBuildHasher>,
    /// Per-host third-party classification memo.
    kind_memo: HashMap<Symbol, EndpointKind, FxBuildHasher>,
    /// URL-identity memo: netlog URLs are `Arc`s shared across visits
    /// (prepared subresources, endpoint-rule collect URLs), so the pointer
    /// identifies the string and one lookup replaces the host parse +
    /// intern. Entries own an `Arc` clone, pinning the allocation so an
    /// address is never recycled under a live key.
    host_memo: HostMemo,
    classify_hits: u64,
    classify_misses: u64,
}

/// The full visit matrix for one run.
struct CrawlMatrix<'a> {
    sites: &'a [TopSite],
    pages: Vec<Arc<PreparedPage>>,
    /// `None` = the baseline row; `Some` = an app row.
    rows: Vec<Option<&'a IabProfile>>,
}

impl CrawlMatrix<'_> {
    fn visits(&self) -> usize {
        self.rows.len() * self.sites.len()
    }

    /// Site, prepared page, and row profile of visit `t`. Visits are
    /// row-major: every site of a row comes before the next row.
    fn cell(&self, t: usize) -> (&TopSite, &Arc<PreparedPage>, Option<&IabProfile>) {
        let s = t % self.sites.len();
        (
            &self.sites[s],
            &self.pages[s],
            self.rows[t / self.sites.len()],
        )
    }
}

/// Package a matrix row's visits are attributed to.
fn app_of(profile: Option<&IabProfile>) -> &'static str {
    profile.map_or(BASELINE_APP, |p| p.package)
}

/// Run the crawl matrix with the given parallelism, using the default
/// prepared-page visit.
pub fn run_crawl_pipeline(
    sites: &[TopSite],
    apps: Option<&[&str]>,
    config: CrawlConfig,
) -> CrawlOutput {
    run_crawl_pipeline_with(sites, apps, config, run_visit_prepared)
}

/// [`run_crawl_pipeline`] with a caller-supplied visit function — the
/// scheduler, fault isolation, and merge are identical. Tests use this to
/// inject deliberately panicking visits; the visit function must drive the
/// page through `session` and return the observation to harvest.
pub fn run_crawl_pipeline_with<F>(
    sites: &[TopSite],
    apps: Option<&[&str]>,
    config: CrawlConfig,
    visit: F,
) -> CrawlOutput
where
    F: Fn(&TopSite, &Arc<PreparedPage>, Option<&IabProfile>, &mut VisitSession) -> VisitObservation
        + Sync,
{
    let started = Instant::now();

    // Prepare every site's page once — parse, subresource resolution, and
    // URL allocation are per-site, not per-visit.
    let prepare_started = Instant::now();
    let profiles = all_profiles();
    let selected: Vec<&IabProfile> = profiles
        .iter()
        .filter(|p| apps.is_none_or(|filter| filter.contains(&p.app_name)))
        .collect();
    let matrix = CrawlMatrix {
        sites,
        pages: sites.iter().map(|s| Arc::new(site_page(s))).collect(),
        rows: std::iter::once(None)
            .chain(selected.iter().map(|p| Some(*p)))
            .collect(),
    };
    let prepare_ns = prepare_started.elapsed().as_nanos() as u64;

    let pool = wla_pool::run(
        matrix.visits(),
        config.workers,
        CrawlWorker::default,
        |worker, t| {
            let (site, page, profile) = matrix.cell(t);
            let mut session = VisitSession::new();
            let obs = visit(site, page, profile, &mut session);
            worker.harvest(site, app_of(profile), &session, obs)
        },
    );
    join_crawl(&matrix, &selected, prepare_ns, started, pool)
}

/// One `host_memo` entry: the resolved host of a shared URL `Arc`. The
/// owned clone keeps the allocation alive so the pointer key stays valid;
/// `host` is the byte range of the host within the URL (`None` for URLs
/// with no extractable host).
struct HostEntry {
    url: Arc<str>,
    host: Option<(Symbol, u32, u32)>,
}

/// Pointer-keyed URL → host memo (see `HostEntry`).
type HostMemo = HashMap<usize, HostEntry, FxBuildHasher>;

impl CrawlWorker {
    /// Turn one completed visit's session into an interned record plus its
    /// script-step and netlog-event counts. Returns `None` when the netlog
    /// captured nothing (a [`CrawlFailureKind::EmptyNetlog`] failure at
    /// the join).
    fn harvest(
        &mut self,
        site: &TopSite,
        app: &str,
        session: &VisitSession,
        obs: VisitObservation,
    ) -> Option<(VisitRecord, u64, u64)> {
        let CrawlWorker {
            lexicon,
            seen,
            kind_memo,
            host_memo,
            classify_hits,
            classify_misses,
        } = self;
        let requests = session.requests_logged() as u64;
        if requests == 0 {
            return None;
        }
        let app_sym = lexicon.intern(app);
        let site_sym = lexicon.intern(&site.host);
        seen.clear();
        let mut hosts = Vec::new();
        let mut kinds = Vec::new();
        session.netlog().for_each_request_url(obs.source_id, |url| {
            // Memo misses happen at each unique URL's first appearance, so
            // the local interner sees hosts in exactly the first-occurrence
            // order the per-event string path produced — symbol assignment,
            // and with it the merged output, is unchanged.
            let entry = host_memo
                .entry(Arc::as_ptr(url) as *const u8 as usize)
                .or_insert_with(|| HostEntry {
                    url: url.clone(),
                    host: wla_net::netlog::host_of(url).map(|h| {
                        let start = h.as_ptr() as usize - url.as_ptr() as usize;
                        (lexicon.intern(h), start as u32, h.len() as u32)
                    }),
                });
            let Some((sym, start, len)) = entry.host else {
                return;
            };
            if seen.insert(sym) {
                let host = &entry.url[start as usize..(start + len) as usize];
                let kind = if is_first_party(host, &site.host) {
                    EndpointKind::FirstParty
                } else if let Some(&k) = kind_memo.get(&sym) {
                    *classify_hits += 1;
                    k
                } else {
                    *classify_misses += 1;
                    let k = classify_third_party(host);
                    kind_memo.insert(sym, k);
                    k
                };
                hosts.push(sym);
                kinds.push(kind);
            }
        });
        Some((
            VisitRecord {
                app: app_sym,
                site: site_sym,
                category: site.category,
                hosts,
                kinds,
            },
            obs.steps as u64,
            requests,
        ))
    }
}

/// The serial join tail: turn pool outcomes into records or failures, fold
/// the stats, translate worker-local symbols through the input-order
/// merge, and build the baseline-subtracted figures.
fn join_crawl(
    matrix: &CrawlMatrix<'_>,
    selected: &[&IabProfile],
    prepare_ns: u64,
    started: Instant,
    pool: PoolOutput<CrawlWorker, Option<(VisitRecord, u64, u64)>>,
) -> CrawlOutput {
    let tail_started = Instant::now();
    let n_sites = matrix.sites.len();
    let mut stats = CrawlStats {
        visits_total: matrix.visits(),
        rows: matrix.rows.len(),
        sites: n_sites,
        prepare_ns,
        prepared_bytes: matrix.pages.iter().map(|p| p.heap_bytes()).sum(),
        visit_ns: pool.workers.iter().map(|w| w.busy_ns).sum(),
        workers: pool.workers,
        ..CrawlStats::default()
    };
    let mut lexicons = Vec::with_capacity(pool.contexts.len());
    for worker in pool.contexts {
        stats.interner.local_hits += worker.lexicon.hits();
        stats.interner.local_misses += worker.lexicon.misses();
        stats.interner.classify_hits += worker.classify_hits;
        stats.interner.classify_misses += worker.classify_misses;
        lexicons.push(worker.lexicon);
    }

    let mut outcomes: Vec<(usize, Result<VisitRecord, CrawlFailure>)> = pool
        .results
        .into_iter()
        .enumerate()
        .map(|(t, (w, outcome))| {
            let (site, _, profile) = matrix.cell(t);
            let failure = |kind, message| CrawlFailure {
                app: app_of(profile).to_owned(),
                site_host: site.host.clone(),
                kind,
                message,
            };
            let result = match outcome {
                Ok(Some((record, steps, requests))) => {
                    stats.steps_executed += steps;
                    stats.requests_logged += requests;
                    Ok(record)
                }
                Ok(None) => Err(failure(CrawlFailureKind::EmptyNetlog, String::new())),
                Err(message) => {
                    stats.visits_panicked += 1;
                    Err(failure(CrawlFailureKind::VisitPanic, message))
                }
            };
            (w, result)
        })
        .collect();
    let symbols = merge_ordered(
        &mut outcomes,
        &lexicons,
        |&(w, _)| w,
        |(_, outcome), f| {
            if let Ok(record) = outcome {
                record.remap_symbols(f);
            }
        },
    );
    stats.interner.global_symbols = symbols.len();
    stats.interner.global_bytes = symbols.bytes();

    // Split the matrix back into rows. `cells[r][s]` is the (possibly
    // failed) visit of site `s` through row `r`.
    let mut cells: Vec<Vec<Option<VisitRecord>>> = matrix
        .rows
        .iter()
        .map(|_| (0..n_sites).map(|_| None).collect())
        .collect();
    let mut failures = Vec::new();
    for (t, (_, outcome)) in outcomes.into_iter().enumerate() {
        match outcome {
            Ok(record) => cells[t / n_sites][t % n_sites] = Some(record),
            Err(failure) => {
                *stats.failure_kinds.entry(failure.kind.label()).or_insert(0) += 1;
                failures.push(failure);
            }
        }
    }
    stats.visits_completed = stats.visits_total - failures.len();

    // Baseline host sets per site, for figure subtraction.
    let baseline_sets: Vec<Option<HashSet<Symbol, FxBuildHasher>>> = cells[0]
        .iter()
        .map(|cell| cell.as_ref().map(|rec| rec.hosts.iter().copied().collect()))
        .collect();

    let mut per_app = BTreeMap::new();
    let mut figures = BTreeMap::new();
    for (row, profile) in selected.iter().enumerate() {
        let records: Vec<VisitRecord> = cells[row + 1].iter().flatten().cloned().collect();
        figures.insert(
            profile.app_name.to_owned(),
            figure6_interned(&cells[row + 1], &baseline_sets, matrix.sites),
        );
        per_app.insert(profile.app_name.to_owned(), records);
    }
    let baseline: Vec<VisitRecord> = cells[0].iter().flatten().cloned().collect();

    stats.merge_ns = tail_started.elapsed().as_nanos() as u64;
    stats.total_ns = started.elapsed().as_nanos() as u64;
    CrawlOutput {
        baseline,
        per_app,
        figures,
        failures,
        symbols,
        stats,
    }
}

/// Figure 6 over interned records: tally each visit's baseline-subtracted
/// endpoint kinds, then fold through the crawler crate's
/// [`figure6_row`] — identical accumulation order to the string-path
/// oracle, hence bit-identical averages. Visits whose baseline is missing
/// (site failed in the shell row) are skipped, mirroring the oracle's
/// behavior for sites absent from the baseline.
fn figure6_interned(
    row: &[Option<VisitRecord>],
    baseline_sets: &[Option<HashSet<Symbol, FxBuildHasher>>],
    sites: &[TopSite],
) -> Vec<Figure6Row> {
    let mut per_cat: BTreeMap<SiteCategory, Vec<BTreeMap<EndpointKind, usize>>> =
        SiteCategory::ALL.iter().map(|&c| (c, Vec::new())).collect();
    for (s, cell) in row.iter().enumerate() {
        let (Some(record), Some(base)) = (cell, &baseline_sets[s]) else {
            continue;
        };
        let mut kinds: BTreeMap<EndpointKind, usize> = BTreeMap::new();
        for (h, k) in record.hosts.iter().zip(&record.kinds) {
            if !base.contains(h) {
                *kinds.entry(*k).or_insert(0) += 1;
            }
        }
        per_cat
            .get_mut(&sites[s].category)
            .expect("ALL covers every category")
            .push(kinds);
    }
    per_cat
        .into_iter()
        .map(|(category, visits)| figure6_row(category, &visits))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wla_crawler::sites::top_100_sites;

    /// The crawl of `sites` through `apps`, on one worker.
    fn crawl(sites: &[TopSite], apps: &[&str]) -> CrawlOutput {
        run_crawl_pipeline(sites, Some(apps), CrawlConfig { workers: 1 })
    }

    #[test]
    fn linkedin_and_kik_figures_present() {
        let study = crawl(&top_100_sites(), &["LinkedIn", "Kik"]);
        assert_eq!(study.figures.len(), 2);
        let li = study.figures.get("LinkedIn").unwrap();
        let kik = study.figures.get("Kik").unwrap();
        assert_eq!(li.len(), 10); // one row per site category
        assert_eq!(kik.len(), 10);
        // Every visit completed and was observed.
        assert_eq!(study.stats.visits_total, 3 * 100);
        assert_eq!(study.stats.visits_completed, 3 * 100);
        assert_eq!(study.stats.visits_panicked, 0);
        assert!(study.failures.is_empty());
    }

    #[test]
    fn endpoints_isolated_to_the_iab() {
        // "These endpoints were specific to LinkedIn's IAB and were not
        // contacted by any other app's IAB" (§4.2.2).
        let study = crawl(&top_100_sites(), &["LinkedIn", "Kik", "Snapchat"]);
        let hosts_of = |app: &str| -> std::collections::BTreeSet<&str> {
            study.per_app[app]
                .iter()
                .flat_map(|r| r.hosts.iter())
                .map(|&h| study.symbols.resolve(h))
                .collect()
        };
        let li_hosts = hosts_of("LinkedIn");
        let kik_hosts = hosts_of("Kik");
        assert!(li_hosts.iter().any(|h| h.contains("cedexis")));
        assert!(!kik_hosts.iter().any(|h| h.contains("cedexis")));
        assert!(kik_hosts.iter().any(|h| h.contains("mopub")));
        assert!(!li_hosts.iter().any(|h| h.contains("mopub")));
    }

    #[test]
    fn rich_categories_dominate_poor_ones() {
        let study = crawl(&top_100_sites(), &["Kik"]);
        let rows = study.figures.get("Kik").unwrap();
        let by_cat: BTreeMap<SiteCategory, f64> =
            rows.iter().map(|r| (r.category, r.avg_endpoints)).collect();
        assert!(by_cat[&SiteCategory::News] > by_cat[&SiteCategory::Technology]);
        assert!(by_cat[&SiteCategory::Shopping] > by_cat[&SiteCategory::Search]);
    }

    #[test]
    fn stats_account_for_the_whole_matrix() {
        let sites: Vec<TopSite> = top_100_sites().into_iter().take(20).collect();
        let study = crawl(&sites, &["Kik"]);
        assert_eq!(study.stats.rows, 2);
        assert_eq!(study.stats.sites, 20);
        assert_eq!(study.stats.visits_total, 40);
        // 10 script steps per visit.
        assert_eq!(study.stats.steps_executed, 40 * 10);
        assert!(study.stats.requests_logged > 0);
        assert_eq!(study.stats.workers.len(), 1);
        assert_eq!(study.stats.workers[0].items, 40);
        // Each app/site/host string is interned once per worker but seen
        // many times — the memo and interner must be doing their job.
        assert!(study.stats.interner.local_hits > study.stats.interner.local_misses);
        assert!(study.stats.classify_hit_rate() > 0.5, "{:?}", study.stats);
        // One worker: its lexicon, every string it missed once, is the
        // merged table.
        assert_eq!(
            study.stats.interner.global_symbols as u64,
            study.stats.interner.local_misses
        );
    }

    #[test]
    fn local_hit_rate_is_zero_without_intern_calls() {
        assert_eq!(CrawlInternerCounters::default().local_hit_rate(), 0.0);
        let c = CrawlInternerCounters {
            local_hits: 3,
            local_misses: 1,
            ..CrawlInternerCounters::default()
        };
        assert_eq!(c.local_hit_rate(), 0.75);
    }

    #[test]
    fn prepared_pages_for_the_top_100_hold_at_most_320_kib() {
        // Nothing is allocated per DOM node: the 100 landing pages' node,
        // attribute and string tables plus their fetch lists fit in
        // 320 KiB (one owned enum per node held about 1.1 MiB).
        let sites = top_100_sites();
        let out = run_crawl_pipeline(&sites, Some(&[]), CrawlConfig { workers: 1 });
        let bytes = out.stats.prepared_bytes;
        assert!(bytes > 0);
        assert!(bytes <= 320 * 1024, "prepared pages hold {bytes} bytes");
        let summed: usize = sites.iter().map(|s| site_page(s).heap_bytes()).sum();
        assert_eq!(bytes, summed);
    }

    #[test]
    fn visits_per_second_is_zero_without_wall_time() {
        let stats = CrawlStats {
            visits_total: 100,
            ..CrawlStats::default()
        };
        assert_eq!(stats.visits_per_second(), 0.0);
    }
}
