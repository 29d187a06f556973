//! Parallel, fault-isolated crawl pipeline on interned endpoint identities.
//!
//! The crawl matrix is `(baseline + selected apps) × sites`. The
//! workspace's one claim pool ([`wla_pool::run`], which schedules
//! `wla-static`'s pipelines too) claims one site column at a time: the
//! claim prepares the site's page, visits it through every row in row
//! order, each visit on its own [`VisitSession`] under its own
//! [`wla_pool::isolate`] — a poisoned visit becomes a [`CrawlFailure`],
//! never a dead run or a dead column — and drops the page when it ends,
//! so a worker holds at most one page. Each worker records endpoints as
//! worker-local [`wla_intern::Symbol`]s with a per-host classification
//! memo, and each claim keeps its visits' hosts in one exact-size table.
//! The serial join tail translates local symbols into one fresh
//! [`SymbolTable`] with [`wla_intern::merge_ordered`] (the static
//! pipeline's input-order merge) over a row-major walk of the visits,
//! moves each table's hosts into the [`CrawlOutput`]'s records, and folds
//! Figure 6 through the crawler crate's own row averaging.
//!
//! Determinism contract: for a given `(sites, apps)` input the output is
//! bit-identical at any worker count — records, figures, failure list, and
//! visit counts — because every visit is a pure function of its task, task
//! order is fixed by the matrix, and global symbol ids depend only on the
//! row-major walk. `tests/crawl_equivalence.rs` pins this down.

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
    /// honoured, capped at the number of sites: a worker claims a site's
    /// whole column.
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
    /// The pool's per-worker counters, in spawn order; `items` counts
    /// visits (the pool counts claims, and a claim is a site's column).
    pub workers: Vec<WorkerStats>,
    /// Nanoseconds preparing the sites' pages, each inside its claim,
    /// summed over claims: part of `visit_ns`.
    pub prepare_ns: u64,
    /// Heap bytes the sites' pages held, summed over pages: each page's
    /// node, attribute and string tables, URL and fetch list
    /// ([`PreparedPage::heap_bytes`]). A page lives only inside its claim,
    /// so at most one per worker is alive at a time.
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

/// One crawl worker's private state: its lexicon, the memos that keep the
/// per-visit harvest allocation-free, and the host table of the claim it
/// is running.
#[derive(Default)]
struct CrawlWorker {
    lexicon: LocalInterner,
    /// Per-visit distinct-host scratch, symbol-keyed: strings hash once at
    /// intern time.
    seen: HashSet<Symbol, FxBuildHasher>,
    /// Per-host third-party classification memo, kept for the whole run.
    kind_memo: HashMap<Symbol, EndpointKind, FxBuildHasher>,
    /// URL-identity memo: netlog URLs are `Arc`s shared across the visits
    /// of one page (its prepared subresources, endpoint-rule collect
    /// URLs), so the pointer identifies the string and one lookup replaces
    /// the host parse + intern. Entries own an `Arc` clone, pinning the
    /// allocation so an address is never recycled under a live key; so
    /// each claim clears the memo as it ends, or the memo would keep every
    /// finished page's URLs alive.
    host_memo: HostMemo,
    /// The running claim's host column: each completed visit's distinct
    /// hosts, one visit after another.
    hosts: Vec<Symbol>,
    /// Endpoint kind per host, parallel to `hosts`.
    kinds: Vec<EndpointKind>,
    classify_hits: u64,
    classify_misses: u64,
}

/// What one completed visit left in its claim: its record's symbols, where
/// its hosts lie in the claim's columns, and its script-step and
/// netlog-event counts.
struct Harvest {
    app: Symbol,
    site: Symbol,
    start: u32,
    end: u32,
    steps: u32,
    requests: u32,
}

/// A visit's outcome: `Ok(None)` when its netlog captured nothing (a
/// [`CrawlFailureKind::EmptyNetlog`] failure at the join), `Err` with the
/// panic text when it panicked.
type Visit = Result<Option<Harvest>, String>;

/// One site's column of the matrix, as its claim left it.
struct SiteColumn {
    /// Every row's visit of the site, in row order.
    visits: Vec<Visit>,
    /// The completed visits' hosts, one visit after another, at exact size.
    hosts: Box<[Symbol]>,
    /// Endpoint kind per host, parallel to `hosts`.
    kinds: Box<[EndpointKind]>,
    /// Nanoseconds preparing the site's page.
    prepare_ns: u64,
    /// Heap bytes the page held ([`PreparedPage::heap_bytes`]).
    prepared_bytes: usize,
}

impl SiteColumn {
    /// Row `row`'s visit of the site, if it completed.
    fn completed(&self, row: usize) -> Option<&Harvest> {
        self.visits[row].as_ref().ok()?.as_ref()
    }

    /// A completed visit's hosts and their kinds.
    fn hosts(&self, visit: &Harvest) -> (&[Symbol], &[EndpointKind]) {
        let range = visit.start as usize..visit.end as usize;
        (&self.hosts[range.clone()], &self.kinds[range])
    }

    /// Rewrite every symbol of `row`'s visit through `f`: app, site, then
    /// hosts, where they lie.
    fn remap(&mut self, row: usize, f: &mut dyn FnMut(Symbol) -> Symbol) {
        let Ok(Some(visit)) = &mut self.visits[row] else {
            unreachable!("the merge walks completed visits only");
        };
        visit.app = f(visit.app);
        visit.site = f(visit.site);
        for host in &mut self.hosts[visit.start as usize..visit.end as usize] {
            *host = f(*host);
        }
    }

    /// The record of a completed visit of this column's site, its hosts
    /// copied out of the column's table.
    fn record(&self, visit: &Harvest, category: SiteCategory) -> VisitRecord {
        let (hosts, kinds) = self.hosts(visit);
        VisitRecord {
            app: visit.app,
            site: visit.site,
            category,
            hosts: hosts.to_vec(),
            kinds: kinds.to_vec(),
        }
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
    let profiles = all_profiles();
    // Row 0 is the baseline; the selected apps follow in profile order.
    let rows: Vec<Option<&IabProfile>> = std::iter::once(None)
        .chain(
            profiles
                .iter()
                .filter(|p| apps.is_none_or(|filter| filter.contains(&p.app_name)))
                .map(Some),
        )
        .collect();
    let pool = wla_pool::run(
        sites.len(),
        config.workers,
        CrawlWorker::default,
        |worker, s| worker.claim(&sites[s], &rows, &visit),
    );
    join_crawl(sites, &rows, started, pool)
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

/// Why a claim cannot panic: its visits run under their own isolators,
/// and what runs outside them (preparing the page, freezing the columns)
/// does not panic on any site.
const ISOLATED: &str = "every visit of a site column runs under its own isolator";

/// A column offset as the claim stores it.
fn offset(len: usize) -> u32 {
    u32::try_from(len).expect("a claim's host column fits u32 offsets")
}

impl CrawlWorker {
    /// Claim `site`'s column: prepare its page, visit it through every row
    /// in row order, each visit on a fresh session under its own isolator,
    /// and freeze the hosts the completed visits contacted into the
    /// column's table. A visit that panics leaves nothing in the table.
    /// The page, and every memo entry that points into it, die with the
    /// claim.
    fn claim<F>(&mut self, site: &TopSite, rows: &[Option<&IabProfile>], visit: &F) -> SiteColumn
    where
        F: Fn(
            &TopSite,
            &Arc<PreparedPage>,
            Option<&IabProfile>,
            &mut VisitSession,
        ) -> VisitObservation,
    {
        let prepare_started = Instant::now();
        let page = Arc::new(site_page(site));
        let prepare_ns = prepare_started.elapsed().as_nanos() as u64;
        let visits = rows
            .iter()
            .map(|&profile| {
                let start = self.hosts.len();
                let outcome = wla_pool::isolate(|| {
                    let mut session = VisitSession::new();
                    let obs = visit(site, &page, profile, &mut session);
                    self.harvest(site, app_of(profile), &session, obs)
                });
                if outcome.is_err() {
                    self.hosts.truncate(start);
                    self.kinds.truncate(start);
                }
                outcome
            })
            .collect();
        self.host_memo.clear();
        SiteColumn {
            visits,
            hosts: self.hosts.drain(..).collect(),
            kinds: self.kinds.drain(..).collect(),
            prepare_ns,
            prepared_bytes: page.heap_bytes(),
        }
    }

    /// Append one completed visit's distinct hosts, interned and
    /// classified, to the claim's columns. Returns `None`, appending
    /// nothing, when the netlog captured nothing.
    fn harvest(
        &mut self,
        site: &TopSite,
        app: &str,
        session: &VisitSession,
        obs: VisitObservation,
    ) -> Option<Harvest> {
        let CrawlWorker {
            lexicon,
            seen,
            kind_memo,
            host_memo,
            hosts,
            kinds,
            classify_hits,
            classify_misses,
        } = self;
        let requests = session.requests_logged();
        if requests == 0 {
            return None;
        }
        let app_sym = lexicon.intern(app);
        let site_sym = lexicon.intern(&site.host);
        seen.clear();
        let start = offset(hosts.len());
        session.netlog().for_each_request_url(obs.source_id, |url| {
            // One memo lookup per event: only a URL's first appearance in
            // the claim parses and interns its host.
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
        Some(Harvest {
            app: app_sym,
            site: site_sym,
            start,
            end: offset(hosts.len()),
            steps: obs.steps,
            requests: u32::try_from(requests).expect("a visit's netlog fits u32 events"),
        })
    }
}

/// The serial join tail: fold the stats, walk the matrix row by row to
/// list the failures and rank every symbol through the input-order merge,
/// move each column's hosts into its records, and build the
/// baseline-subtracted figures.
fn join_crawl(
    sites: &[TopSite],
    rows: &[Option<&IabProfile>],
    started: Instant,
    pool: PoolOutput<CrawlWorker, SiteColumn>,
) -> CrawlOutput {
    let tail_started = Instant::now();
    let mut stats = CrawlStats {
        visits_total: rows.len() * sites.len(),
        rows: rows.len(),
        sites: sites.len(),
        visit_ns: pool.workers.iter().map(|w| w.busy_ns).sum(),
        workers: pool.workers,
        ..CrawlStats::default()
    };
    // The pool counted claims, and every claim is one visit per row.
    for worker in &mut stats.workers {
        worker.items *= rows.len();
    }
    let mut lexicons = Vec::with_capacity(pool.contexts.len());
    for worker in pool.contexts {
        stats.interner.local_hits += worker.lexicon.hits();
        stats.interner.local_misses += worker.lexicon.misses();
        stats.interner.classify_hits += worker.classify_hits;
        stats.interner.classify_misses += worker.classify_misses;
        lexicons.push(worker.lexicon);
    }
    let mut columns: Vec<(usize, SiteColumn)> = pool
        .results
        .into_iter()
        .map(|(w, claim)| {
            let column = claim.expect(ISOLATED);
            stats.prepare_ns += column.prepare_ns;
            stats.prepared_bytes += column.prepared_bytes;
            (w, column)
        })
        .collect();

    // Row-major, as the output lists visits: every site of row 0, then of
    // row 1, and so on. Failures land in matrix order, and each completed
    // visit is one `(worker, site, row)` item of the merge, so a global id
    // is its string's first-occurrence rank in this walk.
    let mut failures = Vec::new();
    let mut completed = Vec::with_capacity(stats.visits_total);
    for (r, &profile) in rows.iter().enumerate() {
        for (s, (w, column)) in columns.iter_mut().enumerate() {
            let (kind, message) = match &mut column.visits[r] {
                Ok(Some(visit)) => {
                    stats.steps_executed += u64::from(visit.steps);
                    stats.requests_logged += u64::from(visit.requests);
                    completed.push((*w, s, r));
                    continue;
                }
                Ok(None) => (CrawlFailureKind::EmptyNetlog, String::new()),
                Err(message) => {
                    stats.visits_panicked += 1;
                    (CrawlFailureKind::VisitPanic, std::mem::take(message))
                }
            };
            *stats.failure_kinds.entry(kind.label()).or_insert(0) += 1;
            failures.push(CrawlFailure {
                app: app_of(profile).to_owned(),
                site_host: sites[s].host.clone(),
                kind,
                message,
            });
        }
    }
    stats.visits_completed = completed.len();
    let symbols = merge_ordered(
        &mut completed,
        lexicons,
        |&(w, _, _)| w,
        |&mut (_, s, r), f| columns[s].1.remap(r, f),
    );
    stats.interner.global_symbols = symbols.len();
    stats.interner.global_bytes = symbols.bytes();
    // Free the merge's items before the records are built: the join's
    // peak is the records plus whatever is still alive then.
    drop(completed);

    let figures = rows
        .iter()
        .copied()
        .enumerate()
        .filter_map(|(r, profile)| {
            Some((
                profile?.app_name.to_owned(),
                figure6_interned(r, &columns, sites),
            ))
        })
        .collect();

    // Move each column's hosts into its records, one site at a time, and
    // drop the column: every row's records stay in site order.
    let mut records: Vec<Vec<VisitRecord>> = rows.iter().map(|_| Vec::new()).collect();
    for (site, (_, column)) in sites.iter().zip(columns) {
        for (row, visit) in records.iter_mut().zip(&column.visits) {
            if let Ok(Some(visit)) = visit {
                row.push(column.record(visit, site.category));
            }
        }
    }
    let mut records = records.into_iter();
    let baseline = records.next().expect("row 0 is the baseline");
    // The app rows, in row order: `flatten` skips the baseline's `None`.
    let per_app = rows
        .iter()
        .flatten()
        .map(|profile| profile.app_name.to_owned())
        .zip(records)
        .collect();

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

/// Figure 6 for row `row`, read off the site columns: tally each of the
/// row's visits' hosts that the same site's baseline visit did not
/// contact, by kind, then fold through the crawler crate's
/// [`figure6_row`] — identical accumulation order to the string-path
/// oracle, hence bit-identical averages. Visits whose baseline is missing
/// (site failed in the shell row) are skipped, mirroring the oracle's
/// behavior for sites absent from the baseline.
fn figure6_interned(
    row: usize,
    columns: &[(usize, SiteColumn)],
    sites: &[TopSite],
) -> Vec<Figure6Row> {
    let mut per_cat: BTreeMap<SiteCategory, Vec<BTreeMap<EndpointKind, usize>>> =
        SiteCategory::ALL.iter().map(|&c| (c, Vec::new())).collect();
    for (site, (_, column)) in sites.iter().zip(columns) {
        let (Some(visit), Some(base)) = (column.completed(row), column.completed(0)) else {
            continue;
        };
        let (base, _) = column.hosts(base);
        let mut kinds: BTreeMap<EndpointKind, usize> = BTreeMap::new();
        let (hosts, host_kinds) = column.hosts(visit);
        for (h, k) in hosts.iter().zip(host_kinds) {
            if !base.contains(h) {
                *kinds.entry(*k).or_insert(0) += 1;
            }
        }
        per_cat
            .get_mut(&site.category)
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
