//! The crawl pipeline's determinism and fault-isolation contracts.
//!
//! * parallel == serial: `run_crawl_pipeline` is bit-identical to its
//!   one-worker run at every worker count and over site subsets —
//!   records, figures, failure list, and visit counts;
//! * interned == string oracle: resolving the interned records and folding
//!   the interned figures reproduces exactly what the string-path
//!   `crawl_app`/`crawl_baseline`/`figure6` oracle computes;
//! * fault isolation: a poisoned site panics its visits, the run
//!   completes, and the failures land in the taxonomy; a visit that panics
//!   inside its site's column costs only itself; visits with empty
//!   netlogs fail in matrix order, and the figures skip them;
//! * the whole 100-site crawl through all ten apps is pinned by digest at
//!   1, 2 and 8 workers.

use std::collections::{BTreeMap, BTreeSet};
use wla_crawler::classify::EndpointKind;
use wla_crawler::driver::{run_visit_prepared, VisitObservation, BASELINE_APP};
use wla_crawler::sites::{top_100_sites, TopSite};
use wla_device::iab::all_profiles;
use wla_dynamic::{
    run_crawl_pipeline, run_crawl_pipeline_with, CrawlConfig, CrawlFailureKind, CrawlOutput,
    VisitRecord,
};
use wla_oracle::crawl::{
    classify_endpoint, crawl_app, crawl_baseline, endpoint_label, figure6, CrawlRecord,
};

const APPS: &[&str] = &["LinkedIn", "Kik", "Snapchat"];

fn subset(n: usize, step: usize) -> Vec<TopSite> {
    top_100_sites().into_iter().step_by(step).take(n).collect()
}

/// Structural bit-identity between two study outputs: every record,
/// figure, failure, and the visit counters. Symbol tables are compared
/// through the records they resolve.
fn assert_identical(a: &CrawlOutput, b: &CrawlOutput) {
    assert_eq!(a.baseline, b.baseline);
    assert_eq!(a.per_app, b.per_app);
    assert_eq!(a.figures, b.figures);
    assert_eq!(a.failures, b.failures);
    assert_eq!(a.stats.visits_total, b.stats.visits_total);
    assert_eq!(a.stats.visits_completed, b.stats.visits_completed);
    assert_eq!(a.stats.visits_panicked, b.stats.visits_panicked);
    assert_eq!(a.stats.failure_kinds, b.stats.failure_kinds);
    assert_eq!(a.stats.steps_executed, b.stats.steps_executed);
    assert_eq!(a.stats.requests_logged, b.stats.requests_logged);
    assert_eq!(a.symbols.len(), b.symbols.len());
    for (ra, rb) in a.baseline.iter().zip(&b.baseline) {
        assert_eq!(a.symbols.resolve(ra.site), b.symbols.resolve(rb.site));
        for (&ha, &hb) in ra.hosts.iter().zip(&rb.hosts) {
            assert_eq!(a.symbols.resolve(ha), b.symbols.resolve(hb));
        }
    }
}

#[test]
fn parallel_matches_serial_at_every_worker_count() {
    let sites = subset(12, 7);
    let serial = run_crawl_pipeline(&sites, Some(APPS), CrawlConfig { workers: 1 });
    assert_eq!(serial.stats.visits_total, 4 * 12);
    for workers in 2..=8 {
        let parallel = run_crawl_pipeline(&sites, Some(APPS), CrawlConfig { workers });
        // Explicit worker counts are honoured, so the pool is exactly as
        // requested — real threads even past the host's cores.
        assert_eq!(parallel.stats.workers.len(), workers);
        assert_identical(&serial, &parallel);
    }
}

#[test]
fn site_subsets_preserve_equivalence() {
    for (n, step) in [(1, 1), (5, 19), (20, 5)] {
        let sites = subset(n, step);
        let serial = run_crawl_pipeline(&sites, Some(&["LinkedIn"]), CrawlConfig { workers: 1 });
        let parallel = run_crawl_pipeline(&sites, Some(&["LinkedIn"]), CrawlConfig { workers: 4 });
        assert_identical(&serial, &parallel);
    }
}

#[test]
fn interned_study_matches_string_oracle() {
    let sites = subset(15, 6);
    let study = run_crawl_pipeline(&sites, Some(APPS), CrawlConfig { workers: 1 });
    let baseline = crawl_baseline(&sites);

    // Baseline host sets resolve to exactly the oracle's.
    assert_eq!(study.baseline.len(), baseline.len());
    for (interned, oracle) in study.baseline.iter().zip(&baseline) {
        assert_eq!(study.symbols.resolve(interned.site), oracle.site_host);
        let resolved: BTreeSet<&str> = interned
            .hosts
            .iter()
            .map(|&h| study.symbols.resolve(h))
            .collect();
        let expect: BTreeSet<&str> = oracle.hosts.iter().map(String::as_str).collect();
        assert_eq!(resolved, expect);
        // Kinds match a one-by-one reclassification.
        for (&h, &k) in interned.hosts.iter().zip(&interned.kinds) {
            assert_eq!(
                k,
                classify_endpoint(study.symbols.resolve(h), &oracle.site_host)
            );
        }
    }

    // Per-app records and figures are bit-identical to the string path.
    for profile in all_profiles() {
        if !APPS.contains(&profile.app_name) {
            continue;
        }
        let records = crawl_app(&profile, &sites);
        let interned = &study.per_app[profile.app_name];
        assert_eq!(interned.len(), records.len());
        for (i, o) in interned.iter().zip(&records) {
            assert_eq!(study.symbols.resolve(i.app), o.app);
            let resolved: BTreeSet<&str> =
                i.hosts.iter().map(|&h| study.symbols.resolve(h)).collect();
            let expect: BTreeSet<&str> = o.hosts.iter().map(String::as_str).collect();
            assert_eq!(resolved, expect);
        }
        // f64-exact figure equality: both paths fold through figure6_row.
        assert_eq!(
            study.figures[profile.app_name],
            figure6(&records, &baseline)
        );
    }
}

/// Silence the default panic hook for the injected-panic tests so the
/// expected backtraces don't pollute test output.
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
fn poisoned_site_is_isolated_and_counted() {
    quiet_injected_panics();
    let sites = subset(10, 3);
    let poisoned = sites[4].host.clone();
    for workers in [1, 4] {
        let run = run_crawl_pipeline_with(
            &sites,
            Some(&["Kik"]),
            CrawlConfig { workers },
            |site, page, profile, session| {
                if site.host == poisoned {
                    panic!("injected crawl fault for {}", site.host);
                }
                run_visit_prepared(site, page, profile, session)
            },
        );
        // Both rows (baseline + Kik) panicked on the poisoned site; every
        // other visit completed.
        assert_eq!(run.stats.visits_total, 20);
        assert_eq!(run.stats.visits_panicked, 2);
        assert_eq!(run.stats.visits_completed, 18);
        assert_eq!(
            run.stats
                .failure_kinds
                .get(CrawlFailureKind::VisitPanic.label()),
            Some(&2)
        );
        assert_eq!(run.failures.len(), 2);
        for failure in &run.failures {
            assert_eq!(failure.site_host, poisoned);
            assert_eq!(failure.kind, CrawlFailureKind::VisitPanic);
            assert!(failure.message.contains("injected"), "{failure:?}");
        }
        // The poisoned site is absent from records; the rest survived.
        assert_eq!(run.baseline.len(), 9);
        assert_eq!(run.per_app["Kik"].len(), 9);
        assert!(run
            .baseline
            .iter()
            .all(|r| run.symbols.resolve(r.site) != poisoned));
        // Figures still cover every category.
        assert_eq!(run.figures["Kik"].len(), 10);
    }
}

#[test]
fn poisoned_runs_stay_deterministic_across_worker_counts() {
    quiet_injected_panics();
    let sites = subset(8, 11);
    let poisoned = sites[2].host.clone();
    let run_with = |workers| {
        run_crawl_pipeline_with(
            &sites,
            Some(&["LinkedIn"]),
            CrawlConfig { workers },
            |site, page, profile, session| {
                if site.host == poisoned {
                    panic!("injected crawl fault");
                }
                run_visit_prepared(site, page, profile, session)
            },
        )
    };
    let serial = run_with(1);
    assert_eq!(serial.stats.visits_panicked, 2);
    for workers in [2, 5, 8] {
        assert_identical(&serial, &run_with(workers));
    }
}

/// Every completed visit of `out`, keyed by `(row, site)` (the row is the
/// app package, or the baseline's), with its category and its hosts and
/// kinds resolved, in record order.
type ResolvedCells = BTreeMap<(String, String), (&'static str, Vec<(String, EndpointKind)>)>;

fn resolved_cells(out: &CrawlOutput) -> ResolvedCells {
    out.baseline
        .iter()
        .chain(out.per_app.values().flatten())
        .map(|r| {
            let hosts = r
                .hosts
                .iter()
                .zip(&r.kinds)
                .map(|(&h, &k)| (out.symbols.resolve(h).to_owned(), k))
                .collect();
            let key = (
                out.symbols.resolve(r.app).to_owned(),
                out.symbols.resolve(r.site).to_owned(),
            );
            (key, (r.category.label(), hosts))
        })
        .collect()
}

#[test]
fn a_visit_panicking_inside_its_column_fails_alone() {
    quiet_injected_panics();
    let sites = subset(10, 3);
    let poisoned = sites[4].host.clone();
    let kik = all_profiles()
        .into_iter()
        .find(|p| p.app_name == "Kik")
        .expect("Kik is a Table 8 app")
        .package;
    let mut expect = resolved_cells(&run_crawl_pipeline(
        &sites,
        None,
        CrawlConfig { workers: 1 },
    ));
    assert_eq!(expect.len(), 11 * 10);
    assert!(expect.remove(&(kik.to_owned(), poisoned.clone())).is_some());
    for workers in [1, 2, 8] {
        let run = run_crawl_pipeline_with(
            &sites,
            None,
            CrawlConfig { workers },
            |site, page, profile, session| {
                let obs = run_visit_prepared(site, page, profile, session);
                if site.host == poisoned && profile.is_some_and(|p| p.app_name == "Kik") {
                    assert!(session.requests_logged() > 0);
                    panic!("injected fault after the visit logged its requests");
                }
                obs
            },
        );
        // Only Kik's visit of the site failed: the site's baseline and
        // other apps, and every other site, are the clean run's, host for
        // host.
        assert_eq!(run.stats.visits_panicked, 1, "{workers} workers");
        assert_eq!(run.stats.visits_completed, 11 * 10 - 1);
        assert_eq!(run.failures.len(), 1);
        let failure = &run.failures[0];
        assert_eq!(
            (
                failure.app.as_str(),
                failure.site_host.as_str(),
                failure.kind
            ),
            (kik, poisoned.as_str(), CrawlFailureKind::VisitPanic)
        );
        assert!(failure.message.contains("injected"), "{failure:?}");
        assert_eq!(resolved_cells(&run), expect, "{workers} workers");
        assert!(run.baseline.len() == 10 && run.per_app["Kik"].len() == 9);
    }
}

/// Visits whose netlog captured nothing fail as `EmptyNetlog`, listed in
/// matrix order (row by row, then site by site) whichever column they sit
/// in; the figures fold only the completed visits whose site's baseline
/// completed, as the string oracle does over the same cells.
#[test]
fn empty_netlogs_fail_their_visits_in_matrix_order() {
    let sites = subset(6, 5);
    // `(row app, site index)`: the baseline's last site, then LinkedIn's
    // and Kik's earlier ones.
    let empty = [(None, 5), (Some("LinkedIn"), 2), (Some("Kik"), 0)];
    let index = |host: &str| sites.iter().position(|s| s.host == host).unwrap();
    let profiles = all_profiles();
    let profile = |app: &str| profiles.iter().find(|p| p.app_name == app).unwrap();
    let keep = |records: Vec<CrawlRecord>, app: Option<&str>| -> Vec<CrawlRecord> {
        records
            .into_iter()
            .filter(|r| !empty.contains(&(app, index(&r.site_host))))
            .collect()
    };
    let baseline = keep(crawl_baseline(&sites), None);
    for workers in [1, 3] {
        let run = run_crawl_pipeline_with(
            &sites,
            Some(APPS),
            CrawlConfig { workers },
            |site, page, row, session| {
                if empty.contains(&(row.map(|p| p.app_name), index(&site.host))) {
                    // The visit never loads the page: nothing is logged.
                    let source_id = session.allocate_source_id();
                    return VisitObservation {
                        source_id,
                        steps: 0,
                    };
                }
                run_visit_prepared(site, page, row, session)
            },
        );
        let failed: Vec<(&str, &str, CrawlFailureKind, &str)> = run
            .failures
            .iter()
            .map(|f| {
                (
                    f.app.as_str(),
                    f.site_host.as_str(),
                    f.kind,
                    f.message.as_str(),
                )
            })
            .collect();
        let empty_netlog = CrawlFailureKind::EmptyNetlog;
        assert_eq!(
            failed,
            [
                (BASELINE_APP, sites[5].host.as_str(), empty_netlog, ""),
                (
                    profile("LinkedIn").package,
                    &sites[2].host,
                    empty_netlog,
                    ""
                ),
                (profile("Kik").package, &sites[0].host, empty_netlog, ""),
            ],
            "{workers} workers"
        );
        assert_eq!(run.stats.visits_completed, 4 * 6 - 3);
        assert_eq!(run.stats.visits_panicked, 0);
        assert_eq!(run.stats.failure_kinds.get(empty_netlog.label()), Some(&3));
        assert_eq!(run.baseline.len(), baseline.len());
        for app in APPS {
            let records = keep(crawl_app(profile(app), &sites), Some(app));
            assert_eq!(run.per_app[*app].len(), records.len(), "{app}");
            assert_eq!(run.figures[*app], figure6(&records, &baseline), "{app}");
        }
    }
}

/// The whole crawl — `top_100_sites()` through all ten apps and the
/// baseline — pinned at 1, 2 and 8 workers by a plain FNV-1a-64 over:
/// every record of the baseline, then of each app in map order after the
/// app's name (`app` and `site` each as its raw id, little-endian `u32`,
/// then its text; the category label; the host count as a `u32`; each
/// host's raw id, text and kind label); then each app's figure rows after
/// its name (category label, `avg_endpoints` bits, each `by_kind` kind
/// label and value bits); then the failure count and the symbol-table
/// length as `u64`s. Raw ids are hashed, so the pin also holds the
/// row-major order of the merged symbol table.
#[test]
fn the_whole_crawl_is_pinned() {
    fn fnv(hash: &mut u64, bytes: &[u8]) {
        for &byte in bytes {
            *hash = (*hash ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
        }
    }
    let sites = top_100_sites();
    for workers in [1, 2, 8] {
        let out = run_crawl_pipeline(&sites, None, CrawlConfig { workers });
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let record = |hash: &mut u64, r: &VisitRecord| {
            for sym in [r.app, r.site] {
                fnv(hash, &sym.raw().to_le_bytes());
                fnv(hash, out.symbols.resolve(sym).as_bytes());
            }
            fnv(hash, r.category.label().as_bytes());
            fnv(hash, &(r.hosts.len() as u32).to_le_bytes());
            for (&host, &kind) in r.hosts.iter().zip(&r.kinds) {
                fnv(hash, &host.raw().to_le_bytes());
                fnv(hash, out.symbols.resolve(host).as_bytes());
                fnv(hash, endpoint_label(kind).as_bytes());
            }
        };
        for r in &out.baseline {
            record(&mut hash, r);
        }
        for (app, records) in &out.per_app {
            fnv(&mut hash, app.as_bytes());
            for r in records {
                record(&mut hash, r);
            }
        }
        for (app, rows) in &out.figures {
            fnv(&mut hash, app.as_bytes());
            for row in rows {
                fnv(&mut hash, row.category.label().as_bytes());
                fnv(&mut hash, &row.avg_endpoints.to_bits().to_le_bytes());
                for (kind, value) in &row.by_kind {
                    fnv(&mut hash, endpoint_label(*kind).as_bytes());
                    fnv(&mut hash, &value.to_bits().to_le_bytes());
                }
            }
        }
        fnv(&mut hash, &(out.failures.len() as u64).to_le_bytes());
        fnv(&mut hash, &(out.symbols.len() as u64).to_le_bytes());
        let records = out.baseline.len() + out.per_app.values().map(Vec::len).sum::<usize>();
        assert_eq!(
            (records, out.symbols.len(), out.failures.len()),
            (1_100, 146, 0),
            "{workers} workers"
        );
        assert_eq!(
            out.symbols.resolve(out.baseline[0].app),
            BASELINE_APP,
            "{workers} workers"
        );
        assert_eq!(
            format!("{hash:016x}"),
            "2db9fd13a5f8d381",
            "{workers} workers"
        );
    }
}
