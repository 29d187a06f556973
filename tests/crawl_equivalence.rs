//! The crawl pipeline's determinism and fault-isolation contracts.
//!
//! * parallel == serial: `run_crawl_pipeline` is bit-identical to its
//!   one-worker run at every worker count and over site subsets —
//!   records, figures, failure list, and visit counts;
//! * interned == string oracle: resolving the interned records and folding
//!   the interned figures reproduces exactly what the string-path
//!   `crawl_app`/`crawl_baseline`/`figure6` oracle computes;
//! * fault isolation: a poisoned site panics its visits, the run
//!   completes, and the failures land in the taxonomy.

use std::collections::BTreeSet;
use wla_crawler::driver::{crawl_app, crawl_baseline, figure6, run_visit_prepared};
use wla_crawler::sites::{top_100_sites, TopSite};
use wla_device::iab::all_profiles;
use wla_dynamic::{
    run_crawl_pipeline, run_crawl_pipeline_with, CrawlConfig, CrawlFailureKind, CrawlOutput,
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
                wla_crawler::classify_endpoint(study.symbols.resolve(h), &oracle.site_host)
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
