//! What the crawl holds on the heap, counted by a global allocator that
//! tallies live bytes and the peak of live bytes.
//!
//! A crawl is measured twice: as the most it adds, at any moment of its
//! run, above the live heap that holds its inputs, and as what its
//! `CrawlOutput` holds (the live heap with the output alive, less the live
//! heap after dropping it). Each measurement holds one lock, and the
//! pool's workers have joined before the runner returns, so no other
//! thread allocates in between.

mod common;

use common::{live, one_at_a_time, peak_above, reset_peak, Counting};
use wla_crawler::sites::top_100_sites;
use wla_dynamic::{run_crawl_pipeline, CrawlConfig};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The most live heap the 100-site crawl through all ten apps and the
/// baseline adds above its inputs on `workers` workers, and the bytes its
/// output holds.
fn crawl_footprint(workers: usize) -> (usize, usize) {
    let _serial = one_at_a_time();
    let sites = top_100_sites();
    let inputs = reset_peak();
    let out = run_crawl_pipeline(&sites, None, CrawlConfig { workers });
    let peak = peak_above(inputs);
    assert_eq!(out.stats.visits_completed, 1_100);
    assert_eq!(out.stats.workers.len(), workers);
    let with_output = live().0;
    drop(out);
    let held = (with_output - live().0) as usize;
    eprintln!(
        "{workers} workers: the crawl peaks {peak} bytes ({:.1} KiB) above its inputs; \
         its output holds {held} bytes ({:.1} KiB)",
        peak as f64 / 1024.0,
        held as f64 / 1024.0
    );
    (peak, held)
}

/// A worker holds one site's page, its memo entries and its column's
/// hosts at a time, so the crawl peaks at most 384 KiB above its inputs at
/// 1, 2 and 8 workers (~162–217 KiB now; 761–1,188 KiB when every page
/// lived the whole run and the join cloned every record). Its output holds
/// 136 KiB, within 5%: the records, their hosts, the figures and the
/// symbol table.
#[test]
fn the_crawl_holds_one_page_per_worker() {
    for workers in [1, 2, 8] {
        let (peak, held) = crawl_footprint(workers);
        assert!(
            peak <= 384 * 1024,
            "{workers} workers: the crawl peaks {peak} bytes above its inputs"
        );
        assert!(
            held.abs_diff(136 * 1024) <= 136 * 1024 / 20,
            "{workers} workers: the output holds {held} bytes"
        );
    }
}
