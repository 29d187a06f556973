//! What the crawl holds on the heap, counted by a global allocator that
//! tallies live bytes and the peak of live bytes.
//!
//! A crawl is measured twice: as the most it adds, at any moment of its
//! run, above the live heap that holds its inputs, and as what its
//! `CrawlOutput` holds (the live heap with the output alive, less the live
//! heap after dropping it). Each measurement holds one lock, and the
//! pool's workers have joined before the runner returns, so no other
//! thread allocates in between.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use wla_crawler::sites::top_100_sites;
use wla_dynamic::{run_crawl_pipeline, CrawlConfig};

/// The system allocator, counting live bytes and their peak.
struct Counting;

static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);
static PEAK_BYTES: AtomicIsize = AtomicIsize::new(0);

/// Add `by` to the live bytes and raise the peak to the new total.
fn grow(by: isize) {
    let live = LIVE_BYTES.fetch_add(by, Ordering::Relaxed) + by;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`; the counters
// only observe the layouts.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// One measurement at a time: the counters see every thread.
fn one_at_a_time() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// The most live heap the 100-site crawl through all ten apps and the
/// baseline adds above its inputs on `workers` workers, and the bytes its
/// output holds.
fn crawl_footprint(workers: usize) -> (usize, usize) {
    let _serial = one_at_a_time();
    let sites = top_100_sites();
    let inputs = LIVE_BYTES.load(Ordering::Relaxed);
    PEAK_BYTES.store(inputs, Ordering::Relaxed);
    let out = run_crawl_pipeline(&sites, None, CrawlConfig { workers });
    let peak = (PEAK_BYTES.load(Ordering::Relaxed) - inputs) as usize;
    assert_eq!(out.stats.visits_completed, 1_100);
    assert_eq!(out.stats.workers.len(), workers);
    let with_output = LIVE_BYTES.load(Ordering::Relaxed);
    drop(out);
    let held = (with_output - LIVE_BYTES.load(Ordering::Relaxed)) as usize;
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
