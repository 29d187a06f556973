//! What the static runners hold on the heap, counted by a global
//! allocator that tallies live bytes and blocks and the peak of live
//! bytes.
//!
//! A `run_pipeline` output is measured as the difference between the live
//! heap with the output alive and after dropping it, so nothing else the
//! run left behind is counted. A `run_pipeline_tallied` fold is measured
//! as the most it adds, at any moment of its run, above the live heap
//! that holds its inputs. The measurements hold one lock, and the pool's
//! workers have joined before a runner returns, so no other thread
//! allocates in between.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use wla_corpus::{CorpusConfig, GeneratedApp, Generator};
use wla_sdk_index::SdkIndex;
use wla_static::{run_pipeline, run_pipeline_tallied, PipelineConfig};

/// The system allocator, counting live bytes and blocks and the peak of
/// live bytes.
struct Counting;

static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);
static LIVE_BLOCKS: AtomicIsize = AtomicIsize::new(0);
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
        LIVE_BLOCKS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        LIVE_BLOCKS.fetch_sub(1, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn live() -> (isize, isize) {
    (
        LIVE_BYTES.load(Ordering::Relaxed),
        LIVE_BLOCKS.load(Ordering::Relaxed),
    )
}

/// One measurement at a time: the counters see every thread.
fn one_at_a_time() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// The `scale` corpus at `wla`'s default seed.
fn corpus(catalog: &SdkIndex, scale: u32) -> Vec<GeneratedApp> {
    let config = CorpusConfig {
        scale,
        seed: 0xDA7A_5EED,
        ..CorpusConfig::default()
    };
    Generator::new(catalog, config).generate()
}

/// What the 1:100 corpus at `wla`'s default seed holds on the heap
/// beyond its container bytes, measured as what dropping it frees: ≤ 112
/// bytes an app (its 80-byte entry and its 22-byte package name, ~102
/// now) in ≤ 2 blocks an app (its bytes and its name) plus the `Vec`'s
/// buffer. An entry that kept its whole `AppSpec` held ~237 bytes in
/// ~2.9 blocks an app.
#[test]
fn a_corpus_holds_its_containers_and_little_else() {
    let _serial = one_at_a_time();
    let catalog = SdkIndex::paper();
    let apps = corpus(&catalog, 100);
    let n = apps.len();
    let containers: usize = apps.iter().map(|a| a.bytes.len()).sum();
    let (bytes, blocks) = live();
    drop(apps);
    let (bytes_after, blocks_after) = live();
    let beyond = (bytes - bytes_after) as usize - containers;
    let blocks = (blocks - blocks_after) as usize;
    eprintln!(
        "1:100: {n} apps, {containers} container bytes; {beyond} bytes beyond them \
         ({:.1} an app) in {blocks} heap blocks ({:.2} an app)",
        beyond as f64 / n as f64,
        blocks as f64 / n as f64
    );
    assert!(beyond <= 112 * n, "{beyond} bytes beyond the containers");
    assert!(blocks <= 2 * n + 1, "{blocks} heap blocks");
}

fn workers(workers: usize) -> PipelineConfig {
    PipelineConfig { workers }
}

/// Two workers: the bounds below were measured at two.
fn two_workers() -> PipelineConfig {
    workers(2)
}

/// Bytes and heap blocks the `run_pipeline` output of the `scale`
/// corpus at `wla`'s default seed holds, run on `config.workers` workers,
/// and the bytes its `stats.result_bytes` reports.
///
/// The output holds one exact-size table per 64-app claim, so what it
/// holds does not depend on the worker count
/// (`output_footprint_does_not_depend_on_the_worker_count`); the bounds
/// below were measured at two workers.
fn output_footprint(scale: u32, config: PipelineConfig) -> (usize, usize, usize) {
    let _serial = one_at_a_time();
    let catalog = SdkIndex::paper();
    let apps = corpus(&catalog, scale);
    let out = run_pipeline(&apps, &catalog, config);
    assert_eq!(
        out.stats.workers.len(),
        config.workers,
        "a claim per worker"
    );
    let reported = out.stats.result_bytes;
    let (bytes, blocks) = live();
    drop(out);
    let (bytes_after, blocks_after) = live();
    let held = (
        (bytes - bytes_after) as usize,
        (blocks - blocks_after) as usize,
    );
    eprintln!(
        "1:{scale}, {} workers: {} apps, output holds {} bytes ({:.1} KiB) in {} heap blocks \
         ({reported} bytes reported)",
        config.workers,
        apps.len(),
        held.0,
        held.0 as f64 / 1024.0,
        held.1
    );
    (held.0, held.1, reported)
}

/// At 1:100 the output holds at most 360 KiB in at most 315 heap blocks.
/// Per-app allocations (a `String` or a boxed slice per app) would put it
/// past the block bound at once: the corpus has 1,468 apps.
#[test]
fn output_holds_no_per_app_allocation() {
    let (bytes, blocks, _) = output_footprint(100, two_workers());
    assert!(bytes <= 360 * 1024, "output holds {bytes} bytes");
    assert!(blocks <= 315, "output holds {blocks} heap blocks");
}

/// What the output holds is what the run computed, not how it was
/// scheduled: at 1:100 (1,468 apps, 23 batches) the bytes its
/// `stats.result_bytes` reports and the heap blocks it holds are the same
/// at 1, 2 and 8 workers. (The counted bytes also hold the run stats'
/// per-worker counters, 16 bytes a worker.)
#[test]
fn output_footprint_does_not_depend_on_the_worker_count() {
    let footprint = |n| {
        let (_, blocks, reported) = output_footprint(100, workers(n));
        (reported, blocks)
    };
    let one = footprint(1);
    for n in [2, 8] {
        assert_eq!(footprint(n), one, "{n} workers");
    }
}

/// The scale-10 bound (14,680 apps): at most 3.2 MiB in at most 3,200
/// heap blocks. Ignored in debug runs; run with
/// `cargo test --release --test output_footprint -- --ignored`.
#[test]
#[ignore = "scale 10: run in release mode"]
fn scale_10_output_footprint() {
    let (bytes, blocks, _) = output_footprint(10, two_workers());
    assert!(bytes <= 3_355_443, "output holds {bytes} bytes");
    assert!(blocks <= 3_200, "output holds {blocks} heap blocks");
}

/// The most live heap a two-worker `run_pipeline_tallied` over the `scale`
/// corpus at `wla`'s default seed adds, at any moment of its run, above
/// the heap that holds the corpus and the catalog.
///
/// What a fold needs is per worker: its context, its tally, and one app
/// in flight. A `Vec` or a lexicon that keeps something per app, or per
/// distinct name the corpus holds, grows with the corpus instead.
fn fold_peak(scale: u32) -> usize {
    let _serial = one_at_a_time();
    let catalog = SdkIndex::paper();
    let apps = corpus(&catalog, scale);
    let (inputs, _) = live();
    PEAK_BYTES.store(inputs, Ordering::Relaxed);
    let results = run_pipeline_tallied(&apps, &catalog, two_workers(), 1);
    let peak = (PEAK_BYTES.load(Ordering::Relaxed) - inputs) as usize;
    drop(results);
    eprintln!(
        "1:{scale}: {} apps, the fold peaks {} bytes ({:.1} KiB) above its inputs",
        apps.len(),
        peak,
        peak as f64 / 1024.0
    );
    peak
}

/// At 1:100 (1,468 apps) the fold peaks at most 160 KiB above its
/// inputs (~107 KiB now), and at most 64 KiB higher than at 1:1000 (146
/// apps): ten times the apps hold no more. Which apps the two workers
/// have in flight together sets most of the peak, so the 1:1000 run,
/// with three batches to schedule, spreads 72–88 KiB; the 1:100 one,
/// 101–107 KiB. Keeping 50 bytes or more per app fails it.
#[test]
fn fold_peak_does_not_grow_with_the_corpus() {
    let small = fold_peak(1_000);
    let large = fold_peak(100);
    assert!(large <= 160 * 1024, "the 1:100 fold peaks {large} bytes");
    assert!(
        large <= small + 64 * 1024,
        "the fold peaks {small} bytes at 1:1000 and {large} at 1:100"
    );
}

/// The scale-10 bound (14,680 apps): the fold peaks at most 160 KiB
/// above its inputs (~130 KiB now). Ignored in debug runs; run with
/// `cargo test --release --test output_footprint -- --ignored`.
#[test]
#[ignore = "scale 10: run in release mode"]
fn scale_10_fold_peak() {
    let peak = fold_peak(10);
    assert!(peak <= 160 * 1024, "the scale-10 fold peaks {peak} bytes");
}
