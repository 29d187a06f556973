//! What a `run_pipeline` output holds on the heap, counted by a global
//! allocator that tallies live bytes and blocks.
//!
//! The output is measured as the difference between the live heap with
//! the output alive and after dropping it, so nothing else the run left
//! behind is counted. The measurements hold one lock, and the pool's
//! workers have joined before `run_pipeline` returns, so no other thread
//! allocates in between.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::Mutex;
use wla_corpus::{CorpusConfig, Generator};
use wla_sdk_index::SdkIndex;
use wla_static::{run_pipeline, PipelineConfig};

/// The system allocator, counting live bytes and blocks.
struct Counting;

static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);
static LIVE_BLOCKS: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`; the counters
// only observe the layouts.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size() as isize, Ordering::Relaxed);
        LIVE_BLOCKS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        LIVE_BLOCKS.fetch_sub(1, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE_BYTES.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
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

/// Bytes and heap blocks the `run_pipeline` output of the `scale`
/// corpus at `wla`'s default seed holds, run on two workers.
///
/// The worker count is pinned because it shows in the footprint: each
/// worker's table ends with one partial segment of a few blocks, so an
/// output holds a few blocks more per worker whatever the host's core
/// count. The bounds below were measured at two workers.
fn output_footprint(scale: u32) -> (usize, usize) {
    static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let catalog = SdkIndex::paper();
    let apps = Generator::new(
        &catalog,
        CorpusConfig {
            scale,
            seed: 0xDA7A_5EED,
            ..CorpusConfig::default()
        },
    )
    .generate();
    let config = PipelineConfig {
        workers: 2,
        ..PipelineConfig::default()
    };
    let out = run_pipeline(&apps, &catalog, config);
    let (bytes, blocks) = live();
    drop(out);
    let (bytes_after, blocks_after) = live();
    let held = (
        (bytes - bytes_after) as usize,
        (blocks - blocks_after) as usize,
    );
    eprintln!(
        "1:{scale}: {} apps, output holds {} bytes ({:.1} KiB) in {} heap blocks",
        apps.len(),
        held.0,
        held.0 as f64 / 1024.0,
        held.1
    );
    held
}

/// At 1:100 the output holds at most 360 KiB in at most 315 heap blocks.
/// Per-app allocations (a `String` or a boxed slice per app) would put it
/// past the block bound at once: the corpus has 1,468 apps.
#[test]
fn output_holds_no_per_app_allocation() {
    let (bytes, blocks) = output_footprint(100);
    assert!(bytes <= 360 * 1024, "output holds {bytes} bytes");
    assert!(blocks <= 315, "output holds {blocks} heap blocks");
}

/// The scale-10 bound (14,680 apps): at most 3.2 MiB in at most 3,200
/// heap blocks. Ignored in debug runs; run with
/// `cargo test --release -p wla-static --test output_footprint -- --ignored`.
#[test]
#[ignore = "scale 10: run in release mode"]
fn scale_10_output_footprint() {
    let (bytes, blocks) = output_footprint(10);
    assert!(bytes <= 3_355_443, "output holds {bytes} bytes");
    assert!(blocks <= 3_200, "output holds {blocks} heap blocks");
}
