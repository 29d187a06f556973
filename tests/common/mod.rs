//! What the root heap tests share: a global allocator that counts live
//! bytes, live blocks and the peak of live bytes, a lock that keeps
//! measurements apart, and the corpus at `wla`'s default seed.
//!
//! A test binary that measures the heap declares the allocator itself,
//! `#[global_allocator] static ALLOCATOR: Counting = Counting;`, and its
//! counters then see every thread of that binary.

// Each test binary uses part of this module.
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use wla_corpus::{CorpusConfig, GeneratedApp, Generator};
use wla_sdk_index::SdkIndex;
use wla_static::PipelineConfig;

/// The system allocator, counting live bytes, live blocks and the peak of
/// live bytes.
pub struct Counting;

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

/// Live bytes and live heap blocks now.
pub fn live() -> (isize, isize) {
    (
        LIVE_BYTES.load(Ordering::Relaxed),
        LIVE_BLOCKS.load(Ordering::Relaxed),
    )
}

/// Live bytes now; the peak starts again from here.
pub fn reset_peak() -> isize {
    let live = LIVE_BYTES.load(Ordering::Relaxed);
    PEAK_BYTES.store(live, Ordering::Relaxed);
    live
}

/// The peak since `reset_peak` returned `from`, above `from`.
pub fn peak_above(from: isize) -> usize {
    (PEAK_BYTES.load(Ordering::Relaxed) - from) as usize
}

/// One measurement at a time: the counters see every thread.
pub fn one_at_a_time() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// The `scale` corpus at `wla`'s default seed.
pub fn corpus(catalog: &SdkIndex, scale: u32) -> Vec<GeneratedApp> {
    let config = CorpusConfig {
        scale,
        seed: 0xDA7A_5EED,
        ..CorpusConfig::default()
    };
    Generator::new(catalog, config).generate()
}

/// Two workers: the static runners' heap bounds were measured at two.
pub const TWO_WORKERS: PipelineConfig = PipelineConfig { workers: 2 };
