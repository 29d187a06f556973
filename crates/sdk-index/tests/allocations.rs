//! What building and querying the paper index costs on the heap, counted
//! by a global allocator that tallies, per thread, every allocation and
//! reallocation.
//!
//! The counter is thread-local, so the test harness's own threads (and
//! any other test in this binary) never touch the count a test reads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use wla_sdk_index::{LabelId, SdkIndex};

/// The system allocator, counting the calls that hand out a block.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`; the counter only
// observes that a call was made.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `f`'s result and the allocations this thread made while it ran.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

#[test]
fn the_paper_index_builds_in_a_handful_of_allocations() {
    let (index, allocations) = counted(SdkIndex::paper);
    assert_eq!(index.sdks().len(), 140);
    assert!(
        allocations <= 8,
        "SdkIndex::paper() made {allocations} allocations"
    );
}

#[test]
fn labeling_allocates_nothing() {
    let index = SdkIndex::paper();
    for (package, expect) in [
        ("org.nonexistent.thing.ui", LabelId::Unlabeled),
        ("a.b.c", LabelId::Obfuscated),
        ("com.google.android.gms.ads", LabelId::CoreAndroid),
        ("com.applovin.adview", LabelId::Sdk(0)),
    ] {
        let (label, allocations) = counted(|| index.label_id(package));
        assert_eq!(label, expect, "{package}");
        assert_eq!(allocations, 0, "label_id({package:?}) allocated");
    }
}
