//! The most the static runners add to the live heap at any moment of a
//! run, counted by a global allocator that tallies live bytes and their
//! peak.
//!
//! A `run_pipeline_tallied` fold is measured as the most it adds above
//! the live heap that holds its inputs; a `run_pipeline` run as the most
//! it adds above its inputs and the output it returns, which is what its
//! workers and its join hold only for a while. The counters see every
//! thread, so each test holds one lock (`one_at_a_time`) through its
//! measurements, as the other heap tests do: `--include-ignored` runs
//! the 1:100 test and the scale-10 one on two threads, and without the
//! lock one's peak would count the other's run. The pool's workers have
//! joined before a runner returns.

mod common;

use common::{corpus, live, one_at_a_time, peak_above, reset_peak, Counting, TWO_WORKERS};
use wla_sdk_index::SdkIndex;
use wla_static::{run_pipeline, run_pipeline_tallied};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The most live heap a two-worker `run_pipeline_tallied` over the `scale`
/// corpus adds, at any moment of its run, above the heap that holds the
/// corpus and the catalog.
///
/// What a fold needs is per worker: its context, its tally, and one app
/// in flight. A `Vec` or a lexicon that keeps something per app, or per
/// distinct name the corpus holds, grows with the corpus instead.
fn fold_peak(scale: u32) -> usize {
    let catalog = SdkIndex::paper();
    let apps = corpus(&catalog, scale);
    let from = reset_peak();
    let results = run_pipeline_tallied(&apps, &catalog, TWO_WORKERS, 1);
    let peak = peak_above(from);
    drop(results);
    eprintln!(
        "1:{scale}: {} apps, the fold peaks {peak} bytes ({:.1} KiB) above its inputs",
        apps.len(),
        peak as f64 / 1024.0
    );
    peak
}

/// The most live heap a two-worker `run_pipeline` over the `scale` corpus
/// adds, at any moment of its run, above the heap that holds the corpus,
/// the catalog and the output it returns.
///
/// Beyond the output, a run holds each worker's context while the pool
/// runs, and the join holds the workers' lexicons and the merge's
/// per-symbol tables while it builds the output's symbol table.
fn keep_output_peak(scale: u32) -> usize {
    let catalog = SdkIndex::paper();
    let apps = corpus(&catalog, scale);
    let from = reset_peak();
    let out = run_pipeline(&apps, &catalog, TWO_WORKERS);
    let peak = peak_above(from);
    let with_output = live().0;
    drop(out);
    let output = (with_output - live().0) as usize;
    let above = peak - output;
    eprintln!(
        "1:{scale}: {} apps, run_pipeline peaks {above} bytes ({:.1} KiB) above its inputs \
         and its {output}-byte output",
        apps.len(),
        above as f64 / 1024.0
    );
    above
}

/// At 1:100 (1,468 apps):
///
/// * a `run_pipeline` run peaks at most 256 KiB above its inputs and its
///   output (205–217 KiB now, as the two workers' claims interleave;
///   155–197 KiB while sites stored their caller package, since the
///   output this subtracts shrank more than the pool's peak did; 336 KiB
///   when the join merged through the workers' indexed lexicons and a
///   16-byte-per-symbol rank list, and sites and rows were 4 bytes wider);
/// * the fold peaks at most 160 KiB above its inputs (~95–102 KiB now),
///   and at most 64 KiB higher than at 1:1000 (146 apps): ten times the
///   apps hold no more. Which apps the two workers have in flight together
///   sets most of the fold's peak, so the 1:1000 run, with three batches to
///   schedule, spreads 64–88 KiB. Keeping 50 bytes or more per app fails it.
#[test]
fn static_runners_peak_within_their_bounds() {
    let _serial = one_at_a_time();
    let kept = keep_output_peak(100);
    assert!(
        kept <= 256 * 1024,
        "the 1:100 run_pipeline peaks {kept} bytes above its output"
    );
    let small = fold_peak(1_000);
    let large = fold_peak(100);
    assert!(large <= 160 * 1024, "the 1:100 fold peaks {large} bytes");
    assert!(
        large <= small + 64 * 1024,
        "the fold peaks {small} bytes at 1:1000 and {large} at 1:100"
    );
}

/// The scale-10 bounds (14,680 apps): a `run_pipeline` run peaks at most
/// 1.5 MiB above its inputs and its output (1.06–1.39 MiB now, 1.12–1.23
/// MiB while sites stored their caller package; 2.0–2.4 MiB with the
/// merge and the records the 1:100 bound describes), and the fold at most
/// 160 KiB above its inputs (~113–130 KiB now). Ignored in debug runs;
/// run with `cargo test --release --test run_peaks -- --include-ignored`.
#[test]
#[ignore = "scale 10: run in release mode"]
fn scale_10_static_runners_peak_within_their_bounds() {
    let _serial = one_at_a_time();
    let kept = keep_output_peak(10);
    assert!(
        kept <= 1536 * 1024,
        "the scale-10 run_pipeline peaks {kept} bytes above its output"
    );
    let fold = fold_peak(10);
    assert!(fold <= 160 * 1024, "the scale-10 fold peaks {fold} bytes");
}
