//! What the corpus and a `run_pipeline` output hold on the heap, counted
//! by a global allocator that tallies live bytes and blocks.
//!
//! Each is measured as what dropping it frees, so nothing else a run left
//! behind is counted. The measurements hold one lock, and the pool's
//! workers have joined before a runner returns. `tests/run_peaks.rs`
//! bounds what the runners add while they run.

mod common;

use common::{corpus, live, one_at_a_time, Counting, TWO_WORKERS};
use wla_sdk_index::SdkIndex;
use wla_static::{run_pipeline, PipelineConfig};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

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

/// At 1:100 the output holds at most 272 KiB (~230 KiB now; ~274 KiB
/// while each site also stored its caller package) in at most 315 heap
/// blocks (121 now). Per-app allocations (a `String` or a boxed slice per
/// app) would put it past the block bound at once: the corpus has 1,468
/// apps.
#[test]
fn output_holds_no_per_app_allocation() {
    let (bytes, blocks, _) = output_footprint(100, TWO_WORKERS);
    assert!(bytes <= 272 * 1024, "output holds {bytes} bytes");
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
        let (_, blocks, reported) = output_footprint(100, PipelineConfig { workers: n });
        (reported, blocks)
    };
    let one = footprint(1);
    for n in [2, 8] {
        assert_eq!(footprint(n), one, "{n} workers");
    }
}

/// The scale-10 bound (14,680 apps): at most 2,513,000 B (~2.28 MB now;
/// ~2.72 MB while each site also stored its caller package) in at most
/// 3,200 heap blocks (1,183 now). Ignored in debug runs; run with
/// `cargo test --release --test output_footprint -- --include-ignored`.
#[test]
#[ignore = "scale 10: run in release mode"]
fn scale_10_output_footprint() {
    let (bytes, blocks, _) = output_footprint(10, TWO_WORKERS);
    assert!(bytes <= 2_513_000, "output holds {bytes} bytes");
    assert!(blocks <= 3_200, "output holds {blocks} heap blocks");
}
