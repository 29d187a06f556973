//! Paper-scale workflow: persist a generated corpus as on-disk shards,
//! stream it through the analysis pipeline one shard buffer at a time,
//! check the results against the in-memory `Study::run_static`, print the
//! run stats (including the shard-streaming table), then run again to
//! show the resume manifest skipping every shard.
//!
//! ```sh
//! cargo run --release --example streamed_corpus -- /tmp/wla-shards 500
//! ```
//!
//! Reusing a directory is safe at any scale: a smaller corpus written
//! over a larger one removes the larger one's extra shards.

use std::path::Path;
use whatcha_lookin_at::stats::render_pipeline_stats;
use whatcha_lookin_at::wla_corpus::write_sharded_corpus;
use whatcha_lookin_at::wla_static::{
    aggregate, run_pipeline_streamed, PipelineConfig, PipelineStats, StudyResults, CLAIM_APPS,
};
use whatcha_lookin_at::Study;

/// Write `study`'s corpus as shards of `CLAIM_APPS` apps under `dir`,
/// stream them through the pipeline and aggregate the output as
/// `Study::run_static` does. The corpus is dropped once written.
fn run_streamed(study: &Study, dir: &Path) -> (StudyResults, PipelineStats) {
    write_sharded_corpus(dir, &study.corpus(), CLAIM_APPS).expect("shards written");
    let output = run_pipeline_streamed(dir, &study.catalog, PipelineConfig::default())
        .expect("streamed run");
    (aggregate(&output, &study.catalog, 1), output.stats)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let dir = std::path::PathBuf::from(args.next().unwrap_or_else(|| "/tmp/wla-shards".to_owned()));
    let scale: u32 = args.next().and_then(|a| a.parse().ok()).unwrap_or(500);

    let study = Study::new(scale, 2024);
    println!(
        "streaming a 1:{scale} scale corpus ({} apps) from shards under {} …\n",
        146_800 / scale,
        dir.display()
    );

    let (results, stats) = run_streamed(&study, &dir);
    println!("{}", render_pipeline_stats(&stats));
    let in_memory = study.run_static();
    assert_eq!(stats.total, in_memory.stats.total);
    assert_eq!(results, in_memory.results);
    println!(
        "\napps using WebViews: {} — identical to Study::run_static at any worker count",
        results.webview_apps
    );

    // Same dir, same seed: the deterministic generator re-persists
    // byte-identical shards, so this run is served from the manifest.
    let (resumed, resumed_stats) = run_streamed(&study, &dir);
    println!(
        "\nrerun: {} shards re-analyzed, {} entries served from the resume manifest",
        resumed_stats.stream.shards_read, resumed_stats.stream.entries_cached
    );
    assert_eq!(resumed, results);
    println!("results identical — safe to interrupt and resume paper-scale runs");
}
