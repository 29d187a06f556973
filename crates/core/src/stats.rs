//! Run-stats rendering: the tables `wla` prints beside the paper's
//! artifacts, drawn straight from the counters the runners fill —
//! [`PipelineStats`], [`CrawlStats`], [`ServerStatsSnapshot`] and
//! [`UrlOriginCensus`]. A new counter needs its field on the runner struct
//! and one row here; the benchmark reads the same structs, so the rendered
//! figures and the measured ones cannot drift apart.

use std::collections::BTreeMap;
use wla_dynamic::CrawlStats;
use wla_net::ServerStatsSnapshot;
use wla_report::{percent, thousands, Table};
use wla_static::{PipelineStats, UrlOriginCensus};

/// Nanoseconds as the milliseconds every stats table prints.
fn ms(ns: u64) -> f64 {
    ns as f64 * 1e-6
}

/// Render a byte count as a human MiB figure.
fn mebibytes(bytes: u64) -> String {
    format!("{:.1} MiB", bytes as f64 / (1024.0 * 1024.0))
}

/// A `(kind, count)` taxonomy table; `None` when nothing failed.
fn taxonomy_table(title: &str, unit: &str, kinds: &BTreeMap<&str, usize>) -> Option<Table> {
    if kinds.is_empty() {
        return None;
    }
    let mut t = Table::new(title, &["Kind", unit]);
    for (kind, count) in kinds {
        t.row_owned(vec![(*kind).to_owned(), thousands(*count as u64)]);
    }
    Some(t)
}

/// The present tables as one text block, a blank line between each.
fn join(tables: impl IntoIterator<Item = Option<Table>>) -> String {
    let rendered: Vec<String> = tables.into_iter().flatten().map(|t| t.render()).collect();
    rendered.join("\n")
}

/// A static run's stats — run summary, per-stage time, failure taxonomy
/// (the Table 2 broken row) and, for shard-streamed runs, the streaming
/// table — as one text block.
pub fn render_pipeline_stats(s: &PipelineStats) -> String {
    join([
        Some(pipeline_summary_table(s)),
        stage_table(s),
        taxonomy_table("Failure taxonomy", "Apps", &s.failure_kinds),
        streaming_table(s),
    ])
}

/// The run-summary table (counts, throughput, scheduling).
fn pipeline_summary_table(s: &PipelineStats) -> Table {
    let mut t = Table::new("Pipeline run summary", &["Metric", "Value"]);
    t.row_owned(vec!["Apps total".into(), thousands(s.total as u64)]);
    t.row_owned(vec!["Apps analyzed".into(), thousands(s.analyzed as u64)]);
    t.row_owned(vec!["Apps broken".into(), thousands(s.broken as u64)]);
    t.row_owned(vec![
        "  of which panicked".into(),
        thousands(s.panicked as u64),
    ]);
    t.row_owned(vec!["Wall time".into(), format!("{:.1} ms", ms(s.wall_ns))]);
    if s.serial_tail_ns > 0 {
        t.row_owned(vec![
            "  of which serial tail".into(),
            format!("{:.1} ms", ms(s.serial_tail_ns)),
        ]);
    }
    t.row_owned(vec![
        "Throughput".into(),
        format!("{:.0} apps/s", s.apps_per_second()),
    ]);
    t.row_owned(vec!["Worker threads".into(), s.workers.len().to_string()]);
    t.row_owned(vec!["Pool utilization".into(), percent(s.utilization())]);
    let interner = &s.interner;
    // Only a run that merges a symbol table has a global count; a folded
    // run still fills the worker-local counters.
    if interner.global_symbols > 0 {
        t.row_owned(vec![
            "Interned symbols".into(),
            format!(
                "{} ({} KiB)",
                thousands(interner.global_symbols as u64),
                interner.global_bytes / 1024
            ),
        ]);
    }
    // Only a run that builds an output holds result tables; a folded run
    // keeps no per-app result.
    if s.result_bytes > 0 {
        t.row_owned(vec![
            "Result tables".into(),
            format!("{} KiB", thousands(s.result_bytes as u64 / 1024)),
        ]);
    }
    if interner.local_hits + interner.local_misses > 0 {
        t.row_owned(vec![
            "Intern cache hit rate".into(),
            percent(interner.local_hit_rate()),
        ]);
    }
    if interner.label_hits + interner.label_misses > 0 {
        t.row_owned(vec![
            "Label cache hit rate".into(),
            percent(interner.label_hit_rate()),
        ]);
    }
    let callgraph = &s.callgraph;
    if callgraph.edges > 0 {
        t.row_owned(vec![
            "Call-graph edges (CSR)".into(),
            thousands(callgraph.edges),
        ]);
        t.row_owned(vec![
            "Vtable cache hit rate".into(),
            percent(callgraph.vtable_hit_rate()),
        ]);
        t.row_owned(vec![
            "Bitset scratch reuses".into(),
            thousands(callgraph.bitset_reuses),
        ]);
        if s.edges_per_second() > 0.0 {
            t.row_owned(vec![
                "Traversal speed".into(),
                format!("{:.1} Medges/s", s.edges_per_second() / 1e6),
            ]);
        }
    }
    if s.decode.dexes > 0 {
        t.row_owned(vec!["Dex decodes".into(), thousands(s.decode.dexes)]);
    }
    let dataflow = &s.dataflow;
    if dataflow.methods > 0 {
        t.row_owned(vec![
            "Dataflow methods (linear)".into(),
            format!(
                "{} ({})",
                thousands(dataflow.methods),
                percent(dataflow.linear_rate())
            ),
        ]);
        t.row_owned(vec![
            "Invokes resolved to consts".into(),
            format!(
                "{} of {}",
                percent(dataflow.resolved_rate()),
                thousands(dataflow.sites())
            ),
        ]);
    }
    t
}

/// Per-stage timing table; `None` when no app ran a stage.
fn stage_table(s: &PipelineStats) -> Option<Table> {
    if s.stage.total_ns() == 0 {
        return None;
    }
    let stages_ms = [
        ("decode", ms(s.stage.decode_ns)),
        ("decompile", ms(s.stage.decompile_ns)),
        ("callgraph", ms(s.stage.callgraph_ns)),
        ("dataflow", ms(s.stage.dataflow_ns)),
        ("label", ms(s.stage.label_ns)),
    ];
    let stage_total: f64 = stages_ms.iter().map(|(_, time)| time).sum();
    let mut t = Table::new(
        "Per-stage analysis time (summed over apps)",
        &["Stage", "Time (ms)", "Share"],
    );
    for (stage, time) in stages_ms {
        let share = if stage_total > 0.0 {
            time / stage_total
        } else {
            0.0
        };
        t.row_owned(vec![stage.to_owned(), format!("{time:.1}"), percent(share)]);
    }
    t.row_owned(vec![
        "total".into(),
        format!("{stage_total:.1}"),
        percent(1.0),
    ]);
    Some(t)
}

/// Shard-streaming table; `None` when the run was in-memory (no shards
/// touched).
fn streaming_table(s: &PipelineStats) -> Option<Table> {
    let stream = &s.stream;
    if stream.shards_read + stream.shards_cached + stream.shard_failures == 0 {
        return None;
    }
    let mut t = Table::new("Shard streaming", &["Metric", "Value"]);
    t.row_owned(vec![
        "Shards read".into(),
        thousands(stream.shards_read as u64),
    ]);
    t.row_owned(vec![
        "Shards from resume cache".into(),
        thousands(stream.shards_cached as u64),
    ]);
    if stream.shard_failures > 0 {
        t.row_owned(vec![
            "Shards failed".into(),
            thousands(stream.shard_failures as u64),
        ]);
        for (kind, count) in &stream.shard_failure_kinds {
            t.row_owned(vec![format!("  {kind}"), thousands(*count as u64)]);
        }
    }
    t.row_owned(vec![
        "Entries streamed".into(),
        thousands(stream.entries_streamed as u64),
    ]);
    t.row_owned(vec![
        "Entries from resume cache".into(),
        thousands(stream.entries_cached as u64),
    ]);
    if stream.bytes_mapped > 0 {
        t.row_owned(vec![
            "Shard bytes read".into(),
            mebibytes(stream.bytes_mapped),
        ]);
        t.row_owned(vec![
            "Peak shard bytes held".into(),
            mebibytes(stream.peak_mapped_bytes),
        ]);
    }
    Some(t)
}

/// A crawl run's stats — run summary, phase timing and failure taxonomy —
/// as one text block.
pub fn render_crawl_stats(s: &CrawlStats) -> String {
    join([
        Some(crawl_summary_table(s)),
        Some(crawl_timing_table(s)),
        taxonomy_table("Crawl failure taxonomy", "Visits", &s.failure_kinds),
    ])
}

/// The crawl run-summary table (matrix shape, counts, throughput, caches).
fn crawl_summary_table(s: &CrawlStats) -> Table {
    let mut t = Table::new("Crawl run summary", &["Metric", "Value"]);
    t.row_owned(vec![
        "Visit matrix".into(),
        format!(
            "{} rows x {} sites = {}",
            s.rows,
            s.sites,
            thousands(s.visits_total as u64)
        ),
    ]);
    t.row_owned(vec![
        "Prepared pages".into(),
        format!("{} ({} KiB)", s.sites, s.prepared_bytes / 1024),
    ]);
    t.row_owned(vec![
        "Visits completed".into(),
        thousands(s.visits_completed as u64),
    ]);
    if s.visits_panicked > 0 {
        t.row_owned(vec![
            "  of which panicked".into(),
            thousands(s.visits_panicked as u64),
        ]);
    }
    t.row_owned(vec![
        "Script steps executed".into(),
        thousands(s.steps_executed),
    ]);
    t.row_owned(vec![
        "Netlog events captured".into(),
        thousands(s.requests_logged),
    ]);
    t.row_owned(vec![
        "Wall time".into(),
        format!("{:.1} ms", ms(s.total_ns)),
    ]);
    t.row_owned(vec![
        "Throughput".into(),
        format!("{:.0} visits/s", s.visits_per_second()),
    ]);
    t.row_owned(vec!["Worker threads".into(), s.workers.len().to_string()]);
    t.row_owned(vec!["Pool utilization".into(), percent(s.utilization())]);
    if s.interner.global_symbols > 0 {
        t.row_owned(vec![
            "Interned symbols".into(),
            format!(
                "{} ({} KiB)",
                thousands(s.interner.global_symbols as u64),
                s.interner.global_bytes / 1024
            ),
        ]);
        t.row_owned(vec![
            "Intern cache hit rate".into(),
            percent(s.interner.local_hit_rate()),
        ]);
        t.row_owned(vec![
            "Classify memo hit rate".into(),
            percent(s.classify_hit_rate()),
        ]);
    }
    t
}

/// Where the crawl's wall clock went: the pool (page prep inside its
/// claims), the serial tail.
fn crawl_timing_table(s: &CrawlStats) -> Table {
    let mut t = Table::new("Crawl phase timing", &["Phase", "Time (ms)"]);
    t.row_owned(vec![
        "visits (summed busy)".into(),
        format!("{:.1}", ms(s.visit_ns)),
    ]);
    t.row_owned(vec![
        "  of which page prep".into(),
        format!("{:.1}", ms(s.prepare_ns)),
    ]);
    t.row_owned(vec!["merge tail".into(), format!("{:.1}", ms(s.merge_ns))]);
    t.row_owned(vec!["wall".into(), format!("{:.1}", ms(s.total_ns))]);
    t
}

/// A live server's counters (connections, requests, latency) as the
/// server summary table's text.
pub fn render_server_stats(s: &ServerStatsSnapshot) -> String {
    let mut t = Table::new("HTTP server summary", &["Metric", "Value"]);
    t.row_owned(vec!["Connections accepted".into(), thousands(s.accepted)]);
    if s.shed > 0 {
        t.row_owned(vec!["Connections shed (503)".into(), thousands(s.shed)]);
    }
    t.row_owned(vec!["Connections active".into(), thousands(s.active)]);
    if s.idle_closed > 0 {
        t.row_owned(vec![
            "Idle connections swept".into(),
            thousands(s.idle_closed),
        ]);
    }
    t.row_owned(vec!["Requests served".into(), thousands(s.requests)]);
    t.row_owned(vec![
        "  of which keep-alive".into(),
        thousands(s.keepalive_requests),
    ]);
    if s.parse_failures > 0 {
        t.row_owned(vec![
            "Parse failures (4xx)".into(),
            thousands(s.parse_failures),
        ]);
    }
    if s.handler_panics > 0 {
        t.row_owned(vec![
            "Handler panics (500)".into(),
            thousands(s.handler_panics),
        ]);
    }
    t.row_owned(vec![
        "Requests / connection".into(),
        format!("{:.2}", s.requests_per_connection),
    ]);
    t.row_owned(vec![
        "Service time p50".into(),
        format!("{:.1} us", s.p50_us),
    ]);
    t.row_owned(vec![
        "Service time p99".into(),
        format!("{:.1} us", s.p99_us),
    ]);
    t.render()
}

/// The §3.1.4 URL-origin census table. The site counts are raw (not
/// rescaled): they describe what the constant propagation measured on the
/// corpus actually analyzed.
pub fn url_origin_table(c: &UrlOriginCensus) -> Table {
    let total = c.sites();
    let share = |n: usize| {
        if total == 0 {
            percent(0.0)
        } else {
            percent(n as f64 / total as f64)
        }
    };
    let mut t = Table::new(
        "URL-origin census (constant propagation at URL-bearing sites)",
        &["Origin", "Sites", "Share"],
    );
    t.row_owned(vec![
        "Resolved constant".into(),
        thousands(c.resolved_sites as u64),
        share(c.resolved_sites),
    ]);
    t.row_owned(vec![
        "Unknown".into(),
        thousands(c.unknown_sites as u64),
        share(c.unknown_sites),
    ]);
    t.row_owned(vec![
        "Conflicting paths".into(),
        thousands(c.conflict_sites as u64),
        share(c.conflict_sites),
    ]);
    t.row_owned(vec![
        "Apps fully resolved".into(),
        thousands(c.apps_fully_resolved as u64),
        String::new(),
    ]);
    t.row_owned(vec![
        "Apps with unresolved sites".into(),
        thousands(c.apps_with_unresolved as u64),
        String::new(),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Study;

    #[test]
    fn interner_rows_are_optional() {
        let r = render_pipeline_stats(&PipelineStats::default());
        assert!(!r.contains("Interned symbols"));
        assert!(!r.contains("Result tables"));
        assert!(!r.contains("Intern cache hit rate"));
        assert!(!r.contains("Label cache hit rate"));
        assert!(!r.contains("Call-graph edges"));
        assert!(!r.contains("serial tail"));
        assert!(!r.contains("pre-size"));
        assert!(!r.contains("Dataflow methods"));
        assert!(!r.contains("Dex decodes"));
        assert!(!r.contains("Shard streaming"));
    }

    #[test]
    fn stage_and_failure_tables_are_optional() {
        let empty = PipelineStats::default();
        assert!(stage_table(&empty).is_none());
        assert!(taxonomy_table("Failure taxonomy", "Apps", &empty.failure_kinds).is_none());
        let r = render_pipeline_stats(&empty);
        assert!(r.contains("Pipeline run summary"));
        assert!(!r.contains("Failure taxonomy"));
    }

    #[test]
    fn crawl_failure_table_is_optional() {
        let r = render_crawl_stats(&CrawlStats::default());
        assert!(r.contains("Crawl run summary"));
        assert!(!r.contains("Crawl failure taxonomy"));
        assert!(!r.contains("Interned symbols"));
        assert!(!r.contains("panicked"));
    }

    #[test]
    fn server_zero_rows_are_optional() {
        let r = render_server_stats(&ServerStatsSnapshot::default());
        assert!(r.contains("HTTP server summary"));
        assert!(!r.contains("shed"));
        assert!(!r.contains("swept"));
        assert!(!r.contains("Parse failures"));
        assert!(!r.contains("Handler panics"));
    }

    #[test]
    fn server_render_of_a_sparse_snapshot() {
        let snap = ServerStatsSnapshot {
            accepted: 10,
            requests: 30,
            keepalive_requests: 20,
            requests_per_connection: 3.0,
            p50_us: 12.5,
            p99_us: 800.0,
            ..Default::default()
        };
        let rendered = render_server_stats(&snap);
        assert!(rendered.contains("HTTP server summary"), "{rendered}");
        assert!(rendered.contains("3.00"), "{rendered}");
        assert!(rendered.contains("800.0 us"), "{rendered}");
    }

    #[test]
    fn empty_census_renders_zero_shares() {
        let out = url_origin_table(&UrlOriginCensus::default()).render();
        assert!(out.contains("0.0%"));
        assert!(!out.contains("NaN"));
    }

    #[test]
    fn renders_a_real_static_run() {
        let run = Study::new(1_000, 99).run_static();
        let s = &run.stats;
        assert_eq!(s.analyzed + s.broken, s.total);
        assert!(s.apps_per_second() > 0.0);
        // The serial tail is measured.
        assert!(s.serial_tail_ns > 0);
        // Call-graph observability: edges were built, the traversal speed
        // is derived from the callgraph stage timer, and the hit rate is a
        // valid fraction.
        assert!(s.callgraph.edges > 0);
        assert!(s.edges_per_second() > 0.0);
        assert!((0.0..=1.0).contains(&s.callgraph.vtable_hit_rate()));
        // Dataflow observability: the pass ran over every invoke (generic
        // calls stay unresolved, so the rate is a proper fraction — the
        // URL-only 100% lives in the census).
        assert!(s.dataflow.methods > 0);
        assert!((0.0..=1.0).contains(&s.dataflow.linear_rate()));
        assert!(s.dataflow.sites() > 0);
        let resolved = s.dataflow.resolved_rate();
        assert!(resolved > 0.0 && resolved < 1.0);
        let rendered = render_pipeline_stats(s);
        assert!(rendered.contains("Pipeline run summary"));
        assert!(rendered.contains("serial tail"));
        // The run folds each app into a tally and merges no symbol table,
        // yet its worker-local intern and label memos still report.
        assert_eq!(s.interner.global_symbols, 0);
        assert!(!rendered.contains("Interned symbols"));
        assert_eq!(s.result_bytes, 0);
        assert!(!rendered.contains("Result tables"));
        assert!(s.interner.local_hit_rate() > 0.0);
        assert!(s.interner.label_hit_rate() > 0.0);
        assert!(rendered.contains("Intern cache hit rate"));
        assert!(rendered.contains("Label cache hit rate"));
        assert!(rendered.contains("Per-stage analysis time"));
        for stage in ["decode", "decompile", "callgraph", "dataflow", "label"] {
            assert!(rendered.contains(stage), "{stage}");
        }
        assert!(rendered.contains("Call-graph edges (CSR)"));
        assert!(rendered.contains("Invokes resolved to consts"));
        // In-memory runs carry an all-zero stream section and render no
        // shard-streaming table.
        assert_eq!(s.stream.shards_read + s.stream.shards_cached, 0);
        assert!(!rendered.contains("Shard streaming"));
    }

    #[test]
    fn renders_a_real_crawl_run() {
        let study = Study::default_experiment();
        let run = study.run_crawl_parallel(Some(&["Kik"]), wla_dynamic::CrawlConfig { workers: 2 });
        let s = &run.stats;
        assert_eq!(s.visits_total, 200); // (baseline + Kik) x 100 sites
        assert_eq!(s.visits_completed, s.visits_total);
        assert_eq!(s.visits_panicked, 0);
        assert_eq!(s.workers.len(), 2);
        assert!(s.visits_per_second() > 0.0);
        assert!(s.interner.local_hit_rate() > 0.0);
        assert!(s.classify_hit_rate() > 0.0);
        assert!(s.prepared_bytes > 0);
        let rendered = render_crawl_stats(s);
        assert!(rendered.contains("Crawl run summary"));
        assert!(rendered.contains("2 rows x 100 sites = 200"));
        assert!(rendered.contains(&format!("100 ({} KiB)", s.prepared_bytes / 1024)));
        assert!(rendered.contains("Crawl phase timing"));
        assert!(!rendered.contains("Crawl failure taxonomy"));
    }

    #[test]
    fn renders_a_streamed_run() {
        let study = Study::new(4_000, 11);
        let dir = std::env::temp_dir().join(format!("wla-stats-stream-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        wla_corpus::write_sharded_corpus(&dir, &study.corpus(), wla_static::CLAIM_APPS).unwrap();
        let config = wla_static::PipelineConfig::default();
        let output = wla_static::run_pipeline_streamed(&dir, &study.catalog, config).unwrap();
        let stats = output.stats;
        assert!(stats.stream.shards_read > 0);
        assert_eq!(stats.stream.entries_streamed, stats.total);
        let rendered = render_pipeline_stats(&stats);
        assert!(rendered.contains("Shard streaming"));
        assert!(rendered.contains("Entries streamed"));
        assert!(rendered.contains("Shard bytes read"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
