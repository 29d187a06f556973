//! Pipeline observability rendering.
//!
//! `wla-report` stays dependency-free, so the static pipeline's stats
//! arrive here as a plain-data [`PipelineStatsReport`] (filled in by
//! `wla-core::experiments::pipeline_stats_report`) rather than as the
//! `wla-static` struct itself.

use crate::table::Table;
use crate::{percent, thousands};

/// Flattened pipeline run statistics, ready to render.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PipelineStatsReport {
    /// Corpus size.
    pub total: u64,
    /// Successfully analyzed apps.
    pub analyzed: u64,
    /// Broken containers (decode/analysis failures, incl. panics).
    pub broken: u64,
    /// Analyses recovered from a panic by the fault isolation.
    pub panicked: u64,
    /// End-to-end wall-clock milliseconds.
    pub wall_ms: f64,
    /// Milliseconds spent in the serial join tail (stats fold, input-order
    /// merge, local→global symbol remap) after the worker pool finished.
    pub serial_tail_ms: f64,
    /// Corpus throughput.
    pub apps_per_second: f64,
    /// Worker-pool utilization in `0.0..=1.0`.
    pub utilization: f64,
    /// Worker threads used.
    pub workers: usize,
    /// `(stage name, cumulative milliseconds)` in pipeline order; empty
    /// when no app was analyzed.
    pub stages_ms: Vec<(String, f64)>,
    /// `(failure kind, count)` taxonomy, sorted by kind.
    pub failure_kinds: Vec<(String, u64)>,
    /// Distinct strings in the merged global symbol table.
    pub interned_symbols: u64,
    /// Bytes held by the global symbol table.
    pub interned_bytes: u64,
    /// Worker-local interner hit rate in `0.0..=1.0` (repeat lookups that
    /// avoided allocating a new symbol).
    pub intern_hit_rate: f64,
    /// Worker-local package-label cache hit rate in `0.0..=1.0`.
    pub label_hit_rate: f64,
    /// Fraction of the pre-sized global-table capacity actually used at
    /// join time in `0.0..=1.0` (0 when the join did not pre-size).
    pub presize_hit_rate: f64,
    /// CSR call-graph edges built across the run (after dedup).
    pub callgraph_edges: u64,
    /// Vtable-cache hit rate for virtual resolution in `0.0..=1.0`.
    pub vtable_hit_rate: f64,
    /// Reachability traversals that reused a worker's bitset scratch
    /// without growing it.
    pub bitset_reuses: u64,
    /// Traversal speed: CSR edges scanned per second of callgraph-stage
    /// time (0 when no call graph was built).
    pub edges_per_second: f64,
    /// Dex sections decoded, each with full validation.
    pub dex_decodes: u64,
    /// Methods run through the constant-propagation pass (0 when the
    /// pass was ablated).
    pub dataflow_methods: u64,
    /// Fraction of those methods that took the branch-free linear fast
    /// path in `0.0..=1.0`.
    pub dataflow_linear_rate: f64,
    /// Invoke sites the pass classified (every invoke, not only the
    /// URL-bearing ones the census filters to).
    pub dataflow_sites: u64,
    /// Fraction of classified sites resolved to a single constant in
    /// `0.0..=1.0`.
    pub dataflow_resolved_rate: f64,
    /// Shards opened, validated, and analyzed (shard-streaming runs only;
    /// all stream fields stay zero for in-memory runs).
    pub shards_read: u64,
    /// Shards served entirely from the resume manifest.
    pub shards_cached: u64,
    /// Shard files that failed to open or validate.
    pub shard_failures: u64,
    /// `(failure kind, count)` shard-level taxonomy, sorted by kind.
    pub shard_failure_kinds: Vec<(String, u64)>,
    /// Entries analyzed from shard bytes.
    pub entries_streamed: u64,
    /// Entries whose results were loaded from the resume manifest.
    pub entries_cached: u64,
    /// Total shard bytes opened through `mmap`.
    pub bytes_mapped: u64,
    /// High-water mark of concurrently mapped shard bytes — the streaming
    /// run's address-space footprint.
    pub peak_mapped_bytes: u64,
}

/// Render a byte count as a human MiB figure.
fn mebibytes(bytes: u64) -> String {
    format!("{:.1} MiB", bytes as f64 / (1024.0 * 1024.0))
}

impl PipelineStatsReport {
    /// The run-summary table (counts, throughput, scheduling).
    pub fn summary_table(&self) -> Table {
        let mut t = Table::new("Pipeline run summary", &["Metric", "Value"]);
        t.row_owned(vec!["Apps total".into(), thousands(self.total)]);
        t.row_owned(vec!["Apps analyzed".into(), thousands(self.analyzed)]);
        t.row_owned(vec!["Apps broken".into(), thousands(self.broken)]);
        t.row_owned(vec!["  of which panicked".into(), thousands(self.panicked)]);
        t.row_owned(vec!["Wall time".into(), format!("{:.1} ms", self.wall_ms)]);
        if self.serial_tail_ms > 0.0 {
            t.row_owned(vec![
                "  of which serial tail".into(),
                format!("{:.1} ms", self.serial_tail_ms),
            ]);
        }
        t.row_owned(vec![
            "Throughput".into(),
            format!("{:.0} apps/s", self.apps_per_second),
        ]);
        t.row_owned(vec!["Worker threads".into(), self.workers.to_string()]);
        t.row_owned(vec!["Pool utilization".into(), percent(self.utilization)]);
        if self.interned_symbols > 0 {
            t.row_owned(vec![
                "Interned symbols".into(),
                format!(
                    "{} ({} KiB)",
                    thousands(self.interned_symbols),
                    self.interned_bytes / 1024
                ),
            ]);
            t.row_owned(vec![
                "Intern cache hit rate".into(),
                percent(self.intern_hit_rate),
            ]);
            t.row_owned(vec![
                "Label cache hit rate".into(),
                percent(self.label_hit_rate),
            ]);
            if self.presize_hit_rate > 0.0 {
                t.row_owned(vec![
                    "Interner pre-size hit rate".into(),
                    percent(self.presize_hit_rate),
                ]);
            }
        }
        if self.callgraph_edges > 0 {
            t.row_owned(vec![
                "Call-graph edges (CSR)".into(),
                thousands(self.callgraph_edges),
            ]);
            t.row_owned(vec![
                "Vtable cache hit rate".into(),
                percent(self.vtable_hit_rate),
            ]);
            t.row_owned(vec![
                "Bitset scratch reuses".into(),
                thousands(self.bitset_reuses),
            ]);
            if self.edges_per_second > 0.0 {
                t.row_owned(vec![
                    "Traversal speed".into(),
                    format!("{:.1} Medges/s", self.edges_per_second / 1e6),
                ]);
            }
        }
        if self.dex_decodes > 0 {
            t.row_owned(vec!["Dex decodes".into(), thousands(self.dex_decodes)]);
        }
        if self.dataflow_methods > 0 {
            t.row_owned(vec![
                "Dataflow methods (linear)".into(),
                format!(
                    "{} ({})",
                    thousands(self.dataflow_methods),
                    percent(self.dataflow_linear_rate)
                ),
            ]);
            t.row_owned(vec![
                "Invokes resolved to consts".into(),
                format!(
                    "{} of {}",
                    percent(self.dataflow_resolved_rate),
                    thousands(self.dataflow_sites)
                ),
            ]);
        }
        t
    }

    /// Per-stage timing table; `None` when stage timing was disabled.
    pub fn stage_table(&self) -> Option<Table> {
        if self.stages_ms.is_empty() {
            return None;
        }
        let stage_total: f64 = self.stages_ms.iter().map(|(_, ms)| ms).sum();
        let mut t = Table::new(
            "Per-stage analysis time (summed over apps)",
            &["Stage", "Time (ms)", "Share"],
        );
        for (stage, ms) in &self.stages_ms {
            let share = if stage_total > 0.0 {
                ms / stage_total
            } else {
                0.0
            };
            t.row_owned(vec![stage.clone(), format!("{ms:.1}"), percent(share)]);
        }
        t.row_owned(vec![
            "total".into(),
            format!("{stage_total:.1}"),
            percent(1.0),
        ]);
        Some(t)
    }

    /// Shard-streaming table; `None` when the run was in-memory (no
    /// shards touched).
    pub fn streaming_table(&self) -> Option<Table> {
        if self.shards_read + self.shards_cached + self.shard_failures == 0 {
            return None;
        }
        let mut t = Table::new("Shard streaming", &["Metric", "Value"]);
        t.row_owned(vec!["Shards read".into(), thousands(self.shards_read)]);
        t.row_owned(vec![
            "Shards from resume cache".into(),
            thousands(self.shards_cached),
        ]);
        if self.shard_failures > 0 {
            t.row_owned(vec!["Shards failed".into(), thousands(self.shard_failures)]);
            for (kind, count) in &self.shard_failure_kinds {
                t.row_owned(vec![format!("  {kind}"), thousands(*count)]);
            }
        }
        t.row_owned(vec![
            "Entries streamed".into(),
            thousands(self.entries_streamed),
        ]);
        t.row_owned(vec![
            "Entries from resume cache".into(),
            thousands(self.entries_cached),
        ]);
        if self.bytes_mapped > 0 {
            t.row_owned(vec!["Bytes mapped".into(), mebibytes(self.bytes_mapped)]);
            t.row_owned(vec![
                "Peak concurrently mapped".into(),
                mebibytes(self.peak_mapped_bytes),
            ]);
        }
        Some(t)
    }

    /// Failure taxonomy table; `None` when nothing broke.
    pub fn failure_table(&self) -> Option<Table> {
        if self.failure_kinds.is_empty() {
            return None;
        }
        let mut t = Table::new("Failure taxonomy", &["Kind", "Apps"]);
        for (kind, count) in &self.failure_kinds {
            t.row_owned(vec![kind.clone(), thousands(*count)]);
        }
        Some(t)
    }

    /// Render every section as one text block.
    pub fn render(&self) -> String {
        let mut out = self.summary_table().render();
        if let Some(stages) = self.stage_table() {
            out.push('\n');
            out.push_str(&stages.render());
        }
        if let Some(failures) = self.failure_table() {
            out.push('\n');
            out.push_str(&failures.render());
        }
        if let Some(streaming) = self.streaming_table() {
            out.push('\n');
            out.push_str(&streaming.render());
        }
        out
    }
}

/// Flattened crawl-pipeline statistics, ready to render (filled in by
/// `wla-core::experiments::crawl_stats_report`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CrawlStatsReport {
    /// Visits in the crawl matrix (`rows × sites`).
    pub visits_total: u64,
    /// Visits that produced a record.
    pub visits_completed: u64,
    /// Visits isolated by the per-visit fault boundary.
    pub visits_panicked: u64,
    /// Matrix rows (baseline + apps).
    pub rows: u64,
    /// Sites crawled per row.
    pub sites: u64,
    /// Worker threads used.
    pub workers: usize,
    /// Script steps executed across completed visits.
    pub steps_executed: u64,
    /// Netlog events captured across completed visits.
    pub requests_logged: u64,
    /// End-to-end wall-clock milliseconds.
    pub wall_ms: f64,
    /// Milliseconds preparing per-site pages before the pool started.
    pub prepare_ms: f64,
    /// Summed worker busy milliseconds.
    pub visit_ms: f64,
    /// Milliseconds in the serial join tail (merge, symbol remap, figure
    /// fold).
    pub merge_ms: f64,
    /// Visit throughput.
    pub visits_per_second: f64,
    /// Worker-pool utilization in `0.0..=1.0`.
    pub utilization: f64,
    /// Distinct strings in the merged global symbol table.
    pub interned_symbols: u64,
    /// Bytes held by the global symbol table.
    pub interned_bytes: u64,
    /// Worker-local interner hit rate in `0.0..=1.0`.
    pub intern_hit_rate: f64,
    /// Per-host classification memo hit rate in `0.0..=1.0`.
    pub classify_hit_rate: f64,
    /// `(failure kind, count)` taxonomy, sorted by kind.
    pub failure_kinds: Vec<(String, u64)>,
}

impl CrawlStatsReport {
    /// The run-summary table (matrix shape, counts, throughput, caches).
    pub fn summary_table(&self) -> Table {
        let mut t = Table::new("Crawl run summary", &["Metric", "Value"]);
        t.row_owned(vec![
            "Visit matrix".into(),
            format!(
                "{} rows x {} sites = {}",
                self.rows,
                self.sites,
                thousands(self.visits_total)
            ),
        ]);
        t.row_owned(vec![
            "Visits completed".into(),
            thousands(self.visits_completed),
        ]);
        if self.visits_panicked > 0 {
            t.row_owned(vec![
                "  of which panicked".into(),
                thousands(self.visits_panicked),
            ]);
        }
        t.row_owned(vec![
            "Script steps executed".into(),
            thousands(self.steps_executed),
        ]);
        t.row_owned(vec![
            "Netlog events captured".into(),
            thousands(self.requests_logged),
        ]);
        t.row_owned(vec!["Wall time".into(), format!("{:.1} ms", self.wall_ms)]);
        t.row_owned(vec![
            "Throughput".into(),
            format!("{:.0} visits/s", self.visits_per_second),
        ]);
        t.row_owned(vec!["Worker threads".into(), self.workers.to_string()]);
        t.row_owned(vec!["Pool utilization".into(), percent(self.utilization)]);
        if self.interned_symbols > 0 {
            t.row_owned(vec![
                "Interned symbols".into(),
                format!(
                    "{} ({} KiB)",
                    thousands(self.interned_symbols),
                    self.interned_bytes / 1024
                ),
            ]);
            t.row_owned(vec![
                "Intern cache hit rate".into(),
                percent(self.intern_hit_rate),
            ]);
            t.row_owned(vec![
                "Classify memo hit rate".into(),
                percent(self.classify_hit_rate),
            ]);
        }
        t
    }

    /// Where the wall clock went: page prep, the pool, the serial tail.
    pub fn timing_table(&self) -> Table {
        let mut t = Table::new("Crawl phase timing", &["Phase", "Time (ms)"]);
        t.row_owned(vec![
            "prepare pages".into(),
            format!("{:.1}", self.prepare_ms),
        ]);
        t.row_owned(vec![
            "visits (summed busy)".into(),
            format!("{:.1}", self.visit_ms),
        ]);
        t.row_owned(vec!["merge tail".into(), format!("{:.1}", self.merge_ms)]);
        t.row_owned(vec!["wall".into(), format!("{:.1}", self.wall_ms)]);
        t
    }

    /// Failure taxonomy table; `None` when every visit completed.
    pub fn failure_table(&self) -> Option<Table> {
        if self.failure_kinds.is_empty() {
            return None;
        }
        let mut t = Table::new("Crawl failure taxonomy", &["Kind", "Visits"]);
        for (kind, count) in &self.failure_kinds {
            t.row_owned(vec![kind.clone(), thousands(*count)]);
        }
        Some(t)
    }

    /// Render every section as one text block.
    pub fn render(&self) -> String {
        let mut out = self.summary_table().render();
        out.push('\n');
        out.push_str(&self.timing_table().render());
        if let Some(failures) = self.failure_table() {
            out.push('\n');
            out.push_str(&failures.render());
        }
        out
    }
}

/// Flattened HTTP-server statistics, ready to render (filled in from
/// `wla-net`'s `ServerStatsSnapshot` by `wla-core::service::server_stats_report`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServerStatsReport {
    /// Connections accepted and served (excludes shed ones).
    pub accepted: u64,
    /// Connections answered with an immediate 503 past the high-water mark.
    pub shed: u64,
    /// Connections open at snapshot time.
    pub active: u64,
    /// Connections closed by the idle-timeout sweep.
    pub idle_closed: u64,
    /// Requests parsed and dispatched.
    pub requests: u64,
    /// Requests served on an already-warm connection (keep-alive payoff).
    pub keepalive_requests: u64,
    /// Malformed/oversized requests answered with a 4xx.
    pub parse_failures: u64,
    /// Requests answered with a 500 because their handler panicked.
    pub handler_panics: u64,
    /// Mean requests per accepted connection.
    pub requests_per_connection: f64,
    /// Median service time, microseconds.
    pub p50_us: f64,
    /// 99th-percentile service time, microseconds.
    pub p99_us: f64,
}

impl ServerStatsReport {
    /// The server summary table (connections, requests, latency).
    pub fn summary_table(&self) -> Table {
        let mut t = Table::new("HTTP server summary", &["Metric", "Value"]);
        t.row_owned(vec![
            "Connections accepted".into(),
            thousands(self.accepted),
        ]);
        if self.shed > 0 {
            t.row_owned(vec!["Connections shed (503)".into(), thousands(self.shed)]);
        }
        t.row_owned(vec!["Connections active".into(), thousands(self.active)]);
        if self.idle_closed > 0 {
            t.row_owned(vec![
                "Idle connections swept".into(),
                thousands(self.idle_closed),
            ]);
        }
        t.row_owned(vec!["Requests served".into(), thousands(self.requests)]);
        t.row_owned(vec![
            "  of which keep-alive".into(),
            thousands(self.keepalive_requests),
        ]);
        if self.parse_failures > 0 {
            t.row_owned(vec![
                "Parse failures (4xx)".into(),
                thousands(self.parse_failures),
            ]);
        }
        if self.handler_panics > 0 {
            t.row_owned(vec![
                "Handler panics (500)".into(),
                thousands(self.handler_panics),
            ]);
        }
        t.row_owned(vec![
            "Requests / connection".into(),
            format!("{:.2}", self.requests_per_connection),
        ]);
        t.row_owned(vec![
            "Service time p50".into(),
            format!("{:.1} us", self.p50_us),
        ]);
        t.row_owned(vec![
            "Service time p99".into(),
            format!("{:.1} us", self.p99_us),
        ]);
        t
    }

    /// Render the report as one text block.
    pub fn render(&self) -> String {
        self.summary_table().render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PipelineStatsReport {
        PipelineStatsReport {
            total: 1468,
            analyzed: 1466,
            broken: 2,
            panicked: 1,
            wall_ms: 321.5,
            serial_tail_ms: 4.2,
            apps_per_second: 4566.0,
            utilization: 0.93,
            workers: 8,
            stages_ms: vec![
                ("decode".into(), 100.0),
                ("decompile".into(), 50.0),
                ("callgraph".into(), 20.0),
                ("dataflow".into(), 10.0),
                ("label".into(), 20.0),
            ],
            failure_kinds: vec![("analysis-panic".into(), 1), ("bad-magic".into(), 1)],
            interned_symbols: 20_480,
            interned_bytes: 524_288,
            intern_hit_rate: 0.42,
            label_hit_rate: 0.87,
            presize_hit_rate: 0.61,
            callgraph_edges: 123_456,
            vtable_hit_rate: 0.75,
            bitset_reuses: 1_460,
            edges_per_second: 2_500_000.0,
            dex_decodes: 1_515,
            dataflow_methods: 9_876,
            dataflow_linear_rate: 0.94,
            dataflow_sites: 3_210,
            dataflow_resolved_rate: 1.0,
            shards_read: 144,
            shards_cached: 1_324,
            shard_failures: 1,
            shard_failure_kinds: vec![("checksum-mismatch".into(), 1)],
            entries_streamed: 1_440,
            entries_cached: 13_240,
            bytes_mapped: 75_497_472,
            peak_mapped_bytes: 8_388_608,
        }
    }

    #[test]
    fn render_includes_all_sections() {
        let r = sample().render();
        assert!(r.contains("Pipeline run summary"));
        assert!(r.contains("1,468"));
        assert!(r.contains("4566 apps/s"));
        assert!(r.contains("Worker threads"));
        assert!(r.contains("Per-stage analysis time"));
        assert!(r.contains("decode"));
        assert!(r.contains("50.0%")); // decode share of the 200ms stage total
        assert!(r.contains("dataflow"));
        assert!(r.contains("Failure taxonomy"));
        assert!(r.contains("analysis-panic"));
        assert!(r.contains("20,480 (512 KiB)"));
        assert!(r.contains("87.0%")); // label cache hit rate
        assert!(r.contains("serial tail"));
        assert!(r.contains("4.2 ms"));
        assert!(r.contains("61.0%")); // interner pre-size hit rate
        assert!(r.contains("123,456")); // CSR edges
        assert!(r.contains("75.0%")); // vtable hit rate
        assert!(r.contains("1,460")); // bitset reuses
        assert!(r.contains("2.5 Medges/s"));
        assert!(r.contains("1,515")); // dex decodes
        assert!(r.contains("9,876 (94.0%)")); // dataflow methods, linear share
        assert!(r.contains("100.0% of 3,210")); // URL-site resolution
        assert!(r.contains("Shard streaming"));
        assert!(r.contains("1,324")); // shards served from resume cache
        assert!(r.contains("checksum-mismatch"));
        assert!(r.contains("72.0 MiB")); // bytes mapped
        assert!(r.contains("8.0 MiB")); // peak concurrently mapped
    }

    #[test]
    fn interner_rows_are_optional() {
        let r = PipelineStatsReport::default().render();
        assert!(!r.contains("Interned symbols"));
        assert!(!r.contains("Call-graph edges"));
        assert!(!r.contains("serial tail"));
        assert!(!r.contains("pre-size"));
        assert!(!r.contains("Dataflow methods"));
        assert!(!r.contains("Dex decodes"));
        assert!(!r.contains("Shard streaming"));
    }

    fn crawl_sample() -> CrawlStatsReport {
        CrawlStatsReport {
            visits_total: 1100,
            visits_completed: 1099,
            visits_panicked: 1,
            rows: 11,
            sites: 100,
            workers: 8,
            steps_executed: 10_990,
            requests_logged: 54_321,
            wall_ms: 12.5,
            prepare_ms: 0.8,
            visit_ms: 11.0,
            merge_ms: 0.6,
            visits_per_second: 87_920.0,
            utilization: 0.88,
            interned_symbols: 160,
            interned_bytes: 4_096,
            intern_hit_rate: 0.97,
            classify_hit_rate: 0.93,
            failure_kinds: vec![("visit-panic".into(), 1)],
        }
    }

    #[test]
    fn crawl_render_includes_all_sections() {
        let r = crawl_sample().render();
        assert!(r.contains("Crawl run summary"));
        assert!(r.contains("11 rows x 100 sites = 1,100"));
        assert!(r.contains("1,099"));
        assert!(r.contains("10,990")); // script steps
        assert!(r.contains("54,321")); // netlog events
        assert!(r.contains("87920 visits/s"));
        assert!(r.contains("Worker threads"));
        assert!(r.contains("97.0%")); // intern hit rate
        assert!(r.contains("93.0%")); // classify memo hit rate
        assert!(r.contains("Crawl phase timing"));
        assert!(r.contains("prepare pages"));
        assert!(r.contains("merge tail"));
        assert!(r.contains("Crawl failure taxonomy"));
        assert!(r.contains("visit-panic"));
    }

    #[test]
    fn crawl_failure_table_is_optional() {
        let r = CrawlStatsReport::default().render();
        assert!(r.contains("Crawl run summary"));
        assert!(!r.contains("Crawl failure taxonomy"));
        assert!(!r.contains("Interned symbols"));
        assert!(!r.contains("panicked"));
    }

    fn server_sample() -> ServerStatsReport {
        ServerStatsReport {
            accepted: 64,
            shed: 3,
            active: 2,
            idle_closed: 5,
            requests: 6_400,
            keepalive_requests: 6_336,
            parse_failures: 1,
            handler_panics: 2,
            requests_per_connection: 100.0,
            p50_us: 42.5,
            p99_us: 812.0,
        }
    }

    #[test]
    fn server_render_includes_all_rows() {
        let r = server_sample().render();
        assert!(r.contains("HTTP server summary"));
        assert!(r.contains("6,400"));
        assert!(r.contains("6,336")); // keep-alive requests
        assert!(r.contains("Connections shed (503)"));
        assert!(r.contains("Idle connections swept"));
        assert!(r.contains("Parse failures (4xx)"));
        assert!(r.contains("Handler panics (500)"));
        assert!(r.contains("100.00")); // requests per connection
        assert!(r.contains("42.5 us"));
        assert!(r.contains("812.0 us"));
    }

    #[test]
    fn server_zero_rows_are_optional() {
        let r = ServerStatsReport::default().render();
        assert!(r.contains("HTTP server summary"));
        assert!(!r.contains("shed"));
        assert!(!r.contains("swept"));
        assert!(!r.contains("Parse failures"));
        assert!(!r.contains("Handler panics"));
    }

    #[test]
    fn stage_and_failure_tables_are_optional() {
        let empty = PipelineStatsReport::default();
        assert!(empty.stage_table().is_none());
        assert!(empty.failure_table().is_none());
        let r = empty.render();
        assert!(r.contains("Pipeline run summary"));
        assert!(!r.contains("Failure taxonomy"));
    }
}
