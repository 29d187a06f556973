//! The run-stats tables `wla` prints, pinned byte for byte: each table
//! rendered from a fixed sample of the counters its runner fills.

use wla_callgraph::CallGraphCounters;
use wla_core::stats::{
    render_crawl_stats, render_pipeline_stats, render_server_stats, url_origin_table,
};
use wla_dynamic::crawl_pipeline::CrawlInternerCounters;
use wla_dynamic::CrawlStats;
use wla_net::ServerStatsSnapshot;
use wla_static::{
    DataflowCounters, DecodeCounters, InternerCounters, PipelineStats, StageTimings,
    StreamCounters, UrlOriginCensus, WorkerStats,
};

fn pipeline_sample() -> PipelineStats {
    PipelineStats {
        total: 1468,
        analyzed: 1466,
        broken: 2,
        panicked: 1,
        stage: StageTimings {
            decode_ns: 100_000_000,
            decompile_ns: 50_000_000,
            callgraph_ns: 20_000_000,
            dataflow_ns: 10_000_000,
            label_ns: 20_000_000,
        },
        wall_ns: 321_500_000,
        serial_tail_ns: 4_200_000,
        // 8 x 298.995 ms busy over 8 x 321.5 ms capacity = 93%.
        workers: vec![
            WorkerStats {
                items: 183,
                busy_ns: 298_995_000,
            };
            8
        ],
        failure_kinds: [("analysis-panic", 1), ("bad-magic", 1)]
            .into_iter()
            .collect(),
        interner: InternerCounters {
            global_symbols: 20_480,
            global_bytes: 524_288,
            local_hits: 42,
            local_misses: 58,
            label_hits: 87,
            label_misses: 13,
        },
        callgraph: CallGraphCounters {
            edges: 123_456,
            vtable_hits: 3,
            vtable_misses: 1,
            bitset_reuses: 1_460,
            // 50,000 edges in 20 ms of callgraph time = 2.5 Medges/s.
            edges_traversed: 50_000,
            ..Default::default()
        },
        dataflow: DataflowCounters {
            methods: 9_876,
            linear_methods: 9_283,
            resolved_sites: 3_210,
            ..Default::default()
        },
        decode: DecodeCounters { dexes: 1_515 },
        stream: StreamCounters {
            shards_read: 144,
            shards_cached: 1_324,
            shard_failures: 1,
            shard_failure_kinds: [("checksum-mismatch", 1)].into_iter().collect(),
            entries_streamed: 1_440,
            entries_cached: 13_240,
            bytes_mapped: 75_497_472,
            peak_mapped_bytes: 8_388_608,
        },
        result_bytes: 3_145_728,
    }
}

fn crawl_sample() -> CrawlStats {
    CrawlStats {
        visits_total: 1100,
        visits_completed: 1099,
        visits_panicked: 1,
        rows: 11,
        sites: 100,
        steps_executed: 10_990,
        requests_logged: 54_321,
        failure_kinds: [("visit-panic", 1)].into_iter().collect(),
        workers: vec![WorkerStats::default(); 8],
        prepare_ns: 800_000,
        prepared_bytes: 286_374,
        visit_ns: 11_000_000,
        merge_ns: 600_000,
        total_ns: 12_500_000,
        interner: CrawlInternerCounters {
            global_symbols: 160,
            global_bytes: 4_096,
            local_hits: 97,
            local_misses: 3,
            classify_hits: 93,
            classify_misses: 7,
        },
    }
}

fn server_sample() -> ServerStatsSnapshot {
    ServerStatsSnapshot {
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

fn census_sample() -> UrlOriginCensus {
    UrlOriginCensus {
        resolved_sites: 1_900,
        unknown_sites: 80,
        conflict_sites: 20,
        apps_fully_resolved: 1_200,
        apps_with_unresolved: 68,
    }
}

// The exact text of each table for the samples above: a change to
// any byte a run prints shows here.
const PIPELINE_GOLDEN: &str = "\
Pipeline run summary
+----------------------------+------------------+
| Metric                     | Value            |
+----------------------------+------------------+
| Apps total                 |            1,468 |
| Apps analyzed              |            1,466 |
| Apps broken                |                2 |
|   of which panicked        |                1 |
| Wall time                  | 321.5 ms         |
|   of which serial tail     | 4.2 ms           |
| Throughput                 | 4566 apps/s      |
| Worker threads             |                8 |
| Pool utilization           |            93.0% |
| Interned symbols           | 20,480 (512 KiB) |
| Result tables              | 3,072 KiB        |
| Intern cache hit rate      |            42.0% |
| Label cache hit rate       |            87.0% |
| Call-graph edges (CSR)     |          123,456 |
| Vtable cache hit rate      |            75.0% |
| Bitset scratch reuses      |            1,460 |
| Traversal speed            | 2.5 Medges/s     |
| Dex decodes                |            1,515 |
| Dataflow methods (linear)  | 9,876 (94.0%)    |
| Invokes resolved to consts | 100.0% of 3,210  |
+----------------------------+------------------+

Per-stage analysis time (summed over apps)
+-----------+-----------+--------+
| Stage     | Time (ms) | Share  |
+-----------+-----------+--------+
| decode    |     100.0 |  50.0% |
| decompile |      50.0 |  25.0% |
| callgraph |      20.0 |  10.0% |
| dataflow  |      10.0 |   5.0% |
| label     |      20.0 |  10.0% |
| total     |     200.0 | 100.0% |
+-----------+-----------+--------+

Failure taxonomy
+----------------+------+
| Kind           | Apps |
+----------------+------+
| analysis-panic |    1 |
| bad-magic      |    1 |
+----------------+------+

Shard streaming
+---------------------------+----------+
| Metric                    | Value    |
+---------------------------+----------+
| Shards read               |      144 |
| Shards from resume cache  |    1,324 |
| Shards failed             |        1 |
|   checksum-mismatch       |        1 |
| Entries streamed          |    1,440 |
| Entries from resume cache |   13,240 |
| Shard bytes read          | 72.0 MiB |
| Peak shard bytes held     | 8.0 MiB  |
+---------------------------+----------+
";
const CRAWL_GOLDEN: &str = "\
Crawl run summary
+------------------------+-----------------------------+
| Metric                 | Value                       |
+------------------------+-----------------------------+
| Visit matrix           | 11 rows x 100 sites = 1,100 |
| Prepared pages         | 100 (279 KiB)               |
| Visits completed       |                       1,099 |
|   of which panicked    |                           1 |
| Script steps executed  |                      10,990 |
| Netlog events captured |                      54,321 |
| Wall time              | 12.5 ms                     |
| Throughput             | 88000 visits/s              |
| Worker threads         |                           8 |
| Pool utilization       |                       11.0% |
| Interned symbols       | 160 (4 KiB)                 |
| Intern cache hit rate  |                       97.0% |
| Classify memo hit rate |                       93.0% |
+------------------------+-----------------------------+

Crawl phase timing
+----------------------+-----------+
| Phase                | Time (ms) |
+----------------------+-----------+
| visits (summed busy) |      11.0 |
|   of which page prep |       0.8 |
| merge tail           |       0.6 |
| wall                 |      12.5 |
+----------------------+-----------+

Crawl failure taxonomy
+-------------+--------+
| Kind        | Visits |
+-------------+--------+
| visit-panic |      1 |
+-------------+--------+
";
const SERVER_GOLDEN: &str = "\
HTTP server summary
+------------------------+----------+
| Metric                 | Value    |
+------------------------+----------+
| Connections accepted   |       64 |
| Connections shed (503) |        3 |
| Connections active     |        2 |
| Idle connections swept |        5 |
| Requests served        |    6,400 |
|   of which keep-alive  |    6,336 |
| Parse failures (4xx)   |        1 |
| Handler panics (500)   |        2 |
| Requests / connection  |   100.00 |
| Service time p50       | 42.5 us  |
| Service time p99       | 812.0 us |
+------------------------+----------+
";
const CENSUS_GOLDEN: &str = "\
URL-origin census (constant propagation at URL-bearing sites)
+----------------------------+-------+-------+
| Origin                     | Sites | Share |
+----------------------------+-------+-------+
| Resolved constant          | 1,900 | 95.0% |
| Unknown                    |    80 |  4.0% |
| Conflicting paths          |    20 |  1.0% |
| Apps fully resolved        | 1,200 |       |
| Apps with unresolved sites |    68 |       |
+----------------------------+-------+-------+
";

#[test]
fn renders_are_byte_identical_to_the_golden_text() {
    assert_eq!(render_pipeline_stats(&pipeline_sample()), PIPELINE_GOLDEN);
    assert_eq!(render_crawl_stats(&crawl_sample()), CRAWL_GOLDEN);
    assert_eq!(render_server_stats(&server_sample()), SERVER_GOLDEN);
    assert_eq!(url_origin_table(&census_sample()).render(), CENSUS_GOLDEN);
}

#[test]
fn pipeline_render_includes_all_sections() {
    let r = render_pipeline_stats(&pipeline_sample());
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
    assert!(r.contains("3,072 KiB")); // result tables
    assert!(r.contains("87.0%")); // label cache hit rate
    assert!(r.contains("serial tail"));
    assert!(r.contains("4.2 ms"));
    assert!(!r.contains("pre-size"));
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
    assert!(r.contains("72.0 MiB")); // shard bytes read
    assert!(r.contains("8.0 MiB")); // peak shard bytes held
}

#[test]
fn crawl_render_includes_all_sections() {
    let r = render_crawl_stats(&crawl_sample());
    assert!(r.contains("Crawl run summary"));
    assert!(r.contains("11 rows x 100 sites = 1,100"));
    assert!(r.contains("100 (279 KiB)")); // prepared pages
    assert!(r.contains("1,099"));
    assert!(r.contains("10,990")); // script steps
    assert!(r.contains("54,321")); // netlog events
    assert!(r.contains("88000 visits/s")); // 1,100 visits in 12.5 ms
    assert!(r.contains("Worker threads"));
    assert!(r.contains("97.0%")); // intern hit rate
    assert!(r.contains("93.0%")); // classify memo hit rate
    assert!(r.contains("Crawl phase timing"));
    assert!(r.contains("of which page prep"));
    assert!(r.contains("merge tail"));
    assert!(r.contains("Crawl failure taxonomy"));
    assert!(r.contains("visit-panic"));
}

#[test]
fn server_render_includes_all_rows() {
    let r = render_server_stats(&server_sample());
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
fn census_table_renders_counts_and_shares() {
    let c = census_sample();
    assert_eq!(c.sites(), 2_000);
    let out = url_origin_table(&c).render();
    assert!(out.contains("URL-origin census"));
    assert!(out.contains("1,900"));
    assert!(out.contains("95.0%"));
    assert!(out.contains("4.0%")); // unknown share
    assert!(out.contains("1.0%")); // conflict share
    assert!(out.contains("1,200"));
    assert!(out.contains("68"));
}
