//! The metric catalog `BENCHMARK.json` declares: end-to-end metrics with
//! their regression bounds, and per-layer metrics.

/// One end-to-end metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Whether a lower value is better.
    pub lower_is_better: bool,
    /// Share of the base median by which the metric may worsen before a
    /// change counts as a regression...
    pub bound: f64,
    /// ...or this much in the metric's unit, if that is more.
    pub floor: f64,
}

impl EndToEnd {
    /// The worsening allowed from a base median of `base`, as a share of
    /// it: `max(bound, floor / base)`.
    pub fn allowed(&self, base: f64) -> f64 {
        if self.floor > 0.0 && base > 0.0 {
            self.bound.max(self.floor / base)
        } else {
            self.bound
        }
    }
}

/// End-to-end metrics, reported by every workload. Run time is not one
/// of them: on the two-vCPU host the baselines come from, runs of the
/// same code spread 7–27% in run time whatever statistic summarizes a
/// run, wider than its 10% bound, so it is the per-layer `latency_ms`.
pub const END_TO_END: [EndToEnd; 2] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        lower_is_better: true,
        bound: 0.10,
        floor: 0.005,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        lower_is_better: true,
        bound: 0.10,
        floor: 0.0,
    },
];

/// Per-layer metrics `(name, unit)`, reported by every traced run; a
/// layer a workload's trace does not measure reads 0.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("latency_ms", "ms"),
    ("funnel.busy_s", "s"),
    ("funnel.records_per_s", "1/s"),
    ("corpus.generate_s", "s"),
    ("corpus.apps_per_s", "1/s"),
    ("shard.write_s", "s"),
    ("shard.write_mib_per_s", "MiB/s"),
    ("stream.cold_s", "s"),
    ("stream.resume_s", "s"),
    ("stream.peak_mapped_mib", "MiB"),
    ("stream.entries_cached", "count"),
    ("apk.decode_s", "s"),
    ("apk.decode_failed", "count"),
    ("decompile.subclass_s", "s"),
    ("callgraph.build_s", "s"),
    ("callgraph.edges", "count"),
    ("dataflow.annotate_s", "s"),
    ("dataflow.resolved_ratio", "ratio"),
    ("callgraph.record_s", "s"),
    ("label.hit_ratio", "ratio"),
    ("analyze.app_p50_us", "us"),
    ("analyze.app_tail_us", "us"),
    ("pipeline.join_tail_s", "s"),
    ("pipeline.utilization", "ratio"),
    ("aggregate.s", "s"),
    ("dynamic.busy_s", "s"),
    ("crawl.busy_s", "s"),
    ("crawl.visits_per_s", "1/s"),
    ("crawl.utilization", "ratio"),
    ("crawl.merge_s", "s"),
    ("render.s", "s"),
    ("service.dispatch_p50_us", "us"),
    ("net.wire_overhead_p50_us", "us"),
    ("net.healthz_p99_unloaded_ms", "ms"),
    ("net.healthz_p99_ms", "ms"),
    ("net.server_p99_us", "us"),
    ("net.shed", "count"),
    ("gen.late_p99_ms", "ms"),
    ("analyze.p99_ms", "ms"),
    ("analyze.max_rps", "req/s"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::workloads::WORKLOADS;

    /// The bound `BENCHMARK.json` states for `m`. It holds one share of
    /// the median, at most 25%, and no floor, so a metric with a floor
    /// states the 25% cap: tighter than `max(bound, floor / median)` for
    /// every median below `floor / 0.25` (20 ms for `setup_s`, whose
    /// medians are under 1 ms).
    fn declared_bound(m: &EndToEnd) -> f64 {
        if m.floor > 0.0 {
            0.25
        } else {
            m.bound
        }
    }

    /// `BENCHMARK.json` at the repository root must declare exactly this
    /// catalog, in this order.
    #[test]
    fn benchmark_json_matches_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let v = json::parse(&text).unwrap();
        let names = |key: &str| -> Vec<String> {
            v.get(key)
                .unwrap()
                .items()
                .iter()
                .map(|m| m.get("name").unwrap().as_str().unwrap().to_owned())
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS);
        assert_eq!(
            names("end_to_end"),
            END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        assert_eq!(
            names("per_layer"),
            PER_LAYER.iter().map(|m| m.0).collect::<Vec<_>>()
        );
        for (m, j) in END_TO_END.iter().zip(v.get("end_to_end").unwrap().items()) {
            assert_eq!(j.get("unit").unwrap().as_str(), Some(m.unit));
            assert_eq!(j.get("bound").unwrap().as_f64(), Some(declared_bound(m)));
            let better = if m.lower_is_better { "lower" } else { "higher" };
            assert_eq!(j.get("better").unwrap().as_str(), Some(better));
        }
        for (m, j) in PER_LAYER.iter().zip(v.get("per_layer").unwrap().items()) {
            assert_eq!(j.get("unit").unwrap().as_str(), Some(m.1), "{}", m.0);
        }
    }

    #[test]
    fn a_floor_widens_the_bound_only_for_small_medians() {
        let setup = END_TO_END[0];
        assert_eq!(setup.name, "setup_s");
        // 5 ms on a 0.1 ms median is 50x; on a 1 s median 10% is more.
        assert!((setup.allowed(1e-4) - 50.0).abs() < 1e-9);
        assert_eq!(setup.allowed(1.0), 0.10);
        assert_eq!(END_TO_END[1].allowed(1e-4), 0.10);
    }
}
