//! `--compare BASE NEW`: judge two result sets metric by metric.
//!
//! One row per workload and end-to-end metric. A metric *regressed* when
//! NEW's median is worse than BASE's by more than the metric's bound
//! (with its floor, [`EndToEnd::allowed`]). It is *unresolved* when
//! BASE's own quartile spread is wider than that bound — the runs cannot
//! tell a regression from noise — unless every NEW run beats every BASE
//! run. A workload's failure share (failed ÷ attempted) may not grow at
//! all. Sets from different hosts are never compared.

use crate::json::{self, Value};
use crate::measure::{median, spread, Host};
use crate::metrics::{EndToEnd, END_TO_END};
use crate::workloads::WORKLOADS;

/// A row's verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Ok,
    /// Worse by more than the bound.
    Regressed,
    /// BASE is too noisy to judge.
    Unresolved,
}

impl Verdict {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge one metric's NEW samples against its BASE samples.
pub fn verdict(base: &[f64], new: &[f64], metric: &EndToEnd) -> Verdict {
    if base.is_empty() || new.is_empty() {
        return Verdict::Unresolved;
    }
    let (b, n) = (median(base), median(new));
    let worse_by = if metric.lower_is_better {
        (n - b) / b
    } else {
        (b - n) / b
    };
    let fold = |init: f64, f: fn(f64, f64) -> f64, v: &[f64]| v.iter().copied().fold(init, f);
    let all_better = if metric.lower_is_better {
        fold(f64::NEG_INFINITY, f64::max, new) < fold(f64::INFINITY, f64::min, base)
    } else {
        fold(f64::INFINITY, f64::min, new) > fold(f64::NEG_INFINITY, f64::max, base)
    };
    let bound = metric.allowed(b);
    if spread(base) > bound {
        if all_better {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// One compared (workload, metric) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name (`failed_share` for the failure check).
    pub metric: String,
    /// BASE median.
    pub base: f64,
    /// NEW median.
    pub new: f64,
    /// BASE's quartile spread as a share of its median.
    pub base_spread: f64,
    /// Bound the verdict used.
    pub bound: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Per-run records of one workload in a result set.
fn runs<'a>(set: &'a Value, workload: &str) -> Vec<&'a Value> {
    set.get("runs")
        .map(Value::items)
        .unwrap_or_default()
        .iter()
        .filter(|r| r.get("workload").and_then(Value::as_str) == Some(workload))
        .collect()
}

fn values(runs: &[&Value], metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

fn failed_share(runs: &[&Value]) -> f64 {
    let sum = |key: &str| {
        runs.iter()
            .filter_map(|r| r.get(key)?.as_f64())
            .sum::<f64>()
    };
    sum("failed") / sum("attempted").max(1.0)
}

/// Compare two result sets (the JSON `--json` writes).
pub fn compare(base: &Value, new: &Value) -> Result<Vec<Row>, String> {
    let host = |set: &Value, which: &str| {
        set.get("_host")
            .and_then(Host::from_json)
            .ok_or_else(|| format!("{which} has no _host record"))
    };
    let (bh, nh) = (host(base, "BASE")?, host(new, "NEW")?);
    if bh != nh {
        return Err(format!(
            "refusing to compare across hosts:\n  BASE {}\n  NEW  {}",
            bh.to_json(),
            nh.to_json()
        ));
    }
    let mut rows = Vec::new();
    for workload in WORKLOADS {
        let (b, n) = (runs(base, workload), runs(new, workload));
        if b.is_empty() || n.is_empty() {
            continue;
        }
        for metric in &END_TO_END {
            let (bv, nv) = (values(&b, metric.name), values(&n, metric.name));
            if bv.is_empty() && nv.is_empty() {
                continue;
            }
            rows.push(Row {
                workload: workload.to_owned(),
                metric: metric.name.to_owned(),
                base: median(&bv),
                new: median(&nv),
                base_spread: spread(&bv),
                bound: metric.allowed(median(&bv)),
                verdict: verdict(&bv, &nv, metric),
            });
        }
        let (bf, nf) = (failed_share(&b), failed_share(&n));
        rows.push(Row {
            workload: workload.to_owned(),
            metric: "failed_share".to_owned(),
            base: bf,
            new: nf,
            base_spread: 0.0,
            bound: 0.0,
            verdict: if nf > bf {
                Verdict::Regressed
            } else {
                Verdict::Ok
            },
        });
    }
    Ok(rows)
}

/// The comparison as a table.
pub fn table(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<12} {:<14} {:>14} {:>14} {:>9} {:>9} {:>7}  verdict\n",
        "workload", "metric", "base median", "new median", "change", "spread", "bound"
    );
    for r in rows {
        let change = if r.base != 0.0 {
            format!("{:+.2}%", 100.0 * (r.new - r.base) / r.base)
        } else {
            "-".to_owned()
        };
        out.push_str(&format!(
            "{:<12} {:<14} {:>14.6} {:>14.6} {:>9} {:>8.2}% {:>6.1}%  {}\n",
            r.workload,
            r.metric,
            r.base,
            r.new,
            change,
            100.0 * r.base_spread,
            100.0 * r.bound,
            r.verdict.label()
        ));
    }
    out
}

/// Read a result set from disk.
pub fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    const LATENCY: EndToEnd = EndToEnd {
        name: "latency_ms",
        unit: "ms",
        lower_is_better: true,
        bound: 0.1,
        floor: 0.0,
    };
    const HIGHER: EndToEnd = EndToEnd {
        name: "rps",
        unit: "req/s",
        lower_is_better: false,
        bound: 0.1,
        floor: 0.0,
    };

    #[test]
    fn verdicts_follow_the_bound_and_the_base_spread() {
        let base = [
            100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9,
        ];
        let same: Vec<f64> = base.iter().map(|x| x * 1.02).collect();
        let slower: Vec<f64> = base.iter().map(|x| x * 1.2).collect();
        let faster: Vec<f64> = base.iter().map(|x| x * 0.5).collect();
        assert_eq!(verdict(&base, &same, &LATENCY), Verdict::Ok);
        assert_eq!(verdict(&base, &slower, &LATENCY), Verdict::Regressed);
        assert_eq!(verdict(&base, &faster, &LATENCY), Verdict::Ok);
        // Higher-is-better flips the direction.
        assert_eq!(verdict(&base, &slower, &HIGHER), Verdict::Ok);
        assert_eq!(verdict(&base, &faster, &HIGHER), Verdict::Regressed);

        // A BASE whose own quartile spread exceeds the bound cannot judge
        // a small change either way...
        let noisy = [
            50.0, 150.0, 80.0, 120.0, 100.0, 60.0, 140.0, 90.0, 110.0, 100.0,
        ];
        assert_eq!(verdict(&noisy, &same, &LATENCY), Verdict::Unresolved);
        assert_eq!(verdict(&noisy, &slower, &LATENCY), Verdict::Unresolved);
        // ...unless every NEW run beats every BASE run.
        let all_better = [40.0, 41.0, 42.0];
        assert_eq!(verdict(&noisy, &all_better, &LATENCY), Verdict::Ok);
        assert_eq!(verdict(&[], &same, &LATENCY), Verdict::Unresolved);
    }

    #[test]
    fn the_setup_floor_allows_five_milliseconds() {
        let setup = END_TO_END[0];
        let base = [1.0e-4, 1.1e-4, 0.9e-4, 1.0e-4];
        // BASE spreads 15% and NEW is three times slower, but both are
        // well within the 5 ms floor.
        let slower = [3.0e-4, 2.0e-4, 4.0e-4, 3.0e-4];
        assert_eq!(verdict(&base, &slower, &setup), Verdict::Ok);
        let much_slower = [6.0e-3, 6.1e-3, 5.9e-3, 6.0e-3];
        assert_eq!(verdict(&base, &much_slower, &setup), Verdict::Regressed);
    }

    fn set(host_cores: usize, rss: &[f64], failed: u64) -> Value {
        let host = Host {
            available_parallelism: host_cores,
            profile: "release".into(),
            rustc: "rustc 1.0".into(),
            kernel: "6.0".into(),
        };
        let runs: Vec<String> = rss
            .iter()
            .map(|r| {
                format!(
                    "{{\"workload\":\"crawl_all\",\"seed\":1,\"correct\":true,\"attempted\":100,\
                     \"failed\":{failed},\"metrics\":{{\"peak_rss_mib\":{{\"value\":{r},\"unit\":\"MiB\"}}}}}}"
                )
            })
            .collect();
        json::parse(&format!(
            "{{\"_host\":{},\"runs\":[{}]}}",
            host.to_json(),
            runs.join(",")
        ))
        .unwrap()
    }

    #[test]
    fn sets_compare_per_workload_with_a_failure_share_row() {
        let base = set(2, &[10.0, 10.1, 9.9, 10.0], 0);
        let rows = compare(&base, &set(2, &[10.05, 10.0, 10.1, 9.95], 0)).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].metric, "peak_rss_mib");
        assert!(rows.iter().all(|r| r.verdict == Verdict::Ok));

        // 30% more memory: past the catalog's bound.
        let rows = compare(&base, &set(2, &[13.0, 13.1, 12.9, 13.0], 1)).unwrap();
        assert_eq!(rows[0].verdict, Verdict::Regressed);
        assert_eq!(rows[1].metric, "failed_share");
        assert_eq!(rows[1].verdict, Verdict::Regressed);
        assert!(table(&rows).contains("regressed"));
    }

    #[test]
    fn refuses_to_compare_across_hosts() {
        let err = compare(&set(2, &[10.0], 0), &set(8, &[10.0], 0)).unwrap_err();
        assert!(err.contains("refusing to compare across hosts"), "{err}");
        let no_host = json::parse("{\"runs\":[]}").unwrap();
        assert!(compare(&no_host, &no_host).is_err());
    }
}
