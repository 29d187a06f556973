//! Toy-size smoke runs of every workload through its checks, plus the
//! command line and result-line contract.

use super::*;

fn toy(workload: &str, trace: bool, expected_digest: Option<u64>) -> Opts {
    Opts {
        seed: 7,
        seconds: 0.05,
        trace,
        toy: true,
        work_dir: std::env::temp_dir().join(format!(
            "wla-benchmark-test-{workload}-{}-{}",
            u8::from(trace),
            std::process::id()
        )),
        expected_digest,
    }
}

/// Run a toy workload and check the result line's shape.
fn smoke(workload: &str, trace: bool) -> Outcome {
    let out = workloads::run(workload, &toy(workload, trace, None)).expect("known workload");
    assert_eq!(
        out.checks.failed, 0,
        "{workload}: {:?}",
        out.checks.problems
    );
    assert!(out.checks.attempted >= 2, "{workload}");
    let v = json::parse(&result_line(&out, trace)).unwrap();
    let keys: Vec<&str> = v.members().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(v.get("correct").unwrap().as_bool(), Some(true));
    let metrics = v.get("metrics").unwrap().members();
    let want = if trace {
        PER_LAYER.len()
    } else {
        END_TO_END.len()
    };
    assert_eq!(metrics.len(), want, "{workload}");
    for (name, m) in metrics {
        let value = m.get("value").unwrap().as_f64().unwrap();
        assert!(value.is_finite(), "{workload} {name}");
        if !trace {
            assert!(value > 0.0, "{workload}: e2e metric {name} is {value}");
        }
    }
    if trace {
        let coverage = metric(&out, "trace.coverage");
        assert!(coverage >= 0.95, "{workload}: coverage {coverage}");
        assert!(metric(&out, "latency_ms") > 0.0, "{workload}: run time");
    }
    out
}

fn metric(out: &Outcome, name: &str) -> f64 {
    out.layer
        .iter()
        .chain(&out.e2e)
        .find(|(n, _)| *n == name)
        .map_or(f64::NAN, |(_, v)| *v)
}

#[test]
fn study_all_smoke() {
    smoke("study_all", false);
}

#[test]
fn study_all_traced_reports_layers_and_overhead() {
    let out = smoke("study_all", true);
    assert!(metric(&out, "funnel.busy_s") > 0.0);
    assert!(metric(&out, "funnel.records_per_s") > 1e6);
    assert!(metric(&out, "trace.overhead_ratio").is_finite());
    assert!(metric(&out, "apk.decode_s") > 0.0, "drive ran");
}

#[test]
fn static_s10_smoke() {
    smoke("static_s10", false);
    let out = smoke("static_s10", true);
    assert!(metric(&out, "corpus.generate_s") > 0.0);
    assert!(metric(&out, "callgraph.edges") > 0.0);
}

#[test]
fn stream_s10_smoke() {
    smoke("stream_s10", false);
    let out = smoke("stream_s10", true);
    assert!(metric(&out, "stream.entries_cached") > 0.0);
    assert!(metric(&out, "shard.write_mib_per_s") > 0.0);
}

#[test]
fn crawl_all_smoke() {
    smoke("crawl_all", false);
    let out = smoke("crawl_all", true);
    assert!(metric(&out, "crawl.visits_per_s") > 0.0);
}

#[test]
fn serve_mixed_smoke() {
    smoke("serve_mixed", false);
    let out = smoke("serve_mixed", true);
    let probes = out.report.iter().filter(|l| l.starts_with("probe")).count();
    assert_eq!(probes, 6, "the traced run bisects for the maximum rate");
    assert!(metric(&out, "service.dispatch_p50_us") > 0.0);
}

#[test]
fn a_wrong_digest_fails_the_run() {
    let o = toy("crawl_all", false, Some(0x0123_4567_89ab_cdef));
    let out = workloads::run("crawl_all", &o).unwrap();
    assert!(out.checks.failed > 0);
    assert!(out.checks.problems[0].contains("stored default-seed digest"));
    let v = json::parse(&result_line(&out, false)).unwrap();
    assert_eq!(v.get("correct").unwrap().as_bool(), Some(false));
}

#[test]
fn parses_the_benchmark_command_line() {
    let argv: Vec<String> = "--workload serve_mixed --seed 0x10 --seconds 10 --trace 1"
        .split(' ')
        .map(str::to_owned)
        .collect();
    let args = parse_args(&argv).unwrap();
    assert_eq!(args.workload, "serve_mixed");
    assert_eq!(args.seed, 16);
    assert_eq!(args.seconds, 10.0);
    assert!(args.trace);
    assert_eq!(parse_seed("0xDA7A_5EED"), Some(digests::DEFAULT_SEED));
    assert_eq!(parse_seed("42"), Some(42));
    let bad = |s: &str| parse_args(&s.split(' ').map(str::to_owned).collect::<Vec<_>>());
    assert!(bad("--workload nope").is_err());
    assert!(bad("--trace 2").is_err());
    assert!(bad("--seconds 0").is_err());
    assert!(bad("--seed").is_err());
    assert_eq!(parse_args(&[]).unwrap().workload, "all");
}
