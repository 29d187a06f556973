//! `benchmark` — the repository's end-to-end benchmark.
//!
//! ```text
//! benchmark [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
//!           [--trace-out FILE] [--runs N] [--json OUT]
//! benchmark --compare BASE.json NEW.json
//! ```
//!
//! One workload (`--workload NAME`, one run) runs in this process, prints
//! a summary and every metric by name with its unit, and ends with one
//! JSON line: `{"correct", "attempted", "failed", "metrics"}` — the
//! end-to-end metrics, or with `--trace 1` the per-layer ones. Anything
//! else (`--workload all`, the default, or `--runs N > 1`) runs each
//! workload in a child process of its own, so each run's peak RSS is its
//! own, and summarizes the runs. Run `i` of a set uses seed `seed + i`.
//! `--json OUT` writes the runs as a result set with the `_host` record,
//! and `--compare` judges one set against another.
//!
//! See README.md beside this crate for the metrics and workloads.

mod compare;
mod digests;
mod drive;
mod json;
mod measure;
mod metrics;
mod serve;
mod trace;
mod workloads;

use measure::{median, quartiles, spread, Host};
use metrics::{END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use workloads::{Opts, Outcome, WORKLOADS};

const USAGE: &str = "usage: benchmark [--workload NAME|all] [--seed N] [--seconds S] \
[--trace 0|1] [--trace-out FILE] [--runs N] [--json OUT]\n       \
benchmark --compare BASE.json NEW.json\nworkloads: study_all static_s10 stream_s10 crawl_all serve_mixed";

/// Where run artifacts (shard scratch, traces) go, relative to the
/// working directory.
const OUT_DIR: &str = "bench-out";

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
    runs: usize,
    json: Option<PathBuf>,
    compare: Option<(String, String)>,
}

fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(&hex.replace('_', ""), 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: "all".to_owned(),
        seed: digests::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        trace_out: None,
        runs: 1,
        json: None,
        compare: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => {
                let v = value()?;
                args.seed = parse_seed(&v).ok_or_else(|| format!("bad seed {v:?}"))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {v:?}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--trace-out" => args.trace_out = Some(value()?.into()),
            "--runs" => {
                let v = value()?;
                args.runs = v
                    .parse()
                    .ok()
                    .filter(|n| *n >= 1)
                    .ok_or_else(|| format!("bad --runs {v:?}"))?;
            }
            "--json" => args.json = Some(value()?.into()),
            "--compare" => args.compare = Some((value()?, value()?)),
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("{e}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some((base, new)) = &args.compare {
        return run_compare(base, new);
    }
    if args.workload != "all" && args.runs == 1 {
        run_one(&args)
    } else {
        run_many(&args)
    }
}

fn run_compare(base: &str, new: &str) -> ExitCode {
    let rows = compare::load(base)
        .and_then(|b| compare::load(new).map(|n| (b, n)))
        .and_then(|(b, n)| compare::compare(&b, &n));
    match rows {
        Ok(rows) => {
            print!("{}", compare::table(&rows));
            if rows
                .iter()
                .any(|r| r.verdict == compare::Verdict::Regressed)
            {
                ExitCode::from(1)
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

/// Metric values of one run, in catalog order: the end-to-end metrics,
/// or the per-layer ones for a traced run (0 for a layer the workload's
/// trace does not measure).
fn metric_values(out: &Outcome, trace: bool) -> Vec<(&'static str, &'static str, f64)> {
    let find = |list: &[(&'static str, f64)], name: &str| {
        list.iter().rev().find(|(n, _)| *n == name).map(|(_, v)| *v)
    };
    if trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, unit, find(&out.layer, name).unwrap_or(0.0)))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| {
                let v = find(&out.e2e, m.name).expect("every workload reports every e2e metric");
                (m.name, m.unit, v)
            })
            .collect()
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
fn result_line(out: &Outcome, trace: bool) -> String {
    let metrics: Vec<String> = metric_values(out, trace)
        .into_iter()
        .map(|(name, unit, v)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::string(name),
                json::number(v),
                json::string(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.checks.failed == 0,
        out.checks.attempted.max(1),
        out.checks.failed,
        metrics.join(", ")
    )
}

/// A result set: the host record plus one record per run.
fn result_set(args: &Args, runs: &[String]) -> String {
    format!(
        "{{\"_host\": {},\n \"seconds\": {}, \"trace\": {},\n \"runs\": [\n  {}\n ]}}\n",
        Host::current().to_json(),
        json::number(args.seconds),
        args.trace,
        runs.join(",\n  ")
    )
}

/// One run's record in a result set: its result line plus workload and
/// seed.
fn run_record(workload: &str, seed: u64, line: &str) -> String {
    format!(
        "{{\"workload\": {}, \"seed\": {seed}, {}",
        json::string(workload),
        line.trim().strip_prefix('{').unwrap_or(line)
    )
}

fn write_file(path: &PathBuf, text: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, text)
}

fn run_one(args: &Args) -> ExitCode {
    let w = args.workload.as_str();
    let opts = Opts {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        toy: false,
        work_dir: PathBuf::from(OUT_DIR).join(format!("{w}-{}", std::process::id())),
        expected_digest: (args.seed == digests::DEFAULT_SEED)
            .then(|| digests::expected(w))
            .flatten(),
    };
    // Nothing is written until the run ends: a reader waking on our
    // output mid-run perturbs what is being timed.
    let out = workloads::run(w, &opts).expect("workload names are validated");
    println!(
        "workload {w}  seed {:#x}  seconds {}  trace {}",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("_host {}", Host::current().to_json());
    for line in &out.report {
        println!("  {line}");
    }
    for problem in &out.checks.problems {
        println!("  FAILED: {problem}");
    }
    if args.trace {
        print!("{}", out.tracer.table());
        let path = args
            .trace_out
            .clone()
            .unwrap_or_else(|| PathBuf::from(OUT_DIR).join(format!("trace-{w}.json")));
        let text = format!(
            "{{\"workload\": {}, \"seed\": {}, \"spans\": {}}}\n",
            json::string(w),
            args.seed,
            out.tracer.to_json()
        );
        match write_file(&path, &text) {
            Ok(()) => println!("  spans written to {}", path.display()),
            Err(e) => println!("  could not write spans to {}: {e}", path.display()),
        }
    }
    for (name, unit, v) in metric_values(&out, args.trace) {
        println!("  {name:<28} {v:>16.6} {unit}");
    }
    println!(
        "  attempted {}  failed {}",
        out.checks.attempted, out.checks.failed
    );
    let line = result_line(&out, args.trace);
    if let Some(path) = &args.json {
        let set = result_set(args, &[run_record(w, args.seed, &line)]);
        if let Err(e) = write_file(path, &set) {
            eprintln!("could not write {}: {e}", path.display());
        }
    }
    println!("{line}");
    ExitCode::SUCCESS
}

fn run_many(args: &Args) -> ExitCode {
    let workloads: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find this executable: {e}");
            return ExitCode::from(1);
        }
    };
    let mut records = Vec::new();
    let mut results: Vec<(&str, json::Value)> = Vec::new();
    let mut all_ok = true;
    // Rounds interleave the workloads, so slow drift on the host spreads
    // across all of them rather than landing on one.
    for round in 0..args.runs {
        for &w in &workloads {
            let seed = args.seed.wrapping_add(round as u64);
            let child = Command::new(&exe)
                .args(["--workload", w, "--seed", &seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }])
                .stdin(Stdio::null())
                .stderr(Stdio::inherit())
                .output();
            let output = match child {
                Ok(output) => output,
                Err(e) => {
                    eprintln!("could not run {w}: {e}");
                    all_ok = false;
                    continue;
                }
            };
            let stdout = String::from_utf8_lossy(&output.stdout);
            let mut lines: Vec<&str> = stdout.lines().collect();
            let last = lines.pop().unwrap_or_default();
            for line in lines {
                println!("{line}");
            }
            match (output.status.success(), json::parse(last)) {
                (true, Ok(value)) => {
                    all_ok &= value.get("correct").and_then(json::Value::as_bool) == Some(true);
                    records.push(run_record(w, seed, last));
                    results.push((w, value));
                }
                _ => {
                    eprintln!("{w} (seed {seed}) failed: {}", output.status);
                    all_ok = false;
                }
            }
        }
    }
    println!("\n{}", summary(&workloads, &results, args.trace));
    if let Some(path) = &args.json {
        match write_file(path, &result_set(args, &records)) {
            Ok(()) => println!("result set written to {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Per-workload, per-metric medians, quartiles, and spread over runs.
fn summary(workloads: &[&str], results: &[(&str, json::Value)], trace: bool) -> String {
    let names: Vec<(&str, &str)> = if trace {
        PER_LAYER.to_vec()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    let mut out = format!(
        "{:<12} {:<28} {:>14} {:>14} {:>14} {:>8} {:>3}\n",
        "workload", "metric", "median", "q1", "q3", "spread", "n"
    );
    for &w in workloads {
        let runs: Vec<&json::Value> = results
            .iter()
            .filter(|(name, _)| *name == w)
            .map(|(_, v)| v)
            .collect();
        if runs.is_empty() {
            continue;
        }
        for &(name, unit) in &names {
            let v: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.get("metrics")?.get(name)?.get("value")?.as_f64())
                .collect();
            let (q1, q3) = quartiles(&v);
            out.push_str(&format!(
                "{:<12} {:<28} {:>14.6} {:>14.6} {:>14.6} {:>7.2}% {:>3}  {unit}\n",
                w,
                name,
                median(&v),
                q1,
                q3,
                100.0 * spread(&v),
                v.len()
            ));
        }
        let sum = |key: &str| {
            runs.iter()
                .filter_map(|r| r.get(key)?.as_f64())
                .sum::<f64>()
        };
        out.push_str(&format!(
            "{:<12} {:<28} attempted {} failed {}\n",
            w,
            "checks",
            sum("attempted"),
            sum("failed")
        ));
    }
    out
}

#[cfg(test)]
mod tests;
