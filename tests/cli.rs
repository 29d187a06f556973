//! The `wla` binary from the outside: argument validation and what each
//! command writes to which stream. `wla` is the one front end for every
//! paper artifact, so these pin its whole surface.

use std::process::{Command, Output};

fn wla(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_wla"))
        .args(args)
        .output()
        .expect("spawn wla")
}

/// Assert `wla args` is a usage error; returns its stderr.
fn assert_usage_error(args: &[&str]) -> String {
    let out = wla(args);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} ran anyway");
    stderr
}

#[test]
fn zero_scale_is_a_usage_error() {
    for command in ["static", "all", "ablation", "whatif"] {
        assert_usage_error(&[command, "--scale", "0"]);
    }
}

#[test]
fn unparsable_or_missing_flag_values_are_usage_errors() {
    for command in ["static", "ablation", "whatif"] {
        assert_usage_error(&[command, "--scale", "abc"]);
        assert_usage_error(&[command, "--scale"]);
        assert_usage_error(&[command, "--seed", "abc"]);
    }
    assert_usage_error(&["serve", "--port", "abc"]);
}

#[test]
fn unknown_flags_and_stray_arguments_are_usage_errors() {
    for (args, bad) in [
        (&["static", "--scal", "4000"][..], "--scal"),
        (&["static", "extra"], "extra"),
        (&["all", "--scale", "4000", "-x"], "-x"),
        (&["serve", "--smoke", "now"], "now"),
        (&["crawl", "Kik", "--fast"], "--fast"),
    ] {
        let stderr = assert_usage_error(args);
        assert!(
            stderr.contains(&format!("wla: unknown argument \"{bad}\"")),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn help_prints_usage_to_stdout_and_exits_zero() {
    for flag in ["--help", "-h"] {
        let out = wla(&[flag]);
        assert_eq!(out.status.code(), Some(0), "{flag}: {out:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.starts_with("usage: wla "), "{flag}: {stdout}");
        assert!(stdout.contains("|ablation|whatif|"), "{flag}: {stdout}");
        assert!(out.stderr.is_empty(), "{flag}: {out:?}");
    }
}

#[test]
fn ablation_and_whatif_print_their_rows() {
    for (command, rows) in [
        (
            "ablation",
            &[
                "| Full pipeline (paper's method) ",
                "| No deep-link (first-party) exclusion ",
                "| No entry-point reachability (whole-graph scan) ",
                "\ndead-code call sites the traversal discarded: ",
            ][..],
        ),
        (
            "whatif",
            &[
                "| Baseline (paper's 2023 ecosystem) ",
                "| Payments+Auth+Social migrate (the paper's recommendation) ",
                "| Ad SDKs migrate (Partial-CT future work) ",
                "| Both migrations ",
            ],
        ),
    ] {
        let out = wla(&[command, "--scale", "4000"]);
        assert!(out.status.success(), "{out:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.starts_with(&format!("=== {command} ===\n")),
            "{stdout}"
        );
        for row in rows {
            assert!(stdout.contains(row), "{row}: {stdout}");
        }
    }
}

#[test]
fn unknown_crawl_app_is_a_usage_error() {
    assert_usage_error(&["crawl", "linkedin"]);
    assert_usage_error(&["crawl", "Kik", "NoSuchApp"]);
}

#[test]
fn static_prints_pipeline_stats_to_stderr_only() {
    let out = wla(&["static", "--scale", "4000"]);
    assert!(out.status.success(), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("Pipeline run summary"), "{stderr}");
    assert!(stderr.contains("Per-stage analysis time"), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("=== table3 ==="), "{stdout}");
    assert!(!stdout.contains("Pipeline run summary"), "{stdout}");
}

#[test]
fn labels_prints_pipeline_stats_to_stderr_only() {
    let out = wla(&["labels", "--scale", "4000"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("privacy-label grade distribution"),
        "{stdout}"
    );
    assert!(!stdout.contains("Pipeline run summary"), "{stdout}");
    assert!(!stdout.contains("Result tables"), "{stdout}");
    // `labels` builds a `PipelineOutput`, so its summary has the rows a
    // folded run hides: the merged symbols and the result tables.
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("Pipeline run summary"), "{stderr}");
    assert!(stderr.contains("Interned symbols"), "{stderr}");
    assert!(stderr.contains("Result tables"), "{stderr}");
}

#[test]
fn funnel_prints_pipeline_stats_to_stderr_only() {
    let out = wla(&["funnel", "--scale", "4000"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("=== table2 ==="), "{stdout}");
    assert!(!stdout.contains("Pipeline run summary"), "{stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("Pipeline run summary"), "{stderr}");
}

#[test]
fn all_prints_run_stats_and_tolerance_summary_to_stderr_only() {
    let out = wla(&["all", "--scale", "4000"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stdout.contains("=== table2 ==="), "{stdout}");
    assert!(stdout.contains("=== fig7 ==="), "{stdout}");
    for block in [
        "Pipeline run summary",
        "Crawl run summary",
        "=== Summary ===",
        "metrics within tolerance",
    ] {
        assert!(stderr.contains(block), "{block}: {stderr}");
        assert!(!stdout.contains(block), "{block}: {stdout}");
    }
}
