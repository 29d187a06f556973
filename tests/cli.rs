//! The `wla` binary from the outside: argument validation and what each
//! command writes to which stream.

use std::process::{Command, Output};

fn wla(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_wla"))
        .args(args)
        .output()
        .expect("spawn wla")
}

fn assert_usage_error(args: &[&str]) {
    let out = wla(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} ran anyway");
}

#[test]
fn zero_scale_is_a_usage_error() {
    assert_usage_error(&["static", "--scale", "0"]);
    assert_usage_error(&["all", "--scale", "0"]);
}

#[test]
fn unparsable_or_missing_flag_values_are_usage_errors() {
    assert_usage_error(&["static", "--scale", "abc"]);
    assert_usage_error(&["static", "--scale"]);
    assert_usage_error(&["static", "--seed", "abc"]);
    assert_usage_error(&["serve", "--port", "abc"]);
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
