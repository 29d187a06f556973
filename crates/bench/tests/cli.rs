//! The `exp_*` binaries from the outside: a zero, missing or unparsable
//! flag value is a usage error, not a panic or a silent default.

use std::process::Command;

#[test]
fn bad_flag_values_are_usage_errors() {
    for args in [
        &["--scale", "0"][..],
        &["--scale", "abc"],
        &["--scale"],
        &["--seed", "x"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_exp_table3"))
            .args(args)
            .output()
            .expect("spawn exp_table3");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran anyway");
    }
}

#[test]
fn help_exits_zero() {
    let out = Command::new(env!("CARGO_BIN_EXE_exp_table3"))
        .arg("--help")
        .output()
        .expect("spawn exp_table3");
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}
