//! Smoke tests over the real binaries' command lines: bad usage must
//! exit non-zero with the usage line, and `--help` must succeed.

use std::process::Command;

#[test]
fn retired_self_check_flags_are_usage_errors() {
    // `spanner-serve` only serves: a script still passing one of the
    // old in-process check flags must fail loudly, not start a server.
    for flag in ["--self-check", "--http", "--chaos", "--graphs"] {
        let out = Command::new(env!("CARGO_BIN_EXE_spanner-serve"))
            .arg(flag)
            .output()
            .expect("run spanner-serve");
        assert!(!out.status.success(), "{flag} must be rejected");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("usage: spanner-serve"),
            "{flag}: no usage line\nstderr: {stderr}"
        );
    }
}

#[test]
fn http_flag_without_self_check_is_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_spanner-serve"))
        .arg("--http")
        .output()
        .expect("run spanner-serve");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--http-port"));
}

#[test]
fn graphs_flag_without_self_check_is_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_spanner-serve"))
        .arg("--graphs")
        .output()
        .expect("run spanner-serve");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--self-check"));
}

#[test]
fn unknown_flags_exit_with_usage() {
    let out = Command::new(env!("CARGO_BIN_EXE_spanner-serve"))
        .arg("--bogus")
        .output()
        .expect("run spanner-serve");
    assert!(!out.status.success());
    let out = Command::new(env!("CARGO_BIN_EXE_spanner-cli"))
        .arg("frobnicate")
        .output()
        .expect("run spanner-cli");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

#[test]
fn explicit_help_succeeds_on_stdout() {
    for bin in [
        env!("CARGO_BIN_EXE_spanner-cli"),
        env!("CARGO_BIN_EXE_spanner-serve"),
    ] {
        let out = Command::new(bin)
            .arg("--help")
            .output()
            .expect("run --help");
        assert!(out.status.success(), "--help must exit 0 for {bin}");
        assert!(String::from_utf8_lossy(&out.stdout).contains("usage:"));
    }
    let out = Command::new(env!("CARGO_BIN_EXE_spanner-serve"))
        .arg("--help")
        .output()
        .expect("run --help");
    let usage = String::from_utf8_lossy(&out.stdout);
    for retired in ["--self-check", "--http ", "--http]", "--chaos", "--graphs"] {
        assert!(!usage.contains(retired), "usage lists {retired}: {usage}");
    }
}
