//! The study binaries reject bad command lines with a usage line and
//! exit status 2, never with a panic; `collector_status` reports an
//! unreachable collector with exit status 1, also without a panic.

use std::net::TcpListener;
use std::process::Command;

/// Runs `bin` with `args` and asserts a clean usage error.
fn assert_usage_error(bin: &str, args: &[&str]) {
    let out = Command::new(bin)
        .args(args)
        .output()
        .expect("the binary starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
    assert!(stderr.contains("usage:"), "{bin} {args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{bin} {args:?}: {stderr}");
}

const BAD: &[&[&str]] = &[
    &["--scale", "0"],
    &["--scale", "-0.5"],
    &["--scale", "2"],
    &["--scale", "x"],
    &["--scale"],
    &["--seed", "x"],
    &["--seed"],
    &["--seed", "1", "--bogus", "1"],
];

#[test]
fn repro_rejects_bad_arguments_with_exit_2() {
    for args in BAD {
        assert_usage_error(env!("CARGO_BIN_EXE_repro"), args);
    }
}

#[test]
fn study_telemetry_rejects_bad_arguments_with_exit_2() {
    for args in BAD {
        assert_usage_error(env!("CARGO_BIN_EXE_study_telemetry"), args);
    }
}

#[test]
fn collector_status_reports_unreachable_collector_with_exit_1() {
    // A port that was just bound and released has no listener behind it.
    let port = TcpListener::bind("127.0.0.1:0")
        .expect("binding an ephemeral port")
        .local_addr()
        .expect("the listener has an address")
        .port();
    let target = format!("127.0.0.1:{port}");
    let out = Command::new(env!("CARGO_BIN_EXE_collector_status"))
        .args([target.as_str(), "--count", "1"])
        .output()
        .expect("the binary starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("cannot connect"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
