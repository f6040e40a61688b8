//! The study binaries reject bad command lines with a usage line and
//! exit status 2, never with a panic.

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
    for args in BAD.iter().chain([&["--render"][..]].iter()) {
        assert_usage_error(env!("CARGO_BIN_EXE_study_telemetry"), args);
    }
}
