//! Command-line behaviour that needs no measurement.

use std::process::Command;

fn benchmark(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(args)
        .output()
        .expect("the benchmark binary runs")
}

#[test]
fn debug_builds_refuse_to_measure() {
    if !cfg!(debug_assertions) {
        return; // a release test build is allowed to run
    }
    let out = benchmark(&["--workload", "compile-batch", "--seconds", "1"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("debug build"), "{err}");
    assert!(out.stdout.is_empty(), "no result line from a refused run");
}

#[test]
fn bad_flags_are_usage_errors() {
    for args in [
        &["--seed", "x"][..],
        &["--trace", "2"],
        &["--seconds", "0"],
        &["--frobnicate", "1"],
    ] {
        let out = benchmark(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
