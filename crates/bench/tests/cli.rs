//! The `reproduce` command line: a flag it does not know is an error, never
//! a silently ignored no-op that runs the default matrix instead.

use std::process::{Command, Output};

fn reproduce(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .output()
        .expect("the reproduce binary runs")
}

/// `args` must exit nonzero with `flag` named on stderr.
fn assert_rejects(args: &[&str], flag: &str) {
    let out = reproduce(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{args:?} exited 0");
    assert!(
        stderr.contains(&format!("unknown flag {flag}")),
        "{args:?}: stderr does not name {flag}:\n{stderr}"
    );
}

#[test]
fn a_misspelt_flag_is_rejected_by_name() {
    assert_rejects(&["--tiny", "--table2", "--protcol", "lrc"], "--protcol");
    assert_rejects(&["fuzz", "--tiny", "--fautls", "lossy"], "--fautls");
    assert_rejects(
        &["sweep", "--tiny", "--vary", "procs", "--prcs", "4"],
        "--prcs",
    );
}

#[test]
fn retired_execution_knobs_are_rejected_by_name() {
    assert_rejects(&["--tiny", "--islands", "4"], "--islands");
    assert_rejects(&["--tiny", "--island-threads", "2"], "--island-threads");
}

#[test]
fn a_flag_value_that_looks_like_a_flag_is_not_a_flag() {
    // `--bench-out` takes any file name, even one spelt like a flag; the
    // catalogue then prints as usual.
    let out = reproduce(&["--list", "--bench-out", "--not-a-flag"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn the_catalogue_lists_successfully() {
    let out = reproduce(&["--list"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Execution knobs"), "{stdout}");
}
