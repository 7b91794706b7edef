//! Integration tests for the `acq journal` subcommand: replaying a durable
//! query journal offline, torn final line included, exactly as an operator
//! would after pulling the file off a crashed box.

use std::io::Write as _;
use std::process::Command;

fn acq() -> Command {
    Command::new(env!("CARGO_BIN_EXE_acq"))
}

/// Writes a three-segment-free journal with two query records, one record
/// of another kind (`alert`), one malformed line and a torn (newline-less)
/// tail.
fn write_fixture(tag: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!(
        "acq-journal-cli-{tag}-{}.journal",
        std::process::id()
    ));
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(
        concat!(
            "{\"v\":1,\"kind\":\"query\",\"at_ms\":10,\"id\":1,\"status\":200,\"termination\":\"satisfied\",\"outcome_key\":\"00000000deadbeef\"}\n",
            "{\"v\":1,\"kind\":\"query\",\"at_ms\":20,\"id\":2,\"status\":503,\"error\":\"shed: at capacity\"}\n",
            "{\"v\":1,\"kind\":\"alert\",\"at_ms\":30,\"rule\":\"shed-rate-high\",\"transition\":\"firing\",\"value\":2.5,\"threshold\":0.2}\n",
            "not json at all\n",
            "{\"v\":1,\"kind\":\"query\",\"at_ms\":40,\"id\":3"
        )
        .as_bytes(),
    )
    .unwrap();
    path
}

#[test]
fn replay_prints_records_and_reports_the_torn_tail_on_stderr() {
    let path = write_fixture("replay");
    let out = acq()
        .args(["journal", "replay", path.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    // Every intact line replays verbatim, in order — even the malformed one
    // (replay is cat-with-recovery, not a validator).
    assert_eq!(stdout.lines().count(), 4, "{stdout}");
    assert!(
        stdout.lines().next().unwrap().contains("\"id\":1"),
        "{stdout}"
    );
    assert!(stdout.contains("not json at all"), "{stdout}");
    // The torn tail is never printed as data; it is reported honestly.
    assert!(!stdout.contains("\"id\":3"), "{stdout}");
    assert!(stderr.contains("1 torn"), "{stderr}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn summarize_counts_kinds_terminations_and_damage() {
    let path = write_fixture("summarize");
    let out = acq()
        .args(["journal", "summarize", path.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    for needle in [
        "2 query",
        "1 other",
        "malformed: 1",
        "torn: 1",
        "termination satisfied: 1",
    ] {
        assert!(stdout.contains(needle), "missing `{needle}` in:\n{stdout}");
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn grep_filters_records_by_fixed_string() {
    let path = write_fixture("grep");
    let out = acq()
        .args(["journal", "grep", "shed", path.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.lines().count(), 2, "{stdout}");
    assert!(stdout.contains("shed: at capacity"), "{stdout}");
    assert!(stdout.contains("shed-rate-high"), "{stdout}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn missing_journal_is_a_clean_error_not_a_panic() {
    let out = acq()
        .args(["journal", "summarize", "/nonexistent-acq/q.journal"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("no such journal"), "{stderr}");
}

#[test]
fn journal_usage_is_printed_for_bad_invocations() {
    let out = acq().args(["journal"]).output().expect("binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("summarize"), "{stderr}");
    assert!(stderr.contains("replay"), "{stderr}");
}
