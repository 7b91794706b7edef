//! Integration tests for the `acq` command-line binary.

use std::process::Command;

fn acq() -> Command {
    Command::new(env!("CARGO_BIN_EXE_acq"))
}

#[test]
fn demo_expansion_run() {
    let out = acq()
        .args([
            "--demo",
            "users",
            "--demo-rows",
            "5000",
            "--stats",
            "SELECT * FROM users CONSTRAINT COUNT(*) = 2K WHERE age <= 30 AND income <= 60000",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("constraint satisfied"), "{stdout}");
    assert!(stdout.contains("CONSTRAINT COUNT(*) = 2000"), "{stdout}");
    assert!(stdout.contains("work: cell_queries="), "{stdout}");
}

#[test]
fn demo_contraction_run() {
    let out = acq()
        .args([
            "--demo",
            "users",
            "--demo-rows",
            "5000",
            "SELECT * FROM users CONSTRAINT COUNT(*) <= 500 WHERE age <= 70 AND income <= 200000",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("contraction"), "{stdout}");
    assert!(stdout.contains("constraint satisfied"), "{stdout}");
}

#[test]
fn overshooting_eq_constraint_falls_through_to_contraction() {
    // COUNT(*) = 100 when the original query already returns more: §7.2
    // says contract; the CLI must route there instead of dead-ending.
    let out = acq()
        .args([
            "--demo",
            "users",
            "--demo-rows",
            "500",
            "SELECT * FROM users CONSTRAINT COUNT(*) = 100 WHERE age <= 30",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("already overshoots"), "{stdout}");
    assert!(stdout.contains("constraint satisfied"), "{stdout}");
}

#[test]
fn csv_loading_and_query() {
    let dir = std::env::temp_dir().join("acq_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("items.csv");
    let mut csv = String::from("price,rating\n");
    for i in 0..500 {
        csv.push_str(&format!("{},{}\n", 5.0 + f64::from(i) * 0.5, i % 5));
    }
    std::fs::write(&path, csv).unwrap();

    let out = acq()
        .args([
            "--table",
            &format!("items={}", path.display()),
            "--top",
            "2",
            "SELECT * FROM items CONSTRAINT COUNT(*) = 300 WHERE price <= 50",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("constraint satisfied"), "{stdout}");
    assert!(stdout.contains("items.price"), "{stdout}");
}

#[test]
fn bad_usage_exits_nonzero() {
    let out = acq().output().expect("binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage:"), "{stderr}");

    let out = acq()
        .args(["--demo", "users", "SELECT * FROM users WHERE age <= 30"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("CONSTRAINT"),
        "missing-constraint diagnostics"
    );

    let sql = "SELECT * FROM users CONSTRAINT COUNT(*) = 50 WHERE age <= 30";
    let out = acq()
        .args(["--demo", "users", "--layer", "grid", sql])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown layer grid (expected scan | cached)"),
        "{stderr}"
    );
}

#[test]
fn stddev_diagnostic_through_cli() {
    let out = acq()
        .args([
            "--demo",
            "users",
            "--demo-rows",
            "1000",
            "SELECT * FROM users CONSTRAINT STDDEV(income) = 5 WHERE age <= 30",
        ])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("optimal substructure"),
        "OSP diagnostics expected"
    );
}
