//! `acq --json` output contract tests (hand-rolled JSON must stay valid and
//! stable enough to script against).

use std::process::Command;

fn acq_json(sql: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_acq"))
        .args([
            "--demo",
            "users",
            "--demo-rows",
            "3000",
            "--json",
            "--top",
            "3",
            sql,
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8")
}

/// A tiny structural JSON validator: object/array/string/number/bool/null
/// with correct nesting — enough to prove the output is machine-parseable
/// without pulling in a JSON dependency.
fn validate_json(s: &str) -> Result<(), String> {
    let b: Vec<char> = s.trim().chars().collect();
    let mut i = 0usize;
    fn ws(b: &[char], i: &mut usize) {
        while *i < b.len() && b[*i].is_whitespace() {
            *i += 1;
        }
    }
    fn value(b: &[char], i: &mut usize) -> Result<(), String> {
        ws(b, i);
        match b.get(*i) {
            Some('{') => {
                *i += 1;
                ws(b, i);
                if b.get(*i) == Some(&'}') {
                    *i += 1;
                    return Ok(());
                }
                loop {
                    ws(b, i);
                    string(b, i)?;
                    ws(b, i);
                    if b.get(*i) != Some(&':') {
                        return Err(format!("expected ':' at {i}"));
                    }
                    *i += 1;
                    value(b, i)?;
                    ws(b, i);
                    match b.get(*i) {
                        Some(',') => *i += 1,
                        Some('}') => {
                            *i += 1;
                            return Ok(());
                        }
                        other => return Err(format!("expected ',' or '}}' at {i}: {other:?}")),
                    }
                }
            }
            Some('[') => {
                *i += 1;
                ws(b, i);
                if b.get(*i) == Some(&']') {
                    *i += 1;
                    return Ok(());
                }
                loop {
                    value(b, i)?;
                    ws(b, i);
                    match b.get(*i) {
                        Some(',') => *i += 1,
                        Some(']') => {
                            *i += 1;
                            return Ok(());
                        }
                        other => return Err(format!("expected ',' or ']' at {i}: {other:?}")),
                    }
                }
            }
            Some('"') => string(b, i),
            Some(c) if c.is_ascii_digit() || *c == '-' => {
                while *i < b.len()
                    && (b[*i].is_ascii_digit() || matches!(b[*i], '.' | '-' | '+' | 'e' | 'E'))
                {
                    *i += 1;
                }
                Ok(())
            }
            Some('t') | Some('f') | Some('n') => {
                while *i < b.len() && b[*i].is_ascii_alphabetic() {
                    *i += 1;
                }
                Ok(())
            }
            other => Err(format!("unexpected {other:?} at {i}")),
        }
    }
    fn string(b: &[char], i: &mut usize) -> Result<(), String> {
        if b.get(*i) != Some(&'"') {
            return Err(format!("expected '\"' at {i}"));
        }
        *i += 1;
        while let Some(&c) = b.get(*i) {
            match c {
                '\\' => *i += 2,
                '"' => {
                    *i += 1;
                    return Ok(());
                }
                _ => *i += 1,
            }
        }
        Err("unterminated string".to_string())
    }
    value(&b, &mut i)?;
    ws(&b, &mut i);
    if i != b.len() {
        return Err(format!("trailing content at {i}"));
    }
    Ok(())
}

#[test]
fn json_output_is_valid_and_complete() {
    let out = acq_json(
        "SELECT * FROM users CONSTRAINT COUNT(*) = 1K WHERE age <= 30 AND income <= 60000",
    );
    validate_json(&out).unwrap_or_else(|e| panic!("{e}\n{out}"));
    for key in [
        "\"satisfied\":true",
        "\"original_aggregate\":",
        "\"queries\":[",
        "\"pscores\":[",
        "\"sql\":\"SELECT * FROM users",
        "\"stats\":{",
        // Every engine work counter, not a hand-picked subset.
        "\"cell_queries\":",
        "\"full_queries\":",
        "\"tuples_scanned\":",
        "\"rows_joined\":",
        "\"index_probes\":",
        "\"cells_skipped\":",
        // --json always carries a metrics snapshot.
        "\"metrics\":{",
        "\"cells_executed\":",
        "\"at_most_once_violations\":0",
        "\"layer_latency_ns\":{",
        "\"exec_stats\":{",
    ] {
        assert!(out.contains(key), "missing {key}\n{out}");
    }
}

#[test]
fn json_output_on_unsatisfiable_has_closest() {
    let out = acq_json(
        "SELECT * FROM users CONSTRAINT COUNT(*) = 9M WHERE age <= 30 AND income <= 60000",
    );
    validate_json(&out).unwrap_or_else(|e| panic!("{e}\n{out}"));
    assert!(out.contains("\"satisfied\":false"), "{out}");
    assert!(out.contains("\"closest\":{"), "{out}");
    assert!(out.contains("\"queries\":[]"), "{out}");
}

#[test]
fn validator_rejects_garbage() {
    assert!(validate_json("{\"a\":1,}").is_err());
    assert!(validate_json("{\"a\" 1}").is_err());
    assert!(validate_json("[1, 2").is_err());
    assert!(validate_json("{} trailing").is_err());
    assert!(validate_json("{\"a\": [true, null, -1.5e3, \"s\\\"q\"]}").is_ok());
}

/// The deterministic-instruments contract end to end, on a fig9-shaped
/// search with four workers and every sink on: the metrics file counts one
/// cell execution per explored query, never one twice, and says what the
/// snapshot embedded in the outcome says.
#[test]
fn metrics_file_matches_the_outcome() {
    let path = std::env::temp_dir().join(format!("acq_metrics_{}.json", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_acq"))
        .args([
            "--demo",
            "tpch",
            "--threads",
            "4",
            "--json",
            "--metrics-out",
        ])
        .arg(&path)
        .arg(
            "SELECT * FROM lineitem CONSTRAINT COUNT(*) = 3K \
             WHERE l_quantity <= 25 AND l_extendedprice <= 20000 AND l_discount <= 0.04",
        )
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let file = std::fs::read_to_string(&path).expect("metrics file written");
    std::fs::remove_file(&path).ok();
    let outcome = acq_obs::json::parse(&String::from_utf8_lossy(&out.stdout)).expect("outcome");
    let metrics = acq_obs::json::parse(&file).expect("metrics file");
    let count = |doc: &acq_obs::json::JsonValue, at: &str| {
        doc.pointer(at)
            .and_then(acq_obs::json::JsonValue::as_u64)
            .unwrap_or_else(|| panic!("no {at}"))
    };
    let executed = count(&metrics, "/counters/cells_executed");
    assert_eq!(executed, count(&outcome, "/explored"));
    assert_eq!(count(&metrics, "/counters/at_most_once_violations"), 0);
    assert_eq!(
        count(&outcome, "/metrics/counters/cells_executed"),
        executed
    );
}
