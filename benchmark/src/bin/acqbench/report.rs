//! Metric names, the one-line result of a round, the report of a full run,
//! and the comparison of two reports.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::repo_api::{self, JsonValue};
use crate::stats::{median, noise_floor};

/// End-to-end metrics, `(name, unit)`: what `round --trace 0` prints.
pub const END_TO_END: [(&str, &str); 5] = [
    ("throughput_qps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, `(name, unit)`: what `round --trace 1` prints. The
/// prefix is the crate the number belongs to.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("sql.parse_us", "us"),
    ("sql.bind_us", "us"),
    ("core.space_us", "us"),
    ("core.prepare_ms", "ms"),
    ("core.search_ms", "ms"),
    ("core.search_self_ms", "ms"),
    ("core.contract_ms", "ms"),
    ("core.explored_cells", "count"),
    ("core.layers", "count"),
    ("core.answers", "count"),
    ("core.peak_store", "count"),
    ("core.pool.speedup_t2", "ratio"),
    ("engine.base_relation_ms", "ms"),
    ("engine.cell_ms", "ms"),
    ("engine.cell_calls", "count"),
    ("engine.tuples_scanned", "count"),
    ("engine.rows_joined", "count"),
    ("engine.zones_pruned", "count"),
    ("engine.zones_full", "count"),
    ("engine.zones_scanned", "count"),
    ("engine.full_queries", "count"),
    ("engine.zone_skip_ratio", "ratio"),
    ("engine.full_fold_ratio", "ratio"),
    ("serve.rtt_ms", "ms"),
    ("serve.healthz_rtt_ms", "ms"),
    ("serve.server_duration_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.response_bytes", "bytes"),
    ("serve.admission.shed", "count"),
    ("serve.admission.queued", "count"),
    ("serve.admission.degraded", "count"),
    ("serve.keepalive_reuses", "count"),
    ("obs.handle_cost_ms", "ms"),
    ("obs.journal.records_per_request", "ratio"),
    ("obs.journal.dropped", "count"),
    ("obs.journal.bytes_per_request", "bytes"),
    ("datagen.generate_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.closure_gap_pct", "%"),
];

/// Per-layer metrics that depend on the inputs alone: two runs of the same
/// code on the same seed must report the same value.
pub const EXACT_COUNTS: [&str; 16] = [
    "core.explored_cells",
    "core.layers",
    "core.answers",
    "core.peak_store",
    "engine.cell_calls",
    "engine.tuples_scanned",
    "engine.rows_joined",
    "engine.zones_pruned",
    "engine.zones_full",
    "engine.zones_scanned",
    "engine.full_queries",
    "engine.zone_skip_ratio",
    "engine.full_fold_ratio",
    "serve.keepalive_reuses",
    "obs.journal.records_per_request",
    "obs.journal.dropped",
];

/// What one round measured: the metrics of its mode, by name.
pub struct Measured {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
}

/// A value the way JSON needs it; a measurement is never NaN or infinite.
fn number(v: f64) -> String {
    assert!(v.is_finite(), "a non-finite measurement reached the report");
    format!("{v}")
}

/// The last line a round prints: the result the driver reads. `table` is
/// the metric list of the round's mode; every name in it was measured.
pub fn result_line(measured: &Measured, table: &[(&str, &str)]) -> String {
    let body: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(measured.metrics[name])
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        measured.failed == 0,
        measured.attempted,
        measured.failed,
        body.join(", ")
    )
}

/// One round's result line, read back.
pub struct RoundLine {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, (f64, String)>,
}

pub fn parse_result_line(line: &str) -> Result<RoundLine, String> {
    let v = repo_api::json_parse(line)?;
    let count = |key: &str| {
        v.get(key)
            .and_then(JsonValue::as_u64)
            .ok_or(format!("result line has no {key}"))
    };
    let mut metrics = BTreeMap::new();
    let obj = v
        .get("metrics")
        .and_then(JsonValue::as_obj)
        .ok_or("result line has no metrics")?;
    for (name, m) in obj {
        let value = m.get("value").and_then(JsonValue::as_f64);
        let unit = m.get("unit").and_then(JsonValue::as_str);
        let (Some(value), Some(unit)) = (value, unit) else {
            return Err(format!("metric {name} lacks a value or a unit"));
        };
        metrics.insert(name.clone(), (value, unit.to_string()));
    }
    Ok(RoundLine {
        attempted: count("attempted")?,
        failed: count("failed")?,
        metrics,
    })
}

/// One report row: a metric's per-round values on one workload.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    pub unit: String,
    pub rounds: Vec<f64>,
}

impl Row {
    pub fn median(&self) -> f64 {
        median(&self.rounds)
    }

    /// `(max − min) / median` over the rounds.
    pub fn noise(&self) -> f64 {
        noise_floor(&self.rounds)
    }
}

#[derive(Clone, Debug, Default, PartialEq)]
pub struct WorkloadReport {
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: BTreeMap<String, Row>,
    pub per_layer: BTreeMap<String, Row>,
}

#[derive(Clone, Debug, Default, PartialEq)]
pub struct Report {
    /// A `--quick` report is a smoke test; its numbers are never compared.
    pub quick: bool,
    pub seed: u64,
    pub round_seconds: u64,
    pub nproc: usize,
    pub cpu_model: String,
    pub workloads: BTreeMap<String, WorkloadReport>,
}

fn rows_json(rows: &BTreeMap<String, Row>, indent: &str) -> String {
    let body: Vec<String> = rows
        .iter()
        .map(|(name, row)| {
            let rounds: Vec<String> = row.rounds.iter().map(|v| number(*v)).collect();
            format!(
                "{indent}\"{name}\": {{\"unit\": \"{}\", \"median\": {}, \"noise_floor\": {}, \"rounds\": [{}]}}",
                row.unit,
                number(row.median()),
                number(row.noise()),
                rounds.join(", ")
            )
        })
        .collect();
    body.join(",\n")
}

impl Report {
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\n  \"quick\": {},\n  \"seed\": {},\n  \"round_seconds\": {},\n  \"nproc\": {},\n  \
             \"cpu_model\": \"{}\",\n  \"workloads\": {{\n",
            self.quick,
            self.seed,
            self.round_seconds,
            self.nproc,
            self.cpu_model.replace(['"', '\\'], " ")
        );
        let blocks: Vec<String> = self
            .workloads
            .iter()
            .map(|(name, w)| {
                format!(
                    "    \"{name}\": {{\n      \"attempted\": {},\n      \"failed\": {},\n      \
                     \"failed_share\": {},\n      \"end_to_end\": {{\n{}\n      }},\n      \
                     \"per_layer\": {{\n{}\n      }}\n    }}",
                    w.attempted,
                    w.failed,
                    number(w.failed_share()),
                    rows_json(&w.end_to_end, "        "),
                    rows_json(&w.per_layer, "        "),
                )
            })
            .collect();
        out.push_str(&blocks.join(",\n"));
        out.push_str("\n  }\n}\n");
        out
    }

    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = repo_api::json_parse(text)?;
        let rows = |v: &JsonValue| -> Result<BTreeMap<String, Row>, String> {
            let mut out = BTreeMap::new();
            for (name, row) in v.as_obj().ok_or("metric table is not an object")? {
                let unit = row.get("unit").and_then(JsonValue::as_str);
                let rounds = row.get("rounds").and_then(JsonValue::as_arr);
                let (Some(unit), Some(rounds)) = (unit, rounds) else {
                    return Err(format!("row {name} lacks a unit or its rounds"));
                };
                let rounds: Vec<f64> = rounds.iter().filter_map(JsonValue::as_f64).collect();
                if rounds.is_empty() {
                    return Err(format!("row {name} has no rounds"));
                }
                out.insert(
                    name.clone(),
                    Row {
                        unit: unit.to_string(),
                        rounds,
                    },
                );
            }
            Ok(out)
        };
        let mut report = Report {
            quick: v.get("quick").and_then(JsonValue::as_bool).unwrap_or(false),
            seed: v.get("seed").and_then(JsonValue::as_u64).unwrap_or(0),
            round_seconds: v
                .get("round_seconds")
                .and_then(JsonValue::as_u64)
                .unwrap_or(0),
            nproc: v.get("nproc").and_then(JsonValue::as_u64).unwrap_or(0) as usize,
            cpu_model: v
                .get("cpu_model")
                .and_then(JsonValue::as_str)
                .unwrap_or("")
                .to_string(),
            workloads: BTreeMap::new(),
        };
        let workloads = v
            .get("workloads")
            .and_then(JsonValue::as_obj)
            .ok_or("report has no workloads")?;
        for (name, w) in workloads {
            let table = |key: &str| rows(w.get(key).ok_or(format!("{name} has no {key}"))?);
            report.workloads.insert(
                name.clone(),
                WorkloadReport {
                    attempted: w.get("attempted").and_then(JsonValue::as_u64).unwrap_or(0),
                    failed: w.get("failed").and_then(JsonValue::as_u64).unwrap_or(0),
                    end_to_end: table("end_to_end")?,
                    per_layer: table("per_layer")?,
                },
            );
        }
        Ok(report)
    }

    /// Every metric of every workload, by name, with its unit.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "seed {:#x}, {} s rounds, {} cores, {}{}",
            self.seed,
            self.round_seconds,
            self.nproc,
            self.cpu_model,
            if self.quick {
                " (quick: not comparable)"
            } else {
                ""
            }
        );
        for (name, w) in &self.workloads {
            let _ = writeln!(
                out,
                "\n{name}: {} attempted, {} failed (failed_share {:.4})",
                w.attempted,
                w.failed,
                w.failed_share()
            );
            for (metric, row) in &w.end_to_end {
                let rounds: Vec<String> = row.rounds.iter().map(|v| format!("{v:.3}")).collect();
                let _ = writeln!(
                    out,
                    "  {metric:<34} {:>12.3} {:<6} rounds [{}] noise {:.1} %",
                    row.median(),
                    row.unit,
                    rounds.join(", "),
                    100.0 * row.noise()
                );
            }
            for (metric, row) in &w.per_layer {
                let _ = writeln!(out, "  {metric:<34} {:>12.3} {}", row.median(), row.unit);
            }
        }
        out
    }
}

/// How far an end-to-end metric may worsen, from `BENCHMARK.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct Bound {
    pub lower_is_better: bool,
    pub share: f64,
}

/// The names `BENCHMARK.json` declares: workloads, end-to-end metrics with
/// their bounds, per-layer metrics with their units.
pub struct Declared {
    pub workloads: Vec<String>,
    pub end_to_end: BTreeMap<String, (String, Bound)>,
    pub per_layer: BTreeMap<String, String>,
}

pub fn parse_declared(text: &str) -> Result<Declared, String> {
    let v = repo_api::json_parse(text)?;
    let list = |key: &str| {
        v.get(key)
            .and_then(JsonValue::as_arr)
            .ok_or(format!("BENCHMARK.json has no {key}"))
    };
    let field = |m: &JsonValue, key: &str| {
        m.get(key)
            .and_then(JsonValue::as_str)
            .map(str::to_string)
            .ok_or(format!("BENCHMARK.json entry lacks {key}"))
    };
    let mut declared = Declared {
        workloads: Vec::new(),
        end_to_end: BTreeMap::new(),
        per_layer: BTreeMap::new(),
    };
    for w in list("workloads")? {
        declared.workloads.push(field(w, "name")?);
    }
    for m in list("end_to_end")? {
        let share = m
            .get("bound")
            .and_then(JsonValue::as_f64)
            .ok_or("end_to_end entry lacks bound")?;
        let bound = Bound {
            lower_is_better: field(m, "better")? == "lower",
            share,
        };
        let clash = declared
            .end_to_end
            .insert(field(m, "name")?, (field(m, "unit")?, bound));
        if clash.is_some() {
            return Err(format!("{} declared twice", field(m, "name")?));
        }
    }
    for m in list("per_layer")? {
        let clash = declared
            .per_layer
            .insert(field(m, "name")?, field(m, "unit")?);
        if clash.is_some() {
            return Err(format!("{} declared twice", field(m, "name")?));
        }
    }
    Ok(declared)
}

/// Checks a report against `BENCHMARK.json`: every declared workload and
/// metric is there exactly once with the declared unit, and nothing else is.
pub fn validate(report: &Report, declared: &Declared) -> Result<(), String> {
    let names: Vec<&String> = report.workloads.keys().collect();
    let mut want: Vec<&String> = declared.workloads.iter().collect();
    want.sort();
    if names != want {
        return Err(format!("workloads {names:?}, declared {want:?}"));
    }
    for (name, w) in &report.workloads {
        let e2e: BTreeMap<&String, &String> =
            w.end_to_end.iter().map(|(k, r)| (k, &r.unit)).collect();
        let want: BTreeMap<&String, &String> = declared
            .end_to_end
            .iter()
            .map(|(k, (u, _))| (k, u))
            .collect();
        if e2e != want {
            return Err(format!("{name}: end-to-end {e2e:?}, declared {want:?}"));
        }
        let layer: BTreeMap<&String, &String> =
            w.per_layer.iter().map(|(k, r)| (k, &r.unit)).collect();
        let want: BTreeMap<&String, &String> = declared.per_layer.iter().collect();
        if layer != want {
            return Err(format!("{name}: per-layer {layer:?}, declared {want:?}"));
        }
    }
    Ok(())
}

/// The share by which `b` is worse than `a` (negative when it is better).
fn worse_by(a: f64, b: f64, lower_is_better: bool) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    if lower_is_better {
        (b - a) / a
    } else {
        (a - b) / a
    }
}

/// How far `failed_share`, the sixth end-to-end metric, may rise: an absolute
/// share of the requests attempted. It is zero on a correct system, so it
/// cannot carry a relative bound and `BENCHMARK.json` cannot declare it.
pub const FAILED_SHARE_BOUND: f64 = 0.001;

impl WorkloadReport {
    /// Requests that failed any check, as a share of those attempted.
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Compares report `b` against report `a`, row by row. Returns the printed
/// comparison and whether it holds: no end-to-end median worse than its
/// bound and, when both reports come from the same code, no exact count
/// changed. A row whose noise floor exceeds its bound is `unresolved`: the
/// runs cannot tell a change of that size from no change, so only a change
/// larger than the noise as well is a breach. Reports that were not measured
/// alike (a smoke test, another seed, window or core count) are refused.
pub fn compare(
    a: &Report,
    b: &Report,
    declared: &Declared,
    same_code: bool,
) -> Result<(String, bool), String> {
    if a.quick || b.quick {
        return Err("a --quick report is a smoke test: nothing to compare".to_string());
    }
    let shape = |r: &Report| (r.seed, r.round_seconds, r.nproc);
    if shape(a) != shape(b) {
        return Err(format!(
            "reports were not measured alike: (seed, round seconds, cores) {:?} against {:?}",
            shape(a),
            shape(b)
        ));
    }
    let mut out = String::new();
    let mut holds = true;
    for (workload, wa) in &a.workloads {
        let Some(wb) = b.workloads.get(workload) else {
            let _ = writeln!(out, "{workload}: missing from the second report");
            holds = false;
            continue;
        };
        let _ = writeln!(out, "\n{workload}");
        let breach = wb.failed_share() > wa.failed_share() + FAILED_SHARE_BOUND;
        holds &= !breach;
        let _ = writeln!(
            out,
            "  {:<16} {:>11.4} -> {:>11.4} ratio  ({} of {}, {} of {})  bound +{FAILED_SHARE_BOUND} abs  {}",
            "failed_share",
            wa.failed_share(),
            wb.failed_share(),
            wa.failed,
            wa.attempted,
            wb.failed,
            wb.attempted,
            if breach { "BREACH" } else { "within bound" }
        );
        for (metric, (unit, bound)) in &declared.end_to_end {
            let (Some(ra), Some(rb)) = (wa.end_to_end.get(metric), wb.end_to_end.get(metric))
            else {
                let _ = writeln!(out, "  {metric}: missing");
                holds = false;
                continue;
            };
            let noise = ra.noise().max(rb.noise());
            let worse = worse_by(ra.median(), rb.median(), bound.lower_is_better);
            let verdict = if worse > bound.share.max(noise) {
                holds = false;
                "BREACH"
            } else if noise > bound.share {
                "unresolved"
            } else {
                "within bound"
            };
            let _ = writeln!(
                out,
                "  {metric:<16} {:>11.3} -> {:>11.3} {unit:<4} worse by {:>+6.1} %  noise {:>4.1} % / {:>4.1} %  bound {:>4.1} %  {verdict}",
                ra.median(),
                rb.median(),
                100.0 * worse,
                100.0 * ra.noise(),
                100.0 * rb.noise(),
                100.0 * bound.share,
            );
        }
        for metric in EXACT_COUNTS {
            let (Some(ra), Some(rb)) = (wa.per_layer.get(metric), wb.per_layer.get(metric)) else {
                continue;
            };
            if ra.median() != rb.median() {
                let _ = writeln!(
                    out,
                    "  {metric:<34} {} -> {}  count differs",
                    ra.median(),
                    rb.median()
                );
                holds &= !same_code;
            }
        }
    }
    Ok((out, holds))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(p50: [f64; 3], cells: f64) -> Report {
        let row = |unit: &str, rounds: &[f64]| Row {
            unit: unit.to_string(),
            rounds: rounds.to_vec(),
        };
        let mut w = WorkloadReport {
            attempted: 10,
            ..WorkloadReport::default()
        };
        w.end_to_end
            .insert("latency_p50_ms".to_string(), row("ms", &p50));
        w.per_layer
            .insert("core.explored_cells".to_string(), row("count", &[cells]));
        let mut r = Report {
            nproc: 2,
            ..Report::default()
        };
        r.workloads.insert("deep_search".to_string(), w);
        r
    }

    fn declared() -> Declared {
        parse_declared(
            r#"{"workloads":[{"name":"deep_search","why":"x"}],
                "end_to_end":[{"name":"latency_p50_ms","unit":"ms","better":"lower","bound":0.1}],
                "per_layer":[{"name":"core.explored_cells","unit":"count","better":"lower"}]}"#,
        )
        .unwrap()
    }

    #[test]
    fn report_round_trips_through_json() {
        let r = report([10.0, 11.0, 12.5], 42.0);
        assert_eq!(Report::from_json(&r.to_json()).unwrap(), r);
        validate(&r, &declared()).unwrap();
    }

    #[test]
    fn result_line_round_trips_and_flags_failures() {
        let measured = Measured {
            attempted: 12,
            failed: 1,
            metrics: BTreeMap::from([("setup_s", 0.8127)]),
        };
        let line = result_line(&measured, &[("setup_s", "s")]);
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 12, \"failed\": 1,"));
        let back = parse_result_line(&line).unwrap();
        assert_eq!((back.attempted, back.failed), (12, 1));
        assert_eq!(back.metrics["setup_s"], (0.8127, "s".to_string()));
    }

    #[test]
    fn compare_tells_breach_from_unresolved_from_within_bound() {
        let d = declared();
        let base = report([10.0, 10.1, 10.2], 42.0);
        let verdict = |other: &Report, same_code| compare(&base, other, &d, same_code).unwrap();
        let (text, ok) = verdict(&report([10.3, 10.4, 10.5], 42.0), true);
        assert!(ok && text.contains("within bound"), "{text}");
        let (text, ok) = verdict(&report([11.5, 11.6, 11.7], 42.0), true);
        assert!(!ok && text.contains("BREACH"), "{text}");
        // Rounds 20 % apart cannot resolve a 10 % bound: a median 15 % worse
        // is within their noise, one 30 % worse is not.
        let (text, ok) = verdict(&report([10.5, 11.6, 12.8], 42.0), true);
        assert!(ok && text.contains("unresolved"), "{text}");
        let (text, ok) = verdict(&report([12.0, 13.2, 14.4], 42.0), true);
        assert!(!ok && text.contains("BREACH"), "{text}");
        // A changed exact count fails two runs of the same code only.
        let (text, ok) = verdict(&report([10.0, 10.1, 10.2], 43.0), true);
        assert!(!ok && text.contains("count differs"), "{text}");
        assert!(verdict(&report([10.0, 10.1, 10.2], 43.0), false).1);
    }

    #[test]
    fn compare_bounds_the_failed_share_absolutely() {
        let d = declared();
        let mut base = report([10.0, 10.1, 10.2], 42.0);
        let mut other = base.clone();
        let w = |r: &mut Report, attempted, failed| {
            let w = r.workloads.get_mut("deep_search").unwrap();
            (w.attempted, w.failed) = (attempted, failed);
        };
        // 1 of 2000 is under the bound of 0.001; 3 of 2000 is over it.
        w(&mut base, 2000, 0);
        w(&mut other, 2000, 1);
        assert!(compare(&base, &other, &d, true).unwrap().1);
        w(&mut other, 2000, 3);
        let (text, ok) = compare(&base, &other, &d, true).unwrap();
        assert!(!ok && text.contains("failed_share"), "{text}");
        // Shares, not counts: the same 3 failures of ten times the requests.
        w(&mut other, 20000, 3);
        assert!(compare(&base, &other, &d, true).unwrap().1);
    }

    #[test]
    fn compare_refuses_reports_not_measured_alike() {
        let d = declared();
        let base = report([10.0, 10.1, 10.2], 42.0);
        for change in [
            |r: &mut Report| r.quick = true,
            |r: &mut Report| r.seed += 1,
            |r: &mut Report| r.round_seconds += 1,
            |r: &mut Report| r.nproc += 1,
        ] {
            let mut other = base.clone();
            change(&mut other);
            assert!(compare(&base, &other, &d, true).is_err());
            assert!(compare(&other, &base, &d, true).is_err());
        }
    }

    #[test]
    fn validate_rejects_a_missing_or_extra_metric() {
        let d = declared();
        let mut r = report([1.0, 1.0, 1.0], 1.0);
        let w = r.workloads.get_mut("deep_search").unwrap();
        let row = w.per_layer.remove("core.explored_cells").unwrap();
        assert!(validate(&r, &d).is_err());
        let w = r.workloads.get_mut("deep_search").unwrap();
        w.per_layer
            .insert("core.explored_cells".to_string(), row.clone());
        w.per_layer.insert("core.surprise".to_string(), row);
        assert!(validate(&r, &d).is_err());
    }

    #[test]
    fn benchmark_json_declares_exactly_what_the_benchmark_reports() {
        let path = crate::guards::package_dir().join("../BENCHMARK.json");
        let d = parse_declared(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names: Vec<&str> = crate::workloads::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(d.workloads, names);
        let e2e: Vec<(&str, &str)> = d
            .end_to_end
            .iter()
            .map(|(k, (u, _))| (k.as_str(), u.as_str()))
            .collect();
        let mut want = END_TO_END.to_vec();
        want.sort_unstable();
        assert_eq!(e2e, want);
        let layer: Vec<(&str, &str)> = d
            .per_layer
            .iter()
            .map(|(k, u)| (k.as_str(), u.as_str()))
            .collect();
        let mut want = PER_LAYER.to_vec();
        want.sort_unstable();
        assert_eq!(layer, want);
        let legal = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
        };
        assert!(names.iter().all(|n| legal(n)));
        assert!(END_TO_END.iter().chain(&PER_LAYER).all(|(n, _)| legal(n)));
        assert!(EXACT_COUNTS
            .iter()
            .all(|n| PER_LAYER.iter().any(|(p, _)| p == n)));
        assert!(d.end_to_end.values().all(|(_, b)| b.share <= 0.25));
    }
}
