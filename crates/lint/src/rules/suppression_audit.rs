//! **suppression-audit** — every escape hatch must still suppress
//! something.
//!
//! Suppressions rot: a refactor moves the offending call, the annotation
//! stays behind, and a year later nobody knows whether deleting it is safe.
//! This rule recomputes the workspace findings in a *raw* configuration —
//! inline annotations ignored, `[allow]` and the grant lists
//! (`clock_allowed`, `sleep_allowed`, `progress_sink_paths`) emptied — and then checks that:
//!
//! * every inline `lint-allow(<rule>)` / `relaxed-ok` / `worker-metric-ok`
//!   / `commit-io-ok` annotation covers at least one raw finding of the
//!   matching kind on its two covered lines;
//! * every `lint.toml` grant or `[allow]` prefix suppresses (or sanctions)
//!   at least one raw finding in a matching file;
//! * every obligation prefix (`ordered_paths`, `worker_paths`) still
//!   matches at least one scanned library file, and every
//!   `[commit-reachability]` root still resolves to at least one function.
//!
//! Dead entries are errors at the annotation's own `file:line:col` (or the
//! `lint.toml` line). The committed findings baseline (`lint-baseline.json`)
//! ratchets the surviving suppression counts downward in CI.

use crate::config::Config;
use crate::context::in_regions;
use crate::report::Diagnostic;
use crate::rules::{self, AnnKind, Annotations, SourceFile};
use crate::Workspace;

use super::{commit_reachability, lock_order};

/// Runs the audit over the whole workspace.
pub fn check(ws: &Workspace, cfg: &Config, out: &mut Vec<Diagnostic>) {
    let raw = raw_findings(ws, cfg);

    // Inline annotations: each must cover a matching raw finding.
    for f in &ws.files {
        if f.context != crate::FileContext::Lib {
            continue;
        }
        for rec in &f.annotations.records {
            if in_regions(&f.test_regions, rec.anchor) {
                continue;
            }
            if let AnnKind::LintAllow(rule) = &rec.kind {
                if rule == "suppression-audit" {
                    continue; // auditing the audit would be circular
                }
            }
            let live = raw.iter().any(|d| {
                d.file == f.rel_path && covered(rec.anchor, d.line) && kind_matches(&rec.kind, d)
            });
            if !live {
                out.push(f.diag_at(
                    "suppression-audit",
                    rec.line,
                    rec.col,
                    format!(
                        "dead suppression: `{}` covers lines {}\u{2013}{} but no {} finding \
                         fires there any more; remove the annotation",
                        rec.kind.spelling(),
                        rec.anchor,
                        rec.anchor + 1,
                        kind_rule(&rec.kind),
                    ),
                ));
            }
        }
    }

    // lint.toml entries: prefixes must still bite.
    for e in &cfg.entries {
        let live = match (e.section.as_str(), e.key.as_str()) {
            ("allow", rule) => {
                rule == "suppression-audit"
                    || raw
                        .iter()
                        .any(|d| d.rule == rule && d.file.starts_with(&e.value))
            }
            ("determinism", "clock_allowed") => raw.iter().any(|d| {
                d.rule == "determinism"
                    && d.message.contains("wall-clock")
                    && d.file.starts_with(&e.value)
            }),
            ("determinism", "sleep_allowed") => raw.iter().any(|d| {
                d.rule == "determinism"
                    && d.message.contains("sleep")
                    && d.file.starts_with(&e.value)
            }),
            ("obs-discipline", "progress_sink_paths") => raw.iter().any(|d| {
                d.rule == "obs-discipline"
                    && d.message.contains("progress sink push")
                    && d.file.starts_with(&e.value)
            }),
            // Obligations: they must still point at something real.
            ("determinism", "ordered_paths") | ("obs-discipline", "worker_paths") => ws
                .files
                .iter()
                .any(|f| f.context == crate::FileContext::Lib && f.rel_path.starts_with(&e.value)),
            ("commit-reachability", "roots") => {
                let one = Config {
                    commit_roots: vec![e.value.clone()],
                    ..Config::default()
                };
                !commit_reachability::resolve_roots(ws, &one).is_empty()
            }
            _ => true,
        };
        if !live {
            out.push(Diagnostic {
                rule: "suppression-audit",
                file: "lint.toml".to_string(),
                line: e.line,
                col: 1,
                message: format!(
                    "stale lint.toml entry: [{}] {} = \"{}\" no longer suppresses, grants or \
                     matches anything; remove it",
                    e.section, e.key, e.value
                ),
            });
        }
    }
}

/// Whether an annotation anchored at `anchor` covers a finding at `line`.
fn covered(anchor: u32, line: u32) -> bool {
    line == anchor || line == anchor + 1
}

/// The rule family an annotation kind suppresses, for diagnostics.
fn kind_rule(kind: &AnnKind) -> &str {
    match kind {
        AnnKind::LintAllow(rule) => rule,
        AnnKind::RelaxedOk => "atomics-audit",
        AnnKind::WorkerMetricOk => "obs-discipline",
        AnnKind::CommitIoOk => "commit-reachability",
    }
}

/// Whether a raw finding is of the kind an annotation suppresses.
fn kind_matches(kind: &AnnKind, d: &Diagnostic) -> bool {
    match kind {
        AnnKind::LintAllow(rule) => d.rule == rule.as_str(),
        AnnKind::RelaxedOk => d.rule == "atomics-audit",
        AnnKind::WorkerMetricOk => {
            d.rule == "obs-discipline" && d.message.contains("metric commit")
        }
        AnnKind::CommitIoOk => d.rule == "commit-reachability",
    }
}

/// Recomputes every finding with annotations ignored and the grant lists
/// emptied — the maximal finding set a suppression could possibly cover.
fn raw_findings(ws: &Workspace, cfg: &Config) -> Vec<Diagnostic> {
    let audit_cfg = Config {
        allow: Default::default(),
        ordered_paths: cfg.ordered_paths.clone(),
        clock_allowed: Vec::new(),
        sleep_allowed: Vec::new(),
        worker_paths: cfg.worker_paths.clone(),
        commit_roots: cfg.commit_roots.clone(),
        progress_sink_paths: Vec::new(),
        entries: Vec::new(),
    };
    let mut raw = Vec::new();
    for f in &ws.files {
        let shadow = SourceFile {
            rel_path: f.rel_path.clone(),
            context: f.context,
            scanned: f.scanned.clone(),
            test_regions: f.test_regions.clone(),
            annotations: Annotations::default(),
        };
        raw.extend(rules::check_file(&shadow, &audit_cfg));
    }
    commit_reachability::check(ws, &audit_cfg, &mut raw);
    lock_order::check(ws, &audit_cfg, &mut raw);
    raw
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::FileContext;

    fn ws(srcs: &[(&str, &str)]) -> Workspace {
        Workspace::new(
            srcs.iter()
                .map(|(p, s)| SourceFile::new(p, s, FileContext::Lib))
                .collect(),
        )
    }

    #[test]
    fn live_annotations_pass_dead_ones_fail_with_exact_positions() {
        let w = ws(&[(
            "crates/x/src/a.rs",
            "fn live() { x.unwrap(); // lint-allow(panic-hygiene): invariant holds\n}\n\
             fn dead() { y.checked(); // lint-allow(panic-hygiene): stale since the refactor\n}\n",
        )]);
        let mut out = Vec::new();
        check(&w, &Config::default(), &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!((out[0].line, out[0].col), (3, 26));
        assert!(
            out[0].message.contains("dead suppression"),
            "{}",
            out[0].message
        );
        assert!(
            out[0].message.contains("panic-hygiene"),
            "{}",
            out[0].message
        );
    }

    #[test]
    fn relaxed_ok_must_cover_a_relaxed_site() {
        let w = ws(&[(
            "crates/x/src/a.rs",
            "fn f() { c.fetch_add(1, Ordering::Relaxed); // relaxed-ok: monotone tally\n}\n\
             fn g() { plain(); // relaxed-ok: nothing relaxed here\n}\n",
        )]);
        let mut out = Vec::new();
        check(&w, &Config::default(), &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].line, 3);
    }

    #[test]
    fn stale_config_prefixes_point_at_their_toml_lines() {
        let cfg = Config::parse(
            "[allow]\npanic-hygiene = [\"crates/gone/\"]\n\
             [determinism]\nclock_allowed = [\"crates/x/src/a.rs\"]\n",
        )
        .unwrap();
        let w = ws(&[("crates/x/src/a.rs", "fn f() { let t = Instant::now(); }\n")]);
        let mut out = Vec::new();
        check(&w, &cfg, &mut out);
        // The clock grant is live (a.rs reads a clock); the panic-hygiene
        // allow for a vanished directory is stale.
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!((out[0].file.as_str(), out[0].line), ("lint.toml", 2));
        assert!(
            out[0].message.contains("crates/gone/"),
            "{}",
            out[0].message
        );
    }

    #[test]
    fn annotations_in_test_regions_are_not_audited() {
        let w = ws(&[(
            "crates/x/src/a.rs",
            "fn live() {}\n#[cfg(test)]\nmod tests {\n\
             // lint-allow(panic-hygiene): rules are inert here anyway\n\
             fn t() { x.unwrap(); }\n}\n",
        )]);
        let mut out = Vec::new();
        check(&w, &Config::default(), &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn commit_io_ok_needs_a_reachable_blocking_site() {
        let cfg = Config::parse("[commit-reachability]\nroots = [\"crates/x/src/a.rs::emit\"]\n")
            .unwrap();
        let w = ws(&[(
            "crates/x/src/a.rs",
            "pub fn emit() { let g = STATE.lock(); // commit-io-ok: cold init, bounded\n}\n\
             pub fn off_path() { tally(); // commit-io-ok: nothing blocking here\n}\n\
             fn tally() {}\n",
        )]);
        let mut out = Vec::new();
        check(&w, &cfg, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].line, 3);
    }
}
