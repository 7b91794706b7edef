//! **obs-discipline** — observability must not perturb determinism.
//!
//! Three contracts. A fourth — no blocking calls in the textually listed
//! instrument-commit *files* — was superseded by the call-graph-aware
//! `commit-reachability` rule, which follows commit *functions* across
//! files instead of trusting a file list:
//!
//! * **Lazy trace labels.** `Obs::trace`/`trace_span` take a label closure
//!   so a disabled handle never builds a string. An eager argument (string
//!   literal, `format!`, a bound variable) would both cost allocations on
//!   the hot path and tempt the next author to weaken the API, so every
//!   label argument must syntactically be a closure.
//! * **No deterministic-metric commits on workers.** Deterministic
//!   instruments (`cells_executed`, `answers_found`, …) are committed only
//!   in the driver's serial emission loop; the worker-side files listed in
//!   `lint.toml` (`[obs-discipline] worker_paths`) may only touch the
//!   explicitly nondeterministic-class instruments, and each such commit
//!   carries a `// worker-metric-ok: <reason>` annotation naming why the
//!   instrument tolerates thread-schedule dependence.
//! * **Progress sinks are fed only from the serial emission path.** The
//!   streaming progress contract (strictly monotone `explored`, terminal
//!   event last) holds because every `acquire_core::ProgressSink` push
//!   happens at a layer-boundary commit in the driver. A `.try_push(…)`
//!   call anywhere outside `[obs-discipline] progress_sink_paths` — a
//!   worker closure, an evaluation layer, a request handler — could
//!   interleave events out of order, so it is flagged wherever it appears.

use crate::config::Config;
use crate::report::Diagnostic;

use super::{ident_at, is_method_call, matching_paren, punct_at, SourceFile};

/// Metric-commit method names audited on worker paths.
const COMMIT_METHODS: [&str; 5] = ["inc", "add", "observe", "record_exec_stats", "set_meta"];

/// Runs the rule over one file.
pub fn check(f: &SourceFile, cfg: &Config, out: &mut Vec<Diagnostic>) {
    let toks = &f.scanned.tokens;
    let worker_path = cfg.is_worker_path(&f.rel_path);
    for (i, t) in toks.iter().enumerate() {
        let Some(name) = ident_at(toks, i) else {
            continue;
        };
        if !f.is_lib_line(t.line) {
            continue;
        }
        if name == "try_push" && is_method_call(toks, i) && !cfg.is_progress_sink_path(&f.rel_path)
        {
            out.push(
                f.diag(
                    "obs-discipline",
                    t,
                    "progress sink push `.try_push(…)` outside `[obs-discipline] \
                 progress_sink_paths`; events are emitted only at the driver's serial \
                 layer-boundary commits"
                        .to_string(),
                ),
            );
        }
        if !is_method_call(toks, i) {
            continue;
        }
        if matches!(name, "trace" | "trace_span") && !label_is_closure(f, i) {
            out.push(f.diag(
                "obs-discipline",
                t,
                format!("`{name}` label must be a lazy closure (`|| format!(…)`), never an eager string"),
            ));
        }
        if worker_path && COMMIT_METHODS.contains(&name) && !f.annotations.worker_metric_ok(t.line)
        {
            out.push(f.diag(
                "obs-discipline",
                t,
                format!(
                    "metric commit `.{name}(…)` on a worker path without `// worker-metric-ok: \
                     <reason>`; deterministic instruments commit in the serial emission loop only"
                ),
            ));
        }
    }
}

/// Whether the last top-level argument of the call at ident index `i`
/// starts with `|` or `move` (a closure). Calls without arguments pass.
fn label_is_closure(f: &SourceFile, i: usize) -> bool {
    let toks = &f.scanned.tokens;
    let open = i + 1;
    let Some(close) = matching_paren(toks, open) else {
        return true; // unparseable call: the compiler's problem, not ours
    };
    if close == open + 1 {
        return true; // no arguments
    }
    // Find the start of the last top-level argument.
    let mut depth = 0i32;
    let mut last_arg = open + 1;
    for (j, t) in toks.iter().enumerate().take(close).skip(open + 1) {
        match t.tok {
            crate::lexer::Tok::Punct('(' | '[' | '{') => depth += 1,
            crate::lexer::Tok::Punct(')' | ']' | '}') => depth -= 1,
            crate::lexer::Tok::Punct(',') if depth == 0 => last_arg = j + 1,
            _ => {}
        }
    }
    punct_at(toks, last_arg, '|') || ident_at(toks, last_arg) == Some("move")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::FileContext;

    fn run(path: &str, src: &str) -> Vec<Diagnostic> {
        let f = SourceFile::new(path, src, FileContext::Lib);
        let cfg = Config::parse(
            "[obs-discipline]\n\
             worker_paths = [\"crates/core/src/pool.rs\"]\n",
        )
        .unwrap();
        let mut out = Vec::new();
        check(&f, &cfg, &mut out);
        out
    }

    #[test]
    fn eager_trace_labels_are_flagged() {
        assert_eq!(
            run(
                "crates/core/src/driver.rs",
                "fn f() { obs.trace(1, format!(\"layer {l}\")); }"
            )
            .len(),
            1
        );
        assert_eq!(
            run(
                "crates/core/src/driver.rs",
                "fn f() { obs.trace_span(1, dur, label); }"
            )
            .len(),
            1
        );
    }

    #[test]
    fn closure_labels_pass_including_spans_with_method_args() {
        assert!(run(
            "crates/core/src/driver.rs",
            "fn f() { obs.trace(1, || format!(\"x\")); \
             obs.trace_span(1, t0.elapsed(), || format!(\"({a}, {b})\")); \
             obs.trace(2, move || s.clone()); }"
        )
        .is_empty());
    }

    #[test]
    fn worker_metric_commits_need_annotations() {
        let src = "fn f() { m.at_most_once_violations.inc(); }";
        assert_eq!(run("crates/core/src/pool.rs", src).len(), 1);
        assert!(run(
            "crates/core/src/pool.rs",
            "fn f() { m.at_most_once_violations.inc(); // worker-metric-ok: diagnostic counter\n}"
        )
        .is_empty());
        // Off the worker paths the commit-side check does not apply.
        assert!(run("crates/core/src/driver.rs", src).is_empty());
    }

    #[test]
    fn progress_sink_pushes_are_confined() {
        let src = "fn f(sink: &ProgressSink) { sink.try_push(event); }";
        // Off the sanctioned paths a push is flagged wherever it appears…
        assert_eq!(run("crates/core/src/pool.rs", src).len(), 1);
        assert_eq!(run("crates/engine/src/executor.rs", src).len(), 1);
        // …a free call or a different method is not…
        assert!(run("crates/core/src/pool.rs", "fn f() { try_push(e); }").is_empty());
        assert!(run("crates/core/src/pool.rs", "fn f() { q.push(e); }").is_empty());
        // …and a sanctioned path may push.
        let f = SourceFile::new("crates/core/src/driver.rs", src, FileContext::Lib);
        let cfg = Config::parse(
            "[obs-discipline]\nprogress_sink_paths = [\"crates/core/src/driver.rs\"]\n",
        )
        .unwrap();
        let mut out = Vec::new();
        check(&f, &cfg, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn oncelock_set_is_not_a_metric_commit() {
        assert!(run(
            "crates/core/src/pool.rs",
            "fn f() { slots[i].set(outcome); }"
        )
        .is_empty());
    }
}
