//! Fixture tests: every rule family must detect its seeded violation at an
//! exact `file:line:col`, and each escape hatch must suppress precisely —
//! this is the proof that the analyzer sees what it claims to see.
//!
//! The fixtures under `tests/fixtures/` are never compiled; the workspace
//! walk classifies them as test-context files (inert for every rule), and
//! these tests re-check them with a forced [`FileContext::Lib`].

use std::path::Path;

use acq_lint::{
    check_source, check_workspace, Allowed, AllowedBy, Config, Diagnostic, FileContext, SourceFile,
    Workspace,
};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Builds a workspace from fixture files re-homed at virtual lib paths, the
/// workspace-rule analogue of forcing [`FileContext::Lib`] in `check_source`.
fn fixture_workspace(files: &[(&str, &str)]) -> Workspace {
    Workspace::new(
        files
            .iter()
            .map(|(fixture_name, rel_path)| {
                SourceFile::new(rel_path, &fixture(fixture_name), FileContext::Lib)
            })
            .collect(),
    )
}

/// `(line, col)` pairs of the violations attributed to `rule`.
fn positions(diags: &[Diagnostic], rule: &str) -> Vec<(u32, u32)> {
    diags
        .iter()
        .filter(|d| d.rule == rule)
        .map(|d| (d.line, d.col))
        .collect()
}

fn allowed_positions(allowed: &[Allowed], rule: &str) -> Vec<(u32, u32, AllowedBy)> {
    allowed
        .iter()
        .filter(|a| a.diagnostic.rule == rule)
        .map(|a| (a.diagnostic.line, a.diagnostic.col, a.by))
        .collect()
}

#[test]
fn panic_hygiene_fixture_exact_positions() {
    let (v, a) = check_source(
        "crates/core/src/fixture.rs",
        &fixture("panic_hygiene.rs"),
        FileContext::Lib,
        &Config::default(),
    );
    assert_eq!(
        positions(&v, "panic-hygiene"),
        [(5, 15), (6, 15), (8, 9), (10, 5)],
        "unwrap / expect / panic! / todo! at their seeded positions"
    );
    // The annotated unwrap is suppressed but stays audited, and the
    // parser-style `self.expect(…)` produces nothing at all.
    assert_eq!(
        allowed_positions(&a, "panic-hygiene"),
        [(14, 7, AllowedBy::Inline)]
    );
    assert_eq!(v.len(), 4, "no other rule fires on this fixture: {v:?}");
}

#[test]
fn determinism_fixture_exact_positions() {
    let cfg = Config::parse("[determinism]\nordered_paths = [\"virtual/\"]\n").unwrap();
    let (v, a) = check_source(
        "virtual/emit.rs",
        &fixture("determinism.rs"),
        FileContext::Lib,
        &cfg,
    );
    assert_eq!(
        positions(&v, "determinism"),
        [(4, 23), (8, 12), (8, 32), (9, 22), (10, 18)],
        "HashMap import, both uses, Instant::now and thread::sleep"
    );
    assert_eq!(v.len(), 5, "{v:?}");
    assert!(a.is_empty());
}

#[test]
fn determinism_fixture_is_silent_off_the_ordered_paths() {
    // Off ordered_paths the containers pass; clocks and sleeps still need
    // their own grants, which this config provides.
    let cfg = Config::parse(
        "[determinism]\nclock_allowed = [\"virtual/\"]\nsleep_allowed = [\"virtual/\"]\n",
    )
    .unwrap();
    let (v, _) = check_source(
        "virtual/emit.rs",
        &fixture("determinism.rs"),
        FileContext::Lib,
        &cfg,
    );
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn atomics_audit_fixture_exact_positions() {
    let (v, a) = check_source(
        "crates/core/src/fixture.rs",
        &fixture("atomics_audit.rs"),
        FileContext::Lib,
        &Config::default(),
    );
    assert_eq!(positions(&v, "atomics-audit"), [(6, 30)]);
    assert_eq!(v.len(), 1, "{v:?}");
    // A `relaxed-ok:` reason satisfies the rule outright (the justification
    // lives in the code); nothing is even routed to the allowed list.
    assert!(a.is_empty());
}

#[test]
fn obs_discipline_fixture_exact_positions() {
    let cfg = Config::parse("[obs-discipline]\nworker_paths = [\"virtual/\"]\n").unwrap();
    let (v, a) = check_source(
        "virtual/worker.rs",
        &fixture("obs_discipline.rs"),
        FileContext::Lib,
        &cfg,
    );
    assert_eq!(
        positions(&v, "obs-discipline"),
        [(5, 9), (7, 13)],
        "eager trace label, unannotated worker metric commit"
    );
    assert_eq!(v.len(), 2, "{v:?}");
    assert!(a.is_empty());
}

#[test]
fn progress_sink_fixture_exact_positions() {
    let (v, a) = check_source(
        "virtual/worker.rs",
        &fixture("progress_sink.rs"),
        FileContext::Lib,
        &Config::default(),
    );
    assert_eq!(
        positions(&v, "obs-discipline"),
        [(5, 10)],
        "the method-call try_push alone; plain push and the free call pass"
    );
    assert_eq!(v.len(), 1, "{v:?}");
    assert!(a.is_empty());
}

#[test]
fn progress_sink_fixture_is_silent_on_the_sanctioned_paths() {
    let cfg = Config::parse("[obs-discipline]\nprogress_sink_paths = [\"virtual/\"]\n").unwrap();
    let (v, _) = check_source(
        "virtual/driver.rs",
        &fixture("progress_sink.rs"),
        FileContext::Lib,
        &cfg,
    );
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn commit_reachability_fixture_exact_positions() {
    // A blocking lock and an output macro two call hops from the commit
    // root, across three files.
    let ws = fixture_workspace(&[
        ("commit_reach/commit.rs", "virtual/commit.rs"),
        ("commit_reach/relay.rs", "virtual/relay.rs"),
        ("commit_reach/sink.rs", "virtual/sink.rs"),
    ]);
    let cfg =
        Config::parse("[commit-reachability]\nroots = [\"virtual/commit.rs::emit\"]\n").unwrap();
    let (v, a) = check_workspace(&ws, &cfg);
    assert_eq!(
        positions(&v, "commit-reachability"),
        [(5, 27), (6, 5)],
        "the blocking lock and the println! in sink.rs: {v:?}"
    );
    assert!(v.iter().all(|d| d.file == "virtual/sink.rs"), "{v:?}");
    assert!(
        v[0].message
            .contains("via `commit::emit → relay::forward → sink::store`"),
        "the two-hop chain is printed: {}",
        v[0].message
    );
    assert_eq!(v.len(), 2, "no other rule fires on this fixture: {v:?}");
    // try_lock and the relaxed atomic pass outright; the commit-io-ok lock
    // is suppressed but stays audited.
    assert_eq!(
        allowed_positions(&a, "commit-reachability"),
        [(10, 26, AllowedBy::Inline)]
    );
}

#[test]
fn commit_reachability_flags_journal_write_on_the_append_root() {
    // The journal contract: `try_append` is a commit root, so a disk write
    // reachable from it — here one hop away in the writer module — must be
    // flagged. The wait-free pieces (try_lock slot, relaxed cursor) pass.
    let ws = fixture_workspace(&[
        ("commit_reach_journal/journal.rs", "virtual/journal.rs"),
        ("commit_reach_journal/writer.rs", "virtual/writer.rs"),
    ]);
    let cfg =
        Config::parse("[commit-reachability]\nroots = [\"virtual/journal.rs::try_append\"]\n")
            .unwrap();
    let (v, a) = check_workspace(&ws, &cfg);
    assert_eq!(
        positions(&v, "commit-reachability"),
        [(6, 12)],
        "the write_all in writer.rs, at its exact position: {v:?}"
    );
    assert_eq!(v[0].file, "virtual/writer.rs", "{v:?}");
    assert!(
        v[0].message
            .contains("via `journal::try_append → writer::persist`"),
        "the call chain from the append root is printed: {}",
        v[0].message
    );
    assert_eq!(v.len(), 1, "no other rule fires on this fixture: {v:?}");
    assert!(a.is_empty(), "{a:?}");
}

#[test]
fn commit_reachability_roots_are_function_granular() {
    // Rooting a *different* function in the same file leaves the blocking
    // sink unreachable — and the suppression audit then calls out the
    // now-dead `commit-io-ok` annotation instead.
    let ws = fixture_workspace(&[
        ("commit_reach/commit.rs", "virtual/commit.rs"),
        ("commit_reach/relay.rs", "virtual/relay.rs"),
        ("commit_reach/sink.rs", "virtual/sink.rs"),
    ]);
    let (v, _) = check_workspace(&ws, &Config::default());
    assert!(positions(&v, "commit-reachability").is_empty(), "{v:?}");
    assert_eq!(
        positions(&v, "suppression-audit"),
        [(10, 34)],
        "without roots the commit-io-ok annotation is dead: {v:?}"
    );
}

#[test]
fn lock_order_fixture_exact_positions() {
    let ws = fixture_workspace(&[("lock_cycle.rs", "virtual/gate.rs")]);
    let (v, a) = check_workspace(&ws, &Config::default());
    assert_eq!(
        positions(&v, "lock-order"),
        [(9, 24)],
        "one cycle, anchored at fwd()'s nested acquisition: {v:?}"
    );
    assert_eq!(v.len(), 1, "{v:?}");
    let msg = &v[0].message;
    assert!(
        msg.contains("`Gate.a` → `Gate.b`") || msg.contains("`Gate.b` → `Gate.a`"),
        "{msg}"
    );
    assert!(
        msg.contains("`Gate::fwd`") && msg.contains("`Gate::rev`"),
        "{msg}"
    );
    assert!(a.is_empty(), "{a:?}");
}

#[test]
fn dead_suppression_fixture_exact_positions() {
    let ws = fixture_workspace(&[("dead_suppression.rs", "virtual/helper.rs")]);
    let (v, a) = check_workspace(&ws, &Config::default());
    assert_eq!(
        positions(&v, "suppression-audit"),
        [(8, 19)],
        "the stale lint-allow, at its comment position: {v:?}"
    );
    assert_eq!(v.len(), 1, "{v:?}");
    assert!(
        v[0].message.contains("dead suppression"),
        "{}",
        v[0].message
    );
    // The live annotation still suppresses its unwrap, audited as usual.
    assert_eq!(
        allowed_positions(&a, "panic-hygiene"),
        [(4, 7, AllowedBy::Inline)]
    );
}

#[test]
fn error_hygiene_fixture_exact_positions() {
    let (v, _) = check_source(
        "crates/query/src/fixture.rs",
        &fixture("error_hygiene.rs"),
        FileContext::Lib,
        &Config::default(),
    );
    assert_eq!(positions(&v, "error-hygiene"), [(4, 10)]);
    assert!(v[0].message.contains("SeededError"), "{:?}", v[0].message);
    assert_eq!(v.len(), 1, "FineError must pass: {v:?}");
}

#[test]
fn forbid_unsafe_fixture_exact_positions() {
    let (v, _) = check_source(
        "fixtures/forbid_unsafe/src/lib.rs",
        &fixture("forbid_unsafe/src/lib.rs"),
        FileContext::Lib,
        &Config::default(),
    );
    assert_eq!(
        positions(&v, "forbid-unsafe"),
        [(1, 1), (5, 5)],
        "missing crate-root attribute and the unsafe block itself"
    );
    assert_eq!(v.len(), 2, "{v:?}");
}

#[test]
fn config_allowlist_suppresses_but_stays_audited() {
    let cfg = Config::parse("[allow]\npanic-hygiene = [\"virtual/\"]\n").unwrap();
    let (v, a) = check_source(
        "virtual/vendored.rs",
        &fixture("panic_hygiene.rs"),
        FileContext::Lib,
        &cfg,
    );
    assert!(v.is_empty(), "{v:?}");
    // All five findings (the four seeded ones plus the inline-annotated
    // unwrap) are recorded; the config allow takes precedence over inline.
    assert_eq!(a.len(), 5);
    assert!(a.iter().all(|x| x.by == AllowedBy::Config));
}

#[test]
fn annotations_without_a_reason_do_not_count() {
    for src in [
        "fn f(x: Option<u32>) { x.unwrap(); // lint-allow(panic-hygiene):\n}",
        "fn f(x: Option<u32>) { x.unwrap(); // lint-allow(panic-hygiene)\n}",
    ] {
        let (v, a) = check_source(
            "crates/core/src/x.rs",
            src,
            FileContext::Lib,
            &Config::default(),
        );
        assert_eq!(
            v.len(),
            1,
            "reason-less annotation must not suppress: {src}"
        );
        assert!(a.is_empty());
    }
}

#[test]
fn fixtures_are_inert_in_their_real_test_context() {
    // The workspace walk classifies tests/fixtures/*.rs as test files, where
    // none of the library-context rules apply — the seeded violations must
    // not leak into the repo's own lint run.
    for name in [
        "panic_hygiene.rs",
        "determinism.rs",
        "atomics_audit.rs",
        "progress_sink.rs",
    ] {
        let rel = format!("crates/lint/tests/fixtures/{name}");
        let (v, _) = check_source(&rel, &fixture(name), FileContext::Test, &Config::default());
        assert!(v.is_empty(), "{name}: {v:?}");
    }
}
