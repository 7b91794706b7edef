//! EXPLAIN-style per-query profiles.
//!
//! An [`ExplainProfile`] is the operator-facing account of *where an ACQ
//! search spent its work*: the refined-space geometry (dims, γ/d step), how
//! far Expand got, and — the paper's central economy — how many aggregate
//! regions Eq. 17 reused instead of recomputing. The serve crate returns it
//! on `POST /query?explain=1`; the CLI prints it under `--explain`. The
//! hosts' other shared JSON fragments ([`termination_json`],
//! [`answers_json`]) are rendered here too; each keeps its own envelope.
//!
//! The accounting mirrors §5.1: each explored grid query decomposes into
//! `d + 1` region sub-queries, of which only one (the *cell*) is executed —
//! the other `d` are reassembled from neighbours already in the store. So
//! for `explored` grid queries, `cells_executed == explored` and
//! `regions_reused == explored · d`. That holds per search: after an `=`
//! fell through from expansion to contraction, `explored` is the returned
//! (contraction) search's and `cells_executed` counts both.

use std::time::Duration;

use acq_obs::snapshot::{fmt_f64, json_escape, json_num};
use acq_obs::MetricsSnapshot;
use acq_query::AcqQuery;

use crate::config::AcquireConfig;
use crate::govern::Termination;
use crate::result::{AcqOutcome, RefinedQueryResult};

/// A [`Termination`] as the `termination` object of a host's outcome JSON.
/// The slugs are the stable machine-readable vocabulary shared with the
/// serve registry; human `Display` text may change, slugs may not.
#[must_use]
pub fn termination_json(t: &Termination) -> String {
    match t {
        Termination::Interrupted {
            reason,
            explored,
            elapsed,
        } => format!(
            "{{\"status\":\"interrupted\",\"reason\":\"{}\",\"detail\":\"{}\",\
             \"explored\":{},\"elapsed_ms\":{}}}",
            reason.slug(),
            json_escape(&reason.to_string()),
            explored,
            elapsed.as_millis()
        ),
        complete => format!("{{\"status\":\"{}\"}}", complete.slug()),
    }
}

/// The answer-bearing members of a host's outcome JSON, as a braceless
/// fragment: the best `top` `queries`, the `closest` near-miss (or `null`)
/// and every executor work counter under `stats` — the field list comes
/// from the engine itself, so the JSON never lags behind `ExecStats`.
#[must_use]
pub fn answers_json(outcome: &AcqOutcome, original: &AcqQuery, top: usize) -> String {
    // `changes` reads `pscores` as expansions of `original`, which a
    // contraction outcome's are not.
    let expanded_from = (!outcome.contracted).then_some(original);
    let queries: Vec<String> = outcome
        .queries
        .iter()
        .take(top)
        .map(|r| result_json(r, expanded_from))
        .collect();
    let closest = outcome
        .closest
        .as_ref()
        .map_or_else(|| "null".to_string(), |r| result_json(r, expanded_from));
    let stats: Vec<String> = outcome
        .stats
        .fields()
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    format!(
        "\"queries\":[{}],\"closest\":{closest},\"stats\":{{{}}}",
        queries.join(","),
        stats.join(",")
    )
}

/// One refined query; `changes` is its per-predicate diff against the query
/// it expands, if it expands one.
fn result_json(r: &RefinedQueryResult, expanded_from: Option<&AcqQuery>) -> String {
    let pscores: Vec<String> = r.pscores.iter().map(|&p| json_num(p)).collect();
    let changes: Vec<String> = expanded_from
        .map(|original| r.explain(original))
        .unwrap_or_default()
        .iter()
        .map(|c| format!("\"{}\"", json_escape(c)))
        .collect();
    format!(
        "{{\"pscores\":[{}],\"qscore\":{},\"aggregate\":{},\"error\":{},\
         \"sql\":\"{}\",\"changes\":[{}]}}",
        pscores.join(","),
        json_num(r.qscore),
        json_num(r.aggregate),
        json_num(r.error),
        json_escape(&r.sql),
        changes.join(",")
    )
}

/// An EXPLAIN-style profile of one completed ACQ search.
#[derive(Debug, Clone)]
pub struct ExplainProfile {
    /// Flexible predicates = grid dimensions `d`.
    pub dims: usize,
    /// Refinement granularity γ (percent).
    pub gamma: f64,
    /// Grid step γ/d along each axis (Theorem 1's proximity bound).
    pub step: f64,
    /// Aggregate tolerance δ.
    pub delta: f64,
    /// QScore norm name.
    pub norm: String,
    /// Worker threads the search ran with.
    pub workers: usize,
    /// Expand layers completed.
    pub layers_expanded: u64,
    /// Grid queries explored (== cells executed, see module docs).
    pub explored: u64,
    /// Cell sub-queries actually executed. Equals `explored` per search;
    /// both are carried so the profile *shows* the invariant instead of
    /// assuming it.
    pub cells_executed: u64,
    /// Region sub-queries answered by Eq. 17 reuse instead of execution
    /// (`explored · d`).
    pub regions_reused: u64,
    /// Total region sub-queries implied by the explored grid queries
    /// (`explored · (d + 1)`).
    pub subqueries_total: u64,
    /// Answers in the minimal-refinement layer.
    pub answers: u64,
    /// Repartition rounds performed (Algorithm 4).
    pub repartitions: u64,
    /// Whether the constraint was satisfied within δ.
    pub satisfied: bool,
    /// Termination status slug.
    pub termination: String,
    /// Peak simultaneously-retained grid points in the aggregate store.
    pub peak_store: usize,
    /// §5 at-most-once violations observed (must be 0).
    pub at_most_once_violations: u64,
    /// Wall-clock duration of the whole request: layer preparation and
    /// the search (both searches, when an `=` fell through).
    pub total: Duration,
    /// Summed search-layer latency: the time the search loop spent inside
    /// its layers — Expand, cell execution, Eq. 17 merges, answers and
    /// repartitions. `None` when the search ran without instrumentation.
    pub search_layers: Option<Duration>,
    /// The rest of `total`: preparing the evaluation layer (scoring, the
    /// cell table), setting up the space, and rendering the answers. `None`
    /// without instrumentation.
    pub outside_layers: Option<Duration>,
}

impl ExplainProfile {
    /// Builds the profile from a finished search.
    ///
    /// `snapshot` is the run's own [`MetricsSnapshot`] (from the per-query
    /// [`acq_obs::Obs`] handle); without one the latency split and the
    /// at-most-once audit fall back to outcome-only data.
    #[must_use]
    pub fn new(
        query: &AcqQuery,
        cfg: &AcquireConfig,
        outcome: &AcqOutcome,
        snapshot: Option<&MetricsSnapshot>,
        total: Duration,
    ) -> Self {
        let dims = query.flexible().len();
        let explored = outcome.explored;
        let cells_executed = snapshot
            .and_then(|s| s.counter("cells_executed"))
            .unwrap_or(explored);
        let search_layers = snapshot
            .and_then(|s| s.histogram("layer_latency_ns"))
            .map(|h| Duration::from_nanos(h.sum));
        let outside_layers = search_layers.map(|e| total.saturating_sub(e));
        Self {
            dims,
            gamma: cfg.gamma,
            step: cfg.gamma / dims.max(1) as f64,
            delta: cfg.delta,
            norm: cfg.norm.to_string(),
            workers: cfg.parallelism.workers(),
            layers_expanded: outcome.layers,
            explored,
            cells_executed,
            regions_reused: explored * dims as u64,
            subqueries_total: explored * (dims as u64 + 1),
            answers: outcome.queries.len() as u64,
            repartitions: snapshot
                .and_then(|s| s.counter("repartitions"))
                .unwrap_or(0),
            satisfied: outcome.satisfied,
            termination: outcome.termination.slug().to_string(),
            peak_store: outcome.peak_store,
            at_most_once_violations: snapshot
                .and_then(|s| s.counter("at_most_once_violations"))
                .unwrap_or(0),
            total,
            search_layers,
            outside_layers,
        }
    }

    /// Renders the profile as a compact JSON object (the `profile` value in
    /// serve responses and CLI `--json --explain` output).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(512);
        s.push_str(&format!(
            "{{\"dims\":{},\"gamma\":{},\"step\":{},\"delta\":{},\"norm\":\"{}\",\
             \"workers\":{},\"layers_expanded\":{},\"explored\":{},\"cells_executed\":{},\
             \"regions_reused\":{},\"subqueries_total\":{},\"answers\":{},\
             \"repartitions\":{},\"satisfied\":{},\"termination\":\"{}\",\
             \"peak_store\":{},\"at_most_once_violations\":{},\"total_ms\":{}",
            self.dims,
            fmt_f64(self.gamma),
            fmt_f64(self.step),
            fmt_f64(self.delta),
            json_escape(&self.norm),
            self.workers,
            self.layers_expanded,
            self.explored,
            self.cells_executed,
            self.regions_reused,
            self.subqueries_total,
            self.answers,
            self.repartitions,
            self.satisfied,
            json_escape(&self.termination),
            self.peak_store,
            self.at_most_once_violations,
            self.total.as_millis(),
        ));
        match self.search_layers {
            Some(d) => s.push_str(&format!(",\"search_layers_ms\":{}", d.as_millis())),
            None => s.push_str(",\"search_layers_ms\":null"),
        }
        match self.outside_layers {
            Some(d) => s.push_str(&format!(",\"outside_layers_ms\":{}", d.as_millis())),
            None => s.push_str(",\"outside_layers_ms\":null"),
        }
        s.push('}');
        s
    }

    /// Renders the profile as indented human-readable text for the CLI.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = String::with_capacity(512);
        out.push_str("profile:\n");
        out.push_str(&format!(
            "  space      : {} dims, step γ/d = {:.4} (γ = {}, δ = {}, norm {})\n",
            self.dims, self.step, self.gamma, self.delta, self.norm
        ));
        out.push_str(&format!(
            "  expand     : {} layer(s), {} grid queries ({} workers)\n",
            self.layers_expanded, self.explored, self.workers
        ));
        out.push_str(&format!(
            "  eq. 17     : {} cells executed, {} regions reused of {} sub-queries\n",
            self.cells_executed, self.regions_reused, self.subqueries_total
        ));
        out.push_str(&format!(
            "  outcome    : {} — {} answer(s), {} repartition(s)\n",
            self.termination, self.answers, self.repartitions
        ));
        out.push_str(&format!(
            "  memory     : peak {} grid point(s) retained\n",
            self.peak_store
        ));
        out.push_str(&format!(
            "  invariants : at-most-once violations {}\n",
            self.at_most_once_violations
        ));
        match (self.search_layers, self.outside_layers) {
            (Some(layers), Some(outside)) => out.push_str(&format!(
                "  latency    : total {:?} = search layers {:?} + prepare/render {:?}\n",
                self.total, layers, outside
            )),
            _ => out.push_str(&format!(
                "  latency    : total {:?} (no instrumentation: phase split unavailable)\n",
                self.total
            )),
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acq_obs::Obs;
    use acq_query::{AggConstraint, AggregateSpec, CmpOp, ColRef, Interval, Predicate, RefineSide};

    fn sample_query() -> AcqQuery {
        AcqQuery::builder()
            .table("t")
            .predicate(Predicate::select(
                ColRef::new("t", "x"),
                Interval::new(0.0, 50.0),
                RefineSide::Upper,
            ))
            .predicate(Predicate::select(
                ColRef::new("t", "y"),
                Interval::new(0.0, 50.0),
                RefineSide::Upper,
            ))
            .constraint(AggConstraint::new(AggregateSpec::count(), CmpOp::Eq, 5.0))
            .build()
            .unwrap()
    }

    fn sample_outcome() -> AcqOutcome {
        AcqOutcome {
            queries: vec![],
            satisfied: false,
            closest: None,
            original_aggregate: 1.0,
            contracted: false,
            explored: 12,
            layers: 3,
            peak_store: 7,
            stats: Default::default(),
            termination: Termination::Exhausted,
        }
    }

    #[test]
    fn eq17_accounting_follows_the_paper() {
        let q = sample_query();
        let cfg = AcquireConfig::default();
        let p = ExplainProfile::new(&q, &cfg, &sample_outcome(), None, Duration::from_millis(5));
        assert_eq!(p.dims, 2);
        assert!((p.step - cfg.gamma / 2.0).abs() < 1e-12);
        // 12 grid queries × d=2: 24 reused regions of 36 sub-queries.
        assert_eq!(p.cells_executed, 12);
        assert_eq!(p.regions_reused, 24);
        assert_eq!(p.subqueries_total, 36);
        assert_eq!(p.termination, "exhausted");
    }

    #[test]
    fn snapshot_supplies_the_instrumented_fields() {
        let obs = Obs::enabled();
        let m = obs.metrics().unwrap();
        m.cells_executed.add(12);
        m.repartitions.add(2);
        for _ in 0..3 {
            m.layer_latency_ns.observe(4_000_000); // 4ms each
        }
        let snap = obs.snapshot().unwrap();
        let p = ExplainProfile::new(
            &sample_query(),
            &AcquireConfig::default(),
            &sample_outcome(),
            Some(&snap),
            Duration::from_millis(20),
        );
        assert_eq!(p.cells_executed, 12);
        assert_eq!(p.repartitions, 2);
        assert_eq!(p.search_layers, Some(Duration::from_millis(12)));
        assert_eq!(p.outside_layers, Some(Duration::from_millis(8)));
        assert!(
            p.render_text()
                .contains("total 20ms = search layers 12ms + prepare/render 8ms"),
            "{}",
            p.render_text()
        );
        assert_eq!(p.at_most_once_violations, 0);
    }

    #[test]
    fn json_parses_and_text_renders() {
        let p = ExplainProfile::new(
            &sample_query(),
            &AcquireConfig::default(),
            &sample_outcome(),
            None,
            Duration::from_millis(5),
        );
        let v = acq_obs::json::parse(&p.to_json()).expect("profile JSON parses");
        assert_eq!(v.pointer("/dims").and_then(|v| v.as_u64()), Some(2));
        assert_eq!(
            v.pointer("/regions_reused").and_then(|v| v.as_u64()),
            Some(24)
        );
        assert_eq!(
            v.pointer("/termination").and_then(|v| v.as_str()),
            Some("exhausted")
        );
        assert!(matches!(
            v.pointer("/search_layers_ms"),
            Some(acq_obs::json::JsonValue::Null)
        ));
        let text = p.render_text();
        assert!(
            text.contains("24 regions reused of 36 sub-queries"),
            "{text}"
        );
        assert!(text.contains("step γ/d"), "{text}");
    }
}
