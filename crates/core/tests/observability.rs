//! The observability layer must be a pure observer: enabling it may not
//! change a single bit of any outcome, a disabled handle must be close to
//! free, and the artifacts it emits (trace, JSON snapshot, Prometheus
//! exposition) must be well-formed — the snapshot is validated against the
//! same committed schema CI uses (`schemas/metrics.schema.json`).

use std::time::Instant;

use acq_engine::{Catalog, DataType, Executor, Field, TableBuilder, Value};
use acq_query::{
    AcqQuery, AggConstraint, AggErrorFn, AggregateSpec, CmpOp, ColRef, Interval, Predicate,
    RefineSide,
};
use acquire_core::{
    acquire_progress, contract_with, contraction_query, AcqOutcome, AcquireConfig,
    CachedScoreEvaluator, CancellationToken, EvalLayerKind, FaultInjectingLayer, FaultPolicy,
    FaultSchedule, Obs, Parallelism, RefinedSpace, Session,
};

fn catalog() -> Catalog {
    let mut b = TableBuilder::new(
        "t",
        vec![
            Field::new("x", DataType::Float),
            Field::new("y", DataType::Float),
        ],
    )
    .unwrap();
    for i in 0..3000 {
        b.push_row(vec![
            Value::Float(f64::from(i) * 0.1),
            Value::Float(f64::from(i % 150)),
        ]);
    }
    let mut cat = Catalog::new();
    cat.register(b.finish().unwrap()).unwrap();
    cat
}

fn query(target: f64) -> AcqQuery {
    query_over(10.0, 30.0, CmpOp::Ge, target)
}

fn query_over(x_hi: f64, y_hi: f64, op: CmpOp, target: f64) -> AcqQuery {
    AcqQuery::builder()
        .table("t")
        .predicate(Predicate::select(
            ColRef::new("t", "x"),
            Interval::new(0.0, x_hi),
            RefineSide::Upper,
        ))
        .predicate(Predicate::select(
            ColRef::new("t", "y"),
            Interval::new(0.0, y_hi),
            RefineSide::Upper,
        ))
        .constraint(AggConstraint::new(AggregateSpec::count(), op, target))
        .error_fn(AggErrorFn::HingeRelative)
        .build()
        .unwrap()
}

fn run_with(obs: &Obs, cfg: &AcquireConfig) -> AcqOutcome {
    run_query(&query(800.0), obs, cfg)
}

/// Searches in the direction the constraint asks for: a `<=` query builds
/// its layer for `Q'_min` and contracts.
fn run_query(q: &AcqQuery, obs: &Obs, cfg: &AcquireConfig) -> AcqOutcome {
    let mut exec = Executor::new(catalog());
    let mut q = q.clone();
    exec.populate_domains(&mut q).unwrap();
    let contracts = q.constraint.op == CmpOp::Le;
    let searched = if contracts {
        contraction_query(&q).unwrap()
    } else {
        q.clone()
    };
    let caps = RefinedSpace::new(&searched, cfg).unwrap().caps();
    let mut eval = CachedScoreEvaluator::new(&mut exec, &searched, &caps).unwrap();
    let cancel = CancellationToken::new();
    if contracts {
        contract_with(&mut eval, &q, cfg, &cancel, obs, None).unwrap()
    } else {
        acquire_progress(&mut eval, &q, cfg, &cancel, obs, None).unwrap()
    }
}

/// Every observable field, floats as raw bits.
fn fingerprint(out: &AcqOutcome) -> String {
    format!(
        "satisfied={} explored={} layers={} peak_store={} original={} stats={:?} \
         termination={:?} answers={:?}",
        out.satisfied,
        out.explored,
        out.layers,
        out.peak_store,
        out.original_aggregate.to_bits(),
        out.stats,
        out.termination,
        out.queries
            .iter()
            .map(|r| format!(
                "{:?}/{}/{}",
                r.point,
                r.aggregate.to_bits(),
                r.error.to_bits()
            ))
            .collect::<Vec<_>>(),
    )
}

// ---------------------------------------------------------------------------
// Observation must not perturb the system
// ---------------------------------------------------------------------------

#[test]
fn enabling_observability_never_changes_the_outcome() {
    // An expansion, and a §7.2 contraction from an overshooting original.
    for q in [query(800.0), query_over(200.0, 100.0, CmpOp::Le, 400.0)] {
        for par in [Parallelism::Serial, Parallelism::Fixed(4)] {
            let cfg = AcquireConfig::default().with_parallelism(par);
            let baseline = fingerprint(&run_query(&q, &Obs::disabled(), &cfg));
            for (what, obs) in [
                ("counters", Obs::enabled()),
                ("tracing", Obs::with_trace(10_000)),
            ] {
                let got = fingerprint(&run_query(&q, &obs, &cfg));
                assert_eq!(got, baseline, "{what} observability perturbed {par:?}");
            }
        }
    }
}

/// A fault that ends a search under `FaultPolicy::Propagate` leaves the
/// instruments as they stood after the last committed cell: one cell count
/// per latency observation, and the store and budget gauges of a clean run
/// cut off at the same cell.
#[test]
fn a_propagated_fault_leaves_the_per_cell_instruments_committed() {
    let mut q = query(800.0);
    let mut exec = Executor::new(catalog());
    exec.populate_domains(&mut q).unwrap();
    let cfg = AcquireConfig {
        max_explored: 10_000,
        ..AcquireConfig::default().with_fault_policy(FaultPolicy::Propagate)
    };
    let caps = RefinedSpace::new(&q, &cfg).unwrap().caps();
    let cancel = CancellationToken::new();
    let mut faulted = 0;
    for seed in 0..8 {
        let mut schedule = FaultSchedule::errors(seed, 0.05);
        schedule.skip_layers = 3;
        let inner = CachedScoreEvaluator::new(&mut exec, &q, &caps).unwrap();
        let mut eval = FaultInjectingLayer::new(inner, schedule);
        let obs = Obs::enabled();
        if acquire_progress(&mut eval, &q, &cfg, &cancel, &obs, None).is_ok() {
            continue;
        }
        faulted += 1;
        let snap = obs.snapshot().expect("enabled handle");
        let cells = snap.counter("cells_executed").unwrap();
        let hist = snap.histogram("cell_latency_ns").expect("known instrument");
        assert_eq!(
            cells, hist.count,
            "seed {seed}: cell count != latency observations"
        );
        assert!(cells > 0, "seed {seed}: the skipped layers commit cells");

        let clean = Obs::enabled();
        let cut = AcquireConfig {
            max_explored: cells,
            ..cfg.clone()
        };
        let mut eval = CachedScoreEvaluator::new(&mut exec, &q, &caps).unwrap();
        let out = acquire_progress(&mut eval, &q, &cut, &cancel, &clean, None).unwrap();
        assert_eq!(out.explored, cells, "seed {seed}");
        let want = clean.snapshot().expect("enabled handle");
        for gauge in ["store_len", "store_peak", "store_bytes"] {
            assert_eq!(snap.gauge(gauge), want.gauge(gauge), "seed {seed}: {gauge}");
        }
        assert_eq!(
            snap.gauge("budget_headroom"),
            Some(10_000 - cells),
            "seed {seed}"
        );
    }
    assert!(faulted > 0, "the schedules must actually fault");
}

/// A disabled handle costs one null check per instrument, so a run with
/// observability off must stay within noise of one that never heard of it.
/// Each attempt measures min-of-5 interleaved runs with an absolute floor;
/// up to three attempts absorb transient contention from concurrently
/// running tests (a *systematic* overhead regression fails every attempt,
/// noise doesn't).
#[test]
fn disabled_observability_overhead_is_below_two_percent() {
    let cfg = AcquireConfig::default();
    // Warm-up: fault in lazily-initialised state on both paths.
    run_with(&Obs::disabled(), &cfg);

    let mut last = String::new();
    for _attempt in 0..3 {
        let mut plain = f64::INFINITY;
        let mut enabled = f64::INFINITY;
        for _ in 0..5 {
            let t = Instant::now();
            run_with(&Obs::disabled(), &cfg);
            plain = plain.min(t.elapsed().as_secs_f64() * 1e3);

            let obs = Obs::enabled();
            let t = Instant::now();
            run_with(&obs, &cfg);
            enabled = enabled.min(t.elapsed().as_secs_f64() * 1e3);
        }
        // The counters-only path bounds the disabled path from above: if
        // even live atomics fit in 2% + floor, the null-check path
        // certainly does.
        let allowed = plain * 1.02 + 15.0;
        if enabled <= allowed {
            return;
        }
        last =
            format!("instrumented run {enabled:.1}ms exceeds {allowed:.1}ms (plain {plain:.1}ms)");
    }
    panic!("{last}");
}

// ---------------------------------------------------------------------------
// Emitted artifacts
// ---------------------------------------------------------------------------

#[test]
fn snapshot_json_validates_against_the_committed_schema() {
    let obs = Obs::enabled();
    let out = run_with(&obs, &AcquireConfig::default().with_threads(4));
    let snap = obs.snapshot().unwrap();
    assert_eq!(snap.counter("cells_executed"), Some(out.explored));

    let doc = acq_obs::json::parse(&snap.to_json()).expect("snapshot renders valid JSON");
    let schema_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../schemas/metrics.schema.json"
    );
    let schema_text = std::fs::read_to_string(schema_path).expect("committed schema exists");
    let schema = acq_obs::json::parse(&schema_text).expect("schema is valid JSON");
    let errors = acq_obs::schema::validate(&schema, &doc);
    assert!(errors.is_empty(), "schema violations: {errors:#?}");
}

#[test]
fn trace_records_the_pipeline_phases() {
    let obs = Obs::with_trace(10_000);
    let out = run_with(&obs, &AcquireConfig::default().with_threads(4));
    assert!(out.explored > 0);
    let trace = obs.render_trace().expect("tracing handle");
    for needle in [
        "acquire: target",
        "expand layer 0",
        "explore: speculative pool (4 workers",
        "answer:",
        "done: satisfied",
    ] {
        assert!(trace.contains(needle), "missing {needle:?} in:\n{trace}");
    }
    // Spans carry durations, events don't.
    assert!(trace.contains("ms]"), "timestamps missing:\n{trace}");
}

#[test]
fn prometheus_exposition_covers_every_instrument_family() {
    let obs = Obs::enabled();
    run_with(&obs, &AcquireConfig::default().with_threads(4));
    let text = obs.snapshot().unwrap().to_prometheus();
    for needle in [
        "# TYPE acq_cells_executed_total counter",
        "acq_store_peak ",
        "acq_cell_latency_ns_bucket{le=\"+Inf\"}",
        "acq_exec_cell_queries_total",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }
}

/// The live-progress path — a `ProgressSink` fed at every layer boundary —
/// must stay within 2% of an identical sink-less run: that is the price a
/// served query pays while someone watches `/query/<id>/progress`. Same
/// retry discipline as the disabled-handle gate above: min-of-5 per
/// attempt, absolute floor, three attempts so only a systematic regression
/// fails.
#[test]
fn progress_sink_overhead_is_below_two_percent() {
    use acquire_core::{ProgressSink, DEFAULT_PROGRESS_CAPACITY};

    let cfg = AcquireConfig::default();
    run_with(&Obs::enabled(), &cfg); // warm-up

    let run_streamed = |sink: &ProgressSink| {
        let mut exec = Executor::new(catalog());
        let mut q = query(800.0);
        exec.populate_domains(&mut q).unwrap();
        let space = RefinedSpace::new(&q, &cfg).unwrap();
        let caps = space.caps();
        let mut eval = CachedScoreEvaluator::new(&mut exec, &q, &caps).unwrap();
        acquire_progress(
            &mut eval,
            &q,
            &cfg,
            &CancellationToken::new(),
            &Obs::enabled(),
            Some(sink),
        )
        .unwrap();
    };

    let mut last = String::new();
    for _attempt in 0..3 {
        let mut plain = f64::INFINITY;
        let mut streamed = f64::INFINITY;
        for _ in 0..5 {
            let t = Instant::now();
            run_with(&Obs::enabled(), &cfg);
            plain = plain.min(t.elapsed().as_secs_f64() * 1e3);

            let sink = ProgressSink::new(DEFAULT_PROGRESS_CAPACITY);
            let t = Instant::now();
            run_streamed(&sink);
            streamed = streamed.min(t.elapsed().as_secs_f64() * 1e3);
            assert!(sink.is_terminated(), "run must emit its terminal event");
        }
        let allowed = plain * 1.02 + 15.0;
        if streamed <= allowed {
            return;
        }
        last = format!("streamed run {streamed:.1}ms exceeds {allowed:.1}ms (plain {plain:.1}ms)");
    }
    panic!("{last}");
}

// ---------------------------------------------------------------------------
// Session plumbing
// ---------------------------------------------------------------------------

#[test]
fn session_threads_its_observability_handle_through_runs() {
    let mut exec = Executor::new(catalog());
    let q = query(800.0);
    let cfg = AcquireConfig::default();
    let mut session = Session::new(&mut exec, &q, &cfg, EvalLayerKind::CachedScore).unwrap();
    assert!(
        !session.observability().is_enabled(),
        "sessions default to a disabled handle"
    );

    session.set_observability(Obs::enabled());
    let first = session.run(800.0).unwrap();
    let after_first = session
        .observability()
        .snapshot()
        .unwrap()
        .counter("cells_executed")
        .unwrap();
    assert_eq!(after_first, first.explored);

    // Instruments accumulate across runs of one session (documented):
    // a second run adds its cells on top.
    let second = session.run(820.0).unwrap();
    let after_second = session
        .observability()
        .snapshot()
        .unwrap()
        .counter("cells_executed")
        .unwrap();
    assert_eq!(after_second, first.explored + second.explored);
}

/// Serve-mode instrumentation: every request runs against its own tracing
/// handle with a registry request ID attached, and the finished snapshot is
/// folded into a process-scoped registry. None of that may perturb the
/// outcome — bit-identical across threads 1–8 — and the per-query
/// `cells_executed == explored` invariant must hold in the registry record
/// of every request.
#[test]
fn serve_style_instrumentation_preserves_parallel_equivalence() {
    use acq_obs::{Metrics, QueryRegistry, QuerySummary};

    let baseline = fingerprint(&run_with(&Obs::disabled(), &AcquireConfig::default()));

    let process_metrics = Metrics::new();
    let registry = QueryRegistry::default();
    for threads in 1..=8 {
        let cfg = AcquireConfig::default().with_parallelism(Parallelism::Fixed(threads));
        let obs = Obs::with_trace(4096);
        let id = registry.begin(format!("threads={threads}"), threads);
        obs.set_query_id(id);
        let t0 = Instant::now();
        let out = run_with(&obs, &cfg);
        assert_eq!(
            fingerprint(&out),
            baseline,
            "serve instrumentation perturbed the outcome at {threads} thread(s)"
        );

        let snap = obs.snapshot().unwrap();
        registry.finish(
            id,
            QuerySummary {
                termination: out.termination.slug().to_string(),
                explored: out.explored,
                cells_executed: snap.counter("cells_executed").unwrap(),
                answers: out.queries.len() as u64,
                satisfied: out.satisfied,
                layers: out.layers,
            },
            t0.elapsed().as_millis() as u64,
            obs.render_trace_json(),
        );
        process_metrics.absorb_snapshot(&snap);

        // The per-query record pins the at-most-once invariant.
        let rec = registry.get(id).unwrap();
        let sum = rec.summary.as_ref().unwrap();
        assert_eq!(
            sum.cells_executed, sum.explored,
            "registry record violates cells_executed == explored at {threads} thread(s)"
        );
        // Request IDs tag the per-query trace.
        let trace = rec.trace_json.unwrap();
        assert!(trace.contains(&format!("[q{id}] acquire:")), "{trace}");
    }

    // The process registry saw 8 identical runs: totals are 8× one run.
    let (running, completed, dropped) = registry.counts();
    assert_eq!((running, completed, dropped), (0, 8, 0));
    let one = run_with(&Obs::enabled(), &AcquireConfig::default());
    assert_eq!(process_metrics.cells_executed.get(), 8 * one.explored);
    assert_eq!(process_metrics.at_most_once_violations.get(), 0);
}

/// The explain profile's Eq. 17 accounting must agree with the live run:
/// `cells_executed == explored` and `regions_reused == explored · d` for
/// any thread count.
#[test]
fn explain_profile_matches_live_accounting() {
    use acquire_core::ExplainProfile;

    for threads in [1, 4] {
        let cfg = AcquireConfig::default().with_parallelism(Parallelism::Fixed(threads));
        let obs = Obs::enabled();
        let t0 = Instant::now();
        let out = run_with(&obs, &cfg);
        let snap = obs.snapshot().unwrap();
        let q = query(800.0);
        let p = ExplainProfile::new(&q, &cfg, &out, Some(&snap), t0.elapsed());
        assert_eq!(p.cells_executed, out.explored);
        assert_eq!(p.regions_reused, out.explored * 2);
        assert_eq!(p.subqueries_total, out.explored * 3);
        assert_eq!(p.at_most_once_violations, 0);
        assert_eq!(p.workers, threads);
        assert!(
            p.explore_exec.is_some(),
            "instrumented run has a phase split"
        );
    }
}
