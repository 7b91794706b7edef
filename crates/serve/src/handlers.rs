//! Request routing and the query execution path.
//!
//! Endpoints:
//!
//! | method | path            | body                                         |
//! |--------|-----------------|----------------------------------------------|
//! | GET    | `/healthz`      | liveness: always 200 while the process runs  |
//! | GET    | `/readyz`       | readiness: 200 accepting, 503 shutting down  |
//! | GET    | `/metrics`      | Prometheus text: pipeline + serve telemetry  |
//! | GET    | `/queries`      | registry JSON: running + completed queries   |
//! | GET    | `/trace/<id>`   | that query's span tree, with `truncated`;    |
//! |        |                 | `?format=chrome` re-renders for Perfetto     |
//! | POST   | `/query`        | run an ACQ request; `?explain=1` adds profile|
//! | POST   | `/shutdown`     | cancel the shutdown token (graceful stop)    |
//!
//! `GET /query/<id>/progress` (chunked NDJSON) is dispatched by the session
//! loop before this buffered handler; see [`crate::progress`].

use std::net::IpAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use acq_engine::Executor;
use acq_obs::json::{parse, JsonValue};
use acq_obs::snapshot::{json_escape, json_num};
use acq_obs::{Obs, QuerySummary};
use acq_query::{AcqQuery, Norm};
use acq_sql::compile;
use acquire_core::profile::{answers_json, termination_json};
use acquire_core::{
    run_acquire_progress, AcqOutcome, AcquireConfig, CoreError, EvalLayerKind, ExecutionBudget,
    ExplainProfile, Host,
};

use crate::admission::Admission;
use crate::http::{Request, Response, PROMETHEUS_CONTENT_TYPE};
use crate::state::ServerState;

fn json_err(status: u16, msg: &str) -> Response {
    Response::json(status, format!("{{\"error\":\"{}\"}}", json_escape(msg)))
}

/// Dispatches one request. `peer` is the connection's remote IP, the
/// per-client rate-limit key. Telemetry: every call commits a request
/// event; `POST /query` additionally commits ok/err + latency on
/// completion.
pub fn handle(state: &Arc<ServerState>, req: &Request, peer: Option<IpAddr>) -> Response {
    state.telemetry.record_request(state.now());
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => Response::text(200, "ok\n"),
        ("GET", "/readyz") => {
            if state.is_ready() {
                Response::text(200, "ready\n")
            } else {
                Response::text(503, "not ready\n")
            }
        }
        // The versioned content type is what Prometheus' scraper expects
        // for the 0.0.4 text exposition format; bare text/plain parses but
        // is out of spec.
        ("GET", "/metrics") => Response::new(200, PROMETHEUS_CONTENT_TYPE, render_metrics(state)),
        ("GET", "/queries") => Response::json(200, state.registry.to_json()),
        ("GET", path) if path.starts_with("/trace/") => trace(state, req, &path["/trace/".len()..]),
        ("POST", "/query") => query(state, req, peer, run_acquire_progress),
        ("POST", "/shutdown") => {
            state.shutdown.cancel();
            Response::json(202, "{\"shutdown\":true}")
        }
        ("GET" | "POST", _) => json_err(404, &format!("no such endpoint: {}", req.path)),
        _ => json_err(405, &format!("method {} not supported", req.method)),
    }
}

/// `GET /metrics`: the absorbed pipeline snapshot, serve-level telemetry,
/// and registry occupancy, as one Prometheus text document.
fn render_metrics(state: &Arc<ServerState>) -> String {
    let now = state.now();
    let snap = acq_obs::MetricsSnapshot::capture(
        &state.metrics,
        now.as_millis() as u64,
        state.metrics.exec_stat_values(),
        vec![],
    );
    let mut s = snap.to_prometheus();
    s.push_str(&state.telemetry.render_prometheus(now));
    let (running, completed, dropped) = state.registry.counts();
    s.push_str(&format!(
        "# HELP acq_serve_queries_running In-flight queries\n\
         # TYPE acq_serve_queries_running gauge\nacq_serve_queries_running {running}\n\
         # HELP acq_serve_queries_retained Completed records retained\n\
         # TYPE acq_serve_queries_retained gauge\nacq_serve_queries_retained {completed}\n\
         # HELP acq_serve_records_dropped_total Completed records evicted from the bounded ring\n\
         # TYPE acq_serve_records_dropped_total counter\nacq_serve_records_dropped_total {dropped}\n"
    ));
    s.push_str(&format!(
        "# HELP acq_serve_gate_active Queries holding an execution slot\n\
         # TYPE acq_serve_gate_active gauge\nacq_serve_gate_active {}\n\
         # HELP acq_serve_gate_queued Queries waiting at the admission gate\n\
         # TYPE acq_serve_gate_queued gauge\nacq_serve_gate_queued {}\n\
         # HELP acq_serve_gate_degrade_at Active count above which admissions degrade\n\
         # TYPE acq_serve_gate_degrade_at gauge\nacq_serve_gate_degrade_at {}\n",
        state.gate.active(),
        state.gate.queued(),
        state.gate.degrade_at(),
    ));
    let prepared = state.prepared.counters();
    s.push_str(&format!(
        "# HELP acq_serve_prepared_hits_total Requests handed an already prepared layer: \
         how often the acq_exec_* work was not redone\n\
         # TYPE acq_serve_prepared_hits_total counter\nacq_serve_prepared_hits_total {}\n\
         # HELP acq_serve_prepared_misses_total Requests that prepared a layer themselves\n\
         # TYPE acq_serve_prepared_misses_total counter\nacq_serve_prepared_misses_total {}\n\
         # HELP acq_serve_prepared_base_hits_total Layer builds handed an already joined \
         NOREFINE base relation: how often its joins were not redone\n\
         # TYPE acq_serve_prepared_base_hits_total counter\n\
         acq_serve_prepared_base_hits_total {}\n\
         # HELP acq_serve_prepared_base_misses_total Layer builds that joined their NOREFINE \
         base relation themselves\n\
         # TYPE acq_serve_prepared_base_misses_total counter\n\
         acq_serve_prepared_base_misses_total {}\n\
         # HELP acq_serve_prepared_evictions_total Prepared layers and base relations dropped \
         at the byte cap\n\
         # TYPE acq_serve_prepared_evictions_total counter\n\
         acq_serve_prepared_evictions_total {}\n\
         # HELP acq_serve_prepared_entries Prepared layers and base relations retained\n\
         # TYPE acq_serve_prepared_entries gauge\nacq_serve_prepared_entries {}\n\
         # HELP acq_serve_prepared_bytes Bytes the retained prepared layers, base relations \
         and their keys are charged against the cap\n\
         # TYPE acq_serve_prepared_bytes gauge\nacq_serve_prepared_bytes {}\n",
        prepared.hits,
        prepared.misses,
        prepared.base_hits,
        prepared.base_misses,
        prepared.evictions,
        prepared.entries,
        prepared.bytes,
    ));
    if let Some(ring) = state.journal_ring() {
        s.push_str(&format!(
            "# HELP acq_journal_written_total Journal records persisted to disk\n\
             # TYPE acq_journal_written_total counter\nacq_journal_written_total {}\n\
             # HELP acq_journal_dropped_total Journal records dropped at the wait-free ring\n\
             # TYPE acq_journal_dropped_total counter\nacq_journal_dropped_total {}\n\
             # HELP acq_journal_rotations_total Journal segment rotations\n\
             # TYPE acq_journal_rotations_total counter\nacq_journal_rotations_total {}\n\
             # HELP acq_journal_write_errors_total Journal disk-write failures\n\
             # TYPE acq_journal_write_errors_total counter\nacq_journal_write_errors_total {}\n\
             # HELP acq_journal_torn_repaired_total Torn trailing lines truncated at open\n\
             # TYPE acq_journal_torn_repaired_total counter\nacq_journal_torn_repaired_total {}\n",
            ring.written(),
            ring.dropped(),
            ring.rotations(),
            ring.write_errors(),
            ring.torn_repaired(),
        ));
    }
    s
}

/// Seconds off the wire as a `Duration`: `None` for zero, negative, NaN and
/// anything `Duration` cannot hold (`1e300` is finite and positive, and
/// `Duration::from_secs_f64` panics on it).
pub(crate) fn positive_secs(secs: f64) -> Option<Duration> {
    Duration::try_from_secs_f64(secs)
        .ok()
        .filter(|_| secs > 0.0)
}

/// `GET /trace/<id>`; `?format=chrome` converts the stored render to the
/// Chrome trace-event format (loadable in Perfetto).
fn trace(state: &Arc<ServerState>, req: &Request, id: &str) -> Response {
    let Ok(id) = id.parse::<u64>() else {
        return json_err(400, "trace id must be a number");
    };
    let chrome = match req.param("format") {
        None | Some("json") => false,
        Some("chrome") => true,
        Some(other) => return json_err(400, &format!("unknown trace format \"{other}\"")),
    };
    let Some(rec) = state.registry.get(id) else {
        return json_err(
            404,
            &format!("no such query id {id} (evicted or never ran)"),
        );
    };
    match (&rec.trace_json, rec.status) {
        (Some(trace), _) if chrome => match acq_obs::trace::chrome_from_render_json(trace) {
            Some(converted) => Response::json(200, converted),
            None => json_err(500, &format!("stored trace for query {id} is unreadable")),
        },
        (Some(trace), _) => Response::json(200, trace.clone()),
        (None, acq_obs::QueryStatus::Running) => {
            json_err(202, "query still running; trace is captured at completion")
        }
        (None, _) => json_err(404, &format!("query {id} retained no trace")),
    }
}

/// Per-request knobs parsed from the `POST /query` JSON body.
struct QueryRequest {
    sql: String,
    gamma: Option<f64>,
    delta: Option<f64>,
    norm: Option<Norm>,
    threads: usize,
    timeout: Option<Duration>,
    deadline: Option<Duration>,
    max_explored: Option<u64>,
    max_store_bytes: Option<usize>,
    top: usize,
}

fn parse_query_request(body: &[u8]) -> Result<QueryRequest, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let v = parse(text).map_err(|e| format!("body is not valid JSON: {e}"))?;
    if !matches!(v, JsonValue::Obj(_)) {
        return Err("body must be a JSON object".to_string());
    }
    let sql = v
        .get("sql")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| "missing required string field \"sql\"".to_string())?
        .to_string();
    let num = |key: &str| -> Result<Option<f64>, String> {
        match v.get(key) {
            None | Some(JsonValue::Null) => Ok(None),
            Some(val) => val
                .as_f64()
                .map(Some)
                .ok_or_else(|| format!("field \"{key}\" must be a number")),
        }
    };
    let norm = match v.get("norm").and_then(JsonValue::as_str) {
        None => None,
        Some("l1") => Some(Norm::L1),
        Some("l2") => Some(Norm::Lp(2.0)),
        Some("linf") | Some("loo") => Some(Norm::LInf),
        Some(other) => return Err(format!("unknown norm \"{other}\" (l1|l2|linf)")),
    };
    let timeout = num("timeout_secs")?
        .map(|secs| positive_secs(secs).ok_or("\"timeout_secs\" must be positive and finite"))
        .transpose()?;
    // Client deadline propagation, JSON spelling; the `X-ACQ-Deadline-Ms`
    // header is the transport spelling of the same thing, folded in by the
    // caller. Whichever bound is tightest wins.
    let deadline = match num("deadline_ms")? {
        Some(ms) if ms.is_finite() && ms > 0.0 => Some(Duration::from_millis(ms as u64)),
        Some(_) => return Err("\"deadline_ms\" must be positive and finite".to_string()),
        None => None,
    };
    Ok(QueryRequest {
        sql,
        gamma: num("gamma")?,
        delta: num("delta")?,
        norm,
        threads: num("threads")?.map_or(1, |t| t.max(1.0) as usize),
        timeout,
        deadline,
        max_explored: num("max_explored")?.map(|n| n.max(0.0) as u64),
        max_store_bytes: num("max_store_bytes")?.map(|n| n.max(0.0) as usize),
        top: num("top")?.map_or(5, |t| t.max(1.0) as usize),
    })
}

/// The search behind `POST /query`: [`run_acquire_progress`], or a stand-in
/// in this module's tests.
type Search = fn(
    &mut Executor,
    &AcqQuery,
    &AcquireConfig,
    EvalLayerKind,
    Host<'_>,
) -> Result<AcqOutcome, CoreError>;

/// `POST /query`: rate-limit, parse, compile, pass the admission gate,
/// register, run with a per-query handle, respond. Order matters — the
/// cheap rejections (429s, 400s) happen before a gate slot is occupied.
fn query(
    state: &Arc<ServerState>,
    req: &Request,
    peer: Option<IpAddr>,
    search: Search,
) -> Response {
    let stats = &state.telemetry.admission;
    if !state.is_ready() {
        stats.shed.inc();
        journal_query(state, "\"status\":503,\"error\":\"shutting down\"");
        return json_err(503, "server is shutting down").with_retry_after(1);
    }
    let admitted_by_limiter = state.limiters.check(peer);
    // Fold bucket evictions (TTL sweep or size cap) into the cumulative
    // counter whichever way the check went — sweeps fire on admits too.
    let evicted = state.limiters.take_evicted();
    if evicted > 0 {
        stats.clients_evicted.add(evicted);
    }
    if let Err(retry) = admitted_by_limiter {
        stats.rate_limited.inc();
        journal_query(state, "\"status\":429,\"error\":\"rate limited\"");
        return json_err(429, "rate limited; slow down").with_retry_after(retry);
    }
    let (admission, permit) = state.gate.admit(&state.shutdown);
    let (queued, degraded) = match admission {
        Admission::Shed(retry) => {
            stats.shed.inc();
            journal_query(state, "\"status\":503,\"error\":\"shed: at capacity\"");
            return json_err(503, "at capacity; retry later").with_retry_after(retry);
        }
        Admission::Admitted { queued, degraded } => (queued, degraded),
    };
    stats.admitted.inc();
    if queued {
        stats.queued.inc();
    }
    if degraded {
        stats.degraded.inc();
    }
    let t0 = Instant::now();
    let resp = run_query(state, req, t0, queued, degraded, search);
    drop(permit);
    state
        .telemetry
        .record_query(resp.status == 200, t0.elapsed(), state.now());
    resp
}

fn run_query(
    state: &Arc<ServerState>,
    req: &Request,
    t0: Instant,
    queued: bool,
    degraded: bool,
    search: Search,
) -> Response {
    let reject = |msg: &str| {
        journal_query(
            state,
            &format!("\"status\":400,\"error\":\"{}\"", json_escape(msg)),
        );
        json_err(400, msg)
    };
    let parsed = match parse_query_request(&req.body) {
        Ok(p) => p,
        Err(msg) => return reject(&msg),
    };
    let threads = parsed.threads.min(state.config.max_threads);

    // `X-ACQ-Deadline-Ms`: the transport spelling of the client deadline.
    let header_deadline = match req.header("x-acq-deadline-ms") {
        None => None,
        Some(v) => match v.trim().parse::<u64>() {
            Ok(ms) if ms > 0 => Some(Duration::from_millis(ms)),
            _ => {
                return reject("X-ACQ-Deadline-Ms must be a positive integer (milliseconds)");
            }
        },
    };

    let query = match compile(&parsed.sql, &state.catalog) {
        Ok(q) => q,
        Err(e) => return reject(&format!("compile: {e}")),
    };

    // Per-request budget: the tightest of the server's hard cap, the JSON
    // knobs (`timeout_secs`, `deadline_ms`) and the deadline header — a
    // query never outlives its caller or pins a worker past the cap.
    let mut deadline = state.config.max_deadline;
    for d in [parsed.timeout, parsed.deadline, header_deadline]
        .into_iter()
        .flatten()
    {
        deadline = deadline.min(d);
    }
    let mut budget = ExecutionBudget::unlimited().with_deadline(deadline);
    if let Some(n) = parsed.max_explored {
        budget = budget.with_max_explored(n);
    }
    if let Some(b) = parsed.max_store_bytes {
        budget = budget.with_max_store_bytes(b);
    }
    if degraded {
        // Past the high-water mark: best-effort admission. The shrunken
        // budget turns overload into partial anytime answers (an explicit
        // `termination` in the body) instead of sheds.
        budget = budget.shrunk(state.config.degrade_factor);
    }
    let cfg = AcquireConfig {
        gamma: parsed.gamma.unwrap_or(state.config.gamma),
        delta: parsed.delta.unwrap_or(state.config.delta),
        norm: parsed.norm.clone().unwrap_or(Norm::L1),
        budget,
        ..Default::default()
    }
    .with_threads(threads);

    let id = state.registry.begin(parsed.sql.clone(), threads);
    // Per-query handle: keeps traces and profiles attributable to this
    // request; folded into the process registry at completion.
    let obs = Obs::with_trace(state.config.trace_capacity);
    obs.set_query_id(id);
    // The progress channel is registered before the search starts so a
    // watcher connecting mid-run sees every boundary event; the channel is
    // sealed below with the exact response body this handler returns.
    let channel = state.progress.register(id);

    // Each request gets its own executor over the shared catalog (tables are
    // Arc'd, so the clone is cheap) and its own work counters, and searches
    // under the server's shutdown token, so a graceful stop interrupts it
    // cooperatively. What it prepares it shares: every layer comes out of
    // the server's one prepared-layer cache.
    let mut exec = Executor::new(state.catalog.clone());
    let host = Host {
        cancel: &state.shutdown,
        obs: &obs,
        progress: Some(&channel.sink),
        prepared: Some(&state.prepared),
    };
    let outcome = search(&mut exec, &query, &cfg, state.config.layer, host);
    let duration = t0.elapsed();

    match outcome {
        Ok(outcome) => {
            let snap = obs.snapshot();
            // One per-query record: the registry summary, the journal's
            // Eq. 17 accounting and `?explain=1` all read this digest.
            let digest = ExplainProfile::new(&query, &cfg, &outcome, snap.as_ref(), duration);
            state.registry.finish(
                id,
                QuerySummary {
                    termination: outcome.termination.slug().to_string(),
                    explored: outcome.explored,
                    cells_executed: digest.cells_executed,
                    answers: outcome.queries.len() as u64,
                    satisfied: outcome.satisfied,
                    layers: outcome.layers,
                },
                duration.as_millis() as u64,
                obs.render_trace_json(),
            );
            if let Some(snap) = &snap {
                state.metrics.absorb_snapshot(snap);
            }
            let key = outcome_key(&outcome);
            journal_query(
                state,
                &format!(
                    "\"id\":{id},\"status\":200,\"queued\":{queued},\"degraded\":{degraded},\
                     \"satisfied\":{},\"termination\":\"{}\",\"layers\":{},\"explored\":{},\
                     \"duration_ms\":{},\"outcome_key\":\"{key}\",\
                     \"digest\":{{\"dims\":{},\"layers\":{},\"explored\":{},\
                     \"cells_executed\":{},\"regions_reused\":{},\"subqueries_total\":{},\
                     \"at_most_once_violations\":{}}}",
                    outcome.satisfied,
                    outcome.termination.slug(),
                    outcome.layers,
                    outcome.explored,
                    duration.as_millis(),
                    digest.dims,
                    digest.layers_expanded,
                    digest.explored,
                    digest.cells_executed,
                    digest.regions_reused,
                    digest.subqueries_total,
                    digest.at_most_once_violations,
                ),
            );
            let profile = req.flag("explain").then_some(&digest);
            let body = outcome_json(
                id, &outcome, &query, parsed.top, duration, degraded, &key, profile,
            );
            // Seal with the response body *verbatim* so the stream's
            // terminal `outcome` is byte-identical to this answer.
            channel.seal(body.clone());
            Response::json(200, body)
        }
        Err(e) => {
            // A panic inside the search is the server's fault, not the
            // request's; every other failure is the request's.
            let status = match e {
                CoreError::EvalPanicked(_) => 500,
                _ => 400,
            };
            let msg = e.to_string();
            state
                .registry
                .fail(id, msg.clone(), duration.as_millis() as u64);
            channel.fail();
            journal_query(
                state,
                &format!(
                    "\"id\":{id},\"status\":{status},\"queued\":{queued},\"degraded\":{degraded},\
                     \"duration_ms\":{},\"error\":\"{}\"",
                    duration.as_millis(),
                    json_escape(&msg)
                ),
            );
            json_err(status, &format!("query {id} failed: {msg}"))
        }
    }
}

/// Appends one `kind:"query"` NDJSON record (see
/// `schemas/journal.schema.json`) when journaling is on. The append is
/// wait-free — a full ring drops the record and counts it, so slow disks
/// never back-pressure request threads.
fn journal_query(state: &Arc<ServerState>, fields: &str) {
    if let Some(ring) = state.journal_ring() {
        ring.try_append(format!(
            "{{\"v\":{},\"kind\":\"query\",\"at_ms\":{},{fields}}}",
            acq_obs::JOURNAL_VERSION,
            acq_obs::journal::unix_ms(),
        ));
    }
}

/// FNV-1a over the answer-bearing response fields: satisfaction, the
/// termination slug, and every returned refinement's SQL + aggregate +
/// error bits (plus the near-miss). Floats are hashed as IEEE bit
/// patterns, so the key is bit-exact: two runs agree on `outcome_key` iff
/// they agree on every answer a client could act on — the serve-level
/// spelling of the workspace's determinism guarantee, checked across
/// thread counts in `serve_e2e`.
fn outcome_key(outcome: &AcqOutcome) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h ^= 0xff; // field separator, so ("ab","c") != ("a","bc")
        h = h.wrapping_mul(0x100_0000_01b3);
    };
    eat(&[u8::from(outcome.satisfied)]);
    eat(outcome.termination.slug().as_bytes());
    for r in &outcome.queries {
        eat(r.sql.as_bytes());
        eat(&r.aggregate.to_bits().to_le_bytes());
        eat(&r.error.to_bits().to_le_bytes());
    }
    if let Some(r) = &outcome.closest {
        eat(r.sql.as_bytes());
        eat(&r.aggregate.to_bits().to_le_bytes());
        eat(&r.error.to_bits().to_le_bytes());
    }
    format!("{h:016x}")
}

#[allow(clippy::too_many_arguments)]
fn outcome_json(
    id: u64,
    outcome: &AcqOutcome,
    original: &AcqQuery,
    top: usize,
    duration: Duration,
    degraded: bool,
    outcome_key: &str,
    profile: Option<&ExplainProfile>,
) -> String {
    let profile = profile
        .map(ExplainProfile::to_json)
        .unwrap_or_else(|| "null".to_string());
    format!(
        "{{\"id\":{id},\"satisfied\":{},\"degraded\":{degraded},\"termination\":{},\
         \"original_aggregate\":{},\
         \"explored\":{},\"layers\":{},\"duration_ms\":{},\"outcome_key\":\"{outcome_key}\",\
         {},\"profile\":{}}}",
        outcome.satisfied,
        termination_json(&outcome.termination),
        json_num(outcome.original_aggregate),
        outcome.explored,
        outcome.layers,
        duration.as_millis(),
        answers_json(outcome, original, top),
        profile
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use acq_engine::{AggState, Catalog, CellRange, DataType, EngineResult, ExecStats};
    use acq_engine::{Field, TableBuilder, Value};
    use acquire_core::{acquire_progress, EvaluationLayer, RefinedSpace, ScanEvaluator};

    use crate::state::ServeConfig;

    /// A scan layer that panics when asked for its work counters, which a
    /// search does once, after its last cell and outside every call into the
    /// layer it isolates.
    struct StatsPanics<'a>(ScanEvaluator<'a>);

    impl EvaluationLayer for StatsPanics<'_> {
        fn cell_aggregate(&mut self, cell: &[CellRange]) -> EngineResult<AggState> {
            self.0.cell_aggregate(cell)
        }

        fn full_aggregate(&mut self, bounds: &[f64]) -> EngineResult<AggState> {
            self.0.full_aggregate(bounds)
        }

        fn empty_state(&self) -> EngineResult<AggState> {
            self.0.empty_state()
        }

        fn stats(&self) -> ExecStats {
            panic!("stats unavailable")
        }

        fn universe_size(&self) -> usize {
            self.0.universe_size()
        }
    }

    /// The expanding search over [`StatsPanics`], through the library's
    /// entry point and so through its search boundary.
    fn search_with_failing_stats(
        exec: &mut Executor,
        query: &AcqQuery,
        cfg: &AcquireConfig,
        _: EvalLayerKind,
        host: Host<'_>,
    ) -> Result<AcqOutcome, CoreError> {
        let mut query = query.clone();
        exec.populate_domains(&mut query)?;
        let caps = RefinedSpace::new(&query, cfg)?.caps();
        let mut layer = StatsPanics(ScanEvaluator::new(exec, &query, &caps)?);
        let Host {
            cancel,
            obs,
            progress,
            ..
        } = host;
        acquire_progress(&mut layer, &query, cfg, cancel, obs, progress)
    }

    /// A panic inside a search is answered 500 like the failure it is: the
    /// registry entry finishes, nothing stays running, the failure is
    /// counted and journaled once, and the progress channel is sealed.
    #[test]
    fn a_panicking_search_answers_500_and_finishes_its_record() {
        let mut b = TableBuilder::new("t", vec![Field::new("x", DataType::Float)]).unwrap();
        for i in 0..200 {
            b.push_row(vec![Value::Float(f64::from(i))]);
        }
        let mut catalog = Catalog::new();
        catalog.register(b.finish().unwrap()).unwrap();
        let journal = std::env::temp_dir().join(format!(
            "acq-serve-handlers-panic-{}.journal",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&journal);
        let config = ServeConfig {
            journal_path: Some(journal.clone()),
            ..ServeConfig::default()
        };
        let state = Arc::new(ServerState::try_new(config, catalog).unwrap());
        state.set_ready();

        let body = r#"{"sql":"SELECT * FROM t CONSTRAINT COUNT(*) >= 150 WHERE x <= 100"}"#;
        let req = Request::post("/query", body);
        let resp = query(&state, &req, None, search_with_failing_stats);
        assert_eq!(resp.status, 500, "{}", resp.body);
        assert!(resp.body.contains("stats unavailable"), "{}", resp.body);

        let metrics = render_metrics(&state);
        assert!(
            metrics.contains("\nacq_serve_queries_running 0\n"),
            "{metrics}"
        );

        let written = state.journal.as_ref().unwrap();
        assert!(written.flush(Duration::from_secs(5)));
        let read = acq_obs::journal::read_journal(&journal).unwrap();
        let _ = std::fs::remove_file(&journal);
        assert_eq!(read.records.len(), 1, "{:?}", read.records);
        let record = parse(&read.records[0]).unwrap();
        let field = |name: &str| record.pointer(name).and_then(JsonValue::as_u64);
        assert_eq!(field("/status"), Some(500), "{record:?}");
        let id = field("/id").unwrap();
        assert!(state.progress.get(id).unwrap().is_done());
    }
}
