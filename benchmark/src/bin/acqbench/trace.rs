//! The traced pass: per-layer numbers measured from outside, by timing the
//! calls into each crate's public functions. Spans live only here, are held
//! in memory, and are written out when the pass ends. End-to-end rounds run
//! none of this.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::repo_api::{self, AcqOutcome, Catalog, Executor, TimedLayer};
use crate::report::{Measured, PER_LAYER};
use crate::round::{self, Answer, Stop};
use crate::stats::median;
use crate::workloads::Workload;

/// Requests of client 0's sequence the pass traces.
pub const TRACED_REQUESTS: u64 = 48;
/// Requests each client then sends closed-loop, so the admission, keep-alive
/// and journal counters are read after concurrent traffic of a fixed size.
const BURST_REQUESTS: u64 = 32;

/// How far the library's total may sit from the server's own `duration_ms`
/// (whole milliseconds, hence the slack) before the pass says so.
const CLOSURE_GAP_SHARE: f64 = 0.10;
const CLOSURE_GAP_SLACK_MS: f64 = 1.0;

/// Engine counters of `outcome.stats` that are per-layer metrics.
const ENGINE_COUNTS: [(&str, &str); 6] = [
    ("tuples_scanned", "engine.tuples_scanned"),
    ("rows_joined", "engine.rows_joined"),
    ("zones_pruned", "engine.zones_pruned"),
    ("zones_full", "engine.zones_full"),
    ("zones_scanned", "engine.zones_scanned"),
    ("full_queries", "engine.full_queries"),
];

/// One timed interval. `parent` indexes the recorder's span list; spans of
/// one request share `request`. `calls` is 1 except on an aggregated span
/// (`engine.cell` stands for every cell call of one search, laid end to end).
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
    pub calls: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Recorder {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            request,
            calls: 1,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Times `f` as a child of `parent`.
    pub fn time<T>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, Some(parent), self.spans[parent].request);
        let out = f();
        self.close(id);
        out
    }

    /// Adds a child that stands for `calls` intervals totalling `busy`.
    pub fn aggregate(&mut self, name: &'static str, parent: usize, busy: Duration, calls: u64) {
        let start_ns = self.spans[parent].start_ns;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + busy.as_nanos() as u64,
            parent: Some(parent),
            request: self.spans[parent].request,
            calls,
        });
    }

    /// A span's duration minus the part its children cover.
    pub fn self_ns(&self, id: usize) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::duration_ns)
            .sum();
        self.spans[id].duration_ns().saturating_sub(children)
    }

    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
                 \"request\":{},\"calls\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request, s.calls
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push(']');
        out
    }
}

/// Per-request series, by metric name.
#[derive(Default)]
struct Series(BTreeMap<&'static str, Vec<f64>>);

impl Series {
    fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    /// Median over the requests that produced the value; 0 when none did (a
    /// workload with no contraction request has no `core.contract_ms`).
    fn median(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| median(v))
    }

    fn total(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| v.iter().sum())
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// What the library pass found for one request.
struct LibraryRun {
    outcome: AcqOutcome,
    /// parse + bind + space + prepare + (search | contract), in ns.
    total_ns: u64,
}

/// Runs one request's SQL through the library the way the server does,
/// timing each layer boundary under `parent`.
fn library_pass(
    rec: &mut Recorder,
    series: &mut Series,
    parent: usize,
    catalog: &Catalog,
    sql: &str,
) -> Result<LibraryRun, String> {
    let dur = |rec: &Recorder| rec.spans.last().map_or(0, Span::duration_ns);
    let cfg = repo_api::served_config(1);

    let ast = rec.time("sql.parse", parent, || repo_api::parse_sql(sql))?;
    let parse_ns = dur(rec);
    let mut query = rec.time("sql.bind", parent, || repo_api::bind(catalog, &ast))?;
    let bind_ns = dur(rec);
    series.push("sql.parse_us", parse_ns as f64 / 1e3);
    series.push("sql.bind_us", bind_ns as f64 / 1e3);

    let mut exec = Executor::new(catalog.clone());
    if repo_api::is_contraction(&query) {
        let outcome = rec.time("core.contract", parent, || {
            repo_api::contract(&mut exec, &query, &cfg)
        })?;
        let contract_ns = dur(rec);
        series.push("core.contract_ms", ms(contract_ns));
        return Ok(LibraryRun {
            outcome,
            total_ns: parse_ns + bind_ns + contract_ns,
        });
    }

    let caps = rec.time("core.space", parent, || {
        repo_api::space_caps(&exec, &mut query, &cfg)
    })?;
    let space_ns = dur(rec);
    let mut eval = rec.time("core.prepare", parent, || {
        repo_api::prepare(&mut exec, &query, &caps)
    })?;
    let prepare_ns = dur(rec);
    let outcome = rec.time("core.search", parent, || {
        repo_api::search(&mut eval, &query, &cfg)
    })?;
    let search_ns = dur(rec);
    series.push("core.space_us", space_ns as f64 / 1e3);
    series.push("core.prepare_ms", ms(prepare_ns));
    series.push("core.search_ms", ms(search_ns));

    // Four more searches over the same prepared layer, all with warm caches
    // so they compare with each other: as it was, behind the timing
    // decorator, with the server's observability attached, on two threads.
    rec.time("core.search.warm", parent, || {
        repo_api::search(&mut eval, &query, &cfg)
    })?;
    let warm_ns = dur(rec);

    let timed_id = rec.open("core.search.timed", Some(parent), rec.spans[parent].request);
    let mut timed = TimedLayer::new(&mut eval);
    repo_api::search(&mut timed, &query, &cfg)?;
    rec.close(timed_id);
    let (busy, calls) = timed.totals();
    rec.aggregate("engine.cell", timed_id, busy, calls);
    series.push("engine.cell_ms", busy.as_secs_f64() * 1e3);
    series.push("engine.cell_calls", calls as f64);
    series.push("core.search_self_ms", ms(rec.self_ns(timed_id)));
    series.push("trace.warm_search_ms", ms(warm_ns));
    series.push(
        "trace.timed_search_ms",
        ms(rec.spans[timed_id].duration_ns()),
    );

    rec.time("core.search.observed", parent, || {
        repo_api::search_observed(&mut eval, &query, &cfg)
    })?;
    series.push("obs.handle_cost_ms", ms(dur(rec)) - ms(warm_ns));
    let two = repo_api::served_config(2);
    rec.time("core.search.threads2", parent, || {
        repo_api::search(&mut eval, &query, &two)
    })?;
    series.push(
        "core.pool.speedup_t2",
        warm_ns as f64 / dur(rec).max(1) as f64,
    );

    // The first half of prepare on its own, on a fresh executor.
    drop(eval);
    let mut fresh = Executor::new(catalog.clone());
    rec.time("engine.base_relation", parent, || {
        repo_api::base_relation(&mut fresh, &query, &caps)
    })?;
    series.push("engine.base_relation_ms", ms(dur(rec)));

    Ok(LibraryRun {
        outcome,
        total_ns: parse_ns + bind_ns + space_ns + prepare_ns + search_ns,
    })
}

/// The library run (one thread) must agree with what the server answered.
fn agrees(served: &Answer, library: &AcqOutcome) -> Result<(), String> {
    if !library.satisfied {
        return Err("library run is not satisfied".to_string());
    }
    // The server returns at most its default `top` of 5 refinements.
    if served.answers != library.queries.len().min(5) {
        return Err(format!(
            "served {} answers, library {}",
            served.answers,
            library.queries.len()
        ));
    }
    let best = library.best().ok_or("library run has no best refinement")?;
    if best.aggregate != served.best_aggregate || best.qscore != served.best_qscore {
        return Err(format!(
            "served best ({}, {}), library ({}, {})",
            served.best_aggregate, served.best_qscore, best.aggregate, best.qscore
        ));
    }
    for (name, value) in repo_api::stat_fields(&library.stats) {
        if served.stats.get(name).copied() != Some(value as f64) {
            return Err(format!(
                "stat {name}: served {:?}, library {value}",
                served.stats.get(name)
            ));
        }
    }
    Ok(())
}

/// One traced pass: every `PER_LAYER` metric.
pub fn run(w: Workload, seed: u64, dir: &Path, out: &Path) -> Result<Measured, String> {
    let mut setup = round::set_up(w, seed, &dir.join("setup-trace"))?;
    let mut rec = Recorder::new();
    let mut series = Series::default();
    let mut failed = 0u64;

    for i in 0..TRACED_REQUESTS {
        let req = w.request(seed, 0, i);
        let root = rec.open("request", None, i);

        // A closed-loop client sends each request the moment the previous
        // reply is in, and the kernel treats a socket in that rhythm
        // differently from one that has been idle (delayed ACKs against the
        // server's two-write response). An unrecorded request first puts
        // the connection into that rhythm; the two timed ones follow.
        let client = &mut setup.clients[0];
        let primed = client.get("/healthz");
        let health_id = rec.open("serve.healthz_rtt", Some(root), i);
        let health = client.get("/healthz").and(primed);
        rec.close(health_id);
        let rtt_id = rec.open("serve.rtt", Some(root), i);
        let reply = client.post(req.path(), &req.body());
        rec.close(rtt_id);
        setup.sent += 1;

        let lib_id = rec.open("library", Some(root), i);
        let library = library_pass(&mut rec, &mut series, lib_id, &setup.catalog, &req.sql);
        rec.close(lib_id);
        rec.close(root);

        let checked = reply
            .map_err(|e| format!("i/o: {e}"))
            .and_then(|r| Ok((round::check_reply(r.status, &r.body)?, r)))
            .and_then(|(answer, r)| {
                let library = library?;
                agrees(&answer, &library.outcome)?;
                if !health.is_ok_and(|h| h.status == 200) {
                    return Err("/healthz failed".to_string());
                }
                Ok((answer, r, library))
            });
        let (answer, reply, library) = match checked {
            Ok(ok) => ok,
            Err(why) => {
                eprintln!("{} traced request {i}: {why}", w.name());
                failed += 1;
                continue;
            }
        };

        let rtt_ns = rec.spans[rtt_id].duration_ns();
        series.push("serve.rtt_ms", ms(rtt_ns));
        series.push(
            "serve.healthz_rtt_ms",
            ms(rec.spans[health_id].duration_ns()),
        );
        series.push("serve.server_duration_ms", answer.duration_ms);
        series.push("serve.response_bytes", reply.body.len() as f64);
        series.push("serve.overhead_ms", ms(rtt_ns) - ms(library.total_ns));
        series.push("trace.library_ms", ms(library.total_ns));
        let o = &library.outcome;
        series.push("core.explored_cells", o.explored as f64);
        series.push("core.layers", o.layers as f64);
        series.push("core.answers", o.queries.len() as f64);
        series.push("core.peak_store", o.peak_store as f64);
        for (name, value) in repo_api::stat_fields(&o.stats) {
            if let Some((_, metric)) = ENGINE_COUNTS.iter().find(|(field, _)| *field == name) {
                series.push(metric, value as f64);
            }
        }
    }

    // Counters the server keeps, read after a closed-loop burst of fixed size.
    // The other clients' connections sat idle through the traced requests,
    // longer than the server keeps an idle session open.
    for idle in setup.clients.iter_mut().skip(1) {
        idle.disconnect();
    }
    let logs = round::drive_all(&mut setup.clients, w, seed, Stop::After(BURST_REQUESTS));
    let burst: u64 = logs.iter().map(|l| l.attempted).sum();
    failed += logs.iter().map(|l| l.failed).sum::<u64>();
    failed += round::verify(w, &setup.catalog, &logs);
    setup.sent += burst;
    let metrics = round::scrape_metrics(&setup.server)?;
    failed += round::journal_misses(&metrics, setup.sent);
    let counter = |name: &str| round::scrape(&metrics, name).unwrap_or(0.0);
    let journal_bytes = std::fs::metadata(&setup.journal).map_or(0, |m| m.len());

    std::fs::write(out, rec.to_json()).map_err(|e| format!("{}: {e}", out.display()))?;

    let blocks = [
        "engine.zones_pruned",
        "engine.zones_full",
        "engine.zones_scanned",
    ]
    .map(|n| series.total(n));
    let ratio = |part: f64, whole: f64| if whole > 0.0 { part / whole } else { 0.0 };
    let warm = series.median("trace.warm_search_ms");
    let library = series.median("trace.library_ms");
    // Every per-request series is reported as its median; the derived
    // ratios and the server's own counters are filled in below.
    let mut m: BTreeMap<&'static str, f64> = PER_LAYER
        .iter()
        .map(|&(name, _)| (name, series.median(name)))
        .collect();
    m.insert(
        "engine.zone_skip_ratio",
        ratio(blocks[0], blocks.iter().sum()),
    );
    m.insert(
        "engine.full_fold_ratio",
        ratio(blocks[1], blocks[1] + blocks[2]),
    );
    m.insert("serve.admission.shed", counter(repo_api::METRIC_SHED));
    m.insert("serve.admission.queued", counter(repo_api::METRIC_QUEUED));
    m.insert(
        "serve.admission.degraded",
        counter(repo_api::METRIC_DEGRADED),
    );
    m.insert(
        "serve.keepalive_reuses",
        counter(repo_api::METRIC_KEEPALIVE_REUSES),
    );
    let written = counter(repo_api::METRIC_JOURNAL_WRITTEN);
    m.insert(
        "obs.journal.records_per_request",
        ratio(written, setup.sent as f64),
    );
    m.insert(
        "obs.journal.dropped",
        counter(repo_api::METRIC_JOURNAL_DROPPED),
    );
    m.insert(
        "obs.journal.bytes_per_request",
        ratio(journal_bytes as f64, written),
    );
    m.insert("datagen.generate_s", setup.generate.as_secs_f64());
    m.insert(
        "trace.overhead_pct",
        100.0 * ratio(series.median("trace.timed_search_ms") - warm, warm),
    );
    let gap_ms = (library - series.median("serve.server_duration_ms")).abs();
    m.insert("trace.closure_gap_pct", 100.0 * ratio(gap_ms, library));
    // Reported, not failed: the server searches on a thread that has just
    // woken and the library pass runs hot, so on a noisy machine the gap
    // says as much about the machine as about the split (see the README).
    if gap_ms > CLOSURE_GAP_SHARE * library + CLOSURE_GAP_SLACK_MS {
        eprintln!(
            "{}: the library's {library:.2} ms and the server's own duration differ by \
             {gap_ms:.2} ms, more than {:.0} % + {CLOSURE_GAP_SLACK_MS} ms: read the \
             per-layer times of this pass as shares, not as the server's milliseconds",
            w.name(),
            100.0 * CLOSURE_GAP_SHARE
        );
    }
    Ok(Measured {
        attempted: TRACED_REQUESTS + burst,
        failed,
        metrics: m,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request: 0,
            calls: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut rec = Recorder::new();
        rec.spans = vec![
            span("request", 0, 100, None),
            span("serve.rtt", 0, 40, Some(0)),
            span("library", 40, 95, Some(0)),
            span("core.search", 50, 90, Some(2)),
            span("engine.cell", 50, 75, Some(3)),
        ];
        assert_eq!(rec.self_ns(0), 100 - 40 - 55);
        assert_eq!(rec.self_ns(1), 40);
        assert_eq!(rec.self_ns(2), 55 - 40);
        assert_eq!(rec.self_ns(3), 40 - 25);
        assert_eq!(rec.self_ns(4), 25);
    }

    #[test]
    fn aggregated_child_carries_its_call_count_and_parent_request() {
        let mut rec = Recorder::new();
        rec.spans = vec![Span {
            request: 7,
            ..span("core.search.timed", 1_000, 9_000, None)
        }];
        rec.aggregate("engine.cell", 0, Duration::from_nanos(6_000), 12);
        assert_eq!(rec.spans[1].calls, 12);
        assert_eq!(rec.spans[1].request, 7);
        assert_eq!(rec.self_ns(0), 2_000);
        assert!(rec.to_json().contains("\"name\":\"engine.cell\""));
    }
}
