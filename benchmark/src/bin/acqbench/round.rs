//! One end-to-end round: set-up, a closed-loop measured window over real
//! loopback sockets, then the correctness checks outside the window.

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::client::Client;
use crate::repo_api::{self, Catalog, JsonValue, Server};
use crate::report::Measured;
use crate::stats::{median, percentile};
use crate::workloads::{Draws, Workload};

/// Set-ups per round, so that one slow start does not decide `setup_s`: it
/// is their median. The first one serves the window.
const SETUPS: usize = 3;
/// Warm-up requests per client before a set-up counts as done.
const WARMUP_REQUESTS: u64 = 10;
/// Warm-up draws its requests from far beyond any measured position.
const WARMUP_BASE: u64 = 1 << 40;
/// Responses per round whose best refinement the oracle re-aggregates.
const ORACLE_SAMPLES: usize = 32;
/// Reconnect this far below the server's per-connection request cap.
const RECONNECT_MARGIN: usize = 100;

/// A served workload: the tables, the server over them, its journal, and
/// one warmed-up connection per client.
pub struct Setup {
    pub catalog: Catalog,
    pub server: Server,
    pub clients: Vec<Client>,
    pub journal: PathBuf,
    /// Time in the generator calls.
    pub generate: Duration,
    /// Tables generated → server started → `/readyz` 200 → warm-up done.
    pub total: Duration,
    /// `POST /query` requests the server has been sent so far.
    pub sent: u64,
}

pub fn reconnect_after() -> usize {
    repo_api::max_requests_per_conn().saturating_sub(RECONNECT_MARGIN)
}

/// Generates the tables, starts the server with its journal under `dir`, and
/// warms every client's path up.
pub fn set_up(w: Workload, seed: u64, dir: &Path) -> Result<Setup, String> {
    let start = Instant::now();
    let catalog = w.catalog(seed)?;
    let generate = start.elapsed();
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let journal = dir.join("q.journal");
    let server = repo_api::start_server(catalog.clone(), &journal)?;
    // Each client warms up on the connection it will keep: the window then
    // runs on sessions (and server worker threads) that already exist.
    let mut clients: Vec<Client> = (0..w.clients())
        .map(|_| Client::new(server.addr(), reconnect_after()))
        .collect();
    let ready = clients[0]
        .get("/readyz")
        .map_err(|e| format!("/readyz: {e}"))?;
    if ready.status != 200 {
        return Err(format!("/readyz answered {}", ready.status));
    }
    let mut sent = 0;
    for (c, client) in clients.iter_mut().enumerate() {
        for j in 0..WARMUP_REQUESTS {
            let req = w.request(seed, c as u64, WARMUP_BASE + j);
            let reply = client
                .post(req.path(), &req.body())
                .map_err(|e| format!("warm-up: {e}"))?;
            sent += 1;
            check_reply(reply.status, &reply.body).map_err(|e| format!("warm-up: {e}"))?;
        }
    }
    Ok(Setup {
        catalog,
        server,
        clients,
        journal,
        generate,
        total: start.elapsed(),
        sent,
    })
}

/// The fields of a `POST /query` answer the checks need.
pub struct Answer {
    pub outcome_key: String,
    pub answers: usize,
    pub best_sql: String,
    pub best_aggregate: f64,
    pub best_qscore: f64,
    pub duration_ms: f64,
    pub stats: HashMap<String, f64>,
}

/// Every response must be 200, parse as JSON, be satisfied, and carry a best
/// refinement whose error is within the served δ.
pub fn check_reply(status: u16, body: &str) -> Result<Answer, String> {
    if status != 200 {
        return Err(format!("status {status}: {body}"));
    }
    let v = repo_api::json_parse(body)?;
    if v.get("satisfied").and_then(JsonValue::as_bool) != Some(true) {
        return Err(format!("not satisfied: {body}"));
    }
    let queries = v
        .get("queries")
        .and_then(JsonValue::as_arr)
        .ok_or("no queries array")?;
    let best = queries.first().ok_or("satisfied with no refinement")?;
    let num = |v: &JsonValue, key: &str| {
        v.get(key)
            .and_then(JsonValue::as_f64)
            .ok_or(format!("no numeric {key}"))
    };
    let error = num(best, "error")?;
    let delta = repo_api::served_config(1).delta;
    if error > delta {
        return Err(format!("best error {error} exceeds delta {delta}"));
    }
    let text = |v: &JsonValue, key: &str| {
        v.get(key)
            .and_then(JsonValue::as_str)
            .map(str::to_string)
            .ok_or(format!("no string {key}"))
    };
    let stats = v
        .get("stats")
        .and_then(JsonValue::as_obj)
        .map(|o| {
            o.iter()
                .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                .collect()
        })
        .unwrap_or_default();
    Ok(Answer {
        outcome_key: text(&v, "outcome_key")?,
        answers: queries.len(),
        best_sql: text(best, "sql")?,
        best_aggregate: num(best, "aggregate")?,
        best_qscore: num(best, "qscore")?,
        duration_ms: num(&v, "duration_ms")?,
        stats,
    })
}

/// When a client stops sending.
#[derive(Clone, Copy)]
pub enum Stop {
    At(Instant),
    After(u64),
}

/// What one client saw.
#[derive(Default)]
pub struct ClientLog {
    pub latencies_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// A seeded reservoir of answers for the oracle: (best SQL, aggregate).
    samples: Vec<(String, f64)>,
    /// (recurrence key, outcome_key) of every request that recurs.
    keys: Vec<(u64, String)>,
}

/// One closed-loop client: the next request goes out only when the previous
/// reply has been read in full.
pub fn drive(
    client: &mut Client,
    w: Workload,
    seed: u64,
    client_id: u64,
    keep: usize,
    stop: Stop,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut pick = Draws::new(seed, 0x0AC1E, client_id, 0);
    let mut i = 0u64;
    loop {
        match stop {
            Stop::At(deadline) if Instant::now() >= deadline => break,
            Stop::After(n) if i >= n => break,
            _ => {}
        }
        let req = w.request(seed, client_id, i);
        i += 1;
        log.attempted += 1;
        let checked = client
            .post(req.path(), &req.body())
            .map_err(|e| format!("i/o: {e}"))
            .and_then(|reply| {
                log.latencies_ms.push(reply.rtt.as_secs_f64() * 1e3);
                check_reply(reply.status, &reply.body)
            });
        match checked {
            Ok(answer) => {
                if let Some(key) = req.recurs {
                    log.keys.push((key, answer.outcome_key));
                }
                // Reservoir sampling: each answer is kept with equal odds.
                let sample = (answer.best_sql, answer.best_aggregate);
                if log.samples.len() < keep {
                    log.samples.push(sample);
                } else {
                    let slot = (pick.next() % log.attempted) as usize;
                    if slot < keep {
                        log.samples[slot] = sample;
                    }
                }
            }
            Err(why) => {
                if log.failed < 3 {
                    eprintln!("{} client {client_id} request {}: {why}", w.name(), i - 1);
                }
                log.failed += 1;
            }
        }
    }
    log
}

/// Runs every client of the workload at once, one thread each.
pub fn drive_all(clients: &mut [Client], w: Workload, seed: u64, stop: Stop) -> Vec<ClientLog> {
    let keep = ORACLE_SAMPLES / clients.len().max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| s.spawn(move || drive(client, w, seed, c as u64, keep, stop)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// The checks that run after the window. Returns the number of misses.
pub fn verify(w: Workload, catalog: &Catalog, logs: &[ClientLog]) -> u64 {
    let mut misses = 0;
    let mut complain = |what: String| {
        if misses < 3 {
            eprintln!("{}: {what}", w.name());
        }
        misses += 1;
    };
    // Oracle: the best refinement, recompiled and aggregated by a full scan,
    // must give the reported aggregate and meet the constraint within δ.
    let delta = repo_api::served_config(1).delta;
    for (sql, reported) in logs.iter().flat_map(|l| &l.samples) {
        match repo_api::full_scan(catalog, sql) {
            Ok((value, error)) => {
                let tolerance = 1e-9 * value.abs().max(reported.abs());
                if (value - reported).abs() > tolerance {
                    complain(format!("oracle {value} != reported {reported}: {sql}"));
                } else if error > delta {
                    complain(format!("oracle error {error} > delta {delta}: {sql}"));
                }
            }
            Err(e) => complain(format!("oracle cannot run {sql}: {e}")),
        }
    }
    // Determinism: a request that recurs must get the same answer each time.
    let mut seen: HashMap<u64, &str> = HashMap::new();
    for (key, outcome) in logs.iter().flat_map(|l| &l.keys) {
        let first = *seen.entry(*key).or_insert(outcome);
        if first != outcome {
            complain(format!("target {key}: outcome_key {outcome} after {first}"));
        }
    }
    misses
}

/// A counter's value in a Prometheus text document.
pub fn scrape(metrics: &str, name: &str) -> Option<f64> {
    metrics.lines().find_map(|line| {
        let (series, value) = line.split_once(' ')?;
        (series == name).then(|| value.trim().parse().ok())?
    })
}

/// Flushes the journal and reads back the counters the server exports.
pub fn scrape_metrics(server: &Server) -> Result<String, String> {
    if !repo_api::flush_journal(server) {
        return Err("journal did not drain".to_string());
    }
    let reply = Client::new(server.addr(), 1)
        .get("/metrics")
        .map_err(|e| format!("/metrics: {e}"))?;
    if reply.status != 200 {
        return Err(format!("/metrics answered {}", reply.status));
    }
    Ok(reply.body)
}

/// The journal must hold exactly one record per request sent, none dropped.
/// Returns the number of records missing, surplus or dropped.
pub fn journal_misses(metrics: &str, sent: u64) -> u64 {
    let written = scrape(metrics, repo_api::METRIC_JOURNAL_WRITTEN).unwrap_or(0.0) as u64;
    let dropped = scrape(metrics, repo_api::METRIC_JOURNAL_DROPPED).unwrap_or(0.0) as u64;
    if written != sent || dropped != 0 {
        eprintln!("journal: {written} written, {dropped} dropped, {sent} requests sent");
    }
    written.abs_diff(sent) + dropped
}

/// Peak resident set of this process, from `VmHWM`.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// One end-to-end round: every `END_TO_END` metric.
pub fn run(w: Workload, seed: u64, seconds: u64, dir: &Path) -> Result<Measured, String> {
    let mut setup = set_up(w, seed, &dir.join("setup-0"))?;
    let start = Instant::now();
    let stop = Stop::At(start + Duration::from_secs(seconds));
    let logs = drive_all(&mut setup.clients, w, seed, stop);
    let elapsed = start.elapsed().as_secs_f64();
    let peak_rss_mb = peak_rss_mb()?;

    let attempted: u64 = logs.iter().map(|l| l.attempted).sum();
    let mut failed: u64 = logs.iter().map(|l| l.failed).sum();
    let io_clean = logs
        .iter()
        .all(|l| l.latencies_ms.len() as u64 == l.attempted);
    failed += verify(w, &setup.catalog, &logs);
    let metrics = scrape_metrics(&setup.server)?;
    if io_clean {
        failed += journal_misses(&metrics, setup.sent + attempted);
    }

    // The other set-ups come after the window, one at a time, so that
    // `peak_rss_mb` above is the footprint of one set of tables and one
    // server, not of three.
    let mut setups = vec![setup.total.as_secs_f64()];
    drop(setup);
    for k in 1..SETUPS {
        setups.push(
            set_up(w, seed, &dir.join(format!("setup-{k}")))?
                .total
                .as_secs_f64(),
        );
    }

    let mut latencies: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.latencies_ms.iter().copied())
        .collect();
    if latencies.is_empty() {
        return Err("no request was answered".to_string());
    }
    latencies.sort_by(f64::total_cmp);
    eprintln!(
        "{}: {} latency samples over {seconds} s",
        w.name(),
        latencies.len()
    );
    let answered_right = attempted.saturating_sub(failed) as f64;
    Ok(Measured {
        attempted,
        failed,
        metrics: BTreeMap::from([
            ("throughput_qps", answered_right / elapsed),
            ("latency_p50_ms", percentile(&latencies, 50.0)),
            ("latency_p90_ms", percentile(&latencies, 90.0)),
            ("peak_rss_mb", peak_rss_mb),
            ("setup_s", median(&setups)),
        ]),
    })
}
