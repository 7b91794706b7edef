//! `acq` — run Aggregation Constrained Queries from the command line.
//!
//! ```text
//! acq --table users=examples/data/users.csv \
//!     [--gamma 10] [--delta 0.05] [--layer grid|cached|scan] [--top 5] \
//!     [--norm l1|l2|linf] [--stats] \
//!     "SELECT * FROM users CONSTRAINT COUNT(*) = 10K WHERE age <= 30"
//!
//! acq --demo users "SELECT * FROM users CONSTRAINT COUNT(*) = 5K WHERE income <= 60000"
//!
//! acq serve --demo users --addr 127.0.0.1:7171
//! ```
//!
//! Loads CSV files into the engine catalog (`--table name=path`, repeatable;
//! column types are inferred), compiles the ACQ statement, and runs ACQUIRE
//! — expansion for `=`/`>=`/`>` constraints, the §7.2 contraction for
//! `<=`/`<` — printing the recommended refined queries.

use std::process::ExitCode;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use acquire::core::{
    run_acquire_progress, run_contraction, AcqOutcome, AcquireConfig, CancellationToken,
    EvalLayerKind, ExecutionBudget, ExplainProfile, FaultPolicy, Obs, ProgressSink, Termination,
    DEFAULT_PROGRESS_CAPACITY,
};
use acquire::datagen::{patients, tpch, users, GenConfig};
use acquire::engine::{csv, Catalog, Executor};
use acquire::obs::snapshot::{json_escape, json_num};
use acquire::query::{CmpOp, Norm};
use acquire::sql::compile;

struct Opts {
    tables: Vec<(String, String)>,
    demos: Vec<String>,
    sql: Option<String>,
    gamma: f64,
    delta: f64,
    layer: EvalLayerKind,
    norm: Norm,
    top: usize,
    demo_rows: usize,
    show_stats: bool,
    json: bool,
    threads: usize,
    explain: bool,
    timeout: Option<Duration>,
    max_memory: Option<usize>,
    max_explored: Option<u64>,
    best_effort: bool,
    trace: bool,
    trace_out: Option<String>,
    trace_chrome: bool,
    progress: bool,
    metrics_out: Option<String>,
}

impl Default for Opts {
    fn default() -> Self {
        Self {
            tables: Vec::new(),
            demos: Vec::new(),
            sql: None,
            gamma: 10.0,
            delta: 0.05,
            layer: EvalLayerKind::GridIndex,
            norm: Norm::L1,
            top: 5,
            demo_rows: 50_000,
            show_stats: false,
            json: false,
            threads: 1,
            explain: false,
            timeout: None,
            max_memory: None,
            max_explored: None,
            best_effort: false,
            trace: false,
            trace_out: None,
            trace_chrome: false,
            progress: false,
            metrics_out: None,
        }
    }
}

const USAGE: &str = "usage: acq [OPTIONS] \"<ACQ SQL>\"
       acq serve [OPTIONS]            (long-running service; see acq serve --help)
       acq journal <COMMAND> [ARGS]   (inspect a --journal file; see acq journal --help)

options:
  --table NAME=PATH   load a CSV file as table NAME (repeatable)
  --demo NAME         generate a demo table: users | patients | tpch (repeatable)
  --demo-rows N       demo table size (default 50000)
  --gamma G           refinement threshold (default 10)
  --delta D           aggregate error threshold (default 0.05)
  --layer KIND        evaluation layer: grid | cached | scan (default grid)
  --norm NORM         l1 | l2 | linf (default l1)
  --top N             number of refined queries to print (default 5)
  --json              print the outcome as JSON instead of text
  --threads N         worker threads for scoring and the parallel Explore
                      phase (default 1; results are bit-identical for any
                      value)
  --explain           print the base-relation materialisation plan and an
                      EXPLAIN-style search profile (grid dims, layers,
                      Eq. 17 reuse accounting, phase latency split); with
                      --json, adds a \"profile\" key to the output
  --stats             print evaluation-layer work counters
  --timeout SECS      wall-clock deadline for the search (fractional ok);
                      on expiry the closest-so-far answer is returned
  --max-memory BYTES  cap retained sub-aggregate memory (suffixes K/M/G)
  --max-explored N    cap the number of grid queries explored
  --best-effort       absorb mid-search evaluation faults into an
                      interrupted outcome instead of failing
  --trace             print a human-readable phase-span trace of the search
                      to stderr
  --trace-out PATH    write the trace to PATH instead
  --trace-format FMT  text | chrome; chrome emits Chrome trace-event JSON
                      loadable in ui.perfetto.dev, and implies --trace when
                      no trace sink is set
  --progress          stream refinement progress to stderr while the search
                      runs: one NDJSON event per layer boundary
  --metrics-out PATH  write a JSON metrics snapshot (counters, gauges,
                      latency histograms, worker utilisation) to PATH
  --help              this message

The SQL dialect is the paper's: SELECT * FROM t [, t2 ...]
CONSTRAINT AGG(attr) OP X WHERE pred [NOREFINE] AND ...";

/// Parses a byte count with an optional K/M/G suffix (powers of 1024).
fn parse_bytes(s: &str) -> Result<usize, String> {
    let (digits, shift) = match s.trim().to_ascii_uppercase() {
        t if t.ends_with('K') => (t[..t.len() - 1].to_string(), 10),
        t if t.ends_with('M') => (t[..t.len() - 1].to_string(), 20),
        t if t.ends_with('G') => (t[..t.len() - 1].to_string(), 30),
        t => (t, 0),
    };
    let n: usize = digits
        .parse()
        .map_err(|e| format!("--max-memory: {e} (expected BYTES with optional K/M/G)"))?;
    n.checked_mul(1usize << shift)
        .ok_or_else(|| format!("--max-memory: {s} overflows"))
}

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts::default();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut need = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match a.as_str() {
            "--help" | "-h" => return Err(USAGE.to_string()),
            "--table" => {
                let spec = need("--table")?;
                let (name, path) = spec
                    .split_once('=')
                    .ok_or_else(|| format!("--table expects NAME=PATH, got {spec}"))?;
                opts.tables.push((name.to_string(), path.to_string()));
            }
            "--demo" => opts.demos.push(need("--demo")?),
            "--demo-rows" => {
                opts.demo_rows = need("--demo-rows")?
                    .parse()
                    .map_err(|e| format!("--demo-rows: {e}"))?;
            }
            "--gamma" => {
                opts.gamma = need("--gamma")?
                    .parse()
                    .map_err(|e| format!("--gamma: {e}"))?;
            }
            "--delta" => {
                opts.delta = need("--delta")?
                    .parse()
                    .map_err(|e| format!("--delta: {e}"))?;
            }
            "--layer" => {
                opts.layer = match need("--layer")?.as_str() {
                    "grid" => EvalLayerKind::GridIndex,
                    "cached" => EvalLayerKind::CachedScore,
                    "scan" => EvalLayerKind::Scan,
                    other => return Err(format!("unknown layer {other}")),
                };
            }
            "--norm" => {
                opts.norm = match need("--norm")?.to_ascii_lowercase().as_str() {
                    "l1" => Norm::L1,
                    "l2" => Norm::Lp(2.0),
                    "linf" | "loo" => Norm::LInf,
                    other => return Err(format!("unknown norm {other}")),
                };
            }
            "--top" => {
                opts.top = need("--top")?.parse().map_err(|e| format!("--top: {e}"))?;
            }
            "--stats" => opts.show_stats = true,
            "--json" => opts.json = true,
            "--explain" => opts.explain = true,
            "--best-effort" => opts.best_effort = true,
            "--trace" => opts.trace = true,
            "--trace-out" => opts.trace_out = Some(need("--trace-out")?),
            "--trace-format" => {
                opts.trace_chrome = match need("--trace-format")?.as_str() {
                    "text" => false,
                    "chrome" => true,
                    other => return Err(format!("unknown trace format {other} (text|chrome)")),
                };
            }
            "--progress" => opts.progress = true,
            "--metrics-out" => opts.metrics_out = Some(need("--metrics-out")?),
            "--timeout" => {
                let secs: f64 = need("--timeout")?
                    .parse()
                    .map_err(|e| format!("--timeout: {e}"))?;
                // Rejects negative, NaN, infinite and unrepresentably large.
                let timeout = Duration::try_from_secs_f64(secs)
                    .map_err(|_| format!("--timeout: expected non-negative seconds, got {secs}"))?;
                opts.timeout = Some(timeout);
            }
            "--max-memory" => {
                opts.max_memory = Some(parse_bytes(&need("--max-memory")?)?);
            }
            "--max-explored" => {
                opts.max_explored = Some(
                    need("--max-explored")?
                        .parse()
                        .map_err(|e| format!("--max-explored: {e}"))?,
                );
            }
            "--threads" => {
                opts.threads = need("--threads")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?;
            }
            other if opts.sql.is_none() && !other.starts_with("--") => {
                opts.sql = Some(other.to_string());
            }
            other => return Err(format!("unexpected argument {other}\n\n{USAGE}")),
        }
    }
    if opts.sql.is_none() {
        return Err(USAGE.to_string());
    }
    Ok(opts)
}

fn build_catalog(opts: &Opts) -> Result<Catalog, String> {
    let mut catalog = Catalog::new();
    for (name, path) in &opts.tables {
        let table = csv::read_csv(name, path).map_err(|e| e.to_string())?;
        eprintln!(
            "loaded {name}: {} rows, schema {}",
            table.num_rows(),
            table.schema()
        );
        catalog.register(table).map_err(|e| e.to_string())?;
    }
    for demo in &opts.demos {
        let cfg = GenConfig::uniform(opts.demo_rows);
        match demo.as_str() {
            "users" => {
                catalog
                    .register(users::users(&cfg).map_err(|e| e.to_string())?)
                    .map_err(|e| e.to_string())?;
            }
            "patients" => {
                catalog
                    .register(patients::patients(&cfg).map_err(|e| e.to_string())?)
                    .map_err(|e| e.to_string())?;
            }
            "tpch" => {
                let tp = tpch::generate(&cfg).map_err(|e| e.to_string())?;
                for name in tp.table_names() {
                    catalog
                        .register((*tp.table(name).map_err(|e| e.to_string())?).clone())
                        .map_err(|e| e.to_string())?;
                }
            }
            other => {
                return Err(format!(
                    "unknown demo dataset {other} (users|patients|tpch)"
                ))
            }
        }
        eprintln!("generated demo dataset: {demo} ({} rows)", opts.demo_rows);
    }
    if catalog.is_empty() {
        return Err("no tables: pass --table NAME=PATH or --demo NAME".to_string());
    }
    Ok(catalog)
}

fn termination_json(t: &Termination) -> String {
    match t {
        Termination::Interrupted {
            reason,
            explored,
            elapsed,
        } => format!(
            "{{\"status\":\"interrupted\",\"reason\":\"{}\",\"detail\":\"{}\",\"explored\":{},\"elapsed_ms\":{}}}",
            reason.slug(),
            json_escape(&reason.to_string()),
            explored,
            elapsed.as_millis()
        ),
        // `slug()` is the stable machine-readable vocabulary shared with the
        // serve registry; human `Display` text may change, slugs may not.
        complete => format!("{{\"status\":\"{}\"}}", complete.slug()),
    }
}

fn print_outcome_json(
    outcome: &AcqOutcome,
    opts: &Opts,
    original: &acquire::query::AcqQuery,
    obs: &Obs,
    profile: Option<&ExplainProfile>,
) {
    let expanding = original.constraint.op.is_expanding();
    let result_json = |r: &acquire::core::RefinedQueryResult| {
        let pscores: Vec<String> = r.pscores.iter().map(|&p| json_num(p)).collect();
        let changes: Vec<String> = if expanding {
            r.explain(original)
                .iter()
                .map(|c| format!("\"{}\"", json_escape(c)))
                .collect()
        } else {
            Vec::new()
        };
        format!(
            "{{\"pscores\":[{}],\"qscore\":{},\"aggregate\":{},\"error\":{},\"sql\":\"{}\",\"changes\":[{}]}}",
            pscores.join(","),
            json_num(r.qscore),
            json_num(r.aggregate),
            json_num(r.error),
            json_escape(&r.sql),
            changes.join(",")
        )
    };
    let queries: Vec<String> = outcome
        .queries
        .iter()
        .take(opts.top)
        .map(&result_json)
        .collect();
    let closest = outcome
        .closest
        .as_ref()
        .map(&result_json)
        .unwrap_or_else(|| "null".to_string());
    // Every executor work counter, not a hand-picked subset: the field list
    // comes from the engine itself so the JSON never lags behind ExecStats.
    let stats: Vec<String> = outcome
        .stats
        .fields()
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    let metrics = obs
        .snapshot()
        .map(|s| s.to_json())
        .unwrap_or_else(|| "null".to_string());
    // The `profile` key appears only under --explain, mirroring the serve
    // endpoint's `?explain=1` opt-in.
    let profile = profile
        .map(|p| format!(",\"profile\":{}", p.to_json()))
        .unwrap_or_default();
    println!(
        "{{\"satisfied\":{},\"termination\":{},\"original_aggregate\":{},\"explored\":{},\"queries\":[{}],\"closest\":{},\"stats\":{{{}}},\"metrics\":{}{}}}",
        outcome.satisfied,
        termination_json(&outcome.termination),
        json_num(outcome.original_aggregate),
        outcome.explored,
        queries.join(","),
        closest,
        stats.join(","),
        metrics,
        profile
    );
}

fn print_outcome(
    outcome: &AcqOutcome,
    opts: &Opts,
    original: &acquire::query::AcqQuery,
    obs: &Obs,
    profile: Option<&ExplainProfile>,
) {
    if opts.json {
        print_outcome_json(outcome, opts, original, obs, profile);
        return;
    }
    if outcome.original_aggregate.is_finite() {
        println!("original aggregate: {}", outcome.original_aggregate);
    }
    if let Termination::Interrupted {
        reason, elapsed, ..
    } = &outcome.termination
    {
        println!(
            "search interrupted after {:.3}s ({reason}); results below are the best found so far",
            elapsed.as_secs_f64()
        );
    }
    if outcome.satisfied {
        println!(
            "constraint satisfied; {} alternative refinement(s), {} grid queries explored\n",
            outcome.queries.len(),
            outcome.explored
        );
        for (i, r) in outcome.queries.iter().take(opts.top).enumerate() {
            println!(
                "#{i}  aggregate {}  error {:.4}  refinement {:.2}",
                r.aggregate, r.error, r.qscore
            );
            println!("    {}\n", r.sql);
        }
    } else {
        println!("constraint NOT satisfiable within thresholds.");
        if let Some(c) = &outcome.closest {
            println!(
                "closest query reaches {} (error {:.4}, refinement {:.2}):\n    {}",
                c.aggregate, c.error, c.qscore, c.sql
            );
        }
    }
    if opts.show_stats {
        println!("work: {}", outcome.stats);
    }
}

fn run() -> Result<(), String> {
    let opts = parse_args()?;
    let catalog = build_catalog(&opts)?;
    let sql = opts.sql.as_deref().ok_or_else(|| USAGE.to_string())?;
    let query = compile(sql, &catalog).map_err(|e| e.to_string())?;
    let query_for_explain = query.clone();

    let mut budget = ExecutionBudget::unlimited();
    if let Some(timeout) = opts.timeout {
        budget = budget.with_deadline(timeout);
    }
    if let Some(bytes) = opts.max_memory {
        budget = budget.with_max_store_bytes(bytes);
    }
    if let Some(n) = opts.max_explored {
        budget = budget.with_max_explored(n);
    }
    let cfg = AcquireConfig {
        gamma: opts.gamma,
        delta: opts.delta,
        norm: opts.norm.clone(),
        budget,
        fault_policy: if opts.best_effort {
            FaultPolicy::BestEffort
        } else {
            FaultPolicy::Propagate
        },
        ..Default::default()
    }
    .with_threads(opts.threads);

    // Observability: tracing when a trace sink is requested, counters-only
    // when only metrics/JSON are, disabled otherwise (the zero-cost default).
    let tracing = opts.trace || opts.trace_out.is_some() || opts.trace_chrome;
    let obs = if tracing {
        Obs::with_trace(acquire::obs::DEFAULT_TRACE_CAPACITY)
    } else if opts.metrics_out.is_some() || opts.json || opts.explain {
        // --explain needs live counters for the profile's latency split and
        // at-most-once audit.
        Obs::enabled()
    } else {
        Obs::disabled()
    };

    let mut exec = Executor::new(catalog);

    // --progress: a polling printer drains the driver's wait-free sink to
    // stderr so stdout stays reserved for the answer. The `done` flag covers
    // runs that never reach a terminal event (contraction searches drive no
    // sink): the printer reads it *before* draining, guaranteeing one final
    // drain after the search ends.
    let progress = opts
        .progress
        .then(|| Arc::new(ProgressSink::new(DEFAULT_PROGRESS_CAPACITY)));
    let done = Arc::new(AtomicBool::new(false));
    let printer = progress.as_ref().map(|sink| {
        let sink = Arc::clone(sink);
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let mut cursor = 0u64;
            loop {
                let was_done = done.load(Ordering::Acquire);
                let (events, next, _missed) = sink.drain_from(cursor);
                cursor = next;
                let mut terminal = false;
                for e in &events {
                    eprintln!("{}", e.to_json());
                    terminal |= e.terminal;
                }
                if terminal || was_done {
                    break;
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        })
    });

    let search_started = Instant::now();
    let outcome = match query.constraint.op {
        CmpOp::Le | CmpOp::Lt => {
            if !opts.json {
                println!("(overshooting constraint: running the §7.2 contraction search)\n");
            }
            // The §7.2 contraction search is not phase-instrumented; its
            // executor work counters are still bridged below.
            run_contraction(&mut exec, &query, &cfg, opts.layer).map_err(|e| e.to_string())?
        }
        _ => {
            let expanded = run_acquire_progress(
                &mut exec,
                &query,
                &cfg,
                opts.layer,
                &CancellationToken::new(),
                &obs,
                progress.as_deref(),
            )
            .map_err(|e| e.to_string())?;
            // §7.2 also covers `=` constraints whose original query already
            // returns too much: expansion can only grow the aggregate, so
            // fall through to the contraction search.
            if !expanded.satisfied
                && query.constraint.op == CmpOp::Eq
                && expanded.original_aggregate > query.constraint.target
            {
                match run_contraction(&mut exec, &query, &cfg, opts.layer) {
                    Ok(contracted) => {
                        if !opts.json {
                            println!(
                                "(the original query already overshoots {} > {}: \
                                 ran the §7.2 contraction search)\n",
                                expanded.original_aggregate, query.constraint.target
                            );
                        }
                        contracted
                    }
                    // Nothing contractible (e.g. point predicates): the
                    // expansion outcome's closest query is still useful.
                    Err(_) => expanded,
                }
            } else {
                expanded
            }
        }
    };
    let search_duration = search_started.elapsed();
    done.store(true, Ordering::Release);
    if let Some(handle) = printer {
        let _ = handle.join();
    }
    if opts.explain && !opts.json {
        println!("base-relation plan:");
        for line in exec.last_plan() {
            println!("  - {line}");
        }
        println!();
    }
    // (Re-)bridge the final executor stats: the contraction and Eq-overshoot
    // paths run outside `acquire_progress`, and replacement is idempotent
    // for the plain expansion path.
    obs.record_exec_stats(&outcome.stats.fields());
    let profile = opts.explain.then(|| {
        ExplainProfile::new(
            &query_for_explain,
            &cfg,
            &outcome,
            obs.snapshot().as_ref(),
            search_duration,
        )
    });
    if opts.explain && !opts.json {
        println!("{}", profile.as_ref().expect("built above").render_text());
    }
    let trace = if opts.trace_chrome {
        obs.render_trace_chrome()
    } else {
        obs.render_trace()
    };
    if let Some(trace) = trace {
        if let Some(path) = &opts.trace_out {
            std::fs::write(path, &trace).map_err(|e| format!("--trace-out {path}: {e}"))?;
        }
        // Chrome format implies stderr output when no file sink is set; the
        // text render carries its own trailing newline, the JSON does not.
        if opts.trace || (opts.trace_chrome && opts.trace_out.is_none()) {
            if opts.trace_chrome {
                eprintln!("{trace}");
            } else {
                eprint!("{trace}");
            }
        }
    }
    if let Some(path) = &opts.metrics_out {
        let snapshot = obs
            .snapshot()
            .expect("metrics requested but observability is disabled");
        std::fs::write(path, snapshot.to_json())
            .map_err(|e| format!("--metrics-out {path}: {e}"))?;
    }
    print_outcome(&outcome, &opts, &query_for_explain, &obs, profile.as_ref());
    // `explain` interprets pscores as expansions of the original query;
    // contraction outcomes measure the remaining contraction instead, so
    // the per-predicate diff only applies to expansion searches.
    if !opts.json && query_for_explain.constraint.op.is_expanding() {
        if let Some(best) = outcome.best() {
            let changes = best.explain(&query_for_explain);
            if !changes.is_empty() {
                println!("changes vs the original query:");
                for c in changes {
                    println!("  - {c}");
                }
            }
        }
    }
    Ok(())
}

const JOURNAL_USAGE: &str = "usage: acq journal <COMMAND> [ARGS]

commands:
  summarize PATH     record counts by kind and termination, alert transitions
                     by rule, torn-tail and malformed-line accounting
  grep NEEDLE PATH   print records containing NEEDLE (fixed string match)
  replay PATH        print every record in order, oldest rotated segment
                     first, skipping (and counting) a torn final line

PATH is the file passed to `acq serve --journal`; rotated segments
(PATH.1, PATH.2, ...) are discovered automatically. Records are NDJSON
validated against schemas/journal.schema.json.";

/// `acq journal <summarize|grep|replay>`: offline inspection of a
/// `--journal` NDJSON log, torn tails included honestly.
fn run_journal<I: Iterator<Item = String>>(mut args: I) -> Result<(), String> {
    let cmd = args
        .next()
        .ok_or_else(|| format!("journal: missing command\n\n{JOURNAL_USAGE}"))?;
    let need_path = |arg: Option<String>| -> Result<std::path::PathBuf, String> {
        arg.map(std::path::PathBuf::from)
            .ok_or_else(|| format!("journal {cmd}: missing PATH\n\n{JOURNAL_USAGE}"))
    };
    let read = |path: &std::path::Path| {
        let read = acquire::obs::journal::read_journal(path)
            .map_err(|e| format!("journal: {}: {e}", path.display()))?;
        if read.segments == 0 {
            return Err(format!("journal: {}: no such journal", path.display()));
        }
        Ok(read)
    };
    // Journal output is meant for pipelines (`acq journal grep ... | head`);
    // when the downstream reader closes early, stop quietly like cat does
    // instead of panicking on the broken pipe.
    let emit = |out: &mut std::io::StdoutLock<'_>, line: &str| -> bool {
        use std::io::Write as _;
        writeln!(out, "{line}").is_ok()
    };
    match cmd.as_str() {
        "--help" | "-h" => Err(JOURNAL_USAGE.to_string()),
        "replay" => {
            let read = read(&need_path(args.next())?)?;
            let mut out = std::io::stdout().lock();
            for r in &read.records {
                if !emit(&mut out, r) {
                    break;
                }
            }
            if read.torn > 0 {
                eprintln!("journal: skipped {} torn final line(s)", read.torn);
            }
            Ok(())
        }
        "grep" => {
            let needle = args
                .next()
                .ok_or_else(|| format!("journal grep: missing NEEDLE\n\n{JOURNAL_USAGE}"))?;
            let read = read(&need_path(args.next())?)?;
            let mut out = std::io::stdout().lock();
            for r in read.records.iter().filter(|r| r.contains(&needle)) {
                if !emit(&mut out, r) {
                    break;
                }
            }
            Ok(())
        }
        "summarize" => {
            let path = need_path(args.next())?;
            let read = read(&path)?;
            let s = acquire::obs::journal::summarize(&read);
            println!("journal {}:", path.display());
            println!("  segments: {}", read.segments);
            println!(
                "  records: {} ({} query, {} alert), malformed: {}, torn: {}",
                s.records, s.queries, s.alerts, s.malformed, s.torn
            );
            for (term, n) in &s.by_termination {
                println!("  termination {term}: {n}");
            }
            for (edge, n) in &s.by_alert {
                println!("  alert {edge}: {n}");
            }
            Ok(())
        }
        other => Err(format!(
            "journal: unknown command {other}\n\n{JOURNAL_USAGE}"
        )),
    }
}

fn main() -> ExitCode {
    // `acq serve ...` delegates to the long-running service (the `acq-serve`
    // binary shares the same entry point); `acq journal ...` inspects the
    // durable query journal that service writes.
    let mut args = std::env::args().skip(1).peekable();
    let result = match args.peek().map(String::as_str) {
        Some("serve") => {
            args.next();
            acquire::serve::cli::run(args)
        }
        Some("journal") => {
            args.next();
            run_journal(args)
        }
        _ => run(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}
