//! `acq` — run Aggregation Constrained Queries from the command line.
//!
//! ```text
//! acq --table users=examples/data/users.csv \
//!     [--gamma 10] [--delta 0.05] [--layer scan|cached] [--top 5] \
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

use std::time::{Duration, Instant};

use acquire::core::profile::{answers_json, termination_json};
use acquire::core::{
    run_acquire_progress, AcqOutcome, AcquireConfig, CancellationToken, EvalLayerKind,
    ExecutionBudget, ExplainProfile, FaultPolicy, Host, Obs, ProgressSink, Termination,
    DEFAULT_PROGRESS_CAPACITY,
};
use acquire::engine::Executor;
use acquire::obs::snapshot::json_num;
use acquire::query::{CmpOp, Norm};
use acquire::serve::cli::build_catalog;
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
            layer: EvalLayerKind::CachedScore,
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
  --layer KIND        evaluation layer: scan | cached (default cached)
  --norm NORM         l1 | l2 | linf (default l1)
  --top N             number of refined queries to print (default 5)
  --json              print the outcome as JSON instead of text
  --threads N         worker threads for scoring and the parallel Explore
                      phase (default 1; results are bit-identical for any
                      value)
  --explain           print the base-relation materialisation plan and an
                      EXPLAIN-style search profile (grid dims, layers,
                      Eq. 17 reuse accounting, search-layer latency split); with
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
                      per-layer latency and cell histograms, worker
                      utilisation) to PATH
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
                opts.layer = need("--layer")?.parse()?;
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

fn print_outcome_json(
    outcome: &AcqOutcome,
    opts: &Opts,
    original: &acquire::query::AcqQuery,
    obs: &Obs,
    profile: Option<&ExplainProfile>,
) {
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
        "{{\"satisfied\":{},\"termination\":{},\"original_aggregate\":{},\"explored\":{},{},\"metrics\":{}{}}}",
        outcome.satisfied,
        termination_json(&outcome.termination),
        json_num(outcome.original_aggregate),
        outcome.explored,
        answers_json(outcome, original, opts.top),
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
    let catalog = build_catalog(&opts.tables, &opts.demos, opts.demo_rows)?;
    let sql = opts.sql.as_deref().ok_or_else(|| USAGE.to_string())?;
    let query = compile(sql, &catalog).map_err(|e| e.to_string())?;

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

    let search_started = Instant::now();
    let cancel = CancellationToken::new();
    let mut run = |progress: Option<&ProgressSink>| {
        let host = Host {
            progress,
            ..Host::new(&cancel, &obs)
        };
        run_acquire_progress(&mut exec, &query, &cfg, opts.layer, host)
    };
    // --progress: the search moves to a scoped thread while this one drains
    // its wait-free sink to stderr (stdout stays reserved for the answer) —
    // one last time once the search is over, however it ended.
    let outcome = if opts.progress {
        let sink = ProgressSink::new(DEFAULT_PROGRESS_CAPACITY);
        std::thread::scope(|scope| {
            let search = scope.spawn(|| run(Some(&sink)));
            let mut cursor = 0u64;
            loop {
                let finished = search.is_finished();
                let (events, next, _missed) = sink.drain_from(cursor);
                cursor = next;
                for e in &events {
                    eprintln!("{}", e.to_json());
                }
                if finished || events.iter().any(|e| e.terminal) {
                    break;
                }
                std::thread::sleep(Duration::from_millis(50));
            }
            search
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
        })
    } else {
        run(None)
    };
    let search_duration = search_started.elapsed();
    let outcome = outcome.map_err(|e| e.to_string())?;
    if outcome.contracted && !opts.json {
        let why = match query.constraint.op {
            CmpOp::Eq => format!(
                "the original query already overshoots {} > {}",
                outcome.original_aggregate, query.constraint.target
            ),
            _ => "overshooting constraint".to_string(),
        };
        println!("({why}: ran the §7.2 contraction search)\n");
    }
    if opts.explain && !opts.json {
        println!("base-relation plan:");
        for line in exec.last_plan() {
            println!("  - {line}");
        }
        println!();
    }
    let profile = opts.explain.then(|| {
        ExplainProfile::new(
            &query,
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
    print_outcome(&outcome, &opts, &query, &obs, profile.as_ref());
    // `explain` interprets pscores as expansions of the original query;
    // contraction outcomes measure the remaining contraction instead, so
    // the per-predicate diff only applies to expansion searches.
    if !opts.json && !outcome.contracted {
        if let Some(best) = outcome.best() {
            let changes = best.explain(&query);
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
  summarize PATH     record counts by kind (query, other) and by query
                     termination, torn-tail and malformed-line accounting
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
                "  records: {} ({} query, {} other), malformed: {}, torn: {}",
                s.records, s.queries, s.other, s.malformed, s.torn
            );
            for (term, n) in &s.by_termination {
                println!("  termination {term}: {n}");
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
