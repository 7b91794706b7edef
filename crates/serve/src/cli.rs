//! Command-line entry point, shared by the `acq-serve` binary and the root
//! CLI's `acq serve` subcommand.

use std::time::Duration;

use acq_datagen::{patients, tpch, users, GenConfig};
use acq_engine::{csv, Catalog};
use acquire_core::AcquireConfig;

use crate::server::Server;
use crate::state::ServeConfig;

/// Usage text for `acq-serve --help` (and `acq serve --help`).
pub const USAGE: &str = "usage: acq-serve [OPTIONS]

options:
  --addr HOST:PORT     bind address (default 127.0.0.1:7171; port 0 = ephemeral)
  --table NAME=PATH    load a CSV file as table NAME (repeatable)
  --demo NAME          generate a demo table: users | patients | tpch (repeatable)
  --demo-rows N        demo table size (default 50000)
  --layer KIND         evaluation layer: scan | cached (default cached)
  --gamma G            default refinement threshold when a request omits it
  --delta D            default aggregate error threshold when a request omits it
  --max-deadline SECS  hard per-query wall-clock cap (default 30)
  --max-threads N      most search threads one request may ask for (default 8)
  --max-concurrent N   executing queries before new ones queue (default 16)
  --trace-capacity N   per-query trace buffer capacity (default 10000)

overload / admission control:
  --workers N            connection-worker threads (default 8)
  --accept-queue N       accepted connections awaiting a worker before the
                         acceptor sheds with 503 (default 64)
  --read-timeout SECS    total first-byte-to-last budget per request; slower
                         clients get 408 (default 5)
  --keep-alive SECS      idle keep-alive connection lifetime (default 5)
  --max-queued N         queries queued at the gate before shedding (default 32)
  --queue-wait SECS      longest gate wait before a 503 (default 1)
  --client-rate R        per-client queries/sec token bucket; 0 = off (default 0)
  --client-burst N       per-client bucket burst (default 8)
  --global-rate R        global queries/sec token bucket; 0 = off (default 0)
  --global-burst N       global bucket burst (default 32)
  --degrade-watermark F  load fraction of --max-concurrent above which
                         admissions degrade to best-effort (default 0.75)
  --degrade-factor F     budget multiplier for degraded admissions (default 0.25)

operations (journal):
  --journal PATH         append every request lifecycle as NDJSON
                         (schemas/journal.schema.json) to this file,
                         size-rotated; replay offline with `acq journal`
  --journal-max-bytes N  active-segment size before rotation (default 8388608)
  --journal-capacity N   in-memory journal ring capacity (default 4096)
  --help                 this message

endpoints: POST /query[?explain=1]  GET /metrics /healthz /readyz /queries
           GET /query/<id>/progress (chunked NDJSON)
           GET /trace/<id>[?format=chrome]  POST /shutdown

The request body for POST /query is JSON:
  {\"sql\": \"SELECT ... CONSTRAINT ...\", \"gamma\"?, \"delta\"?,
   \"norm\"? (\"l1\"|\"l2\"|\"linf\"), \"threads\"?, \"timeout_secs\"?,
   \"deadline_ms\"?, \"max_explored\"?, \"max_store_bytes\"?, \"top\"?}
A client deadline may also ride the X-ACQ-Deadline-Ms request header; the
tightest of all supplied bounds wins. Overloaded servers answer 429/503
with Retry-After, or degrade admitted queries to partial anytime answers
(\"degraded\": true with an explicit \"termination\").";

/// Parsed `acq-serve` options: the server config plus data sources.
#[derive(Debug)]
pub struct ServeOpts {
    /// Server configuration assembled from flags.
    pub config: ServeConfig,
    /// `--table NAME=PATH` pairs.
    pub tables: Vec<(String, String)>,
    /// `--demo NAME` datasets.
    pub demos: Vec<String>,
    /// `--demo-rows`.
    pub demo_rows: usize,
}

fn positive_secs(flag: &str, value: &str) -> Result<Duration, String> {
    let secs: f64 = value.parse().map_err(|e| format!("{flag}: {e}"))?;
    crate::handlers::positive_secs(secs)
        .ok_or_else(|| format!("{flag}: expected positive seconds, got {secs}"))
}

fn nonneg(flag: &str, value: &str) -> Result<f64, String> {
    let v: f64 = value.parse().map_err(|e| format!("{flag}: {e}"))?;
    if !v.is_finite() || v < 0.0 {
        return Err(format!("{flag}: expected a non-negative number, got {v}"));
    }
    Ok(v)
}

/// Parses `acq-serve` flags. `Err` carries the message to print (usage on
/// `--help`).
pub fn parse_args<I: Iterator<Item = String>>(args: I) -> Result<ServeOpts, String> {
    let mut args = args.peekable();
    let mut opts = ServeOpts {
        config: ServeConfig {
            addr: "127.0.0.1:7171".to_string(),
            ..ServeConfig::default()
        },
        tables: Vec::new(),
        demos: Vec::new(),
        demo_rows: 50_000,
    };
    while let Some(a) = args.next() {
        let mut need = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match a.as_str() {
            "--help" | "-h" => return Err(USAGE.to_string()),
            "--addr" => opts.config.addr = need("--addr")?,
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
            "--layer" => {
                opts.config.layer = need("--layer")?.parse()?;
            }
            "--gamma" => {
                opts.config.gamma = need("--gamma")?
                    .parse()
                    .map_err(|e| format!("--gamma: {e}"))?;
            }
            "--delta" => {
                opts.config.delta = need("--delta")?
                    .parse()
                    .map_err(|e| format!("--delta: {e}"))?;
            }
            "--max-deadline" => {
                opts.config.max_deadline =
                    positive_secs("--max-deadline", &need("--max-deadline")?)?;
            }
            "--max-threads" => {
                opts.config.max_threads = need("--max-threads")?
                    .parse()
                    .map_err(|e| format!("--max-threads: {e}"))?;
            }
            "--max-concurrent" => {
                opts.config.max_concurrent = need("--max-concurrent")?
                    .parse()
                    .map_err(|e| format!("--max-concurrent: {e}"))?;
            }
            "--trace-capacity" => {
                opts.config.trace_capacity = need("--trace-capacity")?
                    .parse()
                    .map_err(|e| format!("--trace-capacity: {e}"))?;
            }
            "--workers" => {
                opts.config.workers = need("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?;
            }
            "--accept-queue" => {
                opts.config.accept_queue = need("--accept-queue")?
                    .parse()
                    .map_err(|e| format!("--accept-queue: {e}"))?;
            }
            "--read-timeout" => {
                opts.config.read_timeout =
                    positive_secs("--read-timeout", &need("--read-timeout")?)?;
            }
            "--keep-alive" => {
                opts.config.keep_alive = positive_secs("--keep-alive", &need("--keep-alive")?)?;
            }
            "--max-queued" => {
                opts.config.max_queued = need("--max-queued")?
                    .parse()
                    .map_err(|e| format!("--max-queued: {e}"))?;
            }
            "--queue-wait" => {
                opts.config.queue_wait = positive_secs("--queue-wait", &need("--queue-wait")?)?;
            }
            "--client-rate" => {
                opts.config.client_rate = nonneg("--client-rate", &need("--client-rate")?)?;
            }
            "--client-burst" => {
                opts.config.client_burst = nonneg("--client-burst", &need("--client-burst")?)?;
            }
            "--global-rate" => {
                opts.config.global_rate = nonneg("--global-rate", &need("--global-rate")?)?;
            }
            "--global-burst" => {
                opts.config.global_burst = nonneg("--global-burst", &need("--global-burst")?)?;
            }
            "--degrade-watermark" => {
                let f = nonneg("--degrade-watermark", &need("--degrade-watermark")?)?;
                if f > 1.0 {
                    return Err(format!("--degrade-watermark: expected 0..=1, got {f}"));
                }
                opts.config.degrade_watermark = f;
            }
            "--degrade-factor" => {
                let f = nonneg("--degrade-factor", &need("--degrade-factor")?)?;
                if f > 1.0 {
                    return Err(format!("--degrade-factor: expected 0..=1, got {f}"));
                }
                opts.config.degrade_factor = f;
            }
            "--journal" => {
                opts.config.journal_path = Some(std::path::PathBuf::from(need("--journal")?));
            }
            "--journal-max-bytes" => {
                let n: u64 = need("--journal-max-bytes")?
                    .parse()
                    .map_err(|e| format!("--journal-max-bytes: {e}"))?;
                if n == 0 {
                    return Err("--journal-max-bytes: expected a positive size".to_string());
                }
                opts.config.journal_max_bytes = n;
            }
            "--journal-capacity" => {
                opts.config.journal_capacity = need("--journal-capacity")?
                    .parse()
                    .map_err(|e| format!("--journal-capacity: {e}"))?;
            }
            other => return Err(format!("unexpected argument {other}\n\n{USAGE}")),
        }
    }
    // A default the search refuses must fail startup, not every request
    // that omits the field.
    AcquireConfig {
        gamma: opts.config.gamma,
        delta: opts.config.delta,
        ..AcquireConfig::default()
    }
    .validate()
    .map_err(|e| format!("--gamma/--delta: {e}"))?;
    Ok(opts)
}

/// Loads `--table NAME=PATH` CSVs and `--demo NAME` datasets (`demo_rows`
/// rows each) into one catalog — for this server and the one-shot CLI alike.
pub fn build_catalog(
    tables: &[(String, String)],
    demos: &[String],
    demo_rows: usize,
) -> Result<Catalog, String> {
    let mut catalog = Catalog::new();
    for (name, path) in tables {
        let table = csv::read_csv(name, path).map_err(|e| e.to_string())?;
        eprintln!(
            "loaded {name}: {} rows, schema {}",
            table.num_rows(),
            table.schema()
        );
        catalog.register(table).map_err(|e| e.to_string())?;
    }
    for demo in demos {
        let cfg = GenConfig::uniform(demo_rows);
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
        eprintln!("generated demo dataset: {demo} ({demo_rows} rows)");
    }
    if catalog.is_empty() {
        return Err("no tables: pass --table NAME=PATH or --demo NAME".to_string());
    }
    Ok(catalog)
}

/// Parses `args`, builds the catalog, and serves until `POST /shutdown`.
pub fn run<I: Iterator<Item = String>>(args: I) -> Result<(), String> {
    let opts = parse_args(args)?;
    let catalog = build_catalog(&opts.tables, &opts.demos, opts.demo_rows)?;
    let mut server = Server::start(opts.config, catalog).map_err(|e| e.to_string())?;
    eprintln!("acq-serve listening on http://{}", server.addr());
    server.join();
    eprintln!("acq-serve stopped");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use acquire_core::EvalLayerKind;

    fn parse(args: &[&str]) -> Result<ServeOpts, String> {
        parse_args(args.iter().map(|s| (*s).to_string()))
    }

    #[test]
    fn flags_override_defaults() {
        let opts = parse(&[
            "--addr",
            "127.0.0.1:0",
            "--demo",
            "users",
            "--demo-rows",
            "100",
            "--max-threads",
            "4",
        ])
        .unwrap();
        assert_eq!(opts.config.addr, "127.0.0.1:0");
        assert_eq!(opts.demos, vec!["users".to_string()]);
        assert_eq!(opts.demo_rows, 100);
        assert_eq!(opts.config.max_threads, 4);
        assert_eq!(opts.config.layer, EvalLayerKind::CachedScore, "the default");
        let scan = parse(&["--demo", "users", "--layer", "scan"]).unwrap();
        assert_eq!(scan.config.layer, EvalLayerKind::Scan);
    }

    #[test]
    fn unknown_flags_and_missing_values_error() {
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["--gamma"]).is_err());
        assert!(parse(&["--gamma", "0"]).is_err());
        assert!(parse(&["--gamma", "nan"]).is_err());
        assert!(parse(&["--delta", "-1"]).is_err());
        assert!(parse(&["--alerts", "x"]).is_err());
        assert!(parse(&["--alert-interval", "1"]).is_err());
        assert!(parse(&["--layer"]).is_err());
        assert_eq!(
            parse(&["--layer", "grid"]).unwrap_err(),
            "unknown layer grid (expected scan | cached)"
        );
        assert!(parse(&["--help"]).unwrap_err().starts_with("usage:"));
    }

    #[test]
    fn overload_flags_parse_and_validate() {
        let opts = parse(&[
            "--workers",
            "4",
            "--accept-queue",
            "8",
            "--read-timeout",
            "2.5",
            "--keep-alive",
            "1",
            "--max-queued",
            "3",
            "--queue-wait",
            "0.25",
            "--client-rate",
            "10",
            "--client-burst",
            "5",
            "--global-rate",
            "100",
            "--global-burst",
            "50",
            "--degrade-watermark",
            "0.5",
            "--degrade-factor",
            "0.1",
        ])
        .unwrap();
        assert_eq!(opts.config.workers, 4);
        assert_eq!(opts.config.accept_queue, 8);
        assert_eq!(opts.config.read_timeout, Duration::from_millis(2500));
        assert_eq!(opts.config.keep_alive, Duration::from_secs(1));
        assert_eq!(opts.config.max_queued, 3);
        assert_eq!(opts.config.queue_wait, Duration::from_millis(250));
        assert_eq!(opts.config.client_rate, 10.0);
        assert_eq!(opts.config.client_burst, 5.0);
        assert_eq!(opts.config.global_rate, 100.0);
        assert_eq!(opts.config.global_burst, 50.0);
        assert_eq!(opts.config.degrade_watermark, 0.5);
        assert_eq!(opts.config.degrade_factor, 0.1);

        assert!(parse(&["--read-timeout", "0"]).is_err());
        assert!(parse(&["--queue-wait", "-1"]).is_err());
        assert!(parse(&["--client-rate", "-2"]).is_err());
        assert!(parse(&["--degrade-watermark", "1.5"]).is_err());
        assert!(parse(&["--degrade-factor", "nan"]).is_err());
    }

    #[test]
    fn ops_flags_parse_and_validate() {
        let opts = parse(&[
            "--journal",
            "/tmp/acq.journal",
            "--journal-max-bytes",
            "1024",
            "--journal-capacity",
            "16",
        ])
        .unwrap();
        assert_eq!(
            opts.config.journal_path.as_deref(),
            Some(std::path::Path::new("/tmp/acq.journal"))
        );
        assert_eq!(opts.config.journal_max_bytes, 1024);
        assert_eq!(opts.config.journal_capacity, 16);
        assert!(parse(&["--journal-max-bytes", "0"]).is_err());
        assert!(parse(&["--journal"]).is_err());
    }

    #[test]
    fn empty_catalog_is_rejected() {
        let err = build_catalog(&[], &[], 50_000).unwrap_err();
        assert!(err.contains("no tables"), "{err}");
    }
}
