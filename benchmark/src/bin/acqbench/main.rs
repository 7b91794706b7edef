//! `acqbench`: the repository's benchmark. A closed-loop `POST /query` load
//! over real loopback sockets against an in-process server, four workloads,
//! and a traced pass that splits the round trip into per-layer numbers. See
//! `benchmark/README.md`.
//!
//! ```text
//! acqbench round --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! acqbench run [--seed <n>] [--quick] [--repeat <k>]
//! acqbench compare <a.json> <b.json>
//! ```
//!
//! `round` is the unit `BENCHMARK.json` names: one process, one workload,
//! one measured window (or one traced pass), one JSON result line. `run`
//! interleaves three rounds of every workload, each its own child process,
//! and reports the median of rounds beside the rounds' spread.

mod client;
mod guards;
mod repo_api;
mod report;
mod round;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use report::{Report, Row, WorkloadReport, END_TO_END, PER_LAYER};
use workloads::Workload;

const DEFAULT_SEED: u64 = 0xACC0_FFEE;
/// Rounds per workload in `run`; a metric's value is their median.
const ROUNDS: usize = 3;
/// Measured seconds per round in `run`: the benchmark sets the run length,
/// so that two reports always compare like with like.
const ROUND_SECONDS: u64 = 20;
/// The same under `--quick`: a smoke test whose numbers are never compared.
const QUICK_SECONDS: u64 = 2;

const USAGE: &str = "usage:
  acqbench round --workload <name> --seed <n> --seconds <s> --trace <0|1>
  acqbench run [--seed <n>] [--quick] [--repeat <k>]
  acqbench compare <a.json> <b.json>";

/// `--flag value` pairs and bare `--flag`s, in any order.
struct Flags(BTreeMap<String, String>);

impl Flags {
    /// `valued` flags take a value, `bare` ones do not; any other is refused.
    fn parse(args: &[String], valued: &[&str], bare: &[&str]) -> Result<Self, String> {
        let mut flags = BTreeMap::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let name = arg
                .strip_prefix("--")
                .ok_or(format!("unexpected argument {arg}"))?;
            let value = if bare.contains(&name) {
                String::new()
            } else if valued.contains(&name) {
                it.next().ok_or(format!("--{name} needs a value"))?.clone()
            } else {
                return Err(format!("unknown flag --{name}"));
            };
            flags.insert(name.to_string(), value);
        }
        Ok(Self(flags))
    }

    fn number(&self, name: &str) -> Result<Option<u64>, String> {
        let Some(raw) = self.0.get(name) else {
            return Ok(None);
        };
        let parsed = match raw.strip_prefix("0x") {
            Some(hex) => u64::from_str_radix(hex, 16),
            None => raw.parse(),
        };
        parsed
            .map(Some)
            .map_err(|_| format!("--{name} {raw} is not a whole number"))
    }

    fn required(&self, name: &str) -> Result<u64, String> {
        self.number(name)?.ok_or(format!("--{name} is required"))
    }
}

/// A scratch directory of this process under `out/`, removed on drop.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn out_dir() -> Result<PathBuf, String> {
    let dir = guards::package_dir().join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

fn round(args: &[String]) -> Result<bool, String> {
    let flags = Flags::parse(args, &["workload", "seed", "seconds", "trace"], &[])?;
    let name = flags.0.get("workload").ok_or("--workload is required")?;
    let w = Workload::from_name(name).ok_or(format!("unknown workload {name}"))?;
    let seed = flags.required("seed")?;
    let seconds = flags.required("seconds")?;
    let traced = match flags.required("trace")? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace {other}: 0 or 1")),
    };
    guards::check(&guards::package_dir())?;
    let out = out_dir()?;
    let scratch = Scratch(out.join(format!("round-{}", std::process::id())));

    let (measured, table) = if traced {
        let spans = out.join(format!("trace-{}.json", w.name()));
        let measured = trace::run(w, seed, &scratch.0, &spans)?;
        eprintln!("{}: spans written to {}", w.name(), spans.display());
        (measured, &PER_LAYER[..])
    } else {
        (round::run(w, seed, seconds, &scratch.0)?, &END_TO_END[..])
    };
    println!("{}", report::result_line(&measured, table));
    Ok(measured.failed == 0)
}

/// Runs one round in a child process, so peak memory and allocator state
/// are the round's own, and returns its result line.
fn child_round(
    w: Workload,
    seed: u64,
    seconds: u64,
    traced: bool,
) -> Result<report::RoundLine, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["round", "--workload", w.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a round: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or("");
    report::parse_result_line(line)
        .map_err(|e| format!("{} round ended with {}: {e}", w.name(), output.status))
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// One full set: `ROUNDS` end-to-end rounds per workload, interleaved round
/// robin so a noisy stretch of a shared machine hits every workload alike,
/// then one traced pass per workload.
fn one_set(seed: u64, quick: bool) -> Result<Report, String> {
    let seconds = if quick { QUICK_SECONDS } else { ROUND_SECONDS };
    let mut report = Report {
        quick,
        seed,
        round_seconds: seconds,
        nproc: guards::nproc(),
        cpu_model: cpu_model(),
        workloads: BTreeMap::new(),
    };
    let mut absorb = |w: Workload, line: report::RoundLine, traced: bool| {
        let entry: &mut WorkloadReport = report.workloads.entry(w.name().to_string()).or_default();
        entry.attempted += line.attempted;
        entry.failed += line.failed;
        let table = if traced {
            &mut entry.per_layer
        } else {
            &mut entry.end_to_end
        };
        for (name, (value, unit)) in line.metrics {
            table
                .entry(name)
                .or_insert_with(|| Row {
                    unit,
                    rounds: Vec::new(),
                })
                .rounds
                .push(value);
        }
    };
    for r in 0..ROUNDS {
        for w in Workload::ALL {
            eprintln!("round {}/{ROUNDS}: {}", r + 1, w.name());
            absorb(w, child_round(w, seed, seconds, false)?, false);
        }
    }
    for w in Workload::ALL {
        eprintln!("traced pass: {}", w.name());
        absorb(w, child_round(w, seed, seconds, true)?, true);
    }
    Ok(report)
}

fn declared() -> Result<report::Declared, String> {
    let path = guards::package_dir().join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    report::parse_declared(&text)
}

fn run(args: &[String]) -> Result<bool, String> {
    let flags = Flags::parse(args, &["seed", "repeat"], &["quick"])?;
    let quick = flags.0.contains_key("quick");
    let seed = flags.number("seed")?.unwrap_or(DEFAULT_SEED);
    let repeat = flags.number("repeat")?.unwrap_or(1).max(1);
    guards::check(&guards::package_dir())?;
    let declared = declared()?;
    let out = out_dir()?;

    let mut ok = true;
    let mut sets: Vec<Report> = Vec::new();
    for k in 0..repeat {
        let report = one_set(seed, quick)?;
        report::validate(&report, &declared)?;
        let path = out.join(format!("report-{k}.json"));
        std::fs::write(&path, report.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("{}", report.to_table());
        println!("report written to {}", path.display());
        ok &= report.workloads.values().all(|w| w.failed == 0);
        sets.push(report);
    }
    // Repeatability: later sets of the same code against the first.
    for later in sets.iter().skip(1) {
        let (text, holds) = report::compare(&sets[0], later, &declared, true)?;
        println!("{text}");
        ok &= holds;
    }
    Ok(ok)
}

fn compare(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err(USAGE.to_string());
    };
    let load = |p: &String| {
        let text = std::fs::read_to_string(Path::new(p)).map_err(|e| format!("{p}: {e}"))?;
        Report::from_json(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (text, holds) = report::compare(&load(a)?, &load(b)?, &declared()?, false)?;
    println!("{text}");
    Ok(holds)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "round" => round(rest),
        Some((cmd, rest)) if cmd == "run" => run(rest),
        Some((cmd, rest)) if cmd == "compare" => compare(rest),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("acqbench: {why}");
            ExitCode::from(2)
        }
    }
}
