//! Regenerates every table and figure of the paper's evaluation (§8).
//!
//! ```text
//! cargo run --release -p acq-bench --bin reproduce -- <experiment> [--rows N] [--quick]
//!
//! experiments: fig8 fig9 fig10a fig10b fig10c fig11 skew joins table1 workshare all
//! ```
//!
//! Each experiment prints the same rows/series the corresponding paper
//! figure plots; `EXPERIMENTS.md` records paper-vs-measured shapes.

use acq_baselines::{BinSearchParams, TqGenParams};
use acq_bench::{
    count_workload, q2_sum_workload, run_technique, Table, Technique, Workload, WorkloadSpec,
};
use acq_query::AggFunc;
use acquire_core::{AcquireConfig, EvalLayerKind};

const RATIOS: [f64; 5] = [0.1, 0.3, 0.5, 0.7, 0.9];

#[derive(Debug, Clone)]
struct Opts {
    rows: usize,
    quick: bool,
}

impl Opts {
    fn tqgen(&self) -> TqGenParams {
        if self.quick {
            TqGenParams {
                levels_per_dim: 4,
                rounds: 2,
                max_queries: 20_000,
            }
        } else {
            TqGenParams::default()
        }
    }

    fn techniques(&self) -> Vec<Technique> {
        vec![
            Technique::Acquire(EvalLayerKind::CachedScore),
            Technique::TopK,
            Technique::TqGen(self.tqgen()),
            Technique::BinSearch(BinSearchParams::default()),
        ]
    }
}

fn na() -> String {
    "n/a".to_string()
}

fn cell(v: f64) -> String {
    Table::fmt_num(v)
}

/// Fig. 8: execution time, relative aggregate error and refinement score
/// versus the aggregate ratio (3 flexible predicates, δ = 0.05).
fn fig8(opts: &Opts, zipf: bool) -> Vec<Table> {
    let cfg = AcquireConfig::default();
    let label = if zipf { " (Zipf Z=1, §8.4.4)" } else { "" };
    let mut time = Table::new(
        format!("Figure 8a{label}: execution time (ms) vs aggregate ratio"),
        &["ratio", "ACQUIRE", "Top-k", "TQGen", "BinSearch"],
    );
    let mut err = Table::new(
        format!("Figure 8b{label}: relative aggregate error vs aggregate ratio"),
        &[
            "ratio",
            "ACQUIRE",
            "TQGen",
            "BinSearch(mean)",
            "BinSearch(max)",
        ],
    );
    let mut refine = Table::new(
        format!("Figure 8c{label}: refinement score vs aggregate ratio"),
        &["ratio", "ACQUIRE", "Top-k", "TQGen", "BinSearch"],
    );
    for ratio in RATIOS {
        let mut spec = WorkloadSpec::new(opts.rows, 3, ratio);
        if zipf {
            spec = spec.skewed();
        }
        let w = count_workload(&spec);
        let mut trow = vec![cell(ratio)];
        let mut rrow = vec![cell(ratio)];
        let mut erow = vec![cell(ratio)];
        for t in opts.techniques() {
            match run_technique(&w, &t, &cfg) {
                Ok(r) => {
                    trow.push(cell(r.time_ms));
                    rrow.push(cell(r.qscore));
                    if matches!(t, Technique::Acquire(_) | Technique::TqGen(_)) {
                        erow.push(cell(r.error));
                    }
                }
                Err(_) => {
                    trow.push(na());
                    rrow.push(na());
                }
            }
        }
        // BinSearch order sensitivity: mean and max error over orders.
        let (bs_mean, bs_max) = binsearch_order_spread(&w, &cfg, 3);
        erow.push(cell(bs_mean));
        erow.push(cell(bs_max));
        time.push(trow);
        err.push(erow);
        refine.push(rrow);
    }
    vec![time, err, refine]
}

/// Runs BinSearch across several predicate orders and reports the error
/// spread (the §8.4.1 instability result).
fn binsearch_order_spread(w: &Workload, cfg: &AcquireConfig, dims: usize) -> (f64, f64) {
    let orders: Vec<Vec<usize>> = match dims {
        1 => vec![vec![0]],
        2 => vec![vec![0, 1], vec![1, 0]],
        _ => {
            let mut v = Vec::new();
            for r in 0..dims {
                let mut o: Vec<usize> = (0..dims).collect();
                o.rotate_left(r);
                v.push(o.clone());
                o.reverse();
                v.push(o);
            }
            v
        }
    };
    let mut errors = Vec::new();
    for order in orders {
        let t = Technique::BinSearch(BinSearchParams {
            order: Some(order),
            ..Default::default()
        });
        if let Ok(r) = run_technique(w, &t, cfg) {
            errors.push(r.error);
        }
    }
    let mean = errors.iter().sum::<f64>() / errors.len().max(1) as f64;
    let max = errors.iter().copied().fold(0.0, f64::max);
    (mean, max)
}

/// Fig. 9: the same metrics versus dimensionality (ratio 0.3).
fn fig9(opts: &Opts) -> Vec<Table> {
    let cfg = AcquireConfig::default();
    let mut time = Table::new(
        "Figure 9a: execution time (ms) vs number of flexible predicates",
        &["dims", "ACQUIRE", "Top-k", "TQGen", "BinSearch"],
    );
    let mut err = Table::new(
        "Figure 9b: relative aggregate error vs number of flexible predicates",
        &[
            "dims",
            "ACQUIRE",
            "TQGen",
            "BinSearch(mean)",
            "BinSearch(max)",
        ],
    );
    let mut refine = Table::new(
        "Figure 9c: refinement score vs number of flexible predicates",
        &["dims", "ACQUIRE", "Top-k", "TQGen", "BinSearch"],
    );
    let max_dims = if opts.quick { 4 } else { 5 };
    for dims in 1..=max_dims {
        let w = count_workload(&WorkloadSpec::new(opts.rows, dims, 0.3));
        let mut trow = vec![dims.to_string()];
        let mut rrow = vec![dims.to_string()];
        let mut erow = vec![dims.to_string()];
        for t in opts.techniques() {
            match run_technique(&w, &t, &cfg) {
                Ok(r) => {
                    trow.push(cell(r.time_ms));
                    rrow.push(cell(r.qscore));
                    if matches!(t, Technique::Acquire(_) | Technique::TqGen(_)) {
                        erow.push(cell(r.error));
                    }
                }
                Err(_) => {
                    trow.push(na());
                    rrow.push(na());
                }
            }
        }
        let (bs_mean, bs_max) = binsearch_order_spread(&w, &cfg, dims);
        erow.push(cell(bs_mean));
        erow.push(cell(bs_max));
        time.push(trow);
        err.push(erow);
        refine.push(rrow);
    }
    vec![time, err, refine]
}

/// Fig. 10a: execution time versus table size (ratio 0.3, 3 predicates).
fn fig10a(opts: &Opts) -> Vec<Table> {
    let cfg = AcquireConfig::default();
    let mut time = Table::new(
        "Figure 10a: execution time (ms) vs table size",
        &["rows", "ACQUIRE", "Top-k", "TQGen", "BinSearch"],
    );
    let sizes: Vec<usize> = if opts.quick {
        vec![1_000, 10_000, 100_000]
    } else {
        vec![1_000, 10_000, 100_000, 1_000_000]
    };
    for rows in sizes {
        let w = count_workload(&WorkloadSpec::new(rows, 3, 0.3));
        let mut trow = vec![rows.to_string()];
        for t in opts.techniques() {
            match run_technique(&w, &t, &cfg) {
                Ok(r) => trow.push(cell(r.time_ms)),
                Err(_) => trow.push(na()),
            }
        }
        time.push(trow);
    }
    vec![time]
}

/// Fig. 10b: ACQUIRE time versus the refinement threshold γ.
fn fig10b(opts: &Opts) -> Vec<Table> {
    let mut t = Table::new(
        "Figure 10b: ACQUIRE execution time (ms) vs refinement threshold γ",
        &["gamma", "time_ms", "queries_explored", "refinement"],
    );
    let w = count_workload(&WorkloadSpec::new(opts.rows, 3, 0.3));
    for gamma in [2.0, 4.0, 6.0, 8.0, 10.0, 12.0] {
        let cfg = AcquireConfig::default().with_gamma(gamma);
        match run_technique(&w, &Technique::Acquire(EvalLayerKind::CachedScore), &cfg) {
            Ok(r) => t.push(vec![
                cell(gamma),
                cell(r.time_ms),
                r.queries.to_string(),
                cell(r.qscore),
            ]),
            Err(e) => t.push(vec![cell(gamma), e]),
        }
    }
    vec![t]
}

/// Fig. 10c: ACQUIRE time versus the cardinality (aggregate error)
/// threshold δ.
fn fig10c(opts: &Opts) -> Vec<Table> {
    let mut t = Table::new(
        "Figure 10c: ACQUIRE execution time (ms) vs cardinality threshold δ",
        &["delta", "time_ms", "queries_explored", "error"],
    );
    let w = count_workload(&WorkloadSpec::new(opts.rows, 3, 0.3));
    for delta in [0.0001, 0.001, 0.01, 0.1] {
        let cfg = AcquireConfig::default().with_delta(delta);
        match run_technique(&w, &Technique::Acquire(EvalLayerKind::CachedScore), &cfg) {
            Ok(r) => t.push(vec![
                cell(delta),
                cell(r.time_ms),
                r.queries.to_string(),
                cell(r.error),
            ]),
            Err(e) => t.push(vec![cell(delta), e]),
        }
    }
    vec![t]
}

/// Fig. 11: ACQUIRE across aggregate types (SUM/COUNT/MAX on the Q2'
/// join workload).
fn fig11(opts: &Opts) -> Vec<Table> {
    let cfg = AcquireConfig::default();
    let mut time = Table::new(
        "Figure 11a: ACQUIRE execution time (ms) vs aggregate ratio, per aggregate",
        &["ratio", "SUM", "COUNT", "MAX"],
    );
    let mut refine = Table::new(
        "Figure 11b: ACQUIRE refinement score vs aggregate ratio, per aggregate",
        &["ratio", "SUM", "COUNT", "MAX"],
    );
    // The Q2 join workload's base cardinality: keep joins tractable.
    let rows = if opts.quick {
        10_000
    } else {
        opts.rows.min(200_000)
    };
    for ratio in RATIOS {
        let mut trow = vec![cell(ratio)];
        let mut rrow = vec![cell(ratio)];
        for agg in [AggFunc::Sum, AggFunc::Count, AggFunc::Max] {
            let w = q2_sum_workload(&WorkloadSpec::new(rows, 2, ratio), agg);
            match run_technique(&w, &Technique::Acquire(EvalLayerKind::CachedScore), &cfg) {
                Ok(r) => {
                    trow.push(cell(r.time_ms));
                    rrow.push(cell(r.qscore));
                }
                Err(e) => {
                    trow.push(e.clone());
                    rrow.push(na());
                }
            }
        }
        time.push(trow);
        refine.push(rrow);
    }
    vec![time, refine]
}

/// Join refinement (§2.4, §8.3): ACQUIRE widens a refinable equi-join into
/// the band `|l - r| <= w`; per Table 1 none of the baseline techniques can
/// refine join predicates, so only ACQUIRE has entries.
fn joins(opts: &Opts) -> Vec<Table> {
    let cfg = AcquireConfig::default();
    let rows = if opts.quick { 500 } else { 1_500 };
    let mut t = Table::new(
        "Join refinement: ACQUIRE on |left.j - right.j| <= w (baselines: n/a per Table 1)",
        &[
            "target_pairs",
            "time_ms",
            "band_width",
            "select_refine",
            "aggregate",
            "error",
        ],
    );
    for density in [0.5, 1.0, 2.0, 5.0, 10.0] {
        let w = acq_bench::join_workload(rows, density, 0xACC);
        match run_technique(&w, &Technique::Acquire(EvalLayerKind::CachedScore), &cfg) {
            Ok(r) => {
                // Join PScores use the denominator-100 convention: the score
                // IS the absolute band width.
                t.push(vec![
                    cell(w.query.constraint.target),
                    cell(r.time_ms),
                    cell(r.pscores.first().copied().unwrap_or(0.0)),
                    cell(r.pscores.get(1).copied().unwrap_or(0.0)),
                    cell(r.aggregate),
                    cell(r.error),
                ]);
            }
            Err(e) => t.push(vec![cell(w.query.constraint.target), e]),
        }
    }
    vec![t]
}

/// Table 1: the related-work capability matrix, probed programmatically.
fn table1(opts: &Opts) -> Vec<Table> {
    let cfg = AcquireConfig::default();
    let rows = if opts.quick {
        5_000
    } else {
        opts.rows.min(50_000)
    };
    let mut t = Table::new(
        "Table 1: technique capabilities (probed on live workloads)",
        &[
            "technique",
            "COUNT",
            "SUM/MIN/MAX/AVG",
            "proximity",
            "outputs query",
        ],
    );
    let count_w = count_workload(&WorkloadSpec::new(rows, 2, 0.5));
    let sum_w = q2_sum_workload(&WorkloadSpec::new(rows, 2, 0.5), AggFunc::Sum);
    let acq = Technique::Acquire(EvalLayerKind::CachedScore);
    let acq_count = run_technique(&count_w, &acq, &cfg).expect("acquire count");
    let techniques: Vec<Technique> = vec![
        acq.clone(),
        Technique::TopK,
        Technique::TqGen(opts.tqgen()),
        Technique::BinSearch(BinSearchParams::default()),
    ];
    for tech in techniques {
        let count_ok = run_technique(&count_w, &tech, &cfg);
        let sum_ok = run_technique(&sum_w, &tech, &cfg);
        let proximity = match (&tech, &count_ok) {
            (Technique::Acquire(_), _) => "yes (minimised)".to_string(),
            (Technique::TopK, Ok(r)) => {
                // Tuple-oriented: ranks tuples by proximity but the implied
                // query is skewed; report the measured blow-up vs ACQUIRE.
                format!(
                    "tuples only ({}x ACQUIRE)",
                    cell(r.qscore / acq_count.qscore.max(1e-9))
                )
            }
            (_, Ok(r)) => {
                format!(
                    "no ({}x ACQUIRE)",
                    cell(r.qscore / acq_count.qscore.max(1e-9))
                )
            }
            (_, Err(_)) => na(),
        };
        let outputs_query = match tech {
            Technique::TopK => "no (tuple set)",
            _ => "yes",
        };
        t.push(vec![
            tech.name().to_string(),
            count_ok
                .map(|r| format!("yes (err {})", cell(r.error)))
                .unwrap_or_else(|_| "no".into()),
            sum_ok
                .map(|r| format!("yes (err {})", cell(r.error)))
                .unwrap_or_else(|_| "no".into()),
            proximity,
            outputs_query.to_string(),
        ]);
    }
    vec![t]
}

/// §5/§6 work-sharing: tuples scanned and queries issued per technique.
fn workshare(opts: &Opts) -> Vec<Table> {
    let cfg = AcquireConfig::default();
    let rows = if opts.quick { 10_000 } else { opts.rows };
    let w = count_workload(&WorkloadSpec::new(rows, 3, 0.3));
    let mut t = Table::new(
        "Work sharing (§5): evaluation-layer work per technique",
        &[
            "technique",
            "queries",
            "tuples_scanned",
            "scans/universe",
            "peak_store",
            "error",
        ],
    );
    let techniques: Vec<Technique> = vec![
        Technique::Acquire(EvalLayerKind::Scan),
        Technique::Acquire(EvalLayerKind::CachedScore),
        Technique::TqGen(opts.tqgen()),
        Technique::BinSearch(BinSearchParams::default()),
    ];
    for tech in techniques {
        match run_technique(&w, &tech, &cfg) {
            Ok(r) => t.push(vec![
                tech.name().to_string(),
                r.queries.to_string(),
                r.stats.tuples_scanned.to_string(),
                cell(r.stats.tuples_scanned as f64 / rows as f64),
                r.peak_store.to_string(),
                cell(r.error),
            ]),
            Err(e) => t.push(vec![tech.name().to_string(), e]),
        }
    }
    vec![t]
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut experiment = String::new();
    let mut opts = Opts {
        rows: 100_000,
        quick: false,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--rows" => {
                opts.rows = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--rows needs a number"));
            }
            "--quick" => {
                opts.quick = true;
                opts.rows = opts.rows.min(10_000);
            }
            other if experiment.is_empty() && !other.starts_with('-') => {
                experiment = other.to_string();
            }
            other => die(&format!("unknown argument {other}")),
        }
    }
    if experiment.is_empty() {
        die(
            "usage: reproduce <fig8|fig9|fig10a|fig10b|fig10c|fig11|skew|joins|table1|workshare|all> \
             [--rows N] [--quick]",
        );
    }

    let tables = match experiment.as_str() {
        "fig8" => fig8(&opts, false),
        "fig9" => fig9(&opts),
        "fig10a" => fig10a(&opts),
        "fig10b" => fig10b(&opts),
        "fig10c" => fig10c(&opts),
        "fig11" => fig11(&opts),
        "skew" => fig8(&opts, true),
        "table1" => table1(&opts),
        "joins" => joins(&opts),
        "workshare" => workshare(&opts),
        "all" => {
            let mut all = Vec::new();
            all.extend(fig8(&opts, false));
            all.extend(fig9(&opts));
            all.extend(fig10a(&opts));
            all.extend(fig10b(&opts));
            all.extend(fig10c(&opts));
            all.extend(fig11(&opts));
            all.extend(fig8(&opts, true));
            all.extend(joins(&opts));
            all.extend(table1(&opts));
            all.extend(workshare(&opts));
            all
        }
        other => die(&format!("unknown experiment {other}")),
    };
    println!(
        "# ACQUIRE reproduction — experiment `{experiment}` (rows={}, quick={})\n",
        opts.rows, opts.quick
    );
    for table in tables {
        println!("{table}");
    }
}

fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}
