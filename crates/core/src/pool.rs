//! A per-batch work-stealing worker pool for the parallel Explore phase.
//!
//! All cell sub-queries of one Expand layer are mutually independent
//! (Theorem 2 orders layers; within a layer cells partition score space),
//! so [`execute_batch`] evaluates them concurrently against a shared
//! [`ParallelCells`] backend. Determinism is preserved by construction:
//! workers only *execute* cells and deposit the results into per-cell
//! slots; the driver then merges (Eq. 17), accounts, and collects answers
//! strictly in emission order. The thread schedule can therefore change
//! which worker computes a value, but never the value — outcomes are
//! bit-identical to a serial run for any worker count.
//!
//! Scheduling is work-stealing over index ranges: each worker owns a
//! contiguous chunk of the batch behind an atomic cursor and, once its own
//! chunk is drained, claims cells from other workers' chunks via the same
//! `fetch_add` protocol. A claim is unique, so no cell is ever executed
//! twice — the §5 at-most-once invariant holds across threads, interrupts,
//! and mid-cell panics (a panicking cell still counts as its one
//! execution; the panic is caught per cell and surfaces as a
//! [`CellOutcome::Panicked`] slot, never as a crashed worker).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use acq_engine::{AggState, CellRange, EngineError};
use acq_obs::Obs;

use crate::driver::panic_message;
use crate::eval::{CellCost, ParallelCells};
use crate::govern::Governor;

/// What one speculative cell execution produced.
#[derive(Debug)]
pub(crate) enum CellOutcome {
    /// The cell executed: its aggregate state plus deferred accounting.
    Done(AggState, CellCost),
    /// The backend returned an error for this cell.
    Failed(EngineError),
    /// The backend panicked evaluating this cell (payload text).
    Panicked(String),
}

/// Evaluates every cell of `cells` on `workers` threads, returning one slot
/// per cell in input order.
///
/// A slot is `None` only if every worker observed [`Governor::aborted`]
/// before claiming it. Both abort conditions (sticky cancellation, passed
/// deadline) are monotone, so once the caller reads the governor's clock
/// after the batch ([`Governor::lap`]), the commit loop's own
/// [`Governor::check`] necessarily fires before it reaches an abandoned
/// slot; callers may still
/// fall back to serial evaluation for a `None` slot — the cell was provably
/// never executed, so re-executing it cannot violate at-most-once.
pub(crate) fn execute_batch(
    par: &dyn ParallelCells,
    cells: &[Vec<CellRange>],
    workers: usize,
    governor: &Governor,
    obs: &Obs,
) -> Vec<Option<CellOutcome>> {
    let n = cells.len();
    let workers = workers.clamp(1, n.max(1));
    let chunk = n.div_ceil(workers);
    // Worker `w` owns indices [w·chunk, min((w+1)·chunk, n)); the cursor is
    // the next unclaimed index of that chunk. `fetch_add` makes each claim
    // unique even when several thieves race on one cursor.
    let cursors: Vec<AtomicUsize> = (0..workers).map(|w| AtomicUsize::new(w * chunk)).collect();
    let ends: Vec<usize> = (0..workers).map(|w| ((w + 1) * chunk).min(n)).collect();
    let slots: Vec<OnceLock<CellOutcome>> = (0..n).map(|_| OnceLock::new()).collect();

    let metrics = obs.metrics();
    std::thread::scope(|scope| {
        for w in 0..workers {
            let (cursors, ends, slots) = (&cursors, &ends, &slots);
            scope.spawn(move || {
                // Own chunk first, then steal from the others in ring order.
                'victims: for v in 0..workers {
                    let victim = (w + v) % workers;
                    loop {
                        if governor.aborted() {
                            break 'victims;
                        }
                        // Claim uniqueness needs only the RMW total order
                        // on this single atomic: `fetch_add` hands each index
                        // to exactly one worker, and results publish through
                        // `OnceLock::set`'s release/acquire edge (DESIGN.md,
                        // "Memory ordering in the worker pool").
                        // relaxed-ok: per-atomic RMW order suffices for unique claims
                        let i = cursors[victim].fetch_add(1, Ordering::Relaxed);
                        if i >= ends[victim] {
                            break;
                        }
                        let outcome = match catch_unwind(AssertUnwindSafe(|| {
                            par.cell_aggregate_shared(&cells[i])
                        })) {
                            Ok(Ok((state, cost))) => CellOutcome::Done(state, cost),
                            Ok(Err(e)) => CellOutcome::Failed(e),
                            Err(payload) => CellOutcome::Panicked(panic_message(payload)),
                        };
                        if let Some(m) = metrics {
                            m.record_worker_cell(w, v != 0);
                        }
                        if slots[i].set(outcome).is_err() {
                            // Two claims of one index would be a broken §5
                            // at-most-once invariant; the counter makes it
                            // observable instead of silent.
                            if let Some(m) = metrics {
                                // worker-metric-ok: alarm counter; any nonzero value is the signal
                                m.at_most_once_violations.inc();
                            }
                        }
                    }
                }
            });
        }
    });

    slots.into_iter().map(OnceLock::into_inner).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::govern::{CancellationToken, ExecutionBudget};
    use acq_engine::EngineResult;
    use std::sync::atomic::AtomicU64;

    /// A backend whose cell value encodes the cell's first coordinate, with
    /// optional per-cell error/panic behaviour and an execution counter.
    struct Probe {
        executions: Vec<AtomicU64>,
        fail_at: Option<usize>,
        panic_at: Option<usize>,
    }

    impl Probe {
        fn new(n: usize) -> Self {
            Self {
                executions: (0..n).map(|_| AtomicU64::new(0)).collect(),
                fail_at: None,
                panic_at: None,
            }
        }

        fn index_of(cell: &[CellRange]) -> usize {
            match cell[0] {
                CellRange::Zero => 0,
                CellRange::Open { hi, .. } => hi as usize,
            }
        }
    }

    impl ParallelCells for Probe {
        fn cell_aggregate_shared(&self, cell: &[CellRange]) -> EngineResult<(AggState, CellCost)> {
            let i = Self::index_of(cell);
            self.executions[i].fetch_add(1, Ordering::Relaxed);
            if self.fail_at == Some(i) {
                return Err(EngineError::Fault(format!("cell {i} failed")));
            }
            assert!(self.panic_at != Some(i), "cell {i} panicked");
            let mut state = AggState::empty(
                &acq_query::AggregateSpec::count(),
                &acq_engine::UdaRegistry::new(),
            )?;
            for _ in 0..i {
                state.update(1.0);
            }
            Ok((
                state,
                CellCost {
                    tuples_scanned: i as u64,
                    ..CellCost::default()
                },
            ))
        }
    }

    fn cells(n: usize) -> Vec<Vec<CellRange>> {
        (0..n)
            .map(|i| {
                vec![if i == 0 {
                    CellRange::Zero
                } else {
                    CellRange::Open {
                        lo: 0.0,
                        hi: i as f64,
                    }
                }]
            })
            .collect()
    }

    fn governor() -> Governor {
        Governor::new(ExecutionBudget::unlimited(), CancellationToken::new())
    }

    #[test]
    fn every_cell_executes_exactly_once_for_any_worker_count() {
        for workers in [1, 2, 3, 4, 8, 17] {
            let probe = Probe::new(100);
            let out = execute_batch(&probe, &cells(100), workers, &governor(), &Obs::disabled());
            assert_eq!(out.len(), 100);
            for (i, slot) in out.iter().enumerate() {
                match slot {
                    Some(CellOutcome::Done(state, cost)) => {
                        assert_eq!(state.value(), Some(i as f64), "slot {i}");
                        assert_eq!(cost.tuples_scanned, i as u64);
                    }
                    other => panic!("slot {i}: unexpected {other:?}"),
                }
                assert_eq!(
                    probe.executions[i].load(Ordering::Relaxed),
                    1,
                    "cell {i} executed once ({workers} workers)"
                );
            }
        }
    }

    #[test]
    fn errors_and_panics_stay_in_their_slot() {
        let mut probe = Probe::new(20);
        probe.fail_at = Some(7);
        probe.panic_at = Some(13);
        let out = execute_batch(&probe, &cells(20), 4, &governor(), &Obs::disabled());
        for (i, slot) in out.iter().enumerate() {
            match (i, slot) {
                (7, Some(CellOutcome::Failed(e))) => {
                    assert!(e.to_string().contains("cell 7 failed"));
                }
                (13, Some(CellOutcome::Panicked(msg))) => {
                    assert!(msg.contains("cell 13 panicked"), "{msg}");
                }
                (7 | 13, other) => panic!("slot {i}: unexpected {other:?}"),
                (_, Some(CellOutcome::Done(..))) => {}
                (_, other) => panic!("slot {i}: unexpected {other:?}"),
            }
            // A panicking cell still counts as its one execution.
            assert_eq!(probe.executions[i].load(Ordering::Relaxed), 1);
        }
    }

    #[test]
    fn aborted_governor_abandons_without_executing() {
        let token = CancellationToken::new();
        token.cancel();
        let governor = Governor::new(ExecutionBudget::unlimited(), token);
        let probe = Probe::new(50);
        let out = execute_batch(&probe, &cells(50), 4, &governor, &Obs::disabled());
        assert!(out.iter().all(Option::is_none), "no slot filled");
        let total: u64 = probe
            .executions
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum();
        assert_eq!(total, 0, "abandoned cells were never executed");
    }

    #[test]
    fn observability_accounts_every_speculative_execution() {
        let obs = Obs::enabled();
        let probe = Probe::new(60);
        let out = execute_batch(&probe, &cells(60), 4, &governor(), &obs);
        assert_eq!(out.iter().filter(|s| s.is_some()).count(), 60);
        let snap = obs.snapshot().unwrap();
        assert_eq!(snap.counter("cells_speculative"), Some(60));
        assert_eq!(snap.counter("at_most_once_violations"), Some(0));
        let per_worker: u64 = snap.workers.iter().map(|&(_, c, _)| c).sum();
        assert_eq!(per_worker, 60, "worker tallies cover the batch");
    }
}
