//! Resource governance: budgets, deadlines, cancellation, and termination
//! status for anytime execution.
//!
//! ACQUIRE is an anytime algorithm in practice: the driver tracks the
//! closest-so-far query from the very first grid point it explores, so an
//! interrupted search still returns its best answer. This module supplies
//! the machinery that decides *when* to interrupt:
//!
//! * [`ExecutionBudget`] — a wall-clock deadline, an explored-query budget,
//!   and an approximate memory budget for retained sub-aggregates, all
//!   checked cooperatively before every explored grid query (the deadline
//!   on the clock's latest reading, see [`Governor::check`]).
//! * [`CancellationToken`] — a cheaply clonable handle that lets the owner
//!   of a [`crate::Session`] (or any other thread) interrupt a running
//!   search.
//! * [`Termination`] / [`InterruptReason`] — a machine-readable account of
//!   why the search stopped, carried on every [`crate::AcqOutcome`].
//! * [`Governor`] — the driver-internal combination of the above, and the
//!   search's one clock.
//!
//! Budgets are *cooperative*: they are checked between grid queries, never
//! mid-evaluation. A search overruns its deadline by at most one
//! evaluation-layer call plus the read stride: about 100 µs of cells at the
//! rate the search last ran at, and never more than 64 cells.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use acq_obs::Obs;

/// Resource limits for one ACQUIRE search. The default is unlimited.
///
/// Limits compose: the first one hit interrupts the search, and the
/// resulting [`crate::AcqOutcome`] carries the closest query found so far
/// plus a [`Termination::Interrupted`] status naming the limit.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ExecutionBudget {
    /// Wall-clock deadline, measured from the start of the search.
    pub deadline: Option<Duration>,
    /// Maximum number of grid queries to explore.
    pub max_explored: Option<u64>,
    /// Approximate cap, in bytes, on retained sub-aggregate state
    /// (see [`crate::AggStore::approx_bytes`]).
    pub max_store_bytes: Option<usize>,
}

impl ExecutionBudget {
    /// No limits (the default).
    #[must_use]
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Same budget with a wall-clock deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Same budget with an explored-query cap.
    #[must_use]
    pub fn with_max_explored(mut self, max_explored: u64) -> Self {
        self.max_explored = Some(max_explored);
        self
    }

    /// Same budget with an approximate memory cap for retained
    /// sub-aggregates.
    #[must_use]
    pub fn with_max_store_bytes(mut self, max_store_bytes: usize) -> Self {
        self.max_store_bytes = Some(max_store_bytes);
        self
    }

    /// Whether no limit is set at all.
    #[must_use]
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.max_explored.is_none() && self.max_store_bytes.is_none()
    }

    /// This budget scaled down by `factor` (clamped to `0.0..=1.0`): every
    /// limit that is set shrinks proportionally, limits that are unset stay
    /// unset. This is the degraded-admission budget for overload serving —
    /// past a load high-water mark, a server admits new searches with
    /// `budget.shrunk(f)` so they return partial anytime answers quickly
    /// instead of being shed outright.
    #[must_use]
    pub fn shrunk(&self, factor: f64) -> Self {
        let f = if factor.is_finite() {
            factor.clamp(0.0, 1.0)
        } else {
            1.0
        };
        Self {
            deadline: self.deadline.map(|d| d.mul_f64(f)),
            max_explored: self.max_explored.map(|n| (n as f64 * f) as u64),
            max_store_bytes: self.max_store_bytes.map(|b| (b as f64 * f) as usize),
        }
    }
}

/// A shareable handle for interrupting a running search.
///
/// Clones share one flag; cancelling any clone interrupts every search
/// polling the token. Cancellation is sticky and cooperative: the driver
/// notices it between grid queries and returns the closest-so-far outcome
/// with [`InterruptReason::Cancelled`].
#[derive(Debug, Clone, Default)]
pub struct CancellationToken {
    flag: Arc<AtomicBool>,
}

impl CancellationToken {
    /// A fresh, un-cancelled token.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation of every search holding a clone of this token.
    pub fn cancel(&self) {
        // relaxed-ok: sticky monotone flag; no payload is published through it
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        // relaxed-ok: a late `true` only delays the stop by one poll
        self.flag.load(Ordering::Relaxed)
    }
}

/// Why a search was interrupted before running to completion.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum InterruptReason {
    /// The wall-clock deadline of [`ExecutionBudget::deadline`] passed.
    DeadlineExceeded,
    /// [`ExecutionBudget::max_explored`] (or the legacy
    /// [`crate::AcquireConfig::max_explored`] cap) was reached.
    ExploredBudget,
    /// Retained sub-aggregates exceeded
    /// [`ExecutionBudget::max_store_bytes`].
    MemoryBudget,
    /// A [`CancellationToken`] was cancelled.
    Cancelled,
    /// The evaluation layer failed or panicked and the configured
    /// [`FaultPolicy`] is [`FaultPolicy::BestEffort`]; the payload
    /// describes the fault.
    Fault(String),
}

impl InterruptReason {
    /// Stable machine-readable name used in JSON sinks (CLI `--json`, the
    /// serve registry, explain profiles).
    #[must_use]
    pub fn slug(&self) -> &'static str {
        match self {
            Self::DeadlineExceeded => "deadline",
            Self::ExploredBudget => "explored-budget",
            Self::MemoryBudget => "memory-budget",
            Self::Cancelled => "cancelled",
            Self::Fault(_) => "fault",
        }
    }
}

impl std::fmt::Display for InterruptReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::DeadlineExceeded => f.write_str("deadline exceeded"),
            Self::ExploredBudget => f.write_str("explored-query budget exhausted"),
            Self::MemoryBudget => f.write_str("sub-aggregate memory budget exhausted"),
            Self::Cancelled => f.write_str("cancelled"),
            Self::Fault(msg) => write!(f, "evaluation fault: {msg}"),
        }
    }
}

/// How a search ended, carried on every [`crate::AcqOutcome`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Termination {
    /// The answer layer closed normally with at least one satisfying query.
    Satisfied,
    /// The refined space was exhausted (or structurally capped) without a
    /// satisfying query; the outcome's `closest` is the final answer.
    Exhausted,
    /// The search stopped early; the outcome carries the closest-so-far
    /// query and everything found up to the interrupt.
    Interrupted {
        /// What interrupted the search.
        reason: InterruptReason,
        /// Grid queries explored before the interrupt.
        explored: u64,
        /// Wall-clock time elapsed before the interrupt.
        elapsed: Duration,
    },
}

impl Termination {
    /// Whether the search ran to completion (successfully or not).
    #[must_use]
    pub fn is_complete(&self) -> bool {
        !matches!(self, Self::Interrupted { .. })
    }

    /// The interrupt reason, if the search was interrupted.
    #[must_use]
    pub fn interrupt_reason(&self) -> Option<&InterruptReason> {
        match self {
            Self::Interrupted { reason, .. } => Some(reason),
            _ => None,
        }
    }

    /// Stable machine-readable status name: `"satisfied"`, `"exhausted"`,
    /// or the interrupt's [`InterruptReason::slug`].
    #[must_use]
    pub fn slug(&self) -> &'static str {
        match self {
            Self::Satisfied => "satisfied",
            Self::Exhausted => "exhausted",
            Self::Interrupted { reason, .. } => reason.slug(),
        }
    }
}

impl std::fmt::Display for Termination {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Satisfied => f.write_str("satisfied"),
            Self::Exhausted => f.write_str("exhausted"),
            Self::Interrupted {
                reason,
                explored,
                elapsed,
            } => write!(
                f,
                "interrupted ({reason}) after {explored} queries in {elapsed:?}"
            ),
        }
    }
}

/// What the driver does when the evaluation layer returns an error or
/// panics mid-search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultPolicy {
    /// Propagate the failure as a typed [`crate::CoreError`] (the default;
    /// panics become [`crate::CoreError::EvalPanicked`]).
    #[default]
    Propagate,
    /// Treat the failure as an interrupt: return the closest-so-far outcome
    /// with [`InterruptReason::Fault`] instead of an error. Construction
    /// and validation failures still propagate — only mid-search
    /// evaluation faults are absorbed.
    BestEffort,
}

/// Most grid queries a [`Governor`] lets pass between two readings of the
/// deadline clock.
const MAX_READ_STRIDE: u64 = 64;

/// Wall time a [`Governor`] aims to let pass between two readings of the
/// deadline clock, at the cell rate it last observed.
const READ_INTERVAL: Duration = Duration::from_micros(100);

/// Driver-internal budget/cancellation checker, and the search's one clock;
/// one per search.
///
/// A clock read costs about as much as a cached cell, so the deadline is not
/// read before every grid query: after each reading the governor sizes the
/// gap to the next one from the cell rate it has observed, so that about
/// 100 µs pass between readings — every cell when cells are slow (a scan
/// layer, a large table), every 64 cells at most when they are fast. Cancellation and the explored and memory budgets are checked on
/// every call.
#[derive(Debug)]
pub struct Governor {
    start: Instant,
    budget: ExecutionBudget,
    token: CancellationToken,
    obs: Obs,
    /// The explored count at which [`Governor::check`] next reads the clock.
    next_read: u64,
    /// The explored count and elapsed time of the latest clock reading.
    last_read: (u64, Duration),
}

impl Governor {
    /// Starts the clock on a new search.
    #[must_use]
    pub fn new(budget: ExecutionBudget, token: CancellationToken) -> Self {
        Self::with_obs(budget, token, Obs::disabled())
    }

    /// Starts the clock on a new search, recording interrupt events on
    /// `obs`.
    #[must_use]
    pub fn with_obs(budget: ExecutionBudget, token: CancellationToken, obs: Obs) -> Self {
        Self {
            start: Instant::now(),
            budget,
            token,
            obs,
            next_read: 0,
            last_read: (0, Duration::ZERO),
        }
    }

    /// Wall-clock time since the search started.
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Reads the clock with `explored` grid queries done — a layer
    /// timestamp for the caller — and counts the reading as one of the
    /// deadline's, so the next [`Governor::check`] judges the deadline on it.
    pub fn lap(&mut self, explored: u64) -> Duration {
        let now = self.elapsed();
        self.pace(explored, now);
        now
    }

    /// Records a clock reading and schedules the next: `READ_INTERVAL`
    /// ahead at the cell rate since the previous reading, at least one cell
    /// and at most `MAX_READ_STRIDE`. With no cell
    /// since the previous reading there is no rate yet: the next cell reads.
    fn pace(&mut self, explored: u64, now: Duration) {
        let (then, at) = self.last_read;
        let cells = u128::from(explored.saturating_sub(then));
        let gap = match (cells, now.saturating_sub(at).as_nanos()) {
            (0, _) => 1,
            (_, 0) => MAX_READ_STRIDE,
            (cells, took) => (cells * READ_INTERVAL.as_nanos() / took)
                .clamp(1, u128::from(MAX_READ_STRIDE)) as u64,
        };
        self.next_read = explored + gap;
        self.last_read = (explored, now);
    }

    /// Checks every limit against the current progress counters; returns
    /// the first violated one. Called before every grid query's evaluation.
    ///
    /// Cancellation and the explored and memory budgets are checked on
    /// every call. The deadline is judged on the latest clock reading,
    /// taken here at the first call and whenever the read stride (see
    /// [`Governor`]) is used up, or by [`Governor::lap`]: an already-passed
    /// deadline stops the search before its first grid query.
    #[must_use]
    pub fn check(&mut self, explored: u64, store_bytes: usize) -> Option<InterruptReason> {
        if self.token.is_cancelled() {
            return Some(InterruptReason::Cancelled);
        }
        if let Some(cap) = self.budget.max_explored {
            if explored >= cap {
                return Some(InterruptReason::ExploredBudget);
            }
        }
        if let Some(cap) = self.budget.max_store_bytes {
            if store_bytes > cap {
                return Some(InterruptReason::MemoryBudget);
            }
        }
        if let Some(deadline) = self.budget.deadline {
            if explored >= self.next_read {
                let now = self.elapsed();
                self.pace(explored, now);
            }
            if self.last_read.1 >= deadline {
                return Some(InterruptReason::DeadlineExceeded);
            }
        }
        None
    }

    /// Whether the search should stop dead right now: sticky cancellation
    /// or a passed deadline. This is the cheap, commit-order-independent
    /// subset of [`Governor::check`] that parallel workers poll between
    /// cells so a cancelled or over-deadline search stops promptly instead
    /// of draining its speculative batch. Explored/memory budgets are
    /// excluded on purpose — they are functions of commit-order progress,
    /// which workers cannot observe; the driver's commit loop enforces them.
    /// Both conditions are monotone and the driver takes a
    /// [`Governor::lap`] when the pool returns, so any cell a worker
    /// abandons is guaranteed to sit behind a failing [`Governor::check`] in
    /// the commit loop and is never reached.
    #[must_use]
    pub fn aborted(&self) -> bool {
        if self.token.is_cancelled() {
            return true;
        }
        matches!(self.budget.deadline, Some(d) if self.start.elapsed() >= d)
    }

    /// The termination status for an interrupt detected now; records the
    /// interrupt as an event on the governor's [`Obs`] handle.
    #[must_use]
    pub fn interrupted(&self, reason: InterruptReason, explored: u64) -> Termination {
        if let Some(m) = self.obs.metrics() {
            m.interrupts.inc();
        }
        self.obs
            .trace(1, || format!("interrupt: {reason} (explored {explored})"));
        Termination::Interrupted {
            reason,
            explored,
            elapsed: self.elapsed(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_budget_is_unlimited() {
        let b = ExecutionBudget::default();
        assert!(b.is_unlimited());
        let mut g = Governor::new(b, CancellationToken::new());
        assert_eq!(g.check(u64::MAX - 1, usize::MAX - 1), None);
    }

    #[test]
    fn each_limit_trips_independently() {
        let token = CancellationToken::new();
        let mut g = Governor::new(
            ExecutionBudget::unlimited().with_max_explored(10),
            token.clone(),
        );
        assert_eq!(g.check(9, 0), None);
        assert_eq!(g.check(10, 0), Some(InterruptReason::ExploredBudget));

        let mut g = Governor::new(
            ExecutionBudget::unlimited().with_max_store_bytes(1024),
            CancellationToken::new(),
        );
        assert_eq!(g.check(0, 1024), None);
        assert_eq!(g.check(0, 1025), Some(InterruptReason::MemoryBudget));

        let mut g = Governor::new(
            ExecutionBudget::unlimited().with_deadline(Duration::ZERO),
            CancellationToken::new(),
        );
        assert_eq!(g.check(0, 0), Some(InterruptReason::DeadlineExceeded));
    }

    #[test]
    fn the_read_stride_follows_the_cell_rate() {
        let mut g = Governor::new(
            ExecutionBudget::unlimited().with_deadline(Duration::from_secs(3600)),
            CancellationToken::new(),
        );
        // The first check reads; with no cells behind it, the next one does
        // too.
        assert_eq!(g.check(0, 0), None);
        assert_eq!(g.next_read, 1);
        let ms = Duration::from_millis;
        // Slow cells (2 ms each): every cell reads.
        g.last_read = (0, Duration::ZERO);
        g.pace(5, ms(10));
        assert_eq!(g.next_read, 6);
        // 10 cells in 100 µs: ten cells to the next reading.
        g.pace(15, ms(10) + Duration::from_micros(100));
        assert_eq!(g.next_read, 25);
        // Fast cells, or a clock that did not move: the cap.
        g.pace(1_015, ms(11));
        assert_eq!(g.next_read, 1_015 + MAX_READ_STRIDE);
        g.pace(1_016, ms(11));
        assert_eq!(g.next_read, 1_016 + MAX_READ_STRIDE);
    }

    #[test]
    fn the_deadline_is_judged_on_the_latest_reading() {
        let mut g = Governor::new(
            ExecutionBudget::unlimited().with_deadline(Duration::from_secs(3600)),
            CancellationToken::new(),
        );
        assert_eq!(g.check(0, 0), None);
        // A reading past the deadline — a lap's, say — stops the next check
        // before the stride is used up.
        g.next_read = 64;
        g.last_read = (3, Duration::from_secs(3601));
        assert_eq!(g.check(4, 0), Some(InterruptReason::DeadlineExceeded));
        // Without a deadline nothing is read.
        let mut g = Governor::new(ExecutionBudget::unlimited(), CancellationToken::new());
        assert_eq!(g.check(0, 0), None);
        assert_eq!(g.next_read, 0);
    }

    #[test]
    fn shrunk_scales_every_set_limit_and_leaves_unset_ones() {
        let b = ExecutionBudget::unlimited()
            .with_deadline(Duration::from_secs(10))
            .with_max_explored(1000)
            .with_max_store_bytes(4096)
            .shrunk(0.25);
        assert_eq!(b.deadline, Some(Duration::from_millis(2500)));
        assert_eq!(b.max_explored, Some(250));
        assert_eq!(b.max_store_bytes, Some(1024));

        let unlimited = ExecutionBudget::unlimited().shrunk(0.1);
        assert!(unlimited.is_unlimited(), "no limit appears from nowhere");

        // Degenerate factors clamp instead of panicking.
        let b = ExecutionBudget::unlimited()
            .with_deadline(Duration::from_secs(1))
            .shrunk(7.0);
        assert_eq!(b.deadline, Some(Duration::from_secs(1)));
        let b = ExecutionBudget::unlimited()
            .with_max_explored(10)
            .shrunk(-3.0);
        assert_eq!(b.max_explored, Some(0));
        let b = ExecutionBudget::unlimited()
            .with_deadline(Duration::from_secs(1))
            .shrunk(f64::NAN);
        assert_eq!(b.deadline, Some(Duration::from_secs(1)));
    }

    #[test]
    fn cancellation_is_shared_and_sticky() {
        let token = CancellationToken::new();
        let clone = token.clone();
        let mut g = Governor::new(ExecutionBudget::unlimited(), token.clone());
        assert_eq!(g.check(0, 0), None);
        clone.cancel();
        assert!(token.is_cancelled());
        assert_eq!(g.check(0, 0), Some(InterruptReason::Cancelled));
        assert_eq!(g.check(0, 0), Some(InterruptReason::Cancelled));
    }

    #[test]
    fn cancellation_wins_over_other_limits() {
        let token = CancellationToken::new();
        token.cancel();
        let mut g = Governor::new(
            ExecutionBudget::unlimited()
                .with_max_explored(0)
                .with_deadline(Duration::ZERO),
            token,
        );
        assert_eq!(g.check(5, 0), Some(InterruptReason::Cancelled));
    }

    #[test]
    fn aborted_covers_exactly_cancellation_and_deadline() {
        let token = CancellationToken::new();
        let g = Governor::new(
            ExecutionBudget::unlimited()
                .with_max_explored(0)
                .with_max_store_bytes(0),
            token.clone(),
        );
        // Commit-order budgets never abort workers.
        assert!(!g.aborted());
        token.cancel();
        assert!(g.aborted(), "cancellation aborts workers");

        let g = Governor::new(
            ExecutionBudget::unlimited().with_deadline(Duration::ZERO),
            CancellationToken::new(),
        );
        assert!(g.aborted(), "a passed deadline aborts workers");
    }

    #[test]
    fn termination_accessors() {
        assert!(Termination::Satisfied.is_complete());
        assert!(Termination::Exhausted.is_complete());
        let t = Termination::Interrupted {
            reason: InterruptReason::Cancelled,
            explored: 3,
            elapsed: Duration::from_millis(1),
        };
        assert!(!t.is_complete());
        assert_eq!(t.interrupt_reason(), Some(&InterruptReason::Cancelled));
        assert!(t.to_string().contains("cancelled"), "{t}");
    }

    #[test]
    fn slugs_are_stable() {
        assert_eq!(Termination::Satisfied.slug(), "satisfied");
        assert_eq!(Termination::Exhausted.slug(), "exhausted");
        let t = Termination::Interrupted {
            reason: InterruptReason::DeadlineExceeded,
            explored: 1,
            elapsed: Duration::ZERO,
        };
        assert_eq!(t.slug(), "deadline");
        assert_eq!(InterruptReason::ExploredBudget.slug(), "explored-budget");
        assert_eq!(InterruptReason::MemoryBudget.slug(), "memory-budget");
        assert_eq!(InterruptReason::Fault("x".into()).slug(), "fault");
    }
}
