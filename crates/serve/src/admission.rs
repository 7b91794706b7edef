//! Admission control: who gets in, who waits, who is shed, who degrades.
//!
//! Three mechanisms, applied in order on `POST /query`:
//!
//! 1. **Token buckets** ([`RateLimiters`]): a per-client bucket (keyed by
//!    peer IP) and a global bucket. A drained bucket answers `429` with an
//!    honest `Retry-After`. Rates of `0` disable a bucket.
//! 2. **The query gate** ([`QueryGate`]): a bounded concurrency limit plus
//!    a bounded pending queue. A full queue — or a queue wait that outlives
//!    its patience or the server — answers `503` with `Retry-After`.
//! 3. **Graceful degradation**: admissions above the high-water mark
//!    ([`QueryGate::degrade_at`]) are flagged `degraded` on
//!    [`Admission::Admitted`]; the handler shrinks their
//!    [`acquire_core::ExecutionBudget`] so they return partial anytime
//!    answers quickly instead of being shed.
//!
//! Everything here is `std`-only: a `Mutex`-guarded bucket map and a
//! `Mutex`+`Condvar` gate. None of this is on the instrument-commit path —
//! admission *decides* before the query runs; the wait in
//! [`QueryGate::admit`] is the product, not contention.

use std::collections::BTreeMap;
use std::net::IpAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use acquire_core::CancellationToken;

/// Queue waiters poll the shutdown token this often.
const GATE_POLL: Duration = Duration::from_millis(50);

/// Retained per-client buckets; oldest-keyed entries are evicted beyond
/// this, bounding memory under an address-diverse flood.
pub const MAX_TRACKED_CLIENTS: usize = 4096;

/// Per-client buckets idle (no `check` touch) for this long are swept.
/// Generous compared to any real refill horizon: a bucket idle this long
/// has long since refilled to `burst`, so recreating it fresh is lossless.
pub const CLIENT_TTL: Duration = Duration::from_secs(300);

/// The TTL sweep runs at most this often, amortising the map scan instead
/// of paying it on every request.
pub const SWEEP_INTERVAL: Duration = Duration::from_secs(60);

/// A standard token bucket: `rate` tokens/second refill up to `burst`.
#[derive(Debug, Clone)]
pub struct TokenBucket {
    rate: f64,
    burst: f64,
    tokens: f64,
    refilled: Instant,
}

impl TokenBucket {
    /// A full bucket. `rate <= 0` builds a bucket that never limits.
    #[must_use]
    pub fn new(rate: f64, burst: f64, now: Instant) -> Self {
        Self {
            rate,
            burst: burst.max(1.0),
            tokens: burst.max(1.0),
            refilled: now,
        }
    }

    /// Takes one token at `now`. `Ok(())` admits; `Err(secs)` is the
    /// suggested `Retry-After` (rounded up, at least 1s).
    pub fn try_acquire(&mut self, now: Instant) -> Result<(), u32> {
        if self.rate <= 0.0 {
            return Ok(());
        }
        let dt = now.saturating_duration_since(self.refilled).as_secs_f64();
        self.tokens = (self.tokens + dt * self.rate).min(self.burst);
        self.refilled = now;
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            Ok(())
        } else {
            let wait = (1.0 - self.tokens) / self.rate;
            Err(wait.ceil().max(1.0) as u32)
        }
    }
}

/// The per-client bucket map plus its sweep bookkeeping, guarded together.
#[derive(Debug)]
struct ClientBuckets {
    map: BTreeMap<IpAddr, TokenBucket>,
    last_sweep: Instant,
}

/// The rate-limiting front door: one global bucket plus per-client buckets.
#[derive(Debug)]
pub struct RateLimiters {
    client_rate: f64,
    client_burst: f64,
    global: Mutex<TokenBucket>,
    clients: Mutex<ClientBuckets>,
    // Relaxed is sound: an independent monotonic tally, drained wholesale
    // into the telemetry counter; no cross-variable ordering is implied.
    evicted: AtomicU64,
}

impl RateLimiters {
    /// Builds both tiers; a rate of `0` disables that tier.
    #[must_use]
    pub fn new(client_rate: f64, client_burst: f64, global_rate: f64, global_burst: f64) -> Self {
        let now = Instant::now();
        Self {
            client_rate,
            client_burst,
            global: Mutex::new(TokenBucket::new(global_rate, global_burst, now)),
            clients: Mutex::new(ClientBuckets {
                map: BTreeMap::new(),
                last_sweep: now,
            }),
            evicted: AtomicU64::new(0),
        }
    }

    /// Checks the caller against its per-client bucket, then the global
    /// one. `Err(secs)` is the larger applicable `Retry-After`.
    pub fn check(&self, peer: Option<IpAddr>) -> Result<(), u32> {
        self.check_at(peer, Instant::now())
    }

    /// [`check`](Self::check) with an injected clock, so floods that span
    /// simulated hours (TTL sweeps, refill horizons) are testable in
    /// microseconds.
    pub fn check_at(&self, peer: Option<IpAddr>, now: Instant) -> Result<(), u32> {
        if self.client_rate > 0.0 {
            if let Some(ip) = peer {
                let mut clients = self.clients.lock().unwrap_or_else(PoisonError::into_inner);
                self.sweep(&mut clients, now);
                if clients.map.len() >= MAX_TRACKED_CLIENTS && !clients.map.contains_key(&ip) {
                    // Bounded memory beats per-client fairness under an
                    // address-diverse flood; the global bucket still holds.
                    let evict = clients.map.keys().next().copied();
                    if let Some(k) = evict {
                        clients.map.remove(&k);
                        self.evicted.fetch_add(1, Ordering::Relaxed); // relaxed-ok: monotonic tally, no ordering implied
                    }
                }
                let bucket = clients
                    .map
                    .entry(ip)
                    .or_insert_with(|| TokenBucket::new(self.client_rate, self.client_burst, now));
                bucket.try_acquire(now)?;
            }
        }
        self.global
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .try_acquire(now)
    }

    /// Drops buckets idle past [`CLIENT_TTL`], at most once per
    /// [`SWEEP_INTERVAL`]. Without this, one slow address-diverse drip
    /// (one request per spoofed IP) pins `MAX_TRACKED_CLIENTS` dead
    /// buckets forever; with it the map tracks only the working set.
    fn sweep(&self, clients: &mut ClientBuckets, now: Instant) {
        if now.saturating_duration_since(clients.last_sweep) < SWEEP_INTERVAL {
            return;
        }
        clients.last_sweep = now;
        let before = clients.map.len();
        clients
            .map
            .retain(|_, b| now.saturating_duration_since(b.refilled) < CLIENT_TTL);
        let swept = (before - clients.map.len()) as u64;
        if swept > 0 {
            self.evicted.fetch_add(swept, Ordering::Relaxed); // relaxed-ok: monotonic tally, no ordering implied
        }
    }

    /// Per-client buckets currently tracked.
    #[must_use]
    pub fn tracked_clients(&self) -> usize {
        self.clients
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .map
            .len()
    }

    /// Drains the pending eviction tally (TTL sweep + size cap). The
    /// caller folds the delta into the cumulative
    /// `acq_serve_clients_evicted_total` counter, so draining keeps the
    /// exported series monotone while this internal tally stays small.
    pub fn take_evicted(&self) -> u64 {
        self.evicted.swap(0, Ordering::Relaxed) // relaxed-ok: monotonic tally, no ordering implied
    }
}

/// The outcome of one [`QueryGate::admit`] call.
#[derive(Debug, PartialEq, Eq)]
pub enum Admission {
    /// Run it. `queued` records a wait in the pending queue; `degraded`
    /// asks the handler to shrink the execution budget.
    Admitted {
        /// Whether this admission waited in the pending queue first.
        queued: bool,
        /// Whether the load high-water mark was crossed.
        degraded: bool,
    },
    /// Shed with `503`; the payload is the suggested `Retry-After` seconds.
    Shed(u32),
}

#[derive(Debug, Default)]
struct GateState {
    active: usize,
    waiting: usize,
}

/// A bounded concurrency gate with a bounded pending queue.
#[derive(Debug)]
pub struct QueryGate {
    state: Mutex<GateState>,
    freed: Condvar,
    max_active: usize,
    max_queued: usize,
    queue_wait: Duration,
    degrade_at: usize,
}

impl QueryGate {
    /// A gate admitting `max_active` concurrent queries, queueing at most
    /// `max_queued` more for up to `queue_wait`, and flagging admissions
    /// beyond `ceil(max_active * watermark)` as degraded.
    #[must_use]
    pub fn new(max_active: usize, max_queued: usize, queue_wait: Duration, watermark: f64) -> Self {
        let max_active = max_active.max(1);
        let w = if watermark.is_finite() {
            watermark.clamp(0.0, 1.0)
        } else {
            1.0
        };
        Self {
            state: Mutex::new(GateState::default()),
            freed: Condvar::new(),
            max_active,
            max_queued,
            queue_wait,
            degrade_at: (max_active as f64 * w).ceil() as usize,
        }
    }

    /// The high-water mark: admissions that push the active count *above*
    /// this degrade.
    #[must_use]
    pub fn degrade_at(&self) -> usize {
        self.degrade_at
    }

    /// Currently executing queries.
    #[must_use]
    pub fn active(&self) -> usize {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .active
    }

    /// Currently queued admissions.
    #[must_use]
    pub fn queued(&self) -> usize {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .waiting
    }

    /// Tries to admit one query, waiting in the bounded queue if the gate
    /// is full. Returns [`Admission::Shed`] when the queue is full, the
    /// wait expires, or `shutdown` flips — admitted work keeps its slot
    /// until the returned [`Permit`] drops.
    pub fn admit(&self, shutdown: &CancellationToken) -> (Admission, Option<Permit<'_>>) {
        let retry: u32 = self.queue_wait.as_secs().max(1) as u32;
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if st.active < self.max_active {
            st.active += 1;
            // Degrade once the new occupancy crosses the high-water mark;
            // watermark 1.0 means direct admissions never degrade.
            let degraded = st.active > self.degrade_at;
            return (
                Admission::Admitted {
                    queued: false,
                    degraded,
                },
                Some(Permit { gate: self }),
            );
        }
        if st.waiting >= self.max_queued || shutdown.is_cancelled() {
            return (Admission::Shed(retry), None);
        }
        st.waiting += 1;
        let deadline = Instant::now() + self.queue_wait;
        loop {
            let now = Instant::now();
            // Shutdown (and deadline) outrank a freed slot: a graceful stop
            // drains *admitted* work and honestly rejects everything still
            // queued, even when the draining work frees slots.
            if shutdown.is_cancelled() || now >= deadline {
                st.waiting -= 1;
                return (Admission::Shed(retry), None);
            }
            if st.active < self.max_active {
                st.waiting -= 1;
                st.active += 1;
                // Having queued at all is the degradation signal: the gate
                // was saturated when this query arrived.
                return (
                    Admission::Admitted {
                        queued: true,
                        degraded: true,
                    },
                    Some(Permit { gate: self }),
                );
            }
            let slice = (deadline - now).min(GATE_POLL);
            let (guard, _) = self
                .freed
                .wait_timeout(st, slice)
                .unwrap_or_else(PoisonError::into_inner);
            st = guard;
        }
    }

    fn release(&self) {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        st.active = st.active.saturating_sub(1);
        drop(st);
        self.freed.notify_one();
    }
}

/// RAII slot in the gate: dropping it frees the slot and wakes one waiter.
#[derive(Debug)]
pub struct Permit<'a> {
    gate: &'a QueryGate,
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.gate.release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_bucket_drains_refills_and_suggests_retry() {
        let t0 = Instant::now();
        let mut b = TokenBucket::new(2.0, 2.0, t0);
        assert_eq!(b.try_acquire(t0), Ok(()));
        assert_eq!(b.try_acquire(t0), Ok(()));
        let retry = b.try_acquire(t0).unwrap_err();
        assert!(retry >= 1, "retry-after must be at least a second");
        // Half a second refills one token at 2/s.
        assert_eq!(b.try_acquire(t0 + Duration::from_millis(500)), Ok(()));
        // Rate 0 disables the bucket entirely.
        let mut open = TokenBucket::new(0.0, 1.0, t0);
        for _ in 0..100 {
            assert_eq!(open.try_acquire(t0), Ok(()));
        }
    }

    #[test]
    fn limiters_apply_per_client_then_global() {
        let lim = RateLimiters::new(1000.0, 2.0, 1000.0, 3.0);
        let a: IpAddr = "10.0.0.1".parse().unwrap();
        let b: IpAddr = "10.0.0.2".parse().unwrap();
        assert!(lim.check(Some(a)).is_ok());
        assert!(lim.check(Some(a)).is_ok());
        assert!(
            lim.check(Some(a)).is_err(),
            "client a's burst of 2 is spent"
        );
        assert!(lim.check(Some(b)).is_ok(), "client b has its own bucket");
        // Global burst of 3 is now spent too (a:2 + b:1).
        assert!(lim.check(Some(b)).is_err());
        // No peer address: only the global tier applies.
        let open = RateLimiters::new(1000.0, 1.0, 0.0, 1.0);
        assert!(open.check(None).is_ok());
        assert!(open.check(None).is_ok());
    }

    #[test]
    fn gate_admits_queues_and_sheds() {
        let gate = QueryGate::new(2, 1, Duration::from_millis(200), 1.0);
        let shutdown = CancellationToken::new();
        let (a1, p1) = gate.admit(&shutdown);
        let (a2, p2) = gate.admit(&shutdown);
        assert!(matches!(a1, Admission::Admitted { queued: false, .. }));
        assert!(matches!(a2, Admission::Admitted { queued: false, .. }));
        assert_eq!(gate.active(), 2);
        // Third admit queues in a helper thread; once it is visibly
        // waiting, free a slot and it must come through as queued+degraded.
        let (a3, p3) = std::thread::scope(|s| {
            let waiter = s.spawn(|| gate.admit(&shutdown));
            while gate.queued() == 0 {
                std::thread::yield_now();
            }
            drop(p1);
            waiter.join().unwrap()
        });
        assert!(
            matches!(
                a3,
                Admission::Admitted {
                    queued: true,
                    degraded: true
                }
            ),
            "a queued admission is queued and degraded: {a3:?}"
        );
        // Gate full again (a2 + a3); a fresh waiter times out and is shed.
        let gate_short = QueryGate::new(1, 1, Duration::from_millis(150), 1.0);
        let (_, hold) = gate_short.admit(&shutdown);
        let (a4, p4) = gate_short.admit(&shutdown);
        assert!(matches!(a4, Admission::Shed(_)), "{a4:?}");
        assert!(p4.is_none());
        drop(hold);
        drop(p2);
        drop(p3);
        assert_eq!(gate.active(), 0);
    }

    #[test]
    fn gate_sheds_queue_overflow_and_shutdown() {
        let gate = QueryGate::new(1, 0, Duration::from_secs(5), 1.0);
        let shutdown = CancellationToken::new();
        let (_, permit) = gate.admit(&shutdown);
        // max_queued = 0: overflow sheds immediately, no 5s wait.
        let t0 = Instant::now();
        let (a, _) = gate.admit(&shutdown);
        assert!(matches!(a, Admission::Shed(_)));
        assert!(t0.elapsed() < Duration::from_secs(1));
        // Cancelled token sheds immediately as well.
        shutdown.cancel();
        let (a, _) = gate.admit(&shutdown);
        assert!(matches!(a, Admission::Shed(_)));
        drop(permit);
    }

    #[test]
    fn watermark_degrades_above_the_line() {
        // max_active 4, watermark 0.5 → degrade_at 2: the 3rd and 4th
        // concurrent admissions run with shrunken budgets.
        let gate = QueryGate::new(4, 4, Duration::from_millis(100), 0.5);
        assert_eq!(gate.degrade_at(), 2);
        let shutdown = CancellationToken::new();
        let (a1, _p1) = gate.admit(&shutdown);
        let (a2, _p2) = gate.admit(&shutdown);
        let (a3, _p3) = gate.admit(&shutdown);
        for (a, want) in [(&a1, false), (&a2, false), (&a3, true)] {
            assert_eq!(
                *a,
                Admission::Admitted {
                    queued: false,
                    degraded: want
                }
            );
        }
        // Watermark 1.0: no direct admission ever degrades.
        let lax = QueryGate::new(2, 2, Duration::from_millis(100), 1.0);
        let (b1, _q1) = lax.admit(&shutdown);
        let (b2, _q2) = lax.admit(&shutdown);
        for a in [&b1, &b2] {
            assert!(
                matches!(
                    a,
                    Admission::Admitted {
                        degraded: false,
                        ..
                    }
                ),
                "{a:?}"
            );
        }
    }
}
