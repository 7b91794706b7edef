//! Live refinement progress: wait-free event sink for layer-boundary commits.
//!
//! The driver emits a [`ProgressEvent`] at every serial layer-boundary commit
//! and one terminal event when the search ends. Events flow through a
//! [`ProgressSink`] — a bounded single-writer ring that *never blocks the
//! commit path*: the writer uses `try_lock` per slot and drops the event
//! (counted) if a reader holds the slot. Readers poll with [`drain_from`]
//! using a monotonically increasing cursor; lapped events are reported as
//! `missed`, never silently skipped.
//!
//! This file is on the lint `progress_sink_paths` grant: `try_push` may only
//! be called from here and from the driver's serial emission points
//! (enforced by acq-lint's obs-discipline contract 5).
//!
//! [`drain_from`]: ProgressSink::drain_from

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Default slot count for a [`ProgressSink`] ring.
pub const DEFAULT_PROGRESS_CAPACITY: usize = 1024;

/// Slots per lazily allocated segment of a sink's ring.
const SEGMENT_SLOTS: usize = 32;

type Slot = Mutex<Option<(u64, ProgressEvent)>>;

/// The ring's slots, allocated a [`SEGMENT_SLOTS`]-slot segment at a time on
/// the writer's first push into it. A typical query emits a few dozen
/// events into a 1 024-slot ring, and a server retains many finished sinks
/// for replay: every slot built up front is ≈ 90 KB per query, which would
/// be nearly all of a server's live heap.
struct Slots {
    /// `capacity / SEGMENT_SLOTS` segments, rounded up; the slots of the
    /// last one at or past `capacity` are never indexed.
    segments: Box<[OnceLock<Box<[Slot; SEGMENT_SLOTS]>>]>,
    capacity: usize,
}

impl Slots {
    fn new(capacity: usize) -> Self {
        let segments = (0..capacity.div_ceil(SEGMENT_SLOTS))
            .map(|_| OnceLock::new())
            .collect();
        Slots { segments, capacity }
    }

    fn len(&self) -> usize {
        self.capacity
    }

    /// Slot `i`, if its segment has been written into (reader side: never
    /// allocates).
    fn get(&self, i: usize) -> Option<&Slot> {
        let segment = self.segments[i / SEGMENT_SLOTS].get()?;
        Some(&segment[i % SEGMENT_SLOTS])
    }

    /// Slot `i`, allocating its segment on first use. Writer side only: with
    /// a single writer `get_or_init` never finds another thread mid-
    /// initialisation, so it cannot wait.
    fn get_or_alloc(&self, i: usize) -> &Slot {
        let segment = self.segments[i / SEGMENT_SLOTS]
            .get_or_init(|| Box::new(std::array::from_fn(|_| Mutex::new(None))));
        &segment[i % SEGMENT_SLOTS]
    }
}

/// One refinement progress observation.
///
/// Emitted at each serial layer-boundary commit (and once at termination with
/// `terminal = true`). `explored` is strictly monotone across the events of a
/// single run: at least one cell commits between consecutive layer
/// boundaries, and the terminal event reports the final count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProgressEvent {
    /// Registry id of the query this run belongs to (0 when unregistered).
    pub query_id: u64,
    /// Grid layer the driver just committed into.
    pub layer: u64,
    /// Cells explored so far (strictly monotone across events).
    pub explored: u64,
    /// Size of the batch being committed at this boundary.
    pub frontier: u64,
    /// Approximate bytes held by the result store.
    pub store_bytes: u64,
    /// Milliseconds since the run started.
    pub elapsed_ms: u64,
    /// True only for the final event of a run.
    pub terminal: bool,
}

impl ProgressEvent {
    /// The event's fields as a braceless JSON fragment, so callers can
    /// append extra fields (e.g. the sealed outcome) before closing.
    pub fn json_fields(&self) -> String {
        format!(
            "\"query_id\":{},\"layer\":{},\"explored\":{},\"frontier\":{},\
             \"store_bytes\":{},\"elapsed_ms\":{},\"terminal\":{}",
            self.query_id,
            self.layer,
            self.explored,
            self.frontier,
            self.store_bytes,
            self.elapsed_ms,
            self.terminal
        )
    }

    /// The event as a standalone JSON object.
    pub fn to_json(&self) -> String {
        format!("{{{}}}", self.json_fields())
    }
}

/// Bounded wait-free progress ring: one writer (the driver's serial commit
/// path), any number of polling readers.
///
/// Writer side: [`try_push`] claims the next slot with `try_lock`. If a
/// reader holds that slot the event is dropped and `dropped` is bumped —
/// the commit path never waits. Each slot stores `(seq, event)` so readers
/// can detect being lapped.
///
/// Reader side: [`drain_from`] returns every retained event at or after the
/// cursor, the next cursor, and how many events were missed (evicted by
/// wraparound or dropped at the slot).
///
/// [`try_push`]: ProgressSink::try_push
/// [`drain_from`]: ProgressSink::drain_from
pub struct ProgressSink {
    slots: Slots,
    /// Sequence number of the next event to be written.
    head: AtomicU64,
    /// Events discarded because a reader held the target slot.
    dropped: AtomicU64,
    /// Set once a terminal event has been accepted.
    terminal_seen: AtomicBool,
}

impl ProgressSink {
    /// A sink retaining at most `capacity` events (clamped to ≥ 1).
    pub fn new(capacity: usize) -> Self {
        ProgressSink {
            slots: Slots::new(capacity.max(1)),
            head: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            terminal_seen: AtomicBool::new(false),
        }
    }

    /// Slot count of the ring.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Sequence number of the next event to be written; events with
    /// sequence `< head()` have been offered (though the oldest may have
    /// been evicted by wraparound).
    pub fn head(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Events dropped because the commit path would have had to wait.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed) // relaxed-ok: monotone counter read
    }

    /// True once a terminal event has been accepted into the ring.
    pub fn is_terminated(&self) -> bool {
        self.terminal_seen.load(Ordering::Acquire)
    }

    /// Offer an event without ever blocking. Returns `false` (and counts the
    /// drop) if the target slot is momentarily held by a reader.
    ///
    /// Single-writer: only the driver's serial emission path may call this
    /// for a given sink.
    pub fn try_push(&self, event: ProgressEvent) -> bool {
        let seq = self.head.load(Ordering::Acquire);
        let slot = self
            .slots
            .get_or_alloc((seq % self.slots.len() as u64) as usize);
        match slot.try_lock() {
            Ok(mut guard) => {
                *guard = Some((seq, event));
                drop(guard);
                self.head.store(seq + 1, Ordering::Release);
                if event.terminal {
                    self.terminal_seen.store(true, Ordering::Release);
                }
                true
            }
            Err(_) => {
                self.dropped.fetch_add(1, Ordering::Relaxed); // relaxed-ok: independent monotone counter
                false
            }
        }
    }

    /// Read every retained event with sequence `>= cursor`, in order.
    ///
    /// Returns `(events, next_cursor, missed)`. `missed` counts events the
    /// reader can no longer observe: evicted by ring wraparound before the
    /// cursor caught up, or overwritten between the head load and the slot
    /// read (lapped). Resume the next poll from `next_cursor`.
    pub fn drain_from(&self, cursor: u64) -> (Vec<ProgressEvent>, u64, u64) {
        let head = self.head.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        let oldest = head.saturating_sub(cap);
        let mut missed = oldest.saturating_sub(cursor);
        let start = cursor.max(oldest);
        let mut events = Vec::new();
        for seq in start..head {
            // Every sequence below `head` was written, so its segment exists.
            let slot = self.slots.get((seq % cap) as usize);
            match slot.map(Mutex::try_lock) {
                Some(Ok(guard)) => match *guard {
                    Some((stored_seq, ev)) if stored_seq == seq => events.push(ev),
                    // Lapped (or never written after a drop): unobservable.
                    _ => missed += 1,
                },
                // Writer (or another reader) holds the slot right now; the
                // writer would have dropped rather than overwrite, so this
                // event is gone for us too.
                Some(Err(_)) | None => missed += 1,
            }
        }
        (events, head, missed)
    }
}

impl std::fmt::Debug for ProgressSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProgressSink")
            .field("capacity", &self.capacity())
            .field("head", &self.head())
            .field("dropped", &self.dropped())
            .field("terminated", &self.is_terminated())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(explored: u64, terminal: bool) -> ProgressEvent {
        ProgressEvent {
            query_id: 7,
            layer: 2,
            explored,
            frontier: 16,
            store_bytes: 1024,
            elapsed_ms: 5,
            terminal,
        }
    }

    #[test]
    fn push_then_drain_round_trips_in_order() {
        let sink = ProgressSink::new(8);
        for i in 0..5 {
            assert!(sink.try_push(ev(i, false)));
        }
        let (events, next, missed) = sink.drain_from(0);
        assert_eq!(events.len(), 5);
        assert_eq!(next, 5);
        assert_eq!(missed, 0);
        assert!(events.windows(2).all(|w| w[0].explored < w[1].explored));
        // Nothing new: empty drain from the returned cursor.
        let (events, next2, missed) = sink.drain_from(next);
        assert!(events.is_empty());
        assert_eq!(next2, 5);
        assert_eq!(missed, 0);
    }

    #[test]
    fn wraparound_reports_missed_events() {
        let sink = ProgressSink::new(4);
        for i in 0..10 {
            assert!(sink.try_push(ev(i, false)));
        }
        // Ring holds the last 4; the first 6 are gone.
        let (events, next, missed) = sink.drain_from(0);
        assert_eq!(missed, 6);
        assert_eq!(next, 10);
        assert_eq!(
            events.iter().map(|e| e.explored).collect::<Vec<_>>(),
            vec![6, 7, 8, 9]
        );
    }

    #[test]
    fn writer_drops_instead_of_blocking_on_held_slot() {
        let sink = ProgressSink::new(2);
        assert!(sink.try_push(ev(0, false)));
        assert!(sink.try_push(ev(1, false)));
        // Hold the slot the writer wants next (seq 2 -> slot 0).
        let guard = sink.slots.get(0).unwrap().lock().unwrap();
        assert!(!sink.try_push(ev(2, false)));
        assert_eq!(sink.dropped(), 1);
        drop(guard);
        assert!(sink.try_push(ev(3, false)));
        assert_eq!(sink.dropped(), 1);
        // head only advanced for accepted events.
        assert_eq!(sink.head(), 3);
    }

    #[test]
    fn terminal_flag_latches() {
        let sink = ProgressSink::new(4);
        assert!(!sink.is_terminated());
        sink.try_push(ev(1, false));
        assert!(!sink.is_terminated());
        sink.try_push(ev(2, true));
        assert!(sink.is_terminated());
        let (events, _, _) = sink.drain_from(0);
        assert!(events.last().unwrap().terminal);
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let sink = ProgressSink::new(0);
        assert_eq!(sink.capacity(), 1);
        assert!(sink.try_push(ev(0, false)));
        let (events, _, _) = sink.drain_from(0);
        assert_eq!(events.len(), 1);
    }

    /// The eager ring this sink used to be: every slot built up front.
    struct EagerRing {
        slots: Vec<Option<(u64, ProgressEvent)>>,
        head: u64,
    }

    impl EagerRing {
        fn push(&mut self, event: ProgressEvent) {
            let cap = self.slots.len() as u64;
            self.slots[(self.head % cap) as usize] = Some((self.head, event));
            self.head += 1;
        }

        fn drain_from(&self, cursor: u64) -> (Vec<ProgressEvent>, u64, u64) {
            let cap = self.slots.len() as u64;
            let oldest = self.head.saturating_sub(cap);
            let mut missed = oldest.saturating_sub(cursor);
            let mut events = Vec::new();
            for seq in cursor.max(oldest)..self.head {
                match self.slots[(seq % cap) as usize] {
                    Some((stored, ev)) if stored == seq => events.push(ev),
                    _ => missed += 1,
                }
            }
            (events, self.head, missed)
        }
    }

    #[test]
    fn lazy_segments_drain_exactly_what_the_eager_ring_did() {
        let sink = ProgressSink::new(DEFAULT_PROGRESS_CAPACITY);
        let mut eager = EagerRing {
            slots: vec![None; DEFAULT_PROGRESS_CAPACITY],
            head: 0,
        };
        assert_eq!(sink.capacity(), DEFAULT_PROGRESS_CAPACITY);
        let allocated = |s: &ProgressSink| {
            let segments = s.slots.segments.iter();
            segments.filter(|seg| seg.get().is_some()).count()
        };
        assert_eq!(
            allocated(&sink),
            0,
            "nothing is built before the first push"
        );

        // A small query: 3 events touch one segment only.
        for i in 0..3 {
            assert!(sink.try_push(ev(i, false)));
            eager.push(ev(i, false));
        }
        assert_eq!(allocated(&sink), 1);
        for cursor in [0, 1, 3] {
            assert_eq!(sink.drain_from(cursor), eager.drain_from(cursor));
        }
        assert_eq!(
            sink.drain_from(0),
            (vec![ev(0, false), ev(1, false), ev(2, false)], 3, 0)
        );

        // A long one: 2 000 more wrap the 1 024-slot ring almost twice.
        for i in 3..2003 {
            assert!(sink.try_push(ev(i, i == 2002)));
            eager.push(ev(i, i == 2002));
        }
        assert_eq!(allocated(&sink), DEFAULT_PROGRESS_CAPACITY / SEGMENT_SLOTS);
        for cursor in [0, 3, 978, 979, 980, 1500, 2002, 2003] {
            assert_eq!(sink.drain_from(cursor), eager.drain_from(cursor));
        }
        let (events, next, missed) = sink.drain_from(0);
        assert_eq!((events.len(), next, missed), (1024, 2003, 979));
        assert_eq!(events[0].explored, 979);
        assert!(events[1023].terminal);
        assert_eq!(sink.dropped(), 0);
    }

    #[test]
    fn capacity_need_not_be_a_multiple_of_the_segment() {
        let sink = ProgressSink::new(SEGMENT_SLOTS + 5);
        assert_eq!(sink.capacity(), SEGMENT_SLOTS + 5);
        for i in 0..100 {
            assert!(sink.try_push(ev(i, false)));
        }
        let (events, next, missed) = sink.drain_from(0);
        assert_eq!(next, 100);
        assert_eq!(missed, 100 - (SEGMENT_SLOTS as u64 + 5));
        assert_eq!(events.first().map(|e| e.explored), Some(missed));
        assert_eq!(events.len(), SEGMENT_SLOTS + 5);
    }

    #[test]
    fn event_json_has_all_fields() {
        let e = ev(42, true);
        let json = e.to_json();
        let parsed = acq_obs::json::parse(&json).expect("valid json");
        assert_eq!(
            parsed.pointer("/explored").and_then(|v| v.as_f64()),
            Some(42.0)
        );
        assert_eq!(
            parsed.pointer("/terminal").and_then(|v| v.as_bool()),
            Some(true)
        );
        assert_eq!(
            parsed.pointer("/query_id").and_then(|v| v.as_f64()),
            Some(7.0)
        );
    }

    #[test]
    fn concurrent_reader_never_sees_out_of_order_explored() {
        use std::sync::Arc;
        let sink = Arc::new(ProgressSink::new(16));
        let writer = {
            let sink = Arc::clone(&sink);
            std::thread::spawn(move || {
                for i in 0..2000u64 {
                    sink.try_push(ev(i, i == 1999));
                }
            })
        };
        let mut cursor = 0u64;
        let mut last = None::<u64>;
        while !sink.is_terminated() || cursor < sink.head() {
            let (events, next, _missed) = sink.drain_from(cursor);
            cursor = next;
            for e in events {
                if let Some(prev) = last {
                    assert!(
                        e.explored > prev,
                        "explored regressed: {} -> {}",
                        prev,
                        e.explored
                    );
                }
                last = Some(e.explored);
            }
            std::thread::yield_now();
        }
        writer.join().unwrap();
    }
}
