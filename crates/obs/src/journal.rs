//! Durable query journal: a bounded wait-free ring feeding a dedicated
//! writer thread that appends NDJSON records to a size-rotated on-disk log.
//!
//! The producer side is [`JournalRing::try_append`] — the same `try_lock`
//! slot discipline as [`ProgressSink`], made safe for **any number of
//! concurrent producers** (every request thread at once): a
//! producer claims the next sequence number with a compare-and-swap on
//! `head` *while holding that slot's `try_lock`*, so a sequence number is
//! only ever handed to the one producer that is certain to store its record.
//! Producers take no blocking lock and do no I/O; a producer that loses the
//! race for a sequence number simply claims the next one. `try_append` is a
//! `commit-reachability` root in `lint.toml`, so acq-lint proves nothing
//! blocking is transitively reachable from it.
//!
//! **Accounting identity.** Every record offered to `try_append` ends as
//! exactly one of *written*, *dropped* or *write error*: once the journal is
//! flushed, `written + dropped + write_errors` equals the number of records
//! offered, under any number of producers. Records are dropped (and counted)
//! only when they contain a newline or when the ring is **full** — `capacity`
//! records accepted but not yet settled by the writer: the oldest unwritten
//! record is then overwritten by the newest and the writer counts it, or, if
//! that slot is busy, the newest is dropped on the spot. With the ring not
//! full nothing is dropped and nothing is lost.
//!
//! The consumer side is one dedicated thread (`acq-journal-writer`) that
//! drains the ring every few milliseconds and appends each record plus a
//! trailing newline to the journal file, rotating to a numbered segment
//! (`<path>.1`, `<path>.2`, …) *at record boundaries* whenever the active
//! segment would exceed `max_bytes`. Rotated segments therefore always end
//! with a newline; only the active segment can carry a torn final line
//! (writer killed between `write` and the newline), and both the reader
//! ([`read_journal`]) and the reopening writer ([`Journal::open`]) recover
//! from that honestly: the reader skips the torn tail and counts it, the
//! writer truncates it (counted in [`Journal::torn_repaired`]) so the next
//! append starts on a clean record boundary.
//!
//! [`ProgressSink`]: https://docs.rs/acq-core

use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, TryLockError};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::json::{self, JsonValue};

/// Default slot count for the journal ring.
pub const DEFAULT_JOURNAL_CAPACITY: usize = 4096;

/// Default size threshold at which the active segment rotates.
pub const DEFAULT_JOURNAL_MAX_BYTES: u64 = 8 * 1024 * 1024;

/// Version stamped into every journal record (`"v"` field).
pub const JOURNAL_VERSION: u64 = 1;

/// How often the writer thread drains the ring.
const WRITER_POLL: Duration = Duration::from_millis(10);

/// Bounded record ring: many producers, one draining writer.
///
/// Producers call [`try_append`] from any number of threads at once. Each
/// slot stores `(seq, record)`; a sequence number is claimed by a
/// compare-and-swap on `head` under the slot's `try_lock`, so two producers
/// can never take the same one, and the drainer, which stops at a slot a
/// producer still holds and resumes there on its next pass, never mistakes
/// a record that is being stored for a missing one. A full ring drops and
/// counts (see the module docs for the accounting identity); producers never
/// take a blocking lock.
///
/// [`try_append`]: JournalRing::try_append
pub struct JournalRing {
    slots: Vec<Mutex<Option<(u64, String)>>>,
    /// Sequence number of the next record to be accepted.
    head: AtomicU64,
    /// Every sequence number below this is settled: written, lost to a
    /// write error, or overwritten in a full ring and counted as dropped.
    /// Stored by the writer (Release) after each batch, read by producers
    /// and `flush` (Acquire).
    settled: AtomicU64,
    /// Records discarded: embedded newline, or the ring was full.
    dropped: AtomicU64,
    /// Records durably written (line + newline flushed) by the writer.
    written: AtomicU64,
    /// Completed segment rotations.
    rotations: AtomicU64,
    /// Write/rotate failures (the record is lost but counted).
    write_errors: AtomicU64,
    /// Torn final lines truncated away when the journal was (re)opened.
    torn_repaired: AtomicU64,
}

impl JournalRing {
    /// A ring retaining at most `capacity` records (clamped to ≥ 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        let mut slots = Vec::with_capacity(capacity);
        for _ in 0..capacity {
            slots.push(Mutex::new(None));
        }
        JournalRing {
            slots,
            head: AtomicU64::new(0),
            settled: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            written: AtomicU64::new(0),
            rotations: AtomicU64::new(0),
            write_errors: AtomicU64::new(0),
            torn_repaired: AtomicU64::new(0),
        }
    }

    /// Slot count of the ring.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Sequence number of the next record to be accepted.
    pub fn head(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Records dropped: rejected for a newline, or offered to a full ring.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed) // relaxed-ok: monotone counter read
    }

    /// Records durably appended (line and newline written) so far.
    pub fn written(&self) -> u64 {
        self.written.load(Ordering::Acquire)
    }

    /// Segment rotations completed by the writer.
    pub fn rotations(&self) -> u64 {
        self.rotations.load(Ordering::Relaxed) // relaxed-ok: monotone counter read
    }

    /// Records lost to I/O errors in the writer (counted, never retried).
    pub fn write_errors(&self) -> u64 {
        self.write_errors.load(Ordering::Relaxed) // relaxed-ok: monotone counter read
    }

    /// Torn final lines truncated when the journal file was opened.
    pub fn torn_repaired(&self) -> u64 {
        self.torn_repaired.load(Ordering::Relaxed) // relaxed-ok: monotone counter read
    }

    /// Offer one NDJSON record (no trailing newline); safe to call from any
    /// number of threads at once, takes no blocking lock and does no I/O.
    ///
    /// Returns `false` (and counts the drop) when the ring is full and its
    /// oldest slot is busy. Records containing a newline are rejected
    /// outright — a multi-line record would tear the NDJSON framing for
    /// every later reader.
    pub fn try_append(&self, record: String) -> bool {
        if record.contains('\n') {
            self.dropped.fetch_add(1, Ordering::Relaxed); // relaxed-ok: independent monotone counter
            return false;
        }
        let cap = self.slots.len() as u64;
        let mut seq = self.head.load(Ordering::Acquire);
        loop {
            let mut guard = match self.slots[(seq % cap) as usize].try_lock() {
                Ok(guard) => guard,
                // A slot only ever holds a whole `(seq, record)` or `None`.
                Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
                Err(TryLockError::WouldBlock) => {
                    let now = self.head.load(Ordering::Acquire);
                    if now == seq {
                        if seq.saturating_sub(self.settled.load(Ordering::Acquire)) >= cap {
                            // The writer (or a producer a whole lap behind)
                            // is still busy with the oldest record: a full
                            // ring drops and counts.
                            self.dropped.fetch_add(1, Ordering::Relaxed); // relaxed-ok: independent monotone counter
                            return false;
                        }
                        // Not full, so the holder is another producer
                        // between its `try_lock` and its compare-and-swap —
                        // a few instructions. Let it finish.
                        std::thread::yield_now();
                    }
                    seq = now;
                    continue;
                }
            };
            // Claim `seq` while holding its slot: the sequence number only
            // moves on for the producer that is certain to store a record.
            match self
                .head
                .compare_exchange(seq, seq + 1, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => {
                    // A still-unwritten record in this slot (full ring) is
                    // lapped here; the drain reports it as missed.
                    *guard = Some((seq, record));
                    return true;
                }
                // Another producer claimed `seq` first: not a drop.
                Err(now) => seq = now,
            }
        }
    }

    /// Drain every retained record with sequence `>= cursor`, in order.
    ///
    /// Returns `(records, next_cursor, missed)`; `missed` counts records
    /// overwritten by ring wraparound before they were drained. The drain
    /// stops at the first slot a producer still holds — that record is
    /// being stored, not missing — and `next_cursor` points at it, so the
    /// next pass resumes there.
    pub fn drain_from(&self, cursor: u64) -> (Vec<String>, u64, u64) {
        let head = self.head.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        let oldest = head.saturating_sub(cap);
        let mut missed = oldest.saturating_sub(cursor);
        let mut records = Vec::new();
        for seq in cursor.max(oldest)..head {
            let mut guard = match self.slots[(seq % cap) as usize].try_lock() {
                Ok(guard) => guard,
                Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
                Err(TryLockError::WouldBlock) => return (records, seq, missed),
            };
            match guard.take() {
                Some((stored_seq, rec)) if stored_seq == seq => records.push(rec),
                Some(other) => {
                    // Not ours (lapped): put it back for its own drain.
                    *guard = Some(other);
                    missed += 1;
                }
                None => missed += 1,
            }
        }
        (records, head, missed)
    }
}

impl std::fmt::Debug for JournalRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JournalRing")
            .field("capacity", &self.capacity())
            .field("head", &self.head())
            .field("dropped", &self.dropped())
            .field("written", &self.written())
            .finish()
    }
}

/// A durable journal: ring + writer thread + size-rotated NDJSON log.
///
/// Dropping the journal stops and joins the writer after a final drain, so
/// every record accepted by the ring before the drop is durably written
/// (absent I/O errors, which are counted in [`JournalRing::write_errors`]).
pub struct Journal {
    ring: Arc<JournalRing>,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
    path: PathBuf,
}

impl Journal {
    /// Opens (creating or appending) the journal at `path` and starts the
    /// writer thread. A torn final line left by a killed writer is
    /// truncated away first so appends resume on a record boundary.
    pub fn open(path: &Path, max_bytes: u64, capacity: usize) -> std::io::Result<Journal> {
        let ring = Arc::new(JournalRing::new(capacity));
        let repaired = repair_torn_tail(path)?;
        if repaired {
            ring.torn_repaired.fetch_add(1, Ordering::Relaxed); // relaxed-ok: startup-only counter
        }
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        let stop = Arc::new(AtomicBool::new(false));
        let handle = {
            let ring = Arc::clone(&ring);
            let stop = Arc::clone(&stop);
            let path = path.to_path_buf();
            std::thread::Builder::new()
                .name("acq-journal-writer".into())
                .spawn(move || writer_loop(&ring, &stop, &path, file, max_bytes))?
        };
        Ok(Journal {
            ring,
            stop,
            handle: Some(handle),
            path: path.to_path_buf(),
        })
    }

    /// The wait-free producer handle; clone it anywhere records originate.
    pub fn ring(&self) -> Arc<JournalRing> {
        Arc::clone(&self.ring)
    }

    /// The base (active-segment) path this journal writes to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Torn final lines truncated away when this journal was opened.
    pub fn torn_repaired(&self) -> u64 {
        self.ring.torn_repaired()
    }

    /// Waits until every record accepted before the call is settled —
    /// durably written, or counted as a write error or a full-ring drop —
    /// (or `timeout` elapses). Returns `true` when fully drained. Test and
    /// shutdown helper — never called from a commit path.
    pub fn flush(&self, timeout: Duration) -> bool {
        let target = self.ring.head();
        let deadline = std::time::Instant::now() + timeout;
        loop {
            if self.ring.settled.load(Ordering::Acquire) >= target {
                return true;
            }
            if std::time::Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

impl Drop for Journal {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal")
            .field("path", &self.path)
            .field("ring", &self.ring)
            .finish()
    }
}

/// The writer thread: drain → rotate-at-boundary → append → flush.
fn writer_loop(ring: &JournalRing, stop: &AtomicBool, path: &Path, mut file: File, max_bytes: u64) {
    let mut len = file.seek(SeekFrom::End(0)).unwrap_or(0);
    let mut cursor = 0u64;
    loop {
        let stopping = stop.load(Ordering::Acquire);
        let (records, next, missed) = ring.drain_from(cursor);
        cursor = next;
        if missed > 0 {
            // Lapped records were never written; account them as drops so
            // written + dropped + write_errors still sums to what was offered.
            ring.dropped.fetch_add(missed, Ordering::Relaxed); // relaxed-ok: monotone counter
        }
        let mut wrote = false;
        for record in records {
            let record_len = record.len() as u64 + 1;
            if len > 0 && len + record_len > max_bytes {
                match rotate(path, &mut file) {
                    Ok(fresh) => {
                        file = fresh;
                        len = 0;
                        ring.rotations.fetch_add(1, Ordering::Relaxed); // relaxed-ok: monotone counter
                    }
                    Err(_) => {
                        ring.write_errors.fetch_add(1, Ordering::Relaxed); // relaxed-ok: monotone counter
                        continue;
                    }
                }
            }
            let mut line = record;
            line.push('\n');
            match file.write_all(line.as_bytes()) {
                Ok(()) => {
                    len += record_len;
                    wrote = true;
                    ring.written.fetch_add(1, Ordering::Release);
                }
                Err(_) => {
                    ring.write_errors.fetch_add(1, Ordering::Relaxed); // relaxed-ok: monotone counter
                }
            }
        }
        if wrote {
            let _ = file.flush();
        }
        // Everything below `cursor` is now written, errored or counted.
        ring.settled.store(cursor, Ordering::Release);
        if stopping && ring.head() == cursor {
            return;
        }
        if !stopping {
            std::thread::sleep(WRITER_POLL);
        }
    }
}

/// Renames the active segment to the next free `<path>.<n>` and reopens a
/// fresh active segment.
fn rotate(path: &Path, file: &mut File) -> std::io::Result<File> {
    file.flush()?;
    let next = segment_paths(path)
        .iter()
        .filter_map(|p| segment_seq(path, p))
        .max()
        .unwrap_or(0)
        + 1;
    let rotated = PathBuf::from(format!("{}.{next}", path.display()));
    fs::rename(path, &rotated)?;
    OpenOptions::new().create(true).append(true).open(path)
}

/// The sequence number of `candidate` relative to base `path`
/// (`journal.ndjson.3` → `Some(3)`), or `None` for the base itself.
fn segment_seq(path: &Path, candidate: &Path) -> Option<u64> {
    let base = path.file_name()?.to_str()?;
    let name = candidate.file_name()?.to_str()?;
    name.strip_prefix(base)?.strip_prefix('.')?.parse().ok()
}

/// Every rotated segment of the journal at `path`, oldest first (ascending
/// sequence number). The active segment (`path` itself) is not included.
pub fn segment_paths(path: &Path) -> Vec<PathBuf> {
    let Some(dir) = path.parent() else {
        return Vec::new();
    };
    let dir = if dir.as_os_str().is_empty() {
        Path::new(".")
    } else {
        dir
    };
    let mut segments: Vec<(u64, PathBuf)> = Vec::new();
    if let Ok(entries) = fs::read_dir(dir) {
        for entry in entries.flatten() {
            let p = entry.path();
            if let Some(seq) = segment_seq(path, &p) {
                segments.push((seq, p));
            }
        }
    }
    segments.sort_unstable_by_key(|(seq, _)| *seq);
    segments.into_iter().map(|(_, p)| p).collect()
}

/// Truncates a torn final line (no trailing newline) from the file at
/// `path`, returning whether a repair happened. Missing files are fine.
fn repair_torn_tail(path: &Path) -> std::io::Result<bool> {
    let Ok(bytes) = fs::read(path) else {
        return Ok(false);
    };
    if bytes.is_empty() || bytes.ends_with(b"\n") {
        return Ok(false);
    }
    let keep = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1) as u64;
    let file = OpenOptions::new().write(true).open(path)?;
    file.set_len(keep)?;
    Ok(true)
}

/// Wall-clock milliseconds since the Unix epoch — the `at_ms` stamp of
/// every journal record. Lives here (not in serve) because this crate is
/// the sanctioned clock-reading layer under the determinism lint.
pub fn unix_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis().min(u128::from(u64::MAX)) as u64)
        .unwrap_or(0)
}

/// Everything a read of a journal (all segments) yields.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct JournalRead {
    /// Complete (newline-terminated) records, oldest segment first.
    pub records: Vec<String>,
    /// Torn final lines skipped (at most one per segment file).
    pub torn: u64,
    /// Segment files read, including the active one.
    pub segments: u64,
}

/// Reads every record of the journal at `path`: rotated segments oldest
/// first, then the active segment. A final line without its newline is
/// skipped and counted in `torn`, never half-parsed.
pub fn read_journal(path: &Path) -> std::io::Result<JournalRead> {
    let mut out = JournalRead::default();
    let mut files = segment_paths(path);
    files.push(path.to_path_buf());
    for file in files {
        let Ok(text) = fs::read_to_string(&file) else {
            continue; // active segment may not exist yet
        };
        out.segments += 1;
        let torn_tail = !text.is_empty() && !text.ends_with('\n');
        let mut lines: Vec<&str> = text.split('\n').filter(|l| !l.is_empty()).collect();
        if torn_tail {
            lines.pop();
            out.torn += 1;
        }
        out.records.extend(lines.into_iter().map(String::from));
    }
    Ok(out)
}

/// Aggregate view of a journal for `acq journal summarize`.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct JournalSummary {
    /// Complete records parsed.
    pub records: u64,
    /// Records that failed to parse as JSON (counted, never fatal).
    pub malformed: u64,
    /// Torn final lines skipped by the reader.
    pub torn: u64,
    /// `kind == "query"` records.
    pub queries: u64,
    /// Records of any other kind, so `records == queries + other` even for
    /// a journal holding kinds this reader does not break down.
    pub other: u64,
    /// Query records by termination label.
    pub by_termination: BTreeMap<String, u64>,
}

/// Summarizes parsed journal records (as returned by [`read_journal`]).
pub fn summarize(read: &JournalRead) -> JournalSummary {
    let mut s = JournalSummary {
        torn: read.torn,
        ..JournalSummary::default()
    };
    for line in &read.records {
        let Ok(v) = json::parse(line) else {
            s.malformed += 1;
            continue;
        };
        s.records += 1;
        if v.pointer("/kind").and_then(JsonValue::as_str) != Some("query") {
            s.other += 1;
            continue;
        }
        s.queries += 1;
        let term = v
            .pointer("/termination")
            .and_then(JsonValue::as_str)
            .unwrap_or("unknown");
        *s.by_termination.entry(term.to_string()).or_insert(0) += 1;
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    fn temp_path(tag: &str) -> PathBuf {
        static N: AtomicU32 = AtomicU32::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("acq-journal-{}-{tag}-{n}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir.join("journal.ndjson")
    }

    fn cleanup(path: &Path) {
        if let Some(dir) = path.parent() {
            let _ = fs::remove_dir_all(dir);
        }
    }

    #[test]
    fn ring_drops_instead_of_blocking_on_held_slot() {
        let ring = JournalRing::new(2);
        assert!(ring.try_append("a".into()));
        assert!(ring.try_append("b".into()));
        // Hold the slot the producer wants next (seq 2 -> slot 0).
        let guard = ring.slots[0].lock().unwrap();
        assert!(!ring.try_append("c".into()));
        assert_eq!(ring.dropped(), 1);
        drop(guard);
        assert!(ring.try_append("d".into()));
        assert_eq!(ring.head(), 3);
    }

    #[test]
    fn ring_rejects_embedded_newlines() {
        let ring = JournalRing::new(4);
        assert!(!ring.try_append("a\nb".into()));
        assert_eq!(ring.dropped(), 1);
        assert_eq!(ring.head(), 0);
    }

    #[test]
    fn ring_drain_takes_records_in_order() {
        let ring = JournalRing::new(8);
        for i in 0..5 {
            assert!(ring.try_append(format!("r{i}")));
        }
        let (records, next, missed) = ring.drain_from(0);
        assert_eq!(records, vec!["r0", "r1", "r2", "r3", "r4"]);
        assert_eq!((next, missed), (5, 0));
        let (records, _, _) = ring.drain_from(next);
        assert!(records.is_empty());
    }

    #[test]
    fn two_producers_with_an_idle_writer_lose_and_drop_nothing() {
        const PER_THREAD: usize = 20_000;
        // Nothing drains: the ring holds everything, so it never fills.
        let ring = JournalRing::new(2 * PER_THREAD);
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for t in 0..2 {
                let (ring, start) = (&ring, &start);
                scope.spawn(move || {
                    start.wait();
                    for i in 0..PER_THREAD {
                        assert!(ring.try_append(format!("{t}:{i}")));
                    }
                });
            }
        });
        assert_eq!(ring.dropped(), 0, "producers colliding is not a full ring");
        assert_eq!(ring.head(), 2 * PER_THREAD as u64);
        let (records, next, missed) = ring.drain_from(0);
        assert_eq!((next, missed), (2 * PER_THREAD as u64, 0));
        let distinct: std::collections::BTreeSet<&str> =
            records.iter().map(String::as_str).collect();
        assert_eq!(distinct.len(), 2 * PER_THREAD, "a record was overwritten");
        // Each producer's records keep their own order.
        for t in ["0:", "1:"] {
            let own = records.iter().filter_map(|r| r.strip_prefix(t));
            let own: Vec<usize> = own.map(|i| i.parse().unwrap()).collect();
            assert!(own.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn drain_stops_at_a_slot_a_producer_still_holds() {
        let ring = JournalRing::new(4);
        for i in 0..3 {
            assert!(ring.try_append(format!("r{i}")));
        }
        // A producer mid-store on seq 1: the drain must not count it missed.
        let guard = ring.slots[1].lock().unwrap();
        let (records, next, missed) = ring.drain_from(0);
        assert_eq!((records, next, missed), (vec!["r0".to_string()], 1, 0));
        drop(guard);
        let (records, next, missed) = ring.drain_from(next);
        assert_eq!(records, vec!["r1", "r2"]);
        assert_eq!((next, missed), (3, 0));
    }

    #[test]
    fn many_producers_account_for_every_record() {
        const THREADS: usize = 4;
        const PER_THREAD: usize = 20_000;
        let path = temp_path("stress");
        let journal = Journal::open(&path, u64::MAX, DEFAULT_JOURNAL_CAPACITY).unwrap();
        let start = std::sync::Barrier::new(THREADS);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let (ring, start) = (journal.ring(), &start);
                scope.spawn(move || {
                    start.wait();
                    for i in 0..PER_THREAD {
                        ring.try_append(format!("{{\"t\":{t},\"i\":{i}}}"));
                    }
                });
            }
        });
        assert!(journal.flush(Duration::from_secs(30)));
        let ring = journal.ring();
        let offered = (THREADS * PER_THREAD) as u64;
        assert_eq!(
            ring.written() + ring.dropped() + ring.write_errors(),
            offered,
            "{ring:?}: every offered record is written, dropped or a write error"
        );
        assert_eq!(ring.write_errors(), 0);
        let read = read_journal(&path).unwrap();
        assert_eq!(read.torn, 0);
        assert_eq!(read.records.len() as u64, ring.written());
        let distinct: std::collections::BTreeSet<&str> =
            read.records.iter().map(String::as_str).collect();
        assert_eq!(distinct.len(), read.records.len(), "a line appears twice");
        // Whatever is not on disk was counted as dropped, nothing vanished.
        assert_eq!(offered - distinct.len() as u64, ring.dropped());
        drop(journal);
        cleanup(&path);
    }

    #[test]
    fn journal_appends_and_reads_back_across_reopen() {
        let path = temp_path("roundtrip");
        {
            let journal = Journal::open(&path, u64::MAX, 64).unwrap();
            assert!(journal
                .ring()
                .try_append("{\"kind\":\"query\",\"n\":1}".into()));
            assert!(journal
                .ring()
                .try_append("{\"kind\":\"query\",\"n\":2}".into()));
            assert!(journal.flush(Duration::from_secs(5)));
        }
        // Reopen (new process's view) and append more.
        {
            let journal = Journal::open(&path, u64::MAX, 64).unwrap();
            assert_eq!(journal.torn_repaired(), 0);
            assert!(journal
                .ring()
                .try_append("{\"kind\":\"query\",\"n\":3}".into()));
            assert!(journal.flush(Duration::from_secs(5)));
        }
        let read = read_journal(&path).unwrap();
        assert_eq!(read.torn, 0);
        assert_eq!(read.records.len(), 3);
        assert!(read.records[2].contains("\"n\":3"));
        cleanup(&path);
    }

    #[test]
    fn rotation_happens_at_record_boundaries() {
        let path = temp_path("rotate");
        let record = format!("{{\"pad\":\"{}\"}}", "x".repeat(40));
        {
            let journal = Journal::open(&path, 128, 64).unwrap();
            for _ in 0..10 {
                assert!(journal.ring().try_append(record.clone()));
                // Flush between appends so the writer sees each record's
                // size against the live segment length.
                assert!(journal.flush(Duration::from_secs(5)));
            }
            assert!(journal.ring().rotations() >= 2);
        }
        let segments = segment_paths(&path);
        assert!(segments.len() >= 2, "{segments:?}");
        for seg in &segments {
            let text = fs::read_to_string(seg).unwrap();
            assert!(text.ends_with('\n'), "rotated segment torn: {seg:?}");
            assert!(text.len() as u64 <= 128, "segment over max_bytes");
        }
        let read = read_journal(&path).unwrap();
        assert_eq!(read.records.len(), 10, "no record lost to rotation");
        assert_eq!(read.torn, 0);
        assert!(read.records.iter().all(|r| r == &record));
        cleanup(&path);
    }

    #[test]
    fn reader_skips_torn_final_line_and_counts_it() {
        let path = temp_path("torn-read");
        fs::write(&path, "{\"n\":1}\n{\"n\":2}\n{\"n\":3").unwrap();
        let read = read_journal(&path).unwrap();
        assert_eq!(read.records, vec!["{\"n\":1}", "{\"n\":2}"]);
        assert_eq!(read.torn, 1);
        cleanup(&path);
    }

    #[test]
    fn reopening_writer_repairs_torn_tail_before_appending() {
        let path = temp_path("torn-repair");
        fs::write(&path, "{\"n\":1}\n{\"n\":2").unwrap();
        let journal = Journal::open(&path, u64::MAX, 64).unwrap();
        assert_eq!(journal.torn_repaired(), 1);
        assert!(journal.ring().try_append("{\"n\":3}".into()));
        assert!(journal.flush(Duration::from_secs(5)));
        drop(journal);
        let read = read_journal(&path).unwrap();
        assert_eq!(read.records, vec!["{\"n\":1}", "{\"n\":3}"]);
        assert_eq!(read.torn, 0, "the repair removed the torn bytes");
        cleanup(&path);
    }

    #[test]
    fn summarize_counts_kinds_and_malformed() {
        let read = JournalRead {
            records: vec![
                "{\"kind\":\"query\",\"termination\":\"completed\"}".into(),
                "{\"kind\":\"query\",\"termination\":\"completed\"}".into(),
                "{\"kind\":\"query\",\"termination\":\"deadline\"}".into(),
                "{\"kind\":\"alert\",\"rule\":\"shed\",\"transition\":\"firing\"}".into(),
                "not json".into(),
            ],
            torn: 1,
            segments: 1,
        };
        let s = summarize(&read);
        assert_eq!(s.records, 4);
        assert_eq!(s.malformed, 1);
        assert_eq!(s.torn, 1);
        assert_eq!(s.queries, 3);
        assert_eq!(s.other, 1);
        assert_eq!(s.by_termination.get("completed"), Some(&2));
    }

    #[test]
    fn drop_flushes_pending_records() {
        let path = temp_path("drop-flush");
        {
            let journal = Journal::open(&path, u64::MAX, 64).unwrap();
            for i in 0..20 {
                assert!(journal.ring().try_append(format!("{{\"n\":{i}}}")));
            }
            // No explicit flush: Drop must drain before joining.
        }
        let read = read_journal(&path).unwrap();
        assert_eq!(read.records.len(), 20);
        cleanup(&path);
    }
}
