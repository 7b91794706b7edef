//! A process-scoped registry of in-flight and recently completed queries.
//!
//! `acq-serve` runs every request against its own per-query [`crate::Obs`]
//! handle; this registry is the cross-request index that `GET /queries` and
//! `GET /trace/<id>` read. It stores *summaries* — termination status,
//! counts, the rendered trace — not live handles, so lookups never contend
//! with a running query's instruments.
//!
//! The completed ring is bounded: once full, finishing a query evicts the
//! oldest completed record and `dropped_records` counts the eviction, the
//! same honesty discipline as the bounded trace buffer.

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::{Mutex, PoisonError};

use crate::snapshot::json_escape;

/// Default number of completed query records retained.
pub const DEFAULT_COMPLETED_CAPACITY: usize = 256;

/// Lifecycle state of a registered query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryStatus {
    /// Accepted and currently executing.
    Running,
    /// Finished with an [`crate::registry::QuerySummary`].
    Completed,
    /// Rejected or aborted with an error before producing an outcome.
    Failed,
}

impl QueryStatus {
    /// Stable lower-case name used in JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            QueryStatus::Running => "running",
            QueryStatus::Completed => "completed",
            QueryStatus::Failed => "failed",
        }
    }
}

/// Outcome summary recorded when a query finishes successfully.
#[derive(Debug, Clone, Default)]
pub struct QuerySummary {
    /// Termination status slug (`"complete"`, `"deadline"`, …).
    pub termination: String,
    /// Grid cells committed by the driver (`AcqOutcome.explored`).
    pub explored: u64,
    /// `cells_executed` counter from the query's own snapshot. Equals
    /// `explored` for a request that ran one search (checked per request
    /// kind by `serve_e2e`); a request whose `=` constraint fell through
    /// from expansion to contraction counts both searches' cells here.
    pub cells_executed: u64,
    /// Refined queries that satisfied the constraint.
    pub answers: u64,
    /// Whether at least one answer satisfied the constraint.
    pub satisfied: bool,
    /// Expand layers reached.
    pub layers: u64,
}

/// One registered query.
#[derive(Debug, Clone)]
pub struct QueryRecord {
    /// Registry-assigned request ID (monotonic per process).
    pub id: u64,
    /// The submitted SQL text.
    pub sql: String,
    /// Worker threads the request ran with.
    pub threads: usize,
    /// Lifecycle state.
    pub status: QueryStatus,
    /// Outcome summary; `None` while running or on failure.
    pub summary: Option<QuerySummary>,
    /// Error text for failed queries.
    pub error: Option<String>,
    /// Wall-clock duration in milliseconds; `None` while running.
    pub duration_ms: Option<u64>,
    /// The query's rendered trace JSON (see [`crate::TraceBuf::render_json`]),
    /// captured at completion; `None` while running or if tracing was off.
    pub trace_json: Option<String>,
}

impl QueryRecord {
    /// Renders the record as a compact JSON object (without the trace,
    /// which `GET /trace/<id>` serves separately).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(160 + self.sql.len());
        s.push_str(&format!(
            "{{\"id\":{},\"status\":\"{}\",\"sql\":\"{}\",\"threads\":{}",
            self.id,
            self.status.as_str(),
            json_escape(&self.sql),
            self.threads
        ));
        match self.duration_ms {
            Some(ms) => s.push_str(&format!(",\"duration_ms\":{ms}")),
            None => s.push_str(",\"duration_ms\":null"),
        }
        if let Some(sum) = &self.summary {
            s.push_str(&format!(
                ",\"termination\":\"{}\",\"explored\":{},\"cells_executed\":{},\
                 \"answers\":{},\"satisfied\":{},\"layers\":{}",
                json_escape(&sum.termination),
                sum.explored,
                sum.cells_executed,
                sum.answers,
                sum.satisfied,
                sum.layers
            ));
        }
        if let Some(err) = &self.error {
            s.push_str(&format!(",\"error\":\"{}\"", json_escape(err)));
        }
        s.push_str(&format!(",\"has_trace\":{}}}", self.trace_json.is_some()));
        s
    }
}

#[derive(Debug, Default)]
struct RegistryInner {
    next_id: u64,
    running: BTreeMap<u64, QueryRecord>,
    completed: VecDeque<QueryRecord>,
    dropped_records: u64,
}

/// Thread-safe registry of queries keyed by request ID.
#[derive(Debug)]
pub struct QueryRegistry {
    inner: Mutex<RegistryInner>,
    completed_cap: usize,
}

impl Default for QueryRegistry {
    fn default() -> Self {
        Self::new(DEFAULT_COMPLETED_CAPACITY)
    }
}

impl QueryRegistry {
    /// Creates a registry retaining at most `completed_cap` finished records.
    pub fn new(completed_cap: usize) -> Self {
        Self {
            inner: Mutex::new(RegistryInner::default()),
            completed_cap: completed_cap.max(1),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, RegistryInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Registers a new running query and returns its request ID.
    pub fn begin(&self, sql: String, threads: usize) -> u64 {
        let mut inner = self.lock();
        inner.next_id += 1;
        let id = inner.next_id;
        inner.running.insert(
            id,
            QueryRecord {
                id,
                sql,
                threads,
                status: QueryStatus::Running,
                summary: None,
                error: None,
                duration_ms: None,
                trace_json: None,
            },
        );
        id
    }

    /// Completes a running query with its outcome summary and optional
    /// rendered trace.
    pub fn finish(
        &self,
        id: u64,
        summary: QuerySummary,
        duration_ms: u64,
        trace_json: Option<String>,
    ) {
        self.seal(id, |rec| {
            rec.status = QueryStatus::Completed;
            rec.summary = Some(summary);
            rec.duration_ms = Some(duration_ms);
            rec.trace_json = trace_json;
        });
    }

    /// Marks a running query as failed.
    pub fn fail(&self, id: u64, error: String, duration_ms: u64) {
        self.seal(id, |rec| {
            rec.status = QueryStatus::Failed;
            rec.error = Some(error);
            rec.duration_ms = Some(duration_ms);
        });
    }

    fn seal(&self, id: u64, apply: impl FnOnce(&mut QueryRecord)) {
        let mut inner = self.lock();
        let Some(mut rec) = inner.running.remove(&id) else {
            return; // unknown or already sealed: nothing to record
        };
        apply(&mut rec);
        if inner.completed.len() >= self.completed_cap {
            inner.completed.pop_front();
            inner.dropped_records += 1;
        }
        inner.completed.push_back(rec);
    }

    /// Looks up a query by ID (running or retained-completed).
    pub fn get(&self, id: u64) -> Option<QueryRecord> {
        let inner = self.lock();
        inner
            .running
            .get(&id)
            .or_else(|| inner.completed.iter().find(|r| r.id == id))
            .cloned()
    }

    /// `(running, completed_retained, dropped_records)` counts.
    pub fn counts(&self) -> (usize, usize, u64) {
        let inner = self.lock();
        (
            inner.running.len(),
            inner.completed.len(),
            inner.dropped_records,
        )
    }

    /// Renders the registry for `GET /queries`: running queries in ID
    /// order, then completed most-recent-first, plus the drop counter.
    pub fn to_json(&self) -> String {
        let inner = self.lock();
        let mut s = String::with_capacity(256);
        s.push_str("{\"running\":[");
        for (i, rec) in inner.running.values().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&rec.to_json());
        }
        s.push_str("],\"completed\":[");
        for (i, rec) in inner.completed.iter().rev().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&rec.to_json());
        }
        s.push_str(&format!(
            "],\"dropped_records\":{}}}",
            inner.dropped_records
        ));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(explored: u64) -> QuerySummary {
        QuerySummary {
            termination: "complete".to_string(),
            explored,
            cells_executed: explored,
            answers: 1,
            satisfied: true,
            layers: 2,
        }
    }

    #[test]
    fn lifecycle_running_to_completed() {
        let reg = QueryRegistry::new(8);
        let id = reg.begin("select 1".to_string(), 4);
        assert_eq!(reg.get(id).unwrap().status, QueryStatus::Running);
        assert_eq!(reg.counts(), (1, 0, 0));

        reg.finish(id, summary(9), 12, Some("{\"events\":[]}".to_string()));
        let rec = reg.get(id).unwrap();
        assert_eq!(rec.status, QueryStatus::Completed);
        assert_eq!(rec.summary.as_ref().unwrap().explored, 9);
        assert_eq!(rec.duration_ms, Some(12));
        assert!(rec.trace_json.is_some());
        assert_eq!(reg.counts(), (0, 1, 0));
    }

    #[test]
    fn failed_queries_keep_their_error() {
        let reg = QueryRegistry::default();
        let id = reg.begin("select nope".to_string(), 1);
        reg.fail(id, "bind: unknown column `nope`".to_string(), 3);
        let rec = reg.get(id).unwrap();
        assert_eq!(rec.status, QueryStatus::Failed);
        assert!(rec.error.as_ref().unwrap().contains("unknown column"));
        assert!(rec.to_json().contains("\"status\":\"failed\""));
    }

    #[test]
    fn completed_ring_evicts_oldest_and_counts_drops() {
        let reg = QueryRegistry::new(2);
        let ids: Vec<u64> = (0..4).map(|i| reg.begin(format!("q{i}"), 1)).collect();
        for &id in &ids {
            reg.finish(id, summary(1), 1, None);
        }
        assert_eq!(reg.counts(), (0, 2, 2));
        assert!(reg.get(ids[0]).is_none(), "oldest evicted");
        assert!(reg.get(ids[3]).is_some());
        assert!(reg.to_json().contains("\"dropped_records\":2"));
    }

    #[test]
    fn registry_json_orders_completed_most_recent_first() {
        let reg = QueryRegistry::new(8);
        let a = reg.begin("first".to_string(), 1);
        let b = reg.begin("second".to_string(), 1);
        reg.finish(a, summary(1), 1, None);
        reg.finish(b, summary(2), 1, None);
        let json = reg.to_json();
        let first = json.find("\"sql\":\"first\"").unwrap();
        let second = json.find("\"sql\":\"second\"").unwrap();
        assert!(second < first, "most recent completion listed first");
        let parsed = crate::json::parse(&json).expect("registry JSON parses");
        assert_eq!(
            parsed.pointer("/completed/0/sql").and_then(|v| v.as_str()),
            Some("second")
        );
    }

    #[test]
    fn ids_are_unique_across_threads() {
        let reg = std::sync::Arc::new(QueryRegistry::default());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let reg = reg.clone();
            handles.push(std::thread::spawn(move || {
                (0..50)
                    .map(|_| reg.begin("q".to_string(), 1))
                    .collect::<Vec<_>>()
            }));
        }
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 200, "no duplicate request IDs");
    }
}
