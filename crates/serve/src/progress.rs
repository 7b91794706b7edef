//! Live progress channels: the bridge between the driver's wait-free
//! [`ProgressSink`] and streaming HTTP clients.
//!
//! `POST /query` registers a [`ProgressChannel`] keyed by the request ID
//! before the search starts and passes its sink into the driver; when the
//! response body is built, the channel is *sealed* with that exact body.
//! `GET /query/<id>/progress` then streams the sink's events as NDJSON over
//! chunked transfer encoding — while the query runs *or* after it finished
//! (the broker retains channels until capacity evicts them, so the replay a
//! smoke test reads after the POST returns is the same stream a live
//! watcher saw).
//!
//! The final NDJSON line is the terminal event, extended with the sink's
//! drop accounting and an `outcome` field carrying the sealed body
//! verbatim — byte-identical to what `POST /query` answered, which is what
//! the CI progress smoke asserts.

use std::collections::VecDeque;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use acq_obs::snapshot::json_escape;
use acquire_core::{ProgressEvent, ProgressSink, DEFAULT_PROGRESS_CAPACITY};

use crate::http::{ChunkedResponse, Response, NDJSON_CONTENT_TYPE};
use crate::state::ServerState;

/// Channels the broker retains before evicting the oldest finished one.
pub const DEFAULT_BROKER_CAPACITY: usize = 64;

/// How often the streamer polls the sink while the query runs.
const STREAM_POLL: Duration = Duration::from_millis(25);

/// Longest the streamer waits for the sealed body after the terminal event
/// arrives (the gap between the driver's last push and `seal` is the
/// response-rendering time, normally microseconds).
const SEAL_WAIT: Duration = Duration::from_secs(5);

/// One query's progress feed: the driver-side sink plus the sealed outcome.
#[derive(Debug)]
pub struct ProgressChannel {
    id: u64,
    /// The wait-free ring the driver pushes boundary events into.
    pub sink: Arc<ProgressSink>,
    /// The exact `POST /query` response body, set at completion.
    sealed: Mutex<Option<String>>,
    /// Latched once the query finished (successfully or not).
    done: AtomicBool,
}

impl ProgressChannel {
    fn new(id: u64) -> Self {
        Self {
            id,
            sink: Arc::new(ProgressSink::new(DEFAULT_PROGRESS_CAPACITY)),
            sealed: Mutex::new(None),
            done: AtomicBool::new(false),
        }
    }

    /// The registry request ID this channel belongs to.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Marks the query complete, retaining `body` (the exact response body)
    /// for replay in the stream's terminal line.
    pub fn seal(&self, body: String) {
        *self.sealed.lock().unwrap_or_else(PoisonError::into_inner) = Some(body);
        self.done.store(true, Ordering::Release);
    }

    /// Marks the query finished without an outcome (compile/run error).
    pub fn fail(&self) {
        self.done.store(true, Ordering::Release);
    }

    /// Whether the query finished (sealed or failed).
    pub fn is_done(&self) -> bool {
        self.done.load(Ordering::Acquire)
    }

    /// The sealed response body, if the query completed successfully.
    pub fn sealed_body(&self) -> Option<String> {
        self.sealed
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

/// A bounded index of progress channels keyed by request ID.
///
/// Registration past capacity evicts — preferring the oldest *finished*
/// channel so a slow watcher of a running query is not cut off by churn —
/// and counts the eviction, the same honesty discipline as every other
/// bounded buffer in this codebase.
#[derive(Debug)]
pub struct ProgressBroker {
    channels: Mutex<VecDeque<Arc<ProgressChannel>>>,
    capacity: usize,
    evicted: AtomicU64,
}

impl Default for ProgressBroker {
    fn default() -> Self {
        Self::new(DEFAULT_BROKER_CAPACITY)
    }
}

impl ProgressBroker {
    /// Creates a broker retaining at most `capacity` channels.
    pub fn new(capacity: usize) -> Self {
        Self {
            channels: Mutex::new(VecDeque::new()),
            capacity: capacity.max(1),
            evicted: AtomicU64::new(0),
        }
    }

    /// Registers a fresh channel for query `id` and returns it.
    pub fn register(&self, id: u64) -> Arc<ProgressChannel> {
        let channel = Arc::new(ProgressChannel::new(id));
        let mut q = self.channels.lock().unwrap_or_else(PoisonError::into_inner);
        if q.len() >= self.capacity {
            match q.iter().position(|c| c.is_done()) {
                Some(i) => {
                    q.remove(i);
                }
                None => {
                    q.pop_front();
                }
            }
            self.evicted.fetch_add(1, Ordering::Relaxed); // relaxed-ok: monotone counter
        }
        q.push_back(Arc::clone(&channel));
        channel
    }

    /// Looks up the channel for query `id`, newest registration first.
    pub fn get(&self, id: u64) -> Option<Arc<ProgressChannel>> {
        self.channels
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .rev()
            .find(|c| c.id == id)
            .cloned()
    }

    /// Channels currently retained.
    pub fn len(&self) -> usize {
        self.channels
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Whether no channels are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Channels evicted to make room (the honesty counter).
    pub fn evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed) // relaxed-ok: monotone counter read
    }
}

fn json_err(status: u16, msg: &str) -> Response {
    Response::json(status, format!("{{\"error\":\"{}\"}}", json_escape(msg)))
}

/// Matches `GET /query/<id>/progress`, returning the raw `<id>` segment.
/// The session loop dispatches these before the buffered handler because a
/// chunked stream writes the socket directly.
pub fn progress_path_id<'a>(method: &str, path: &'a str) -> Option<&'a str> {
    if method != "GET" {
        return None;
    }
    path.strip_prefix("/query/")?.strip_suffix("/progress")
}

/// Handles `GET /query/<id>/progress`.
///
/// Returns `Some(response)` when the request is answerable buffered (bad
/// ID, unknown query, evicted channel) so the caller can keep the
/// connection alive; returns `None` once the chunked NDJSON stream has been
/// written, after which the connection must close (chunked responses are
/// `Connection: close`). `buf` is the connection's reused write buffer:
/// every NDJSON line leaves as one chunk in one write.
pub fn stream_progress(
    state: &Arc<ServerState>,
    stream: &TcpStream,
    buf: &mut Vec<u8>,
    id_str: &str,
) -> Option<Response> {
    let Ok(id) = id_str.parse::<u64>() else {
        return Some(json_err(400, "query id must be a number"));
    };
    let Some(channel) = state.progress.get(id) else {
        return Some(match state.registry.get(id) {
            Some(_) => json_err(
                410,
                &format!("progress for query {id} no longer retained (channel evicted)"),
            ),
            None => json_err(
                404,
                &format!("no such query id {id} (evicted or never ran)"),
            ),
        });
    };

    let Ok(mut out) = ChunkedResponse::begin(stream, buf, 200, NDJSON_CONTENT_TYPE) else {
        return None;
    };
    // The stream outlives the query by at most the seal wait; past the
    // server's own per-query cap (+ slack) something is wrong and the
    // truncated stream (no terminal chunk) tells the client honestly.
    let give_up = Instant::now() + state.config.max_deadline + SEAL_WAIT;
    let mut cursor = 0u64;
    let mut missed = 0u64;
    let mut terminal: Option<ProgressEvent> = None;
    loop {
        // Read before draining: the terminal event is pushed before the
        // channel is marked done, so a drain that starts after `done` cannot
        // miss it to a race.
        let done = channel.is_done();
        let (events, next, gap) = channel.sink.drain_from(cursor);
        cursor = next;
        missed += gap;
        for e in events {
            if e.terminal {
                terminal = Some(e);
                break;
            }
            if out.chunk(format!("{}\n", e.to_json()).as_bytes()).is_err() {
                return None; // client went away mid-stream
            }
        }
        if terminal.is_some() || done {
            break;
        }
        if state.shutdown.is_cancelled() || Instant::now() >= give_up {
            // No terminal chunk and no 0-length trailer: the truncation is
            // visible to the client instead of masquerading as completion.
            return None;
        }
        std::thread::sleep(STREAM_POLL);
    }

    // The driver's terminal push happens just before the response body is
    // rendered and sealed; wait out that window.
    let seal_deadline = Instant::now() + SEAL_WAIT;
    while !channel.is_done() && Instant::now() < seal_deadline {
        std::thread::sleep(STREAM_POLL);
    }
    let body = channel.sealed_body();
    let Some(event) = terminal else {
        // Failed query: nothing more to say; end the stream without a
        // terminal line (the registry record carries the error). A query
        // that did answer but whose terminal event the sink dropped leaves
        // the stream visibly truncated instead.
        if body.is_none() {
            let _ = out.finish();
        }
        return None;
    };
    let mut line = String::with_capacity(event.json_fields().len() + 64);
    line.push('{');
    line.push_str(&event.json_fields());
    line.push_str(&format!(
        ",\"dropped\":{},\"missed\":{missed}",
        channel.sink.dropped()
    ));
    if let Some(body) = &body {
        line.push_str(&format!(",\"outcome\":{body}"));
    }
    line.push_str("}\n");
    if out.chunk(line.as_bytes()).is_err() {
        return None;
    }
    let _ = out.finish();
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn progress_paths_match_exactly() {
        assert_eq!(progress_path_id("GET", "/query/42/progress"), Some("42"));
        assert_eq!(progress_path_id("GET", "/query/x/progress"), Some("x"));
        assert_eq!(progress_path_id("POST", "/query/42/progress"), None);
        assert_eq!(progress_path_id("GET", "/query/42"), None);
        assert_eq!(progress_path_id("GET", "/query"), None);
        assert_eq!(progress_path_id("GET", "/trace/42"), None);
    }

    #[test]
    fn broker_registers_looks_up_and_seals() {
        let broker = ProgressBroker::new(8);
        let ch = broker.register(7);
        assert_eq!(ch.id(), 7);
        assert!(!ch.is_done());
        assert!(broker.get(7).is_some());
        assert!(broker.get(8).is_none());

        ch.seal("{\"id\":7}".to_string());
        assert!(ch.is_done());
        assert_eq!(
            broker.get(7).unwrap().sealed_body().as_deref(),
            Some("{\"id\":7}")
        );
    }

    #[test]
    fn broker_eviction_prefers_finished_channels() {
        let broker = ProgressBroker::new(2);
        let running = broker.register(1);
        let finished = broker.register(2);
        finished.seal("{}".to_string());
        // At capacity: the finished channel goes first, not the oldest.
        broker.register(3);
        assert_eq!(broker.evicted(), 1);
        assert!(broker.get(1).is_some(), "running channel survives");
        assert!(broker.get(2).is_none(), "finished channel evicted");
        // All running: eviction falls back to the oldest.
        broker.register(4);
        assert_eq!(broker.evicted(), 2);
        assert!(broker.get(1).is_none());
        drop(running);
    }

    #[test]
    fn failed_channels_are_done_without_a_body() {
        let broker = ProgressBroker::default();
        let ch = broker.register(1);
        ch.fail();
        assert!(ch.is_done());
        assert_eq!(ch.sealed_body(), None);
    }

    fn event(i: u64, terminal: bool) -> ProgressEvent {
        ProgressEvent {
            query_id: 7,
            layer: i,
            explored: i + 1,
            frontier: 1,
            store_bytes: 0,
            elapsed_ms: i,
            terminal,
        }
    }

    /// Each NDJSON line is one chunk, sent in one write on a `TCP_NODELAY`
    /// socket: nothing in the replay path may hold a line back per line.
    #[test]
    fn finished_query_replay_reaches_a_reading_client_without_per_line_stalls() {
        use std::io::{Read, Write};

        const EVENTS: u64 = 40;
        let server =
            crate::Server::start(crate::ServeConfig::default(), acq_engine::Catalog::new())
                .unwrap();
        let channel = server.state().progress.register(7);
        for i in 0..=EVENTS {
            assert!(channel.sink.try_push(event(i, i == EVENTS)));
        }
        channel.seal("{\"id\":7}".to_string());

        let mut client = TcpStream::connect(server.addr()).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let t0 = Instant::now();
        client
            .write_all(b"GET /query/7/progress HTTP/1.1\r\nHost: test\r\n\r\n")
            .unwrap();
        let mut raw = String::new();
        client.read_to_string(&mut raw).unwrap();
        let elapsed = t0.elapsed();

        assert!(raw.starts_with("HTTP/1.1 200 OK\r\n"), "{raw}");
        assert!(
            raw.ends_with("\r\n0\r\n\r\n"),
            "stream must terminate: {raw}"
        );
        assert_eq!(raw.matches("\"terminal\":false").count() as u64, EVENTS);
        assert!(
            raw.contains("\"terminal\":true,\"dropped\":0,\"missed\":0,\"outcome\":{\"id\":7}}")
        );
        assert!(
            elapsed < Duration::from_millis(EVENTS * 10 / 2),
            "replaying {EVENTS} lines took {elapsed:?}"
        );
    }
}
