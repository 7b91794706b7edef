//! The serving core: a bounded acceptor feeding a fixed worker pool.
//!
//! One acceptor thread owns the listener and pushes accepted streams into
//! a bounded `ConnQueue`; a fixed pool of worker threads pops them and
//! runs the keep-alive session loop (`serve_connection`). Nothing is
//! spawned per connection, so overload cannot exhaust threads — it fills
//! the queue, and the acceptor then sheds further connections *honestly*:
//! a `503` with `Retry-After` is written on the accepted stream before it
//! closes, and `acq_serve_conn_rejected_total` counts it. Of the workers
//! idle when a connection arrives the lowest-numbered takes it, so light
//! traffic keeps meeting the same few threads (and malloc arenas) however
//! often it reconnects.
//!
//! Graceful shutdown drains: the acceptor stops first, workers then serve
//! every connection still in the queue (queries answer `503` because
//! readiness is revoked; non-query endpoints still work), in-flight
//! searches observe the cancelled token and return their partial anytime
//! results, and `Server::shutdown` joins every thread.

use std::collections::VecDeque;
use std::io::{self, Read};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use acq_engine::Catalog;

use crate::handlers::handle;
use crate::http::{write_response, Conn, HttpError, Response};
use crate::progress::{progress_path_id, stream_progress};
use crate::state::{ServeConfig, ServerState};

/// How often the accept loop polls the shutdown token while idle.
const ACCEPT_POLL: Duration = Duration::from_millis(10);

/// How often queue waiters (workers) poll the shutdown token.
const QUEUE_POLL: Duration = Duration::from_millis(50);

/// A bounded MPMC queue of accepted connections, handed to the pool's
/// workers in a fixed order of preference: of the workers idle when a
/// connection arrives, the lowest-numbered takes it. A lone keep-alive client
/// that reconnects every `max_requests_per_conn` requests is then served by
/// one thread throughout instead of touring the pool — and with it, one
/// malloc arena holds the per-request allocations (and the pages the
/// registry's and broker's retention windows have touched) instead of eight.
#[derive(Debug)]
struct ConnQueue {
    inner: Mutex<Waiting>,
    /// One per worker, so a connection wakes only the worker it is for.
    wake: Vec<Condvar>,
    capacity: usize,
}

#[derive(Debug)]
struct Waiting {
    streams: VecDeque<TcpStream>,
    /// `idle[i]`: worker `i` is inside [`ConnQueue::pop`].
    idle: Vec<bool>,
}

impl ConnQueue {
    fn new(capacity: usize, workers: usize) -> Self {
        Self {
            inner: Mutex::new(Waiting {
                streams: VecDeque::new(),
                idle: vec![false; workers],
            }),
            wake: (0..workers).map(|_| Condvar::new()).collect(),
            capacity,
        }
    }

    /// Wakes the worker the next queued connection is for, if there are both.
    fn wake_next(&self, q: &Waiting) {
        if q.streams.is_empty() {
            return;
        }
        if let Some(worker) = q.idle.iter().position(|&idle| idle) {
            self.wake[worker].notify_one();
        }
    }

    /// Enqueues, or hands the stream back when full (the caller sheds it).
    fn push(&self, stream: TcpStream) -> Result<(), TcpStream> {
        let mut q = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if q.streams.len() >= self.capacity {
            return Err(stream);
        }
        q.streams.push_back(stream);
        self.wake_next(&q);
        Ok(())
    }

    /// Pops the next connection for `worker`, once no lower-numbered worker
    /// is idle to take it. During shutdown the queue still drains: `None`
    /// only once the queue is empty *and* the token is cancelled.
    fn pop(&self, worker: usize, state: &ServerState) -> Option<TcpStream> {
        let mut q = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        q.idle[worker] = true;
        loop {
            let first_in_line = !q.idle[..worker].contains(&true);
            let stream = first_in_line.then(|| q.streams.pop_front()).flatten();
            if stream.is_some() || (q.streams.is_empty() && state.shutdown.is_cancelled()) {
                q.idle[worker] = false;
                self.wake_next(&q);
                return stream;
            }
            let (guard, _) = self.wake[worker]
                .wait_timeout(q, QUEUE_POLL)
                .unwrap_or_else(PoisonError::into_inner);
            q = guard;
        }
    }
}

/// A running server: the bound address plus its threads.
pub struct Server {
    addr: SocketAddr,
    state: Arc<ServerState>,
    accept_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds `config.addr` and spawns the worker pool and the acceptor. An
    /// invalid ops config (unopenable journal) fails the bind with
    /// `InvalidInput` rather than starting a server that silently does not
    /// journal.
    pub fn start(config: ServeConfig, catalog: Catalog) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        // Non-blocking accept so the loop can poll the shutdown token; each
        // accepted stream is switched back to blocking before use.
        listener.set_nonblocking(true)?;
        let state = ServerState::try_new(config, catalog)
            .map(Arc::new)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        let pool = state.config.workers.max(1);
        let queue = Arc::new(ConnQueue::new(state.config.accept_queue.max(1), pool));

        let mut workers = Vec::with_capacity(pool);
        for i in 0..pool {
            let worker_state = Arc::clone(&state);
            let worker_queue = Arc::clone(&queue);
            let spawned = std::thread::Builder::new()
                .name(format!("acq-serve-worker-{i}"))
                .spawn(move || worker_loop(i, &worker_queue, &worker_state));
            match spawned {
                Ok(h) => workers.push(h),
                Err(e) => {
                    // Fail closed at startup: release what was spawned.
                    state.shutdown.cancel();
                    for h in workers {
                        let _ = h.join();
                    }
                    return Err(e);
                }
            }
        }

        state.set_ready();
        let loop_state = Arc::clone(&state);
        let accept_thread = std::thread::Builder::new()
            .name("acq-serve-accept".to_string())
            .spawn(move || accept_loop(&listener, &queue, &loop_state));
        let accept_thread = match accept_thread {
            Ok(h) => Some(h),
            Err(e) => {
                state.shutdown.cancel();
                for h in workers {
                    let _ = h.join();
                }
                return Err(e);
            }
        };
        Ok(Server {
            addr,
            state,
            accept_thread,
            workers,
        })
    }

    /// The bound address (resolves port 0 to the ephemeral port).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shared state, for embedding hosts and tests.
    #[must_use]
    pub fn state(&self) -> &Arc<ServerState> {
        &self.state
    }

    /// Whether the server has stopped (shutdown requested and the accept
    /// loop exited or about to).
    #[must_use]
    pub fn is_shutdown(&self) -> bool {
        self.state.shutdown.is_cancelled()
    }

    /// Requests graceful shutdown and joins every thread: the acceptor
    /// stops taking connections, workers drain the queue (queued queries
    /// answer `503`, in-flight searches return anytime results), then exit.
    pub fn shutdown(&mut self) {
        self.state.shutdown.cancel();
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        for t in self.workers.drain(..) {
            let _ = t.join();
        }
    }

    /// Blocks until every serving thread exits (i.e. until something
    /// cancels the shutdown token, e.g. `POST /shutdown`).
    pub fn join(&mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        for t in self.workers.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: &TcpListener, queue: &Arc<ConnQueue>, state: &Arc<ServerState>) {
    while !state.shutdown.is_cancelled() {
        match listener.accept() {
            Ok((stream, _)) => {
                if let Err(stream) = queue.push(stream) {
                    shed_connection(stream, state);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
}

/// The queue is full: answer `503` + `Retry-After` on the doorstep instead
/// of silently dropping the connection, and account for it.
fn shed_connection(stream: TcpStream, state: &Arc<ServerState>) {
    state.telemetry.admission.conn_rejected.inc();
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let resp = Response::json(503, "{\"error\":\"server saturated; connection shed\"}")
        .with_retry_after(1);
    if write_response(&stream, &mut Vec::new(), &resp, false).is_err() {
        return;
    }
    // Lingering close: the client's request bytes are still unread, and
    // closing now would RST the 503 out of its receive buffer — an honest
    // shed must actually arrive. Send our FIN, then drain what the client
    // wrote until it closes; the read timeout and iteration cap bound how
    // long a hostile trickler can pin the acceptor here.
    let _ = stream.shutdown(Shutdown::Write);
    let mut sink = [0u8; 1024];
    for _ in 0..32 {
        match (&stream).read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
}

fn worker_loop(worker: usize, queue: &Arc<ConnQueue>, state: &Arc<ServerState>) {
    while let Some(stream) = queue.pop(worker, state) {
        // The pool is fixed and nothing respawns a worker, so a panic while
        // serving must cost that connection (dropped here, the peer sees it
        // close) and not the thread. What a handler shares across requests
        // is guarded by poison-tolerant locks and RAII permits, so state
        // stays usable after an unwind.
        let _ = catch_unwind(AssertUnwindSafe(|| serve_connection(&stream, state)));
    }
}

/// One connection session: up to `max_requests_per_conn` keep-alive
/// requests, each read under the total deadline, each answered honestly.
fn serve_connection(stream: &TcpStream, state: &Arc<ServerState>) {
    if stream.set_nonblocking(false).is_err() {
        return;
    }
    // The transport rule: one response, one write, `TCP_NODELAY` — no
    // response may sit behind Nagle waiting for the peer's delayed ACK.
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(state.config.read_timeout));
    let peer = stream.peer_addr().ok().map(|a| a.ip());
    let cfg = &state.config;
    let mut conn = Conn::new(stream);
    // Every response of this connection is serialised into this one buffer.
    let mut out = Vec::new();
    let abort = || state.shutdown.is_cancelled();
    for served in 0..cfg.max_requests_per_conn {
        let req =
            match conn.read_request(cfg.max_body_bytes, cfg.read_timeout, cfg.keep_alive, &abort) {
                Ok(req) => req,
                Err(e) => {
                    let resp = match &e {
                        HttpError::Timeout => {
                            state.telemetry.admission.read_timeouts.inc();
                            Response::json(408, "{\"error\":\"request read deadline exceeded\"}")
                        }
                        HttpError::TooLarge(cap) => Response::json(
                            413,
                            format!("{{\"error\":\"request body exceeds {cap} bytes\"}}"),
                        ),
                        HttpError::Malformed(what) => Response::json(
                            400,
                            format!(
                                "{{\"error\":\"{}\"}}",
                                acq_obs::snapshot::json_escape(&format!(
                                    "malformed request: {what}"
                                ))
                            ),
                        ),
                        // Peer gone or keep-alive idled out: nothing to say.
                        HttpError::Closed | HttpError::Io(_) => return,
                    };
                    let _ = write_response(stream, &mut out, &resp, false);
                    return;
                }
            };
        if served > 0 {
            state.telemetry.admission.keepalive_reuses.inc();
        }
        // Streaming bypass: `GET /query/<id>/progress` writes chunked
        // NDJSON on the socket directly, so it cannot go through the
        // buffered handle → write_response path. Errors (bad id, unknown
        // query) come back as ordinary responses and keep the session.
        if let Some(id) = progress_path_id(&req.method, &req.path) {
            state.telemetry.record_request(state.now());
            match stream_progress(state, stream, &mut out, id) {
                Some(resp) => {
                    let keep = req.keep_alive()
                        && served + 1 < cfg.max_requests_per_conn
                        && !state.shutdown.is_cancelled();
                    if write_response(stream, &mut out, &resp, keep).is_err() || !keep {
                        return;
                    }
                    continue;
                }
                // Chunked responses are Connection: close by construction.
                None => return,
            }
        }
        let resp = handle(state, &req, peer);
        let keep = req.keep_alive()
            && served + 1 < cfg.max_requests_per_conn
            && !state.shutdown.is_cancelled();
        if write_response(stream, &mut out, &resp, keep).is_err() || !keep {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    #[test]
    fn starts_on_ephemeral_port_and_shuts_down() {
        let mut server = Server::start(ServeConfig::default(), Catalog::new()).unwrap();
        assert_ne!(server.addr().port(), 0);
        assert!(server.state().is_ready());
        server.shutdown();
        assert!(server.is_shutdown());
    }

    /// Connections go to the lowest-numbered idle worker, so a client that
    /// comes back after every connection keeps meeting the same thread.
    #[test]
    fn the_lowest_numbered_idle_worker_takes_the_connection() {
        let state = ServerState::new(ServeConfig::default(), Catalog::new());
        let queue = ConnQueue::new(8, 3);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let connection = || TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let idle = |workers: &[usize]| loop {
            let q = queue.inner.lock().unwrap();
            if workers.iter().all(|&w| q.idle[w]) {
                break;
            }
            drop(q);
            std::thread::yield_now();
        };
        std::thread::scope(|scope| {
            let (took, taken) = std::sync::mpsc::channel();
            let pop = |worker: usize| {
                let (took, queue, state) = (took.clone(), &queue, &state);
                scope.spawn(move || took.send((worker, queue.pop(worker, state).is_some())))
            };
            // Every worker idle: worker 0 takes the connection.
            let _workers = [pop(2), pop(1), pop(0)];
            idle(&[0, 1, 2]);
            queue.push(connection()).unwrap();
            assert_eq!(taken.recv().unwrap(), (0, true));
            // Worker 0 busy: worker 1 does.
            queue.push(connection()).unwrap();
            assert_eq!(taken.recv().unwrap(), (1, true));
            // Worker 0 back before the next connection: worker 0 again.
            let _again = pop(0);
            idle(&[0, 2]);
            queue.push(connection()).unwrap();
            assert_eq!(taken.recv().unwrap(), (0, true));
            // Shutdown releases whoever still waits, with nothing.
            state.shutdown.cancel();
            assert_eq!(taken.recv().unwrap(), (2, false));
        });
    }

    #[test]
    fn full_accept_queue_sheds_with_503_not_a_silent_drop() {
        // workers = 0 is clamped to 1, but that one worker never gets this
        // connection: capacity-1 queue is pre-filled by a parked stream.
        let config = ServeConfig {
            accept_queue: 1,
            workers: 1,
            keep_alive: Duration::from_secs(30),
            ..ServeConfig::default()
        };
        let server = Server::start(config, Catalog::new()).unwrap();
        let addr = server.addr();
        // The single worker parks on the first connection's keep-alive
        // wait; the second occupies the queue; the third must be shed.
        let _parked1 = TcpStream::connect(addr).unwrap();
        let _parked2 = TcpStream::connect(addr).unwrap();
        // Give the acceptor time to move parked1 to the worker and leave
        // parked2 in the queue, then flood until a shed is observed.
        let mut shed_body = None;
        for _ in 0..50 {
            let mut s = TcpStream::connect(addr).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
            s.write_all(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
                .unwrap();
            let mut raw = String::new();
            let _ = s.read_to_string(&mut raw);
            if raw.starts_with("HTTP/1.1 503") {
                shed_body = Some(raw);
                break;
            }
        }
        let raw = shed_body.expect("flooding a 1-deep queue must shed");
        assert!(raw.contains("Retry-After: 1\r\n"), "{raw}");
        assert!(raw.contains("connection shed"), "{raw}");
        assert!(server.state().telemetry.admission.conn_rejected.get() >= 1);
    }
}
