//! Chaos harness: hostile clients and overload against a live server.
//!
//! Every test here speaks raw TCP to a real `Server` on an ephemeral port
//! and asserts the overload contract from DESIGN.md: the server never
//! panics or deadlocks, every accepted connection gets an honest status
//! (`{200, 400, 408, 413, 429, 503}` — never a silent drop), shed and
//! degraded work is accounted in the admission counters, and graceful
//! shutdown drains admitted work while rejecting the rest.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use acq_engine::{Catalog, DataType, Field, TableBuilder, Value};
use acq_serve::{ServeConfig, Server};
use acquire_core::EvalLayerKind;

// ---------------------------------------------------------------------------
// Catalogs and helpers
// ---------------------------------------------------------------------------

/// A small catalog whose queries finish in milliseconds.
fn fast_catalog() -> Catalog {
    let mut b = TableBuilder::new("t", vec![Field::new("x", DataType::Float)]).unwrap();
    for i in 0..500 {
        b.push_row(vec![Value::Float(f64::from(i) * 0.1)]);
    }
    let mut cat = Catalog::new();
    cat.register(b.finish().unwrap()).unwrap();
    cat
}

const FAST_SQL: &str = "SELECT * FROM t CONSTRAINT COUNT(*) >= 400 WHERE x <= 1";

/// A catalog sized so that [`SLOW_SQL`] under the [`EvalLayerKind::Scan`]
/// layer reliably runs for several seconds (every refinement step re-scans
/// every row), yet stays interruptible: the driver polls budget and token
/// between cells.
fn slow_catalog() -> Catalog {
    let mut b = TableBuilder::new("big", vec![Field::new("x", DataType::Float)]).unwrap();
    for i in 0..60_000 {
        b.push_row(vec![Value::Float(f64::from(i))]);
    }
    let mut cat = Catalog::new();
    cat.register(b.finish().unwrap()).unwrap();
    cat
}

const SLOW_SQL: &str = "SELECT * FROM big CONSTRAINT COUNT(*) >= 59000 WHERE x <= 1";

/// Body for a slow query: fine-grained gamma multiplies refinement steps.
fn slow_body(timeout_secs: u32) -> String {
    format!("{{\"sql\":\"{SLOW_SQL}\",\"gamma\":1.0,\"timeout_secs\":{timeout_secs}}}")
}

/// One blocking HTTP/1.1 exchange with optional extra header lines;
/// returns (status, body). Reads to EOF (sends `Connection: close`).
fn http_with(
    addr: SocketAddr,
    method: &str,
    target: &str,
    extra_headers: &str,
    body: &str,
) -> (u16, String) {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(120))).unwrap();
    let req = format!(
        "{method} {target} HTTP/1.1\r\nHost: chaos\r\nConnection: close\r\n{extra_headers}\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    );
    s.write_all(req.as_bytes()).unwrap();
    let mut raw = String::new();
    s.read_to_string(&mut raw).unwrap();
    parse_response(&raw)
}

fn http(addr: SocketAddr, method: &str, target: &str, body: &str) -> (u16, String) {
    http_with(addr, method, target, "", body)
}

fn parse_response(raw: &str) -> (u16, String) {
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .unwrap_or_else(|| panic!("no status line in {raw:?}"))
        .parse()
        .expect("numeric status");
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// Polls `cond` until true or the deadline passes (then panics with `what`).
fn wait_for(what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

// ---------------------------------------------------------------------------
// Connection flood at 4x the admission limit
// ---------------------------------------------------------------------------

#[test]
fn flood_at_4x_admission_limit_returns_only_200_429_503() {
    let config = ServeConfig {
        layer: EvalLayerKind::CachedScore,
        max_concurrent: 2,
        max_queued: 1,
        queue_wait: Duration::from_millis(100),
        // Surface 429s too: all flood clients share the loopback bucket.
        client_rate: 20.0,
        client_burst: 4.0,
        workers: 4,
        accept_queue: 4,
        ..ServeConfig::default()
    };
    let server = Server::start(config, fast_catalog()).unwrap();
    let addr = server.addr();

    // 8 concurrent clients = 4x the admission limit (max_concurrent = 2),
    // each sending several queries back to back.
    let statuses: Vec<u16> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                s.spawn(move || {
                    let mut got = Vec::new();
                    for _ in 0..4 {
                        let body = format!("{{\"sql\":\"{FAST_SQL}\"}}");
                        let (status, _) = http(addr, "POST", "/query", &body);
                        got.push(status);
                    }
                    got
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });

    // Every connection was answered (32 requests, 32 statuses) and every
    // status is from the honest overload set.
    assert_eq!(statuses.len(), 32);
    for status in &statuses {
        assert!(
            matches!(status, 200 | 429 | 503),
            "unexpected status {status} in {statuses:?}"
        );
    }
    assert!(
        statuses.contains(&200),
        "some work must get through: {statuses:?}"
    );
    assert!(
        statuses.iter().any(|&s| s == 429 || s == 503),
        "a 4x flood with burst 4 must shed or rate-limit: {statuses:?}"
    );

    // The sheds/limits are accounted, and the server is still healthy.
    let stats = &server.state().telemetry.admission;
    let rejected = stats.shed.get() + stats.rate_limited.get() + stats.conn_rejected.get();
    assert!(rejected >= 1, "admission counters missed the flood");
    let (status, _) = http(addr, "GET", "/healthz", "");
    assert_eq!(status, 200, "server unhealthy after flood");
}

// ---------------------------------------------------------------------------
// Hostile clients: slowloris, stalled bodies, disconnects, garbage
// ---------------------------------------------------------------------------

/// Trickles `bytes` at one byte per 25ms, ignoring write errors once the
/// server gives up, then returns whatever response the server sent.
fn trickle(addr: SocketAddr, bytes: &[u8]) -> String {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    for chunk in bytes.chunks(1) {
        if s.write_all(chunk).is_err() {
            break; // server already closed on us; go read its answer
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    let mut raw = String::new();
    let _ = s.read_to_string(&mut raw);
    raw
}

#[test]
fn slowloris_trickle_gets_408_and_the_worker_is_reclaimed() {
    let config = ServeConfig {
        workers: 1,
        read_timeout: Duration::from_millis(300),
        ..ServeConfig::default()
    };
    let server = Server::start(config, fast_catalog()).unwrap();
    let addr = server.addr();

    // 40 bytes at 25ms each = a full second of trickle against a 300ms
    // total read budget: the deadline must fire mid-headers.
    let raw = trickle(addr, b"POST /query HTTP/1.1\r\nHost: slowloris\r\nCo");
    assert!(
        raw.starts_with("HTTP/1.1 408"),
        "slowloris must get 408, got {raw:?}"
    );
    assert!(raw.contains("read deadline exceeded"), "{raw}");
    assert!(server.state().telemetry.admission.read_timeouts.get() >= 1);

    // The single worker thread was reclaimed: a well-behaved client is
    // served immediately afterwards.
    let (status, body) = http(addr, "GET", "/healthz", "");
    assert_eq!(
        (status, body.as_str()),
        (200, "ok\n"),
        "worker not reclaimed"
    );
}

#[test]
fn stalled_body_gets_408_and_the_worker_is_reclaimed() {
    let config = ServeConfig {
        workers: 1,
        read_timeout: Duration::from_millis(300),
        ..ServeConfig::default()
    };
    let server = Server::start(config, fast_catalog()).unwrap();
    let addr = server.addr();

    // Headers arrive promptly, then the body stalls 90 bytes short.
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(b"POST /query HTTP/1.1\r\nHost: stall\r\nContent-Length: 100\r\n\r\n0123456789")
        .unwrap();
    let mut raw = String::new();
    let _ = s.read_to_string(&mut raw);
    assert!(
        raw.starts_with("HTTP/1.1 408"),
        "stalled body must get 408, got {raw:?}"
    );

    let (status, _) = http(addr, "GET", "/healthz", "");
    assert_eq!(status, 200, "worker not reclaimed after stalled body");
}

#[test]
fn mid_body_disconnect_and_garbage_bytes_are_survived() {
    let config = ServeConfig {
        workers: 1,
        read_timeout: Duration::from_millis(500),
        ..ServeConfig::default()
    };
    let server = Server::start(config, fast_catalog()).unwrap();
    let addr = server.addr();

    // Disconnect mid-body: the server sees EOF short of Content-Length.
    // Whatever it tries to write lands on a dead socket; it must just
    // move on to the next connection.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(b"POST /query HTTP/1.1\r\nContent-Length: 100\r\n\r\npartial")
            .unwrap();
    } // dropped: RST/FIN mid-request

    // Garbage bytes get an honest 400, not a hang or a crash.
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s.write_all(b"\x01\x02garbage without structure\r\n\r\n")
        .unwrap();
    let mut raw = String::new();
    let _ = s.read_to_string(&mut raw);
    assert!(
        raw.starts_with("HTTP/1.1 400"),
        "garbage must get 400, got {raw:?}"
    );
    assert!(raw.contains("malformed request"), "{raw}");

    // A body nested far past the JSON reader's depth bound, yet inside the
    // body cap, is refused with a position instead of overflowing the
    // worker's stack and aborting the process.
    let (status, body) = http(addr, "POST", "/query", &"[".repeat(60_000));
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("at byte 128"), "{body}");

    // And the lone worker still serves real traffic.
    let (status, _) = http(addr, "GET", "/healthz", "");
    assert_eq!(status, 200, "worker wedged by hostile clients");
}

// ---------------------------------------------------------------------------
// Keep-alive sessions
// ---------------------------------------------------------------------------

/// Reads exactly one HTTP/1.1 response (headers + Content-Length body)
/// without consuming the next one on the same keep-alive socket.
fn read_framed_response(s: &mut TcpStream) -> (u16, String) {
    let mut raw = Vec::new();
    let mut byte = [0u8; 1];
    while !raw.ends_with(b"\r\n\r\n") {
        match s.read(&mut byte) {
            Ok(1) => raw.push(byte[0]),
            other => panic!("connection died mid-headers: {other:?}"),
        }
    }
    let head = String::from_utf8(raw).unwrap();
    let content_length: usize = head
        .lines()
        .find_map(|l| {
            l.to_ascii_lowercase()
                .strip_prefix("content-length:")
                .map(str::to_string)
        })
        .and_then(|v| v.trim().parse().ok())
        .expect("Content-Length header");
    let mut body = vec![0u8; content_length];
    s.read_exact(&mut body).unwrap();
    let status: u16 = head.split_whitespace().nth(1).unwrap().parse().unwrap();
    (status, String::from_utf8(body).unwrap())
}

#[test]
fn keep_alive_sessions_serve_multiple_requests_per_connection() {
    let server = Server::start(ServeConfig::default(), fast_catalog()).unwrap();
    let mut s = TcpStream::connect(server.addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();

    // Two requests, one socket, no `Connection: close`.
    for i in 0..2 {
        s.write_all(b"GET /healthz HTTP/1.1\r\nHost: ka\r\n\r\n")
            .unwrap();
        let (status, body) = read_framed_response(&mut s);
        assert_eq!((status, body.as_str()), (200, "ok\n"), "request {i}");
    }
    assert!(
        server.state().telemetry.admission.keepalive_reuses.get() >= 1,
        "second request on the socket must count as a keep-alive reuse"
    );

    // An HTTP/1.0-style close is honoured: the server ends the session.
    s.write_all(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
        .unwrap();
    let (status, _) = read_framed_response(&mut s);
    assert_eq!(status, 200);
    let n = s.read(&mut [0u8; 16]);
    assert!(
        matches!(n, Ok(0) | Err(_)),
        "server must close after Connection: close, got {n:?}"
    );
}

// ---------------------------------------------------------------------------
// Deadline propagation
// ---------------------------------------------------------------------------

#[test]
fn deadline_header_bounds_the_query_and_bad_headers_get_400() {
    let config = ServeConfig {
        layer: EvalLayerKind::Scan,
        ..ServeConfig::default()
    };
    let server = Server::start(config, slow_catalog()).unwrap();
    let addr = server.addr();

    // A 60ms transport deadline against a multi-second query: the budget
    // interrupts the search, and the partial answer says so explicitly.
    let t0 = Instant::now();
    let (status, body) = http_with(
        addr,
        "POST",
        "/query",
        "X-ACQ-Deadline-Ms: 60\r\n",
        &slow_body(30),
    );
    let elapsed = t0.elapsed();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"status\":\"interrupted\""), "{body}");
    assert!(body.contains("\"reason\":\"deadline\""), "{body}");
    assert!(
        elapsed < Duration::from_secs(5),
        "60ms deadline ignored: query ran {elapsed:?}"
    );

    // The JSON spelling binds too, and the tightest bound wins.
    let body =
        format!("{{\"sql\":\"{SLOW_SQL}\",\"gamma\":1.0,\"deadline_ms\":60,\"timeout_secs\":30}}");
    let (status, resp) = http(addr, "POST", "/query", &body);
    assert_eq!(status, 200, "{resp}");
    assert!(resp.contains("\"reason\":\"deadline\""), "{resp}");

    // Unparseable header: reject before any work happens (the body is
    // valid, so the 400 is attributable to the header alone).
    let (status, resp) = http_with(
        addr,
        "POST",
        "/query",
        "X-ACQ-Deadline-Ms: soon\r\n",
        &slow_body(1),
    );
    assert_eq!(status, 400, "{resp}");
    assert!(resp.contains("X-ACQ-Deadline-Ms"), "{resp}");
}

// ---------------------------------------------------------------------------
// Graceful degradation past the high-water mark
// ---------------------------------------------------------------------------

#[test]
fn degraded_admissions_return_partial_answers_with_explicit_termination() {
    let config = ServeConfig {
        layer: EvalLayerKind::Scan,
        max_concurrent: 4,
        // degrade_at = ceil(4 * 0.25) = 1: the second concurrent query is
        // best-effort with a 1% budget.
        degrade_watermark: 0.25,
        degrade_factor: 0.01,
        ..ServeConfig::default()
    };
    let server = Server::start(config, slow_catalog()).unwrap();
    let addr = server.addr();
    let state = server.state().clone();

    std::thread::scope(|s| {
        // Query A occupies the only pre-watermark slot.
        let a = s.spawn(move || http(addr, "POST", "/query", &slow_body(20)));
        wait_for("query A to start", || state.gate.active() >= 1);

        // Query B lands above the watermark: admitted, but degraded. Its
        // 10s ask shrinks to ~100ms, so it returns a fast partial answer.
        let t0 = Instant::now();
        let (status, body) = http(addr, "POST", "/query", &slow_body(10));
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"degraded\":true"), "{body}");
        assert!(body.contains("\"status\":\"interrupted\""), "{body}");
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "degraded budget did not shrink"
        );
        assert!(state.telemetry.admission.degraded.get() >= 1);

        // Reap A: shutdown interrupts it into its anytime answer.
        let (status, _) = http(addr, "POST", "/shutdown", "");
        assert_eq!(status, 202);
        let (status, body) = a.join().unwrap();
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"status\":\"interrupted\""), "{body}");
    });
}

// ---------------------------------------------------------------------------
// Shutdown under load
// ---------------------------------------------------------------------------

#[test]
fn shutdown_under_load_drains_in_flight_rejects_queued_and_joins() {
    let config = ServeConfig {
        layer: EvalLayerKind::Scan,
        max_concurrent: 1,
        max_queued: 4,
        queue_wait: Duration::from_secs(30),
        workers: 3,
        ..ServeConfig::default()
    };
    let mut server = Server::start(config, slow_catalog()).unwrap();
    let addr = server.addr();
    let state = server.state().clone();

    let (a, b) = std::thread::scope(|s| {
        // A holds the single execution slot...
        let a = s.spawn(move || http(addr, "POST", "/query", &slow_body(20)));
        wait_for("query A to take the slot", || state.gate.active() >= 1);
        // ...and B waits behind it at the admission gate.
        let b = s.spawn(move || http(addr, "POST", "/query", &slow_body(20)));
        wait_for("query B to queue at the gate", || state.gate.queued() >= 1);

        let (status, _) = http(addr, "POST", "/shutdown", "");
        assert_eq!(status, 202);
        (a.join().unwrap(), b.join().unwrap())
    });

    // A was admitted: it drains to its partial anytime answer.
    assert_eq!(a.0, 200, "in-flight query must drain: {}", a.1);
    assert!(a.1.contains("\"status\":\"interrupted\""), "{}", a.1);
    assert!(a.1.contains("\"reason\":\"cancelled\""), "{}", a.1);
    // B was still queued: honestly rejected, never silently dropped.
    assert_eq!(b.0, 503, "queued query must be rejected: {}", b.1);

    // Every serving thread exits; join() returning IS the assertion.
    server.join();
    assert!(server.is_shutdown());
    // The drained work is visible in the registry: A completed (with an
    // interrupted termination), nothing is still marked running.
    let (running, completed, _) = server.state().registry.counts();
    assert_eq!(running, 0, "registry leaked a running record");
    assert!(completed >= 1);
}

// ---------------------------------------------------------------------------
// Spoofed-IP flood against the rate limiter's bucket map
// ---------------------------------------------------------------------------

#[test]
fn spoofed_ip_flood_keeps_bucket_memory_bounded_and_ttl_sweeps_the_corpse_pile() {
    use std::net::{IpAddr, Ipv4Addr};

    use acq_serve::admission::{CLIENT_TTL, MAX_TRACKED_CLIENTS, SWEEP_INTERVAL};
    use acq_serve::RateLimiters;

    // Per-client limiting on, global tier open: every spoofed address gets
    // its own bucket, which is exactly the memory attack being simulated.
    let lim = RateLimiters::new(10.0, 5.0, 0.0, 1.0);
    let t0 = Instant::now();
    let spoof = |i: usize| IpAddr::V4(Ipv4Addr::from(0x0a00_0000u32 + i as u32));

    // Burst phase: 3x the cap in distinct spoofed source addresses, all
    // inside one sweep interval. The map must stop at the cap, with the
    // overflow evicted (and tallied), not accumulated.
    let flood = 3 * MAX_TRACKED_CLIENTS;
    for i in 0..flood {
        let _ = lim.check_at(Some(spoof(i)), t0);
    }
    assert_eq!(lim.tracked_clients(), MAX_TRACKED_CLIENTS);
    assert_eq!(lim.take_evicted(), (flood - MAX_TRACKED_CLIENTS) as u64);

    // Idle phase: the flood stops. One legitimate client arriving after the
    // TTL horizon triggers the amortised sweep, which must reclaim every
    // corpse bucket in one pass — this is the unbounded-growth fix: before
    // the sweep, the dead flood pinned the cap's worth of memory forever.
    let later = t0 + CLIENT_TTL + SWEEP_INTERVAL;
    let legit: IpAddr = "192.168.7.7".parse().unwrap();
    assert!(lim.check_at(Some(legit), later).is_ok());
    assert_eq!(
        lim.tracked_clients(),
        1,
        "only the live client survives the TTL sweep"
    );
    assert_eq!(lim.take_evicted(), MAX_TRACKED_CLIENTS as u64);

    // The sweep is amortised: a second wave arriving right after does not
    // rescan per request, and a still-active client is never swept.
    for i in 0..100 {
        let _ = lim.check_at(Some(spoof(i)), later);
    }
    let keepalive = later + CLIENT_TTL - Duration::from_secs(1);
    assert!(lim.check_at(Some(legit), keepalive).is_ok());
    let after_second_sweep = keepalive + SWEEP_INTERVAL;
    assert!(lim.check_at(Some(legit), after_second_sweep).is_ok());
    assert_eq!(
        lim.tracked_clients(),
        1,
        "the touched client outlives idle spoofed ones"
    );
    assert_eq!(lim.take_evicted(), 100);
}
