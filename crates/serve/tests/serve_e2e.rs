//! End-to-end tests over a real socket: start the server on an ephemeral
//! port, speak HTTP/1.1 to it, and check the three tentpole guarantees —
//! bit-identical outcomes across thread counts with serve instrumentation
//! on, honest registry/trace reporting, and a scrapeable metrics surface.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use acq_engine::{Catalog, DataType, Field, TableBuilder, Value};
use acq_obs::json::{parse, JsonValue};
use acq_serve::{ServeConfig, Server};
use acquire_core::EvalLayerKind;

fn catalog() -> Catalog {
    let mut b = TableBuilder::new(
        "t",
        vec![
            Field::new("x", DataType::Float),
            Field::new("y", DataType::Float),
        ],
    )
    .unwrap();
    for i in 0..3000 {
        b.push_row(vec![
            Value::Float(f64::from(i) * 0.1),
            Value::Float(f64::from(i % 150)),
        ]);
    }
    let mut cat = Catalog::new();
    cat.register(b.finish().unwrap()).unwrap();
    cat
}

const SQL: &str = "SELECT * FROM t CONSTRAINT COUNT(*) >= 800 WHERE x <= 10 AND y <= 30";

/// One request of each kind the server dispatches on, over the same table:
/// an expansion, a §7.2 contraction, and an `=` whose original query
/// already overshoots (an expansion that ends unsatisfied, then a
/// contraction).
const KINDS: [&str; 3] = [
    SQL,
    "SELECT * FROM t CONSTRAINT COUNT(*) <= 400 WHERE x <= 200 AND y <= 100",
    "SELECT * FROM t CONSTRAINT COUNT(*) = 400 WHERE x <= 200 AND y <= 100",
];

/// One blocking HTTP/1.1 exchange; returns (status, body).
fn http(addr: SocketAddr, method: &str, target: &str, body: &str) -> (u16, String) {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(120))).unwrap();
    // `Connection: close` because this helper reads to EOF; keep-alive
    // reuse is exercised by the chaos suite.
    let req = format!(
        "{method} {target} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    );
    s.write_all(req.as_bytes()).unwrap();
    let mut raw = String::new();
    s.read_to_string(&mut raw).unwrap();
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .expect("status line")
        .parse()
        .expect("numeric status");
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

fn start(config: ServeConfig) -> Server {
    Server::start(config, catalog()).unwrap()
}

/// Drops the per-request volatile fields so outcome bodies compare equal
/// across requests and thread counts.
fn strip_volatile(body: &str) -> JsonValue {
    let JsonValue::Obj(mut fields) = parse(body).unwrap() else {
        panic!("outcome is not a JSON object: {body}");
    };
    for key in ["id", "duration_ms", "profile"] {
        fields.remove(key);
    }
    JsonValue::Obj(fields)
}

/// Bit-identical answers across thread counts, and one per-query record:
/// whichever searches a request ran, `/queries`, the `?explain=1` profile
/// and the journal digest report the same `cells_executed`, it is the
/// executor's own `stats.cell_queries`, the trace is retained and the
/// progress stream saw the search run.
#[test]
fn outcomes_are_bit_identical_and_every_surface_tells_one_story() {
    let path = temp_path("one-record");
    let server = start(ServeConfig {
        journal_path: Some(path.clone()),
        ..ServeConfig::default()
    });
    let addr = server.addr();
    let u = |v: &JsonValue, ptr: &str| {
        v.pointer(ptr)
            .and_then(JsonValue::as_u64)
            .unwrap_or_else(|| panic!("no {ptr} in {v:?}"))
    };
    // (id, cell_queries, whether the request ran two searches)
    let mut expected: Vec<(u64, u64, bool)> = Vec::new();
    for sql in KINDS {
        let mut baseline: Option<JsonValue> = None;
        for threads in [1usize, 2, 4, 8] {
            let body = format!("{{\"sql\":\"{sql}\",\"threads\":{threads}}}");
            let (status, resp) = http(addr, "POST", "/query?explain=1", &body);
            assert_eq!(status, 200, "threads={threads}: {resp}");
            let v = parse(&resp).unwrap();
            assert_eq!(
                v.pointer("/satisfied").and_then(JsonValue::as_bool),
                Some(true),
                "threads={threads}: {resp}"
            );
            let (id, cell_queries) = (u(&v, "/id"), u(&v, "/stats/cell_queries"));
            assert_eq!(u(&v, "/profile/cells_executed"), cell_queries, "{resp}");
            let fell_through = sql == KINDS[2];
            if fell_through {
                assert!(u(&v, "/explored") < cell_queries, "{resp}");
                // The returned search contracted `Q`, which the first one
                // observed: no expansion diff, and the original's aggregate.
                let changes = v.pointer("/queries/0/changes");
                assert!(
                    matches!(changes, Some(JsonValue::Arr(c)) if c.is_empty()),
                    "{resp}"
                );
                let original = v.pointer("/original_aggregate");
                assert!(original.and_then(JsonValue::as_f64).is_some(), "{resp}");
            } else {
                assert_eq!(u(&v, "/explored"), cell_queries, "{resp}");
            }
            expected.push((id, cell_queries, fell_through));

            let (status, trace) = http(addr, "GET", &format!("/trace/{id}"), "");
            assert_eq!(status, 200, "{trace}");
            let events = match parse(&trace).unwrap().pointer("/events") {
                Some(JsonValue::Arr(events)) => events.len(),
                other => panic!("events is not an array: {other:?} in {trace}"),
            };
            assert!(events > 0, "{sql}: empty trace");
            let progress = http_raw(addr, "GET", &format!("/query/{id}/progress"), "");
            assert!(
                progress.contains("\"terminal\":false"),
                "{sql}: no mid-run progress event: {progress}"
            );

            let out = strip_volatile(&resp);
            match &baseline {
                None => baseline = Some(out),
                Some(b) => assert_eq!(b, &out, "{sql}: threads={threads} diverged"),
            }
        }
    }

    // Registry: one completed record per request, its fields flat.
    let (status, body) = http(addr, "GET", "/queries", "");
    assert_eq!(status, 200);
    let v = parse(&body).unwrap();
    let completed = match v.pointer("/completed") {
        Some(JsonValue::Arr(records)) => records.clone(),
        other => panic!("completed is not an array: {other:?} in {body}"),
    };
    assert_eq!(completed.len(), expected.len(), "{body}");
    for rec in &completed {
        let &(_, cell_queries, fell_through) = expected
            .iter()
            .find(|(id, ..)| *id == u(rec, "/id"))
            .unwrap_or_else(|| panic!("unknown record {rec:?}"));
        assert_eq!(u(rec, "/cells_executed"), cell_queries, "{body}");
        if !fell_through {
            // The at-most-once invariant (Eq. 17 — only the cell itself runs).
            assert_eq!(u(rec, "/cells_executed"), u(rec, "/explored"), "{body}");
        }
        assert_eq!(
            rec.pointer("/status").and_then(JsonValue::as_str),
            Some("completed")
        );
    }

    // Journal: the digest of every record says the same.
    let journal = server.state().journal.as_ref().expect("journal is on");
    assert!(journal.flush(Duration::from_secs(10)));
    let read = acq_obs::journal::read_journal(&path).unwrap();
    assert_eq!(read.records.len(), expected.len(), "{read:?}");
    for line in &read.records {
        let v = parse(line).unwrap();
        let &(_, cell_queries, _) = expected
            .iter()
            .find(|(id, ..)| *id == u(&v, "/id"))
            .unwrap_or_else(|| panic!("unknown journal record {line}"));
        assert_eq!(u(&v, "/digest/cells_executed"), cell_queries, "{line}");
    }

    // And so does the scrape: the absorbed per-query counters sum to the
    // executor work of every request.
    let (_, metrics) = http(addr, "GET", "/metrics", "");
    assert_eq!(
        series(&metrics, "acq_cells_executed_total"),
        expected.iter().map(|&(_, cells, _)| cells).sum::<u64>(),
        "{metrics}"
    );
    drop(server);
    remove_journal(&path);
}

/// Bit-identity across the one-loop refactor: the `outcome_key` of a dozen
/// seeded requests — `small_mix`'s SQL shapes on 2 000 `users`, four of each
/// kind — recorded at the commit before contraction became a direction of
/// the driver's loop. A key moves only if an answer a client could act on
/// does; where its layer came from is not such a thing. The first two rows
/// prepare every layer fresh; the third's `Q'_min` is the second's (second
/// sight: built again, retained); the last repeats the third, its expansion
/// layer at second sight and its contraction layer a hit.
#[test]
fn seeded_outcome_keys_are_pinned_for_every_request_kind() {
    use acq_datagen::{users, GenConfig};

    let mut cat = Catalog::new();
    cat.register(users::users(&GenConfig::uniform(2_000).with_seed(7)).unwrap())
        .unwrap();
    let server = Server::start(
        ServeConfig {
            layer: EvalLayerKind::CachedScore,
            ..ServeConfig::default()
        },
        cat,
    )
    .unwrap();
    let expanding = [
        (28, 86_000.5),
        (30, 91_234.25),
        (31, 88_400.0),
        (33, 95_999.75),
    ];
    let overshooting = [
        (58, 193_000.5),
        (60, 201_234.25),
        (61, 198_400.0),
        (63, 207_999.75),
    ];
    let pinned = [
        (
            ">= 400",
            expanding,
            [
                "ebc156746c579190",
                "8fe9cf4aaf8de4aa",
                "bb814f11d2a58f68",
                "a8251ecd74b14215",
            ],
        ),
        (
            "<= 700",
            overshooting,
            [
                "3a793bc88996e840",
                "703c92e8bc767f89",
                "7a9daf809bc14973",
                "9f4739bc5e35a866",
            ],
        ),
        (
            "= 300",
            overshooting,
            [
                "2642827911c17749",
                "8c012c45d0dd2b51",
                "7eccb034dc567324",
                "c92898bd9fabfc79",
            ],
        ),
        (
            "= 300",
            overshooting,
            [
                "2642827911c17749",
                "8c012c45d0dd2b51",
                "7eccb034dc567324",
                "c92898bd9fabfc79",
            ],
        ),
    ];
    for (constraint, bounds, keys) in pinned {
        for ((age, income), key) in bounds.into_iter().zip(keys) {
            let sql = format!(
                "SELECT * FROM users CONSTRAINT COUNT(*) {constraint} \
                 WHERE age <= {age} AND income <= {income}"
            );
            let body = format!("{{\"sql\":\"{sql}\"}}");
            let (status, resp) = http(server.addr(), "POST", "/query", &body);
            assert_eq!(status, 200, "{sql}: {resp}");
            assert_eq!(
                parse(&resp)
                    .unwrap()
                    .pointer("/outcome_key")
                    .and_then(JsonValue::as_str),
                Some(key),
                "{sql}: {resp}"
            );
        }
    }
    let (_, metrics) = http(server.addr(), "GET", "/metrics", "");
    let prepared = |name: &str| series(&metrics, &format!("acq_serve_prepared_{name}"));
    // 4 + 4 + 8 + 8 layers asked for, the last four out of the cache.
    assert_eq!((prepared("misses_total"), prepared("hits_total")), (20, 4));
    assert_eq!(prepared("entries"), 8, "{metrics}");
}

/// Fig. 11's join with bounds that never repeat misses every prepared
/// layer, and from the join's second sight on the builds share it: the
/// `prepare:` span says so, `/metrics` counts it, and the answer — `stats`
/// included — is the one a server that never joined those tables gives.
#[test]
fn joined_requests_share_one_base_relation_and_answer_the_same() {
    use acq_datagen::{tpch, GenConfig};

    let catalog = || tpch::generate_q2(&GenConfig::uniform(5_000).with_seed(7)).unwrap();
    let config = || ServeConfig {
        layer: EvalLayerKind::CachedScore,
        ..ServeConfig::default()
    };
    let sql = |price: u32, balance: u32| {
        format!(
            "SELECT * FROM supplier, part, partsupp CONSTRAINT SUM(ps_availqty) >= 3M \
             WHERE (s_suppkey = ps_suppkey) NOREFINE AND (p_partkey = ps_partkey) NOREFINE \
             AND (p_retailprice < {price}) AND (s_acctbal < {balance})"
        )
    };
    let post = |server: &Server, sql: &str| {
        let body = format!("{{\"sql\":\"{sql}\"}}");
        let (status, resp) = http(server.addr(), "POST", "/query", &body);
        assert_eq!(status, 200, "{sql}: {resp}");
        resp
    };
    let server = Server::start(config(), catalog()).unwrap();
    let span = |resp: &str| -> String {
        let id = parse(resp)
            .unwrap()
            .pointer("/id")
            .and_then(JsonValue::as_u64);
        let (_, trace) = http(server.addr(), "GET", &format!("/trace/{}", id.unwrap()), "");
        let Some(JsonValue::Arr(events)) = parse(&trace).unwrap().pointer("/events").cloned()
        else {
            panic!("no events in {trace}");
        };
        let labels: Vec<String> = events
            .iter()
            .filter_map(|e| e.pointer("/label").and_then(JsonValue::as_str))
            .filter(|l| l.starts_with("prepare: "))
            .map(str::to_owned)
            .collect();
        assert_eq!(labels.len(), 1, "{trace}");
        labels[0].clone()
    };
    let mut counters = Vec::new();
    for (i, (price, balance, base)) in [
        (1190, 1980, "built"),
        (1200, 2000, "built"),
        (1210, 2020, "hit"),
    ]
    .into_iter()
    .enumerate()
    {
        let sql = sql(price, balance);
        let resp = post(&server, &sql);
        let line = span(&resp);
        assert!(line.starts_with("prepare: built, "), "request {i}: {line}");
        assert!(
            line.ends_with(&format!(" cells, base {base}")),
            "request {i}: {line}"
        );
        let fresh = post(&Server::start(config(), catalog()).unwrap(), &sql);
        assert_eq!(strip_volatile(&resp), strip_volatile(&fresh), "request {i}");
        let (_, metrics) = http(server.addr(), "GET", "/metrics", "");
        let prepared = |name: &str| series(&metrics, &format!("acq_serve_prepared_{name}"));
        counters.push((
            prepared("misses_total"),
            prepared("hits_total"),
            prepared("base_misses_total"),
            prepared("base_hits_total"),
            prepared("entries"),
        ));
    }
    assert_eq!(
        counters,
        [(1, 0, 1, 0, 0), (2, 0, 2, 0, 1), (3, 0, 2, 1, 1)]
    );
}

#[test]
fn explain_profile_reports_eq17_reuse_accounting() {
    let server = start(ServeConfig::default());
    let body = format!("{{\"sql\":\"{SQL}\",\"threads\":2}}");
    let (status, resp) = http(server.addr(), "POST", "/query?explain=1", &body);
    assert_eq!(status, 200, "{resp}");
    let v = parse(&resp).unwrap();
    let profile = v.pointer("/profile").expect("profile present");
    let u = |key: &str| {
        profile
            .get(key)
            .and_then(JsonValue::as_u64)
            .unwrap_or_else(|| panic!("{key} missing in {resp}"))
    };
    let dims = u("dims");
    assert_eq!(dims, 2);
    let explored = u("explored");
    assert!(explored > 0);
    // Eq. 17: each explored grid query decomposes into d+1 sub-queries of
    // which only the cell executes; the other d come from reuse.
    assert_eq!(u("cells_executed"), explored, "{resp}");
    assert_eq!(u("regions_reused"), explored * dims, "{resp}");
    assert_eq!(u("subqueries_total"), explored * (dims + 1), "{resp}");
    assert_eq!(u("at_most_once_violations"), 0, "{resp}");
    assert_eq!(u("workers"), 2);
    assert_eq!(
        profile.get("termination").and_then(JsonValue::as_str),
        Some("satisfied")
    );

    // Without the flag the profile key stays null.
    let (_, resp) = http(server.addr(), "POST", "/query", &body);
    assert_eq!(
        parse(&resp).unwrap().pointer("/profile"),
        Some(&JsonValue::Null)
    );
}

#[test]
fn health_metrics_and_trace_surfaces() {
    let server = start(ServeConfig::default());
    let addr = server.addr();

    let (status, body) = http(addr, "GET", "/healthz", "");
    assert_eq!((status, body.as_str()), (200, "ok\n"));
    let (status, _) = http(addr, "GET", "/readyz", "");
    assert_eq!(status, 200);

    let body = format!("{{\"sql\":\"{SQL}\"}}");
    let (status, resp) = http(addr, "POST", "/query", &body);
    assert_eq!(status, 200, "{resp}");
    let id = parse(&resp)
        .unwrap()
        .pointer("/id")
        .and_then(JsonValue::as_u64)
        .unwrap();

    // The scrape surface carries the absorbed pipeline counters, the serve
    // telemetry, and the registry gauges.
    let (status, metrics) = http(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    for series in [
        "# TYPE acq_cells_executed_total counter",
        "acq_serve_requests_total ",
        "acq_serve_queries_ok_total 1",
        "acq_serve_query_latency_ns_count 1",
        "acq_serve_queries_running 0",
        "acq_serve_queries_retained 1",
    ] {
        assert!(
            metrics.contains(series),
            "missing {series:?} in:\n{metrics}"
        );
    }

    // The trace is retained per query and tagged with its id.
    let (status, trace) = http(addr, "GET", &format!("/trace/{id}"), "");
    assert_eq!(status, 200, "{trace}");
    let t = parse(&trace).unwrap();
    assert_eq!(
        t.pointer("/truncated"),
        Some(&JsonValue::Bool(false)),
        "{trace}"
    );
    assert!(trace.contains(&format!("[q{id}] acquire:")), "{trace}");

    let (status, _) = http(addr, "GET", "/trace/999", "");
    assert_eq!(status, 404);
    let (status, _) = http(addr, "GET", "/nope", "");
    assert_eq!(status, 404);
    let (status, _) = http(addr, "DELETE", "/query", "");
    assert_eq!(status, 405);
}

/// The value of one unlabelled series in a Prometheus text scrape.
fn series(metrics: &str, name: &str) -> u64 {
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or_else(|| panic!("no series {name} in:\n{metrics}"))
}

/// The production layer, seen from outside: after one multi-predicate COUNT
/// query the `exec_stats` block on `/metrics` agrees with the answer's
/// ground truth, and every cell query was one lookup in the prepared
/// product's cell table.
#[test]
fn cached_score_metrics_match_the_answer_and_every_cell_is_a_lookup() {
    let server = start(ServeConfig {
        layer: EvalLayerKind::CachedScore,
        ..ServeConfig::default()
    });
    let addr = server.addr();
    let (status, resp) = http(addr, "POST", "/query", &format!("{{\"sql\":\"{SQL}\"}}"));
    assert_eq!(status, 200, "{resp}");
    let explored = parse(&resp)
        .unwrap()
        .pointer("/explored")
        .and_then(JsonValue::as_u64)
        .unwrap();
    assert!(explored > 0, "{resp}");

    let (status, metrics) = http(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    let cell_queries = series(&metrics, "acq_exec_cell_queries_total");
    assert_eq!(cell_queries, explored, "{metrics}");
    let probes = series(&metrics, "acq_exec_index_probes_total");
    assert_eq!(probes, cell_queries, "{metrics}");
}

/// The server prepares once per predicate set: requests that repeat their
/// predicates (whatever their target) stand on one shared prepared layer
/// from the second sight on, each answer — `stats` included — is the one a
/// server that never saw those predicates gives, `/metrics` says how often
/// the prepare was not redone, and every trace says what its request did.
#[test]
fn repeated_predicates_are_prepared_once_and_answered_the_same() {
    let config = || ServeConfig {
        layer: EvalLayerKind::CachedScore,
        ..ServeConfig::default()
    };
    let sql = |target: u32, x: u32| {
        format!("SELECT * FROM t CONSTRAINT COUNT(*) >= {target} WHERE x <= {x} AND y <= 30")
    };
    let post = |server: &Server, sql: &str| {
        let (status, resp) = http(
            server.addr(),
            "POST",
            "/query",
            &format!("{{\"sql\":\"{sql}\"}}"),
        );
        assert_eq!(status, 200, "{sql}: {resp}");
        resp
    };
    // A server's first answer: nothing was prepared before it.
    let first_answer = |sql: &str| strip_volatile(&post(&start(config()), sql));
    let requests = [
        (sql(800, 10), "built"),
        (sql(800, 10), "built"),
        (sql(800, 10), "hit"),
        (sql(800, 10), "hit"),
        (sql(900, 10), "hit"),
    ];
    let expected = [first_answer(&requests[0].0), first_answer(&requests[4].0)];
    assert_ne!(expected[0], expected[1], "another target, another answer");

    let server = start(config());
    let prepared = |name: &str| {
        let (_, metrics) = http(server.addr(), "GET", "/metrics", "");
        series(&metrics, &format!("acq_serve_prepared_{name}"))
    };
    // A request's one `prepare:` span — what happened, how many bytes, how
    // many table cells, how long — as its label.
    let prepare_line = |resp: &str| -> String {
        let id = parse(resp)
            .unwrap()
            .pointer("/id")
            .and_then(JsonValue::as_u64);
        let (status, trace) = http(server.addr(), "GET", &format!("/trace/{}", id.unwrap()), "");
        assert_eq!(status, 200, "{trace}");
        let trace = parse(&trace).unwrap();
        let Some(JsonValue::Arr(events)) = trace.pointer("/events") else {
            panic!("no events in {trace:?}");
        };
        let label = |e: &&JsonValue| {
            let label = e.pointer("/label").and_then(JsonValue::as_str);
            label.is_some_and(|l| l.starts_with("prepare: "))
        };
        let prepares: Vec<&JsonValue> = events.iter().filter(label).collect();
        assert_eq!(prepares.len(), 1, "{trace:?}");
        let took = prepares[0].pointer("/dur_ns").and_then(JsonValue::as_u64);
        assert!(took.is_some(), "a span, not an instant: {trace:?}");
        let label = prepares[0].pointer("/label").and_then(JsonValue::as_str);
        label.unwrap().to_owned()
    };
    // The layer's bytes and cells a `prepare:` line names.
    let product = |line: &str| -> (u64, String) {
        let words: Vec<&str> = line.split(' ').collect();
        assert_eq!((words[3], words[5]), ("bytes,", "cells"), "{line}");
        (words[2].parse().unwrap(), words[2..].join(" "))
    };
    let mut counters = Vec::new();
    let mut lines = Vec::new();
    for (i, (sql, served)) in requests.iter().enumerate() {
        let resp = post(&server, sql);
        assert_eq!(strip_volatile(&resp), expected[i / 4], "request {i}");
        counters.push((prepared("misses_total"), prepared("hits_total")));
        assert_eq!(prepared("entries"), u64::from(i > 0), "request {i}");
        lines.push((prepare_line(&resp), served));
    }
    assert_eq!(counters, [(1, 0), (2, 0), (2, 1), (2, 2), (2, 3)]);
    // The gauge charges the entry its key on top of the layer's bytes.
    let (layer, tail) = product(&lines[0].0);
    let charged = prepared("bytes");
    assert!(0 < layer && layer < charged);
    for (line, served) in lines {
        assert_eq!(line, format!("prepare: {served}, {tail}"));
    }
    assert_eq!(prepared("evictions_total"), 0);

    // Eight clients post one new SQL at once: whoever finds nothing retained
    // builds for itself, as every request did before there was a cache —
    // the first at least (first sight) and one more (the build that is
    // kept) — all eight get the one answer, and one layer is retained.
    let (misses, new_sql) = (prepared("misses_total"), sql(800, 11));
    let start = std::sync::Barrier::new(8);
    let responses: Vec<String> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..8)
            .map(|_| {
                scope.spawn(|| {
                    start.wait();
                    post(&server, &new_sql)
                })
            })
            .collect();
        clients.into_iter().map(|c| c.join().unwrap()).collect()
    });
    let answers: Vec<JsonValue> = responses.iter().map(|r| strip_volatile(r)).collect();
    assert!(answers.iter().all(|a| a == &answers[0]), "{answers:?}");
    let builds = prepared("misses_total") - misses;
    assert!((2..=8).contains(&builds), "{builds} builds for one key");
    let all = prepared("misses_total") + prepared("hits_total");
    assert_eq!(all, 5 + 8, "every request is one or the other");
    // Its own key is as long as the first's; its layer is its own size.
    let (new_layer, _) = product(&prepare_line(&responses[0]));
    let both = charged + (charged - layer + new_layer);
    assert_eq!((prepared("entries"), prepared("bytes")), (2, both));
}

#[test]
fn tiny_trace_buffers_report_truncation_honestly() {
    let server = start(ServeConfig {
        trace_capacity: 8,
        ..ServeConfig::default()
    });
    let body = format!("{{\"sql\":\"{SQL}\"}}");
    let (status, resp) = http(server.addr(), "POST", "/query", &body);
    assert_eq!(status, 200, "{resp}");
    let id = parse(&resp)
        .unwrap()
        .pointer("/id")
        .and_then(JsonValue::as_u64)
        .unwrap();
    let (status, trace) = http(server.addr(), "GET", &format!("/trace/{id}"), "");
    assert_eq!(status, 200, "{trace}");
    let t = parse(&trace).unwrap();
    assert_eq!(
        t.pointer("/truncated"),
        Some(&JsonValue::Bool(true)),
        "{trace}"
    );
    assert!(
        t.pointer("/dropped").and_then(JsonValue::as_u64).unwrap() > 0,
        "{trace}"
    );
}

#[test]
fn malformed_requests_get_4xx_not_a_hang() {
    let server = start(ServeConfig {
        max_body_bytes: 256,
        ..ServeConfig::default()
    });
    let addr = server.addr();
    let (status, _) = http(addr, "POST", "/query", "this is not json");
    assert_eq!(status, 400);
    let (status, _) = http(addr, "POST", "/query", "{\"gamma\": 5}");
    assert_eq!(status, 400, "missing sql must 400");
    let (status, resp) = http(
        addr,
        "POST",
        "/query",
        "{\"sql\":\"SELECT * FROM missing CONSTRAINT COUNT(*) >= 1 WHERE x <= 1\"}",
    );
    assert_eq!(status, 400, "{resp}");
    let big = format!("{{\"sql\":\"{}\"}}", "x".repeat(512));
    let (status, _) = http(addr, "POST", "/query", &big);
    assert_eq!(status, 413);
}

/// A numeric literal past `f64`'s range, in its digits or through its
/// magnitude suffix, is a parse error at the literal: a 400 naming the
/// byte offset, and no query left running behind it.
#[test]
fn out_of_range_literals_get_400_with_their_offset() {
    let server = start(ServeConfig::default());
    let addr = server.addr();
    for literal in ["1e309", "1e306M"] {
        let sql = format!("SELECT * FROM t CONSTRAINT COUNT(*) >= 800 WHERE x <= {literal}");
        let offset = sql.find(literal).unwrap();
        let (status, resp) = http(addr, "POST", "/query", &format!("{{\"sql\":\"{sql}\"}}"));
        assert_eq!(status, 400, "{resp}");
        let expected = format!("parse error at byte {offset}: numeric literal out of range");
        assert!(resp.contains(&expected), "{literal}: {resp}");
    }
    let (status, metrics) = http(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert_eq!(
        series(&metrics, "acq_serve_queries_running"),
        0,
        "{metrics}"
    );
}

/// One request on a keep-alive connection: writes it, reads the framed
/// reply (`Content-Length`) to its last byte, returns (status, body).
fn keep_alive_exchange(conn: &mut BufReader<TcpStream>, request: &str) -> (u16, String) {
    conn.get_mut().write_all(request.as_bytes()).unwrap();
    let mut line = String::new();
    conn.read_line(&mut line).unwrap();
    let status: u16 = line.split_whitespace().nth(1).unwrap().parse().unwrap();
    let mut length = 0usize;
    loop {
        line.clear();
        conn.read_line(&mut line).unwrap();
        if line == "\r\n" {
            break;
        }
        if let Some(v) = line.strip_prefix("Content-Length: ") {
            length = v.trim().parse().unwrap();
        }
    }
    let mut body = vec![0u8; length];
    conn.read_exact(&mut body).unwrap();
    (status, String::from_utf8(body).unwrap())
}

/// The delayed-ACK stall: a response that leaves in two writes on a socket
/// without `TCP_NODELAY` makes its body wait ≈ 40 ms for the client's ACK
/// of the head, once the kernel's initial quick-ACK phase is over. The
/// client here is a plain closed-loop one — it does *not* set
/// `TCP_NODELAY`; the fix must be the server's.
#[test]
fn closed_loop_keep_alive_round_trips_do_not_stall() {
    let mut b = TableBuilder::new("tiny", vec![Field::new("x", DataType::Float)]).unwrap();
    for i in 0..200 {
        b.push_row(vec![Value::Float(f64::from(i))]);
    }
    let mut cat = Catalog::new();
    cat.register(b.finish().unwrap()).unwrap();
    let server = Server::start(ServeConfig::default(), cat).unwrap();

    let stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut conn = BufReader::new(stream);
    let healthz = "GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n".to_string();
    let body = "{\"sql\":\"SELECT * FROM tiny CONSTRAINT COUNT(*) >= 60 WHERE x <= 40\"}";
    let query = format!(
        "POST /query HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    for (what, request) in [("GET /healthz", &healthz), ("POST /query", &query)] {
        let mut round_trips: Vec<Duration> = (0..60)
            .map(|_| {
                let t0 = Instant::now();
                let (status, reply) = keep_alive_exchange(&mut conn, request);
                assert_eq!(status, 200, "{what}: {reply}");
                t0.elapsed()
            })
            .collect();
        round_trips.sort_unstable();
        let median = round_trips[round_trips.len() / 2];
        assert!(
            median < Duration::from_millis(10),
            "{what}: median closed-loop round trip {median:?} — is every response one \
             write on a TCP_NODELAY socket? ({round_trips:?})"
        );
    }
}

/// Seconds that are finite and positive but too large for a `Duration`
/// (`Duration::from_secs_f64` panics on them) are refused with `400`. The
/// worker pool is fixed and nothing respawns a worker, so if each such
/// request cost one, `workers` of them would leave a server that answers
/// nothing, not even `POST /shutdown`: send twice that many, then check the
/// pool is still whole.
#[test]
fn overflowing_seconds_are_refused_and_cost_no_worker() {
    let workers = 2;
    let server = start(ServeConfig {
        workers,
        ..ServeConfig::default()
    });
    // A dead pool answers nothing, so every read here gives up early.
    let exchange = |request: &str| {
        let stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        keep_alive_exchange(&mut BufReader::new(stream), request)
    };
    let post = |body: &str| {
        format!(
            "POST /query HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
    };
    let huge_timeout = post(&format!("{{\"sql\":\"{SQL}\",\"timeout_secs\":1e300}}"));
    for _ in 0..2 * workers {
        let (status, reply) = exchange(&huge_timeout);
        assert_eq!(status, 400, "timeout_secs=1e300: {reply}");
    }
    let (status, reply) = exchange("GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n");
    assert_eq!((status, reply.as_str()), (200, "ok\n"));
    let (status, reply) = exchange(&post(&format!("{{\"sql\":\"{SQL}\"}}")));
    assert_eq!(status, 200, "{reply}");
}

/// One blocking exchange returning the raw response text (status line,
/// headers and body) for header-level assertions.
fn http_raw(addr: SocketAddr, method: &str, target: &str, body: &str) -> String {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(120))).unwrap();
    let req = format!(
        "{method} {target} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    );
    s.write_all(req.as_bytes()).unwrap();
    let mut raw = String::new();
    s.read_to_string(&mut raw).unwrap();
    raw
}

/// Reassembles a `Transfer-Encoding: chunked` body into its payload.
/// Panics unless the stream ends with the zero-length terminal chunk —
/// a missing terminator is the protocol's honest truncation signal.
fn dechunk(raw: &str) -> String {
    let mut out = String::new();
    let mut rest = raw;
    loop {
        let (size_line, tail) = rest.split_once("\r\n").expect("chunk size line");
        let size = usize::from_str_radix(size_line.trim(), 16).expect("hex chunk size");
        if size == 0 {
            return out;
        }
        out.push_str(&tail[..size]);
        assert_eq!(&tail[size..size + 2], "\r\n", "chunk data terminator");
        rest = &tail[size + 2..];
    }
}

fn progress_schema() -> JsonValue {
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../schemas/progress.schema.json");
    parse(&std::fs::read_to_string(&path).unwrap()).unwrap()
}

#[test]
fn progress_stream_replays_monotone_schema_valid_events() {
    let server = start(ServeConfig::default());
    let addr = server.addr();
    let schema = progress_schema();
    let requests = KINDS
        .iter()
        .flat_map(|sql| [1usize, 2, 4, 8].map(|threads| (sql, threads)));
    for (sql, threads) in requests {
        let body = format!("{{\"sql\":\"{sql}\",\"threads\":{threads}}}");
        let (status, resp) = http(addr, "POST", "/query", &body);
        assert_eq!(status, 200, "threads={threads}: {resp}");
        let id = parse(&resp)
            .unwrap()
            .pointer("/id")
            .and_then(JsonValue::as_u64)
            .unwrap();

        // The broker retains finished channels, so the stream replays the
        // full event history after the query has already completed.
        let raw = http_raw(addr, "GET", &format!("/query/{id}/progress"), "");
        assert!(raw.starts_with("HTTP/1.1 200"), "{raw}");
        assert!(
            raw.contains("Transfer-Encoding: chunked\r\n")
                && raw.contains("Content-Type: application/x-ndjson\r\n"),
            "{raw}"
        );
        let body = raw.split_once("\r\n\r\n").unwrap().1;
        let ndjson = dechunk(body);
        let lines: Vec<&str> = ndjson.lines().collect();
        assert!(!lines.is_empty(), "no events for threads={threads}");

        // Every line validates against the published schema; `explored` is
        // strictly monotone; only the last line is terminal.
        let mut last_explored = 0u64;
        for (i, line) in lines.iter().enumerate() {
            let event = parse(line).unwrap_or_else(|e| panic!("bad NDJSON {line}: {e:?}"));
            let errors = acq_obs::schema::validate(&schema, &event);
            assert!(errors.is_empty(), "{line}: {errors:?}");
            let explored = event
                .pointer("/explored")
                .and_then(JsonValue::as_u64)
                .unwrap();
            assert!(
                explored > last_explored || (i == 0 && explored > 0),
                "explored not strictly monotone at line {i}: {ndjson}"
            );
            last_explored = explored;
            assert_eq!(
                event.pointer("/terminal").and_then(JsonValue::as_bool),
                Some(i == lines.len() - 1),
                "terminal must be the last event and only it: {ndjson}"
            );
        }

        // The terminal event embeds the sealed outcome *verbatim* — the
        // stream's answer is byte-identical to the POST /query response.
        let terminal = lines.last().unwrap();
        assert!(
            terminal.ends_with(&format!(",\"outcome\":{resp}}}")),
            "terminal outcome is not the POST body byte-for-byte:\n{terminal}\nvs\n{resp}"
        );
    }
}

#[test]
fn progress_stream_error_statuses() {
    let server = start(ServeConfig::default());
    let addr = server.addr();
    let (status, _) = http(addr, "GET", "/query/not-a-number/progress", "");
    assert_eq!(status, 400);
    let (status, _) = http(addr, "GET", "/query/999/progress", "");
    assert_eq!(status, 404, "unknown id");
    // Non-GET methods fall through to normal dispatch (405/404), never the
    // streaming path.
    let (status, _) = http(addr, "POST", "/query/1/progress", "");
    assert_ne!(status, 200);
}

/// Whether `line` is one sample of the text exposition: a metric name
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`), an optional `{labels}` set, one space and
/// a value with no space in it.
fn is_sample_line(line: &str) -> bool {
    let is_name_char = |c: char| c.is_ascii_alphanumeric() || c == '_' || c == ':';
    let name_len = line.find(|c| !is_name_char(c)).unwrap_or(line.len());
    let (name, rest) = line.split_at(name_len);
    if !name.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_' || c == ':') {
        return false;
    }
    let rest = match rest.strip_prefix('{') {
        Some(labelled) => match labelled.split_once('}') {
            Some((_, after)) => after,
            None => return false,
        },
        None => rest,
    };
    rest.strip_prefix(' ')
        .is_some_and(|value| !value.is_empty() && !value.contains(' '))
}

/// `/metrics` is served under the versioned Prometheus text content type,
/// and after a query with its profile every line of it is a comment or a
/// `name{labels} value` sample.
#[test]
fn metrics_content_type_is_versioned_prometheus_text() {
    let server = start(ServeConfig::default());
    let addr = server.addr();
    let (status, resp) = http(
        addr,
        "POST",
        "/query?explain=1",
        &format!("{{\"sql\":\"{SQL}\"}}"),
    );
    assert_eq!(status, 200, "{resp}");
    let raw = http_raw(addr, "GET", "/metrics", "");
    assert!(raw.starts_with("HTTP/1.1 200"), "{raw}");
    assert!(
        raw.contains("Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"),
        "scrapers negotiate on the versioned text content type: {raw}"
    );
    let (_, text) = raw.split_once("\r\n\r\n").unwrap();
    let bad: Vec<&str> = text
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#') && !is_sample_line(l))
        .collect();
    assert!(bad.is_empty(), "not exposition lines: {bad:?}");
    assert!(text
        .lines()
        .any(|l| l.starts_with("acq_exec_cell_queries_total ")));
    for wrong in ["acq total 1", "acq{a=\"b\" 1", "acq 1 2", "9acq 1", "acq"] {
        assert!(!is_sample_line(wrong), "{wrong}");
    }
}

#[test]
fn trace_chrome_format_exports_trace_events() {
    let server = start(ServeConfig::default());
    let addr = server.addr();
    let body = format!("{{\"sql\":\"{SQL}\"}}");
    let (status, resp) = http(addr, "POST", "/query", &body);
    assert_eq!(status, 200, "{resp}");
    let id = parse(&resp)
        .unwrap()
        .pointer("/id")
        .and_then(JsonValue::as_u64)
        .unwrap();

    let (status, chrome) = http(addr, "GET", &format!("/trace/{id}?format=chrome"), "");
    assert_eq!(status, 200, "{chrome}");
    let t = parse(&chrome).unwrap();
    let events = match t.pointer("/traceEvents") {
        Some(JsonValue::Arr(a)) => a.clone(),
        other => panic!("traceEvents not an array: {other:?} in {chrome}"),
    };
    assert!(!events.is_empty(), "{chrome}");
    for e in &events {
        assert!(e.pointer("/name").and_then(JsonValue::as_str).is_some());
        assert!(e.pointer("/ph").and_then(JsonValue::as_str).is_some());
    }
    assert_eq!(
        t.pointer("/otherData/dropped").and_then(JsonValue::as_u64),
        Some(0),
        "{chrome}"
    );

    // Explicit json format matches the default render; unknown formats 400.
    let (_, plain) = http(addr, "GET", &format!("/trace/{id}"), "");
    let (_, json_fmt) = http(addr, "GET", &format!("/trace/{id}?format=json"), "");
    assert_eq!(plain, json_fmt);
    let (status, _) = http(addr, "GET", &format!("/trace/{id}?format=perfetto"), "");
    assert_eq!(status, 400);
}

fn journal_schema() -> JsonValue {
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../schemas/journal.schema.json");
    parse(&std::fs::read_to_string(&path).unwrap()).unwrap()
}

/// A collision-free scratch path for journal files.
fn temp_path(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU32, Ordering};
    static N: AtomicU32 = AtomicU32::new(0);
    std::env::temp_dir().join(format!(
        "acq-serve-e2e-{tag}-{}-{}.journal",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Removes a journal and any rotated segments it left behind.
fn remove_journal(path: &std::path::Path) {
    let _ = std::fs::remove_file(path);
    for seg in acq_obs::journal::segment_paths(path) {
        let _ = std::fs::remove_file(seg);
    }
}

#[test]
fn journal_records_are_schema_valid_and_share_the_response_outcome_key() {
    let path = temp_path("key");
    let server = start(ServeConfig {
        journal_path: Some(path.clone()),
        ..ServeConfig::default()
    });
    let addr = server.addr();

    // The same query across thread counts: responses must stay
    // bit-identical (volatiles aside) and carry one shared outcome_key.
    let mut keys_by_id = Vec::new();
    let mut baseline: Option<JsonValue> = None;
    for threads in [1usize, 2, 4, 8] {
        let body = format!("{{\"sql\":\"{SQL}\",\"threads\":{threads}}}");
        let (status, resp) = http(addr, "POST", "/query", &body);
        assert_eq!(status, 200, "threads={threads}: {resp}");
        let v = parse(&resp).unwrap();
        let id = v.pointer("/id").and_then(JsonValue::as_u64).unwrap();
        let key = v
            .pointer("/outcome_key")
            .and_then(JsonValue::as_str)
            .unwrap_or_else(|| panic!("no outcome_key in {resp}"))
            .to_string();
        assert_eq!(key.len(), 16, "outcome_key is 16 hex chars: {key}");
        keys_by_id.push((id, key));
        let out = strip_volatile(&resp);
        match &baseline {
            None => baseline = Some(out),
            Some(b) => assert_eq!(b, &out, "threads={threads} diverged"),
        }
    }
    let first_key = keys_by_id[0].1.clone();
    assert!(
        keys_by_id.iter().all(|(_, k)| *k == first_key),
        "outcome_key must be thread-count invariant: {keys_by_id:?}"
    );
    // And a rejected request is journaled too (shutting-down shed comes
    // later; here a compile failure takes the status-400 path).
    let (status, _) = http(
        addr,
        "POST",
        "/query",
        "{\"sql\":\"SELECT * FROM missing CONSTRAINT COUNT(*) >= 1 WHERE x <= 1\"}",
    );
    assert_eq!(status, 400);

    let journal = server.state().journal.as_ref().expect("journal is on");
    assert!(
        journal.flush(Duration::from_secs(10)),
        "journal writer did not settle"
    );
    let read = acq_obs::journal::read_journal(&path).unwrap();
    assert_eq!(read.torn, 0, "clean shutdownless read");
    let schema = journal_schema();
    let mut journal_keys = Vec::new();
    let mut saw_reject = false;
    for line in &read.records {
        let v = parse(line).unwrap_or_else(|e| panic!("bad journal line {line}: {e:?}"));
        let errors = acq_obs::schema::validate(&schema, &v);
        assert!(errors.is_empty(), "{line}: {errors:?}");
        assert_eq!(
            v.pointer("/kind").and_then(JsonValue::as_str),
            Some("query")
        );
        match v.pointer("/id").and_then(JsonValue::as_u64) {
            Some(id) => {
                if let Some(key) = v.pointer("/outcome_key").and_then(JsonValue::as_str) {
                    journal_keys.push((id, key.to_string()));
                    // The Eq. 17 digest rides every completed record.
                    let d = |f: &str| {
                        v.pointer(&format!("/digest/{f}"))
                            .and_then(JsonValue::as_u64)
                            .unwrap_or_else(|| panic!("digest.{f} missing in {line}"))
                    };
                    assert_eq!(d("cells_executed"), d("explored"), "{line}");
                    assert_eq!(d("regions_reused"), d("explored") * d("dims"), "{line}");
                    assert_eq!(d("at_most_once_violations"), 0, "{line}");
                } else {
                    saw_reject = true; // the compile failure carries id+error
                }
            }
            None => saw_reject = true,
        }
    }
    journal_keys.sort_unstable();
    keys_by_id.sort_unstable();
    assert_eq!(
        journal_keys, keys_by_id,
        "journal and responses must agree on every outcome_key"
    );
    assert!(saw_reject, "the 400 rejection must be journaled: {read:?}");
    drop(server);
    remove_journal(&path);
}

#[test]
fn journal_survives_restart_and_replays_the_torn_tail_honestly() {
    let path = temp_path("restart");
    // First process lifetime: two queries, clean shutdown.
    {
        let server = start(ServeConfig {
            journal_path: Some(path.clone()),
            ..ServeConfig::default()
        });
        for _ in 0..2 {
            let body = format!("{{\"sql\":\"{SQL}\"}}");
            let (status, resp) = http(server.addr(), "POST", "/query", &body);
            assert_eq!(status, 200, "{resp}");
        }
        let journal = server.state().journal.as_ref().unwrap();
        assert!(journal.flush(Duration::from_secs(10)));
    } // Drop: the writer thread drains and joins — the "kill".

    // Simulate a crash mid-write: a torn final line with no newline.
    {
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        f.write_all(b"{\"v\":1,\"kind\":\"query\",\"at_ms\":12")
            .unwrap();
    }
    let read = acq_obs::journal::read_journal(&path).unwrap();
    assert_eq!(read.torn, 1, "the torn tail is counted, not parsed");
    assert_eq!(read.records.len(), 2, "{read:?}");
    let summary = acq_obs::journal::summarize(&read);
    assert_eq!(summary.queries, 2);
    assert_eq!(summary.torn, 1);
    assert_eq!(summary.malformed, 0);
    assert_eq!(summary.by_termination.get("satisfied"), Some(&2));

    // Second process lifetime: reopening repairs the tail and appends.
    let server = start(ServeConfig {
        journal_path: Some(path.clone()),
        ..ServeConfig::default()
    });
    let journal = server.state().journal.as_ref().unwrap();
    assert_eq!(
        journal.ring().torn_repaired(),
        1,
        "reopen truncates the torn tail and owns up to it"
    );
    let body = format!("{{\"sql\":\"{SQL}\"}}");
    let (status, resp) = http(server.addr(), "POST", "/query", &body);
    assert_eq!(status, 200, "{resp}");
    assert!(journal.flush(Duration::from_secs(10)));
    let read = acq_obs::journal::read_journal(&path).unwrap();
    assert_eq!(read.torn, 0, "repaired on reopen");
    assert_eq!(
        read.records.len(),
        3,
        "both lifetimes' records replay: {read:?}"
    );
    drop(server);
    remove_journal(&path);
}

/// Every question an operator dashboard asks is answered by `/metrics`,
/// `/queries` and the journal, and they agree: under a flood against one
/// execution slot, the client's tally, the scrape, the registry and the
/// journal (as `acq journal summarize` reads it) count the same requests.
#[test]
fn a_flood_is_counted_alike_by_metrics_queries_and_the_journal() {
    let journal_path = temp_path("flood");
    let server = start(ServeConfig {
        max_concurrent: 1,
        max_queued: 0,
        queue_wait: Duration::from_millis(50),
        journal_path: Some(journal_path.clone()),
        ..ServeConfig::default()
    });
    let addr = server.addr();
    let scrape = || http(addr, "GET", "/metrics", "").1;
    let shed_before = series(&scrape(), "acq_serve_shed_total");

    // Flood from several clients: with one execution slot and no queue,
    // collisions shed with 503.
    let (mut shed, mut ok_ids) = (0u64, Vec::new());
    let flood_deadline = Instant::now() + Duration::from_secs(20);
    while shed < 3 && Instant::now() < flood_deadline {
        let clients: Vec<_> = (0..6)
            .map(|_| {
                std::thread::spawn(move || {
                    http(addr, "POST", "/query", &format!("{{\"sql\":\"{SQL}\"}}"))
                })
            })
            .collect();
        for client in clients {
            match client.join().unwrap() {
                (200, body) => ok_ids.push(
                    parse(&body)
                        .unwrap()
                        .pointer("/id")
                        .and_then(JsonValue::as_u64)
                        .unwrap(),
                ),
                (503, _) => shed += 1,
                (status, body) => panic!("flood answered {status}: {body}"),
            }
        }
    }
    assert!(shed >= 3, "flood produced no sheds");

    // Shed and completed counts: the client's tally is the scrape's, and
    // nothing is left in flight once every client has its answer.
    let metrics = scrape();
    assert_eq!(
        series(&metrics, "acq_serve_shed_total") - shed_before,
        shed,
        "{metrics}"
    );
    assert_eq!(
        series(&metrics, "acq_serve_queries_ok_total"),
        ok_ids.len() as u64,
        "{metrics}"
    );
    assert_eq!(
        series(&metrics, "acq_serve_queries_running"),
        0,
        "{metrics}"
    );

    // Recent queries: every answered id is listed as completed.
    let (_, queries) = http(addr, "GET", "/queries", "");
    let completed: Vec<u64> = match parse(&queries).unwrap().pointer("/completed") {
        Some(JsonValue::Arr(records)) => records
            .iter()
            .filter_map(|r| r.pointer("/id").and_then(JsonValue::as_u64))
            .collect(),
        other => panic!("completed is not an array: {other:?}"),
    };
    for id in &ok_ids {
        assert!(completed.contains(id), "query {id} not in {queries}");
    }

    // The journal holds every request, dropped none, and its summary reads
    // the sheds back: rejections carry no termination.
    let journal = server.state().journal.as_ref().unwrap();
    assert!(journal.flush(Duration::from_secs(10)));
    assert_eq!(series(&scrape(), "acq_journal_dropped_total"), 0);
    let read = acq_obs::journal::read_journal(&journal_path).unwrap();
    let journaled_sheds = read
        .records
        .iter()
        .filter(|r| r.contains("\"status\":503"))
        .count() as u64;
    assert_eq!(journaled_sheds, shed, "{read:?}");
    let summary = acq_obs::journal::summarize(&read);
    assert_eq!(
        summary.by_termination.get("unknown"),
        Some(&shed),
        "{summary:?}"
    );
    assert_eq!(summary.queries, shed + ok_ids.len() as u64, "{summary:?}");
    assert_eq!(summary.other, 0, "{summary:?}");

    for path in ["/alerts", "/dashboard", "/timeseries"] {
        assert_eq!(http(addr, "GET", path, "").0, 404, "{path}");
    }
    drop(server);
    remove_journal(&journal_path);
}

#[test]
fn bad_ops_config_fails_startup_loudly() {
    // A journal path whose directory doesn't exist must refuse to serve,
    // not silently not journal.
    let err = match Server::start(
        ServeConfig {
            journal_path: Some(std::path::PathBuf::from("/nonexistent-acq-dir/q.journal")),
            ..ServeConfig::default()
        },
        catalog(),
    ) {
        Ok(_) => panic!("unopenable journal must fail startup"),
        Err(e) => e,
    };
    assert!(err.to_string().contains("journal"), "{err}");
}

#[test]
fn shutdown_endpoint_stops_the_server() {
    let mut server = start(ServeConfig::default());
    let addr = server.addr();
    let (status, _) = http(addr, "POST", "/shutdown", "");
    assert_eq!(status, 202);
    server.join();
    assert!(server.is_shutdown());
    // The listener is gone: new connections are refused (or reset).
    assert!(TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err());
}
