//! The hard gate for the operations layer: a request served with the
//! durable journal on must stay within 2% (plus an absolute floor) of an
//! identical request against a server without it — the whole point of the
//! wait-free ring / writer-thread split. Same retry discipline as the
//! overhead gates in `crates/core/tests/observability.rs`: min-of-5 per
//! attempt, absolute floor so millisecond-scale requests don't flake, three
//! attempts so only a systematic regression fails. Absolute numbers for the
//! journaled path are `acqbench round`'s job (`benchmark/README.md`): every
//! workload there runs with the journal on.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use acq_engine::{Catalog, DataType, Field, TableBuilder, Value};
use acq_serve::{ServeConfig, Server};

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

/// One blocking POST /query exchange; panics on a non-200.
fn query(addr: SocketAddr) {
    let body = format!("{{\"sql\":\"{SQL}\"}}");
    let req = format!(
        "POST /query HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(120))).unwrap();
    s.write_all(req.as_bytes()).unwrap();
    let mut raw = String::new();
    s.read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.1 200"), "{raw}");
}

#[test]
fn journal_overhead_is_below_two_percent() {
    let journal_path = std::env::temp_dir().join(format!(
        "acq-serve-ops-overhead-{}.journal",
        std::process::id()
    ));

    let plain_server = Server::start(ServeConfig::default(), catalog()).unwrap();
    let journal_server = Server::start(
        ServeConfig {
            journal_path: Some(journal_path.clone()),
            ..ServeConfig::default()
        },
        catalog(),
    )
    .unwrap();

    // Warm-up both paths (lazy init, page cache, first journal write).
    query(plain_server.addr());
    query(journal_server.addr());

    let mut requests = 1u64; // the journaled warm-up request above
    let mut outcome = Err(String::new());
    for _attempt in 0..3 {
        let mut plain = f64::INFINITY;
        let mut journaled = f64::INFINITY;
        for _ in 0..5 {
            let t = Instant::now();
            query(plain_server.addr());
            plain = plain.min(t.elapsed().as_secs_f64() * 1e3);

            let t = Instant::now();
            query(journal_server.addr());
            journaled = journaled.min(t.elapsed().as_secs_f64() * 1e3);
            requests += 1;
        }
        let allowed = plain * 1.02 + 15.0;
        if journaled <= allowed {
            outcome = Ok(());
            break;
        }
        outcome = Err(format!(
            "journaled request {journaled:.1}ms exceeds {allowed:.1}ms (plain {plain:.1}ms)"
        ));
    }

    // Durability must not have been traded for the speed just measured:
    // every request's record reached disk, none were dropped.
    let journal = journal_server.state().journal.as_ref().unwrap();
    assert!(journal.flush(Duration::from_secs(10)));
    let ring = journal.ring();
    assert_eq!(ring.written(), requests, "a bench record never hit disk");
    assert_eq!(ring.dropped(), 0);
    assert_eq!(ring.write_errors(), 0);

    drop(plain_server);
    drop(journal_server);
    let _ = std::fs::remove_file(&journal_path);
    if let Err(e) = outcome {
        panic!("{e}");
    }
}
