//! The four workloads: which tables each one loads and the request each
//! client sends at each position of its sequence.
//!
//! A request is a pure function of `(seed, workload, client, i)`. It is built
//! from the generators' documented column domains, never from the generated
//! rows, so the server receives nothing but tables and SQL, and the targets
//! are chosen wide enough inside the reachable range that every request is
//! satisfiable on every seed.

use crate::repo_api::{self, Catalog};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    AudienceRepeat,
    DeepSearch,
    JoinSum,
    SmallMix,
}

/// One `POST /query`.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    pub sql: String,
    /// Sent to `/query?explain=1`.
    pub explain: bool,
    /// Set when the workload sends this exact request again later: every
    /// answer to the same key must carry the same `outcome_key`.
    pub recurs: Option<u64>,
}

impl Request {
    pub fn path(&self) -> &'static str {
        if self.explain {
            "/query?explain=1"
        } else {
            "/query"
        }
    }

    /// The body carries only the SQL: default γ, δ and `threads`.
    pub fn body(&self) -> String {
        let mut escaped = String::with_capacity(self.sql.len());
        for c in self.sql.chars() {
            if matches!(c, '"' | '\\') {
                escaped.push('\\');
            }
            escaped.push(c);
        }
        format!("{{\"sql\":\"{escaped}\"}}")
    }
}

/// splitmix64: the whole generator's only source of randomness.
fn mix(z: u64) -> u64 {
    let mut z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The stream of draws belonging to one `(seed, workload, client, i)`.
pub struct Draws(u64);

impl Draws {
    pub fn new(seed: u64, stream: u64, client: u64, i: u64) -> Self {
        Self(mix(mix(mix(seed) ^ stream) ^ client.rotate_left(32) ^ i))
    }

    pub fn next(&mut self) -> u64 {
        self.0 = mix(self.0);
        self.0
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `centre ± spread`.
    fn around(&mut self, centre: f64, spread: f64) -> f64 {
        centre + (2.0 * self.unit() - 1.0) * spread
    }
}

/// `audience_repeat` cycles this many targets.
pub const AUDIENCE_TARGETS: u64 = 16;

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::AudienceRepeat,
        Workload::DeepSearch,
        Workload::JoinSum,
        Workload::SmallMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::AudienceRepeat => "audience_repeat",
            Workload::DeepSearch => "deep_search",
            Workload::JoinSum => "join_sum",
            Workload::SmallMix => "small_mix",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Closed-loop clients, one connection each.
    pub fn clients(self) -> usize {
        match self {
            Workload::SmallMix => 2,
            _ => 1,
        }
    }

    /// Generates the workload's tables from the seed.
    pub fn catalog(self, seed: u64) -> Result<Catalog, String> {
        match self {
            Workload::AudienceRepeat => repo_api::users_catalog(300_000, seed),
            Workload::DeepSearch => repo_api::lineitem_catalog(10_000, seed),
            Workload::JoinSum => repo_api::q2_catalog(100_000, seed),
            Workload::SmallMix => repo_api::users_catalog(2_000, seed),
        }
    }

    /// The `i`-th request of `client`.
    pub fn request(self, seed: u64, client: u64, i: u64) -> Request {
        let mut d = Draws::new(seed, self as u64, client, i);
        match self {
            // Paper Example 1. `age <= 40` keeps ≈ 41 % of 300 000 users and
            // `income <= 60000` ≈ 21 % of those (≈ 26 000); one grid step of
            // income adds ≈ 2 650, so the targets span 5 to 30 steps and stay
            // below the ≈ 123 000 that full refinement reaches. The predicates
            // never change; only the target does, and it recurs.
            Workload::AudienceRepeat => {
                let k = i % AUDIENCE_TARGETS;
                let target = 40_000 + 4_400 * k;
                Request {
                    sql: format!(
                        "SELECT * FROM users CONSTRAINT COUNT(*) = {target} \
                         WHERE age <= 40 NOREFINE AND income <= 60000"
                    ),
                    explain: false,
                    recurs: Some(k),
                }
            }
            // Four independent bell-shaped columns, each bound near its
            // median: about 10 000 / 16 = 625 rows pass against a fixed
            // target of 2 000 (ratio ≈ 0.3). Every bound moves on every
            // request, by up to 3 % of its domain, so no predicate set is
            // ever seen twice. The jitter is that wide on purpose: the cells
            // explored grow in steps with the number of layers, and a run
            // whose requests span several layer counts has a mean that moves
            // smoothly with the seed's data instead of jumping a whole step.
            Workload::DeepSearch => Request {
                sql: format!(
                    "SELECT * FROM lineitem CONSTRAINT COUNT(*) = 2000 \
                     WHERE l_quantity <= {:.5} AND l_discount <= {:.7} \
                     AND l_tax <= {:.7} AND l_shipdate <= {:.3}",
                    d.around(25.5, 1.5),
                    d.around(0.05, 0.003),
                    d.around(0.04, 0.0024),
                    d.around(1278.5, 77.0),
                ),
                explain: false,
                recurs: None,
            },
            // Fig. 11 / Q2′: ≈ 25 % of parts and ≈ 27 % of suppliers pass,
            // ≈ 6 800 of 100 000 `partsupp` rows at ≈ 5 000 each.
            Workload::JoinSum => Request {
                sql: format!(
                    "SELECT * FROM supplier, part, partsupp \
                     CONSTRAINT SUM(ps_availqty) >= 60M \
                     WHERE (s_suppkey = ps_suppkey) NOREFINE \
                     AND (p_partkey = ps_partkey) NOREFINE \
                     AND (p_retailprice < {:.4}) AND (s_acctbal < {:.4})",
                    d.around(1200.0, 12.0),
                    d.around(2000.0, 40.0),
                ),
                explain: false,
                recurs: None,
            },
            // 2 000 users; 70 % expanding `>=`, 20 % contraction `<=` from an
            // overshooting original, 10 % expanding with `?explain=1`.
            Workload::SmallMix => {
                let kind = d.next() % 10;
                if (7..9).contains(&kind) {
                    Request {
                        sql: format!(
                            "SELECT * FROM users CONSTRAINT COUNT(*) <= 700 \
                             WHERE age <= {} AND income <= {:.6}",
                            58 + d.next() % 6,
                            d.around(200_000.0, 8_000.0),
                        ),
                        explain: false,
                        recurs: None,
                    }
                } else {
                    Request {
                        sql: format!(
                            "SELECT * FROM users CONSTRAINT COUNT(*) >= 400 \
                             WHERE age <= {} AND income <= {:.6}",
                            28 + d.next() % 6,
                            d.around(90_000.0, 6_000.0),
                        ),
                        explain: kind == 9,
                        recurs: None,
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// The predicate set of a request: everything after WHERE.
    fn predicates(r: &Request) -> &str {
        r.sql.split_once(" WHERE ").map_or("", |(_, w)| w)
    }

    #[test]
    fn request_is_a_pure_function_of_seed_workload_client_and_position() {
        for w in Workload::ALL {
            for client in 0..2 {
                for i in [0, 1, 17, 4_095] {
                    assert_eq!(w.request(7, client, i), w.request(7, client, i));
                }
            }
        }
    }

    #[test]
    fn seeds_clients_and_positions_change_the_sql() {
        for w in [Workload::DeepSearch, Workload::JoinSum, Workload::SmallMix] {
            assert_ne!(w.request(1, 0, 0).sql, w.request(2, 0, 0).sql, "{w:?}");
            assert_ne!(w.request(1, 0, 0).sql, w.request(1, 1, 0).sql, "{w:?}");
            assert_ne!(w.request(1, 0, 0).sql, w.request(1, 0, 1).sql, "{w:?}");
        }
    }

    #[test]
    fn jittered_workloads_never_repeat_a_predicate_set() {
        for w in [Workload::DeepSearch, Workload::JoinSum, Workload::SmallMix] {
            let mut seen = HashSet::new();
            for client in 0..w.clients() as u64 {
                for i in 0..10_000 {
                    let r = w.request(0xACC0_FFEE, client, i);
                    assert!(
                        seen.insert(predicates(&r).to_string()),
                        "{w:?} repeats {}",
                        r.sql
                    );
                }
            }
        }
    }

    #[test]
    fn audience_repeat_keeps_its_predicates_and_cycles_its_targets() {
        let w = Workload::AudienceRepeat;
        let first = w.request(3, 0, 0);
        let mut targets = HashSet::new();
        for i in 0..64 {
            let r = w.request(3, 0, i);
            assert_eq!(predicates(&r), predicates(&first));
            assert_eq!(r.recurs, Some(i % AUDIENCE_TARGETS));
            targets.insert(r.sql);
        }
        assert_eq!(targets.len() as u64, AUDIENCE_TARGETS);
        assert_eq!(w.request(3, 0, 5), w.request(3, 0, 5 + AUDIENCE_TARGETS));
    }

    #[test]
    fn small_mix_holds_its_three_request_kinds_in_proportion() {
        let n = 10_000;
        let (mut contract, mut explain) = (0, 0);
        for i in 0..n {
            let r = Workload::SmallMix.request(11, 0, i);
            contract += u32::from(r.sql.contains("<= 700"));
            explain += u32::from(r.explain);
        }
        assert!((1_800..2_200).contains(&contract), "{contract}");
        assert!((800..1_200).contains(&explain), "{explain}");
    }

    #[test]
    fn body_escapes_what_json_must() {
        let r = Request {
            sql: "a \"b\" \\c".to_string(),
            explain: false,
            recurs: None,
        };
        assert_eq!(r.body(), "{\"sql\":\"a \\\"b\\\" \\\\c\"}");
    }
}
