//! # acq-datagen — deterministic workload data
//!
//! The paper evaluates on TPC-H data of 1K–10M tuples, both uniform (the
//! TPC-H default, Zipf `Z = 0`) and skewed (`Z = 1`, generated with the
//! Chaudhuri–Narasayya skewed TPC-D generator (reference 3 of the paper)). This crate reproduces
//! those datasets with a seeded, dependency-light generator:
//!
//! * [`tpch`] — TPC-H-shaped `part`, `supplier`, `partsupp`, `customer`,
//!   `orders` and `lineitem` tables with the columns the paper's queries
//!   touch (the Q2 skeleton of Example 2), configurable size and skew;
//! * [`users`] — the Example 1 advertising audience table (demographics +
//!   a categorical city column);
//! * [`patients`] — the §1/§9 outlier-analysis motivating table (AVG cost);
//! * [`zipf::Zipf`] — an exact inverse-CDF Zipfian sampler (`Z = 0` is
//!   uniform);
//! * [`synthetic`] — schema-free uniform/skewed numeric tables for tests,
//!   property tests and micro-benchmarks.
//!
//! Everything is deterministic in the seed: the same [`GenConfig`] always
//! produces bit-identical tables.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod patients;
pub mod synthetic;
pub mod tpch;
pub mod users;
pub mod zipf;

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Generator configuration shared by every dataset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenConfig {
    /// Base row count (tables derive their sizes from it; see each module).
    pub rows: usize,
    /// RNG seed; equal seeds give bit-identical data.
    pub seed: u64,
    /// Zipf skew parameter `Z`; 0.0 is uniform, 1.0 matches the paper's
    /// skewed setting (§8.4.4).
    pub zipf_z: f64,
}

impl GenConfig {
    /// Uniform data of the given size with a fixed default seed.
    #[must_use]
    pub fn uniform(rows: usize) -> Self {
        Self {
            rows,
            seed: 0xACC_0FFEE,
            zipf_z: 0.0,
        }
    }

    /// Skewed (`Z = 1`) data of the given size.
    #[must_use]
    pub fn skewed(rows: usize) -> Self {
        Self {
            rows,
            seed: 0xACC_0FFEE,
            zipf_z: 1.0,
        }
    }

    /// Same config with a different seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    pub(crate) fn rng(&self, stream: u64) -> StdRng {
        // Separate deterministic streams per table to decouple sizes.
        StdRng::seed_from_u64(
            self.seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(stream),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configs_are_deterministic() {
        use rand::RngCore;
        let c = GenConfig::uniform(10);
        let mut a = c.rng(1);
        let mut b = c.rng(1);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut other = c.rng(2);
        assert_ne!(a.next_u64(), other.next_u64());
    }

    /// The load-time column domains of the benchmark's three generators
    /// (`users`, `lineitem`, the Q2 tables) are their columns' `min_max`,
    /// bit for bit.
    #[test]
    fn generated_tables_carry_their_columns_min_max_as_domains() {
        let cfg = GenConfig::skewed(2_000).with_seed(7);
        let mut tables = vec![std::sync::Arc::new(users::users(&cfg).unwrap())];
        for catalog in [
            tpch::generate_lineitem(&cfg).unwrap(),
            tpch::generate_q2(&cfg).unwrap(),
        ] {
            for name in catalog.table_names() {
                tables.push(catalog.table(name).unwrap());
            }
        }
        assert_eq!(tables.len(), 5);
        for table in tables {
            for (i, field) in table.schema().fields().iter().enumerate() {
                let bits = |(lo, hi): (f64, f64)| (lo.to_bits(), hi.to_bits());
                assert_eq!(
                    table
                        .numeric_domain(&field.name)
                        .map(|d| bits((d.lo(), d.hi()))),
                    table.column(i).min_max().map(bits),
                    "{}.{}",
                    table.name(),
                    field.name
                );
            }
        }
    }

    #[test]
    fn skewed_sets_z() {
        assert_eq!(GenConfig::skewed(5).zipf_z, 1.0);
        assert_eq!(GenConfig::uniform(5).zipf_z, 0.0);
    }
}
