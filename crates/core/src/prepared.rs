//! The prepared-layer cache: prepare once per predicate set, answer many.
//!
//! The paper's motivating user states her predicates once and then iterates
//! on the target (§1, Example 1), and its economy is that a region of data
//! is executed at most once however many refined queries contain it (§5).
//! A host that builds a fresh evaluation layer per request honours that
//! inside a request and breaks it across requests: scoring every admissible
//! tuple and folding the grid's cells depends on the predicates, not on the
//! target, and is most of a request's time. A [`PreparedCache`] sits
//! behind the one layer-construction seam (`eval::prepare_layer`) and lets
//! every request over the same predicate set — expanding, contracting or
//! falling through from one to the other — stand on one shared, immutable
//! product.
//!
//! * **Key.** Everything the product depends on and nothing the search
//!   alone depends on: the domain-populated query with the constraint's
//!   operator and target and the error function normalised away, the
//!   per-dimension caps' bit patterns, the identity (not the name) of every
//!   table the query reads, and the executor's cross-product limit. The
//!   fingerprint only picks the bucket; within it keys are compared in
//!   full, so a collision costs a comparison and never serves a wrong
//!   product.
//! * **Builds.** Nothing is locked while a product is built. Requests that
//!   miss one key at the same time each build their own, as every request
//!   did before there was a cache, and the first to finish is the one
//!   retained; a build that fails — an error or a panic — leaves nothing
//!   behind.
//! * **Retention.** A byte-capped LRU with admission on second sight: a
//!   finished build is retained only if its key's fingerprint was seen
//!   before. Traffic whose predicates never repeat therefore retains
//!   nothing, instead of flushing the entries that do repeat through a
//!   window of builds nobody will ask for again. An entry is charged its
//!   key as well as its product, so the cap bounds the number of entries
//!   too, however small their products.
//!
//! The cache retains two levels. A prepared layer (level two) depends on
//! the caps and the grid, so requests whose bounds move miss it. Under it
//! is the query's level-one base relation ([`acq_engine::Structural`]): the
//! tables scanned with their NOREFINE predicates and connected by their
//! NOREFINE equi-joins, which no bound reaches. A level-two miss takes its
//! level one from here, keyed by a [`BaseKey`]: the identities of the
//! tables, their NOREFINE predicates and the structural joins — what
//! [`Executor::structural`] reads, and nothing else. Only a level one that contains a join is looked up
//! or retained; without one it is a filtered scan, cheaper than its key.
//! Both levels share the one retention core, the one byte cap and the one
//! second-sight ring, and neither holds a table: a level one keeps row ids
//! only, so a retained entry does not keep a replaced table's columns alive.
//!
//! The cache is a value its host owns and hands down — never a process
//! global: a library call that passes no cache builds fresh, even inside a
//! process that serves from one. Responses do not depend on it either: a
//! product carries the receipt of what its build cost and every evaluator
//! over it replays that receipt — a layer's receipt includes its level
//! one's — so `stats` are the same on a miss, a hit and a rebuild after
//! eviction, at either level. The work actually saved is what
//! [`PreparedCache::counters`] reports.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::hash::{DefaultHasher, Hasher};
use std::mem::{size_of, size_of_val};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, Weak};

use acq_engine::{EngineResult, Executor, Structural, Table};
use acq_query::{AcqQuery, AggErrorFn, CmpOp, EquiJoin, Predicate};

use crate::eval::Prepared;

/// Bytes of entries a [`PreparedCache::default`] retains. A product is 8 B
/// per score and per aggregate value: ≈ 2 MB for the 123 000 admissible
/// rows × 1 dimension of the paper's Example 1 at 300 000 users.
const DEFAULT_PREPARED_BYTES: usize = 64 << 20;

/// Slots of the second-sight ring, one fingerprint each.
const SEEN_SLOTS: usize = 512;

/// How a request came by its prepared product.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Served {
    /// Retained from an earlier request.
    Hit,
    /// Built by this request.
    Built,
}

impl fmt::Display for Served {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Self::Hit => "hit",
            Self::Built => "built",
        })
    }
}

/// What a prepared product depends on (see the module docs).
#[derive(Debug)]
pub(crate) struct PreparedKey {
    fingerprint: u64,
    query: AcqQuery,
    caps: Vec<u64>,
    /// The grid step's bits: the cell table is folded for one grid, and
    /// two `γ`s can give equal caps.
    step: u64,
    /// Weak, so a retained entry does not keep a replaced table's columns
    /// alive; the allocation a `Weak` pins cannot be handed to another
    /// table, so equal addresses are the same table.
    tables: Vec<Weak<Table>>,
    cross_product_limit: u64,
    /// What retaining this key is charged: an estimate of its size, the
    /// query's rendering standing in for the query's heap.
    bytes: usize,
}

impl PreparedKey {
    /// The key of the product `exec` would build for the domain-populated
    /// `query` within `caps`, on a grid of `step`.
    pub(crate) fn new(
        exec: &Executor,
        query: &AcqQuery,
        caps: &[f64],
        step: f64,
    ) -> EngineResult<Self> {
        let mut query = query.clone();
        query.constraint.op = CmpOp::Eq;
        query.constraint.target = 0.0;
        query.error_fn = AggErrorFn::Relative;
        let caps: Vec<u64> = caps.iter().map(|c| c.to_bits()).collect();
        let step = step.to_bits();
        let tables = tables_of(exec, &query)?;
        let cross_product_limit = exec.cross_product_limit();

        // The fingerprint hashes values only, so equal keys hash alike in
        // every process: the query's `Debug` walks every field its
        // `PartialEq` compares, so the fingerprint cannot fall behind the
        // query type. Tables are told apart by the full comparison alone.
        let rendered = format!("{query:?}");
        let mut hasher = DefaultHasher::new();
        hasher.write(rendered.as_bytes());
        for &cap in &caps {
            hasher.write_u64(cap);
        }
        hasher.write_u64(step);
        hasher.write_u64(cross_product_limit);
        Ok(Self {
            fingerprint: hasher.finish(),
            bytes: size_of::<Retained>()
                + rendered.len()
                + size_of_val(&caps[..])
                + size_of_val(&tables[..]),
            query,
            caps,
            step,
            tables,
            cross_product_limit,
        })
    }
}

/// What a level-one product depends on (see the module docs): the tables
/// by identity in the query's order, the NOREFINE table-local predicates
/// and the structural joins — what [`Executor::structural`] reads. A
/// table's identity pins its name, which the catalog keys it by.
#[derive(Debug)]
pub(crate) struct BaseKey {
    fingerprint: u64,
    norefine: Vec<Predicate>,
    joins: Vec<EquiJoin>,
    /// Weak, as in [`PreparedKey`].
    tables: Vec<Weak<Table>>,
    bytes: usize,
}

impl BaseKey {
    /// The key of the level one `exec` would build for the
    /// domain-populated `query`; `None` when that level one contains no
    /// join, which is not worth a key.
    pub(crate) fn new(exec: &Executor, query: &AcqQuery) -> EngineResult<Option<Self>> {
        if query.structural_joins.is_empty() {
            return Ok(None);
        }
        let norefine: Vec<Predicate> = query
            .predicates
            .iter()
            .filter(|p| !p.refinable && !p.is_join())
            .cloned()
            .collect();
        let tables = tables_of(exec, query)?;
        let rendered = format!(
            "base {:?} {norefine:?} {:?}",
            query.tables, query.structural_joins
        );
        let mut hasher = DefaultHasher::new();
        hasher.write(rendered.as_bytes());
        Ok(Some(Self {
            fingerprint: hasher.finish(),
            bytes: size_of::<Retained>() + rendered.len() + size_of_val(&tables[..]),
            norefine,
            joins: query.structural_joins.clone(),
            tables,
        }))
    }
}

/// Everything but the fingerprint, which has already picked the bucket.
impl PartialEq for BaseKey {
    fn eq(&self, other: &Self) -> bool {
        same_tables(&self.tables, &other.tables)
            && self.joins == other.joins
            && self.norefine == other.norefine
    }
}

/// The query's tables, by identity, in its order.
fn tables_of(exec: &Executor, query: &AcqQuery) -> EngineResult<Vec<Weak<Table>>> {
    query
        .tables
        .iter()
        .map(|name| Ok(Arc::downgrade(&exec.catalog().table(name)?)))
        .collect()
}

/// Whether two table lists are the same tables in the same order; the
/// allocation a `Weak` pins cannot be handed to another table, so equal
/// addresses are the same table.
fn same_tables(a: &[Weak<Table>], b: &[Weak<Table>]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(a, b)| a.ptr_eq(b))
}

/// Everything but the fingerprint, which has already picked the bucket.
impl PartialEq for PreparedKey {
    fn eq(&self, other: &Self) -> bool {
        self.caps == other.caps
            && self.step == other.step
            && self.cross_product_limit == other.cross_product_limit
            && same_tables(&self.tables, &other.tables)
            && self.query == other.query
    }
}

/// The key of either level.
#[derive(Debug, PartialEq)]
pub(crate) enum Key {
    Layer(PreparedKey),
    Base(BaseKey),
}

impl Key {
    fn fingerprint(&self) -> u64 {
        match self {
            Self::Layer(key) => key.fingerprint,
            Self::Base(key) => key.fingerprint,
        }
    }

    fn bytes(&self) -> usize {
        match self {
            Self::Layer(key) => key.bytes,
            Self::Base(key) => key.bytes,
        }
    }
}

/// A product of either level, shared.
#[derive(Debug, Clone)]
pub(crate) enum Stored {
    Layer(Arc<Prepared>),
    Base(Arc<Structural>),
}

impl Stored {
    /// Heap bytes the product holds.
    fn bytes(&self) -> usize {
        match self {
            Self::Layer(prepared) => prepared.bytes(),
            Self::Base(structural) => structural.bytes(),
        }
    }
}

/// A retained product.
#[derive(Debug)]
struct Retained {
    key: Key,
    product: Stored,
    /// Bytes charged against the cap: the product's and the key's.
    charge: usize,
    /// [`Inner::clock`] at the last request served from this entry; its
    /// place in [`Inner::by_use`].
    last_used: u64,
}

/// Point-in-time readings of a [`PreparedCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PreparedCounters {
    /// Requests served a retained layer: prepares that were not redone.
    pub hits: u64,
    /// Requests that found no layer for their key and ran a build.
    pub misses: u64,
    /// Layer builds served a retained level-one base relation: joins that
    /// were not redone.
    pub base_hits: u64,
    /// Layer builds over a join that found no level one for their key and
    /// built it.
    pub base_misses: u64,
    /// Retained products of either level dropped to stay under the byte cap.
    pub evictions: u64,
    /// Products of either level retained now.
    pub entries: u64,
    /// Bytes the retained products and their keys are charged now.
    pub bytes: u64,
}

#[derive(Debug, Default)]
struct Inner {
    /// Retained products, bucketed by their keys' fingerprints.
    entries: HashMap<u64, Vec<Retained>>,
    /// Every entry's `last_used` → its fingerprint: the first is the least
    /// recently used.
    by_use: BTreeMap<u64, u64>,
    /// Bytes charged by the entries; never above the cap.
    bytes: usize,
    /// The LRU clock: ticks whenever an entry is served from or retained.
    clock: u64,
    /// Direct-mapped ring of the fingerprints seen most recently.
    seen: Vec<Option<u64>>,
    counters: PreparedCounters,
}

impl Inner {
    /// The product retained for `key`, now the most recently used.
    fn hit(&mut self, key: &Key) -> Option<Stored> {
        let fingerprint = key.fingerprint();
        let bucket = self.entries.get_mut(&fingerprint)?;
        let entry = bucket.iter_mut().find(|e| e.key == *key)?;
        self.by_use.remove(&entry.last_used);
        self.clock += 1;
        entry.last_used = self.clock;
        self.by_use.insert(self.clock, fingerprint);
        Some(entry.product.clone())
    }

    /// Counts a request for `key` as a hit or a miss of its level.
    fn tally(&mut self, key: &Key, hit: bool) {
        let c = &mut self.counters;
        let counter = match (key, hit) {
            (Key::Layer(_), true) => &mut c.hits,
            (Key::Layer(_), false) => &mut c.misses,
            (Key::Base(_), true) => &mut c.base_hits,
            (Key::Base(_), false) => &mut c.base_misses,
        };
        *counter += 1;
    }

    /// Records a sighting of `fingerprint`; `true` if it was seen before
    /// (and not since overwritten by another that maps to the same slot).
    fn seen_before(&mut self, fingerprint: u64) -> bool {
        let slot = &mut self.seen[(fingerprint % SEEN_SLOTS as u64) as usize];
        slot.replace(fingerprint) == Some(fingerprint)
    }

    /// Retains `product` for `key` if the two fit `cap_bytes` at all, and
    /// drops the least recently used entries until everything retained does.
    fn retain(&mut self, key: Key, product: Stored, cap_bytes: usize) {
        let charge = key.bytes() + product.bytes();
        if charge > cap_bytes {
            return;
        }
        let fingerprint = key.fingerprint();
        let bucket = self.entries.entry(fingerprint).or_default();
        if bucket.iter().any(|e| e.key == key) {
            // A concurrent request's build of this key got here first.
            return;
        }
        self.clock += 1;
        bucket.push(Retained {
            key,
            product,
            charge,
            last_used: self.clock,
        });
        self.by_use.insert(self.clock, fingerprint);
        self.bytes += charge;
        while self.bytes > cap_bytes && self.evict_oldest() {}
    }

    /// Drops the least recently used entry; `false` if there is none.
    fn evict_oldest(&mut self) -> bool {
        let Some((oldest, fingerprint)) = self.by_use.pop_first() else {
            return false;
        };
        if let Entry::Occupied(mut bucket) = self.entries.entry(fingerprint) {
            if let Some(at) = bucket.get().iter().position(|e| e.last_used == oldest) {
                self.bytes -= bucket.get_mut().swap_remove(at).charge;
                self.counters.evictions += 1;
            }
            if bucket.get().is_empty() {
                bucket.remove();
            }
        }
        true
    }
}

/// A shared, byte-capped cache of prepared products (see the module docs).
/// `Send + Sync`; a host keeps one for as long as its tables live and lends
/// it to every request it runs ([`crate::Host::prepared`]).
pub struct PreparedCache {
    cap_bytes: usize,
    inner: Mutex<Inner>,
}

impl fmt::Debug for PreparedCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PreparedCache")
            .field("cap_bytes", &self.cap_bytes)
            .field("counters", &self.counters())
            .finish()
    }
}

impl Default for PreparedCache {
    fn default() -> Self {
        Self::new(DEFAULT_PREPARED_BYTES)
    }
}

impl PreparedCache {
    /// A cache retaining at most `cap_bytes` of prepared products and keys.
    #[must_use]
    pub fn new(cap_bytes: usize) -> Self {
        let inner = Inner {
            seen: vec![None; SEEN_SLOTS],
            ..Inner::default()
        };
        Self {
            cap_bytes,
            inner: Mutex::new(inner),
        }
    }

    /// Every update under this lock leaves `Inner` consistent, so a poisoned
    /// lock (a panic elsewhere on a thread holding it) is safe to recover.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The cache's counters and occupancy.
    #[must_use]
    pub fn counters(&self) -> PreparedCounters {
        let inner = self.lock();
        PreparedCounters {
            entries: inner.by_use.len() as u64,
            bytes: inner.bytes as u64,
            ..inner.counters
        }
    }

    /// The product for `key`, of either level: the retained one, or built
    /// here by `build` (outside the lock) — and then retained if the key
    /// was seen before and fits the cap.
    fn get_or_build(
        &self,
        key: Key,
        build: impl FnOnce() -> EngineResult<Stored>,
    ) -> EngineResult<(Stored, Served)> {
        let admitted = {
            let mut inner = self.lock();
            let hit = inner.hit(&key);
            inner.tally(&key, hit.is_some());
            if let Some(product) = hit {
                return Ok((product, Served::Hit));
            }
            inner.seen_before(key.fingerprint())
        };
        let product = build()?;
        if admitted {
            self.lock().retain(key, product.clone(), self.cap_bytes);
        }
        Ok((product, Served::Built))
    }

    /// The prepared layer for `key`, as [`PreparedCache::get_or_build`]
    /// serves it.
    pub(crate) fn layer(
        &self,
        key: PreparedKey,
        build: impl FnOnce() -> EngineResult<Prepared>,
    ) -> EngineResult<(Arc<Prepared>, Served)> {
        let build = || Ok(Stored::Layer(Arc::new(build()?)));
        match self.get_or_build(Key::Layer(key), build)? {
            (Stored::Layer(prepared), served) => Ok((prepared, served)),
            (Stored::Base(_), _) => unreachable!("a layer's key matches layers only"),
        }
    }

    /// The level-one base relation for `key`, as
    /// [`PreparedCache::get_or_build`] serves it.
    pub(crate) fn base(
        &self,
        key: BaseKey,
        build: impl FnOnce() -> EngineResult<Structural>,
    ) -> EngineResult<(Arc<Structural>, Served)> {
        let build = || Ok(Stored::Base(Arc::new(build()?)));
        match self.get_or_build(Key::Base(key), build)? {
            (Stored::Base(structural), served) => Ok((structural, served)),
            (Stored::Layer(_), _) => unreachable!("a level one's key matches level ones only"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Barrier;

    use acq_engine::{Catalog, DataType, EngineError, Field, TableBuilder, Value};
    use acq_query::{AggConstraint, AggregateSpec, ColRef, Interval, Predicate, RefineSide};

    use crate::config::AcquireConfig;
    use crate::govern::ExecutionBudget;
    use crate::space::RefinedSpace;

    fn table() -> Table {
        let fields = ["x", "y", "z"].map(|c| Field::new(c, DataType::Float));
        let mut b = TableBuilder::new("t", fields.to_vec()).unwrap();
        for i in 0..100 {
            let v = f64::from(i);
            b.push_row(vec![
                Value::Float(v),
                Value::Float(2.0 * v),
                Value::Float(v + 1.0),
            ]);
        }
        b.finish().unwrap()
    }

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        cat.register(table()).unwrap();
        cat
    }

    fn upper(col: &str, hi: f64) -> Predicate {
        Predicate::select(
            ColRef::new("t", col),
            Interval::new(0.0, hi),
            RefineSide::Upper,
        )
    }

    fn query(x: Predicate, y: Predicate, constraint: AggConstraint) -> AcqQuery {
        AcqQuery::builder()
            .table("t")
            .predicate(x)
            .predicate(y)
            .constraint(constraint)
            .build()
            .unwrap()
    }

    fn count(op: CmpOp, target: f64) -> AggConstraint {
        AggConstraint::new(AggregateSpec::count(), op, target)
    }

    fn base_query() -> AcqQuery {
        query(upper("x", 20.0), upper("y", 40.0), count(CmpOp::Eq, 40.0))
    }

    /// The key `prepare_layer` derives for `query` under `cfg`.
    fn key_for(exec: &Executor, query: &AcqQuery, cfg: &AcquireConfig) -> PreparedKey {
        let mut query = query.clone();
        exec.populate_domains(&mut query).unwrap();
        let space = RefinedSpace::new(&query, cfg).unwrap();
        PreparedKey::new(exec, &query, &space.caps(), space.step()).unwrap()
    }

    #[test]
    fn key_separates_what_the_product_depends_on() {
        let exec = Executor::new(catalog());
        let cfg = AcquireConfig::default();
        let base = key_for(&exec, &base_query(), &cfg);
        assert_eq!(base, key_for(&exec, &base_query(), &cfg));
        // Requests clone the catalog, not the tables.
        let sibling = Executor::new(exec.catalog().clone());
        assert_eq!(base, key_for(&sibling, &base_query(), &cfg));

        let eq40 = || count(CmpOp::Eq, 40.0);
        let sum = |col: &str| {
            let spec = AggregateSpec::sum(ColRef::new("t", col));
            AggConstraint::new(spec, CmpOp::Eq, 40.0)
        };
        let lower_y = Predicate::select(
            ColRef::new("t", "y"),
            Interval::new(40.0, 198.0),
            RefineSide::Lower,
        );
        let fixed_lower_y = Predicate::select(
            ColRef::new("t", "y"),
            Interval::new(40.0, 198.0),
            RefineSide::Upper,
        );
        let different: Vec<(&str, AcqQuery, AcqQuery)> = vec![
            (
                "a bound",
                base_query(),
                query(upper("x", 21.0), upper("y", 40.0), eq40()),
            ),
            (
                "NOREFINE vs refinable",
                base_query(),
                query(upper("x", 20.0), upper("y", 40.0).no_refine(), eq40()),
            ),
            (
                "refine side",
                query(upper("x", 20.0), lower_y, eq40()),
                query(upper("x", 20.0), fixed_lower_y, eq40()),
            ),
            (
                "domain",
                base_query(),
                query(
                    upper("x", 20.0).with_domain(Interval::new(0.0, 98.0)),
                    upper("y", 40.0),
                    eq40(),
                ),
            ),
            (
                "max_refinement",
                base_query(),
                query(
                    upper("x", 20.0).with_max_refinement(50.0),
                    upper("y", 40.0),
                    eq40(),
                ),
            ),
            (
                "aggregate column",
                query(upper("x", 20.0), upper("y", 40.0), sum("y")),
                query(upper("x", 20.0), upper("y", 40.0), sum("z")),
            ),
        ];
        for (what, a, b) in &different {
            assert_ne!(key_for(&exec, a, &cfg), key_for(&exec, b, &cfg), "{what}");
        }
        // γ reaches the product through the caps and the grid's step.
        let gamma = cfg.clone().with_gamma(7.0);
        assert_ne!(base, key_for(&exec, &base_query(), &gamma), "gamma");
        let mut query = base_query();
        exec.populate_domains(&mut query).unwrap();
        let caps = RefinedSpace::new(&query, &cfg).unwrap().caps();
        let on_grid = |step: f64| PreparedKey::new(&exec, &query, &caps, step).unwrap();
        assert_ne!(on_grid(5.0), on_grid(10.0), "step");
        // A replaced table is a different table, whatever it holds.
        let mut swapped = exec.catalog().clone();
        swapped.replace(table());
        let swapped = Executor::new(swapped);
        assert_ne!(base, key_for(&swapped, &base_query(), &cfg), "table");
        let limited = Executor::new(exec.catalog().clone()).with_cross_product_limit(10);
        assert_ne!(base, key_for(&limited, &base_query(), &cfg), "limit");
    }

    #[test]
    fn key_unifies_what_only_the_search_depends_on() {
        let exec = Executor::new(catalog());
        let cfg = AcquireConfig::default();
        let base = key_for(&exec, &base_query(), &cfg);
        let with =
            |constraint: AggConstraint| query(upper("x", 20.0), upper("y", 40.0), constraint);
        for (what, q) in [
            ("target", with(count(CmpOp::Eq, 80.0))),
            ("op >=", with(count(CmpOp::Ge, 40.0))),
            ("op <=", with(count(CmpOp::Le, 40.0))),
        ] {
            assert_eq!(base, key_for(&exec, &q, &cfg), "{what}");
        }
        let mut hinge = base_query();
        hinge.error_fn = AggErrorFn::HingeRelative;
        assert_eq!(base, key_for(&exec, &hinge, &cfg), "error_fn");
        for (what, cfg) in [
            ("delta", cfg.clone().with_delta(0.001)),
            ("threads", cfg.clone().with_threads(4)),
            (
                "budget",
                cfg.clone()
                    .with_budget(ExecutionBudget::unlimited().with_max_explored(3)),
            ),
        ] {
            assert_eq!(base, key_for(&exec, &base_query(), &cfg), "{what}");
        }
    }

    /// Two `γ`s can give one predicate set equal caps on different grids:
    /// here both caps are the predicates' largest useful refinement, 100,
    /// with steps of 5 and of 10. The product's cell table is folded for one
    /// grid, so the two grids are two entries — a key without the step would
    /// hand the γ 20 requests the γ 10 product, whose table is no use to
    /// them — and every request through the cache gets the outcome, work
    /// counters included, that a fresh build gives it.
    #[test]
    fn grids_with_equal_caps_are_prepared_apart() {
        use crate::{run_acquire_progress, CancellationToken, EvalLayerKind, Host, Obs};
        let q = query(
            upper("x", 50.0).with_domain(Interval::new(0.0, 100.0)),
            upper("y", 100.0).with_domain(Interval::new(0.0, 200.0)),
            count(CmpOp::Ge, 60.0),
        );
        let cfgs = [
            AcquireConfig::default(),
            AcquireConfig::default().with_gamma(20.0),
        ];
        let spaces = cfgs.clone().map(|cfg| RefinedSpace::new(&q, &cfg).unwrap());
        assert_eq!(spaces[0].caps(), vec![100.0, 100.0]);
        assert_eq!(spaces[0].caps(), spaces[1].caps());
        assert_eq!((spaces[0].step(), spaces[1].step()), (5.0, 10.0));

        let cat = catalog();
        let run = |cfg: &AcquireConfig, cache: Option<&PreparedCache>| {
            let mut exec = Executor::new(cat.clone());
            let (cancel, obs) = (CancellationToken::new(), Obs::disabled());
            let host = Host {
                prepared: cache,
                ..Host::new(&cancel, &obs)
            };
            let out = run_acquire_progress(&mut exec, &q, cfg, EvalLayerKind::CachedScore, host);
            format!("{:?}", out.unwrap())
        };
        let fresh = cfgs.clone().map(|cfg| run(&cfg, None));
        let cache = PreparedCache::default();
        for i in [0, 0, 1, 1, 0, 1] {
            assert_eq!(
                run(&cfgs[i], Some(&cache)),
                fresh[i],
                "gamma {}",
                cfgs[i].gamma
            );
        }
        let c = cache.counters();
        assert_eq!((c.misses, c.hits, c.entries), (4, 2, 2), "{c:?}");
    }

    /// A level-one key names what the join depends on and nothing that only
    /// the caps reach: flexible bounds, the constraint and the
    /// cross-product limit leave it alone;
    /// a NOREFINE predicate, the joins and the tables' identities do not.
    #[test]
    fn base_key_separates_the_join_from_the_bounds() {
        let mut cat = catalog();
        let mut u = TableBuilder::new("u", vec![Field::new("x", DataType::Float)]).unwrap();
        for i in 0..10 {
            u.push_row(vec![Value::Float(f64::from(i))]);
        }
        cat.register(u.finish().unwrap()).unwrap();
        let exec = Executor::new(cat);
        let joined = |x: Predicate, constraint: AggConstraint, on: &str| {
            AcqQuery::builder()
                .table("t")
                .table("u")
                .join(ColRef::new("t", on), ColRef::new("u", "x"))
                .predicate(x)
                .constraint(constraint)
                .build()
                .unwrap()
        };
        let key = |q: &AcqQuery| BaseKey::new(&exec, q).unwrap().expect("a join");
        let base = key(&joined(upper("y", 40.0), count(CmpOp::Eq, 40.0), "x"));
        for (what, q) in [
            (
                "bound",
                joined(upper("y", 50.0), count(CmpOp::Eq, 40.0), "x"),
            ),
            (
                "constraint",
                joined(upper("y", 40.0), count(CmpOp::Le, 9.0), "x"),
            ),
        ] {
            assert_eq!(key(&q), base, "{what}");
        }
        // The cross-product limit is read by `refine`, not by level one.
        let limited = Executor::new(exec.catalog().clone()).with_cross_product_limit(10);
        let q = joined(upper("y", 40.0), count(CmpOp::Eq, 40.0), "x");
        assert_eq!(
            BaseKey::new(&limited, &q).unwrap().unwrap(),
            base,
            "the cross-product limit"
        );
        let fixed = |hi| upper("y", hi).no_refine();
        let with_fixed = |hi| {
            let mut q = joined(upper("y", 40.0), count(CmpOp::Eq, 40.0), "x");
            q.predicates.push(fixed(hi));
            q
        };
        assert_ne!(key(&with_fixed(30.0)), base, "a NOREFINE predicate");
        assert_ne!(key(&with_fixed(30.0)), key(&with_fixed(31.0)), "its bound");
        let other_join = joined(upper("y", 40.0), count(CmpOp::Eq, 40.0), "z");
        assert_ne!(key(&other_join), base, "the join");
        let mut swapped = exec.catalog().clone();
        swapped.replace(table());
        let replaced = Executor::new(swapped);
        let q = joined(upper("y", 40.0), count(CmpOp::Eq, 40.0), "x");
        assert_ne!(
            BaseKey::new(&replaced, &q).unwrap().unwrap(),
            base,
            "a table"
        );
        // A query over one table has no join to share.
        assert!(BaseKey::new(&exec, &base_query()).unwrap().is_none());
    }

    /// Fingerprints hash values only, so keys over two separately built,
    /// equal catalogs fall in one bucket in every process — and the full
    /// comparison still tells their tables apart.
    #[test]
    fn fingerprints_hash_values_and_comparison_tells_tables_apart() {
        let cfg = AcquireConfig::default();
        let one = key_for(&Executor::new(catalog()), &base_query(), &cfg);
        let other = key_for(&Executor::new(catalog()), &base_query(), &cfg);
        assert_eq!(one.fingerprint, other.fingerprint);
        assert_ne!(one, other);
    }

    /// A request that binds SQL builds its categorical predicate's ontology
    /// afresh, and the tree's name index is a map whose order differs from
    /// one build to the next. The key depends on the tree's value alone, so
    /// the second such request is admitted and every later one is a hit.
    #[test]
    fn a_repeated_categorical_request_is_hit() {
        use crate::{run_acquire_progress, CancellationToken, EvalLayerKind, Host, Obs};
        use acq_query::OntologyTree;

        let fields = vec![
            Field::new("cuisine", DataType::Str),
            Field::new("price", DataType::Float),
        ];
        let mut b = TableBuilder::new("r", fields).unwrap();
        let cuisines = ["Gyro", "Falafel", "Shawarma", "Sushi", "PadThai"];
        for i in 0..300 {
            b.push_row(vec![
                Value::from(cuisines[i % cuisines.len()]),
                Value::Float((i % 30) as f64),
            ]);
        }
        let mut cat = Catalog::new();
        cat.register(b.finish().unwrap()).unwrap();

        let cache = PreparedCache::default();
        for _ in 0..5 {
            let cuisine = Predicate::categorical(
                ColRef::new("r", "cuisine"),
                Arc::new(OntologyTree::sample_cuisine()),
                vec!["Gyro".to_string()],
            );
            let price = Predicate::select(
                ColRef::new("r", "price"),
                Interval::new(0.0, 10.0),
                RefineSide::Upper,
            );
            let q = AcqQuery::builder()
                .table("r")
                .predicate(cuisine)
                .predicate(price)
                .constraint(count(CmpOp::Ge, 150.0))
                .build()
                .unwrap();
            let mut exec = Executor::new(cat.clone());
            let (cancel, obs) = (CancellationToken::new(), Obs::disabled());
            let host = Host {
                prepared: Some(&cache),
                ..Host::new(&cancel, &obs)
            };
            let cfg = AcquireConfig::default();
            run_acquire_progress(&mut exec, &q, &cfg, EvalLayerKind::CachedScore, host).unwrap();
        }
        let c = cache.counters();
        assert_eq!((c.misses, c.hits, c.entries), (2, 3, 1), "{c:?}");
    }

    /// Distinct keys by the thousand: `x <= bound`.
    fn key(exec: &Executor, bound: f64) -> PreparedKey {
        let q = query(upper("x", bound), upper("y", 40.0), count(CmpOp::Eq, 40.0));
        key_for(exec, &q, &AcquireConfig::default())
    }

    const ROWS: usize = 1_000;

    fn build() -> EngineResult<Prepared> {
        Ok(Prepared::stub(ROWS))
    }

    /// What one retained `build()` is charged under a two-digit `bound`.
    fn charge(exec: &Executor) -> usize {
        key(exec, 20.0).bytes + Prepared::stub(ROWS).bytes()
    }

    #[test]
    fn a_key_is_retained_on_second_sight_and_hit_from_then_on() {
        let exec = Executor::new(catalog());
        let cache = PreparedCache::new(10 * charge(&exec));
        let (first, served) = cache.layer(key(&exec, 20.0), build).unwrap();
        assert_eq!(served, Served::Built);
        assert_eq!(
            cache.counters(),
            PreparedCounters {
                misses: 1,
                ..Default::default()
            },
            "a key seen once retains nothing"
        );
        let (second, served) = cache.layer(key(&exec, 20.0), build).unwrap();
        assert_eq!(served, Served::Built);
        assert!(!Arc::ptr_eq(&first, &second));
        for hits in 1..=3 {
            let unreachable = || -> EngineResult<Prepared> { unreachable!("a hit never builds") };
            let (hit, served) = cache.layer(key(&exec, 20.0), unreachable).unwrap();
            assert_eq!(served, Served::Hit);
            assert!(Arc::ptr_eq(&hit, &second), "a hit is the retained product");
            let expected = PreparedCounters {
                hits,
                misses: 2,
                entries: 1,
                bytes: charge(&exec) as u64,
                ..Default::default()
            };
            assert_eq!(cache.counters(), expected);
        }
    }

    #[test]
    fn eviction_is_by_bytes_in_lru_order() {
        let exec = Executor::new(catalog());
        let cap = 3 * charge(&exec);
        let cache = PreparedCache::new(cap);
        // Four bounds whose keys take four slots of the second-sight ring:
        // a slot shared by chance would forget a sighting, which is not
        // what this test is about.
        let mut slots = Vec::new();
        let bounds: Vec<f64> = (10..)
            .map(f64::from)
            .filter(|&b| {
                let slot = key(&exec, b).fingerprint % SEEN_SLOTS as u64;
                let free = !slots.contains(&slot);
                if free {
                    slots.push(slot);
                }
                free
            })
            .take(4)
            .collect();
        let [b10, b11, b12, b13] = bounds[..] else {
            unreachable!("take(4)")
        };
        let served = |bound: f64| {
            let (_, served) = cache.layer(key(&exec, bound), build).unwrap();
            assert!(cache.counters().bytes as usize <= cap);
            served
        };
        for bound in [b10, b11, b12] {
            assert_eq!(served(bound), Served::Built);
            assert_eq!(served(bound), Served::Built);
        }
        assert_eq!(cache.counters().entries, 3);
        // 10 becomes the most recently used; 11 is now the oldest.
        assert_eq!(served(b10), Served::Hit);
        assert_eq!(served(b13), Served::Built);
        assert_eq!(served(b13), Served::Built);
        let c = cache.counters();
        assert_eq!((c.entries, c.evictions, c.bytes as usize), (3, 1, cap));
        assert_eq!(served(b10), Served::Hit);
        assert_eq!(served(b12), Served::Hit);
        assert_eq!(served(b13), Served::Hit);
        // 11 went, and its fingerprint is still in the ring: one build
        // brings it back, at the expense of the oldest (10).
        assert_eq!(served(b11), Served::Built);
        assert_eq!(served(b11), Served::Hit);
        assert_eq!(served(b10), Served::Built);
        assert_eq!(cache.counters().evictions, 3);
    }

    #[test]
    fn a_product_larger_than_the_cap_is_served_but_never_retained() {
        let exec = Executor::new(catalog());
        let cache = PreparedCache::new(charge(&exec) - 1);
        for _ in 0..3 {
            let (prepared, served) = cache.layer(key(&exec, 20.0), build).unwrap();
            assert_eq!(prepared.bytes(), Prepared::stub(ROWS).bytes());
            assert_eq!(served, Served::Built);
            let c = cache.counters();
            assert_eq!((c.entries, c.bytes, c.evictions), (0, 0, 0));
        }
    }

    /// A product over an empty universe holds no bytes; its key does, so
    /// such entries count toward the cap like any other.
    #[test]
    fn entries_with_empty_products_are_bounded_by_the_cap_too() {
        let exec = Executor::new(catalog());
        let cap = 64 << 10;
        let cache = PreparedCache::new(cap);
        let empty = || Ok(Prepared::stub(0));
        assert_eq!(Prepared::stub(0).bytes(), 0);
        for bound in 1..=10_000 {
            for _ in 0..2 {
                cache.layer(key(&exec, f64::from(bound)), empty).unwrap();
            }
        }
        let c = cache.counters();
        assert!(c.bytes as usize <= cap, "{c:?}");
        assert!(c.entries as usize <= cap / size_of::<Retained>(), "{c:?}");
        assert_eq!(c.entries + c.evictions, 10_000, "{c:?}");
        // The survivors are the latest, and still served.
        let (_, served) = cache.layer(key(&exec, 10_000.0), empty).unwrap();
        assert_eq!(served, Served::Hit);
    }

    #[test]
    fn concurrent_misses_each_build_and_one_build_is_retained() {
        let exec = Executor::new(catalog());
        let cache = PreparedCache::new(10 * charge(&exec));
        // First sight.
        cache.layer(key(&exec, 20.0), build).unwrap();
        let start = Barrier::new(8);
        let products: Vec<Arc<Prepared>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        let key = key(&exec, 20.0);
                        start.wait();
                        // Nobody is done before everybody has missed.
                        let all_missed = || {
                            while cache.counters().misses < 9 {
                                std::thread::yield_now();
                            }
                            build()
                        };
                        cache.layer(key, all_missed).unwrap().0
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let c = cache.counters();
        assert_eq!((c.misses, c.hits, c.entries), (9, 0, 1), "{c:?}");
        assert_eq!(c.bytes as usize, charge(&exec));
        let (hit, served) = cache.layer(key(&exec, 20.0), build).unwrap();
        assert_eq!(served, Served::Hit);
        let retained = products.iter().filter(|p| Arc::ptr_eq(p, &hit)).count();
        assert_eq!(retained, 1, "the first build to finish is the one kept");
    }

    #[test]
    fn a_failed_build_is_not_cached_and_the_next_request_builds_again() {
        let too_large = || EngineError::CrossProductTooLarge {
            estimated: 2,
            limit: 1,
        };
        let exec = Executor::new(catalog());
        let cache = PreparedCache::new(10 * charge(&exec));
        for _ in 0..2 {
            let failed = cache.layer(key(&exec, 20.0), || Err(too_large()));
            assert_eq!(failed.unwrap_err(), too_large());
            let panicked = catch_unwind(AssertUnwindSafe(|| {
                cache.layer(key(&exec, 20.0), || panic!("injected build panic"))
            }));
            assert!(panicked.is_err());
            assert_eq!(cache.counters().entries, 0);
        }
        let (_, served) = cache.layer(key(&exec, 20.0), build).unwrap();
        assert_eq!(served, Served::Built);
        let c = cache.counters();
        assert_eq!((c.misses, c.entries), (5, 1), "admitted: seen before");
        let (_, served) = cache.layer(key(&exec, 20.0), build).unwrap();
        assert_eq!(served, Served::Hit);
    }
}
