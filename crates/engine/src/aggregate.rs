//! Mergeable aggregate states: the optimal-substructure "+" of §2.6.
//!
//! ACQUIRE only ever executes *cell* sub-queries and combines their partial
//! aggregates through the recurrences of §5.1.2. That combination is the
//! `merge` operation here: addition for COUNT/SUM, min/max for MIN/MAX
//! (footnote 1 of the paper), and component-wise merge of (SUM, COUNT) for
//! AVG. User-defined aggregates participate through [`UdaState`], whose
//! mergeable-state interface guarantees the optimal substructure property by
//! construction.

use std::any::Any;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use acq_query::{AggFunc, AggregateSpec};

use crate::error::{EngineError, EngineResult};

/// State of a user-defined aggregate.
///
/// Implementations must satisfy, for all states `a`, `b` and values `v`:
/// `merge` is associative and commutative with the empty state as identity —
/// exactly the optimal substructure property of §2.6.
pub trait UdaState: fmt::Debug + Send + Sync {
    /// Folds one input value into the state.
    fn update(&mut self, v: f64);
    /// Merges another state of the same concrete type into this one.
    fn merge(&mut self, other: &dyn UdaState) -> EngineResult<()>;
    /// The aggregate value, `None` when undefined on an empty input.
    fn value(&self) -> Option<f64>;
    /// Clones the state behind the trait object.
    fn clone_box(&self) -> Box<dyn UdaState>;
    /// Downcast support for `merge`.
    fn as_any(&self) -> &dyn Any;
}

impl Clone for Box<dyn UdaState> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Registry of user-defined aggregate factories, keyed by upper-case name.
#[derive(Default, Clone)]
pub struct UdaRegistry {
    factories: HashMap<String, Arc<dyn Fn() -> Box<dyn UdaState> + Send + Sync>>,
}

impl fmt::Debug for UdaRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut names: Vec<&String> = self.factories.keys().collect();
        names.sort();
        f.debug_struct("UdaRegistry")
            .field("registered", &names)
            .finish()
    }
}

impl UdaRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a factory under `name` (case-insensitive).
    pub fn register(
        &mut self,
        name: impl Into<String>,
        factory: impl Fn() -> Box<dyn UdaState> + Send + Sync + 'static,
    ) {
        self.factories
            .insert(name.into().to_ascii_uppercase(), Arc::new(factory));
    }

    /// Instantiates an empty state for `name`.
    pub fn instantiate(&self, name: &str) -> EngineResult<Box<dyn UdaState>> {
        self.factories
            .get(&name.to_ascii_uppercase())
            .map(|f| f())
            .ok_or_else(|| EngineError::UnknownUda(name.to_string()))
    }

    /// Whether `name` is registered.
    #[must_use]
    pub fn contains(&self, name: &str) -> bool {
        self.factories.contains_key(&name.to_ascii_uppercase())
    }
}

/// A partial aggregate over some set of tuples, mergeable with disjoint
/// partials per the optimal substructure property.
#[derive(Debug, Clone)]
pub enum AggState {
    /// `COUNT(*)`.
    Count(u64),
    /// `SUM(attr)`. The sum of an empty set is 0 here (simpler than SQL's
    /// NULL and what the refinement search needs).
    Sum(f64),
    /// `MIN(attr)`, `None` on empty input.
    Min(Option<f64>),
    /// `MAX(attr)`, `None` on empty input.
    Max(Option<f64>),
    /// `AVG(attr)` decomposed into SUM and COUNT (§2.6): *"SUM and COUNT
    /// aggregates are computed and stored separately; AVERAGE is computed
    /// from these values as required"* (footnote 1).
    Avg {
        /// Running sum.
        sum: f64,
        /// Running count.
        count: u64,
    },
    /// A user-defined aggregate state.
    Uda(Box<dyn UdaState>),
}

impl AggState {
    /// An empty (identity) state for the given aggregate.
    pub fn empty(spec: &AggregateSpec, registry: &UdaRegistry) -> EngineResult<Self> {
        Ok(match &spec.func {
            AggFunc::Count => Self::Count(0),
            AggFunc::Sum => Self::Sum(0.0),
            AggFunc::Min => Self::Min(None),
            AggFunc::Max => Self::Max(None),
            AggFunc::Avg => Self::Avg { sum: 0.0, count: 0 },
            AggFunc::Uda(name) => Self::Uda(registry.instantiate(name)?),
        })
    }

    /// Folds one tuple into the state; `v` is the aggregated column's value
    /// for that tuple (ignored by COUNT).
    pub fn update(&mut self, v: f64) {
        match self {
            Self::Count(c) => *c += 1,
            Self::Sum(s) => *s += v,
            Self::Min(m) => *m = Some(m.map_or(v, |cur| cur.min(v))),
            Self::Max(m) => *m = Some(m.map_or(v, |cur| cur.max(v))),
            Self::Avg { sum, count } => {
                *sum += v;
                *count += 1;
            }
            Self::Uda(state) => state.update(v),
        }
    }

    /// Merges a partial aggregate over a disjoint tuple set into this one —
    /// the "+" of Eq. 9–17.
    pub fn merge(&mut self, other: &AggState) -> EngineResult<()> {
        match (self, other) {
            (Self::Count(a), Self::Count(b)) => *a += b,
            (Self::Sum(a), Self::Sum(b)) => *a += b,
            (Self::Min(a), Self::Min(b)) => {
                if let Some(bv) = b {
                    *a = Some(a.map_or(*bv, |av| av.min(*bv)));
                }
            }
            (Self::Max(a), Self::Max(b)) => {
                if let Some(bv) = b {
                    *a = Some(a.map_or(*bv, |av| av.max(*bv)));
                }
            }
            (Self::Avg { sum: s1, count: c1 }, Self::Avg { sum: s2, count: c2 }) => {
                *s1 += s2;
                *c1 += c2;
            }
            (Self::Uda(a), Self::Uda(b)) => a.merge(b.as_ref())?,
            _ => return Err(EngineError::StateMismatch),
        }
        Ok(())
    }

    /// The aggregate's value: `None` when undefined on empty input
    /// (MIN/MAX/AVG of zero tuples).
    #[must_use]
    pub fn value(&self) -> Option<f64> {
        match self {
            Self::Count(c) => Some(*c as f64),
            Self::Sum(s) => Some(*s),
            Self::Min(m) => *m,
            Self::Max(m) => *m,
            Self::Avg { sum, count } => (*count > 0).then(|| sum / *count as f64),
            Self::Uda(state) => state.value(),
        }
    }

    /// Number of tuples folded in, when the state tracks it.
    #[must_use]
    pub fn count(&self) -> Option<u64> {
        match self {
            Self::Count(c) => Some(*c),
            Self::Avg { count, .. } => Some(*count),
            _ => None,
        }
    }
}

/// Sum-of-squares: the example user-defined aggregate used across the test
/// suite and documentation. Satisfies the OSP because disjoint sums of
/// squares add.
#[derive(Debug, Clone, Default)]
pub struct SumSquares {
    total: f64,
    seen: u64,
}

impl UdaState for SumSquares {
    fn update(&mut self, v: f64) {
        self.total += v * v;
        self.seen += 1;
    }

    fn merge(&mut self, other: &dyn UdaState) -> EngineResult<()> {
        let other = other
            .as_any()
            .downcast_ref::<SumSquares>()
            .ok_or(EngineError::StateMismatch)?;
        self.total += other.total;
        self.seen += other.seen;
        Ok(())
    }

    fn value(&self) -> Option<f64> {
        Some(self.total)
    }

    fn clone_box(&self) -> Box<dyn UdaState> {
        Box::new(self.clone())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acq_query::ColRef;

    fn registry() -> UdaRegistry {
        let mut r = UdaRegistry::new();
        r.register("sumsq", || Box::<SumSquares>::default());
        r
    }

    #[test]
    fn count_update_and_merge() {
        let mut a = AggState::Count(0);
        a.update(0.0);
        a.update(0.0);
        let b = AggState::Count(5);
        a.merge(&b).unwrap();
        assert_eq!(a.value(), Some(7.0));
        assert_eq!(a.count(), Some(7));
    }

    #[test]
    fn sum_of_empty_is_zero() {
        let s = AggState::Sum(0.0);
        assert_eq!(s.value(), Some(0.0));
    }

    #[test]
    fn min_max_merge_with_empty_identity() {
        let mut m = AggState::Min(None);
        assert_eq!(m.value(), None);
        m.merge(&AggState::Min(Some(3.0))).unwrap();
        m.merge(&AggState::Min(None)).unwrap();
        m.update(-1.0);
        assert_eq!(m.value(), Some(-1.0));

        let mut x = AggState::Max(Some(2.0));
        x.merge(&AggState::Max(Some(9.0))).unwrap();
        assert_eq!(x.value(), Some(9.0));
    }

    #[test]
    fn avg_decomposes_into_sum_and_count() {
        let mut a = AggState::Avg { sum: 0.0, count: 0 };
        assert_eq!(a.value(), None);
        a.update(10.0);
        a.update(20.0);
        let b = AggState::Avg {
            sum: 30.0,
            count: 1,
        };
        a.merge(&b).unwrap();
        assert_eq!(a.value(), Some(20.0)); // (10+20+30)/3
    }

    #[test]
    fn merge_kind_mismatch_errors() {
        let mut a = AggState::Count(0);
        assert_eq!(
            a.merge(&AggState::Sum(1.0)).unwrap_err(),
            EngineError::StateMismatch
        );
    }

    /// §8.4.6: "we omit MIN since this can be written as the MAX(-1 *
    /// attribute)" — our native MIN agrees with that rewriting.
    #[test]
    fn min_is_negated_max_of_negated_values() {
        let vals = [3.0, -7.5, 0.0, 12.25, -7.4];
        let mut min = AggState::Min(None);
        let mut neg_max = AggState::Max(None);
        for &v in &vals {
            min.update(v);
            neg_max.update(-v);
        }
        assert_eq!(min.value(), neg_max.value().map(|m| -m));
    }

    #[test]
    fn merge_order_independent() {
        // OSP sanity: (a + b) + c == a + (b + c), and any order works.
        let parts = [1.0, -3.5, 2.0, 10.0];
        let mut left = AggState::Sum(0.0);
        for v in parts {
            left.update(v);
        }
        let mut right = AggState::Sum(0.0);
        for v in parts.iter().rev() {
            right.update(*v);
        }
        assert_eq!(left.value(), right.value());
    }

    #[test]
    fn uda_roundtrip() {
        let reg = registry();
        let spec = AggregateSpec::uda("SUMSQ", ColRef::new("t", "x"));
        let mut s = AggState::empty(&spec, &reg).unwrap();
        s.update(3.0);
        s.update(4.0);
        let mut t = AggState::empty(&spec, &reg).unwrap();
        t.update(1.0);
        s.merge(&t).unwrap();
        assert_eq!(s.value(), Some(26.0));
    }

    #[test]
    fn unknown_uda_errors() {
        let reg = registry();
        let spec = AggregateSpec::uda("nope", ColRef::new("t", "x"));
        assert!(matches!(
            AggState::empty(&spec, &reg).unwrap_err(),
            EngineError::UnknownUda(_)
        ));
    }

    #[test]
    fn registry_is_case_insensitive() {
        let reg = registry();
        assert!(reg.contains("SumSq"));
        assert!(reg.instantiate("SUMSQ").is_ok());
    }
}
