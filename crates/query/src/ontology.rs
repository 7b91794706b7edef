//! Ontology (taxonomy) trees for categorical predicates (§7.3).
//!
//! The paper measures the refinement distance between categorical values by
//! the relative depths of the values in a taxonomy tree: rolling an accepted
//! category up the tree relaxes the predicate, drilling down contracts it.
//! [`OntologyTree::rollup_distance`] returns the minimal number of roll-up
//! levels an accepted set needs before it generalises over a candidate value,
//! which `acq-query` turns into a PScore.

use std::collections::HashMap;
use std::fmt;

/// Identifier of a node within an [`OntologyTree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OntologyNodeId(usize);

/// Errors raised while building or querying an ontology.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum OntologyError {
    /// A node with this name already exists (names must be unique).
    DuplicateName(String),
    /// The referenced parent node does not exist.
    UnknownParent(OntologyNodeId),
    /// The referenced node name does not exist.
    UnknownName(String),
}

impl fmt::Display for OntologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::DuplicateName(n) => write!(f, "duplicate ontology node name: {n}"),
            Self::UnknownParent(id) => write!(f, "unknown ontology parent id: {:?}", id),
            Self::UnknownName(n) => write!(f, "unknown ontology node name: {n}"),
        }
    }
}

impl std::error::Error for OntologyError {}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Node {
    name: String,
    parent: Option<usize>,
    depth: u32,
}

/// A rooted taxonomy tree over categorical values, e.g. the paper's Fig. 7
/// food-preference and location ontologies.
#[derive(Clone, PartialEq, Eq)]
pub struct OntologyTree {
    nodes: Vec<Node>,
    by_name: HashMap<String, usize>,
}

/// Renders `nodes` alone: `by_name` is derived from them, and a map's
/// iteration order differs from one map to the next, so rendering it would
/// make two equal trees print differently.
impl fmt::Debug for OntologyTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OntologyTree")
            .field("nodes", &self.nodes)
            .finish_non_exhaustive()
    }
}

impl OntologyTree {
    /// Creates a tree with a single root node.
    #[must_use]
    pub fn new(root: impl Into<String>) -> Self {
        let root = root.into();
        let mut by_name = HashMap::new();
        by_name.insert(root.clone(), 0);
        Self {
            nodes: vec![Node {
                name: root,
                parent: None,
                depth: 0,
            }],
            by_name,
        }
    }

    /// The root node id.
    #[must_use]
    pub fn root(&self) -> OntologyNodeId {
        OntologyNodeId(0)
    }

    /// Adds a child node under `parent`. Node names must be unique across the
    /// whole tree so values can be referenced by name.
    pub fn add_child(
        &mut self,
        parent: OntologyNodeId,
        name: impl Into<String>,
    ) -> Result<OntologyNodeId, OntologyError> {
        let name = name.into();
        if self.by_name.contains_key(&name) {
            return Err(OntologyError::DuplicateName(name));
        }
        let Some(parent_node) = self.nodes.get(parent.0) else {
            return Err(OntologyError::UnknownParent(parent));
        };
        let depth = parent_node.depth + 1;
        let id = self.nodes.len();
        self.nodes.push(Node {
            name: name.clone(),
            parent: Some(parent.0),
            depth,
        });
        self.by_name.insert(name, id);
        Ok(OntologyNodeId(id))
    }

    /// Convenience: adds a whole path of nodes (creating missing ones) below
    /// the root, returning the id of the last node. Existing prefixes are
    /// reused.
    pub fn add_path(&mut self, path: &[&str]) -> Result<OntologyNodeId, OntologyError> {
        let mut cur = self.root();
        for part in path {
            cur = match self.by_name.get(*part) {
                Some(&id) if self.is_ancestor(cur, OntologyNodeId(id)) => OntologyNodeId(id),
                Some(_) => return Err(OntologyError::DuplicateName((*part).to_string())),
                None => self.add_child(cur, *part)?,
            };
        }
        Ok(cur)
    }

    /// Looks a node up by name.
    #[must_use]
    pub fn node(&self, name: &str) -> Option<OntologyNodeId> {
        self.by_name.get(name).copied().map(OntologyNodeId)
    }

    /// Name of a node.
    #[must_use]
    pub fn name(&self, id: OntologyNodeId) -> &str {
        &self.nodes[id.0].name
    }

    /// Depth of a node (root = 0).
    #[must_use]
    pub fn depth(&self, id: OntologyNodeId) -> u32 {
        self.nodes[id.0].depth
    }

    /// Height of the tree: the maximum node depth.
    #[must_use]
    pub fn height(&self) -> u32 {
        self.nodes.iter().map(|n| n.depth).max().unwrap_or(0)
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tree only contains the root.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }

    /// Whether `a` is an ancestor of (or equal to) `b`.
    #[must_use]
    pub fn is_ancestor(&self, a: OntologyNodeId, b: OntologyNodeId) -> bool {
        let mut cur = Some(b.0);
        while let Some(i) = cur {
            if i == a.0 {
                return true;
            }
            cur = self.nodes[i].parent;
        }
        false
    }

    /// Lowest common ancestor of two nodes.
    #[must_use]
    pub fn lca(&self, a: OntologyNodeId, b: OntologyNodeId) -> OntologyNodeId {
        let (mut x, mut y) = (a.0, b.0);
        while self.nodes[x].depth > self.nodes[y].depth {
            // lint-allow(panic-hygiene): depth > 0 implies a parent exists
            x = self.nodes[x].parent.expect("non-root has parent");
        }
        while self.nodes[y].depth > self.nodes[x].depth {
            // lint-allow(panic-hygiene): depth > 0 implies a parent exists
            y = self.nodes[y].parent.expect("non-root has parent");
        }
        while x != y {
            // lint-allow(panic-hygiene): equal depths; both walks end at the root
            x = self.nodes[x].parent.expect("nodes share the root");
            // lint-allow(panic-hygiene): equal depths; both walks end at the root
            y = self.nodes[y].parent.expect("nodes share the root");
        }
        OntologyNodeId(x)
    }

    /// Symmetric taxonomy distance: the number of edges from `a` to `b`
    /// through their LCA (the paper's "relative depths" notion).
    #[must_use]
    pub fn distance(&self, a: &str, b: &str) -> Option<u32> {
        let (a, b) = (self.node(a)?, self.node(b)?);
        let l = self.lca(a, b);
        Some((self.depth(a) - self.depth(l)) + (self.depth(b) - self.depth(l)))
    }

    /// Minimal number of roll-up levels needed for *some* member of
    /// `accepted` to generalise over `candidate`: rolling node `a` up `k`
    /// levels makes it cover exactly the subtree of its `k`-th ancestor, so
    /// the distance is `min_a (depth(a) - depth(lca(a, candidate)))`.
    ///
    /// Returns `None` when the candidate (or every accepted value) is absent
    /// from the tree.
    ///
    /// ```
    /// use acq_query::OntologyTree;
    /// // Fig. 7(b): relaxing "places that serve Gyro" to "any Mediterranean"
    /// // takes two roll-ups (Gyro -> Greek -> Mediterranean).
    /// let t = OntologyTree::sample_cuisine();
    /// let accepted = vec!["Gyro".to_string()];
    /// assert_eq!(t.rollup_distance(&accepted, "Falafel"), Some(2));
    /// assert_eq!(t.rollup_distance(&accepted, "Sushi"), Some(3));
    /// ```
    #[must_use]
    pub fn rollup_distance(&self, accepted: &[String], candidate: &str) -> Option<u32> {
        let cand = self.node(candidate)?;
        accepted
            .iter()
            .filter_map(|a| {
                let a = self.node(a)?;
                let l = self.lca(a, cand);
                Some(self.depth(a) - self.depth(l))
            })
            .min()
    }

    /// All node names at the leaves of the subtree rooted at `name`
    /// (drill-down view; leaves are nodes without children).
    #[must_use]
    pub fn leaves_under(&self, name: &str) -> Vec<String> {
        let Some(root) = self.node(name) else {
            return Vec::new();
        };
        let mut has_child = vec![false; self.nodes.len()];
        for n in &self.nodes {
            if let Some(p) = n.parent {
                has_child[p] = true;
            }
        }
        (0..self.nodes.len())
            .filter(|&i| !has_child[i] && self.is_ancestor(root, OntologyNodeId(i)))
            .map(|i| self.nodes[i].name.clone())
            .collect()
    }

    /// Builds the paper's Fig. 7(b) cuisine taxonomy, used in tests and the
    /// categorical example.
    #[must_use]
    pub fn sample_cuisine() -> Self {
        let mut t = OntologyTree::new("Restaurants");
        let paths: [&[&str]; 5] = [
            &["Mediterranean", "Greek", "Gyro"],
            &["Mediterranean", "Middle-Eastern", "Falafel"],
            &["Mediterranean", "Middle-Eastern", "Shawarma"],
            &["Asian", "Japanese", "Sushi"],
            &["Asian", "Thai", "PadThai"],
        ];
        for p in paths {
            // Static, distinct paths cannot collide, so the only error
            // `add_path` can raise is unreachable here.
            let _ = t.add_path(p);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_lookup() {
        let t = OntologyTree::sample_cuisine();
        assert!(t.node("Gyro").is_some());
        assert!(t.node("Pizza").is_none());
        assert_eq!(t.height(), 3);
        assert_eq!(t.depth(t.node("Gyro").unwrap()), 3);
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut t = OntologyTree::new("root");
        let a = t.add_child(t.root(), "a").unwrap();
        assert_eq!(
            t.add_child(a, "a"),
            Err(OntologyError::DuplicateName("a".into()))
        );
    }

    #[test]
    fn add_path_reuses_prefixes() {
        let mut t = OntologyTree::new("root");
        t.add_path(&["x", "y"]).unwrap();
        let before = t.len();
        t.add_path(&["x", "z"]).unwrap();
        assert_eq!(t.len(), before + 1);
    }

    #[test]
    fn lca_and_distance() {
        let t = OntologyTree::sample_cuisine();
        // Gyro and Falafel meet at Mediterranean (depth 1):
        // distance = (3-1) + (3-1) = 4.
        assert_eq!(t.distance("Gyro", "Falafel"), Some(4));
        assert_eq!(t.distance("Gyro", "Gyro"), Some(0));
        assert_eq!(t.distance("Gyro", "Sushi"), Some(6));
        assert_eq!(t.distance("Gyro", "Nope"), None);
    }

    #[test]
    fn rollup_distance_matches_paper_example() {
        let t = OntologyTree::sample_cuisine();
        let accepted = vec!["Gyro".to_string()];
        // Relaxing "places that serve Gyro" to "any Mediterranean cuisine"
        // requires rolling Gyro up 2 levels (Gyro -> Greek -> Mediterranean),
        // which then covers Falafel.
        assert_eq!(t.rollup_distance(&accepted, "Falafel"), Some(2));
        // Covering Sushi requires rolling up to the root (3 levels).
        assert_eq!(t.rollup_distance(&accepted, "Sushi"), Some(3));
        assert_eq!(t.rollup_distance(&accepted, "Gyro"), Some(0));
        assert_eq!(t.rollup_distance(&accepted, "Absent"), None);
    }

    #[test]
    fn rollup_takes_minimum_over_accepted_set() {
        let t = OntologyTree::sample_cuisine();
        let accepted = vec!["Gyro".to_string(), "Shawarma".to_string()];
        // Falafel is a sibling of Shawarma: one roll-up suffices.
        assert_eq!(t.rollup_distance(&accepted, "Falafel"), Some(1));
    }

    #[test]
    fn leaves_under_subtree() {
        let t = OntologyTree::sample_cuisine();
        let mut leaves = t.leaves_under("Mediterranean");
        leaves.sort();
        assert_eq!(leaves, vec!["Falafel", "Gyro", "Shawarma"]);
        assert!(t.leaves_under("Nope").is_empty());
    }

    #[test]
    fn is_ancestor_relation() {
        let t = OntologyTree::sample_cuisine();
        let med = t.node("Mediterranean").unwrap();
        let gyro = t.node("Gyro").unwrap();
        assert!(t.is_ancestor(med, gyro));
        assert!(!t.is_ancestor(gyro, med));
        assert!(t.is_ancestor(t.root(), med));
    }
}
