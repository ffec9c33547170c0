//! Compact sorted sets of graph ids.
//!
//! Closure-graph vertices and edges carry the set of member-graph indices
//! containing them (the `{i1, …, in}` annotations of Fig. 4). Clusters are
//! small (≤ N ≈ 20 graphs), so a sorted `Vec<u32>` beats any fancier
//! structure.

// Kernel and index arithmetic: an `as` cast that can change the value
// (truncate, wrap or drop a sign) must be a `try_from` with a handled error.
#![warn(
    clippy::cast_possible_truncation,
    clippy::cast_possible_wrap,
    clippy::cast_sign_loss
)]

/// A sorted, deduplicated set of graph ids.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct IdSet(Vec<u32>);

impl IdSet {
    /// Empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Singleton set.
    pub fn singleton(id: u32) -> Self {
        IdSet(vec![id])
    }

    /// Insert `id`, keeping sorted order. Returns true if newly inserted.
    pub fn insert(&mut self, id: u32) -> bool {
        match self.0.binary_search(&id) {
            Ok(_) => false,
            Err(pos) => {
                self.0.insert(pos, id);
                true
            }
        }
    }

    /// Membership test.
    pub fn contains(&self, id: u32) -> bool {
        self.0.binary_search(&id).is_ok()
    }

    /// Number of ids.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Iterate ids in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.0.iter().copied()
    }

    /// Set union.
    pub fn union(&self, other: &IdSet) -> IdSet {
        let mut out = Vec::with_capacity(self.0.len() + other.0.len());
        let (mut i, mut j) = (0, 0);
        while i < self.0.len() && j < other.0.len() {
            match self.0[i].cmp(&other.0[j]) {
                std::cmp::Ordering::Less => {
                    out.push(self.0[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(other.0[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push(self.0[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&self.0[i..]);
        out.extend_from_slice(&other.0[j..]);
        IdSet(out)
    }

    /// Ids as a slice.
    pub fn as_slice(&self) -> &[u32] {
        &self.0
    }
}

impl FromIterator<u32> for IdSet {
    fn from_iter<T: IntoIterator<Item = u32>>(iter: T) -> Self {
        let mut v: Vec<u32> = iter.into_iter().collect();
        v.sort_unstable();
        v.dedup();
        IdSet(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_maintains_order_and_dedup() {
        let mut s = IdSet::new();
        assert!(s.insert(5));
        assert!(s.insert(1));
        assert!(!s.insert(5));
        assert_eq!(s.as_slice(), &[1, 5]);
        assert!(s.contains(1));
        assert!(!s.contains(2));
    }

    #[test]
    fn union_merges_sorted() {
        let a: IdSet = [1, 3, 5].into_iter().collect();
        let b: IdSet = [3, 4, 5, 6].into_iter().collect();
        assert_eq!(a.union(&b).as_slice(), &[1, 3, 4, 5, 6]);
    }

    #[test]
    fn from_iter_dedups() {
        let s: IdSet = [2, 2, 1, 1].into_iter().collect();
        assert_eq!(s.as_slice(), &[1, 2]);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn empty_behaviour() {
        let e = IdSet::new();
        assert!(e.is_empty());
        assert_eq!(e.union(&e), e);
    }
}
