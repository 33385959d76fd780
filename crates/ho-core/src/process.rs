//! Process identifiers and sets of processes.
//!
//! The Heard-Of model is defined over a fixed set of processes
//! `Π = {p_1, …, p_n}`. We represent a process as a dense index
//! ([`ProcessId`]) and a subset of `Π` as a bitset ([`ProcessSet`]),
//! which makes the heard-of sets `HO(p, r)` cheap to store, compare and
//! intersect — predicates evaluate millions of them in the benches.

use std::fmt;

/// Maximum number of processes supported by [`ProcessSet`].
///
/// The bitset is backed by a `u128`; the paper's experiments never need more
/// than a few dozen processes.
pub const MAX_PROCESSES: usize = 128;

/// A process identifier: a dense index in `0..n`.
///
/// The paper writes processes as `p, q ∈ Π`; we identify `Π` with
/// `{0, …, n−1}`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcessId(u32);

impl ProcessId {
    /// Creates a process id from a dense index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= MAX_PROCESSES`.
    #[must_use]
    pub fn new(index: usize) -> Self {
        assert!(
            index < MAX_PROCESSES,
            "process index {index} exceeds MAX_PROCESSES ({MAX_PROCESSES})"
        );
        ProcessId(index as u32)
    }

    /// Returns the dense index of this process.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl From<usize> for ProcessId {
    fn from(index: usize) -> Self {
        ProcessId::new(index)
    }
}

/// A subset of the process universe `Π`, stored as a bitset.
///
/// Heard-of sets, kernels, and the synchronous subset `π0` of a good period
/// are all `ProcessSet`s. The universe size `n` is *not* stored; operations
/// that need it (such as [`ProcessSet::complement`]) take it as a parameter.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct ProcessSet {
    bits: u128,
}

impl ProcessSet {
    /// The empty set.
    #[must_use]
    pub const fn empty() -> Self {
        ProcessSet { bits: 0 }
    }

    /// The full set `Π = {0, …, n−1}`.
    ///
    /// # Panics
    ///
    /// Panics if `n > MAX_PROCESSES`.
    #[must_use]
    pub fn full(n: usize) -> Self {
        assert!(n <= MAX_PROCESSES, "n = {n} exceeds MAX_PROCESSES");
        if n == MAX_PROCESSES {
            ProcessSet { bits: u128::MAX }
        } else {
            ProcessSet {
                bits: (1u128 << n) - 1,
            }
        }
    }

    /// The singleton set `{p}`.
    #[must_use]
    pub fn singleton(p: ProcessId) -> Self {
        ProcessSet {
            bits: 1u128 << p.index(),
        }
    }

    /// The set with members `0..64` from the bits of `words[0]` and
    /// `64..128` from `words[1]`, for callers that assemble a row in registers.
    #[must_use]
    pub(crate) fn from_words(words: [u64; 2]) -> Self {
        ProcessSet {
            bits: u128::from(words[0]) | u128::from(words[1]) << 64,
        }
    }

    /// Builds a set from an iterator of process ids.
    // Shadows the `FromIterator` impl below on purpose: call sites read
    // `ProcessSet::from_iter(..)` without needing the trait in scope.
    #[allow(clippy::should_implement_trait)]
    #[must_use]
    pub fn from_iter<I: IntoIterator<Item = ProcessId>>(iter: I) -> Self {
        let mut s = ProcessSet::empty();
        for p in iter {
            s.insert(p);
        }
        s
    }

    /// Builds a set from dense indices.
    #[must_use]
    pub fn from_indices<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        ProcessSet::from_iter(iter.into_iter().map(ProcessId::new))
    }

    /// Returns the set `{0, …, k−1}` of the first `k` processes.
    #[must_use]
    pub fn first(k: usize) -> Self {
        ProcessSet::full(k)
    }

    /// Number of processes in the set.
    #[must_use]
    pub fn len(self) -> usize {
        self.bits.count_ones() as usize
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.bits == 0
    }

    /// Whether `p` is a member.
    #[must_use]
    pub fn contains(self, p: ProcessId) -> bool {
        self.bits & (1u128 << p.index()) != 0
    }

    /// Inserts `p` into the set.
    pub fn insert(&mut self, p: ProcessId) {
        self.bits |= 1u128 << p.index();
    }

    /// Removes `p` from the set.
    pub fn remove(&mut self, p: ProcessId) {
        self.bits &= !(1u128 << p.index());
    }

    /// Set union.
    #[must_use]
    pub fn union(self, other: ProcessSet) -> ProcessSet {
        ProcessSet {
            bits: self.bits | other.bits,
        }
    }

    /// Set intersection.
    #[must_use]
    pub fn intersection(self, other: ProcessSet) -> ProcessSet {
        ProcessSet {
            bits: self.bits & other.bits,
        }
    }

    /// Set difference `self \ other`.
    #[must_use]
    pub fn difference(self, other: ProcessSet) -> ProcessSet {
        ProcessSet {
            bits: self.bits & !other.bits,
        }
    }

    /// Complement with respect to a universe of `n` processes
    /// (the paper's `π̄0 = Π \ π0`).
    #[must_use]
    pub fn complement(self, n: usize) -> ProcessSet {
        ProcessSet::full(n).difference(self)
    }

    /// Whether `self ⊆ other`.
    #[must_use]
    pub fn is_subset(self, other: ProcessSet) -> bool {
        self.bits & !other.bits == 0
    }

    /// Whether `self ⊇ other`.
    #[must_use]
    pub fn is_superset(self, other: ProcessSet) -> bool {
        other.is_subset(self)
    }

    /// Iterates over the members in increasing index order.
    pub fn iter(self) -> impl Iterator<Item = ProcessId> {
        let mut bits = self.bits;
        std::iter::from_fn(move || {
            if bits == 0 {
                None
            } else {
                let i = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(ProcessId::new(i))
            }
        })
    }

    /// The smallest member, if any.
    #[must_use]
    pub fn min(self) -> Option<ProcessId> {
        if self.bits == 0 {
            None
        } else {
            Some(ProcessId::new(self.bits.trailing_zeros() as usize))
        }
    }

    /// Removes the smallest member (no-op on the empty set). One
    /// `bits & (bits − 1)` — cheaper than [`ProcessSet::remove`]'s variable
    /// 128-bit shift, which matters to iteration-style consumers.
    pub fn drop_min(&mut self) {
        self.bits &= self.bits.wrapping_sub(1);
    }
}

impl fmt::Debug for ProcessSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for p in self.iter() {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{p}")?;
            first = false;
        }
        write!(f, "}}")
    }
}

impl FromIterator<ProcessId> for ProcessSet {
    fn from_iter<I: IntoIterator<Item = ProcessId>>(iter: I) -> Self {
        ProcessSet::from_iter(iter)
    }
}

impl IntoIterator for ProcessSet {
    type Item = ProcessId;
    type IntoIter = Box<dyn Iterator<Item = ProcessId>>;

    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singleton_and_contains() {
        let p = ProcessId::new(3);
        let s = ProcessSet::singleton(p);
        assert!(s.contains(p));
        assert!(!s.contains(ProcessId::new(2)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn full_set_has_n_members() {
        for n in [0, 1, 5, 64, 127, 128] {
            let s = ProcessSet::full(n);
            assert_eq!(s.len(), n);
            for i in 0..n {
                assert!(s.contains(ProcessId::new(i)));
            }
        }
    }

    #[test]
    fn union_intersection_difference() {
        let a = ProcessSet::from_indices([0, 1, 2]);
        let b = ProcessSet::from_indices([2, 3]);
        assert_eq!(a.union(b), ProcessSet::from_indices([0, 1, 2, 3]));
        assert_eq!(a.intersection(b), ProcessSet::from_indices([2]));
        assert_eq!(a.difference(b), ProcessSet::from_indices([0, 1]));
    }

    #[test]
    fn complement_respects_universe() {
        let a = ProcessSet::from_indices([0, 2]);
        assert_eq!(a.complement(4), ProcessSet::from_indices([1, 3]));
    }

    #[test]
    fn subset_superset() {
        let a = ProcessSet::from_indices([1, 2]);
        let b = ProcessSet::from_indices([0, 1, 2, 3]);
        assert!(a.is_subset(b));
        assert!(b.is_superset(a));
        assert!(!b.is_subset(a));
        assert!(ProcessSet::empty().is_subset(a));
    }

    #[test]
    fn iter_in_order() {
        let a = ProcessSet::from_indices([5, 1, 9]);
        let v: Vec<usize> = a.iter().map(ProcessId::index).collect();
        assert_eq!(v, vec![1, 5, 9]);
    }

    #[test]
    fn min_member() {
        assert_eq!(ProcessSet::empty().min(), None);
        assert_eq!(
            ProcessSet::from_indices([7, 3]).min(),
            Some(ProcessId::new(3))
        );
    }

    #[test]
    fn insert_remove_roundtrip() {
        let mut s = ProcessSet::empty();
        s.insert(ProcessId::new(10));
        assert!(s.contains(ProcessId::new(10)));
        s.remove(ProcessId::new(10));
        assert!(s.is_empty());
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_PROCESSES")]
    fn process_id_bound_checked() {
        let _ = ProcessId::new(MAX_PROCESSES);
    }

    #[test]
    fn debug_format() {
        let s = ProcessSet::from_indices([0, 2]);
        assert_eq!(format!("{s:?}"), "{p0,p2}");
    }
}
