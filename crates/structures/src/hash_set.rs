//! `HashSet`: a set implemented as a separately chained hash table.

use semcommute_logic::ElemId;
use semcommute_spec::AbstractState;

use crate::stripe::{bucket_of, part_shift};
use crate::traits::{require_non_null, Abstraction, SetInterface};

/// A node in a bucket chain.
#[derive(Debug, Clone)]
struct Node {
    elem: ElemId,
    next: Option<Box<Node>>,
}

/// A set of objects implemented with a separately chained hash table, as in
/// Figure 2-1 of the paper: an array of linked lists plus a size field.
///
/// Like [`crate::ListSet`], two `HashSet`s holding the same elements can have
/// different concrete states (different table sizes, different chain orders)
/// while having the same abstract state; the commutativity conditions are
/// stated over the abstract set and therefore apply to both.
///
/// # Example
///
/// ```
/// use semcommute_logic::ElemId;
/// use semcommute_structures::{HashSet, SetInterface};
/// let mut s = HashSet::new();
/// for i in 1..=100 {
///     assert!(s.add(ElemId(i)));
/// }
/// assert_eq!(s.size(), 100);
/// assert!(s.remove(ElemId(40)));
/// assert!(!s.contains(ElemId(40)));
/// ```
#[derive(Debug, Clone)]
pub struct HashSet {
    table: Vec<Option<Box<Node>>>,
    /// The element count. `None` in a part of a [split](HashSet::split)
    /// table until its first growth check or [`count`](HashSet::count)
    /// takes it: the split moves chains without visiting a node.
    size: Option<usize>,
    /// The hash bits below the bucket index: 0 for a whole table; a part of
    /// a split table indexes by the bits above its stripe.
    shift: u32,
}

const INITIAL_BUCKETS: usize = 8;
/// The chain length / bucket ratio above which the table grows.
const MAX_LOAD_NUMERATOR: usize = 3;
const MAX_LOAD_DENOMINATOR: usize = 4;

impl HashSet {
    /// Creates an empty set.
    pub fn new() -> HashSet {
        HashSet::with_capacity(INITIAL_BUCKETS)
    }

    /// Creates an empty set with at least `capacity` buckets.
    pub fn with_capacity(capacity: usize) -> HashSet {
        let buckets = capacity.next_power_of_two().max(INITIAL_BUCKETS);
        HashSet {
            table: (0..buckets).map(|_| None).collect(),
            size: Some(0),
            shift: 0,
        }
    }

    /// Returns `true` if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.size() == 0
    }

    /// The number of buckets currently allocated (exposed for tests and the
    /// resize benchmarks).
    pub fn buckets(&self) -> usize {
        self.table.len()
    }

    /// Iterates over the elements in bucket/chain order.
    pub fn iter(&self) -> impl Iterator<Item = ElemId> + '_ {
        self.table
            .iter()
            .flat_map(|chain| nodes(chain).map(|node| node.elem))
    }

    /// The element count, taken and kept the first time a part of a split
    /// table is asked (a walk of its chains); a plain field read after that.
    pub fn count(&mut self) -> usize {
        match self.size {
            Some(size) => size,
            None => {
                let size = chain_lengths(&self.table);
                self.size = Some(size);
                size
            }
        }
    }

    /// Splits the set into `1 << bits` sets, part `i` holding the elements
    /// of [stripe](crate::stripe) `i`. When the table has at least that
    /// many buckets, whole bucket chains move and no node is visited, so
    /// each part's element count is left to its first
    /// [`count`](HashSet::count) or insertion; a smaller table relinks its
    /// nodes one by one.
    pub fn split(self, bits: u32) -> Vec<HashSet> {
        let parts = 1usize << bits;
        let shift = part_shift(self.shift, bits);
        if self.table.len() < parts {
            let mut out: Vec<HashSet> = (0..parts)
                .map(|_| HashSet {
                    table: vec![None],
                    size: Some(0),
                    shift,
                })
                .collect();
            for chain in self.table {
                let mut cursor = chain;
                while let Some(mut node) = cursor {
                    cursor = node.next.take();
                    let part = &mut out[bucket_of(node.elem, parts, self.shift)];
                    let idx = bucket_of(node.elem, part.table.len(), shift);
                    node.next = part.table[idx].take();
                    part.table[idx] = Some(node);
                    *part.size.as_mut().expect("counted") += 1;
                }
            }
            return out;
        }
        let size = self.size.filter(|&size| size == 0);
        let mut tables: Vec<Vec<Option<Box<Node>>>> = (0..parts)
            .map(|_| Vec::with_capacity(self.table.len() / parts))
            .collect();
        for (idx, chain) in self.table.into_iter().enumerate() {
            tables[idx & (parts - 1)].push(chain);
        }
        tables
            .into_iter()
            .map(|table| HashSet { table, size, shift })
            .collect()
    }

    fn should_grow(&mut self) -> bool {
        self.count() * MAX_LOAD_DENOMINATOR >= self.table.len() * MAX_LOAD_NUMERATOR
    }

    fn grow(&mut self) {
        let new_buckets = self.table.len() * 2;
        let mut new_table: Vec<Option<Box<Node>>> = (0..new_buckets).map(|_| None).collect();
        let old_table = std::mem::take(&mut self.table);
        for bucket in old_table {
            let mut cursor = bucket;
            while let Some(mut node) = cursor {
                cursor = node.next.take();
                let idx = bucket_of(node.elem, new_buckets, self.shift);
                node.next = new_table[idx].take();
                new_table[idx] = Some(node);
            }
        }
        self.table = new_table;
    }
}

/// The nodes of one bucket chain.
fn nodes(chain: &Option<Box<Node>>) -> impl Iterator<Item = &Node> {
    std::iter::successors(chain.as_deref(), |node| node.next.as_deref())
}

/// The number of nodes in the table's chains.
fn chain_lengths(table: &[Option<Box<Node>>]) -> usize {
    table.iter().map(|chain| nodes(chain).count()).sum()
}

impl Default for HashSet {
    fn default() -> Self {
        HashSet::new()
    }
}

impl SetInterface for HashSet {
    fn add(&mut self, v: ElemId) -> bool {
        require_non_null(v, "element");
        if self.contains(v) {
            return false;
        }
        if self.should_grow() {
            self.grow();
        }
        let idx = bucket_of(v, self.table.len(), self.shift);
        let node = Box::new(Node {
            elem: v,
            next: self.table[idx].take(),
        });
        self.table[idx] = Some(node);
        if let Some(size) = &mut self.size {
            *size += 1;
        }
        true
    }

    fn contains(&self, v: ElemId) -> bool {
        require_non_null(v, "element");
        let idx = bucket_of(v, self.table.len(), self.shift);
        let mut cursor = self.table[idx].as_deref();
        while let Some(node) = cursor {
            if node.elem == v {
                return true;
            }
            cursor = node.next.as_deref();
        }
        false
    }

    fn remove(&mut self, v: ElemId) -> bool {
        require_non_null(v, "element");
        let idx = bucket_of(v, self.table.len(), self.shift);
        let mut cursor = &mut self.table[idx];
        loop {
            match cursor {
                None => return false,
                Some(node) if node.elem == v => {
                    let next = node.next.take();
                    *cursor = next;
                    if let Some(size) = &mut self.size {
                        *size -= 1;
                    }
                    return true;
                }
                Some(node) => cursor = &mut node.next,
            }
        }
    }

    /// The element count; a part of a split table whose count has not
    /// been taken walks its chains (see [`HashSet::count`]).
    fn size(&self) -> usize {
        self.size.unwrap_or_else(|| chain_lengths(&self.table))
    }
}

impl Abstraction for HashSet {
    fn abstract_state(&self) -> AbstractState {
        AbstractState::Set(self.iter().collect())
    }

    fn check_invariants(&self) -> Result<(), String> {
        if !self.table.len().is_power_of_two() {
            return Err("bucket count is not a power of two".to_string());
        }
        let mut seen = std::collections::BTreeSet::new();
        let mut count = 0usize;
        for (idx, bucket) in self.table.iter().enumerate() {
            let mut cursor = bucket.as_deref();
            while let Some(node) = cursor {
                if node.elem.is_null() {
                    return Err("hash chain stores the null element".to_string());
                }
                if bucket_of(node.elem, self.table.len(), self.shift) != idx {
                    return Err(format!("element {} is in the wrong bucket", node.elem));
                }
                if !seen.insert(node.elem) {
                    return Err(format!("duplicate element {} in the table", node.elem));
                }
                count += 1;
                cursor = node.next.as_deref();
            }
        }
        match self.size {
            Some(size) if size != count => Err(format!(
                "size field is {size} but the table holds {count} elements"
            )),
            _ => Ok(()),
        }
    }
}

impl FromIterator<ElemId> for HashSet {
    fn from_iter<T: IntoIterator<Item = ElemId>>(iter: T) -> Self {
        let mut s = HashSet::new();
        for e in iter {
            s.add(e);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_contains_remove_size() {
        let mut s = HashSet::new();
        assert!(s.add(ElemId(1)));
        assert!(!s.add(ElemId(1)));
        assert!(s.add(ElemId(2)));
        assert_eq!(s.size(), 2);
        assert!(s.contains(ElemId(2)));
        assert!(s.remove(ElemId(2)));
        assert!(!s.remove(ElemId(2)));
        assert!(!s.contains(ElemId(2)));
        assert_eq!(s.size(), 1);
        assert!(s.check_invariants().is_ok());
    }

    #[test]
    fn grows_and_rehashes_preserving_contents() {
        let mut s = HashSet::new();
        let initial_buckets = s.buckets();
        for i in 1..=200u32 {
            assert!(s.add(ElemId(i)));
        }
        assert!(s.buckets() > initial_buckets);
        assert_eq!(s.size(), 200);
        for i in 1..=200u32 {
            assert!(s.contains(ElemId(i)), "lost element {i} after rehashing");
        }
        assert!(s.check_invariants().is_ok());
    }

    #[test]
    fn abstract_state_matches_listset_for_same_elements() {
        use crate::list_set::ListSet;
        let elems = [ElemId(3), ElemId(11), ElemId(19), ElemId(3)];
        let hs: HashSet = elems.into_iter().collect();
        let ls: ListSet = elems.into_iter().collect();
        assert_eq!(hs.abstract_state(), ls.abstract_state());
    }

    #[test]
    fn with_capacity_preallocates() {
        let s = HashSet::with_capacity(100);
        assert!(s.buckets() >= 100);
        assert!(s.is_empty());
    }

    #[test]
    #[should_panic(expected = "must not be null")]
    fn null_argument_panics() {
        HashSet::new().contains(semcommute_logic::NULL_ELEM);
    }

    #[test]
    fn colliding_elements_share_a_bucket_chain() {
        // Elements whose ids differ by a multiple of the bucket count collide
        // in the initial table.
        let mut s = HashSet::new();
        let b = s.buckets() as u32;
        let colliding = [ElemId(1), ElemId(1 + b), ElemId(1 + 2 * b)];
        for e in colliding {
            assert!(s.add(e));
        }
        for e in colliding {
            assert!(s.contains(e));
        }
        assert!(s.remove(colliding[1]));
        assert!(s.contains(colliding[0]) && s.contains(colliding[2]));
        assert!(s.check_invariants().is_ok());
    }
}
