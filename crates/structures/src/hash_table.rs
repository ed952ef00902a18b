//! `HashTable`: a map implemented as a separately chained hash table.

use semcommute_logic::ElemId;
use semcommute_spec::AbstractState;

use crate::stripe::{bucket_of, part_shift};
use crate::traits::{require_non_null, Abstraction, MapInterface};

/// A node in a bucket chain holding one key/value pair.
#[derive(Debug, Clone)]
struct Node {
    key: ElemId,
    value: ElemId,
    next: Option<Box<Node>>,
}

const INITIAL_BUCKETS: usize = 8;
const MAX_LOAD_NUMERATOR: usize = 3;
const MAX_LOAD_DENOMINATOR: usize = 4;

/// A map from objects to objects implemented with a separately chained hash
/// table — the paper's `HashTable`: an array of linked lists of key/value
/// pairs, with a hash function mapping keys to lists via the array.
///
/// # Example
///
/// ```
/// use semcommute_logic::ElemId;
/// use semcommute_structures::{HashTable, MapInterface};
/// let mut m = HashTable::new();
/// for i in 1..=50 {
///     m.put(ElemId(i), ElemId(i + 100));
/// }
/// assert_eq!(m.get(ElemId(7)), Some(ElemId(107)));
/// assert_eq!(m.remove(ElemId(7)), Some(ElemId(107)));
/// assert_eq!(m.size(), 49);
/// ```
#[derive(Debug, Clone)]
pub struct HashTable {
    table: Vec<Option<Box<Node>>>,
    /// The pair count. `None` in a part of a [split](HashTable::split)
    /// table until its first growth check or [`count`](HashTable::count)
    /// takes it: the split moves chains without visiting a node.
    size: Option<usize>,
    /// The hash bits below the bucket index: 0 for a whole table; a part of
    /// a split table indexes by the bits above its stripe.
    shift: u32,
}

impl HashTable {
    /// Creates an empty map.
    pub fn new() -> HashTable {
        HashTable::with_capacity(INITIAL_BUCKETS)
    }

    /// Creates an empty map with at least `capacity` buckets.
    pub fn with_capacity(capacity: usize) -> HashTable {
        let buckets = capacity.next_power_of_two().max(INITIAL_BUCKETS);
        HashTable {
            table: (0..buckets).map(|_| None).collect(),
            size: Some(0),
            shift: 0,
        }
    }

    /// Returns `true` if the map is empty.
    pub fn is_empty(&self) -> bool {
        self.size() == 0
    }

    /// The number of buckets currently allocated.
    pub fn buckets(&self) -> usize {
        self.table.len()
    }

    /// Iterates over `(key, value)` pairs in bucket/chain order.
    pub fn iter(&self) -> impl Iterator<Item = (ElemId, ElemId)> + '_ {
        self.table
            .iter()
            .flat_map(|chain| nodes(chain).map(|node| (node.key, node.value)))
    }

    /// The pair count, taken and kept the first time a part of a split
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

    /// Splits the map into `1 << bits` maps, part `i` holding the pairs
    /// whose key falls in [stripe](crate::stripe) `i`. When the table has
    /// at least that many buckets, whole bucket chains move and no node is
    /// visited, so each part's pair count is left to its first
    /// [`count`](HashTable::count) or insertion; a smaller table relinks its
    /// nodes one by one.
    pub fn split(self, bits: u32) -> Vec<HashTable> {
        let parts = 1usize << bits;
        let shift = part_shift(self.shift, bits);
        if self.table.len() < parts {
            let mut out: Vec<HashTable> = (0..parts)
                .map(|_| HashTable {
                    table: vec![None],
                    size: Some(0),
                    shift,
                })
                .collect();
            for chain in self.table {
                let mut cursor = chain;
                while let Some(mut node) = cursor {
                    cursor = node.next.take();
                    let part = &mut out[bucket_of(node.key, parts, self.shift)];
                    let idx = bucket_of(node.key, part.table.len(), shift);
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
            .map(|table| HashTable { table, size, shift })
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
                let idx = bucket_of(node.key, new_buckets, self.shift);
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

impl Default for HashTable {
    fn default() -> Self {
        HashTable::new()
    }
}

impl MapInterface for HashTable {
    fn contains_key(&self, k: ElemId) -> bool {
        require_non_null(k, "key");
        let idx = bucket_of(k, self.table.len(), self.shift);
        let mut cursor = self.table[idx].as_deref();
        while let Some(node) = cursor {
            if node.key == k {
                return true;
            }
            cursor = node.next.as_deref();
        }
        false
    }

    fn get(&self, k: ElemId) -> Option<ElemId> {
        require_non_null(k, "key");
        let idx = bucket_of(k, self.table.len(), self.shift);
        let mut cursor = self.table[idx].as_deref();
        while let Some(node) = cursor {
            if node.key == k {
                return Some(node.value);
            }
            cursor = node.next.as_deref();
        }
        None
    }

    fn put(&mut self, k: ElemId, v: ElemId) -> Option<ElemId> {
        require_non_null(k, "key");
        require_non_null(v, "value");
        let idx = bucket_of(k, self.table.len(), self.shift);
        let mut cursor = self.table[idx].as_deref_mut();
        while let Some(node) = cursor {
            if node.key == k {
                let previous = node.value;
                node.value = v;
                return Some(previous);
            }
            cursor = node.next.as_deref_mut();
        }
        if self.should_grow() {
            self.grow();
        }
        let idx = bucket_of(k, self.table.len(), self.shift);
        let node = Box::new(Node {
            key: k,
            value: v,
            next: self.table[idx].take(),
        });
        self.table[idx] = Some(node);
        if let Some(size) = &mut self.size {
            *size += 1;
        }
        None
    }

    fn remove(&mut self, k: ElemId) -> Option<ElemId> {
        require_non_null(k, "key");
        let idx = bucket_of(k, self.table.len(), self.shift);
        let mut cursor = &mut self.table[idx];
        loop {
            match cursor {
                None => return None,
                Some(node) if node.key == k => {
                    let previous = node.value;
                    let next = node.next.take();
                    *cursor = next;
                    if let Some(size) = &mut self.size {
                        *size -= 1;
                    }
                    return Some(previous);
                }
                Some(node) => cursor = &mut node.next,
            }
        }
    }

    /// The pair count; a part of a split table whose count has not been
    /// taken walks its chains (see [`HashTable::count`]).
    fn size(&self) -> usize {
        self.size.unwrap_or_else(|| chain_lengths(&self.table))
    }
}

impl Abstraction for HashTable {
    fn abstract_state(&self) -> AbstractState {
        AbstractState::Map(self.iter().collect())
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
                if node.key.is_null() || node.value.is_null() {
                    return Err("hash chain stores a null key or value".to_string());
                }
                if bucket_of(node.key, self.table.len(), self.shift) != idx {
                    return Err(format!("key {} is in the wrong bucket", node.key));
                }
                if !seen.insert(node.key) {
                    return Err(format!("duplicate key {} in the table", node.key));
                }
                count += 1;
                cursor = node.next.as_deref();
            }
        }
        match self.size {
            Some(size) if size != count => Err(format!(
                "size field is {size} but the table holds {count} pairs"
            )),
            _ => Ok(()),
        }
    }
}

impl FromIterator<(ElemId, ElemId)> for HashTable {
    fn from_iter<T: IntoIterator<Item = (ElemId, ElemId)>>(iter: T) -> Self {
        let mut m = HashTable::new();
        for (k, v) in iter {
            m.put(k, v);
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_remove_contains_size() {
        let mut m = HashTable::new();
        assert_eq!(m.put(ElemId(1), ElemId(10)), None);
        assert_eq!(m.put(ElemId(1), ElemId(11)), Some(ElemId(10)));
        assert_eq!(m.put(ElemId(2), ElemId(20)), None);
        assert_eq!(m.size(), 2);
        assert_eq!(m.get(ElemId(1)), Some(ElemId(11)));
        assert!(m.contains_key(ElemId(2)));
        assert_eq!(m.remove(ElemId(2)), Some(ElemId(20)));
        assert_eq!(m.remove(ElemId(2)), None);
        assert_eq!(m.size(), 1);
        assert!(m.check_invariants().is_ok());
    }

    #[test]
    fn grows_and_rehashes_preserving_mappings() {
        let mut m = HashTable::new();
        let initial = m.buckets();
        for i in 1..=200u32 {
            m.put(ElemId(i), ElemId(i + 1000));
        }
        assert!(m.buckets() > initial);
        for i in 1..=200u32 {
            assert_eq!(m.get(ElemId(i)), Some(ElemId(i + 1000)));
        }
        assert_eq!(m.size(), 200);
        assert!(m.check_invariants().is_ok());
    }

    #[test]
    fn abstract_state_matches_association_list() {
        use crate::assoc_list::AssociationList;
        let pairs = [
            (ElemId(3), ElemId(30)),
            (ElemId(11), ElemId(110)),
            (ElemId(3), ElemId(31)),
        ];
        let ht: HashTable = pairs.into_iter().collect();
        let al: AssociationList = pairs.into_iter().collect();
        assert_eq!(ht.abstract_state(), al.abstract_state());
    }

    #[test]
    fn put_overwrite_does_not_change_size() {
        let mut m = HashTable::with_capacity(64);
        m.put(ElemId(5), ElemId(50));
        m.put(ElemId(5), ElemId(51));
        m.put(ElemId(5), ElemId(52));
        assert_eq!(m.size(), 1);
        assert_eq!(m.get(ElemId(5)), Some(ElemId(52)));
    }

    #[test]
    #[should_panic(expected = "key must not be null")]
    fn null_key_panics() {
        HashTable::new().contains_key(semcommute_logic::NULL_ELEM);
    }

    #[test]
    fn colliding_keys_share_a_bucket_chain() {
        let mut m = HashTable::new();
        let b = m.buckets() as u32;
        let keys = [ElemId(2), ElemId(2 + b), ElemId(2 + 2 * b)];
        for (i, k) in keys.iter().enumerate() {
            m.put(*k, ElemId(100 + i as u32));
        }
        assert_eq!(m.get(keys[0]), Some(ElemId(100)));
        assert_eq!(m.get(keys[1]), Some(ElemId(101)));
        assert_eq!(m.get(keys[2]), Some(ElemId(102)));
        assert_eq!(m.remove(keys[1]), Some(ElemId(101)));
        assert_eq!(m.get(keys[0]), Some(ElemId(100)));
        assert_eq!(m.get(keys[2]), Some(ElemId(102)));
        assert!(m.check_invariants().is_ok());
    }
}
