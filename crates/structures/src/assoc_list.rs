//! `AssociationList`: a map implemented as a singly-linked list of pairs.

use semcommute_logic::ElemId;
use semcommute_spec::AbstractState;

use crate::stripe::stripe_of;
use crate::traits::{require_non_null, Abstraction, MapInterface};

/// A node holding one key/value pair.
#[derive(Debug, Clone)]
struct Node {
    key: ElemId,
    value: ElemId,
    next: Option<Box<Node>>,
}

/// A map from objects to objects implemented as a singly-linked list of
/// key/value pairs, as in the paper.
///
/// New mappings are inserted at the head, so concrete pair order depends on
/// the insertion order even though the abstract map does not — the map
/// analog of the motivating example for semantic commutativity.
///
/// # Example
///
/// ```
/// use semcommute_logic::ElemId;
/// use semcommute_structures::{AssociationList, MapInterface};
/// let mut m = AssociationList::new();
/// assert_eq!(m.put(ElemId(1), ElemId(10)), None);
/// assert_eq!(m.put(ElemId(1), ElemId(20)), Some(ElemId(10)));
/// assert_eq!(m.get(ElemId(1)), Some(ElemId(20)));
/// assert_eq!(m.remove(ElemId(1)), Some(ElemId(20)));
/// assert_eq!(m.size(), 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct AssociationList {
    head: Option<Box<Node>>,
    size: usize,
}

impl AssociationList {
    /// Creates an empty map.
    pub fn new() -> AssociationList {
        AssociationList {
            head: None,
            size: 0,
        }
    }

    /// Returns `true` if the map is empty.
    pub fn is_empty(&self) -> bool {
        self.size == 0
    }

    /// Iterates over `(key, value)` pairs in concrete list order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            node: self.head.as_deref(),
        }
    }

    /// Splits the map into `1 << bits` maps, part `i` holding the pairs
    /// whose key falls in [stripe](crate::stripe) `i`, by relinking every
    /// node.
    pub fn split(self, bits: u32) -> Vec<AssociationList> {
        let mut parts: Vec<AssociationList> =
            (0..1 << bits).map(|_| AssociationList::new()).collect();
        let mut cursor = self.head;
        while let Some(mut node) = cursor {
            cursor = node.next.take();
            let part = &mut parts[stripe_of(node.key, bits)];
            node.next = part.head.take();
            part.head = Some(node);
            part.size += 1;
        }
        parts
    }
}

/// Iterator over the pairs of an [`AssociationList`] in concrete list order.
pub struct Iter<'a> {
    node: Option<&'a Node>,
}

impl Iterator for Iter<'_> {
    type Item = (ElemId, ElemId);

    fn next(&mut self) -> Option<(ElemId, ElemId)> {
        let node = self.node?;
        self.node = node.next.as_deref();
        Some((node.key, node.value))
    }
}

impl MapInterface for AssociationList {
    fn contains_key(&self, k: ElemId) -> bool {
        require_non_null(k, "key");
        self.iter().any(|(key, _)| key == k)
    }

    fn get(&self, k: ElemId) -> Option<ElemId> {
        require_non_null(k, "key");
        self.iter().find(|(key, _)| *key == k).map(|(_, v)| v)
    }

    fn put(&mut self, k: ElemId, v: ElemId) -> Option<ElemId> {
        require_non_null(k, "key");
        require_non_null(v, "value");
        // Update in place when the key already exists.
        let mut cursor = self.head.as_deref_mut();
        while let Some(node) = cursor {
            if node.key == k {
                let previous = node.value;
                node.value = v;
                return Some(previous);
            }
            cursor = node.next.as_deref_mut();
        }
        let node = Box::new(Node {
            key: k,
            value: v,
            next: self.head.take(),
        });
        self.head = Some(node);
        self.size += 1;
        None
    }

    fn remove(&mut self, k: ElemId) -> Option<ElemId> {
        require_non_null(k, "key");
        let mut cursor = &mut self.head;
        loop {
            match cursor {
                None => return None,
                Some(node) if node.key == k => {
                    let previous = node.value;
                    let next = node.next.take();
                    *cursor = next;
                    self.size -= 1;
                    return Some(previous);
                }
                Some(node) => cursor = &mut node.next,
            }
        }
    }

    fn size(&self) -> usize {
        self.size
    }
}

impl Abstraction for AssociationList {
    fn abstract_state(&self) -> AbstractState {
        AbstractState::Map(self.iter().collect())
    }

    fn check_invariants(&self) -> Result<(), String> {
        let mut seen = std::collections::BTreeSet::new();
        let mut count = 0usize;
        for (k, v) in self.iter() {
            if k.is_null() || v.is_null() {
                return Err("list node stores a null key or value".to_string());
            }
            if !seen.insert(k) {
                return Err(format!("duplicate key {k} in the list"));
            }
            count += 1;
        }
        if count != self.size {
            return Err(format!(
                "size field is {} but the list holds {count} pairs",
                self.size
            ));
        }
        Ok(())
    }
}

impl FromIterator<(ElemId, ElemId)> for AssociationList {
    fn from_iter<T: IntoIterator<Item = (ElemId, ElemId)>>(iter: T) -> Self {
        let mut m = AssociationList::new();
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
        let mut m = AssociationList::new();
        assert!(m.is_empty());
        assert_eq!(m.put(ElemId(1), ElemId(10)), None);
        assert_eq!(m.put(ElemId(2), ElemId(20)), None);
        assert_eq!(m.put(ElemId(1), ElemId(11)), Some(ElemId(10)));
        assert_eq!(m.size(), 2);
        assert_eq!(m.get(ElemId(1)), Some(ElemId(11)));
        assert_eq!(m.get(ElemId(3)), None);
        assert!(m.contains_key(ElemId(2)));
        assert!(!m.contains_key(ElemId(3)));
        assert_eq!(m.remove(ElemId(1)), Some(ElemId(11)));
        assert_eq!(m.remove(ElemId(1)), None);
        assert_eq!(m.size(), 1);
        assert!(m.check_invariants().is_ok());
    }

    #[test]
    fn different_insertion_orders_same_abstract_state() {
        let a: AssociationList = [(ElemId(1), ElemId(10)), (ElemId(2), ElemId(20))]
            .into_iter()
            .collect();
        let b: AssociationList = [(ElemId(2), ElemId(20)), (ElemId(1), ElemId(10))]
            .into_iter()
            .collect();
        assert_ne!(a.iter().collect::<Vec<_>>(), b.iter().collect::<Vec<_>>());
        assert_eq!(a.abstract_state(), b.abstract_state());
    }

    #[test]
    fn remove_interior_node_keeps_remaining_pairs() {
        let mut m: AssociationList = [
            (ElemId(1), ElemId(10)),
            (ElemId(2), ElemId(20)),
            (ElemId(3), ElemId(30)),
        ]
        .into_iter()
        .collect();
        assert_eq!(m.remove(ElemId(2)), Some(ElemId(20)));
        assert_eq!(m.get(ElemId(1)), Some(ElemId(10)));
        assert_eq!(m.get(ElemId(3)), Some(ElemId(30)));
        assert!(m.check_invariants().is_ok());
    }

    #[test]
    #[should_panic(expected = "value must not be null")]
    fn null_value_panics() {
        AssociationList::new().put(ElemId(1), semcommute_logic::NULL_ELEM);
    }

    #[test]
    #[should_panic(expected = "key must not be null")]
    fn null_key_panics() {
        AssociationList::new().get(semcommute_logic::NULL_ELEM);
    }
}
