//! `ListSet`: a set implemented as a singly-linked list.

use semcommute_logic::ElemId;
use semcommute_spec::AbstractState;

use crate::stripe::stripe_of;
use crate::traits::{require_non_null, Abstraction, SetInterface};

/// A node of the singly-linked list.
#[derive(Debug, Clone)]
struct Node {
    elem: ElemId,
    next: Option<Box<Node>>,
}

/// A set of objects implemented as a singly-linked list, as in the paper.
///
/// New elements are inserted at the head of the list, so two `ListSet`s built
/// by adding the same elements in different orders have *different concrete
/// states* (different list orders) but the *same abstract state* (the same
/// set). This is exactly the situation that motivates semantic (abstract
/// state) commutativity reasoning instead of concrete-state reasoning
/// (Section 1.1 of the paper).
///
/// # Example
///
/// ```
/// use semcommute_logic::ElemId;
/// use semcommute_structures::{ListSet, SetInterface};
/// let mut s = ListSet::new();
/// assert!(s.add(ElemId(1)));
/// assert!(!s.add(ElemId(1)));
/// assert!(s.contains(ElemId(1)));
/// assert_eq!(s.size(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ListSet {
    head: Option<Box<Node>>,
    size: usize,
}

impl ListSet {
    /// Creates an empty set.
    pub fn new() -> ListSet {
        ListSet {
            head: None,
            size: 0,
        }
    }

    /// Iterates over the elements in list (insertion-dependent) order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            node: self.head.as_deref(),
        }
    }

    /// Returns `true` if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.size == 0
    }

    /// Splits the set into `1 << bits` sets, part `i` holding the elements
    /// of [stripe](crate::stripe) `i`, by relinking every node.
    pub fn split(self, bits: u32) -> Vec<ListSet> {
        let mut parts: Vec<ListSet> = (0..1 << bits).map(|_| ListSet::new()).collect();
        let mut cursor = self.head;
        while let Some(mut node) = cursor {
            cursor = node.next.take();
            let part = &mut parts[stripe_of(node.elem, bits)];
            node.next = part.head.take();
            part.head = Some(node);
            part.size += 1;
        }
        parts
    }
}

/// Iterator over the elements of a [`ListSet`] in concrete list order.
pub struct Iter<'a> {
    node: Option<&'a Node>,
}

impl Iterator for Iter<'_> {
    type Item = ElemId;

    fn next(&mut self) -> Option<ElemId> {
        let node = self.node?;
        self.node = node.next.as_deref();
        Some(node.elem)
    }
}

impl SetInterface for ListSet {
    fn add(&mut self, v: ElemId) -> bool {
        require_non_null(v, "element");
        if self.contains(v) {
            return false;
        }
        let new_node = Box::new(Node {
            elem: v,
            next: self.head.take(),
        });
        self.head = Some(new_node);
        self.size += 1;
        true
    }

    fn contains(&self, v: ElemId) -> bool {
        require_non_null(v, "element");
        let mut cursor = self.head.as_deref();
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
        let mut cursor = &mut self.head;
        loop {
            match cursor {
                None => return false,
                Some(node) if node.elem == v => {
                    let next = node.next.take();
                    *cursor = next;
                    self.size -= 1;
                    return true;
                }
                Some(node) => {
                    cursor = &mut node.next;
                }
            }
        }
    }

    fn size(&self) -> usize {
        self.size
    }
}

impl Abstraction for ListSet {
    fn abstract_state(&self) -> AbstractState {
        AbstractState::Set(self.iter().collect())
    }

    fn check_invariants(&self) -> Result<(), String> {
        let mut seen = std::collections::BTreeSet::new();
        let mut count = 0usize;
        for elem in self.iter() {
            if elem.is_null() {
                return Err("list node stores the null element".to_string());
            }
            if !seen.insert(elem) {
                return Err(format!("duplicate element {elem} in the list"));
            }
            count += 1;
            if count > self.size {
                return Err("list is longer than the recorded size".to_string());
            }
        }
        if count != self.size {
            return Err(format!(
                "size field is {} but the list holds {count} elements",
                self.size
            ));
        }
        Ok(())
    }
}

impl FromIterator<ElemId> for ListSet {
    fn from_iter<T: IntoIterator<Item = ElemId>>(iter: T) -> Self {
        let mut s = ListSet::new();
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
        let mut s = ListSet::new();
        assert!(s.is_empty());
        assert!(s.add(ElemId(1)));
        assert!(s.add(ElemId(2)));
        assert!(!s.add(ElemId(1)));
        assert_eq!(s.size(), 2);
        assert!(s.contains(ElemId(1)));
        assert!(!s.contains(ElemId(3)));
        assert!(s.remove(ElemId(1)));
        assert!(!s.remove(ElemId(1)));
        assert_eq!(s.size(), 1);
        assert!(s.check_invariants().is_ok());
    }

    #[test]
    fn different_insertion_orders_same_abstract_state() {
        let a: ListSet = [ElemId(1), ElemId(2), ElemId(3)].into_iter().collect();
        let b: ListSet = [ElemId(3), ElemId(1), ElemId(2)].into_iter().collect();
        // Concrete orders differ…
        assert_ne!(a.iter().collect::<Vec<_>>(), b.iter().collect::<Vec<_>>());
        // …but the abstract states coincide.
        assert_eq!(a.abstract_state(), b.abstract_state());
    }

    #[test]
    fn remove_relinks_interior_and_head_nodes() {
        let mut s: ListSet = [ElemId(1), ElemId(2), ElemId(3)].into_iter().collect();
        assert!(s.remove(ElemId(2))); // interior (middle of list)
        assert!(s.remove(ElemId(3))); // current head (last inserted)
        assert_eq!(s.size(), 1);
        assert!(s.contains(ElemId(1)));
        assert!(s.check_invariants().is_ok());
    }

    #[test]
    #[should_panic(expected = "must not be null")]
    fn null_argument_panics() {
        let mut s = ListSet::new();
        s.add(semcommute_logic::NULL_ELEM);
    }

    #[test]
    fn abstraction_matches_contents() {
        let s: ListSet = [ElemId(5), ElemId(7)].into_iter().collect();
        assert_eq!(
            s.abstract_state(),
            AbstractState::Set([ElemId(5), ElemId(7)].into_iter().collect())
        );
    }
}
