//! Cheaply-clonable collection payloads for [`Value`].
//!
//! The finite-model prover evaluates the same obligation under millions of
//! candidate models, and the speculative runtime snapshots its ArrayList
//! mirror once per pre-state-reading operation. Both *clone* collections far
//! more often than they update them, so every handle here is one pointer
//! wide, `clone` is an O(1) reference-count increment, and an empty
//! collection is a null handle that allocates nothing.
//!
//! Every collection is one **flat array** behind a shared `Arc<Vec<_>>`:
//! [`PSet`] and [`PMap`] keep their entries sorted and deduplicated (by key,
//! for maps) and binary-search them; [`PSeq`] keeps its elements in position
//! order. An update edits the array in place when the handle is uniquely
//! owned and copies it once, O(n), when it is shared. The prover's
//! collections hold at most a handful of entries (`Scope::standard` allows
//! 4), the callers that build large sets and maps (the spec interpreter, the
//! runtime's abstraction function) convert a whole eager collection per
//! call anyway, and the one large sequence, the runtime's ArrayList mirror,
//! pays the same O(n) per positional update that the concrete `ArrayList`'s
//! shift already does.
//!
//! `Eq`, `Ord`, `Hash`, `Debug` and iteration order are exactly those of the
//! eager `BTreeSet` / `BTreeMap` / `Vec` (the property tests pin
//! hash-for-hash agreement). `to_inner` materializes the eager collection
//! for callers that need one.
//!
//! The payload is `Arc<Vec<_>>`, not `Arc<[_]>`: a slice pointer is
//! two words wide and would grow every [`Value`] (every register and lane
//! of the prover's bytecode) from 16 to 24 bytes.
//!
//! [`Value`]: crate::Value

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::value::ElemId;

// ---------------------------------------------------------------------------
// The flat array behind every handle.
// ---------------------------------------------------------------------------

/// Entries behind one shared handle: sorted and deduplicated for sets and
/// maps, in position order for sequences. The empty collection is always
/// `None`, never an empty array, so the derived `Eq` and `Ord` are the eager
/// collections' (`Arc`'s `Eq` checks the pointer first).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Flat<E>(Option<Arc<Vec<E>>>);

impl<E: Clone> Flat<E> {
    /// Wraps entries already in the collection's order.
    fn from_vec(entries: Vec<E>) -> Flat<E> {
        Flat((!entries.is_empty()).then(|| Arc::new(entries)))
    }

    fn as_slice(&self) -> &[E] {
        self.0.as_deref().map_or(&[], Vec::as_slice)
    }

    fn ptr_eq(&self, other: &Flat<E>) -> bool {
        match (&self.0, &other.0) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// Applies `edit` to the entries and returns its result: in place when
    /// the array is uniquely owned, otherwise to one fresh copy with room
    /// for an insert.
    fn edit<R>(&mut self, edit: impl FnOnce(&mut Vec<E>) -> R) -> R {
        let result = match self.0.as_mut().and_then(Arc::get_mut) {
            Some(entries) => edit(entries),
            None => {
                let mut entries = Vec::with_capacity(self.as_slice().len() + 1);
                entries.extend_from_slice(self.as_slice());
                let result = edit(&mut entries);
                self.0 = Some(Arc::new(entries));
                result
            }
        };
        if self.as_slice().is_empty() {
            self.0 = None;
        }
        result
    }
}

impl<E> Default for Flat<E> {
    fn default() -> Flat<E> {
        Flat(None)
    }
}

/// Hashes like the eager collections: the standard library prefixes
/// slice/`BTreeSet`/`BTreeMap` hashes with the length (as a `usize` write)
/// and then hashes the entries in order.
impl<E: Clone + Hash> Hash for Flat<E> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let entries = self.as_slice();
        state.write_usize(entries.len());
        for entry in entries {
            entry.hash(state);
        }
    }
}

// ---------------------------------------------------------------------------
// The handles.
// ---------------------------------------------------------------------------

/// A finite set of [`ElemId`]s — the payload of
/// [`Value::Set`](crate::Value::Set).
///
/// A sorted array behind one `Arc`: `clone` is O(1), `contains` is a binary
/// search, and [`PSet::insert`] / [`PSet::remove`] copy the array once when
/// it is shared and shift it in place when it is not. Iteration, `Eq`,
/// `Ord`, `Hash`, and `Debug` match `BTreeSet<ElemId>` exactly.
///
/// # Example
///
/// ```
/// use semcommute_logic::pvalue::PSet;
/// use semcommute_logic::ElemId;
///
/// let s: PSet = [ElemId(1), ElemId(2)].into_iter().collect();
/// let mut t = s.clone(); // O(1): shares the array with `s`
/// assert!(t.ptr_eq(&s));
///
/// t.insert(ElemId(3)); // copies once: `s` is unaffected
/// assert!(!t.ptr_eq(&s));
/// assert_eq!(s.len(), 2);
/// assert_eq!(t.len(), 3);
/// assert!(t.contains(&ElemId(1)));
/// ```
#[derive(Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PSet(Flat<ElemId>);

impl PSet {
    /// The empty set: a null handle, no allocation.
    pub fn new() -> PSet {
        PSet::default()
    }

    /// Returns `true` if `self` and `other` share their array (two empty
    /// handles trivially share). Shared storage implies equality, never the
    /// converse; tests use it to observe sharing.
    pub fn ptr_eq(&self, other: &PSet) -> bool {
        self.0.ptr_eq(&other.0)
    }

    /// The number of members.
    pub fn len(&self) -> usize {
        self.0.as_slice().len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `elem` is a member — O(log n).
    pub fn contains(&self, elem: &ElemId) -> bool {
        self.0.as_slice().binary_search(elem).is_ok()
    }

    /// The members in ascending order.
    pub fn iter(&self) -> std::slice::Iter<'_, ElemId> {
        self.0.as_slice().iter()
    }

    /// Inserts `elem`, returning `true` if it was not already present.
    /// Inserting a present element is a no-op and never copies sharing away.
    pub fn insert(&mut self, elem: ElemId) -> bool {
        match self.0.as_slice().binary_search(&elem) {
            Ok(_) => false,
            Err(index) => {
                self.0.edit(|entries| entries.insert(index, elem));
                true
            }
        }
    }

    /// Removes `elem`, returning `true` if it was present. Removing an
    /// absent element is a no-op and never copies sharing away.
    pub fn remove(&mut self, elem: &ElemId) -> bool {
        let Ok(index) = self.0.as_slice().binary_search(elem) else {
            return false;
        };
        self.0.edit(|entries| entries.remove(index));
        true
    }

    /// Returns the image of this set under an element relabeling: every
    /// member `e` is replaced by `f(e)`, and the image is re-sorted.
    ///
    /// When `f` is injective on the members (the orbit-reduction use case:
    /// `f` is a permutation of a block of anonymous elements) the image has
    /// the same cardinality. When `f` fixes every member, the original
    /// handle is returned unchanged (O(1), shares the array).
    pub fn map_elems(&self, f: impl Fn(ElemId) -> ElemId) -> PSet {
        if self.iter().all(|&e| f(e) == e) {
            return self.clone();
        }
        self.iter().map(|&e| f(e)).collect()
    }

    /// Clones out an eager `BTreeSet`.
    pub fn to_inner(&self) -> BTreeSet<ElemId> {
        self.iter().copied().collect()
    }
}

impl<'a> IntoIterator for &'a PSet {
    type Item = &'a ElemId;
    type IntoIter = std::slice::Iter<'a, ElemId>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl fmt::Debug for PSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl From<BTreeSet<ElemId>> for PSet {
    fn from(inner: BTreeSet<ElemId>) -> PSet {
        PSet(Flat::from_vec(inner.into_iter().collect()))
    }
}

impl From<PSet> for BTreeSet<ElemId> {
    fn from(handle: PSet) -> BTreeSet<ElemId> {
        handle.to_inner()
    }
}

impl FromIterator<ElemId> for PSet {
    fn from_iter<I: IntoIterator<Item = ElemId>>(items: I) -> PSet {
        let mut entries: Vec<ElemId> = items.into_iter().collect();
        entries.sort_unstable();
        entries.dedup();
        PSet(Flat::from_vec(entries))
    }
}

impl PartialEq<BTreeSet<ElemId>> for PSet {
    fn eq(&self, other: &BTreeSet<ElemId>) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

/// A finite partial map from [`ElemId`] to [`ElemId`] — the payload of
/// [`Value::Map`](crate::Value::Map).
///
/// An array of bindings sorted by key behind one `Arc`: `clone` is O(1),
/// `get` is a binary search, and [`PMap::insert`] / [`PMap::remove`] copy
/// the array once when it is shared. Iteration, `Eq`, `Ord`, `Hash`, and
/// `Debug` match `BTreeMap<ElemId, ElemId>` exactly.
#[derive(Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PMap(Flat<(ElemId, ElemId)>);

impl PMap {
    /// The empty map: a null handle, no allocation.
    pub fn new() -> PMap {
        PMap::default()
    }

    /// Returns `true` if `self` and `other` share their array (two empty
    /// handles trivially share).
    pub fn ptr_eq(&self, other: &PMap) -> bool {
        self.0.ptr_eq(&other.0)
    }

    /// The number of bindings.
    pub fn len(&self) -> usize {
        self.0.as_slice().len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The position of `key`'s binding, or where it would be inserted.
    fn search(&self, key: &ElemId) -> Result<usize, usize> {
        self.0.as_slice().binary_search_by_key(key, |&(k, _)| k)
    }

    /// The value bound to `key`, if any — O(log n).
    pub fn get(&self, key: &ElemId) -> Option<&ElemId> {
        let index = self.search(key).ok()?;
        Some(&self.0.as_slice()[index].1)
    }

    /// Whether `key` is bound — O(log n).
    pub fn contains_key(&self, key: &ElemId) -> bool {
        self.search(key).is_ok()
    }

    /// The bindings in ascending key order.
    pub fn iter(
        &self,
    ) -> impl DoubleEndedIterator<Item = (&ElemId, &ElemId)> + ExactSizeIterator + '_ {
        self.0.as_slice().iter().map(|(k, v)| (k, v))
    }

    /// Binds `key` to `value`, returning the previous binding of `key`, if
    /// any. Rebinding a key to its current value is a no-op and never
    /// copies sharing away.
    pub fn insert(&mut self, key: ElemId, value: ElemId) -> Option<ElemId> {
        match self.search(&key) {
            Ok(index) => {
                let prior = self.0.as_slice()[index].1;
                if prior != value {
                    self.0.edit(|entries| entries[index].1 = value);
                }
                Some(prior)
            }
            Err(index) => {
                self.0.edit(|entries| entries.insert(index, (key, value)));
                None
            }
        }
    }

    /// Removes the binding for `key`, returning the removed value, if any.
    /// Removing an unbound key is a no-op and never copies sharing away.
    pub fn remove(&mut self, key: &ElemId) -> Option<ElemId> {
        let index = self.search(key).ok()?;
        Some(self.0.edit(|entries| entries.remove(index)).1)
    }

    /// Returns the image of this map under an element relabeling: every
    /// binding `k ↦ v` is replaced by `f(k) ↦ f(v)`, and the image is
    /// re-sorted by key.
    ///
    /// Keys and values relabel *together* — a permutation of anonymous
    /// elements must act on the whole model uniformly for evaluation to be
    /// invariant (`get(π(k))` on the image equals `π(get(k))` on the
    /// original). When `f` fixes every key and value, the original handle is
    /// returned unchanged (O(1), shares the array).
    pub fn map_elems(&self, f: impl Fn(ElemId) -> ElemId) -> PMap {
        if self.iter().all(|(&k, &v)| f(k) == k && f(v) == v) {
            return self.clone();
        }
        self.iter().map(|(&k, &v)| (f(k), f(v))).collect()
    }

    /// Clones out an eager `BTreeMap`.
    pub fn to_inner(&self) -> BTreeMap<ElemId, ElemId> {
        self.iter().map(|(&k, &v)| (k, v)).collect()
    }
}

impl fmt::Debug for PMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl From<BTreeMap<ElemId, ElemId>> for PMap {
    fn from(inner: BTreeMap<ElemId, ElemId>) -> PMap {
        PMap(Flat::from_vec(inner.into_iter().collect()))
    }
}

impl From<PMap> for BTreeMap<ElemId, ElemId> {
    fn from(handle: PMap) -> BTreeMap<ElemId, ElemId> {
        handle.to_inner()
    }
}

impl FromIterator<(ElemId, ElemId)> for PMap {
    /// The last binding of a repeated key wins, as in `BTreeMap`.
    fn from_iter<I: IntoIterator<Item = (ElemId, ElemId)>>(items: I) -> PMap {
        let mut entries: Vec<(ElemId, ElemId)> = items.into_iter().collect();
        // Reversed, the last binding of a key leads its run under the stable
        // sort, and `dedup_by_key` keeps the first of a run.
        entries.reverse();
        entries.sort_by_key(|&(k, _)| k);
        entries.dedup_by_key(|&mut (k, _)| k);
        PMap(Flat::from_vec(entries))
    }
}

impl PartialEq<BTreeMap<ElemId, ElemId>> for PMap {
    fn eq(&self, other: &BTreeMap<ElemId, ElemId>) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

/// A finite sequence of [`ElemId`]s — the payload of
/// [`Value::Seq`](crate::Value::Seq).
///
/// The elements in position order behind one `Arc`: `clone` is O(1), `get`
/// is an index, and [`PSeq::push`] / [`PSeq::insert`] / [`PSeq::remove`] /
/// [`PSeq::set`] copy the array once when it is shared and shift it in place
/// when it is not. Iteration, indexing, `Eq`, `Ord`, `Hash`, and `Debug`
/// match `Vec<ElemId>` exactly.
#[derive(Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PSeq(Flat<ElemId>);

impl PSeq {
    /// The empty sequence: a null handle, no allocation.
    pub fn new() -> PSeq {
        PSeq::default()
    }

    /// Returns `true` if `self` and `other` share their array (two empty
    /// handles trivially share). Shared storage implies equality, never the
    /// converse; tests use it to observe sharing: a clone shares its array
    /// with the original until one of the two is updated.
    pub fn ptr_eq(&self, other: &PSeq) -> bool {
        self.0.ptr_eq(&other.0)
    }

    /// The number of elements.
    pub fn len(&self) -> usize {
        self.0.as_slice().len()
    }

    /// Whether the sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The element at `index`, if in range.
    pub fn get(&self, index: usize) -> Option<&ElemId> {
        self.0.as_slice().get(index)
    }

    /// Whether `elem` occurs in the sequence — O(n), like `Vec::contains`.
    pub fn contains(&self, elem: &ElemId) -> bool {
        self.0.as_slice().contains(elem)
    }

    /// The elements in positional order.
    pub fn iter(&self) -> std::slice::Iter<'_, ElemId> {
        self.0.as_slice().iter()
    }

    /// Appends `elem`.
    pub fn push(&mut self, elem: ElemId) {
        self.0.edit(|entries| entries.push(elem));
    }

    /// Inserts `elem` at position `index`, shifting later elements.
    ///
    /// # Panics
    ///
    /// Panics if `index > len` — callers clamp, matching the evaluator's
    /// totalized `insert_at` semantics.
    pub fn insert(&mut self, index: usize, elem: ElemId) {
        self.0.edit(|entries| entries.insert(index, elem));
    }

    /// Removes and returns the element at `index`, shifting later elements.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len` — callers bounds-check, matching the
    /// evaluator's totalized `remove_at` semantics (out-of-range removal is
    /// a no-op there).
    pub fn remove(&mut self, index: usize) -> ElemId {
        self.0.edit(|entries| entries.remove(index))
    }

    /// Overwrites the element at `index`. Writing the value already there is
    /// a no-op and never copies sharing away.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len` — callers bounds-check, matching the
    /// evaluator's totalized `set_at` semantics.
    pub fn set(&mut self, index: usize, elem: ElemId) {
        if self[index] != elem {
            self.0.edit(|entries| entries[index] = elem);
        }
    }

    /// Returns the image of this sequence under an element relabeling: the
    /// element at each position is replaced by its `f`-image (positions are
    /// untouched — a relabeling permutes identities, not indices).
    ///
    /// When `f` fixes every element, the original handle is returned
    /// unchanged (O(1), shares the array).
    pub fn map_elems(&self, f: impl Fn(ElemId) -> ElemId) -> PSeq {
        if self.iter().all(|&e| f(e) == e) {
            return self.clone();
        }
        self.iter().map(|&e| f(e)).collect()
    }

    /// Clones out an eager `Vec`.
    pub fn to_inner(&self) -> Vec<ElemId> {
        self.0.as_slice().to_vec()
    }
}

impl<'a> IntoIterator for &'a PSeq {
    type Item = &'a ElemId;
    type IntoIter = std::slice::Iter<'a, ElemId>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl std::ops::Index<usize> for PSeq {
    type Output = ElemId;

    fn index(&self, index: usize) -> &ElemId {
        &self.0.as_slice()[index]
    }
}

impl fmt::Debug for PSeq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl From<Vec<ElemId>> for PSeq {
    fn from(inner: Vec<ElemId>) -> PSeq {
        PSeq(Flat::from_vec(inner))
    }
}

impl From<PSeq> for Vec<ElemId> {
    fn from(handle: PSeq) -> Vec<ElemId> {
        handle.to_inner()
    }
}

impl FromIterator<ElemId> for PSeq {
    fn from_iter<I: IntoIterator<Item = ElemId>>(items: I) -> PSeq {
        PSeq(Flat::from_vec(items.into_iter().collect()))
    }
}

impl PartialEq<Vec<ElemId>> for PSeq {
    fn eq(&self, other: &Vec<ElemId>) -> bool {
        self.0.as_slice() == other.as_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_handles_share_the_singleton() {
        assert!(PSet::new().ptr_eq(&PSet::new()));
        assert!(PMap::new().ptr_eq(&PMap::new()));
        assert!(PSeq::new().ptr_eq(&PSeq::new()));
        assert!(PSet::new().is_empty());
        assert!(PMap::new().is_empty());
        assert!(PSeq::new().is_empty());
    }

    #[test]
    fn clone_shares_until_mutation() {
        let a: PSet = [ElemId(1)].into_iter().collect();
        let mut b = a.clone();
        assert!(a.ptr_eq(&b));
        b.insert(ElemId(2));
        assert!(!a.ptr_eq(&b));
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn flat_handles_copy_only_when_shared() {
        let addr = |s: &PSet| s.0 .0.as_ref().map(Arc::as_ptr);
        let mut s: PSet = [ElemId(1), ElemId(3)].into_iter().collect();
        let unique = addr(&s);
        s.insert(ElemId(2));
        s.remove(&ElemId(1));
        assert_eq!(addr(&s), unique, "a unique handle updates in place");
        let snapshot = s.clone();
        s.insert(ElemId(4));
        assert_ne!(addr(&s), unique, "a shared handle copies");
        assert_eq!(snapshot.to_inner(), BTreeSet::from([ElemId(2), ElemId(3)]));
        assert_eq!(
            s.to_inner(),
            BTreeSet::from([ElemId(2), ElemId(3), ElemId(4)])
        );

        let mut m: PMap = [(ElemId(1), ElemId(2))].into_iter().collect();
        let snapshot = m.clone();
        assert_eq!(m.insert(ElemId(1), ElemId(5)), Some(ElemId(2)));
        assert_eq!(snapshot.get(&ElemId(1)), Some(&ElemId(2)));
        assert_eq!(m.get(&ElemId(1)), Some(&ElemId(5)));

        let seq_addr = |q: &PSeq| q.0 .0.as_ref().map(Arc::as_ptr);
        let mut q: PSeq = [ElemId(1), ElemId(2), ElemId(3)].into_iter().collect();
        let unique = seq_addr(&q);
        q.set(0, ElemId(7));
        assert_eq!(q.remove(1), ElemId(2));
        assert_eq!(seq_addr(&q), unique, "a unique handle updates in place");
        let snapshot = q.clone();
        q.insert(1, ElemId(8));
        assert_ne!(seq_addr(&q), unique, "a shared handle copies");
        assert_eq!(seq_addr(&snapshot), unique, "the snapshot keeps its array");
        assert_eq!(snapshot.to_inner(), vec![ElemId(7), ElemId(3)]);
        assert_eq!(q.to_inner(), vec![ElemId(7), ElemId(8), ElemId(3)]);

        let hash_of = |q: &PSeq| {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            q.hash(&mut h);
            h.finish()
        };
        let mut last: PSeq = [ElemId(4)].into_iter().collect();
        assert_eq!(last.remove(0), ElemId(4));
        assert!(
            last.ptr_eq(&PSeq::new()),
            "an emptied sequence is the null handle"
        );
        assert_eq!(last, PSeq::new());
        assert_eq!(hash_of(&last), hash_of(&PSeq::new()));
    }

    #[test]
    fn no_op_mutations_preserve_sharing() {
        let a: PSet = [ElemId(1)].into_iter().collect();
        let mut b = a.clone();
        b.remove(&ElemId(7)); // absent: no copy
        assert!(a.ptr_eq(&b));
        b.insert(ElemId(1)); // present: no copy
        assert!(a.ptr_eq(&b));

        let m: PMap = [(ElemId(1), ElemId(2))].into_iter().collect();
        let mut n = m.clone();
        assert_eq!(n.insert(ElemId(1), ElemId(2)), Some(ElemId(2)));
        n.remove(&ElemId(9));
        assert!(m.ptr_eq(&n));

        let q: PSeq = [ElemId(5)].into_iter().collect();
        let mut r = q.clone();
        r.set(0, ElemId(5));
        assert!(q.ptr_eq(&r));
    }

    #[test]
    fn structural_comparison_ignores_sharing() {
        let a: PSet = [ElemId(1), ElemId(2)].into_iter().collect();
        let b: PSet = [ElemId(2), ElemId(1)].into_iter().collect();
        assert_eq!(a, b);
        assert!(!a.ptr_eq(&b));
        let c: PSet = [ElemId(3)].into_iter().collect();
        assert_eq!(a.cmp(&c), a.to_inner().cmp(&c.to_inner()));
    }

    #[test]
    fn sequences_preserve_positional_order() {
        let mut q = PSeq::new();
        q.push(ElemId(1));
        q.push(ElemId(3));
        q.insert(1, ElemId(2));
        q.insert(0, ElemId(0));
        assert_eq!(
            q.to_inner(),
            vec![ElemId(0), ElemId(1), ElemId(2), ElemId(3)]
        );
        assert_eq!(q[2], ElemId(2));
        assert_eq!(q.remove(1), ElemId(1));
        assert_eq!(q.to_inner(), vec![ElemId(0), ElemId(2), ElemId(3)]);
        q.set(1, ElemId(9));
        assert_eq!(q.to_inner(), vec![ElemId(0), ElemId(9), ElemId(3)]);
        assert_eq!(
            q.iter().rev().copied().collect::<Vec<_>>(),
            vec![ElemId(3), ElemId(9), ElemId(0)]
        );
        assert_eq!(q.iter().position(|&e| e == ElemId(9)), Some(1));
        assert_eq!(q.iter().rposition(|&e| e == ElemId(3)), Some(2));
    }

    #[test]
    fn map_elems_relabels_and_preserves_sharing_on_fixpoints() {
        let swap = |e: ElemId| match e {
            ElemId(1) => ElemId(2),
            ElemId(2) => ElemId(1),
            other => other,
        };
        let s: PSet = [ElemId(1), ElemId(3)].into_iter().collect();
        assert_eq!(
            s.map_elems(swap),
            [ElemId(2), ElemId(3)].into_iter().collect::<PSet>()
        );
        let fixed: PSet = [ElemId(3), ElemId(4)].into_iter().collect();
        assert!(fixed.map_elems(swap).ptr_eq(&fixed));

        // Maps relabel keys and values together.
        let m: PMap = [(ElemId(1), ElemId(2)), (ElemId(3), ElemId(1))]
            .into_iter()
            .collect();
        let expected: PMap = [(ElemId(2), ElemId(1)), (ElemId(3), ElemId(2))]
            .into_iter()
            .collect();
        assert_eq!(m.map_elems(swap), expected);

        // Sequences relabel elements, never positions.
        let q: PSeq = [ElemId(2), ElemId(1), ElemId(2)].into_iter().collect();
        let expected: PSeq = [ElemId(1), ElemId(2), ElemId(1)].into_iter().collect();
        assert_eq!(q.map_elems(swap), expected);
        let fixed: PSeq = [ElemId(5)].into_iter().collect();
        assert!(fixed.map_elems(swap).ptr_eq(&fixed));
    }

    #[test]
    fn conversion_round_trips() {
        let eager: BTreeSet<ElemId> = [ElemId(4), ElemId(8)].into_iter().collect();
        let p = PSet::from(eager.clone());
        assert_eq!(p.to_inner(), eager);
        assert_eq!(BTreeSet::from(p), eager);

        let eager: BTreeMap<ElemId, ElemId> = [(ElemId(1), ElemId(2))].into_iter().collect();
        let p = PMap::from(eager.clone());
        assert_eq!(p.to_inner(), eager);

        // Collecting keeps the last binding of a repeated key, as `BTreeMap`.
        let pairs = [
            (ElemId(3), ElemId(1)),
            (ElemId(1), ElemId(2)),
            (ElemId(3), ElemId(4)),
        ];
        let p: PMap = pairs.into_iter().collect();
        assert_eq!(p, pairs.into_iter().collect::<BTreeMap<_, _>>());

        let eager = vec![ElemId(3), ElemId(1), ElemId(3)];
        let p = PSeq::from(eager.clone());
        assert_eq!(p.to_inner(), eager);
    }

    #[test]
    fn debug_matches_the_eager_representation() {
        let s: PSet = [ElemId(2), ElemId(1)].into_iter().collect();
        assert_eq!(format!("{s:?}"), format!("{:?}", s.to_inner()));
        let m: PMap = [(ElemId(1), ElemId(9))].into_iter().collect();
        assert_eq!(format!("{m:?}"), format!("{:?}", m.to_inner()));
        let q: PSeq = [ElemId(7), ElemId(7)].into_iter().collect();
        assert_eq!(format!("{q:?}"), format!("{:?}", q.to_inner()));
    }
}
