//! Cheaply-clonable collection payloads for [`Value`].
//!
//! The finite-model prover evaluates the same obligation under millions of
//! candidate models, and the speculative runtime snapshots its ArrayList
//! mirror once per pre-state-reading operation. Both *clone* collections far
//! more often than they update them, so every handle here is one pointer
//! wide, `clone` is an O(1) reference-count increment, and an empty
//! collection is a null handle that allocates nothing.
//!
//! The two representations follow the sizes each shape reaches:
//!
//! * [`PSet`] and [`PMap`] are **sorted, deduplicated flat arrays** behind
//!   one shared `Arc<Vec<_>>`. The prover's sets and maps hold at most a
//!   handful of entries (`Scope::standard` allows 4), and the callers that
//!   build large ones (the spec interpreter, the runtime's abstraction
//!   function) convert a whole eager collection per call anyway. Lookups
//!   binary-search the array. An update shifts the array in place when the
//!   handle is uniquely owned and copies it once, O(n), when it is shared.
//! * [`PSeq`] is a **persistent order-statistic tree**: a weight-balanced
//!   Adams tree (Δ = 3, ratio = 2) with an `Arc` per node and the subtree
//!   size in each node. It backs the runtime's ArrayList mirror, whose
//!   state every logged operation snapshots. A positional `insert` /
//!   `remove` / `set` path-copies O(log n) nodes and leaves the rest shared
//!   with the logged pre-states, where a flat array would copy the whole
//!   sequence per update.
//!
//! `Eq`, `Ord`, `Hash`, `Debug` and iteration order are exactly those of the
//! eager `BTreeSet` / `BTreeMap` / `Vec` (the property tests pin
//! hash-for-hash agreement). `to_inner` materializes the eager collection
//! for callers that need one.
//!
//! The flat payload is `Arc<Vec<_>>`, not `Arc<[_]>`: a slice pointer is
//! two words wide and would grow every [`Value`] (every register and lane
//! of the prover's bytecode) from 16 to 24 bytes.
//!
//! [`Value`]: crate::Value

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::value::ElemId;

/// Hashes like the eager collections: the standard library prefixes
/// slice/`BTreeSet`/`BTreeMap` hashes with the length (as a `usize` write)
/// and then hashes the entries in order.
fn hash_like_eager<E: Hash, H: Hasher>(
    len: usize,
    entries: impl Iterator<Item = E>,
    state: &mut H,
) {
    state.write_usize(len);
    for entry in entries {
        entry.hash(state);
    }
}

// ---------------------------------------------------------------------------
// Flat sorted arrays (PSet, PMap).
// ---------------------------------------------------------------------------

/// Sorted, deduplicated entries behind one shared handle. The empty
/// collection is always `None`, never an empty array, so the derived `Eq`
/// and `Ord` are the eager collections' (`Arc`'s `Eq` checks the pointer
/// first).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Flat<E>(Option<Arc<Vec<E>>>);

impl<E: Clone> Flat<E> {
    fn from_sorted(entries: Vec<E>) -> Flat<E> {
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

impl<E: Clone + Hash> Hash for Flat<E> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let entries = self.as_slice();
        hash_like_eager(entries.len(), entries.iter(), state);
    }
}

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
        PSet(Flat::from_sorted(inner.into_iter().collect()))
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
        PSet(Flat::from_sorted(entries))
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
        PMap(Flat::from_sorted(inner.into_iter().collect()))
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
        PMap(Flat::from_sorted(entries))
    }
}

impl PartialEq<BTreeMap<ElemId, ElemId>> for PMap {
    fn eq(&self, other: &BTreeMap<ElemId, ElemId>) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

// ---------------------------------------------------------------------------
// The order-statistic tree (PSeq).
// ---------------------------------------------------------------------------

/// Balance bound: neither child may hold more than `DELTA` times the weight
/// of its sibling. Δ = 3 with `RATIO` = 2 is the parameter pair proven sound
/// for single-element insertions and deletions (Hirai & Yamamoto; the same
/// pair GHC's `containers` settled on).
const DELTA: usize = 3;
/// Rotation selector: a single rotation suffices while the inner grandchild
/// is lighter than `RATIO` times the outer one; otherwise rotate twice.
const RATIO: usize = 2;

/// One tree node. Children are `Arc`-shared links, so a node is the unit of
/// structural sharing: path-copying clones O(log n) of these per update.
#[derive(Debug, Clone)]
struct Node {
    /// Number of entries in the subtree rooted here (including this one).
    size: usize,
    entry: ElemId,
    left: Link,
    right: Link,
}

type Link = Option<Arc<Node>>;

fn link_size(link: &Link) -> usize {
    link.as_ref().map_or(0, |n| n.size)
}

fn leaf(entry: ElemId) -> Link {
    Some(Arc::new(Node {
        size: 1,
        entry,
        left: None,
        right: None,
    }))
}

fn update_size(node: &mut Node) {
    node.size = link_size(&node.left) + link_size(&node.right) + 1;
}

/// Right rotation: `(l=(ll,y,lr), x, r)` becomes `(ll, y, (lr,x,r))`.
///
/// Shared nodes on the rotation are cloned by `Arc::make_mut`; uniquely
/// owned ones are restructured in place without allocating.
fn rotate_right(arc: &mut Arc<Node>) {
    let n = Arc::make_mut(arc);
    let mut l_arc = n.left.take().expect("rotate_right requires a left child");
    {
        let l = Arc::make_mut(&mut l_arc);
        n.left = l.right.take();
        update_size(n);
    }
    // The left child becomes the root; the old root becomes its right child.
    std::mem::swap(arc, &mut l_arc);
    let root = Arc::make_mut(arc);
    root.right = Some(l_arc);
    update_size(root);
}

/// Left rotation: `(l, x, r=(rl,y,rr))` becomes `((l,x,rl), y, rr)`.
fn rotate_left(arc: &mut Arc<Node>) {
    let n = Arc::make_mut(arc);
    let mut r_arc = n.right.take().expect("rotate_left requires a right child");
    {
        let r = Arc::make_mut(&mut r_arc);
        n.right = r.left.take();
        update_size(n);
    }
    std::mem::swap(arc, &mut r_arc);
    let root = Arc::make_mut(arc);
    root.left = Some(r_arc);
    update_size(root);
}

/// Restores the weight-balance invariant at `arc` after one child gained or
/// lost a single entry (the standard Adams one-step rebalance).
fn rebalance(arc: &mut Arc<Node>) {
    let (ls, rs) = {
        let n = arc.as_ref();
        (link_size(&n.left), link_size(&n.right))
    };
    if ls + rs <= 1 {
        return;
    }
    if rs > DELTA * ls {
        // Right-heavy. Decide single vs double by the grandchildren.
        let double = {
            let r = arc
                .as_ref()
                .right
                .as_ref()
                .expect("right-heavy node has a right child");
            link_size(&r.left) >= RATIO * link_size(&r.right)
        };
        if double {
            let n = Arc::make_mut(arc);
            rotate_right(
                n.right
                    .as_mut()
                    .expect("right-heavy node has a right child"),
            );
        }
        rotate_left(arc);
    } else if ls > DELTA * rs {
        let double = {
            let l = arc
                .as_ref()
                .left
                .as_ref()
                .expect("left-heavy node has a left child");
            link_size(&l.right) >= RATIO * link_size(&l.left)
        };
        if double {
            let n = Arc::make_mut(arc);
            rotate_left(n.left.as_mut().expect("left-heavy node has a left child"));
        }
        rotate_right(arc);
    }
}

/// Removes and returns the smallest entry of a non-empty subtree.
fn remove_min(link: &mut Link) -> ElemId {
    let arc = link.as_mut().expect("remove_min needs a non-empty subtree");
    let node = Arc::make_mut(arc);
    if node.left.is_none() {
        let entry = node.entry;
        *link = node.right.take();
        entry
    } else {
        let min = remove_min(&mut node.left);
        update_size(node);
        rebalance(arc);
        min
    }
}

fn get_at(link: &Link, mut index: usize) -> Option<&ElemId> {
    let mut cur = link;
    while let Some(node) = cur.as_deref() {
        let ls = link_size(&node.left);
        if index < ls {
            cur = &node.left;
        } else if index == ls {
            return Some(&node.entry);
        } else {
            index -= ls + 1;
            cur = &node.right;
        }
    }
    None
}

/// Inserts `entry` before position `index` (`index == size` appends). The
/// caller guarantees `index <= size`.
fn insert_at(link: &mut Link, index: usize, entry: ElemId) {
    let Some(arc) = link.as_mut() else {
        *link = leaf(entry);
        return;
    };
    let node = Arc::make_mut(arc);
    let ls = link_size(&node.left);
    if index <= ls {
        insert_at(&mut node.left, index, entry);
    } else {
        insert_at(&mut node.right, index - ls - 1, entry);
    }
    update_size(node);
    rebalance(arc);
}

/// Removes and returns the entry at `index`. The caller guarantees
/// `index < size`.
fn remove_at(link: &mut Link, index: usize) -> ElemId {
    let arc = link.as_mut().expect("remove_at index within bounds");
    let node = Arc::make_mut(arc);
    let ls = link_size(&node.left);
    match index.cmp(&ls) {
        std::cmp::Ordering::Less => {
            let entry = remove_at(&mut node.left, index);
            update_size(node);
            rebalance(arc);
            entry
        }
        std::cmp::Ordering::Greater => {
            let entry = remove_at(&mut node.right, index - ls - 1);
            update_size(node);
            rebalance(arc);
            entry
        }
        std::cmp::Ordering::Equal => {
            let entry = node.entry;
            if node.left.is_none() {
                *link = node.right.take();
            } else if node.right.is_none() {
                *link = node.left.take();
            } else {
                node.entry = remove_min(&mut node.right);
                update_size(node);
                rebalance(arc);
            }
            entry
        }
    }
}

/// Overwrites the entry at `index` — no size change, no rebalance. The
/// caller guarantees `index < size`.
fn set_at(link: &mut Link, index: usize, entry: ElemId) {
    let arc = link.as_mut().expect("set_at index within bounds");
    let node = Arc::make_mut(arc);
    let ls = link_size(&node.left);
    if index < ls {
        set_at(&mut node.left, index, entry);
    } else if index == ls {
        node.entry = entry;
    } else {
        set_at(&mut node.right, index - ls - 1, entry);
    }
}

/// Builds a perfectly balanced tree from entries in positional order —
/// O(n), one node per entry, no rebalancing.
fn build_from_slice(entries: &[ElemId]) -> Link {
    if entries.is_empty() {
        return None;
    }
    let mid = entries.len() / 2;
    Some(Arc::new(Node {
        size: entries.len(),
        entry: entries[mid],
        left: build_from_slice(&entries[..mid]),
        right: build_from_slice(&entries[mid + 1..]),
    }))
}

fn collect_node_addrs(link: &Link, out: &mut Vec<usize>) {
    if let Some(node) = link {
        out.push(Arc::as_ptr(node) as usize);
        collect_node_addrs(&node.left, out);
        collect_node_addrs(&node.right, out);
    }
}

/// A persistent finite sequence of [`ElemId`]s — the structurally-shared
/// payload of [`Value::Seq`](crate::Value::Seq).
///
/// An order-statistic weight-balanced tree (descent by subtree size) with an
/// `Arc` per node: `clone` is O(1) and `push` / `insert` / `remove` / `set`
/// are O(log n) with shared spines — where a flat `Vec` would pay an O(n)
/// copy for the first update after a snapshot, and an O(n) shift for every
/// mid-sequence insert or remove besides. Iteration, indexing, `Eq`, `Ord`,
/// `Hash`, and `Debug` match `Vec<ElemId>` exactly.
#[derive(Clone, Default)]
pub struct PSeq {
    root: Link,
}

impl PSeq {
    /// The empty sequence: a root-less handle, no allocation ever.
    pub fn new() -> PSeq {
        PSeq { root: None }
    }

    /// Returns `true` if `self` and `other` share their root node (two empty
    /// handles trivially share).
    ///
    /// Shared roots imply structural equality (never the converse); `Eq` and
    /// `Ord` use this as a short-circuit before walking the trees. Tests use
    /// it to observe sharing: a clone shares its root with the original
    /// until one of the two is mutated.
    pub fn ptr_eq(&self, other: &PSeq) -> bool {
        match (&self.root, &other.root) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// The number of elements — O(1), stored in the root.
    pub fn len(&self) -> usize {
        link_size(&self.root)
    }

    /// Whether the sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.root.is_none()
    }

    /// The element at `index`, if in range — O(log n).
    pub fn get(&self, index: usize) -> Option<&ElemId> {
        get_at(&self.root, index)
    }

    /// Whether `elem` occurs in the sequence — O(n), like `Vec::contains`.
    pub fn contains(&self, elem: &ElemId) -> bool {
        self.iter().any(|e| e == elem)
    }

    /// The elements in positional order.
    pub fn iter(&self) -> SeqIter<'_> {
        SeqIter::new(&self.root)
    }

    /// Appends `elem` — O(log n), path-copying the right spine if shared.
    pub fn push(&mut self, elem: ElemId) {
        let len = self.len();
        insert_at(&mut self.root, len, elem);
    }

    /// Inserts `elem` at position `index` (shifting later elements) —
    /// O(log n), no element shifting.
    ///
    /// # Panics
    ///
    /// Panics if `index > len` — callers clamp, matching the evaluator's
    /// totalized `insert_at` semantics.
    pub fn insert(&mut self, index: usize, elem: ElemId) {
        assert!(
            index <= self.len(),
            "insertion index (is {index}) should be <= len (is {})",
            self.len()
        );
        insert_at(&mut self.root, index, elem);
    }

    /// Removes and returns the element at `index` (shifting later elements)
    /// — O(log n), no element shifting.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len` — callers bounds-check, matching the
    /// evaluator's totalized `remove_at` semantics (out-of-range removal is
    /// a no-op there).
    pub fn remove(&mut self, index: usize) -> ElemId {
        assert!(
            index < self.len(),
            "removal index (is {index}) should be < len (is {})",
            self.len()
        );
        remove_at(&mut self.root, index)
    }

    /// Overwrites the element at `index` — O(log n). Writing the value
    /// already there is observably a no-op and never copies sharing away.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len` — callers bounds-check, matching the
    /// evaluator's totalized `set_at` semantics.
    pub fn set(&mut self, index: usize, elem: ElemId) {
        match self.get(index) {
            Some(current) if *current == elem => {}
            Some(_) => set_at(&mut self.root, index, elem),
            None => panic!(
                "write index (is {index}) should be < len (is {})",
                self.len()
            ),
        }
    }

    /// Returns the image of this sequence under an element relabeling: the
    /// element at each position is replaced by its `f`-image (positions are
    /// untouched — a relabeling permutes identities, not indices).
    ///
    /// When `f` fixes every element, the original handle is returned
    /// unchanged (O(1), shares the whole tree).
    pub fn map_elems(&self, f: impl Fn(ElemId) -> ElemId) -> PSeq {
        if self.iter().all(|&e| f(e) == e) {
            return self.clone();
        }
        self.iter().map(|&e| f(e)).collect()
    }

    /// Clones out an eager `Vec`.
    pub fn to_inner(&self) -> Vec<ElemId> {
        self.iter().copied().collect()
    }

    /// Test-only introspection: the heap addresses of every tree node,
    /// pre-order. Property tests snapshot these to count how many nodes a
    /// mutation detaches.
    #[doc(hidden)]
    pub fn node_addrs(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.len());
        collect_node_addrs(&self.root, &mut out);
        out
    }

    /// Test-only introspection: how many of `self`'s nodes are *not* shared
    /// (by address) with `snapshot` — i.e. the nodes a mutation freshly
    /// allocated. O(log n) of these per update is the structural-sharing
    /// guarantee the property tests pin. Every node is counted: an in-place
    /// (`Arc::make_mut`) update keeps a node's address while rewriting its
    /// children, so a known address says nothing about the subtree below.
    #[doc(hidden)]
    pub fn fresh_nodes_since(&self, snapshot: &PSeq) -> usize {
        let old: std::collections::HashSet<usize> = snapshot.node_addrs().into_iter().collect();
        self.node_addrs()
            .iter()
            .filter(|a| !old.contains(a))
            .count()
    }
}

impl PartialEq for PSeq {
    fn eq(&self, other: &Self) -> bool {
        self.ptr_eq(other) || (self.len() == other.len() && self.iter().eq(other.iter()))
    }
}

impl Eq for PSeq {}

impl PartialOrd for PSeq {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for PSeq {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if self.ptr_eq(other) {
            std::cmp::Ordering::Equal
        } else {
            self.iter().cmp(other.iter())
        }
    }
}

/// In-order iterator over a [`PSeq`], double-ended via two independent
/// descent stacks; the exact remaining count (subtree sizes make it free)
/// tells the two ends when they have met.
pub struct SeqIter<'a> {
    front: Vec<&'a Node>,
    back: Vec<&'a Node>,
    remaining: usize,
}

impl<'a> SeqIter<'a> {
    fn new(root: &'a Link) -> SeqIter<'a> {
        let mut iter = SeqIter {
            front: Vec::new(),
            back: Vec::new(),
            remaining: link_size(root),
        };
        iter.descend_left(root);
        iter.descend_right(root);
        iter
    }

    fn descend_left(&mut self, mut link: &'a Link) {
        while let Some(node) = link.as_deref() {
            self.front.push(node);
            link = &node.left;
        }
    }

    fn descend_right(&mut self, mut link: &'a Link) {
        while let Some(node) = link.as_deref() {
            self.back.push(node);
            link = &node.right;
        }
    }
}

impl<'a> Iterator for SeqIter<'a> {
    type Item = &'a ElemId;

    fn next(&mut self) -> Option<&'a ElemId> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let node = self.front.pop().expect("front stack tracks remaining");
        self.descend_left(&node.right);
        Some(&node.entry)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl<'a> DoubleEndedIterator for SeqIter<'a> {
    fn next_back(&mut self) -> Option<&'a ElemId> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let node = self.back.pop().expect("back stack tracks remaining");
        self.descend_right(&node.left);
        Some(&node.entry)
    }
}

impl ExactSizeIterator for SeqIter<'_> {}
impl std::iter::FusedIterator for SeqIter<'_> {}

impl<'a> IntoIterator for &'a PSeq {
    type Item = &'a ElemId;
    type IntoIter = SeqIter<'a>;

    fn into_iter(self) -> SeqIter<'a> {
        self.iter()
    }
}

impl std::ops::Index<usize> for PSeq {
    type Output = ElemId;

    fn index(&self, index: usize) -> &ElemId {
        self.get(index).unwrap_or_else(|| {
            panic!(
                "index out of bounds: the len is {} but the index is {index}",
                self.len()
            )
        })
    }
}

impl fmt::Debug for PSeq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl Hash for PSeq {
    fn hash<H: Hasher>(&self, state: &mut H) {
        hash_like_eager(self.len(), self.iter(), state);
    }
}

impl From<Vec<ElemId>> for PSeq {
    fn from(inner: Vec<ElemId>) -> PSeq {
        PSeq {
            root: build_from_slice(&inner),
        }
    }
}

impl From<PSeq> for Vec<ElemId> {
    fn from(handle: PSeq) -> Vec<ElemId> {
        handle.to_inner()
    }
}

impl FromIterator<ElemId> for PSeq {
    fn from_iter<I: IntoIterator<Item = ElemId>>(items: I) -> PSeq {
        let inner: Vec<ElemId> = items.into_iter().collect();
        PSeq::from(inner)
    }
}

impl PartialEq<Vec<ElemId>> for PSeq {
    fn eq(&self, other: &Vec<ElemId>) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Recomputes sizes and checks the weight-balance invariant bottom-up.
    fn check_tree(link: &Link) -> usize {
        match link.as_deref() {
            None => 0,
            Some(node) => {
                let ls = check_tree(&node.left);
                let rs = check_tree(&node.right);
                assert_eq!(node.size, ls + rs + 1, "stored size matches subtree");
                if ls + rs > 1 {
                    assert!(
                        ls <= DELTA * rs && rs <= DELTA * ls,
                        "weight balance violated: left {ls}, right {rs}"
                    );
                }
                node.size
            }
        }
    }

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
    }

    #[test]
    fn unique_handles_allocate_only_the_new_node() {
        // With a uniquely-owned tree, `Arc::make_mut` rewrites the descent
        // path in place: a push allocates exactly the one leaf it creates
        // (rotations reuse existing allocations), and an overwrite allocates
        // nothing at all.
        let fresh = |s: &PSeq, before: &[usize]| {
            s.node_addrs()
                .iter()
                .filter(|a| !before.contains(a))
                .count()
        };
        let mut s: PSeq = (0..64).map(ElemId).collect();
        let before = s.node_addrs();
        s.push(ElemId(100));
        assert_eq!(fresh(&s, &before), 1);
        let before = s.node_addrs();
        s.set(0, ElemId(99));
        assert_eq!(fresh(&s, &before), 0);
    }

    #[test]
    fn shared_handles_detach_logarithmically() {
        let n = 1024usize;
        let base: PSeq = (0..n as u32).map(ElemId).collect();
        let snapshot = base.clone();
        let mut mutated = base.clone();
        mutated.insert(n / 3, ElemId(5000));
        // Path copy: O(log n) fresh nodes, the rest shared with the snapshot.
        let fresh = mutated.fresh_nodes_since(&snapshot);
        assert!(fresh >= 1, "an insert allocates at least the new leaf");
        assert!(
            fresh <= 40,
            "insert into a shared {n}-element tree detached {fresh} nodes; expected O(log n)"
        );
        assert_eq!(snapshot.len(), n, "the snapshot is untouched");
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
    fn balanced_under_mixed_updates() {
        // Deterministic adversarial-ish schedules: ascending appends (the
        // classic unbalanced-BST killer), front inserts, then removes from
        // the middle.
        let mut q = PSeq::new();
        for i in 0..300u32 {
            q.push(ElemId(i));
            check_tree(&q.root);
        }
        for i in 0..300u32 {
            q.insert(0, ElemId(i)); // always at the front: left-heavy abuse
            check_tree(&q.root);
        }
        for _ in 0..450 {
            q.remove(q.len() / 2);
        }
        check_tree(&q.root);
        assert_eq!(q.len(), 150);
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
