//! Enumeration of candidate models over the relevant universe of an
//! obligation.
//!
//! The finite-model prover searches for a counter-model of an obligation by
//! enumerating assignments to the obligation's *input* variables only (defined
//! variables are computed by evaluation). The enumeration is symmetry-reduced:
//! element-sorted variables are assigned *partition patterns* (which variables
//! are equal, which are `null`) rather than raw identities, because the logic
//! cannot distinguish isomorphic renamings of the element universe.
//!
//! For each partition pattern the *universe* is the set of element classes
//! named by the pattern plus [`Scope::elem_padding`] anonymous elements;
//! collection-valued inputs are enumerated over that universe, bounded by
//! [`Scope::max_collection_entries`] / [`Scope::max_seq_len`].
//!
//! With [`Scope::orbit`] set, the padding elements themselves are
//! symmetry-reduced too: the anonymous elements are interchangeable, so
//! tuples of collection values are enumerated only in orbit-canonical form
//! under permutations of the padding block, with whole odometer subtrees
//! pruned as soon as a prefix is provably non-canonical (see
//! [`crate::orbit`]). The number of candidates skipped this way is reported
//! through [`SpaceIter::orbits_pruned`].
//!
//! A non-element variable's candidate list is a pure function of its sort,
//! the universe size, and the scope bounds the builder reads — never of the
//! obligation, the element assignment beyond its universe size, or
//! [`Scope::max_models`]. Each list is therefore built once per process
//! and shared: a process-wide memo maps that key to an immutable
//! `CandidateList` holding the values (sorted where the orbit reduction
//! compares by index) and, for sorted collection lists, the index images
//! of every value under each non-identity padding permutation. Entering an
//! element assignment — at every range start, every skipped assignment of a
//! mid-space seek, and every budget estimate — clones a few `Arc`s instead
//! of rebuilding, re-sorting and re-indexing lists. The memo is locked once
//! per list lookup, never on the per-candidate path.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex, OnceLock};

use semcommute_logic::{ElemId, Model, PMap, PSeq, PSet, Sort, Value, NULL_ELEM};

use crate::obligation::Obligation;
use crate::orbit::{image_tables, padding_block, violation};
use crate::scope::Scope;

/// The search space of candidate models for one obligation.
#[derive(Debug, Clone)]
pub struct InputSpace {
    scope: Scope,
    elem_vars: Vec<String>,
    other_vars: Vec<(String, Sort)>,
}

impl InputSpace {
    /// Builds the input space for an explicit set of variables.
    pub fn new(vars: &BTreeMap<String, Sort>, scope: Scope) -> InputSpace {
        let mut elem_vars = Vec::new();
        let mut other_vars = Vec::new();
        for (name, sort) in vars {
            if *sort == Sort::Elem {
                elem_vars.push(name.clone());
            } else {
                other_vars.push((name.clone(), *sort));
            }
        }
        InputSpace {
            scope,
            elem_vars,
            other_vars,
        }
    }

    /// Builds the input space of an obligation (its input variables under the
    /// given scope).
    pub fn from_obligation(ob: &Obligation, scope: Scope) -> InputSpace {
        InputSpace::new(&ob.input_vars(), scope)
    }

    /// The scope used by this space.
    pub fn scope(&self) -> &Scope {
        &self.scope
    }

    /// The element-sorted input variables (assigned via partition patterns).
    pub fn elem_vars(&self) -> &[String] {
        &self.elem_vars
    }

    /// The non-element input variables.
    pub fn other_vars(&self) -> &[(String, Sort)] {
        &self.other_vars
    }

    /// The enumeration order of all input variables: element variables first,
    /// then the rest — the slot order of a [`BlockBuf`] lane, and the input
    /// order [`crate::Program::lower`] assigns registers in.
    pub fn var_order(&self) -> Vec<String> {
        self.elem_vars
            .iter()
            .cloned()
            .chain(self.other_vars.iter().map(|(n, _)| n.clone()))
            .collect()
    }

    /// All element-variable partition patterns: for each variable, either
    /// `null` or an equivalence-class representative. Patterns are generated
    /// as restricted-growth strings so that isomorphic assignments appear
    /// exactly once.
    fn elem_assignments(&self) -> Vec<Vec<ElemId>> {
        let n = self.elem_vars.len();
        let mut out = Vec::new();
        // assignment[i] = 0 means null, k >= 1 means class k.
        let mut current = vec![0u32; n];
        fn rec(i: usize, max_class: u32, current: &mut Vec<u32>, out: &mut Vec<Vec<ElemId>>) {
            if i == current.len() {
                out.push(
                    current
                        .iter()
                        .map(|&c| if c == 0 { NULL_ELEM } else { ElemId(c) })
                        .collect(),
                );
                return;
            }
            for choice in 0..=(max_class + 1) {
                current[i] = choice;
                let new_max = max_class.max(choice);
                rec(i + 1, new_max, current, out);
            }
        }
        rec(0, 0, &mut current, &mut out);
        out
    }

    /// The largest element class named by an assignment (0 when every
    /// variable is `null` or there are none). Classes `1..=max_class` are
    /// pinned by element variables; everything above them in the universe is
    /// anonymous padding.
    fn max_class(assignment: &[ElemId]) -> u32 {
        assignment
            .iter()
            .filter(|e| !e.is_null())
            .map(|e| e.0)
            .max()
            .unwrap_or(0)
    }

    /// The size of the collection universe for a given element assignment:
    /// the classes used by the assignment plus `elem_padding` anonymous
    /// elements. The universe itself is the ids `1..=size`.
    fn universe(&self, assignment: &[ElemId]) -> u32 {
        InputSpace::max_class(assignment) + self.scope.elem_padding as u32
    }

    /// An estimate of the number of candidate models (used for reporting and
    /// for the `max_models` budget check). The estimate counts the
    /// *unreduced* enumeration; with [`Scope::orbit`] set the actual
    /// traversal emits fewer candidates, so the budget check stays
    /// conservative.
    pub fn estimated_size(&self) -> u128 {
        let mut total: u128 = 0;
        for assignment in self.elem_assignments() {
            let universe = self.universe(&assignment);
            let mut per: u128 = 1;
            for (_, sort) in &self.other_vars {
                let list = candidate_list(*sort, universe, &self.scope);
                per = per.saturating_mul(list.len() as u128);
            }
            total = total.saturating_add(per);
        }
        total.max(1)
    }

    /// Iterates over all candidate models in the space.
    pub fn iter(&self) -> SpaceIter<'_> {
        SpaceIter::new(self)
    }

    /// Iterates over the candidates whose **unreduced position** (their
    /// index in the plain orbit-off odometer enumeration — see
    /// [`SpaceIter::position`]) lies in `[lo, hi)`.
    ///
    /// Construction is O(#element-assignments), independent of `lo`: the
    /// resume point is computed by division, not by stepping the odometer.
    /// In orbit mode only the canonical candidates of the range are
    /// emitted, and [`SpaceIter::orbits_pruned`] counts exactly the
    /// non-canonical positions inside `[lo, hi)` — so for any partition of
    /// `[0, n)` into ranges, emitted candidates concatenate to the full
    /// enumeration and pruned counts sum to the full scan's count. This is
    /// the primitive behind the scheduler's splittable model-search range
    /// tasks.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn range_iter(&self, lo: u64, hi: u64) -> SpaceIter<'_> {
        SpaceIter::with_range(self, lo, hi)
    }
}

/// Whether candidate lists under `scope` are sorted for the orbit check:
/// orbit reduction on and a padding block of at least two elements (a
/// smaller block has no non-identity permutation, and the enumeration order
/// then stays byte-identical to orbit-off).
fn sorts_for_orbit(scope: &Scope) -> bool {
    scope.orbit && scope.elem_padding >= 2
}

fn is_collection(sort: Sort) -> bool {
    matches!(sort, Sort::Set | Sort::Map | Sort::Seq)
}

/// Everything a candidate list depends on: the sort, the universe size, and
/// the scope fields [`candidates`] and [`CandidateList::build`] read.
/// [`Scope::max_models`] is not part of it, so scopes that differ only in
/// their budget share lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct ListKey {
    sort: Sort,
    universe: u32,
    int_min: i64,
    int_max: i64,
    max_collection_entries: usize,
    max_seq_len: usize,
    elem_padding: usize,
    sorted: bool,
}

impl ListKey {
    fn new(sort: Sort, universe: u32, scope: &Scope) -> ListKey {
        ListKey {
            sort,
            universe,
            int_min: scope.int_min,
            int_max: scope.int_max,
            max_collection_entries: scope.max_collection_entries,
            max_seq_len: scope.max_seq_len,
            elem_padding: scope.elem_padding,
            sorted: sorts_for_orbit(scope),
        }
    }
}

/// One immutable candidate list of the enumerator, shared process-wide
/// through the memo behind [`candidate_list`].
#[derive(Debug)]
pub(crate) struct CandidateList {
    /// The candidate values in enumeration order: [`candidates`]' order,
    /// sorted ascending for collection sorts when the key sorts, so that
    /// index order is value order for the orbit check.
    pub(crate) values: Vec<Value>,
    /// `images[p][i]`: the index of the image of `values[i]` under the
    /// `p`-th non-identity permutation of the padding block
    /// `universe - elem_padding + 1 ..= universe` (see
    /// [`crate::orbit::image_tables`]). Empty for unsorted and scalar lists.
    pub(crate) images: Vec<Vec<u32>>,
}

impl CandidateList {
    fn build(sort: Sort, universe: u32, scope: &Scope) -> CandidateList {
        let mut values = candidates(sort, universe, scope);
        let mut images = Vec::new();
        if sorts_for_orbit(scope) && is_collection(sort) {
            values.sort();
            let padding = scope.elem_padding as u32;
            images = image_tables(
                &values,
                padding_block(universe - padding, scope.elem_padding),
            );
        }
        CandidateList { values, images }
    }

    /// Number of candidate values.
    pub(crate) fn len(&self) -> usize {
        self.values.len()
    }
}

/// The shared candidate list of sort `sort` over the universe `1..=universe`
/// under `scope`: built on first request (under the memo lock, so no key is
/// ever built twice) and shared by every later request with the same
/// [`ListKey`], from any space, range or thread.
pub(crate) fn candidate_list(sort: Sort, universe: u32, scope: &Scope) -> Arc<CandidateList> {
    type Memo = Mutex<HashMap<ListKey, Arc<CandidateList>>>;
    static MEMO: OnceLock<Memo> = OnceLock::new();
    let key = ListKey::new(sort, universe, scope);
    let mut memo = MEMO
        .get_or_init(Memo::default)
        .lock()
        .unwrap_or_else(|p| p.into_inner());
    Arc::clone(
        memo.entry(key)
            .or_insert_with(|| Arc::new(CandidateList::build(sort, universe, scope))),
    )
}

/// Builds the candidate values of a non-element variable of sort `sort`
/// over the universe `1..=universe`, in enumeration order (unsorted): the
/// direct construction [`candidate_list`] memoizes.
fn candidates(sort: Sort, universe: u32, scope: &Scope) -> Vec<Value> {
    let universe: Vec<ElemId> = (1..=universe).map(ElemId).collect();
    let universe = universe.as_slice();
    match sort {
        Sort::Bool => vec![Value::Bool(false), Value::Bool(true)],
        Sort::Int => (scope.int_min..=scope.int_max).map(Value::Int).collect(),
        Sort::Elem => universe
            .iter()
            .map(|&e| Value::Elem(e))
            .chain(std::iter::once(Value::Elem(NULL_ELEM)))
            .collect(),
        Sort::Set => subsets_up_to(universe, scope.max_collection_entries)
            .into_iter()
            .map(Value::Set)
            .collect(),
        Sort::Map => {
            let mut out = Vec::new();
            for keys in subsets_up_to(universe, scope.max_collection_entries) {
                let mut partial: Vec<PMap> = vec![PMap::new()];
                for k in keys.iter() {
                    let mut next = Vec::new();
                    for m in &partial {
                        for &v in universe {
                            // The clone is an O(1) handle copy; the
                            // insert copies the shared prefix's array once.
                            let mut m2 = m.clone();
                            m2.insert(*k, v);
                            next.push(m2);
                        }
                    }
                    partial = next;
                }
                out.extend(partial.into_iter().map(Value::Map));
            }
            out
        }
        Sort::Seq => {
            let mut out: Vec<PSeq> = vec![PSeq::new()];
            let mut frontier: Vec<PSeq> = vec![PSeq::new()];
            for _ in 0..scope.max_seq_len {
                let mut next = Vec::new();
                for s in &frontier {
                    for &e in universe {
                        let mut s2 = s.clone();
                        s2.push(e);
                        next.push(s2);
                    }
                }
                out.extend(next.iter().cloned());
                frontier = next;
            }
            out.into_iter().map(Value::Seq).collect()
        }
    }
}

/// Generates all subsets of `universe` with at most `max_len` elements.
///
/// Each subset is a flat [`PSet`] built by cloning its parent subset (an
/// O(1) handle copy) and inserting one element, which copies the parent's
/// array once into the new value's own. Since [`candidate_list`] builds each
/// list once per process, that copy happens once per value per process;
/// per-candidate use ([`SpaceIter::next_block`]) only ever clones handles.
fn subsets_up_to(universe: &[ElemId], max_len: usize) -> Vec<PSet> {
    let mut out: Vec<PSet> = vec![PSet::new()];
    for &e in universe {
        let mut additions = Vec::new();
        for s in &out {
            if s.len() < max_len {
                let mut s2 = s.clone();
                s2.insert(e);
                additions.push(s2);
            }
        }
        out.extend(additions);
    }
    out
}

/// Iterator over the candidate models of an [`InputSpace`].
///
/// With [`Scope::orbit`] set, the iterator emits only orbit-canonical
/// candidates (see [`crate::orbit`]): non-canonical tuples are stepped over
/// — pruning the whole odometer subtree of a doomed prefix at once — before
/// a position is ever observable through [`SpaceIter::next_block`] or
/// `next()`.
///
/// Every candidate — canonical or not — has a deterministic **unreduced
/// position**: its index in the plain odometer enumeration with the orbit
/// reduction off ([`SpaceIter::position`]). Unreduced positions are
/// random-access (per element assignment the candidate counts are known, so
/// a position decomposes into odometer digits by division), which is what
/// makes the space *range-addressable*: [`InputSpace::range_iter`] resumes
/// the enumeration mid-space in O(#assignments) and stops at an exclusive
/// bound, and a recursive partition of `[0, n)` into ranges tiles the
/// candidate set exactly — canonical candidates and pruned-as-non-canonical
/// counts both land in the unique range containing their position. The
/// obligation scheduler splits one obligation's model search into such
/// ranges; position order is also the tie-break that keeps "which
/// counter-model is reported" identical at every split granularity.
///
/// Entering an element assignment only looks up the shared candidate lists
/// of its universe size (see the module docs): every iterator over spaces of
/// one scope shape reads the same lists and the same orbit image tables.
pub struct SpaceIter<'a> {
    space: &'a InputSpace,
    elem_assignments: Vec<Vec<ElemId>>,
    elem_index: usize,
    /// The shared candidate list of each non-element variable under the
    /// current element assignment. In orbit mode the collection-valued
    /// lists are sorted ascending, so index order is value order.
    candidates: Vec<Arc<CandidateList>>,
    /// Odometer positions into `candidates`.
    positions: Vec<usize>,
    exhausted_current: bool,
    /// The odometer slots the orbit check compares, ascending: the
    /// collection-valued slots when their lists carry image tables, none
    /// when orbit reduction is off or the padding block is trivial.
    orbit_slots: Vec<usize>,
    /// Candidates skipped as non-canonical within `[start, end)` so far.
    orbits_pruned: u64,
    /// Unreduced position of the current candidate.
    upos: u64,
    /// Exclusive unreduced end bound (`u64::MAX` = the whole space).
    end: u64,
}

impl<'a> SpaceIter<'a> {
    fn new(space: &'a InputSpace) -> SpaceIter<'a> {
        SpaceIter::with_range(space, 0, u64::MAX)
    }

    fn with_range(space: &'a InputSpace, lo: u64, hi: u64) -> SpaceIter<'a> {
        assert!(lo <= hi, "invalid range [{lo}, {hi})");
        let elem_assignments = space.elem_assignments();
        let orbit_slots = space
            .other_vars
            .iter()
            .enumerate()
            .filter(|(_, (_, sort))| sorts_for_orbit(&space.scope) && is_collection(*sort))
            .map(|(slot, _)| slot)
            .collect();
        let mut it = SpaceIter {
            space,
            elem_assignments,
            elem_index: 0,
            candidates: Vec::new(),
            positions: Vec::new(),
            exhausted_current: true,
            orbit_slots,
            orbits_pruned: 0,
            upos: 0,
            end: hi,
        };
        it.load_current();
        it.settle();
        if lo > 0 {
            it.seek_unreduced(lo);
        }
        it.seek_canonical();
        it
    }

    /// The unreduced position of the current candidate: its index in the
    /// plain (orbit-off) odometer enumeration. Stable across split
    /// granularities and thread counts; after `next()` returns a candidate,
    /// its position is the value this returned *before* the call.
    pub fn position(&self) -> u64 {
        self.upos
    }

    /// Number of unreduced positions left in this assignment's odometer
    /// before digit `j` next increments: the remaining size of the current
    /// slot-`j` subtree. Equals the full subtree product when every digit
    /// past `j` is zero; a mid-subtree resume (a range starting inside a
    /// non-canonical region) lands with nonzero suffix digits and skips
    /// correspondingly less.
    fn suffix_remaining(&self, j: usize) -> u64 {
        let mut weight: u64 = 1;
        let mut value: u64 = 0;
        for k in (j + 1..self.positions.len()).rev() {
            value += self.positions[k] as u64 * weight;
            weight = weight.saturating_mul(self.candidates[k].len() as u64);
        }
        weight - value
    }

    /// Number of unreduced candidates under the current element assignment.
    fn current_count(&self) -> u64 {
        self.candidates
            .iter()
            .fold(1u64, |acc, c| acc.saturating_mul(c.len() as u64))
    }

    /// Positions the odometer at unreduced position `target` (counting
    /// nothing as pruned): walks the element assignments by their candidate
    /// counts, then splits the in-assignment remainder into digits. Runs in
    /// O(#assignments + #slots²), independent of `target` — the
    /// random-access resume that makes range splitting O(1) per split
    /// instead of O(range).
    fn seek_unreduced(&mut self, target: u64) {
        let mut base: u64 = 0;
        while !self.done() {
            let count = self.current_count();
            if target - base < count {
                let mut rem = target - base;
                for i in 0..self.positions.len() {
                    let weight: u64 = self.candidates[i + 1..]
                        .iter()
                        .fold(1u64, |acc, c| acc.saturating_mul(c.len() as u64));
                    self.positions[i] = (rem / weight) as usize;
                    rem %= weight;
                }
                self.upos = target;
                return;
            }
            base += count;
            self.elem_index += 1;
            self.load_current();
            self.settle();
        }
        // Past the end of the space: leave the iterator exhausted.
        self.upos = target;
    }

    /// Number of candidates the orbit reduction has skipped as
    /// non-canonical so far. Always zero with [`Scope::orbit`] off; after a
    /// full traversal, the unreduced enumeration size equals the canonical
    /// count plus this.
    pub fn orbits_pruned(&self) -> u64 {
        self.orbits_pruned
    }

    fn done(&self) -> bool {
        self.elem_index >= self.elem_assignments.len()
    }

    /// `true` when no further candidate will be emitted: the odometer ran
    /// off the space, or the current position reached the range's end bound.
    fn exhausted(&self) -> bool {
        self.done() || self.upos >= self.end
    }

    /// Skips past element assignments for which some variable has no
    /// candidate values (cannot happen with the current sorts, but handled
    /// defensively), so that `current_model` is valid whenever `!done()`.
    fn settle(&mut self) {
        while !self.done() && self.exhausted_current {
            self.elem_index += 1;
            self.load_current();
        }
    }

    /// Materializes up to `max` candidates into `out` (clearing it first) and
    /// returns how many were emitted — the block-mode counterpart of
    /// `next()`, used by the model search's block loop.
    ///
    /// Lane `k` of the block is exactly the `k`-th candidate `next()` would
    /// have emitted (its values in [`InputSpace::var_order`]), with its unreduced
    /// position recorded in [`BlockBuf::position`] and the cumulative
    /// [`SpaceIter::orbits_pruned`] snapshot *after* its advance (including
    /// any prune-ahead past it) in [`BlockBuf::pruned_after`] — the two
    /// numbers a driver that stops at lane `k`'s deciding event needs to
    /// report counters identical to the sequential scan.
    pub fn next_block(&mut self, max: usize, out: &mut BlockBuf) -> usize {
        out.values.clear();
        out.positions.clear();
        out.pruned_after.clear();
        out.width = self.space.elem_vars.len() + self.space.other_vars.len();
        let mut lanes = 0;
        while lanes < max && !self.exhausted() {
            out.positions.push(self.upos);
            for v in &self.elem_assignments[self.elem_index] {
                out.values.push(Value::Elem(*v));
            }
            for (cands, &pos) in self.candidates.iter().zip(&self.positions) {
                out.values.push(cands.values[pos].clone());
            }
            self.advance();
            out.pruned_after.push(self.orbits_pruned);
            lanes += 1;
        }
        lanes
    }

    fn load_current(&mut self) {
        let Some(assignment) = self.elem_assignments.get(self.elem_index) else {
            return;
        };
        let space = self.space;
        let universe = space.universe(assignment);
        self.candidates.clear();
        self.candidates.extend(
            space
                .other_vars
                .iter()
                .map(|(_, sort)| candidate_list(*sort, universe, &space.scope)),
        );
        self.positions.clear();
        self.positions.resize(self.candidates.len(), 0);
        self.exhausted_current = self.candidates.iter().any(|c| c.values.is_empty());
    }

    fn current_model(&self) -> Model {
        let mut m = Model::new();
        let assignment = &self.elem_assignments[self.elem_index];
        for (name, value) in self.space.elem_vars.iter().zip(assignment) {
            m.insert(name.clone(), Value::Elem(*value));
        }
        for ((name, _), (cands, &pos)) in self
            .space
            .other_vars
            .iter()
            .zip(self.candidates.iter().zip(&self.positions))
        {
            m.insert(name.clone(), cands.values[pos].clone());
        }
        m
    }

    fn advance(&mut self) {
        self.upos = self.upos.saturating_add(1);
        match self.positions.len() {
            0 => self.next_assignment(),
            n => self.bump(n - 1),
        }
        self.seek_canonical();
    }

    /// Advances the odometer treating `j` as the least-significant digit:
    /// positions above `j` reset to zero, positions `0..=j` carry; on
    /// overflow (or when there is no odometer at all) moves to the next
    /// element assignment. Bumping at `j < len - 1` is how the orbit
    /// reduction skips the whole subtree of a non-canonical prefix.
    fn bump(&mut self, j: usize) {
        for i in (j + 1)..self.positions.len() {
            self.positions[i] = 0;
        }
        for i in (0..=j).rev() {
            self.positions[i] += 1;
            if self.positions[i] < self.candidates[i].len() {
                return;
            }
            self.positions[i] = 0;
        }
        self.next_assignment();
    }

    fn next_assignment(&mut self) {
        self.elem_index += 1;
        self.load_current();
        self.settle();
    }

    /// Steps forward until the current candidate is orbit-canonical (no-op
    /// when orbit reduction is off or trivial). Every skipped candidate
    /// whose unreduced position lies inside `[start, end)` is counted into
    /// `orbits_pruned`; a non-canonical *prefix* prunes the rest of its
    /// subtree in one bump.
    ///
    /// Reached from a normal advance, every position above the deciding
    /// slot `j` is zero and the skip is the full slot-`j` subtree. Reached
    /// from a mid-range resume ([`SpaceIter::seek_unreduced`] can land
    /// anywhere, including inside a non-canonical subtree an unsplit scan
    /// would have pruned in one step from further left), the suffix digits
    /// are nonzero and [`SpaceIter::suffix_remaining`] skips only the
    /// positions from here to the subtree's end — so a partition of the
    /// space into ranges attributes every pruned position to exactly the
    /// range containing it, and pruned counts sum across subranges to the
    /// unsplit scan's count.
    fn seek_canonical(&mut self) {
        if self.orbit_slots.is_empty() {
            return;
        }
        while !self.exhausted() {
            let Some(j) = violation(&self.candidates, &self.orbit_slots, &self.positions) else {
                return;
            };
            let skip = self.suffix_remaining(j);
            self.orbits_pruned += skip.min(self.end - self.upos);
            self.upos = self.upos.saturating_add(skip);
            self.bump(j);
        }
    }
}

/// A reusable block of materialized candidates, filled by
/// [`SpaceIter::next_block`]: lane-major slot values plus each lane's
/// unreduced position and post-advance pruned-count snapshot.
#[derive(Debug, Default)]
pub struct BlockBuf {
    /// Lane-major values: lane `k`'s slot vector occupies
    /// `values[k * width .. (k + 1) * width]`, in [`InputSpace::var_order`]
    /// order.
    values: Vec<Value>,
    /// Unreduced position of each lane's candidate.
    positions: Vec<u64>,
    /// Cumulative [`SpaceIter::orbits_pruned`] snapshot taken right after
    /// each lane's candidate was advanced past — the orbit-pruned count a
    /// sequential scan stopping at that candidate would report (prune-ahead
    /// beyond the candidate included, exactly as the sequential iterator
    /// counts it).
    pruned_after: Vec<u64>,
    /// Number of input variables per lane.
    width: usize,
}

impl BlockBuf {
    /// Creates an empty block buffer (fill it with
    /// [`SpaceIter::next_block`]).
    pub fn new() -> BlockBuf {
        BlockBuf::default()
    }

    /// Number of materialized lanes.
    pub fn lanes(&self) -> usize {
        self.positions.len()
    }

    /// Number of input variables per lane.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The value of input variable `var` at lane `lane`.
    pub fn value(&self, lane: usize, var: usize) -> &Value {
        &self.values[lane * self.width + var]
    }

    /// The unreduced position of lane `lane`'s candidate.
    pub fn position(&self, lane: usize) -> u64 {
        self.positions[lane]
    }

    /// The cumulative orbit-pruned count right after lane `lane`'s candidate.
    pub fn pruned_after(&self, lane: usize) -> u64 {
        self.pruned_after[lane]
    }
}

impl Iterator for SpaceIter<'_> {
    type Item = Model;

    fn next(&mut self) -> Option<Model> {
        if self.exhausted() {
            return None;
        }
        let model = self.current_model();
        self.advance();
        Some(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semcommute_logic::build::*;

    fn vars(pairs: &[(&str, Sort)]) -> BTreeMap<String, Sort> {
        pairs.iter().map(|(n, s)| (n.to_string(), *s)).collect()
    }

    impl BlockBuf {
        /// A block of the given candidates, one lane each (positions and
        /// pruned counts zero): runs chosen inputs through the block executor
        /// in unit tests.
        pub(crate) fn from_lanes(lanes: &[Vec<Value>]) -> BlockBuf {
            BlockBuf {
                values: lanes.concat(),
                positions: vec![0; lanes.len()],
                pruned_after: vec![0; lanes.len()],
                width: lanes.first().map_or(0, Vec::len),
            }
        }
    }

    #[test]
    fn empty_space_yields_one_model() {
        let space = InputSpace::new(&BTreeMap::new(), Scope::small());
        let models: Vec<Model> = space.iter().collect();
        assert_eq!(models.len(), 1);
        assert!(models[0].is_empty());
    }

    #[test]
    fn single_bool_var_yields_two_models() {
        let space = InputSpace::new(&vars(&[("b", Sort::Bool)]), Scope::small());
        assert_eq!(space.iter().count(), 2);
        assert_eq!(space.estimated_size(), 2);
    }

    #[test]
    fn elem_vars_are_symmetry_reduced() {
        // Two element variables: null/null, null/c1, c1/null, c1=c1, c1!=c2.
        let space = InputSpace::new(
            &vars(&[("a", Sort::Elem), ("b", Sort::Elem)]),
            Scope::small(),
        );
        let models: Vec<Model> = space.iter().collect();
        assert_eq!(models.len(), 5);
        // At least one model has a == b != null and one has a != b.
        let same = models
            .iter()
            .any(|m| m.get("a") == m.get("b") && m.get("a").unwrap().as_elem() != Some(NULL_ELEM));
        let diff = models.iter().any(|m| {
            m.get("a") != m.get("b")
                && m.get("a").unwrap().as_elem() != Some(NULL_ELEM)
                && m.get("b").unwrap().as_elem() != Some(NULL_ELEM)
        });
        assert!(same && diff);
    }

    #[test]
    fn set_candidates_cover_membership_patterns() {
        let space = InputSpace::new(
            &vars(&[("v", Sort::Elem), ("s", Sort::Set)]),
            Scope::small(),
        );
        let models: Vec<Model> = space.iter().collect();
        // There is a model where v is in s and one where it is not.
        let member = models.iter().any(|m| {
            let v = m.get("v").unwrap().as_elem().unwrap();
            !v.is_null() && m.get("s").unwrap().as_set().unwrap().contains(&v)
        });
        let non_member = models.iter().any(|m| {
            let v = m.get("v").unwrap().as_elem().unwrap();
            !v.is_null() && !m.get("s").unwrap().as_set().unwrap().contains(&v)
        });
        assert!(member && non_member);
    }

    #[test]
    fn map_candidates_are_bounded() {
        let scope = Scope::small();
        let space = InputSpace::new(&vars(&[("m", Sort::Map)]), scope.clone());
        for model in space.iter() {
            let m = model.get("m").unwrap().as_map().unwrap();
            assert!(m.len() <= scope.max_collection_entries);
        }
    }

    #[test]
    fn seq_candidates_are_bounded() {
        let scope = Scope::small();
        let space = InputSpace::new(&vars(&[("q", Sort::Seq)]), scope.clone());
        let mut max_len = 0;
        for model in space.iter() {
            max_len = max_len.max(model.get("q").unwrap().as_seq().unwrap().len());
        }
        assert_eq!(max_len, scope.max_seq_len);
    }

    #[test]
    fn estimated_size_matches_iteration_for_small_spaces() {
        let space = InputSpace::new(
            &vars(&[("v", Sort::Elem), ("b", Sort::Bool), ("i", Sort::Int)]),
            Scope::small(),
        );
        assert_eq!(space.estimated_size(), space.iter().count() as u128);
    }

    #[test]
    fn from_obligation_uses_input_vars_only() {
        let ob = Obligation::new("t")
            .define("r", member(var_elem("v"), var_set("s")))
            .goal(var_bool("r"));
        let space = InputSpace::from_obligation(&ob, Scope::small());
        assert_eq!(space.elem_vars(), &["v".to_string()]);
        assert_eq!(space.other_vars().len(), 1);
        assert_eq!(space.other_vars()[0].0, "s");
    }

    #[test]
    fn orbit_enumeration_emits_exactly_the_canonical_candidates() {
        // One set variable, no element variables, two padding elements: the
        // unreduced candidates are the subsets of {o1, o2}; the swap o1<->o2
        // identifies {o1} with {o2}, so exactly one of them is emitted.
        let scope = Scope {
            elem_padding: 2,
            max_collection_entries: 2,
            ..Scope::small()
        };
        let off = InputSpace::new(&vars(&[("s", Sort::Set)]), scope.clone().with_orbit(false));
        let on = InputSpace::new(&vars(&[("s", Sort::Set)]), scope.clone().with_orbit(true));
        assert_eq!(off.iter().count(), 4);
        let mut it = on.iter();
        assert_eq!(it.by_ref().count(), 3);
        assert_eq!(it.orbits_pruned(), 1);

        // Joint canonicalization over two set slots: 16 unreduced tuples
        // collapse to (16 + 4 fixed points) / 2 = 10 orbits.
        let off2 = InputSpace::new(
            &vars(&[("s", Sort::Set), ("t", Sort::Set)]),
            scope.clone().with_orbit(false),
        );
        let on2 = InputSpace::new(
            &vars(&[("s", Sort::Set), ("t", Sort::Set)]),
            scope.with_orbit(true),
        );
        assert_eq!(off2.iter().count(), 16);
        let mut it = on2.iter();
        assert_eq!(it.by_ref().count(), 10);
        assert_eq!(it.orbits_pruned(), 6);
    }

    #[test]
    fn every_unreduced_candidate_is_reachable_from_a_canonical_one() {
        use crate::orbit::block_permutations;
        let scope = Scope {
            elem_padding: 2,
            max_collection_entries: 2,
            max_seq_len: 2,
            ..Scope::small()
        };
        let vars = vars(&[("v", Sort::Elem), ("q", Sort::Seq), ("s", Sort::Set)]);
        let canonical: Vec<Model> = InputSpace::new(&vars, scope.clone().with_orbit(true))
            .iter()
            .collect();
        let space_off = InputSpace::new(&vars, scope.with_orbit(false));
        for model in space_off.iter() {
            let max_class = model
                .get("v")
                .and_then(|v| v.as_elem())
                .filter(|e| !e.is_null())
                .map_or(0, |e| e.0);
            let block = crate::orbit::padding_block(max_class, 2);
            let reachable = block_permutations(block).iter().any(|perm| {
                let image = Model::from_bindings(
                    model
                        .iter()
                        .map(|(name, value)| (name.to_string(), perm.apply_value(value))),
                );
                canonical.contains(&image)
            });
            assert!(reachable, "no canonical representative for {model}");
        }
    }

    #[test]
    fn orbit_off_counts_unreduced_candidates_and_prunes_nothing() {
        let scope = Scope {
            elem_padding: 2,
            max_collection_entries: 2,
            ..Scope::small()
        };
        let space = InputSpace::new(&vars(&[("s", Sort::Set)]), scope.with_orbit(false));
        let mut it = space.iter();
        assert_eq!(it.by_ref().count(), 4);
        assert_eq!(it.orbits_pruned(), 0);
    }

    #[test]
    fn range_iter_tiles_the_space_at_any_cut() {
        let scope = Scope {
            elem_padding: 2,
            max_collection_entries: 2,
            max_seq_len: 2,
            ..Scope::small()
        };
        for orbit in [false, true] {
            let vars = vars(&[("v", Sort::Elem), ("q", Sort::Seq), ("s", Sort::Set)]);
            let space = InputSpace::new(&vars, scope.clone().with_orbit(orbit));
            let total = space.estimated_size() as u64;
            let mut full = space.iter();
            let all: Vec<Model> = full.by_ref().collect();
            let full_pruned = full.orbits_pruned();
            // Cut the space at every position: front ++ back must always
            // reproduce the full scan, candidates and pruned counts alike.
            for cut in 0..=total {
                let mut front = space.range_iter(0, cut);
                let mut back = space.range_iter(cut, total);
                let mut tiled: Vec<Model> = front.by_ref().collect();
                tiled.extend(back.by_ref());
                assert_eq!(tiled, all, "orbit {orbit}, cut {cut}");
                assert_eq!(
                    front.orbits_pruned() + back.orbits_pruned(),
                    full_pruned,
                    "orbit {orbit}, cut {cut}"
                );
            }
        }
    }

    #[test]
    fn next_block_matches_the_model_iterator_at_any_block_size() {
        let scope = Scope {
            elem_padding: 2,
            max_collection_entries: 2,
            max_seq_len: 2,
            ..Scope::small()
        };
        for orbit in [false, true] {
            let vars = vars(&[("v", Sort::Elem), ("q", Sort::Seq), ("s", Sort::Set)]);
            let space = InputSpace::new(&vars, scope.clone().with_orbit(orbit));
            // Sequential reference: one candidate at a time, with the
            // position before and the pruned snapshot after each emission.
            let mut seq = space.iter();
            let mut expected: Vec<(u64, Model, u64)> = Vec::new();
            loop {
                let upos = seq.position();
                let Some(model) = seq.next() else {
                    break;
                };
                expected.push((upos, model, seq.orbits_pruned()));
            }
            let order = space.var_order();
            for block_size in [1, 3, 7, 256] {
                let mut it = space.iter();
                let mut block = BlockBuf::new();
                let mut got: Vec<(u64, Model, u64)> = Vec::new();
                loop {
                    let lanes = it.next_block(block_size, &mut block);
                    if lanes == 0 {
                        break;
                    }
                    assert!(lanes <= block_size);
                    for lane in 0..lanes {
                        let model = Model::from_bindings(
                            order
                                .iter()
                                .enumerate()
                                .map(|(v, name)| (name.clone(), block.value(lane, v).clone())),
                        );
                        got.push((block.position(lane), model, block.pruned_after(lane)));
                    }
                }
                assert_eq!(got, expected, "orbit {orbit}, block size {block_size}");
                assert_eq!(it.orbits_pruned(), seq.orbits_pruned());
            }
        }
    }

    #[test]
    fn positions_count_unreduced_candidates() {
        // One set variable over two padding elements, orbit on. The sorted
        // candidate list is [{}, {o1}, {o1,o2}, {o2}] (BTreeSet order), so
        // the canonical candidates keep unreduced positions 0, 1, 2 and the
        // pruned {o2} (the non-canonical image of {o1}) is position 3.
        let scope = Scope {
            elem_padding: 2,
            max_collection_entries: 2,
            ..Scope::small()
        };
        let space = InputSpace::new(&vars(&[("s", Sort::Set)]), scope.with_orbit(true));
        let mut it = space.iter();
        let mut seen = Vec::new();
        loop {
            let upos = it.position();
            if it.next().is_none() {
                break;
            }
            seen.push(upos);
        }
        assert_eq!(seen, vec![0, 1, 2]);
        assert_eq!(it.orbits_pruned(), 1);
        // A range covering only the pruned tail emits nothing and counts it.
        let mut tail = space.range_iter(3, 4);
        assert_eq!(tail.next(), None);
        assert_eq!(tail.orbits_pruned(), 1);
    }

    #[test]
    fn empty_and_degenerate_ranges_emit_nothing() {
        let space = InputSpace::new(&vars(&[("b", Sort::Bool)]), Scope::small());
        assert_eq!(space.range_iter(0, 0).count(), 0);
        assert_eq!(space.range_iter(1, 1).count(), 0);
        assert_eq!(space.range_iter(2, 2).count(), 0);
        // A range past the end of the space is empty, not an error.
        assert_eq!(space.range_iter(2, 100).count(), 0);
        assert_eq!(space.range_iter(0, 2).count(), 2);
    }

    #[test]
    fn candidate_lists_are_shared_per_key() {
        let scope = Scope {
            elem_padding: 2,
            max_collection_entries: 2,
            max_seq_len: 2,
            ..Scope::small()
        }
        .with_orbit(true);
        let vars = vars(&[
            ("v", Sort::Elem),
            ("i", Sort::Int),
            ("q", Sort::Seq),
            ("s", Sort::Set),
        ]);
        let same = |x: &SpaceIter, y: &SpaceIter| {
            assert_eq!(x.elem_index, y.elem_index);
            assert_eq!(x.candidates.len(), 3);
            for (a, b) in x.candidates.iter().zip(&y.candidates) {
                assert!(Arc::ptr_eq(a, b));
            }
        };
        // Two spaces of one scope shape share their lists...
        let a = InputSpace::new(&vars, scope.clone());
        let b = InputSpace::new(&vars, scope.clone());
        same(&a.iter(), &b.iter());
        // ...and so do two ranges of one space, here both starting in the
        // second element assignment (v = class 1, universe 3).
        let first = a.iter().current_count();
        let left = a.range_iter(first, first + 1);
        let right = a.range_iter(first + 1, u64::MAX);
        same(&left, &right);
        assert_eq!(left.elem_index, 1);
        let seq = candidate_list(Sort::Seq, 3, &scope);
        assert!(Arc::ptr_eq(&left.candidates[1], &seq));

        // Scopes that differ in one key field each get their own list,
        // equal to a direct build. Interleaved lookups over one universe
        // size: a key collision would hand one scope another's list.
        let variants = [
            scope.clone(),
            scope.clone().with_orbit(false),
            Scope {
                elem_padding: 1,
                ..scope.clone()
            },
            Scope {
                elem_padding: 3,
                ..scope.clone()
            },
            Scope {
                max_collection_entries: 3,
                ..scope.clone()
            },
            Scope {
                max_seq_len: 3,
                ..scope.clone()
            },
            Scope {
                int_min: -3,
                ..scope.clone()
            },
            Scope {
                int_max: 2,
                ..scope.clone()
            },
        ];
        let sorts = [
            Sort::Bool,
            Sort::Int,
            Sort::Elem,
            Sort::Set,
            Sort::Map,
            Sort::Seq,
        ];
        let universe = 4;
        for _round in 0..2 {
            for sort in sorts {
                for scope in &variants {
                    let list = candidate_list(sort, universe, scope);
                    let collection = matches!(sort, Sort::Set | Sort::Map | Sort::Seq);
                    let sorted = collection && scope.orbit && scope.elem_padding >= 2;
                    let mut want = candidates(sort, universe, scope);
                    if sorted {
                        want.sort();
                    }
                    assert_eq!(list.values, want, "{sort:?} under {scope:?}");
                    let padding = scope.elem_padding as u32;
                    let block = padding_block(universe - padding, scope.elem_padding);
                    let perms = crate::orbit::block_permutations(block);
                    let want_images = if sorted { perms.len() - 1 } else { 0 };
                    assert_eq!(list.images.len(), want_images, "{sort:?} under {scope:?}");
                    for (images, perm) in list.images.iter().zip(&perms[1..]) {
                        for (value, &image) in list.values.iter().zip(images) {
                            assert_eq!(list.values[image as usize], perm.apply_value(value));
                        }
                    }
                }
            }
        }

        // The model budget is not part of the key.
        for sort in sorts {
            assert!(Arc::ptr_eq(
                &candidate_list(sort, universe, &scope),
                &candidate_list(sort, universe, &scope.clone().with_max_models(7)),
            ));
        }
    }

    #[test]
    fn int_candidates_respect_scope_bounds() {
        let scope = Scope::small();
        let space = InputSpace::new(&vars(&[("i", Sort::Int)]), scope.clone());
        for model in space.iter() {
            let i = model.get("i").unwrap().as_int().unwrap();
            assert!(i >= scope.int_min && i <= scope.int_max);
        }
    }
}
