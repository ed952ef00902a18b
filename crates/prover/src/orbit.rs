//! Orbit reduction over the anonymous padding block of the input space.
//!
//! Under one element-variable partition pattern (see [`crate::space`]), the
//! collection universe consists of the *named* element classes — the values
//! the pattern assigns to element variables, which hypotheses and goals can
//! therefore talk about — plus [`Scope::elem_padding`] *anonymous* padding
//! elements that no input variable denotes. The specification logic has no
//! element literals (only `null`, which is fixed separately), so no term can
//! distinguish two candidate models that differ by a permutation of the
//! padding elements applied uniformly to every collection value: evaluation
//! commutes with the relabeling ([`Value::map_elems`]), and the two models
//! refute exactly the same obligations.
//!
//! The orbit-canonical enumerator therefore emits one representative per
//! orbit of that permutation action: the tuple of collection-valued slots
//! that is **jointly lexicographically least** (by [`Value`]'s order, slot by
//! slot) among its images under all padding permutations. Canonicalization
//! must be joint — across all collection slots under one permutation — not
//! per slot: the action is diagonal, so reducing `({p1}, {p2})` slot-wise to
//! `({p1}, {p1})` would identify two models that are *not* isomorphic (one
//! has equal inputs, the other distinct ones) and the search would lose
//! counter-models. Named classes are excluded from the permutable block for
//! the same reason: an element variable (and through it every hypothesis
//! mentioning it) pins those identities.
//!
//! The check is incremental: the first slot at which some permutation's
//! image becomes strictly smaller decides non-canonicality for *every*
//! completion of that prefix, so the enumerator prunes the whole odometer
//! subtree in one step (the crate-internal `violation` check returns the
//! deciding slot). Each sorted collection candidate list carries, once per
//! process, the index of every value's image under every non-identity
//! block permutation (`image_tables`, stored beside the list in the
//! enumerator's memo — see [`crate::space`]), so the per-candidate check is
//! a handful of integer comparisons and no table is built per element
//! assignment.
//!
//! [`Scope::elem_padding`]: crate::scope::Scope::elem_padding
//! [`Value`]: semcommute_logic::Value
//! [`Value::map_elems`]: semcommute_logic::Value::map_elems

use std::ops::Range;
use std::sync::Arc;

use semcommute_logic::{ElemId, Value};

use crate::space::CandidateList;

/// The permutable block of anonymous padding element ids for an element
/// assignment whose largest named class is `max_named_class`, under
/// `elem_padding` anonymous elements: ids
/// `max_named_class + 1 ..= max_named_class + elem_padding`.
pub fn padding_block(max_named_class: u32, elem_padding: usize) -> Range<u32> {
    max_named_class + 1..max_named_class + 1 + elem_padding as u32
}

/// One permutation of a padding block. Ids inside the block map through the
/// table; every id outside the block (named classes, `null`) is fixed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockPerm {
    block_start: u32,
    /// `table[i]` is the image of id `block_start + i`.
    table: Vec<u32>,
}

impl BlockPerm {
    /// Applies the permutation to one element id.
    pub fn apply_elem(&self, e: ElemId) -> ElemId {
        match (e.0 as u64).checked_sub(self.block_start as u64) {
            Some(offset) if (offset as usize) < self.table.len() => {
                ElemId(self.table[offset as usize])
            }
            _ => e,
        }
    }

    /// Applies the permutation to a value (element-wise on collections,
    /// identity on booleans and integers).
    pub fn apply_value(&self, v: &Value) -> Value {
        v.map_elems(|e| self.apply_elem(e))
    }

    /// `true` when this is the identity permutation.
    pub fn is_identity(&self) -> bool {
        self.table
            .iter()
            .enumerate()
            .all(|(i, &img)| img == self.block_start + i as u32)
    }
}

/// Every permutation of the given block, identity first. The block sizes in
/// practice are tiny (`elem_padding` is 1–4), so the factorial growth is
/// harmless; callers that only need the non-identity permutations skip the
/// first entry.
pub fn block_permutations(block: Range<u32>) -> Vec<BlockPerm> {
    let ids: Vec<u32> = block.clone().collect();
    let mut out = Vec::new();
    let mut current = ids.clone();
    permute(&mut current, 0, block.start, &mut out);
    // The recursion emits the identity first because each level tries the
    // unswapped choice first; assert rather than rely on it silently.
    debug_assert!(out.first().is_none_or(|p| p.is_identity()));
    out
}

fn permute(ids: &mut Vec<u32>, at: usize, block_start: u32, out: &mut Vec<BlockPerm>) {
    if at == ids.len() {
        out.push(BlockPerm {
            block_start,
            table: ids.clone(),
        });
        return;
    }
    for i in at..ids.len() {
        ids.swap(at, i);
        permute(ids, at + 1, block_start, out);
        ids.swap(at, i);
    }
}

/// `true` when the tuple of values is the lexicographically least member of
/// its orbit under permutations of `block` (joint, slot-by-slot comparison
/// in [`Value`]'s order). Non-collection slots are fixed points of the
/// action and compare equal, so they may be included freely.
///
/// This is the *definition* the enumerator's incremental index-table check
/// (the crate-internal `violation`) is tested against; the enumerator never
/// calls it.
pub fn is_canonical(values: &[Value], block: Range<u32>) -> bool {
    for perm in block_permutations(block).iter().skip(1) {
        for v in values {
            match perm.apply_value(v).cmp(v) {
                std::cmp::Ordering::Less => return false,
                std::cmp::Ordering::Greater => break,
                std::cmp::Ordering::Equal => {}
            }
        }
    }
    true
}

/// The index images of a candidate list under every non-identity
/// permutation of `block`, in [`block_permutations`] order:
/// `images[p][i]` is the index in `list` of the image of `list[i]` under
/// permutation `p + 1`.
///
/// `list` must be sorted ascending by value, so index order *is* value
/// order and the canonicality check reduces to integer comparisons, and it
/// must be closed under the padding permutations — the bounds candidate
/// lists enforce (cardinality, length) are permutation-invariant.
pub(crate) fn image_tables(list: &[Value], block: Range<u32>) -> Vec<Vec<u32>> {
    debug_assert!(list.is_sorted(), "collection candidates must be sorted");
    block_permutations(block)[1..]
        .iter()
        .map(|perm| {
            list.iter()
                .map(|v| {
                    let index = list
                        .binary_search(&perm.apply_value(v))
                        .expect("candidate lists are closed under padding permutations");
                    index as u32
                })
                .collect()
        })
        .collect()
}

/// Checks the candidate tuple at `positions` (one index per odometer slot)
/// against the collection-valued `slots` (odometer slot indices, ascending,
/// each list carrying the [`image_tables`] of one and the same block).
/// Returns `None` when the tuple is canonical, or `Some(deciding_slot)` —
/// the smallest odometer slot at which some permutation's image becomes
/// strictly lex-smaller, proving every completion of the prefix up to and
/// including that slot non-canonical.
pub(crate) fn violation(
    lists: &[Arc<CandidateList>],
    slots: &[usize],
    positions: &[usize],
) -> Option<usize> {
    let perms = slots.first().map_or(0, |&slot| lists[slot].images.len());
    let mut deciding: Option<usize> = None;
    for p in 0..perms {
        for &slot in slots {
            if deciding.is_some_and(|d| slot >= d) {
                // A violation at or before this slot is already known;
                // this permutation can only decide later. Move on.
                break;
            }
            let pos = positions[slot];
            match (lists[slot].images[p][pos] as usize).cmp(&pos) {
                std::cmp::Ordering::Less => {
                    deciding = Some(slot);
                    break;
                }
                std::cmp::Ordering::Greater => break,
                std::cmp::Ordering::Equal => {}
            }
        }
    }
    deciding
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scope::Scope;
    use crate::space::candidate_list;
    use semcommute_logic::Sort;

    fn set(ids: &[u32]) -> Value {
        Value::set_of(ids.iter().map(|&i| ElemId(i)))
    }

    #[test]
    fn padding_block_sits_past_the_named_classes() {
        assert_eq!(padding_block(0, 2), 1..3);
        assert_eq!(padding_block(2, 2), 3..5);
        assert_eq!(padding_block(3, 0), 4..4);
    }

    #[test]
    fn block_permutations_count_and_identity_first() {
        assert_eq!(block_permutations(1..1).len(), 1);
        assert_eq!(block_permutations(1..2).len(), 1);
        assert_eq!(block_permutations(1..3).len(), 2);
        assert_eq!(block_permutations(1..4).len(), 6);
        for block in [1..1, 1..2, 1..3, 1..4, 3..6] {
            let perms = block_permutations(block.clone());
            assert!(perms[0].is_identity());
            // Each permutation maps the block onto itself.
            for p in &perms {
                let mut image: Vec<u32> =
                    block.clone().map(|e| p.apply_elem(ElemId(e)).0).collect();
                image.sort_unstable();
                assert_eq!(image, block.clone().collect::<Vec<u32>>());
            }
        }
    }

    #[test]
    fn apply_elem_fixes_everything_outside_the_block() {
        let swap = &block_permutations(3..5)[1];
        assert!(!swap.is_identity());
        assert_eq!(swap.apply_elem(ElemId(3)), ElemId(4));
        assert_eq!(swap.apply_elem(ElemId(4)), ElemId(3));
        assert_eq!(swap.apply_elem(ElemId(1)), ElemId(1));
        assert_eq!(swap.apply_elem(ElemId(7)), ElemId(7));
        assert_eq!(
            swap.apply_elem(semcommute_logic::NULL_ELEM),
            semcommute_logic::NULL_ELEM
        );
    }

    #[test]
    fn is_canonical_picks_one_representative_per_orbit() {
        // Block {1, 2}: the orbit { ({1}), ({2}) } has one canonical member.
        assert!(is_canonical(&[set(&[1])], 1..3));
        assert!(!is_canonical(&[set(&[2])], 1..3));
        // Fixed points are canonical.
        assert!(is_canonical(&[set(&[])], 1..3));
        assert!(is_canonical(&[set(&[1, 2])], 1..3));
        // Joint action: ({2}, {1}) maps to ({1}, {2}) which is smaller.
        assert!(is_canonical(&[set(&[1]), set(&[2])], 1..3));
        assert!(!is_canonical(&[set(&[2]), set(&[1])], 1..3));
        // Non-collection slots never decide.
        assert!(is_canonical(&[Value::Int(5), set(&[1])], 1..3));
        assert!(!is_canonical(&[Value::Int(5), set(&[2])], 1..3));
    }

    /// A scope whose memo lists the tests below read: orbit reduction on,
    /// `elem_padding` anonymous elements, sets of up to `entries` elements
    /// and the two integers `0..=1`.
    fn scope(elem_padding: usize, entries: usize) -> Scope {
        Scope {
            elem_padding,
            max_collection_entries: entries,
            int_min: 0,
            int_max: 1,
            ..Scope::small()
        }
        .with_orbit(true)
    }

    #[test]
    fn orbit_tables_agree_with_is_canonical_exhaustively() {
        // Two set slots and one int slot over universe {1, 2, 3} with block
        // {2, 3} (class 1 named): every position triple must be classified
        // exactly as the definitional check classifies its value tuple.
        let block = 2u32..4;
        let mut sets: Vec<Value> = vec![
            set(&[]),
            set(&[1]),
            set(&[2]),
            set(&[3]),
            set(&[1, 2]),
            set(&[1, 3]),
            set(&[2, 3]),
            set(&[1, 2, 3]),
        ];
        sets.sort();
        let ints: Vec<Value> = (0..2).map(Value::Int).collect();
        // The memo lists of `elem_padding` 2 at `max_class` 1: universe 3.
        let scope = scope(2, 3);
        let lists = vec![
            candidate_list(Sort::Set, 3, &scope),
            candidate_list(Sort::Int, 3, &scope),
            candidate_list(Sort::Set, 3, &scope),
        ];
        assert_eq!(lists[0].values, sets);
        assert_eq!(lists[1].values, ints);
        let slots = [0, 2];
        for a in 0..sets.len() {
            for (b, int_value) in ints.iter().enumerate() {
                for c in 0..sets.len() {
                    let positions = [a, b, c];
                    let values = vec![sets[a].clone(), int_value.clone(), sets[c].clone()];
                    assert_eq!(
                        violation(&lists, &slots, &positions).is_none(),
                        is_canonical(&values, block.clone()),
                        "tuple {values:?}"
                    );
                }
            }
        }
    }

    /// The memo lists of two set slots over universe {1, 2} with block
    /// {1, 2} (no named class), and the sorted values they must hold.
    fn two_padding_set_slots() -> (Vec<Arc<CandidateList>>, Vec<Value>) {
        let mut sets: Vec<Value> = vec![set(&[]), set(&[1]), set(&[2]), set(&[1, 2])];
        sets.sort();
        let scope = scope(2, 2);
        let lists = vec![
            candidate_list(Sort::Set, 2, &scope),
            candidate_list(Sort::Set, 2, &scope),
        ];
        assert_eq!(lists[0].values, sets);
        (lists, sets)
    }

    #[test]
    fn violation_reports_the_smallest_deciding_slot() {
        let (lists, sets) = two_padding_set_slots();
        let slots = [0, 1];
        let at = |v: &Value| sets.iter().position(|s| s == v).unwrap();
        // ({2}, {2}) is decided at slot 0 already: the swap sends it to
        // ({1}, {1}), strictly smaller in the first slot.
        assert_eq!(
            violation(&lists, &slots, &[at(&set(&[2])), at(&set(&[2]))]),
            Some(0)
        );
        // ({1}, {2}) ties at slot 0 under the swap and loses at slot 1? No:
        // the swap maps it to ({2}, {1}) which is *larger* at slot 0, so the
        // tuple is canonical.
        assert_eq!(
            violation(&lists, &slots, &[at(&set(&[1])), at(&set(&[2]))]),
            None
        );
        // ({1,2}, {2}): the swap fixes slot 0 and improves slot 1.
        assert_eq!(
            violation(&lists, &slots, &[at(&set(&[1, 2])), at(&set(&[2]))]),
            Some(1)
        );
    }

    /// The enumerator's range-split resume can land *inside* a pruned
    /// subtree (digits after the violating slot nonzero — a state a
    /// from-the-left scan never observes, because it bumps the whole
    /// subtree away in one step). The violation check must still report the
    /// same deciding slot: it only ever compares digits up to the slot it
    /// decides at, so suffix digits cannot change the answer.
    #[test]
    fn violation_is_prefix_decided_for_mid_subtree_resumes() {
        let (lists, sets) = two_padding_set_slots();
        let at = |v: &Value| sets.iter().position(|s| s == v).unwrap();
        // ({2}, *) violates at slot 0 for every suffix digit.
        let j = at(&set(&[2]));
        for suffix in 0..sets.len() {
            assert_eq!(
                violation(&lists, &[0, 1], &[j, suffix]),
                Some(0),
                "suffix {suffix}"
            );
        }
    }

    #[test]
    fn trivial_blocks_and_scalar_spaces_build_no_tables() {
        // Block {1}: sets over universe 1 under one padding element.
        let sets = candidate_list(Sort::Set, 1, &scope(1, 1));
        assert_eq!(sets.values, vec![set(&[]), set(&[1])]);
        assert!(sets.images.is_empty());
        // Block {1, 2}, but integers are fixed points: no tables, no slot.
        let ints = candidate_list(Sort::Int, 2, &scope(2, 2));
        assert_eq!(ints.len(), 2);
        assert!(ints.images.is_empty());
        assert_eq!(violation(&[ints], &[], &[1]), None);
    }
}
