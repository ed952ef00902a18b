//! Property-based tests of the copy-on-write collection values: a [`PSet`] /
//! [`PMap`] / [`PSeq`] (one flat array behind a shared handle) driven
//! through an arbitrary update sequence is observationally identical to the
//! eager `BTreeSet` / `BTreeMap` / `Vec` driven through the same sequence
//! (contents, iteration order, equality, ordering, hashing), and a handle
//! that was shared and then updated never aliases its siblings.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};

use proptest::prelude::*;

use semcommute_logic::{ElemId, PMap, PSeq, PSet, Value};

fn hash_of<T: Hash>(t: &T) -> u64 {
    let mut h = DefaultHasher::new();
    t.hash(&mut h);
    h.finish()
}

/// One update against a set-shaped value.
#[derive(Debug, Clone)]
enum SetOp {
    Insert(u32),
    Remove(u32),
}

fn set_ops() -> impl Strategy<Value = Vec<SetOp>> {
    proptest::collection::vec(
        (proptest::bool::ANY, 0u32..6).prop_map(|(ins, e)| {
            if ins {
                SetOp::Insert(e)
            } else {
                SetOp::Remove(e)
            }
        }),
        0..12,
    )
}

/// One update against a sequence-shaped value.
#[derive(Debug, Clone)]
enum SeqOp {
    Push(u32),
    InsertAt(usize, u32),
    RemoveAt(usize),
    SetAt(usize, u32),
}

fn seq_ops() -> impl Strategy<Value = Vec<SeqOp>> {
    proptest::collection::vec(
        (0u32..4, 0usize..8, 0u32..6).prop_map(|(kind, idx, e)| match kind {
            0 => SeqOp::Push(e),
            1 => SeqOp::InsertAt(idx, e),
            2 => SeqOp::RemoveAt(idx),
            _ => SeqOp::SetAt(idx, e),
        }),
        0..12,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Driving a persistent set and an eager set through the same update
    /// sequence keeps them observationally identical, and every return value
    /// agrees along the way.
    #[test]
    fn pset_matches_eager_set(init in proptest::collection::btree_set(0u32..6, 0..4), ops in set_ops()) {
        let eager: BTreeSet<ElemId> = init.into_iter().map(ElemId).collect();
        let mut persistent: PSet = eager.iter().copied().collect();
        let mut reference = eager;
        for op in ops {
            match op {
                SetOp::Insert(e) => {
                    prop_assert_eq!(persistent.insert(ElemId(e)), reference.insert(ElemId(e)));
                }
                SetOp::Remove(e) => {
                    prop_assert_eq!(persistent.remove(&ElemId(e)), reference.remove(&ElemId(e)));
                }
            }
            prop_assert_eq!(persistent.len(), reference.len());
            prop_assert!(persistent.iter().eq(reference.iter()), "iteration order diverged");
            prop_assert_eq!(hash_of(&persistent), hash_of(&reference), "hashes diverged");
            prop_assert_eq!(persistent.to_inner(), reference.clone());
        }
    }

    /// Same for maps, including the `insert` return value (the previous
    /// binding) and `remove` (the removed value).
    #[test]
    fn pmap_matches_eager_map(
        init in proptest::collection::btree_map(0u32..5, 0u32..5, 0..4),
        ops in proptest::collection::vec((0u32..3, 0u32..5, 0u32..5), 0..12),
    ) {
        let eager: BTreeMap<ElemId, ElemId> =
            init.into_iter().map(|(k, v)| (ElemId(k), ElemId(v))).collect();
        let mut persistent: PMap = eager.iter().map(|(&k, &v)| (k, v)).collect();
        let mut reference = eager;
        for (kind, k, v) in ops {
            let (k, v) = (ElemId(k), ElemId(v));
            match kind {
                0 | 1 => {
                    prop_assert_eq!(persistent.insert(k, v), reference.insert(k, v));
                }
                _ => {
                    prop_assert_eq!(persistent.remove(&k), reference.remove(&k));
                }
            }
            prop_assert!(persistent.iter().eq(reference.iter()), "iteration order diverged");
            prop_assert_eq!(hash_of(&persistent), hash_of(&reference), "hashes diverged");
            prop_assert_eq!(persistent.to_inner(), reference.clone());
        }
    }

    /// Same for sequences, mirroring the evaluator's bounds-checked use of
    /// `insert` / `remove` / `set`.
    #[test]
    fn pseq_matches_eager_vec(init in proptest::collection::vec(0u32..6, 0..4), ops in seq_ops()) {
        let eager: Vec<ElemId> = init.into_iter().map(ElemId).collect();
        let mut persistent: PSeq = eager.iter().copied().collect();
        let mut reference = eager;
        for op in ops {
            match op {
                SeqOp::Push(e) => {
                    persistent.push(ElemId(e));
                    reference.push(ElemId(e));
                }
                SeqOp::InsertAt(i, e) => {
                    let i = i.min(reference.len());
                    persistent.insert(i, ElemId(e));
                    reference.insert(i, ElemId(e));
                }
                SeqOp::RemoveAt(i) => {
                    if i < reference.len() {
                        prop_assert_eq!(persistent.remove(i), reference.remove(i));
                    }
                }
                SeqOp::SetAt(i, e) => {
                    if i < reference.len() {
                        persistent.set(i, ElemId(e));
                        reference[i] = ElemId(e);
                    }
                }
            }
            prop_assert_eq!(persistent.len(), reference.len());
            prop_assert!(persistent.iter().eq(reference.iter()), "iteration order diverged");
            prop_assert_eq!(hash_of(&persistent), hash_of(&reference), "hashes diverged");
            prop_assert_eq!(persistent.to_inner(), reference.clone());
        }
    }

    /// Equality, ordering, and hashing of persistent handles are structural:
    /// they agree with the eager collections for arbitrary pairs, both at the
    /// handle level and wrapped in [`Value`].
    #[test]
    fn comparisons_are_structural(
        a in proptest::collection::btree_set(0u32..6, 0..4),
        b in proptest::collection::btree_set(0u32..6, 0..4),
    ) {
        let ea: BTreeSet<ElemId> = a.into_iter().map(ElemId).collect();
        let eb: BTreeSet<ElemId> = b.into_iter().map(ElemId).collect();
        let pa = PSet::from(ea.clone());
        let pb = PSet::from(eb.clone());
        prop_assert_eq!(pa == pb, ea == eb);
        prop_assert_eq!(pa.cmp(&pb), ea.cmp(&eb));
        prop_assert_eq!(hash_of(&pa) == hash_of(&pb), hash_of(&ea) == hash_of(&eb));
        let va = Value::set_of(ea.iter().copied());
        let vb = Value::set_of(eb.iter().copied());
        prop_assert_eq!(va == vb, ea == eb);
        prop_assert_eq!(va.cmp(&vb), ea.cmp(&eb));
    }

    /// A shared handle that is then mutated never aliases its sibling: the
    /// sibling observes the original contents, and the two handles no longer
    /// share storage (while an untouched clone still does).
    #[test]
    fn shared_then_mutated_values_never_alias(
        init in proptest::collection::btree_set(0u32..6, 0..4),
        e in 0u32..8,
    ) {
        let original: PSet = init.iter().copied().map(ElemId).collect();
        let snapshot = original.to_inner();
        let untouched = original.clone();
        let mut mutated = original.clone();
        prop_assert!(mutated.ptr_eq(&original));

        let grew = mutated.insert(ElemId(e));
        prop_assert_eq!(original.to_inner(), snapshot.clone(), "mutation leaked into the original");
        prop_assert!(untouched.ptr_eq(&original), "untouched clone lost sharing");
        if grew {
            prop_assert!(!mutated.ptr_eq(&original), "mutated clone still aliases");
            prop_assert_eq!(mutated.len(), snapshot.len() + 1);
        }

        // Same through the `Value` wrapper, exercising the evaluator's path.
        let v = Value::set_of(snapshot.iter().copied());
        let mut w = v.clone();
        if let Value::Set(s) = &mut w {
            s.insert(ElemId(e));
        }
        prop_assert_eq!(v.as_set().unwrap(), &snapshot);
        prop_assert!(w.as_set().unwrap().contains(&ElemId(e)));
    }

    /// Sequence handles: mutating one of two clones leaves the other intact.
    #[test]
    fn shared_seq_mutation_does_not_alias(init in proptest::collection::vec(0u32..6, 0..5), e in 0u32..6) {
        let original: PSeq = init.iter().copied().map(ElemId).collect();
        let snapshot = original.to_inner();
        let mut mutated = original.clone();
        mutated.push(ElemId(e));
        prop_assert_eq!(original.to_inner(), snapshot.clone());
        prop_assert!(!mutated.ptr_eq(&original));
        prop_assert_eq!(mutated.len(), snapshot.len() + 1);
    }

    /// Reverse iteration also matches the eager collections — the evaluator
    /// relies on `rposition`, which walks the double-ended iterator from the
    /// back.
    #[test]
    fn reverse_iteration_matches_eager(
        set in proptest::collection::btree_set(0u32..50, 0..20),
        seq in proptest::collection::vec(0u32..50, 0..20),
    ) {
        let eset: BTreeSet<ElemId> = set.into_iter().map(ElemId).collect();
        let pset: PSet = eset.iter().copied().collect();
        prop_assert!(pset.iter().rev().eq(eset.iter().rev()));

        let emap: BTreeMap<ElemId, ElemId> =
            eset.iter().map(|&k| (k, ElemId(k.0 + 1))).collect();
        let pmap: PMap = emap.iter().map(|(&k, &v)| (k, v)).collect();
        prop_assert!(pmap.iter().rev().eq(emap.iter().rev()));

        let eseq: Vec<ElemId> = seq.into_iter().map(ElemId).collect();
        let pseq: PSeq = eseq.iter().copied().collect();
        prop_assert!(pseq.iter().rev().eq(eseq.iter().rev()));
        prop_assert_eq!(
            pseq.iter().rposition(|&e| e == ElemId(3)),
            eseq.iter().rposition(|&e| e == ElemId(3))
        );
    }

    /// Relabeling a set or map through a random permutation of `1..=6`
    /// equals the eager relabel (the `BTreeSet` / `BTreeMap` rebuilt from
    /// the mapped entries), hash included: the flat image must be re-sorted.
    #[test]
    fn map_elems_matches_eager_relabel(
        set in proptest::collection::btree_set(1u32..7, 0..6),
        map in proptest::collection::btree_map(1u32..7, 1u32..7, 0..6),
        keys in proptest::collection::vec(0u32..1000, 6),
    ) {
        // The permutation sends `i + 1` to `order[i] + 1`, where `order`
        // sorts the random keys (ties by index): uniform enough, and always
        // a bijection.
        let mut order: Vec<u32> = (0..6).collect();
        order.sort_by_key(|&i| (keys[i as usize], i));
        let pi = |e: ElemId| ElemId(order[e.0 as usize - 1] + 1);

        let eset: BTreeSet<ElemId> = set.into_iter().map(ElemId).collect();
        let image = PSet::from(eset.clone()).map_elems(pi);
        let eager: BTreeSet<ElemId> = eset.iter().map(|&e| pi(e)).collect();
        prop_assert_eq!(&image, &eager);
        prop_assert_eq!(hash_of(&image), hash_of(&eager));

        let emap: BTreeMap<ElemId, ElemId> =
            map.into_iter().map(|(k, v)| (ElemId(k), ElemId(v))).collect();
        let image = PMap::from(emap.clone()).map_elems(pi);
        let eager: BTreeMap<ElemId, ElemId> = emap.iter().map(|(&k, &v)| (pi(k), pi(v))).collect();
        prop_assert_eq!(&image, &eager);
        prop_assert_eq!(hash_of(&image), hash_of(&eager));
    }

    /// Sequence comparison semantics are structural too: `Eq`/`Ord`/`Hash`
    /// of `PSeq` handles agree with the eager `Vec` for arbitrary pairs.
    #[test]
    fn seq_comparisons_are_structural(
        a in proptest::collection::vec(0u32..6, 0..6),
        b in proptest::collection::vec(0u32..6, 0..6),
    ) {
        let ea: Vec<ElemId> = a.into_iter().map(ElemId).collect();
        let eb: Vec<ElemId> = b.into_iter().map(ElemId).collect();
        let pa: PSeq = ea.iter().copied().collect();
        let pb: PSeq = eb.iter().copied().collect();
        prop_assert_eq!(pa == pb, ea == eb);
        prop_assert_eq!(pa.cmp(&pb), ea.cmp(&eb));
        prop_assert_eq!(hash_of(&pa) == hash_of(&pb), hash_of(&ea) == hash_of(&eb));
    }
}
