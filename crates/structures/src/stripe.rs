//! Key stripes: the hash that places keys in a [`crate::HashSet`] or
//! [`crate::HashTable`] bucket, and the stripe a key falls in when a set or
//! map is split by key (`split` on each of the four keyed structures).
//!
//! A stripe is the low bits of the key's hash — the bits a hash table's
//! bucket index starts with. So a hash table with at least as many buckets
//! as stripes splits by moving whole bucket chains: bucket `b` holds only
//! keys of stripe `b mod stripes`, and becomes bucket `b / stripes` of that
//! stripe's part, which indexes its buckets by the hash bits above the
//! stripe (its *shift*).

use semcommute_logic::ElemId;

/// Multiplicative hash used to spread keys across buckets and stripes.
fn key_hash(key: ElemId) -> u32 {
    key.0.wrapping_mul(0x9E37_79B9)
}

/// The stripe of `key` among `1 << bits` stripes.
pub fn stripe_of(key: ElemId, bits: u32) -> usize {
    (key_hash(key) as usize) & ((1 << bits) - 1)
}

/// The bucket of `key` in a table of `buckets` buckets (a power of two)
/// indexed by the hash bits from `shift` up.
pub(crate) fn bucket_of(key: ElemId, buckets: usize, shift: u32) -> usize {
    debug_assert!(buckets.is_power_of_two());
    ((key_hash(key) >> shift) as usize) & (buckets - 1)
}

/// The split's shift for parts of a table indexed from `shift`, split into
/// `1 << bits` stripes.
pub(crate) fn part_shift(shift: u32, bits: u32) -> u32 {
    let shift = shift + bits;
    assert!(shift < 32, "a split leaves no hash bits for the buckets");
    shift
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        Abstraction, AssociationList, HashSet, HashTable, ListSet, MapInterface, SetInterface,
    };
    use semcommute_spec::AbstractState;

    /// The parts' states, which must be disjoint: their union.
    fn union(parts: impl IntoIterator<Item = AbstractState>) -> AbstractState {
        let mut parts = parts.into_iter();
        let mut out = parts.next().expect("at least one part");
        for part in parts {
            match (&mut out, part) {
                (AbstractState::Set(all), AbstractState::Set(part)) => {
                    assert!(all.is_disjoint(&part));
                    all.extend(part);
                }
                (AbstractState::Map(all), AbstractState::Map(part)) => {
                    assert!(part.keys().all(|k| !all.contains_key(k)));
                    all.extend(part);
                }
                other => panic!("mixed parts {other:?}"),
            }
        }
        out
    }

    /// Small tables relink node by node, large ones move chains; either
    /// way every part holds exactly its stripe's keys, the parts' union is
    /// the whole, and every part stays a valid structure that keeps working.
    #[test]
    fn splits_partition_by_stripe_and_keep_every_key() {
        const BITS: u32 = 3;
        for n in [0u32, 5, 40, 1_000] {
            let keys = (1..=n).map(|i| ElemId(i * 7));
            let set: HashSet = keys.clone().collect();
            let list: ListSet = keys.clone().collect();
            let table: HashTable = keys.clone().map(|k| (k, ElemId(k.0 + 1))).collect();
            let assoc: AssociationList = keys.clone().map(|k| (k, ElemId(k.0 + 1))).collect();
            let (whole_set, whole_map) = (set.abstract_state(), table.abstract_state());
            assert_eq!(list.abstract_state(), whole_set);
            assert_eq!(assoc.abstract_state(), whole_map);

            let mut sets = set.split(BITS);
            let lists = list.split(BITS);
            let mut tables = table.split(BITS);
            let assocs = assoc.split(BITS);
            for parts in [sets.len(), lists.len(), tables.len(), assocs.len()] {
                assert_eq!(parts, 1 << BITS);
            }
            assert_eq!(union(sets.iter().map(|p| p.abstract_state())), whole_set);
            assert_eq!(union(lists.iter().map(|p| p.abstract_state())), whole_set);
            assert_eq!(union(tables.iter().map(|p| p.abstract_state())), whole_map);
            assert_eq!(union(assocs.iter().map(|p| p.abstract_state())), whole_map);
            for stripe in 0..1 << BITS {
                let in_stripe = |k: &ElemId| stripe_of(*k, BITS) == stripe;
                assert!(sets[stripe].iter().all(|k| in_stripe(&k)), "n={n}");
                assert!(lists[stripe].iter().all(|k| in_stripe(&k)), "n={n}");
                assert!(tables[stripe].iter().all(|(k, _)| in_stripe(&k)), "n={n}");
                assert!(assocs[stripe].iter().all(|(k, _)| in_stripe(&k)), "n={n}");
                assert_eq!(sets[stripe].size(), lists[stripe].size(), "n={n}");
                assert_eq!(tables[stripe].size(), assocs[stripe].size(), "n={n}");
                for part in [
                    sets[stripe].check_invariants(),
                    tables[stripe].check_invariants(),
                ] {
                    assert_eq!(part, Ok(()), "n={n}");
                }
            }
            // The parts keep working: new keys of their stripe land in
            // their buckets, and growth rehashes by the bits above the
            // stripe.
            for k in (1..=200).map(|i| ElemId(i * 7 + 3)) {
                let stripe = stripe_of(k, BITS);
                assert!(sets[stripe].add(k));
                tables[stripe].put(k, k);
                assert!(sets[stripe].contains(k) && tables[stripe].contains_key(k));
            }
            for part in &sets {
                assert_eq!(part.check_invariants(), Ok(()));
            }
            for part in &mut tables {
                assert_eq!(part.check_invariants(), Ok(()));
                assert_eq!(part.count(), part.iter().count());
            }
        }
    }

    /// A part splits again by the hash bits above its stripe.
    #[test]
    fn a_part_splits_again_by_the_next_bits() {
        let set: HashSet = (1..=500).map(ElemId).collect();
        let part = set.split(2).swap_remove(1);
        let size = part.size();
        let subparts = part.split(2);
        assert_eq!(subparts.iter().map(|p| p.size()).sum::<usize>(), size);
        for (j, sub) in subparts.iter().enumerate() {
            assert_eq!(sub.check_invariants(), Ok(()));
            for k in sub.iter() {
                assert_eq!(stripe_of(k, 4), 1 + 4 * j);
            }
        }
    }
}
