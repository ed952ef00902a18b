//! Seed-failure triage for the orbit reduction: exact, hand-computed
//! `models_checked` / `orbits_pruned` counts for two small interfaces — a
//! set-shaped and a sequence-shaped input space. If a future change to the
//! enumeration drifts (a pruning bug, a candidate-ordering change, a block
//! boundary off-by-one), these tests fail with a readable count diff instead
//! of a silent performance or soundness regression surfacing only in the
//! full-catalog differential harness.
//!
//! The hand computation, spelled out so the expected numbers are auditable:
//! with no element variables and two padding elements the universe is
//! `{o1, o2}` and the only non-trivial permutation swaps them. For a single
//! set variable (entries ≤ 2) the unreduced candidates are the four subsets;
//! `{o2}` is the swap-image of `{o1}`, so three are canonical. For two set
//! variables the action is *joint*: of the 16 pairs, the 4 fixed points
//! (both slots `{}` or `{o1, o2}`) are their own orbit and the remaining 12
//! pair up, giving 4 + 12/2 = 10 canonical pairs. For one sequence variable
//! (length ≤ 2) the 7 unreduced sequences split into orbits
//! `{[]}`, `{[o1], [o2]}`, `{[o1 o1], [o2 o2]}`, `{[o1 o2], [o2 o1]}`: 4
//! canonical. With an element variable `v` the padding block *excludes* the
//! class `v` names: under `v = o1` the universe is `{o1, o2, o3}` but only
//! `o2 ↔ o3` permutes, so `{o1}` and `{o2}` are both canonical while `{o3}`
//! is pruned.

use std::collections::BTreeMap;

use semcommute::logic::build::*;
use semcommute::logic::Sort;
use semcommute::prover::{FiniteModelProver, InputSpace, Obligation, Scope};

/// Two anonymous padding elements, collections bounded at two entries /
/// length two, a minimal int range — every count below is hand-computed
/// against exactly these bounds. Orbit is pinned on explicitly so the
/// `SEMCOMMUTE_ORBIT=off` CI oracle leg still runs the reduced enumerator
/// here (the whole point is to pin its counts).
fn scope() -> Scope {
    Scope {
        elem_padding: 2,
        max_collection_entries: 2,
        max_seq_len: 2,
        int_min: 0,
        int_max: 0,
        max_models: 1_000_000,
        orbit: true,
    }
}

fn vars(pairs: &[(&str, Sort)]) -> BTreeMap<String, Sort> {
    pairs.iter().map(|(n, s)| (n.to_string(), *s)).collect()
}

/// Enumerates a space both ways and checks (emitted, pruned, unreduced).
fn assert_counts(pairs: &[(&str, Sort)], expected: (usize, u64, usize)) {
    let (canonical, pruned, unreduced) = expected;
    let on = InputSpace::new(&vars(pairs), scope());
    let mut it = on.iter();
    let emitted = it.by_ref().count();
    assert_eq!(
        (emitted, it.orbits_pruned()),
        (canonical, pruned),
        "orbit-on enumeration of {pairs:?} drifted: expected {canonical} canonical \
         candidates with {pruned} pruned"
    );
    let off = InputSpace::new(&vars(pairs), scope().with_orbit(false));
    assert_eq!(
        off.iter().count(),
        unreduced,
        "unreduced enumeration of {pairs:?} drifted"
    );
    assert_eq!(
        canonical as u64 + pruned,
        unreduced as u64,
        "canonical + pruned must tile the unreduced space of {pairs:?}"
    );
}

#[test]
fn set_interface_counts_are_exact() {
    // One set slot: subsets of {o1, o2} — {o2} is the one pruned image.
    assert_counts(&[("s", Sort::Set)], (3, 1, 4));
    // Two set slots, joint action: (16 + 4 fixed points) / 2 = 10 orbits.
    assert_counts(&[("s", Sort::Set), ("t", Sort::Set)], (10, 6, 16));
    // An element variable pins its class: under v = o1 the block is
    // {o2, o3} (7 subsets, 5 canonical), under v = null it is {o1, o2}
    // (4 subsets, 3 canonical). Totals: 8 canonical, 3 pruned, 11 raw.
    assert_counts(&[("v", Sort::Elem), ("s", Sort::Set)], (8, 3, 11));
}

#[test]
fn sequence_interface_counts_are_exact() {
    // One sequence slot: 7 sequences up to length 2 over {o1, o2} in 4
    // orbits.
    assert_counts(&[("q", Sort::Seq)], (4, 3, 7));
    // Sequence × set, jointly: of the 7 × 4 = 28 pairs, the fixed points
    // are (seq fixed) × (set fixed) = 1 × 2, so (28 + 2) / 2 = 15 orbits.
    assert_counts(&[("q", Sort::Seq), ("s", Sort::Set)], (15, 13, 28));
}

/// The same counts must surface through the prover's statistics: a valid
/// obligation enumerates the whole space, so `models_checked` is the
/// canonical count and `orbits_pruned` the pruned count, per obligation.
#[test]
fn prover_statistics_report_the_exact_counts() {
    let set_ob = Obligation::new("set_counts").goal(le(card(var_set("s")), int(2)));
    let verdict = FiniteModelProver::new(scope()).prove(&set_ob);
    assert!(verdict.is_valid(), "{verdict}");
    assert_eq!(
        (
            verdict.stats().models_checked,
            verdict.stats().orbits_pruned
        ),
        (3, 1),
        "set obligation count drifted"
    );

    let seq_ob = Obligation::new("seq_counts").goal(le(seq_len(var_seq("q")), int(2)));
    let verdict = FiniteModelProver::new(scope()).prove(&seq_ob);
    assert!(verdict.is_valid(), "{verdict}");
    assert_eq!(
        (
            verdict.stats().models_checked,
            verdict.stats().orbits_pruned
        ),
        (4, 3),
        "sequence obligation count drifted"
    );

    // The unreduced oracle checks the full space and prunes nothing.
    let verdict = FiniteModelProver::new(scope().with_orbit(false)).prove(&seq_ob);
    assert_eq!(
        (
            verdict.stats().models_checked,
            verdict.stats().orbits_pruned
        ),
        (7, 0),
        "oracle count drifted"
    );
}
