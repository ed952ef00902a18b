//! Property tests of model-search range splitting, pinning the three facts
//! the scheduler's splittable range tasks rest on:
//!
//! 1. **Tiling** — any recursive split partition of `[0, n)` into ranges
//!    enumerates every candidate exactly once: the subrange scans
//!    concatenate to the full enumeration (same candidates, same order) and
//!    the per-range `orbits_pruned` counts sum to the unsplit scan's count;
//! 2. **Mid-range resume** — a range iterator started at an arbitrary
//!    unreduced position emits exactly the canonical candidates of that
//!    range (the ones a full scan emits at positions in `[lo, hi)`), even
//!    when the resume point lands inside a pruned subtree;
//! 3. **Minimum-event guard** — the shared early-exit guard never loses the
//!    minimum-position deciding event, no matter in which order adversarial
//!    subranges report counter-models and errors, so the finalized verdict
//!    is always the sequential scan's.

use std::collections::BTreeMap;
use std::time::Duration;

use proptest::prelude::*;

use semcommute_logic::{Model, Sort, Value};
use semcommute_prover::finite::assemble_verdict;
use semcommute_prover::{InputSpace, Scope, SearchShared, Verdict};

/// A deliberately tiny scope so the exhaustive inner loops stay fast: the
/// properties quantify over *whole enumerations*, not samples of them.
fn tiny_scope(orbit: bool) -> Scope {
    Scope {
        elem_padding: 2,
        max_collection_entries: 2,
        max_seq_len: 2,
        int_min: 0,
        int_max: 1,
        max_models: 5_000_000,
        orbit,
    }
}

fn to_vars(pairs: &[(&str, Sort)]) -> BTreeMap<String, Sort> {
    pairs.iter().map(|(n, s)| (n.to_string(), *s)).collect()
}

/// Input-variable configurations mixing the collection shapes (so orbit
/// pruning really bites) with scalar digits between them.
fn var_config() -> impl Strategy<Value = Vec<(&'static str, Sort)>> {
    prop_oneof![
        Just(vec![("s", Sort::Set)]),
        Just(vec![("s", Sort::Set), ("t", Sort::Set)]),
        Just(vec![("v", Sort::Elem), ("s", Sort::Set)]),
        Just(vec![("b", Sort::Bool), ("q", Sort::Seq), ("s", Sort::Set)]),
        Just(vec![("i", Sort::Int), ("q", Sort::Seq)]),
        Just(vec![("v", Sort::Elem), ("m", Sort::Map)]),
    ]
}

/// A recursive binary split of `[0, n)`, driven by a pseudo-random seed:
/// returns the leaf ranges of the split tree, in position order.
fn split_tree(lo: u64, hi: u64, mut seed: u64, out: &mut Vec<(u64, u64)>) {
    // Small ranges stay leaves; otherwise split at a seed-dependent point
    // (not necessarily the midpoint — the tiling property must not depend
    // on where the cuts land).
    if hi - lo <= 1 + seed % 4 {
        out.push((lo, hi));
        return;
    }
    seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    let cut = lo + 1 + seed % (hi - lo - 1);
    split_tree(lo, cut, seed ^ 0x9E3779B9, out);
    split_tree(cut, hi, seed.rotate_left(17), out);
}

/// Models emitted by a full scan, tagged with their unreduced positions.
fn positioned_models(space: &InputSpace) -> Vec<(u64, Model)> {
    let mut it = space.iter();
    let mut out = Vec::new();
    loop {
        let upos = it.position();
        match it.next() {
            Some(model) => out.push((upos, model)),
            None => return out,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Property 1: the leaves of any recursive split partition of `[0, n)`
    /// tile the enumeration — concatenated subrange scans reproduce the
    /// full scan exactly, and pruned counts sum to the unsplit count.
    #[test]
    fn split_partition_enumerates_each_position_exactly_once(
        vars in var_config(),
        orbit in proptest::bool::ANY,
        seed in 0u64..u64::MAX,
    ) {
        let space = InputSpace::new(&to_vars(&vars), tiny_scope(orbit));
        let total = space.estimated_size() as u64;
        let mut full = space.iter();
        let full_models: Vec<Model> = full.by_ref().collect();
        let full_pruned = full.orbits_pruned();
        prop_assert_eq!(full_models.len() as u64 + full_pruned, total);

        let mut leaves = Vec::new();
        split_tree(0, total, seed, &mut leaves);
        prop_assert_eq!(leaves.first().map(|r| r.0), Some(0));
        prop_assert_eq!(leaves.last().map(|r| r.1), Some(total));

        let mut tiled: Vec<Model> = Vec::new();
        let mut pruned_sum = 0u64;
        for (lo, hi) in leaves {
            let mut it = space.range_iter(lo, hi);
            tiled.extend(it.by_ref());
            pruned_sum += it.orbits_pruned();
        }
        prop_assert_eq!(tiled, full_models, "subranges must tile the space");
        prop_assert_eq!(pruned_sum, full_pruned, "pruned counts must sum");
    }

    /// Property 2: a mid-range resume emits exactly the canonical set of
    /// that range — the full scan's candidates filtered to positions in
    /// `[lo, hi)` — including when `lo` lands inside a pruned subtree.
    #[test]
    fn mid_range_resume_matches_filtered_full_scan(
        vars in var_config(),
        orbit in proptest::bool::ANY,
        cut in (0u64..u64::MAX, 0u64..u64::MAX),
    ) {
        let space = InputSpace::new(&to_vars(&vars), tiny_scope(orbit));
        let total = space.estimated_size() as u64;
        let (a, b) = (cut.0 % (total + 1), cut.1 % (total + 1));
        let (lo, hi) = (a.min(b), a.max(b));

        let expected: Vec<(u64, Model)> = positioned_models(&space)
            .into_iter()
            .filter(|(upos, _)| (lo..hi).contains(upos))
            .collect();
        let mut it = space.range_iter(lo, hi);
        let mut got: Vec<(u64, Model)> = Vec::new();
        loop {
            let upos = it.position();
            match it.next() {
                Some(model) => got.push((upos, model)),
                None => break,
            }
        }
        prop_assert_eq!(got, expected);
        // Every position of the range is either emitted or counted pruned.
        prop_assert_eq!(
            it.orbits_pruned(),
            (hi - lo) - expected.len() as u64,
            "pruned must cover exactly the non-canonical positions of [{}, {})", lo, hi
        );
    }

    /// Property 3: the shared guard keeps the minimum-position deciding
    /// event under adversarial completion orders, and the assembled verdict
    /// is the sequential one: counter-model or error, whichever sits at the
    /// lowest position.
    #[test]
    fn guard_never_loses_the_minimum_event(
        // (position, is_error) events, applied in arbitrary order.
        events in proptest::collection::vec((0u64..64, proptest::bool::ANY), 1..12),
    ) {
        let shared = SearchShared::new();
        for (upos, is_error) in &events {
            if *is_error {
                shared.record_error(*upos, format!("error at {upos}"));
            } else {
                let mut model = Model::new();
                model.insert("witness", Value::Int(*upos as i64));
                shared.record_counterexample(*upos, model);
            }
        }
        // The guard converged to the global minimum position.
        let min = events.iter().map(|(u, _)| *u).min().expect("non-empty");
        prop_assert_eq!(shared.deciding(), Some(min));

        // The assembled verdict is decided by an event *at* that position.
        // (Both kinds can share the minimum position here — a real search
        // records at most one event per position, so either is the verdict
        // the sequential scan would have reported.)
        let verdict = assemble_verdict(shared.take_outcome(), Duration::ZERO);
        match verdict {
            Verdict::CounterModel { model, .. } => {
                prop_assert!(events.contains(&(min, false)));
                prop_assert_eq!(model.get("witness"), Some(&Value::Int(min as i64)));
            }
            Verdict::Unknown { reason, .. } => {
                prop_assert!(events.contains(&(min, true)));
                prop_assert_eq!(reason, format!("error at {min}"));
            }
            Verdict::Valid { .. } => prop_assert!(false, "events were recorded"),
        }
    }
}

/// The no-event case assembles to `Valid` with the merged counters — and a
/// deterministic pin of the adversarial order: a low-position error beats a
/// high-position counter-model recorded first, and vice versa.
#[test]
fn assembled_verdicts_pin_the_event_kind_priority() {
    let shared = SearchShared::new();
    let verdict = assemble_verdict(shared.take_outcome(), Duration::ZERO);
    assert!(matches!(verdict, Verdict::Valid { .. }));

    // Counter-model at 7 lands before the error at 3 is known: Unknown.
    let shared = SearchShared::new();
    shared.record_counterexample(7, Model::new());
    shared.record_error(3, "deciding".to_string());
    let verdict = assemble_verdict(shared.take_outcome(), Duration::ZERO);
    let Verdict::Unknown { reason, stats } = verdict else {
        panic!("the position-3 error decides");
    };
    assert_eq!(reason, "deciding");
    assert!(stats.errors.is_empty());

    // Error at 9 lands before the counter-model at 2: CounterModel, with
    // the raced-past error kept as a non-fatal statistic.
    let shared = SearchShared::new();
    shared.record_error(9, "non-fatal".to_string());
    shared.record_counterexample(2, Model::new());
    let verdict = assemble_verdict(shared.take_outcome(), Duration::ZERO);
    let Verdict::CounterModel { stats, .. } = verdict else {
        panic!("the position-2 counter-model decides");
    };
    assert_eq!(stats.errors, vec!["non-fatal".to_string()]);
}
