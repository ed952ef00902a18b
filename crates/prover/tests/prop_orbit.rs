//! Property tests of the orbit reduction, pinning the three facts its
//! soundness argument rests on:
//!
//! 1. **Canonicality** — every candidate the reduced enumerator emits is the
//!    lex-least member of its orbit under permutations of the padding block;
//! 2. **Reachability** — every candidate of the *unreduced* enumeration is
//!    the image of some emitted candidate under a padding permutation (the
//!    reduction drops only redundant representatives, never an orbit);
//! 3. **Invariance** — evaluation cannot tell a model from its permuted
//!    image, so checking one representative per orbit decides the same
//!    obligations: `eval` returns the same truth value on permuted models,
//!    and the reduced and unreduced finite-model searches reach the same
//!    verdict kind (with cross-replayable counterexamples).

use std::collections::{BTreeMap, HashSet};

use proptest::prelude::*;

use semcommute_logic::build::*;
use semcommute_logic::{eval_bool, Model, Sort, Term, Value};
use semcommute_prover::orbit::{block_permutations, is_canonical, padding_block};
use semcommute_prover::{FiniteModelProver, InputSpace, Obligation, Scope};

/// A deliberately tiny scope so the exhaustive inner loops stay fast: the
/// properties quantify over *whole enumerations*, not samples of them.
fn tiny_scope(elem_padding: usize) -> Scope {
    Scope {
        elem_padding,
        max_collection_entries: 2,
        max_seq_len: 2,
        int_min: 0,
        int_max: 1,
        max_models: 5_000_000,
        orbit: true,
    }
}

fn to_vars(pairs: &[(&str, Sort)]) -> BTreeMap<String, Sort> {
    pairs.iter().map(|(n, s)| (n.to_string(), *s)).collect()
}

/// The padding block of a concrete model: everything past the largest
/// element class a (non-null) element variable pins.
fn model_block(model: &Model, elem_padding: usize) -> std::ops::Range<u32> {
    let max_class = model
        .iter()
        .filter_map(|(_, v)| v.as_elem())
        .filter(|e| !e.is_null())
        .map(|e| e.0)
        .max()
        .unwrap_or(0);
    padding_block(max_class, elem_padding)
}

/// Input-variable configurations mixing the collection shapes; every
/// combination keeps the exhaustive checks below under a few thousand
/// candidates.
fn var_config() -> impl Strategy<Value = Vec<(&'static str, Sort)>> {
    prop_oneof![
        Just(vec![("s", Sort::Set)]),
        Just(vec![("s", Sort::Set), ("t", Sort::Set)]),
        Just(vec![("v", Sort::Elem), ("s", Sort::Set)]),
        Just(vec![("q", Sort::Seq)]),
        Just(vec![("v", Sort::Elem), ("q", Sort::Seq), ("s", Sort::Set)]),
        Just(vec![("m", Sort::Map)]),
        Just(vec![("v", Sort::Elem), ("m", Sort::Map)]),
        Just(vec![("b", Sort::Bool), ("q", Sort::Seq), ("s", Sort::Set)]),
    ]
}

fn padding() -> impl Strategy<Value = usize> {
    // Mostly the catalog's block size (2, one transposition); sometimes 3,
    // where the permutation group is non-abelian and per-slot reasoning
    // would break down if the check were not joint. (The vendored proptest
    // has no weighted prop_oneof; repetition approximates the weights.)
    prop_oneof![Just(2usize), Just(2usize), Just(3usize)]
}

/// Well-sorted boolean goals over `v: Elem`, `s: Set`, `q: Seq`, `m: Map` —
/// some valid in the tiny scope, some refutable.
fn goal() -> impl Strategy<Value = Term> {
    prop_oneof![
        Just(member(var_elem("v"), var_set("s"))),
        Just(member(var_elem("v"), set_add(var_set("s"), var_elem("v")))),
        Just(not(member(
            var_elem("v"),
            set_remove(var_set("s"), var_elem("v"))
        ))),
        Just(eq(card(var_set("s")), int(1))),
        Just(implies(
            member(var_elem("v"), var_set("s")),
            gt(card(var_set("s")), int(0))
        )),
        Just(seq_contains(var_seq("q"), var_elem("v"))),
        Just(eq(seq_index_of(var_seq("q"), var_elem("v")), int(0))),
        Just(eq(seq_at(var_seq("q"), int(0)), var_elem("v"))),
        Just(eq(seq_len(var_seq("q")), card(var_set("s")))),
        Just(map_has_key(var_map("m"), var_elem("v"))),
        Just(eq(map_get(var_map("m"), var_elem("v")), var_elem("v"))),
        Just(eq(
            set_remove(set_add(var_set("s"), var_elem("v")), var_elem("v")),
            var_set("s")
        )),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// (1) Every candidate the reduced enumerator emits is canonical.
    #[test]
    fn every_enumerated_candidate_is_canonical(
        vars in var_config(),
        elem_padding in padding(),
    ) {
        let scope = tiny_scope(elem_padding).with_orbit(true);
        let space = InputSpace::new(&to_vars(&vars), scope);
        let mut emitted = 0usize;
        for model in space.iter() {
            let block = model_block(&model, elem_padding);
            // Model iteration is name-ordered; element/bool slots are fixed
            // points of the action, so their interleaving cannot change the
            // joint lexicographic comparison over the collection slots.
            let values: Vec<Value> = model.iter().map(|(_, v)| v.clone()).collect();
            prop_assert!(
                is_canonical(&values, block),
                "non-canonical candidate emitted: {model}"
            );
            emitted += 1;
        }
        prop_assert!(emitted > 0);
    }

    /// (2) Every unreduced candidate is reachable from an emitted one by a
    /// padding permutation: the orbits are covered exactly.
    #[test]
    fn every_concrete_candidate_is_reachable_from_an_emitted_one(
        vars in var_config(),
        elem_padding in padding(),
    ) {
        let scope = tiny_scope(elem_padding);
        let vars = to_vars(&vars);
        let canonical: HashSet<String> = InputSpace::new(&vars, scope.clone().with_orbit(true))
            .iter()
            .map(|m| m.to_string())
            .collect();
        let mut unreduced = 0usize;
        for model in InputSpace::new(&vars, scope.with_orbit(false)).iter() {
            unreduced += 1;
            let block = model_block(&model, elem_padding);
            let reachable = block_permutations(block).iter().any(|perm| {
                let image = Model::from_bindings(
                    model
                        .iter()
                        .map(|(name, value)| (name.to_string(), perm.apply_value(value))),
                );
                canonical.contains(&image.to_string())
            });
            prop_assert!(reachable, "orbit of {model} lost by the reduction");
        }
        prop_assert!(canonical.len() <= unreduced);
    }

    /// (3a) Evaluation is invariant under padding permutations: a closed
    /// boolean term evaluates identically on a model and on its image.
    #[test]
    fn eval_is_invariant_under_padding_permutations(
        goal in goal(),
        elem_padding in padding(),
    ) {
        let vars = to_vars(&[
            ("v", Sort::Elem),
            ("s", Sort::Set),
            ("q", Sort::Seq),
            ("m", Sort::Map),
        ]);
        let scope = tiny_scope(elem_padding).with_orbit(false);
        for model in InputSpace::new(&vars, scope).iter().take(120) {
            let expected = eval_bool(&goal, &model).unwrap();
            let block = model_block(&model, elem_padding);
            for perm in block_permutations(block) {
                let image = Model::from_bindings(
                    model
                        .iter()
                        .map(|(name, value)| (name.to_string(), perm.apply_value(value))),
                );
                prop_assert_eq!(
                    eval_bool(&goal, &image).unwrap(),
                    expected,
                    "eval distinguished {} from its image {}",
                    &model,
                    &image
                );
            }
        }
    }

    /// (3b) The reduced and unreduced searches decide every obligation the
    /// same way, and each one's counterexample refutes under the other.
    #[test]
    fn orbit_on_and_off_reach_the_same_verdict(goal in goal()) {
        let ob = Obligation::new("prop_orbit").goal(goal);
        let on = FiniteModelProver::new(tiny_scope(2).with_orbit(true));
        let off = FiniteModelProver::new(tiny_scope(2).with_orbit(false));
        let on_verdict = on.prove(&ob);
        let off_verdict = off.prove(&ob);
        prop_assert_eq!(on_verdict.is_valid(), off_verdict.is_valid());
        prop_assert_eq!(
            on_verdict.is_counterexample(),
            off_verdict.is_counterexample()
        );
        for (found_by, checked_with, verdict) in
            [(&on, &off, &on_verdict), (&off, &on, &off_verdict)]
        {
            if let Some(full) = verdict.counter_model() {
                let inputs = found_by.project_inputs(&ob, full);
                prop_assert!(
                    matches!(checked_with.replay(&ob, &inputs), Ok(Some(_))),
                    "counterexample does not cross-replay: {}", full
                );
            }
        }
        // A fully enumerated (valid) obligation reconciles exactly.
        if on_verdict.is_valid() {
            prop_assert_eq!(
                on_verdict.stats().models_checked + on_verdict.stats().orbits_pruned,
                off_verdict.stats().models_checked
            );
        }
    }
}
