//! Property-based tests of the prover: verdicts agree with brute-force
//! evaluation, counterexamples really are counterexamples, and the structural
//! prover never disagrees with the finite-model prover.

use proptest::prelude::*;

use semcommute_logic::build::*;
use semcommute_logic::{eval_bool, Term};
use semcommute_prover::{FiniteModelProver, Obligation, Portfolio, Scope};

/// Small set-algebra goals over a set variable and two element variables —
/// some valid, some not.
fn goal() -> impl Strategy<Value = Term> {
    prop_oneof![
        // valid
        Just(member(var_elem("a"), set_add(var_set("s"), var_elem("a")))),
        Just(not(member(
            var_elem("a"),
            set_remove(var_set("s"), var_elem("a"))
        ))),
        Just(eq(
            set_add(set_add(var_set("s"), var_elem("a")), var_elem("b")),
            set_add(set_add(var_set("s"), var_elem("b")), var_elem("a"))
        )),
        Just(le(
            card(set_remove(var_set("s"), var_elem("a"))),
            card(var_set("s"))
        )),
        Just(implies(
            member(var_elem("a"), var_set("s")),
            gt(card(var_set("s")), int(0))
        )),
        // invalid
        Just(member(var_elem("a"), var_set("s"))),
        Just(eq(var_elem("a"), var_elem("b"))),
        Just(eq(
            set_remove(set_add(var_set("s"), var_elem("a")), var_elem("b")),
            set_add(set_remove(var_set("s"), var_elem("b")), var_elem("a"))
        )),
        Just(eq(card(var_set("s")), int(1))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A counterexample reported by the finite-model prover really falsifies
    /// the obligation, and a validity verdict survives replaying every model
    /// of a *larger* scope (the small-scope verdict is not an artifact of the
    /// bound for this fragment).
    #[test]
    fn verdicts_are_confirmed_by_evaluation(goal in goal()) {
        let ob = Obligation::new("prop").goal(goal.clone());
        let small = FiniteModelProver::new(Scope::small());
        let verdict = small.prove(&ob);
        match &verdict {
            semcommute_prover::Verdict::CounterModel { model, .. } => {
                prop_assert_eq!(eval_bool(&goal, model).unwrap(), false);
            }
            semcommute_prover::Verdict::Valid { .. } => {
                let larger = FiniteModelProver::new(Scope::standard());
                prop_assert!(larger.prove(&ob).is_valid(), "larger scope disagrees for {}", goal);
            }
            semcommute_prover::Verdict::Unknown { reason, .. } => {
                prop_assert!(false, "unexpected unknown verdict: {reason}");
            }
        }
    }

    /// The structural prover is sound: whatever it proves, the finite-model
    /// prover confirms.
    #[test]
    fn structural_prover_is_sound(goal in goal(), hypothesis in goal()) {
        let ob = Obligation::new("prop")
            .assume(hypothesis)
            .goal(goal);
        if semcommute_prover::structural::prove_structural(&ob).is_some() {
            let verdict = FiniteModelProver::new(Scope::small()).prove(&ob);
            prop_assert!(verdict.is_valid(), "structural prover claimed an invalid obligation");
        }
    }

    /// The portfolio never contradicts the finite-model prover on its own.
    #[test]
    fn portfolio_matches_finite_model_alone(goal in goal()) {
        let ob = Obligation::new("prop").goal(goal);
        let portfolio = Portfolio::small().prove(&ob);
        let finite_only = FiniteModelProver::new(Scope::small()).prove(&ob);
        prop_assert_eq!(portfolio.is_valid(), finite_only.is_valid());
    }
}
