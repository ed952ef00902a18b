//! Differential soundness harness: the batched bytecode search against the
//! reference evaluator.
//!
//! The bytecode backend re-implements the whole candidate-evaluation pipeline
//! — lowering, constant pooling, short-circuit regions, 256-lane batched
//! execution with scalar fallback — so its claim to *bit-identical* semantics
//! is exactly the kind that must be pinned exhaustively. The reference is
//! `logic::eval` on a `Model`: [`FiniteModelProver::replay`] (through its
//! prepared form, [`Replayer`]) run over every candidate of the same input
//! space, in enumeration order, until the first counter-model or evaluation
//! error.
//!
//! The first test runs every obligation of the **full catalog** (every
//! condition of all four interfaces) that reaches the finite-model search,
//! with the orbit reduction on and off, and compares verdict by verdict:
//! kinds, counter-models, and `Unknown` reasons must be equal, and the work
//! counters must reconcile exactly — per obligation, and summed against the
//! catalog runs at one and at four scheduler workers. A second test
//! sabotages conditions so the *refuted* path is exercised too — the
//! bytecode search must report byte-for-byte the same minimum-position
//! counterexample as the reference scan.
//!
//! The ArrayList sequence scope is 3 here (as in the orbit and parallel
//! differential harnesses) so that the reference scans stay fast in debug
//! builds; the scope is a verification parameter, not a truncation of the
//! catalog.

use std::collections::HashSet;
use std::time::Duration;

use semcommute_core::catalog::interface_catalog;
use semcommute_core::template::testing_methods;
use semcommute_core::vcgen::generate_obligations;
use semcommute_core::verify::{scope_for, verify_catalog, VerifyOptions};
use semcommute_prover::structural::prove_structural;
use semcommute_prover::{
    FiniteModelProver, InputSpace, Obligation, Portfolio, ProofStats, Replayer, Scope, Verdict,
};
use semcommute_spec::InterfaceId;

const SEQ_LEN: usize = 3;

fn kind(verdict: &Verdict) -> &'static str {
    match verdict {
        Verdict::Valid { .. } => "valid",
        Verdict::CounterModel { .. } => "counterexample",
        Verdict::Unknown { .. } => "unknown",
    }
}

fn unknown_reason(verdict: &Verdict) -> Option<&str> {
    match verdict {
        Verdict::Unknown { reason, .. } => Some(reason),
        _ => None,
    }
}

/// The reference verdict of one obligation: every candidate of its input
/// space, in enumeration order, replayed through a [`Replayer`] (the engine
/// of [`FiniteModelProver::replay`]) until the first counter-model or error.
fn reference_prove(ob: &Obligation, scope: &Scope) -> Verdict {
    let replayer = Replayer::new(ob);
    let space = InputSpace::from_obligation(ob, scope.clone());
    let mut it = space.iter();
    let mut checked = 0;
    let event = loop {
        let Some(input) = it.next() else {
            break None;
        };
        checked += 1;
        match replayer.check(&input) {
            Ok(None) => {}
            Ok(Some(model)) => break Some(Ok(model)),
            Err(reason) => break Some(Err(reason)),
        }
    };
    let stats = ProofStats::finite(checked, Duration::ZERO).with_orbits_pruned(it.orbits_pruned());
    match event {
        None => Verdict::Valid { stats },
        Some(Ok(model)) => Verdict::CounterModel { model, stats },
        Some(Err(reason)) => Verdict::Unknown { reason, stats },
    }
}

/// Kind, counter-model, `Unknown` reason, and work counters of the bytecode
/// search equal the reference scan's.
fn assert_matches_reference(ob: &Obligation, scope: &Scope, label: &str) -> Verdict {
    let bytecode = FiniteModelProver::new(scope.clone()).prove(ob);
    let reference = reference_prove(ob, scope);
    let name = &ob.name;
    assert_eq!(
        kind(&bytecode),
        kind(&reference),
        "{label}: {name} verdict kind"
    );
    assert_eq!(
        bytecode.counter_model(),
        reference.counter_model(),
        "{label}: {name} counter-model"
    );
    assert_eq!(
        unknown_reason(&bytecode),
        unknown_reason(&reference),
        "{label}: {name} Unknown reason"
    );
    assert_eq!(
        bytecode.stats().models_checked,
        reference.stats().models_checked,
        "{label}: {name} models_checked"
    );
    assert_eq!(
        bytecode.stats().orbits_pruned,
        reference.stats().orbits_pruned,
        "{label}: {name} orbits_pruned"
    );
    assert!(
        bytecode.stats().batches > 0,
        "{label}: {name}: the bytecode backend must actually batch"
    );
    assert!(
        bytecode.stats().batch_fallbacks <= bytecode.stats().batches * 256,
        "{label}: {name}: fallback lanes are bounded by the block size"
    );
    assert!(
        bytecode.stats().instrs_executed > 0,
        "{label}: {name}: the bytecode backend must report instruction work"
    );
    reference
}

/// Every obligation of the full catalog that reaches the finite-model
/// search, orbit on and off: the bytecode verdict equals the reference scan
/// verdict for verdict and counter for counter. Deduplicated by the
/// portfolio's canonical key within each interface — exactly the searches a
/// sequential catalog run performs — the reference counters sum to the
/// catalog's totals at one and at four workers.
#[test]
fn full_catalog_matches_the_reference_evaluator() {
    for orbit in [true, false] {
        let label = format!("orbit={orbit}");
        let runs = [1, 4].map(|threads| {
            verify_catalog(&VerifyOptions {
                threads,
                seq_len: SEQ_LEN,
                limit: None,
                orbit,
                ..VerifyOptions::default()
            })
        });
        for interface in InterfaceId::ALL {
            let scope = scope_for(interface, SEQ_LEN).with_orbit(orbit);
            let portfolio = Portfolio::new(scope.clone());
            let mut searched = HashSet::new();
            let (mut checked, mut pruned) = (0, 0);
            for (id, cond) in interface_catalog(interface).iter().enumerate() {
                let (soundness, completeness) = testing_methods(cond, id);
                for method in [soundness, completeness] {
                    for ob in generate_obligations(&method).expect("vcgen") {
                        // The portfolio's order: cache, structural, search.
                        if !searched.insert(portfolio.canonical_key(&ob))
                            || prove_structural(&ob).is_some()
                        {
                            continue;
                        }
                        let reference = assert_matches_reference(&ob, &scope, &label);
                        assert!(reference.is_valid(), "{label}: {} verifies", ob.name);
                        checked += reference.stats().models_checked;
                        pruned += reference.stats().orbits_pruned;
                    }
                }
            }
            for (run, threads) in runs.iter().zip([1, 4]) {
                let report = run
                    .interfaces
                    .iter()
                    .find(|r| r.interface == interface)
                    .expect("every interface is verified");
                assert_eq!(
                    report.verified_count(),
                    report.total(),
                    "{label} threads={threads}: {interface} verifies"
                );
                assert_eq!(
                    report.models_checked(),
                    checked,
                    "{label} threads={threads}: {interface} enumerates the reference's candidates"
                );
                assert_eq!(
                    report.orbits_pruned(),
                    pruned,
                    "{label} threads={threads}: {interface} prunes the reference's candidates"
                );
            }
        }
    }
}

/// Sabotaged conditions (claiming `contains`/`add` commute unconditionally)
/// exercise the refuted path: the bytecode search must report the *same*
/// minimum-position counterexample as the reference scan — not merely an
/// equivalent refutation — and that model must replay to itself. Run with
/// the orbit reduction both on and off so the batched scan is exercised over
/// both enumerators.
#[test]
fn sabotaged_counterexamples_match_the_reference_exactly() {
    let mut sabotaged = interface_catalog(InterfaceId::Set)
        .into_iter()
        .filter(|c| c.first.op == "contains" && c.second.op == "add")
        .collect::<Vec<_>>();
    assert!(!sabotaged.is_empty());
    for cond in &mut sabotaged {
        cond.formula = semcommute_logic::build::tru();
    }

    for orbit in [true, false] {
        let scope = Scope::standard().with_orbit(orbit);
        let prover = FiniteModelProver::new(scope.clone());
        let label = format!("orbit={orbit}");
        let mut refutations = 0;
        for (i, cond) in sabotaged.iter().enumerate() {
            let (soundness, completeness) = testing_methods(cond, i);
            for method in [soundness, completeness] {
                for ob in generate_obligations(&method).unwrap() {
                    let reference = assert_matches_reference(&ob, &scope, &label);
                    let Some(full) = reference.counter_model() else {
                        continue;
                    };
                    refutations += 1;
                    let inputs = prover.project_inputs(&ob, full);
                    assert_eq!(
                        prover.replay(&ob, &inputs),
                        Ok(Some(full.clone())),
                        "{}: the counterexample does not replay to itself",
                        ob.name
                    );
                }
            }
        }
        assert!(refutations > 0, "the sabotage must produce refutations");
    }
}
