//! Differential soundness harness: orbit-canonical enumeration against the
//! unreduced oracle.
//!
//! Soundness of a pruned counter-model search is exactly the kind of claim
//! that must be pinned exhaustively: if the orbit reduction ever skipped a
//! candidate that is *not* an isomorphic renaming of a kept one, a refutable
//! obligation could verify. This harness runs the **full catalog** (every
//! condition of all four interfaces) with the reduction on and off, at one
//! and at four scheduler workers, and compares verdict by verdict; a second
//! test sabotages conditions so the *refuted* path is exercised too — the
//! reduced search's counterexamples must be canonical and must be models the
//! unreduced oracle also refutes.
//!
//! The ArrayList sequence scope is 3 here (as in the parallel differential
//! harness) so that four full-catalog runs stay fast in debug builds; the
//! scope is a verification parameter, not a truncation of the catalog.

use semcommute_core::verify::{verify_catalog, CatalogReport, VerifyOptions};
use semcommute_prover::orbit::{block_permutations, is_canonical, padding_block};
use semcommute_prover::{FiniteModelProver, Portfolio, Scope, Verdict};

fn options(threads: usize, orbit: bool) -> VerifyOptions {
    VerifyOptions {
        threads,
        seq_len: 3,
        limit: None,
        orbit,
        ..VerifyOptions::default()
    }
}

/// The observable outcome of a verdict: its kind (and, for refutations, the
/// fact — checked elsewhere — that the model refutes). Statistics
/// legitimately differ between the two enumerators.
fn kind(verdict: &Verdict) -> &'static str {
    match verdict {
        Verdict::Valid { .. } => "valid",
        Verdict::CounterModel { .. } => "counterexample",
        Verdict::Unknown { .. } => "unknown",
    }
}

fn assert_same_verdicts(on: &CatalogReport, off: &CatalogReport, threads: usize) {
    assert_eq!(on.interfaces.len(), off.interfaces.len());
    for (on_report, off_report) in on.interfaces.iter().zip(&off.interfaces) {
        assert_eq!(on_report.interface, off_report.interface);
        assert_eq!(on_report.total(), off_report.total());
        for (on_cond, off_cond) in on_report.reports.iter().zip(&off_report.reports) {
            assert_eq!(on_cond.condition.id(), off_cond.condition.id());
            for (label, on_verdict, off_verdict) in [
                ("soundness", &on_cond.soundness, &off_cond.soundness),
                (
                    "completeness",
                    &on_cond.completeness,
                    &off_cond.completeness,
                ),
            ] {
                assert_eq!(
                    kind(on_verdict),
                    kind(off_verdict),
                    "{threads} threads: {} {label} verdict differs between orbit on and off",
                    on_cond.condition.id(),
                );
            }
        }
    }
}

/// The full catalog, orbit on vs. off, at 1 and 4 workers: verdicts are
/// identical, the reduction materially shrinks the checked-model count, and
/// — because every obligation verifies, so every space is fully enumerated —
/// the counters reconcile exactly: `checked_on + pruned_on == checked_off`.
#[test]
fn full_catalog_verdicts_identical_with_orbit_on_and_off() {
    for threads in [1, 4] {
        let on = verify_catalog(&options(threads, true));
        let off = verify_catalog(&options(threads, false));
        for report in on.interfaces.iter().chain(&off.interfaces) {
            assert_eq!(
                report.verified_count(),
                report.total(),
                "{threads} threads: the catalog verifies under both enumerators"
            );
        }
        assert_same_verdicts(&on, &off, threads);

        assert_eq!(off.orbits_pruned(), 0, "the oracle never prunes");
        assert!(
            on.orbits_pruned() > 0,
            "{threads} threads: the reduction must actually prune"
        );
        assert!(
            on.models_checked() < off.models_checked(),
            "{threads} threads: orbit-on must check strictly fewer models \
             ({} vs {})",
            on.models_checked(),
            off.models_checked()
        );
        assert_eq!(
            on.models_checked() + on.orbits_pruned(),
            off.models_checked(),
            "{threads} threads: every pruned candidate is accounted for"
        );
    }
}

/// Sabotaged conditions (claiming `contains`/`add` commute unconditionally)
/// exercise the refuted path: under the reduction every obligation must get
/// the same verdict kind as under the oracle, and every counterexample the
/// reduced search reports must (a) be orbit-canonical and (b) replay as a
/// counterexample under the unreduced oracle prover.
#[test]
fn sabotaged_counterexamples_are_canonical_and_refute_under_the_oracle() {
    use semcommute_core::catalog::interface_catalog;
    use semcommute_spec::InterfaceId;

    let mut sabotaged = interface_catalog(InterfaceId::Set)
        .into_iter()
        .filter(|c| c.first.op == "contains" && c.second.op == "add")
        .collect::<Vec<_>>();
    assert!(!sabotaged.is_empty());
    for cond in &mut sabotaged {
        cond.formula = semcommute_logic::build::tru();
    }

    // Scope::standard has a two-element padding block, so the reduction is
    // active on these set obligations.
    let scope_on = Scope::standard().with_orbit(true);
    let scope_off = Scope::standard().with_orbit(false);
    let portfolio_on = Portfolio::new(scope_on.clone());
    let portfolio_off = Portfolio::new(scope_off.clone());
    let oracle = FiniteModelProver::new(scope_off);

    let mut refutations = 0;
    for (i, cond) in sabotaged.iter().enumerate() {
        let (soundness, completeness) = semcommute_core::template::testing_methods(cond, i);
        for method in [soundness, completeness] {
            for ob in semcommute_core::vcgen::generate_obligations(&method).unwrap() {
                let on = portfolio_on.prove(&ob);
                let off = portfolio_off.prove(&ob);
                assert_eq!(kind(&on), kind(&off), "{}", ob.name);
                let Some(full) = on.counter_model() else {
                    continue;
                };
                refutations += 1;

                // (a) The model is canonical: its collection values, taken
                // jointly in the enumeration's slot order, are lex-least
                // under permutations of the padding block. Element inputs
                // are fixed points, so including them cannot change the
                // comparison.
                let inputs = oracle.project_inputs(&ob, full);
                let max_class = inputs
                    .iter()
                    .filter_map(|(_, v)| v.as_elem())
                    .filter(|e| !e.is_null())
                    .map(|e| e.0)
                    .max()
                    .unwrap_or(0);
                let block = padding_block(max_class, scope_on.elem_padding);
                let values: Vec<_> = inputs.iter().map(|(_, v)| v.clone()).collect();
                assert!(
                    is_canonical(&values, block.clone()),
                    "{}: reduced search reported a non-canonical model {full}",
                    ob.name
                );
                assert!(!block_permutations(block).is_empty());

                // (b) The oracle refutes the same model.
                assert!(
                    matches!(oracle.replay(&ob, &inputs), Ok(Some(_))),
                    "{}: the unreduced oracle does not refute {full}",
                    ob.name
                );
            }
        }
    }
    assert!(refutations > 0, "the sabotage must produce refutations");
}
