//! Differential test: the verification driver against a test-local
//! sequential reference, across a worker-count × split-threshold matrix.
//!
//! Every width of the driver runs through the obligation scheduler, so
//! the reference lives here: each condition's testing methods generated,
//! symbolically executed and proved with `Portfolio::prove` strictly in
//! order, each method stopping at its first non-valid verdict. For every
//! condition in the catalog the soundness and completeness verdicts of a
//! scheduled run — including the concrete counterexample models of failing
//! conditions, not just their number — must be identical to the
//! reference's, at one worker and at many, **at every split threshold**. An
//! obligation whose model search exceeds the threshold is scanned as racing
//! range tasks, so the matrix includes a pathologically small threshold
//! (ranges of one unreduced position — maximal racing) alongside the
//! default; the full-catalog run additionally reconciles counters: every
//! subrange's `models_checked` / `orbits_pruned` merges into its
//! obligation's verdict, so the catalog totals must equal the reference's
//! exactly.
//!
//! The ArrayList sequence scope is 3 here so that a full-catalog run stays
//! fast in debug builds; the scope is a verification parameter, not a
//! truncation of the catalog.

use std::time::Duration;

use semcommute_core::catalog::interface_catalog;
use semcommute_core::method::TestingMethod;
use semcommute_core::template::testing_methods;
use semcommute_core::vcgen::generate_obligations;
use semcommute_core::verify::{
    scope_for, verify_catalog, CatalogReport, ConditionReport, InterfaceReport, VerifyOptions,
};
use semcommute_core::CommutativityCondition;
use semcommute_prover::{Portfolio, ProofStats, Verdict};
use semcommute_spec::InterfaceId;

/// The observable outcome of one testing-method verdict: its kind plus the
/// counterexample model, rendered. Statistics (timings, model counts) are
/// deliberately excluded — they legitimately differ between runs.
fn observable(verdict: &Verdict) -> String {
    match verdict {
        Verdict::Valid { .. } => "valid".to_string(),
        Verdict::CounterModel { model, .. } => format!("counterexample:\n{model}"),
        Verdict::Unknown { reason, .. } => format!("unknown: {reason}"),
    }
}

/// The reference verdict of one testing method: its obligations proved in
/// order with `Portfolio::prove`, statistics accumulated up to and
/// including the first non-valid verdict, which becomes the method's.
fn reference_method(method: &TestingMethod, prover: &Portfolio) -> Verdict {
    let obligations = match generate_obligations(method) {
        Ok(obligations) => obligations,
        Err(e) => {
            return Verdict::Unknown {
                reason: format!("vcgen failed: {e}"),
                stats: ProofStats::none(),
            }
        }
    };
    let mut accumulated = ProofStats::none();
    for ob in &obligations {
        let mut verdict = prover.prove(ob);
        accumulated.merge(verdict.stats());
        if !verdict.is_valid() {
            *verdict.stats_mut() = accumulated;
            return verdict;
        }
    }
    Verdict::Valid { stats: accumulated }
}

/// The reference report of one condition (its `elapsed` is not measured).
fn reference_condition(
    condition: &CommutativityCondition,
    id: usize,
    prover: &Portfolio,
) -> ConditionReport {
    let (soundness, completeness) = testing_methods(condition, id);
    ConditionReport {
        condition: condition.clone(),
        hinted: !soundness.hints.is_empty() || !completeness.hints.is_empty(),
        soundness: reference_method(&soundness, prover),
        completeness: reference_method(&completeness, prover),
        elapsed: Duration::ZERO,
    }
}

/// The reference run of (a prefix of) the whole catalog: one portfolio per
/// interface, conditions in catalog order.
fn reference_catalog(options: &VerifyOptions) -> Vec<InterfaceReport> {
    InterfaceId::ALL
        .into_iter()
        .map(|interface| {
            let prover =
                Portfolio::new(scope_for(interface, options.seq_len).with_orbit(options.orbit));
            let mut catalog = interface_catalog(interface);
            if let Some(limit) = options.limit {
                catalog.truncate(limit);
            }
            let reports = catalog
                .iter()
                .enumerate()
                .map(|(id, condition)| reference_condition(condition, id, &prover))
                .collect();
            InterfaceReport {
                interface,
                reports,
                elapsed: Duration::ZERO,
                seq_len: options.seq_len,
            }
        })
        .collect()
}

fn models_checked(reports: &[InterfaceReport]) -> u64 {
    reports.iter().map(|r| r.models_checked()).sum()
}

fn orbits_pruned(reports: &[InterfaceReport]) -> u64 {
    reports.iter().map(|r| r.orbits_pruned()).sum()
}

fn options(threads: usize, limit: Option<usize>) -> VerifyOptions {
    VerifyOptions {
        threads,
        seq_len: 3,
        limit,
        ..VerifyOptions::default()
    }
}

fn split_options(threads: usize, limit: Option<usize>, split_threshold: u64) -> VerifyOptions {
    VerifyOptions {
        split_threshold,
        ..options(threads, limit)
    }
}

fn assert_identical_verdicts(reference: &[InterfaceReport], run: &CatalogReport, workers: usize) {
    assert_eq!(reference.len(), run.interfaces.len());
    for (ref_report, run_report) in reference.iter().zip(&run.interfaces) {
        assert_eq!(ref_report.interface, run_report.interface);
        assert_eq!(
            ref_report.total(),
            run_report.total(),
            "{workers} workers: {} condition count drifted",
            ref_report.interface
        );
        for (ref_cond, run_cond) in ref_report.reports.iter().zip(&run_report.reports) {
            assert_eq!(ref_cond.condition.id(), run_cond.condition.id());
            assert_eq!(ref_cond.hinted, run_cond.hinted);
            for (kind, ref_verdict, run_verdict) in [
                ("soundness", &ref_cond.soundness, &run_cond.soundness),
                (
                    "completeness",
                    &ref_cond.completeness,
                    &run_cond.completeness,
                ),
            ] {
                assert_eq!(
                    observable(ref_verdict),
                    observable(run_verdict),
                    "{workers} workers: {} {kind} verdict differs from the reference",
                    ref_cond.condition.id(),
                );
            }
        }
    }
}

/// The full catalog: the reference vs. a worker-count × split-threshold
/// matrix. Every configuration must reproduce the reference's verdicts
/// *and* its work counters — the catalog is all-valid, so every model
/// search enumerates its whole space and `sum(subrange models_checked)`
/// must equal the unsplit sequential count exactly (same for
/// `orbits_pruned`).
#[test]
fn full_catalog_verdicts_match_sequential_oracle() {
    let reference = reference_catalog(&options(1, None));
    let verified: usize = reference.iter().map(|r| r.verified_count()).sum();
    let total: usize = reference.iter().map(|r| r.total()).sum();
    assert_eq!(verified, total, "the catalog verifies under the reference");
    assert_eq!(total, 510, "12 + 108 + 147 + 243 catalog conditions");

    // (workers, split_threshold): the default threshold at several widths,
    // one worker included, plus a small threshold at 4 workers so range
    // tasks dominate the run.
    let default_threshold = VerifyOptions::default().split_threshold;
    let matrix = [
        (1, default_threshold),
        (2, default_threshold),
        (4, default_threshold),
        (8, default_threshold),
        (4, 4_096),
    ];
    for (workers, threshold) in matrix {
        let run = verify_catalog(&split_options(workers, None, threshold));
        let scheduler = run
            .scheduler
            .as_ref()
            .expect("every width goes through the scheduler");
        assert_eq!(
            scheduler.proved + scheduler.cache_hits + scheduler.skipped,
            scheduler.submitted as u64,
            "{workers}w/{threshold}: scheduler accounting must balance"
        );
        assert_eq!(scheduler.skipped, 0, "nothing fails, so nothing is skipped");
        // The canonical keys split the catalog's obligations into the same
        // classes, and the structural prover decides the same testing
        // methods, at every width and threshold.
        assert_eq!(
            (scheduler.submitted, scheduler.unique, scheduler.cache_hits),
            (2179, 2095, 84),
            "{workers}w/{threshold}: submitted, unique and dedup hits"
        );
        let breakdown: Vec<_> = run
            .interfaces
            .iter()
            .map(|r| (r.interface, r.prover_breakdown()))
            .collect();
        assert_eq!(
            breakdown,
            [
                (InterfaceId::Accumulator, (9, 15)),
                (InterfaceId::Set, (27, 189)),
                (InterfaceId::Map, (45, 249)),
                (InterfaceId::List, (99, 387)),
            ],
            "{workers}w/{threshold}: (structural, finite-model) verdicts per interface"
        );
        if workers == 1 {
            assert_eq!(
                (scheduler.steals, scheduler.splits),
                (0, 0),
                "a lone worker neither steals nor splits"
            );
        }
        // Each split-off range is taken once, by its splitter or another.
        assert!(
            scheduler.steals <= scheduler.splits,
            "{workers}w/{threshold}: {} steals vs {} splits",
            scheduler.steals,
            scheduler.splits
        );
        // At seq_len 3 the largest searches run ~15k unreduced positions:
        // under the default threshold nothing splits (and the run must
        // still match the reference); the small-threshold row exercises
        // real splits, where each split search scans one chunk per split
        // plus its seed chunk. (`SEMCOMMUTE_SPLIT` can lower the default
        // threshold; a lone worker still never splits.)
        if threshold < 15_000 && workers > 1 {
            assert!(
                scheduler.splits > 0,
                "{workers}w/{threshold}: the catalog's monolithic searches must split"
            );
            assert!(
                scheduler.subranges > scheduler.splits,
                "{workers}w/{threshold}: {} subranges vs {} splits",
                scheduler.subranges,
                scheduler.splits
            );
        }
        assert_identical_verdicts(&reference, &run, workers);
        assert_eq!(
            run.models_checked(),
            models_checked(&reference),
            "{workers}w/{threshold}: subrange models_checked must sum to the reference's"
        );
        assert_eq!(
            run.orbits_pruned(),
            orbits_pruned(&reference),
            "{workers}w/{threshold}: subrange orbits_pruned must sum to the reference's"
        );
    }
}

/// Differential check on a catalog *with failures*: sabotaged conditions
/// must fail identically — same failing obligation, same counterexample
/// model — no matter how many workers race and no matter how finely the
/// failing searches are split, pinning both early-exit guards (a racing
/// later failure must not replace the first one across obligations, and a
/// racing higher-position counter-model must not replace the
/// minimum-position one within a split obligation). The sabotaged
/// conditions are not in the catalog, so they go through the driver's
/// single-condition entry point and through hand-built scheduler
/// submissions shaped like the driver's.
#[test]
fn failing_conditions_report_the_same_counterexample_in_parallel() {
    use semcommute_core::verify::verify_condition;
    use semcommute_prover::queue::{self, ExitGuard, ScheduledObligation};
    use semcommute_prover::Scope;
    use std::sync::Arc;

    // Sabotage: claim contains/add commute unconditionally (they don't).
    let mut sabotaged = interface_catalog(InterfaceId::Set)
        .into_iter()
        .filter(|c| c.first.op == "contains" && c.second.op == "add")
        .collect::<Vec<_>>();
    assert!(!sabotaged.is_empty());
    for cond in &mut sabotaged {
        cond.formula = semcommute_logic::build::tru();
    }

    let reference: Vec<ConditionReport> = sabotaged
        .iter()
        .enumerate()
        .map(|(i, c)| reference_condition(c, i, &Portfolio::new(Scope::small())))
        .collect();
    assert!(reference.iter().any(|r| !r.verified()));

    for (i, c) in sabotaged.iter().enumerate() {
        let driven = verify_condition(c, &Portfolio::new(Scope::small()), i);
        for (kind, expected, got) in [
            ("soundness", &reference[i].soundness, &driven.soundness),
            (
                "completeness",
                &reference[i].completeness,
                &driven.completeness,
            ),
        ] {
            assert_eq!(
                observable(expected),
                observable(got),
                "verify_condition: condition {i} {kind} verdict drifted"
            );
            assert_eq!(
                expected.stats().models_checked,
                got.stats().models_checked,
                "verify_condition: condition {i} {kind} models_checked drifted"
            );
        }
    }

    let prover = Portfolio::new(Scope::small());
    for (workers, split_threshold) in [
        (1, u64::MAX),
        (2, u64::MAX),
        (4, u64::MAX),
        (8, u64::MAX),
        (4, 1),
        (8, 64),
    ] {
        // Build the method obligations exactly as the driver does and push
        // them through the scheduler.
        let mut items = Vec::new();
        let mut method_ranges = Vec::new();
        for (i, cond) in sabotaged.iter().enumerate() {
            let (soundness, completeness) = testing_methods(cond, i);
            for method in [soundness, completeness] {
                let obs = generate_obligations(&method).unwrap();
                let guard = Arc::new(ExitGuard::new());
                let start = items.len();
                items.extend(obs.into_iter().enumerate().map(|(j, ob)| {
                    ScheduledObligation::new(ob).with_guard(guard.clone(), j as u32)
                }));
                method_ranges.push(start..items.len());
            }
        }
        let run = queue::prove_all_scheduled_split(
            std::slice::from_ref(&prover),
            items,
            workers,
            split_threshold,
        );
        for (m, range) in method_ranges.iter().enumerate() {
            let expected = if m % 2 == 0 {
                &reference[m / 2].soundness
            } else {
                &reference[m / 2].completeness
            };
            // First non-valid verdict in obligation order, as the driver
            // reassembles it.
            let mut scheduled: Option<&Verdict> = None;
            for index in range.clone() {
                match &run.verdicts[index] {
                    None => break,
                    Some(v) if !v.is_valid() => {
                        scheduled = Some(v);
                        break;
                    }
                    Some(v) => scheduled = Some(v),
                }
            }
            let scheduled = scheduled.expect("at least one obligation per method");
            assert_eq!(
                observable(expected),
                observable(scheduled),
                "{workers} workers at threshold {split_threshold}: method {m} verdict drifted"
            );
        }
    }
}

/// A quick differential pass that also exercises the `limit` knob, so the
/// driver is compared against the reference on truncated catalogs too —
/// including a *pathologically small* split threshold (1: every large
/// search shatters into single-position range tasks, maximizing races on
/// the shared minimum-position guard).
#[test]
fn limited_catalog_matches_oracle() {
    let reference = reference_catalog(&options(1, Some(10)));
    for (workers, threshold) in [
        (1, VerifyOptions::default().split_threshold),
        (2, VerifyOptions::default().split_threshold),
        (4, 1),
        (8, 7),
    ] {
        let run = verify_catalog(&split_options(workers, Some(10), threshold));
        assert_identical_verdicts(&reference, &run, workers);
        assert_eq!(
            run.models_checked(),
            models_checked(&reference),
            "{workers}w/{threshold}: models_checked must reconcile on the truncated catalog"
        );
        assert_eq!(
            run.orbits_pruned(),
            orbits_pruned(&reference),
            "{workers}w/{threshold}: orbits_pruned must reconcile on the truncated catalog"
        );
    }
}

/// Counter reconciliation on one monolithic obligation: the verdict a split
/// run delivers carries the merged statistics of its subranges, and for a
/// fully enumerated (valid) obligation `sum(subrange models_checked)` must
/// equal the unsplit count no matter the threshold.
#[test]
fn split_obligation_stats_reconcile_with_unsplit_prove() {
    use semcommute_logic::build::*;
    use semcommute_prover::queue::{self, ScheduledObligation};
    use semcommute_prover::{Obligation, Scope};

    // Needs the finite-model search over a non-trivial space (the
    // structural prover cannot decide membership-dependent equalities).
    let ob = Obligation::new("reconcile")
        .define("r1", member(var_elem("v1"), var_set("s")))
        .define("s1", set_add(var_set("s"), var_elem("v2")))
        .define("r2", member(var_elem("v1"), var_set("s1")))
        .assume(not(eq(var_elem("v1"), var_elem("v2"))))
        .goal(eq(var_bool("r1"), var_bool("r2")));
    let unsplit = Portfolio::new(Scope::standard()).prove(&ob);
    assert!(unsplit.is_valid());
    assert!(unsplit.stats().models_checked > 0);

    for (workers, threshold) in [(2, 16), (4, 1), (8, 3)] {
        let portfolio = Portfolio::new(Scope::standard());
        let items = vec![ScheduledObligation::new(ob.clone())];
        let run = queue::prove_all_scheduled_split(
            std::slice::from_ref(&portfolio),
            items,
            workers,
            threshold,
        );
        let verdict = run.verdicts[0].as_ref().expect("delivered");
        assert!(verdict.is_valid());
        assert_eq!(
            verdict.stats().models_checked,
            unsplit.stats().models_checked,
            "{workers}w/{threshold}"
        );
        assert_eq!(
            verdict.stats().orbits_pruned,
            unsplit.stats().orbits_pruned,
            "{workers}w/{threshold}"
        );
        assert!(
            run.report.splits > 0 && run.report.subranges > run.report.splits,
            "{workers}w/{threshold}: the search must actually have split"
        );
    }
}
