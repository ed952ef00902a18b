//! Property-based tests of the obligation scheduler: arbitrary
//! obligation multisets are fully drained at any worker count, each unique
//! canonical hash is proved exactly once — including when duplicates race
//! through the worker-side keying + in-flight claim/subscribe path — the
//! dedup accounting balances (`proved + cache_hits + skipped == submitted`),
//! and every verdict matches what a fresh sequential portfolio would have
//! said.

use std::collections::HashSet;

use proptest::prelude::*;

use semcommute_logic::build::*;
use semcommute_prover::{queue, Obligation, Portfolio, Scope, Verdict};

/// A small pool of obligations: valid (structural and finite-model),
/// invalid, and canonical duplicates under different names — so sampled
/// multisets routinely contain both kinds of dedup.
fn obligation() -> impl Strategy<Value = Obligation> {
    prop_oneof![
        // valid, decided structurally
        Just(
            Obligation::new("add_add")
                .define("s1", set_add(var_set("s"), var_elem("v")))
                .goal(eq(
                    set_add(var_set("s1"), var_elem("w")),
                    set_add(set_add(var_set("s"), var_elem("v")), var_elem("w"))
                ))
        ),
        // the same obligation, renamed: canonically identical
        Just(
            Obligation::new("add_add_again")
                .define("s1", set_add(var_set("s"), var_elem("v")))
                .goal(eq(
                    set_add(var_set("s1"), var_elem("w")),
                    set_add(set_add(var_set("s"), var_elem("v")), var_elem("w"))
                ))
        ),
        // valid, needs the finite-model search
        Just(
            Obligation::new("member_after_add")
                .define("s1", set_add(var_set("s"), var_elem("v")))
                .goal(member(var_elem("v"), var_set("s1")))
        ),
        // invalid: has a counterexample
        Just(Obligation::new("bogus_membership").goal(member(var_elem("v"), var_set("s")))),
        Just(Obligation::new("bogus_equality").goal(eq(var_elem("a"), var_elem("b")))),
        // invalid, about cardinality
        Just(Obligation::new("bogus_card").goal(eq(card(var_set("s")), int(1)))),
        // valid, integer reasoning
        Just(
            Obligation::new("inc_dec")
                .define("c1", add(var_int("c"), var_int("v")))
                .define("c2", sub(var_int("c1"), var_int("v")))
                .goal(eq(var_int("c2"), var_int("c")))
        ),
    ]
}

fn multiset() -> impl Strategy<Value = Vec<Obligation>> {
    proptest::collection::vec(obligation(), 0..24)
}

/// The observable part of a verdict (kind + counterexample), for comparing
/// scheduler output against the sequential baseline.
fn observable(verdict: &Verdict) -> String {
    match verdict {
        Verdict::Valid { .. } => "valid".to_string(),
        Verdict::CounterModel { model, .. } => format!("counterexample:\n{model}"),
        Verdict::Unknown { reason, .. } => format!("unknown: {reason}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every submission gets a verdict, unique canonical hashes are proved
    /// exactly once, and the accounting balances at any worker count.
    #[test]
    fn scheduler_drains_and_dedups(obligations in multiset(), workers in 1usize..9) {
        let portfolio = Portfolio::new(Scope::small());
        let unique: HashSet<u128> = obligations
            .iter()
            .map(|ob| portfolio.canonical_key(ob))
            .collect();
        let run = queue::prove_all(&portfolio, &obligations, workers);

        // Fully drained: one verdict per submission, none skipped.
        prop_assert_eq!(run.verdicts.len(), obligations.len());
        prop_assert!(run.verdicts.iter().all(|v| v.is_some()));
        prop_assert_eq!(run.report.skipped, 0);

        // Each unique canonical hash proved exactly once...
        prop_assert_eq!(run.report.submitted, obligations.len());
        prop_assert_eq!(run.report.unique, unique.len());
        prop_assert_eq!(run.report.proved, unique.len() as u64);
        prop_assert_eq!(portfolio.cached_verdicts(), unique.len());

        // ... and the dedup accounting balances.
        prop_assert_eq!(
            run.report.cache_hits + run.report.proved,
            run.report.submitted as u64
        );
    }

    /// Scheduler verdicts are observationally identical to proving each
    /// submission on a fresh sequential portfolio.
    #[test]
    fn scheduler_verdicts_match_sequential(obligations in multiset(), workers in 2usize..9) {
        let run = queue::prove_all(&Portfolio::new(Scope::small()), &obligations, workers);
        let sequential = Portfolio::new(Scope::small());
        for (ob, verdict) in obligations.iter().zip(&run.verdicts) {
            let expected = sequential.prove(ob);
            prop_assert_eq!(
                observable(verdict.as_ref().expect("drained")),
                observable(&expected),
                "verdict for `{}` drifted under {} workers", &ob.name, workers
            );
        }
    }

    /// A second run over a warm shared cache proves nothing new: every
    /// submission is answered by the verdict cache.
    #[test]
    fn warm_cache_answers_everything(obligations in multiset(), workers in 1usize..9) {
        let portfolio = Portfolio::new(Scope::small());
        let first = queue::prove_all(&portfolio, &obligations, workers);
        prop_assert_eq!(first.report.proved as usize, first.report.unique);
        let second = queue::prove_all(&portfolio, &obligations, workers);
        prop_assert_eq!(second.report.proved, 0);
        prop_assert_eq!(second.report.cache_hits, obligations.len() as u64);
        for (a, b) in first.verdicts.iter().zip(&second.verdicts) {
            prop_assert_eq!(
                observable(a.as_ref().unwrap()),
                observable(b.as_ref().unwrap())
            );
        }
    }
}

/// Early-exit guards: obligations after a failing index may be skipped
/// (each submission checks its own guard when popped — keying included, a
/// skipped submission is never interned), but the failing index itself is
/// always proved, and a *live* group's submission of a shared canonical
/// hash is never lost to another group's failure.
#[test]
fn exit_guard_skips_only_later_indices() {
    use queue::{ExitGuard, ScheduledObligation};
    use std::sync::Arc;

    let portfolio = Portfolio::new(Scope::small());
    let failing = Obligation::new("fails").goal(member(var_elem("v"), var_set("s")));
    let valid = Obligation::new("holds").goal(eq(var_int("x"), var_int("x")));
    let late = Obligation::new("late").goal(eq(var_int("y"), var_int("y")));

    for workers in [1, 2, 4] {
        let guard = Arc::new(ExitGuard::new());
        let live = Arc::new(ExitGuard::new());
        let items = vec![
            ScheduledObligation::new(valid.clone()).with_guard(guard.clone(), 0),
            ScheduledObligation::new(failing.clone()).with_guard(guard.clone(), 1),
            // Same group, above the failure: skippable (and at one worker,
            // where the failure is always observed first, skipped)...
            ScheduledObligation::new(late.clone()).with_guard(guard.clone(), 2),
            // ... while the same canonical hash at index 0 of a live group
            // must always be proved and delivered.
            ScheduledObligation::new(late.clone()).with_guard(live.clone(), 0),
        ];
        let run = queue::prove_all_scheduled(std::slice::from_ref(&portfolio), items, workers);
        assert_eq!(guard.failed_at(), Some(1), "{workers} workers");
        assert_eq!(live.failed_at(), None);
        assert!(run.verdicts[0].as_ref().unwrap().is_valid());
        assert!(run.verdicts[1].as_ref().unwrap().is_counterexample());
        assert!(
            run.verdicts[3].as_ref().unwrap().is_valid(),
            "a live group's submission survives another group's failure"
        );
        // Index 2 is in the failed group above the failure: whether it was
        // skipped or raced to a verdict, the accounting must balance and a
        // delivered verdict must be the real one.
        if let Some(v) = &run.verdicts[2] {
            assert!(v.is_valid());
        }
        assert_eq!(
            run.report.proved + run.report.cache_hits + run.report.skipped,
            run.report.submitted as u64,
            "{workers} workers"
        );
        if workers == 1 {
            // In-order draining observes the failure before popping 2.
            assert!(run.verdicts[2].is_none(), "skipped after the failure");
            assert_eq!(run.report.skipped, 1);
            // Only the hashes of popped-and-live submissions reach the
            // in-flight table ("holds" and "late" both simplify to `true`,
            // so they share one canonical hash with or without index 2).
            let live: HashSet<u128> = [&valid, &failing, &late]
                .iter()
                .map(|ob| portfolio.canonical_key(ob))
                .collect();
            assert_eq!(run.report.unique, live.len());
        }
    }

    // Without the live subscription the later obligation may be skipped —
    // at one worker (deterministic in-order draining) it always is.
    let guard = Arc::new(ExitGuard::new());
    let items = vec![
        ScheduledObligation::new(failing).with_guard(guard.clone(), 0),
        ScheduledObligation::new(late).with_guard(guard.clone(), 1),
    ];
    let run = queue::prove_all_scheduled(std::slice::from_ref(&portfolio), items, 1);
    assert_eq!(guard.failed_at(), Some(0));
    assert!(run.verdicts[0].as_ref().unwrap().is_counterexample());
    assert!(run.verdicts[1].is_none(), "skipped after the failure");
    assert_eq!(run.report.skipped, 1);
    assert_eq!(
        run.report.proved + run.report.cache_hits + run.report.skipped,
        run.report.submitted as u64
    );
}

/// The in-flight dedup path: many duplicate submissions of obligations that
/// actually cost prover work, drained at high worker counts so claim races
/// are common. Each canonical hash must be proved exactly once per run, the
/// accounting must balance, and — run twice over one shared cache — the
/// second run must answer everything from the cache even though keying
/// happens concurrently on the workers.
#[test]
fn in_flight_dedup_proves_each_hash_once_under_contention() {
    let slow = Obligation::new("slow")
        .define("r1", member(var_elem("v1"), var_set("s")))
        .define("s1", set_add(var_set("s"), var_elem("v2")))
        .define("r2", member(var_elem("v1"), var_set("s1")))
        .assume(not(eq(var_elem("v1"), var_elem("v2"))))
        .goal(eq(var_bool("r1"), var_bool("r2")));
    let other = Obligation::new("other")
        .define("s1", set_add(var_set("s"), var_elem("v")))
        .goal(member(var_elem("v"), var_set("s1")));
    // 24 submissions, 2 unique hashes, 8 workers: most pops lose the claim
    // race and go through subscribe or publish-time dedup.
    let obligations: Vec<Obligation> = (0..24)
        .map(|i| {
            if i % 2 == 0 {
                slow.clone()
            } else {
                other.clone()
            }
        })
        .collect();
    let portfolio = Portfolio::new(Scope::small());
    let run = queue::prove_all(&portfolio, &obligations, 8);
    assert_eq!(run.report.submitted, 24);
    assert_eq!(run.report.unique, 2);
    assert_eq!(run.report.proved, 2, "each hash proved exactly once");
    assert_eq!(run.report.cache_hits, 22);
    assert_eq!(run.report.skipped, 0);
    assert!(run.verdicts.iter().all(|v| v.as_ref().unwrap().is_valid()));
    // The proving submissions carry the real work counters; every duplicate
    // is a pure dedup hit.
    let worked = run
        .verdicts
        .iter()
        .filter(|v| v.as_ref().unwrap().stats().cache_hits == 0)
        .count();
    assert_eq!(worked, 2);

    let second = queue::prove_all(&portfolio, &obligations, 8);
    assert_eq!(second.report.proved, 0, "warm cache answers every claim");
    assert_eq!(second.report.cache_hits, 24);
    assert_eq!(second.report.unique, 2);
}
