//! Deterministic fault-injection suite: every injected fault fires exactly
//! where scheduled, the runtime's recovery paths behave as documented under
//! injection, and the stats accounting (`begun == commits + aborts`, the
//! new `degraded_commits` / `mode_switches` counters) stays consistent
//! throughout.
//!
//! The marquee test drives the full contention-management round-trip —
//! `Speculative → Degraded → Probing → Speculative` — from a single thread,
//! with forced admission conflicts standing in for real contention, so the
//! transition numerics are exact rather than interleaving-dependent.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use semcommute_logic::Value;
use semcommute_runtime::{
    AnyStructure, BackoffOptions, CoarseLockRuntime, FallbackOptions, FaultKind, FaultPlan, Mode,
    RuntimeOptions, SpeculativeRuntime, TxnError,
};

fn runtime_with(plan: &Arc<FaultPlan>, fallback: FallbackOptions) -> SpeculativeRuntime {
    SpeculativeRuntime::with_options(
        AnyStructure::by_name("HashSet").unwrap(),
        RuntimeOptions {
            fallback,
            backoff: BackoffOptions::off(),
            faults: Some(Arc::clone(plan)),
        },
    )
}

fn assert_stats_identity(rt: &SpeculativeRuntime) {
    let stats = rt.stats();
    assert_eq!(
        stats.begun,
        stats.commits + stats.aborts,
        "every begun transaction must have finished: {stats:?}"
    );
}

/// The tentpole demonstration: forced conflicts burn a full abort window
/// (degrading the structure), the degraded phase commits through the coarse
/// section, probing re-measures, and a clean probe window restores
/// speculation — with every counter accounted for.
#[test]
fn forced_conflicts_drive_a_full_mode_round_trip() {
    let plan = Arc::new(FaultPlan::new());
    // One forced conflict per ordinal 1..=8: exactly one abort window.
    for ordinal in 1..=8 {
        plan.force_conflict_at(ordinal);
    }
    let options = FallbackOptions {
        enabled: true,
        window: 8,
        degrade_percent: 50,
        probe_period: 4,
        probe_window: 4,
    };
    let rt = runtime_with(&plan, options);
    assert_eq!(rt.mode(), Mode::Speculative);

    // Nine committed transactions, one element each. The first run call
    // burns the eight forced conflicts (one abort per attempt, closing the
    // abort window at 100%) and then commits through the degraded section.
    for element in 1..=9u32 {
        rt.run(100, |txn| {
            txn.execute("add", &[Value::elem(element)]).map(|_| ())
        })
        .unwrap();
        match element {
            // Runs 1–3 finish inside the degraded phase (the fourth
            // degraded finish starts the probe phase).
            1..=3 => assert_eq!(rt.mode(), Mode::Degraded, "after run {element}"),
            // Run 4's commit is the fourth degraded finish → Probing.
            4..=7 => assert_eq!(rt.mode(), Mode::Probing, "after run {element}"),
            // Run 8's commit closes a clean probe window → Speculative.
            _ => assert_eq!(rt.mode(), Mode::Speculative, "after run {element}"),
        }
    }

    let stats = rt.stats();
    assert_eq!(stats.commits, 9);
    assert_eq!(stats.aborts, 8, "one abort per forced conflict");
    assert_eq!(stats.conflicts, 8);
    assert_eq!(stats.begun, 17);
    assert_stats_identity(&rt);
    assert_eq!(
        stats.degraded_commits, 4,
        "runs 1–4 commit through the coarse section"
    );
    assert_eq!(
        stats.mode_switches, 3,
        "Speculative→Degraded, Degraded→Probing, Probing→Speculative"
    );

    // Every scheduled fault fired exactly once, in ordinal order, and the
    // final state holds all nine elements.
    let fired = plan.fired();
    assert_eq!(fired.len(), 8);
    for (i, fault) in fired.iter().enumerate() {
        assert_eq!(fault.kind, FaultKind::ForcedConflict);
        assert_eq!(fault.ordinal, Some(i as u64 + 1));
    }
    assert_eq!(rt.check_invariants(), Ok(()));
    let semcommute_spec::AbstractState::Set(contents) = rt.snapshot() else {
        panic!("set runtime must snapshot a set");
    };
    assert_eq!(contents.len(), 9);
}

#[test]
fn forced_conflict_fires_exactly_where_scheduled() {
    let plan = Arc::new(FaultPlan::new());
    plan.force_conflict_at(2);
    let rt = runtime_with(&plan, FallbackOptions::off());

    let mut t = rt.begin();
    // Ordinal 1: no fault scheduled.
    t.execute("add", &[Value::elem(1)]).unwrap();
    // Ordinal 2: the forced conflict, surfaced as a retryable Conflict.
    let err = t.execute("add", &[Value::elem(2)]).unwrap_err();
    let TxnError::Conflict(conflict) = err else {
        panic!("expected a conflict, got {err:?}");
    };
    assert_eq!(conflict.op_pair(), ("add", "<fault-injection>"));
    t.abort();
    // Ordinal 3 (fresh transaction): clean again.
    rt.run(0, |txn| txn.execute("add", &[Value::elem(3)]).map(|_| ()))
        .unwrap();

    let fired = plan.fired();
    assert_eq!(fired.len(), 1);
    assert_eq!(fired[0].kind, FaultKind::ForcedConflict);
    assert_eq!(fired[0].ordinal, Some(2));
    assert_eq!(rt.stats().conflicts, 1);
    assert_stats_identity(&rt);
}

#[test]
fn injected_rollback_failure_poisons_the_runtime() {
    let plan = Arc::new(FaultPlan::new());
    let rt = runtime_with(&plan, FallbackOptions::off());

    // A first transaction proves rollback is healthy without injection.
    let mut warmup = rt.begin();
    warmup.execute("add", &[Value::elem(1)]).unwrap();
    warmup.abort();
    assert_eq!(rt.poisoned(), None);

    let mut t = rt.begin();
    plan.fail_rollback_of(t.id());
    t.execute("add", &[Value::elem(2)]).unwrap();
    t.abort();

    let reason = rt.poisoned().expect("injection must poison");
    assert!(reason.contains("injected rollback failure"), "{reason}");
    let stats = rt.stats();
    assert_eq!(stats.rollback_failures, 1);
    assert_stats_identity(&rt);

    // Sticky, like a genuine inverse failure: later operations are refused.
    let mut t2 = rt.begin();
    assert!(matches!(
        t2.execute("size", &[]),
        Err(TxnError::Poisoned(_))
    ));
    t2.abort();
    assert_stats_identity(&rt);

    let fired = plan.fired();
    assert_eq!(fired.len(), 1);
    assert_eq!(fired[0].kind, FaultKind::RollbackFailure);
    assert_eq!(fired[0].ordinal, None);
}

#[test]
fn scheduled_panic_fires_at_its_ordinal_and_the_drop_guard_cleans_up() {
    let plan = Arc::new(FaultPlan::new());
    plan.panic_at(2);
    let rt = runtime_with(&plan, FallbackOptions::off());

    let mut t = rt.begin();
    t.execute("add", &[Value::elem(1)]).unwrap();
    let unwound = catch_unwind(AssertUnwindSafe(|| t.execute("add", &[Value::elem(2)])));
    assert!(unwound.is_err(), "ordinal 2 must panic");
    // The transaction is still unfinished; dropping it rolls back the first
    // add through the verified inverse.
    drop(t);

    assert_eq!(rt.poisoned(), None);
    assert_eq!(
        rt.snapshot(),
        semcommute_spec::AbstractState::Set(Default::default())
    );
    let stats = rt.stats();
    assert_eq!(stats.aborts, 1);
    assert_stats_identity(&rt);
    let fired = plan.fired();
    assert_eq!(fired.len(), 1);
    assert_eq!(fired[0].kind, FaultKind::Panic);
    assert_eq!(fired[0].ordinal, Some(2));
}

/// Degradation must not disturb correctness bookkeeping even when faults
/// keep firing *during* degraded and probe phases: periodic conflicts make
/// every probe window fail, so the structure oscillates
/// Degraded → Probing → Degraded indefinitely — and the stats identity
/// still holds at every step.
#[test]
fn stats_stay_consistent_while_probing_keeps_failing() {
    let plan = Arc::new(FaultPlan::new());
    // Every speculative admission attempt conflicts.
    plan.force_conflict_every(1);
    let options = FallbackOptions {
        enabled: true,
        window: 4,
        degrade_percent: 50,
        probe_period: 2,
        probe_window: 2,
    };
    let rt = runtime_with(&plan, options);

    for element in 1..=20u32 {
        rt.run(100, |txn| {
            txn.execute("add", &[Value::elem(element)]).map(|_| ())
        })
        .unwrap();
        assert_stats_identity(&rt);
    }
    let stats = rt.stats();
    assert_eq!(stats.commits, 20);
    assert!(
        stats.degraded_commits >= 10,
        "most commits must have run degraded: {stats:?}"
    );
    assert!(
        stats.mode_switches >= 5,
        "the engine must keep oscillating Degraded↔Probing: {stats:?}"
    );
    assert_ne!(
        rt.mode(),
        Mode::Speculative,
        "permanent contention must keep the structure out of speculation"
    );
    assert!(plan.periodic_conflicts() > 0);
    assert_eq!(rt.check_invariants(), Ok(()));
}

/// Degraded transactions log into the same in-flight stripes as speculative
/// ones (their abort undoes them). With every speculative admission forced
/// into conflict, an operation that succeeds must have run degraded. After a
/// committed and an aborted degraded transaction nothing is left in flight,
/// and the state matches a coarse-lock replay of the committed one.
#[test]
fn degraded_transactions_log_in_flight_and_leave_nothing_behind() {
    let plan = Arc::new(FaultPlan::new());
    plan.force_conflict_every(1);
    let rt = runtime_with(&plan, FallbackOptions::aggressive());
    while rt.mode() != Mode::Degraded {
        let mut txn = rt.begin();
        assert!(matches!(
            txn.execute("add", &[Value::elem(9)]),
            Err(TxnError::Conflict(_))
        ));
        txn.abort();
    }

    let script = [("add", 1), ("add", 2), ("remove", 1)];
    let mut committed = rt.begin();
    let mut recorded = Vec::new();
    for (op, element) in script {
        recorded.push(committed.execute(op, &[Value::elem(element)]).unwrap());
    }
    assert_eq!(committed.operations(), 3);
    assert_eq!(rt.pending_operations(), 3);
    committed.commit();
    assert_eq!(rt.pending_operations(), 0);
    assert_eq!(rt.stats().degraded_commits, 1);

    let mut aborted = rt.begin();
    aborted.execute("add", &[Value::elem(3)]).unwrap();
    aborted.execute("remove", &[Value::elem(2)]).unwrap();
    assert_eq!(rt.pending_operations(), 2);
    aborted.abort();
    assert_eq!(rt.pending_operations(), 0);
    assert_eq!(rt.mode(), Mode::Degraded);

    let oracle = CoarseLockRuntime::new(AnyStructure::by_name("HashSet").unwrap());
    let replayed: Vec<_> = oracle.run_transaction(|serial| {
        script
            .iter()
            .map(|(op, element)| serial.execute(op, &[Value::elem(*element)]).unwrap())
            .collect()
    });
    assert_eq!(replayed, recorded);
    assert_eq!(rt.snapshot(), oracle.snapshot());
    assert_eq!(rt.poisoned(), None);
    assert_eq!(rt.check_invariants(), Ok(()));
    assert_stats_identity(&rt);
}
