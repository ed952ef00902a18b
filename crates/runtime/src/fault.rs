//! Deterministic fault injection for the speculative runtime.
//!
//! The degradation, poisoning, and backoff paths of the engine are all
//! *recovery* paths: under normal workloads they fire rarely and
//! non-deterministically, which makes them nearly untestable from the
//! outside. A [`FaultPlan`] turns them into drivable code: tests and
//! benchmarks schedule faults at exact points — by the process-global
//! **operation ordinal** (the `n`-th `Transaction::execute` call across the
//! runtime, counted from 1) or by transaction id — and the runtime fires
//! them at well-defined hooks:
//!
//! * **Forced admission conflict** — the speculative path reports a
//!   synthetic [`Conflict`](crate::Conflict) before touching the structure,
//!   exactly as if the gatekeeper had rejected the operation. This is how
//!   tests and the high-contention bench leg drive the abort rate without
//!   depending on scheduler interleavings.
//! * **Injected rollback failure** — the abort path of a chosen transaction
//!   poisons the runtime as if a verified inverse had been rejected,
//!   exercising the [`TxnError::Poisoned`](crate::TxnError::Poisoned)
//!   machinery deterministically.
//! * **Panic at point** — `Transaction::execute` panics at a chosen
//!   ordinal, exercising the drop-guard abort path.
//!
//! Every scheduled fault that fires is recorded as a [`FiredFault`], so a
//! test can pin that faults fired *exactly* where scheduled — no more, no
//! less. Periodic conflicts ([`FaultPlan::force_conflict_every`]) are bulk
//! contention injection for benchmarks and are counted, not recorded
//! individually.
//!
//! A plan is attached through
//! [`RuntimeOptions::faults`](crate::RuntimeOptions); a runtime without one
//! pays a single branch per operation.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// What kind of fault to inject (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The speculative path reports a synthetic admission conflict.
    ForcedConflict,
    /// `Transaction::execute` panics.
    Panic,
    /// The transaction's rollback poisons the runtime.
    RollbackFailure,
}

/// A fault that fired, recorded for exact-scheduling assertions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FiredFault {
    /// The kind of fault that fired.
    pub kind: FaultKind,
    /// The transaction it fired in.
    pub txn: u64,
    /// The global operation ordinal it fired at, for ordinal-scheduled
    /// faults; `None` for rollback failures (scheduled by transaction id).
    pub ordinal: Option<u64>,
}

/// A deterministic fault schedule (see the module docs).
///
/// Plans are shared (`Arc<FaultPlan>`) between the scheduling test and the
/// runtime; all methods take `&self`.
#[derive(Default)]
pub struct FaultPlan {
    /// Faults scheduled at exact global operation ordinals.
    at_op: Mutex<HashMap<u64, FaultKind>>,
    /// Fast path: whether `at_op` has ever been populated.
    has_at_op: AtomicBool,
    /// `n > 0`: every ordinal divisible by `n` forced-conflicts.
    conflict_period: AtomicU64,
    /// How many periodic conflicts have fired.
    periodic_conflicts: AtomicU64,
    /// Transactions whose rollback is made to fail.
    rollback_of: Mutex<HashSet<u64>>,
    has_rollback: AtomicBool,
    fired: Mutex<Vec<FiredFault>>,
}

impl fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultPlan")
            .field("scheduled_at_op", &self.at_op.lock().unwrap().len())
            .field(
                "conflict_period",
                &self.conflict_period.load(Ordering::Relaxed),
            )
            .field("fired", &self.fired.lock().unwrap().len())
            .finish()
    }
}

impl FaultPlan {
    /// An empty plan: no faults fire until some are scheduled.
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Schedules a forced admission conflict at global operation ordinal
    /// `ordinal` (1-based across the runtime).
    pub fn force_conflict_at(&self, ordinal: u64) {
        self.schedule(ordinal, FaultKind::ForcedConflict);
    }

    /// Makes every ordinal divisible by `period` report a forced conflict —
    /// bulk, deterministic contention for benchmarks. `0` turns periodic
    /// conflicts off. These fires are counted
    /// ([`periodic_conflicts`](FaultPlan::periodic_conflicts)), not
    /// recorded individually.
    pub fn force_conflict_every(&self, period: u64) {
        self.conflict_period.store(period, Ordering::Release);
    }

    /// Schedules a panic at global operation ordinal `ordinal`.
    pub fn panic_at(&self, ordinal: u64) {
        self.schedule(ordinal, FaultKind::Panic);
    }

    /// Makes transaction `txn`'s rollback fail, poisoning the runtime.
    pub fn fail_rollback_of(&self, txn: u64) {
        self.rollback_of.lock().unwrap().insert(txn);
        self.has_rollback.store(true, Ordering::Release);
    }

    /// Every individually-scheduled fault that has fired, in firing order.
    pub fn fired(&self) -> Vec<FiredFault> {
        self.fired.lock().unwrap().clone()
    }

    /// How many periodic conflicts ([`force_conflict_every`]) have fired.
    ///
    /// [`force_conflict_every`]: FaultPlan::force_conflict_every
    pub fn periodic_conflicts(&self) -> u64 {
        self.periodic_conflicts.load(Ordering::Relaxed)
    }

    fn schedule(&self, ordinal: u64, kind: FaultKind) {
        self.at_op.lock().unwrap().insert(ordinal, kind);
        self.has_at_op.store(true, Ordering::Release);
    }

    fn record(&self, kind: FaultKind, txn: u64, ordinal: Option<u64>) {
        self.fired
            .lock()
            .unwrap()
            .push(FiredFault { kind, txn, ordinal });
    }

    fn scheduled(&self, ordinal: u64) -> Option<FaultKind> {
        if !self.has_at_op.load(Ordering::Acquire) {
            return None;
        }
        self.at_op.lock().unwrap().get(&ordinal).copied()
    }

    /// Executor hook: panics if a panic is scheduled at `ordinal`
    /// (recording the fire first).
    pub(crate) fn fire_panic(&self, txn: u64, ordinal: u64) {
        if let Some(FaultKind::Panic) = self.scheduled(ordinal) {
            self.record(FaultKind::Panic, txn, Some(ordinal));
            panic!("fault injection: scheduled panic at operation ordinal {ordinal}");
        }
    }

    /// Executor hook: whether `ordinal` should report a forced conflict.
    pub(crate) fn fire_forced_conflict(&self, txn: u64, ordinal: u64) -> bool {
        let period = self.conflict_period.load(Ordering::Acquire);
        if period > 0 && ordinal.is_multiple_of(period) {
            self.periodic_conflicts.fetch_add(1, Ordering::Relaxed);
            return true;
        }
        if let Some(FaultKind::ForcedConflict) = self.scheduled(ordinal) {
            self.record(FaultKind::ForcedConflict, txn, Some(ordinal));
            return true;
        }
        false
    }

    /// Executor hook: whether transaction `txn`'s rollback should fail.
    pub(crate) fn fire_rollback_failure(&self, txn: u64) -> bool {
        if !self.has_rollback.load(Ordering::Acquire) {
            return false;
        }
        if self.rollback_of.lock().unwrap().contains(&txn) {
            self.record(FaultKind::RollbackFailure, txn, None);
            return true;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hooks_fire_exactly_where_scheduled() {
        let plan = FaultPlan::new();
        plan.force_conflict_at(3);
        plan.fail_rollback_of(9);
        for ordinal in 1..=6 {
            assert_eq!(plan.fire_forced_conflict(1, ordinal), ordinal == 3);
            plan.fire_panic(1, ordinal); // none scheduled: must not panic
        }
        assert!(!plan.fire_rollback_failure(8));
        assert!(plan.fire_rollback_failure(9));
        assert_eq!(
            plan.fired(),
            vec![
                FiredFault {
                    kind: FaultKind::ForcedConflict,
                    txn: 1,
                    ordinal: Some(3),
                },
                FiredFault {
                    kind: FaultKind::RollbackFailure,
                    txn: 9,
                    ordinal: None,
                },
            ]
        );
    }

    #[test]
    fn periodic_conflicts_are_counted_not_recorded() {
        let plan = FaultPlan::new();
        plan.force_conflict_every(3);
        let fired: Vec<u64> = (1..=12)
            .filter(|&o| plan.fire_forced_conflict(1, o))
            .collect();
        assert_eq!(fired, vec![3, 6, 9, 12]);
        assert_eq!(plan.periodic_conflicts(), 4);
        assert!(plan.fired().is_empty());
        plan.force_conflict_every(0);
        assert!(!plan.fire_forced_conflict(1, 15));
    }

    #[test]
    #[should_panic(expected = "scheduled panic at operation ordinal 2")]
    fn scheduled_panic_panics() {
        let plan = FaultPlan::new();
        plan.panic_at(2);
        plan.fire_panic(4, 1);
        plan.fire_panic(4, 2);
    }
}
