//! A faithful port of the *seed* speculative runtime, kept as a measurement
//! reference.
//!
//! The production [`semcommute_runtime::SpeculativeRuntime`] replaced the
//! seed's hot path (one global structure mutex + one flat shared operation
//! log + a full abstract-state clone recorded per operation) with
//! per-transaction logs and pre-state projections. To
//! measure what that bought *on the same host in the same run*, this module
//! preserves the seed engine exactly as it was:
//!
//! * every operation takes the global structure lock **and** the global log
//!   lock, and holds both through admission;
//! * admission builds a [`ConditionContext`] per logged entry, cloning the
//!   entry's full recorded `AbstractState`;
//! * every executed operation records `structure.abstract_state()` — an
//!   O(structure size) eager clone — as its pre-state;
//! * commit and abort rescan the whole shared log
//!   (`remove_transaction`-style retain-and-clone).
//!
//! The `runtime_perf` binary drives identical workloads through this engine
//! and the production engine and reports the per-operation overhead ratio in
//! `BENCH_pr7.json`.

use std::sync::Arc;

use parking_lot::Mutex;
use semcommute_core::concrete::{evaluate, ConditionContext};
use semcommute_core::{
    interface_catalog, inverse_catalog, CommutativityCondition, ConditionKind, InverseOperation,
};
use semcommute_logic::Value;
use semcommute_runtime::structure::AnyStructure;
use semcommute_spec::{AbstractState, InterfaceId};
use std::collections::HashMap;

/// The seed's log entry: the pre-state is a full eager [`AbstractState`]
/// clone, recorded unconditionally for every operation.
#[derive(Debug, Clone)]
struct SeedEntry {
    txn: u64,
    op: String,
    args: Vec<Value>,
    result: Option<Value>,
    pre_state: AbstractState,
}

/// The seed's gatekeeper: per-entry [`ConditionContext`] construction (full
/// state clone included) and the original `unwrap_or(false)` error masking.
struct SeedGatekeeper {
    conditions: HashMap<(String, String), CommutativityCondition>,
}

impl SeedGatekeeper {
    fn new(interface: InterfaceId) -> SeedGatekeeper {
        let mut conditions = HashMap::new();
        for condition in interface_catalog(interface) {
            if condition.kind == ConditionKind::Between
                && condition.first.recorded
                && condition.second.recorded
            {
                conditions.insert(
                    (condition.first.op.clone(), condition.second.op.clone()),
                    condition,
                );
            }
        }
        SeedGatekeeper { conditions }
    }

    fn admits(&self, entries: &[SeedEntry], txn: u64, op: &str, args: &[Value]) -> bool {
        entries.iter().filter(|e| e.txn != txn).all(|logged| {
            let Some(condition) = self.conditions.get(&(logged.op.clone(), op.to_string())) else {
                return false;
            };
            let ctx = ConditionContext {
                first_args: logged.args.clone(),
                second_args: args.to_vec(),
                initial_state: Some(logged.pre_state.clone()),
                intermediate_state: None,
                final_state: None,
                first_result: logged.result.clone(),
                second_result: None,
            };
            evaluate(condition, &ctx).unwrap_or(false)
        })
    }
}

struct SeedShared {
    structure: Mutex<AnyStructure>,
    log: Mutex<Vec<SeedEntry>>,
    gatekeeper: SeedGatekeeper,
    inverses: HashMap<String, InverseOperation>,
    stats: Mutex<SeedStats>,
}

/// Commit/abort/operation counters of a [`SeedRuntime`].
#[derive(Debug, Clone, Copy, Default)]
pub struct SeedStats {
    /// Committed transactions.
    pub commits: u64,
    /// Aborted transactions.
    pub aborts: u64,
    /// Operations executed.
    pub operations: u64,
}

/// The seed speculative runtime (see the module docs).
#[derive(Clone)]
pub struct SeedRuntime {
    shared: Arc<SeedShared>,
}

impl SeedRuntime {
    /// Wraps a concrete structure, seed style.
    pub fn new(structure: AnyStructure) -> SeedRuntime {
        let interface = structure.interface();
        SeedRuntime {
            shared: Arc::new(SeedShared {
                structure: Mutex::new(structure),
                log: Mutex::new(Vec::new()),
                gatekeeper: SeedGatekeeper::new(interface),
                inverses: inverse_catalog()
                    .into_iter()
                    .filter(|inv| inv.interface == interface)
                    .map(|inv| (inv.op.clone(), inv))
                    .collect(),
                stats: Mutex::new(SeedStats::default()),
            }),
        }
    }

    /// Runs one transaction of the given operations, retrying the whole
    /// script on conflict (seed discipline: abort, roll back, try again).
    /// Returns `true` once committed, `false` if the retry budget ran out.
    pub fn run_transaction(&self, txn: u64, script: &[(&str, Vec<Value>)], retries: usize) -> bool {
        let shared = &self.shared;
        'attempts: for _ in 0..=retries {
            let mut executed = 0usize;
            for (op, args) in script {
                // Seed hot path: structure lock, then log lock, held through
                // admission and apply.
                let mut structure = shared.structure.lock();
                let mut log = shared.log.lock();
                if !shared.gatekeeper.admits(&log, txn, op, args) {
                    drop(log);
                    self.undo(&mut structure, txn);
                    shared.stats.lock().aborts += 1;
                    drop(structure);
                    std::thread::yield_now();
                    continue 'attempts;
                }
                let pre_state = structure.abstract_state();
                let result = structure
                    .apply(op, args)
                    .expect("benchmark scripts are dispatch-valid");
                log.push(SeedEntry {
                    txn,
                    op: (*op).to_string(),
                    args: args.clone(),
                    result,
                    pre_state,
                });
                shared.stats.lock().operations += 1;
                executed += 1;
            }
            debug_assert_eq!(executed, script.len());
            // Commit: full-log retain-and-clone under both locks.
            let _structure = shared.structure.lock();
            shared.log.lock().retain(|e| e.txn != txn);
            shared.stats.lock().commits += 1;
            return true;
        }
        false
    }

    /// Seed rollback: extract this transaction's entries from the shared log
    /// (full scan) and undo them newest-first with the verified inverses.
    fn undo(&self, structure: &mut AnyStructure, txn: u64) {
        let mut mine = Vec::new();
        self.shared.log.lock().retain(|e| {
            if e.txn == txn {
                mine.push(e.clone());
                false
            } else {
                true
            }
        });
        for entry in mine.iter().rev() {
            let Some(inverse) = self.shared.inverses.get(&entry.op) else {
                continue;
            };
            let Some((op, args)) = inverse.concrete_call(&entry.args, entry.result.as_ref()) else {
                continue;
            };
            structure
                .apply(&op, &args)
                .expect("verified inverses always apply");
        }
    }

    /// The current abstract state.
    pub fn snapshot(&self) -> AbstractState {
        self.shared.structure.lock().abstract_state()
    }

    /// Counters so far.
    pub fn stats(&self) -> SeedStats {
        *self.shared.stats.lock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_runtime_commits_disjoint_transactions() {
        let rt = SeedRuntime::new(AnyStructure::by_name("HashSet").unwrap());
        assert!(rt.run_transaction(1, &[("add", vec![Value::elem(1)])], 4));
        assert!(rt.run_transaction(2, &[("add", vec![Value::elem(2)])], 4));
        let stats = rt.stats();
        assert_eq!(stats.commits, 2);
        assert_eq!(stats.operations, 2);
        assert_eq!(
            rt.snapshot(),
            AbstractState::Set(
                [semcommute_logic::ElemId(1), semcommute_logic::ElemId(2)]
                    .into_iter()
                    .collect()
            )
        );
    }
}
