//! Cross-thread differential stress harness for the speculative runtime.
//!
//! For every concrete structure, random mixed workloads run through the
//! [`SpeculativeRuntime`] at 1, 4, and 8 threads. The key domain is small, so
//! transactions genuinely collide and the conflict/abort/rollback paths are
//! exercised, not just the happy path. After each run the harness checks:
//!
//! 1. **Serializability.** Every committed transaction records its operations
//!    (with their return values) and its commit ticket. Replaying the
//!    committed transactions serially, in ticket order, through the
//!    coarse-lock oracle must reproduce every recorded return value and the
//!    final abstract state — i.e. the concurrent execution is equivalent to
//!    that serial execution. This is exactly the property the verified
//!    between conditions and inverse operations are supposed to buy.
//! 2. **Representation invariants** hold on the shared structure afterwards.
//! 3. **Stats identity**: `commits + aborts == begun`, and the number of
//!    recorded committed transactions equals `commits`.
//!
//! The workload size is tunable for nightly-style soak runs via the
//! `SEMCOMMUTE_STRESS_ITERS` environment variable (transactions per thread,
//! default 40).
//!
//! Since PR 10 the matrix also crosses the contention-management fallback:
//! the base legs inherit the process-wide `SEMCOMMUTE_FALLBACK` default (so
//! the CI env legs bite), and dedicated legs pin the explicit `off` oracle
//! and the `aggressive` preset — plus a fault-driven leg that forces the
//! engine through mode transitions mid-workload. Replay must stay
//! bit-identical across all of them: degraded commits interleave with
//! speculative ones in the same commit-ticket order, and the drain barrier
//! is exactly what makes that order remain a valid serialization.

use std::sync::{Arc, Mutex};

use semcommute_logic::Value;
use semcommute_runtime::{
    AnyStructure, BackoffOptions, CoarseLockRuntime, FallbackOptions, FaultPlan, RuntimeOptions,
    SpeculativeRuntime, TxnError,
};
use semcommute_spec::InterfaceId;

/// Deterministic xorshift64* generator — no external crates, reproducible
/// failures.
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> XorShift {
        XorShift(seed | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn iterations() -> u64 {
    std::env::var("SEMCOMMUTE_STRESS_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(40)
}

/// A random operation valid for the interface. Keys are drawn from a small
/// domain — skewed toward a handful of hot keys half of the time — so
/// concurrent transactions conflict often enough to exercise rollback.
fn random_op(rng: &mut XorShift, interface: InterfaceId) -> (&'static str, Vec<Value>) {
    let key = |rng: &mut XorShift| {
        let hot = rng.below(2) == 0;
        let k = if hot { rng.below(3) } else { rng.below(12) };
        Value::elem(k as u32 + 1)
    };
    match interface {
        InterfaceId::Accumulator => match rng.below(3) {
            0 => ("read", vec![]),
            _ => ("increase", vec![Value::Int(rng.below(11) as i64 - 5)]),
        },
        InterfaceId::Set => match rng.below(8) {
            0..=2 => ("add", vec![key(rng)]),
            3..=4 => ("remove", vec![key(rng)]),
            5..=6 => ("contains", vec![key(rng)]),
            _ => ("size", vec![]),
        },
        InterfaceId::Map => match rng.below(8) {
            0..=2 => ("put", vec![key(rng), Value::elem(rng.below(16) as u32 + 1)]),
            3..=4 => ("remove", vec![key(rng)]),
            5..=6 => ("get", vec![key(rng)]),
            _ => ("size", vec![]),
        },
        InterfaceId::List => {
            // Indices may be out of range by the time the operation runs —
            // the dispatcher rejects those and the transaction is dropped.
            let index = |rng: &mut XorShift| Value::Int(rng.below(5) as i64);
            match rng.below(10) {
                0..=2 => ("addAt", vec![index(rng), key(rng)]),
                3..=4 => ("removeAt", vec![index(rng)]),
                5 => ("set", vec![index(rng), key(rng)]),
                6 => ("get", vec![index(rng)]),
                7 => ("indexOf", vec![key(rng)]),
                _ => ("size", vec![]),
            }
        }
    }
}

/// A committed transaction as observed concurrently: its commit ticket and
/// the operations it executed with their recorded return values.
struct Committed {
    ticket: u64,
    ops: Vec<(&'static str, Vec<Value>, Option<Value>)>,
}

/// Runs the random workload at the given thread count under the given
/// [`RuntimeOptions`] and checks every differential property. Returns the
/// runtime so callers can assert leg-specific properties (mode transitions,
/// degraded commits) on top of the differential ones.
fn differential_with(
    structure_name: &str,
    threads: u64,
    options: RuntimeOptions,
) -> SpeculativeRuntime {
    let per_thread = iterations();
    let rt =
        SpeculativeRuntime::with_options(AnyStructure::by_name(structure_name).unwrap(), options);
    let interface = AnyStructure::by_name(structure_name).unwrap().interface();
    let committed: Mutex<Vec<Committed>> = Mutex::new(Vec::new());

    std::thread::scope(|scope| {
        for thread in 0..threads {
            let rt = rt.clone();
            let committed = &committed;
            scope.spawn(move || {
                let mut rng =
                    XorShift::new(0x9e37_79b9 ^ (thread << 32) ^ threads ^ per_thread << 8);
                'txns: for _ in 0..per_thread {
                    let script: Vec<(&'static str, Vec<Value>)> = (0..rng.below(3) + 1)
                        .map(|_| random_op(&mut rng, interface))
                        .collect();
                    'retries: for _ in 0..1_000 {
                        let mut txn = rt.begin();
                        let mut recorded = Vec::with_capacity(script.len());
                        for (op, args) in &script {
                            match txn.execute(op, args) {
                                Ok(result) => recorded.push((*op, args.clone(), result)),
                                Err(TxnError::Conflict(_)) => {
                                    txn.abort();
                                    std::thread::yield_now();
                                    continue 'retries;
                                }
                                Err(TxnError::Dispatch(_)) => {
                                    // Stale index (list shrank): drop the
                                    // whole transaction, nothing committed.
                                    txn.abort();
                                    continue 'txns;
                                }
                                Err(other) => {
                                    panic!("unexpected transaction error: {other}")
                                }
                            }
                        }
                        let ticket = txn.commit();
                        committed.lock().unwrap().push(Committed {
                            ticket,
                            ops: recorded,
                        });
                        continue 'txns;
                    }
                    // Retry budget exhausted: the transaction stays aborted,
                    // which the stats identity below still accounts for.
                }
            });
        }
    });

    // 2. Representation invariants hold on the live structure.
    rt.check_invariants()
        .unwrap_or_else(|e| panic!("{structure_name}/{threads}: invariant violated: {e}"));

    // 3. Stats identity.
    let stats = rt.stats();
    assert_eq!(
        stats.begun,
        stats.commits + stats.aborts,
        "{structure_name}/{threads}: every begun transaction must commit or abort"
    );
    let mut committed = committed.into_inner().unwrap();
    assert_eq!(
        stats.commits as usize,
        committed.len(),
        "{structure_name}/{threads}: commit count disagrees with recorded transactions"
    );
    assert_eq!(rt.pending_operations(), 0);

    // 1. Serializability: serial replay in commit-ticket order through the
    // coarse-lock oracle reproduces every recorded result and the final
    // state.
    committed.sort_by_key(|c| c.ticket);
    let oracle = CoarseLockRuntime::new(AnyStructure::by_name(structure_name).unwrap());
    for txn in &committed {
        oracle.run_transaction(|serial| {
            for (op, args, recorded) in &txn.ops {
                let replayed = serial.execute(op, args).unwrap_or_else(|e| {
                    panic!("{structure_name}/{threads}: committed `{op}` rejected on replay: {e}")
                });
                assert_eq!(
                    &replayed, recorded,
                    "{structure_name}/{threads}: `{op}` returned a different value on serial \
                     replay — the concurrent execution is not serializable"
                );
            }
        });
    }
    assert_eq!(
        oracle.snapshot(),
        rt.snapshot(),
        "{structure_name}/{threads}: final state differs from the serial execution"
    );
    rt
}

fn differential_all_thread_counts(structure_name: &str) {
    for threads in [1, 4, 8] {
        differential_with(structure_name, threads, RuntimeOptions::default());
    }
}

/// The fallback axis of the matrix: the explicit `off` oracle (the
/// pre-fallback engine) and the `aggressive` preset (transitions reachable
/// within a default-sized workload) at every thread count. Whether or not a
/// particular interleaving actually trips the threshold, commit-ticket
/// replay must stay bit-identical.
fn differential_fallback_axis(structure_name: &str) {
    for fallback in [FallbackOptions::off(), FallbackOptions::aggressive()] {
        for threads in [1, 4, 8] {
            let rt = differential_with(
                structure_name,
                threads,
                RuntimeOptions {
                    fallback,
                    ..RuntimeOptions::default()
                },
            );
            if !fallback.enabled {
                assert_eq!(
                    rt.stats().mode_switches,
                    0,
                    "{structure_name}/{threads}: a disabled fallback must never switch modes"
                );
                assert_eq!(rt.stats().degraded_commits, 0);
            }
        }
    }
}

/// The fault-driven leg: forced conflicts burn the first abort window, so
/// the engine *deterministically* degrades mid-workload and (with the
/// aggressive preset's short probe period) transitions back and forth while
/// the random workload continues underneath. Degraded and speculative
/// commits interleave in one ticket sequence — and the serial replay and
/// final-state checks inside [`differential_with`] must still hold exactly.
fn differential_across_mode_transitions(structure_name: &str, threads: u64) {
    let plan = Arc::new(FaultPlan::new());
    // The aggressive window is 16 finishes at a 25% threshold: 24 forced
    // first-op conflicts guarantee the first closed window is all aborts,
    // whatever the thread interleaving.
    for ordinal in 1..=24 {
        plan.force_conflict_at(ordinal);
    }
    let rt = differential_with(
        structure_name,
        threads,
        RuntimeOptions {
            fallback: FallbackOptions::aggressive(),
            backoff: BackoffOptions::off(),
            faults: Some(Arc::clone(&plan)),
        },
    );
    let stats = rt.stats();
    assert!(
        stats.mode_switches >= 1,
        "{structure_name}/{threads}: the forced abort window must degrade the structure: {stats:?}"
    );
    assert!(
        stats.degraded_commits >= 1,
        "{structure_name}/{threads}: some commits must have run through the coarse section: {stats:?}"
    );
    // Once the structure degrades, remaining scheduled ordinals may be
    // drawn by degraded executes, which never consult the conflict hook —
    // so "at least the window-burning prefix, at most all" is the exact
    // bound here (single-threaded exactness is pinned in
    // `fault_injection.rs`).
    let fired = plan.fired().len();
    assert!((1..=24).contains(&fired), "fired {fired} forced conflicts");
}

#[test]
fn differential_accumulator() {
    differential_all_thread_counts("Accumulator");
}

#[test]
fn differential_hash_set() {
    differential_all_thread_counts("HashSet");
}

#[test]
fn differential_list_set() {
    differential_all_thread_counts("ListSet");
}

#[test]
fn differential_hash_table() {
    differential_all_thread_counts("HashTable");
}

#[test]
fn differential_association_list() {
    differential_all_thread_counts("AssociationList");
}

#[test]
fn differential_array_list() {
    differential_all_thread_counts("ArrayList");
}

#[test]
fn differential_fallback_hash_set() {
    differential_fallback_axis("HashSet");
}

#[test]
fn differential_fallback_hash_table() {
    differential_fallback_axis("HashTable");
}

#[test]
fn differential_fallback_array_list() {
    differential_fallback_axis("ArrayList");
}

#[test]
fn differential_fallback_accumulator() {
    differential_fallback_axis("Accumulator");
}

#[test]
fn differential_mode_transitions_hash_set() {
    for threads in [1, 4] {
        differential_across_mode_transitions("HashSet", threads);
    }
}

#[test]
fn differential_mode_transitions_hash_table() {
    for threads in [1, 4] {
        differential_across_mode_transitions("HashTable", threads);
    }
}
