//! Runtime benchmarks: the paper's motivating use case.
//!
//! * `speculative_vs_coarse` — throughput of commutativity-aware optimistic
//!   transactions against a coarse transaction-scoped lock, on a workload of
//!   mostly-commuting set operations (the Chapter 1 motivation: commuting
//!   operations expose parallelism).
//! * `rollback` — inverse-operation rollback against snapshot (save/restore)
//!   rollback for increasing structure sizes (the Section 1.3 efficiency
//!   claim for inverse operations).
//! * `gatekeeper` — the cost of a dynamic between-condition check itself.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use semcommute_logic::Value;
use semcommute_runtime::{
    AnyStructure, CoarseLockRuntime, CommutativityGatekeeper, InverseRollback, LogEntry,
    SnapshotRollback, SpeculativeRuntime,
};
use semcommute_spec::InterfaceId;

const THREADS: u32 = 4;
const OPS_PER_THREAD: u32 = 64;

/// Simulates the per-operation "work" a real client performs between data
/// structure operations (what makes transaction-length locking costly).
fn think() {
    std::hint::black_box((0..200).fold(0u64, |a, b| a.wrapping_add(b * b)));
}

fn speculative_workload() -> u64 {
    let rt = SpeculativeRuntime::new(AnyStructure::by_name("HashSet").unwrap());
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let rt = rt.clone();
            scope.spawn(move || {
                for i in 0..OPS_PER_THREAD {
                    let element = Value::elem(t * OPS_PER_THREAD + i + 1);
                    rt.run(8, |txn| {
                        txn.execute("add", std::slice::from_ref(&element))?;
                        think();
                        txn.execute("contains", std::slice::from_ref(&element))?;
                        Ok(())
                    })
                    .unwrap();
                }
            });
        }
    });
    rt.stats().commits
}

fn coarse_workload() -> u64 {
    let rt = CoarseLockRuntime::new(AnyStructure::by_name("HashSet").unwrap());
    let committed = std::sync::atomic::AtomicU64::new(0);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let rt = rt.clone();
            let committed = &committed;
            scope.spawn(move || {
                for i in 0..OPS_PER_THREAD {
                    let element = Value::elem(t * OPS_PER_THREAD + i + 1);
                    rt.run_transaction(|txn| {
                        txn.execute("add", std::slice::from_ref(&element)).unwrap();
                        think();
                        txn.execute("contains", std::slice::from_ref(&element))
                            .unwrap();
                    });
                    committed.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
            });
        }
    });
    committed.load(std::sync::atomic::Ordering::Relaxed)
}

fn bench_speculative_vs_coarse(c: &mut Criterion) {
    let mut group = c.benchmark_group("speculative_vs_coarse");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(8));
    group.bench_function("speculative_commutativity", |b| {
        b.iter(|| {
            let commits = speculative_workload();
            assert_eq!(commits, u64::from(THREADS * OPS_PER_THREAD));
        })
    });
    group.bench_function("coarse_lock", |b| {
        b.iter(|| {
            let commits = coarse_workload();
            assert_eq!(commits, u64::from(THREADS * OPS_PER_THREAD));
        })
    });
    group.finish();
}

fn bench_rollback(c: &mut Criterion) {
    let mut group = c.benchmark_group("rollback");
    group.sample_size(20);
    for size in [100u32, 1_000, 10_000] {
        // A structure with `size` elements in which a transaction performed
        // two updates that must be rolled back.
        let build = |size: u32| {
            let mut s = AnyStructure::by_name("HashSet").unwrap();
            for i in 1..=size {
                s.apply("add", &[Value::elem(i)]).unwrap();
            }
            s
        };
        group.bench_with_input(BenchmarkId::new("inverse", size), &size, |b, &size| {
            let rollback = InverseRollback::new(InterfaceId::Set);
            b.iter_batched(
                || {
                    let mut s = build(size);
                    let r1 = s.apply("add", &[Value::elem(size + 1)]).unwrap();
                    let r2 = s.apply("remove", &[Value::elem(1)]).unwrap();
                    // Inverses read arguments and results only; no pre-state
                    // needs to be recorded for rollback.
                    let entries = vec![
                        LogEntry {
                            txn: 1,
                            op: "add".into(),
                            args: vec![Value::elem(size + 1)],
                            result: r1,
                            pre_state: None,
                        },
                        LogEntry {
                            txn: 1,
                            op: "remove".into(),
                            args: vec![Value::elem(1)],
                            result: r2,
                            pre_state: None,
                        },
                    ];
                    (s, entries)
                },
                |(mut s, entries)| rollback.undo(&mut s, &entries).unwrap(),
                criterion::BatchSize::LargeInput,
            )
        });
        group.bench_with_input(BenchmarkId::new("snapshot", size), &size, |b, &size| {
            b.iter_batched(
                || {
                    let s = build(size);
                    // The snapshot must be taken *before* the speculative
                    // updates — that cost is part of this strategy.
                    (s, ())
                },
                |(mut s, ())| {
                    let snapshot = SnapshotRollback::capture(&s);
                    s.apply("add", &[Value::elem(size + 1)]).unwrap();
                    s.apply("remove", &[Value::elem(1)]).unwrap();
                    snapshot.restore().unwrap()
                },
                criterion::BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

fn bench_gatekeeper_check(c: &mut Criterion) {
    let gatekeeper = CommutativityGatekeeper::new(InterfaceId::Set);
    let add = gatekeeper.op_index("add").unwrap();
    let mut log: Vec<LogEntry> = Vec::new();
    let mut structure = AnyStructure::by_name("HashSet").unwrap();
    for i in 1..=32u32 {
        let result = structure.apply("add", &[Value::elem(i)]).unwrap();
        // `add`-first between conditions test `r1`, never `s1`, so no
        // pre-state projection is required for these entries.
        log.push(LogEntry {
            txn: u64::from(i % 4),
            op: "add".into(),
            args: vec![Value::elem(i)],
            result,
            pre_state: None,
        });
    }
    // The executor's per-entry work: one indexed check per logged entry of
    // another transaction, stopping at the first refusal.
    let incoming = [Value::elem(1000)];
    c.bench_function("gatekeeper_admit_against_32_entries", |b| {
        b.iter(|| {
            log.iter()
                .try_for_each(|entry| gatekeeper.check_indexed(add, entry, add, "add", &incoming))
        })
    });
}

criterion_group!(
    benches,
    bench_speculative_vs_coarse,
    bench_rollback,
    bench_gatekeeper_check
);
criterion_main!(benches);
