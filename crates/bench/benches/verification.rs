//! Prover benchmarks: how long verifying commutativity conditions takes, per
//! interface and per back-end (the portfolio with and without its structural
//! prover).
//!
//! These complement the `table_5_8` binary: the binary reproduces the
//! paper's table over the whole catalog; the benches measure representative
//! conditions precisely so regressions in the prover are visible.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use semcommute_core::verify::{scope_for, verify_condition};
use semcommute_core::{interface_catalog, ConditionKind};
use semcommute_prover::Portfolio;
use semcommute_spec::InterfaceId;

/// A representative condition per interface: an update/observer pair whose
/// condition is state-dependent (so the finite-model prover really runs).
fn representative(interface: InterfaceId) -> semcommute_core::CommutativityCondition {
    let (first, second) = match interface {
        InterfaceId::Accumulator => ("increase", "read"),
        InterfaceId::Set => ("add", "contains"),
        InterfaceId::Map => ("put", "get"),
        InterfaceId::List => ("addAt", "indexOf"),
    };
    interface_catalog(interface)
        .into_iter()
        .find(|c| {
            c.first.op == first
                && c.second.op == second
                && c.first.recorded
                && c.second.recorded
                && c.kind == ConditionKind::Between
        })
        .expect("representative condition exists")
}

fn bench_condition_verification(c: &mut Criterion) {
    let mut group = c.benchmark_group("verify_condition");
    group.sample_size(10);
    for interface in InterfaceId::ALL {
        let condition = representative(interface);
        let prover = Portfolio::new(scope_for(interface, 3));
        group.bench_with_input(
            BenchmarkId::from_parameter(interface),
            &condition,
            |b, condition| {
                b.iter(|| {
                    let report = verify_condition(condition, &prover, 0);
                    assert!(report.verified());
                    report
                })
            },
        );
    }
    group.finish();
}

fn bench_prover_ablation(c: &mut Criterion) {
    // How much does the structural prover save on an obligation it can decide
    // (add/add soundness: (s ∪ {v1}) ∪ {v2} = (s ∪ {v2}) ∪ {v1})?
    let condition = interface_catalog(InterfaceId::Set)
        .into_iter()
        .find(|cond| {
            cond.first.op == "add"
                && !cond.first.recorded
                && cond.second.op == "add"
                && !cond.second.recorded
                && cond.kind == ConditionKind::Before
        })
        .expect("add_/add_ before condition exists");
    let scope = scope_for(InterfaceId::Set, 3);
    let mut group = c.benchmark_group("prover_ablation");
    group.sample_size(20);
    group.bench_function("portfolio", |b| {
        let prover = Portfolio::new(scope.clone());
        b.iter(|| verify_condition(&condition, &prover, 0))
    });
    group.bench_function("finite_model_only", |b| {
        let prover = Portfolio::new(scope.clone()).without_structural();
        b.iter(|| verify_condition(&condition, &prover, 0))
    });
    group.finish();
}

fn bench_sequence_scope(c: &mut Criterion) {
    // Cost of the ArrayList sequence scope — the knob behind the paper's
    // observation that ArrayList dominates verification time.
    let condition = representative(InterfaceId::List);
    let mut group = c.benchmark_group("arraylist_sequence_scope");
    group.sample_size(10);
    for seq_len in [2usize, 3, 4] {
        let prover = Portfolio::new(scope_for(InterfaceId::List, seq_len));
        group.bench_with_input(
            BenchmarkId::from_parameter(seq_len),
            &condition,
            |b, condition| b.iter(|| verify_condition(condition, &prover, 0)),
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_condition_verification,
    bench_prover_ablation,
    bench_sequence_scope
);
criterion_main!(benches);
