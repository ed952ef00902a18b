//! Bytecode-executor microbenchmarks: the same whole-space candidate scan
//! run two ways — the scalar bytecode executor and the batched 256-lane
//! block executor — on a Set-shaped and an ArrayList-shaped obligation drawn
//! from the real catalog.
//!
//! The full-catalog wall numbers come from the `perf_json` binary; these
//! benches isolate the per-candidate evaluation cost from scheduling,
//! verdict caching, and obligation generation, so a regression in lowering
//! or in the block executor is visible on its own.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use semcommute_core::template::testing_methods;
use semcommute_core::vcgen::generate_obligations;
use semcommute_core::verify::scope_for;
use semcommute_core::{interface_catalog, ConditionKind};
use semcommute_prover::bytecode::{BlockEvent, Program, LANES};
use semcommute_prover::compiled::CompiledObligation;
use semcommute_prover::space::{BlockBuf, InputSpace};
use semcommute_prover::Obligation;
use semcommute_spec::InterfaceId;

/// A state-dependent update/observer obligation from the named interface's
/// catalog: `add`/`contains` for Set, `addAt`/`indexOf` for ArrayList. The
/// soundness leg is used — its hypothesis interleaving and collection work
/// make it the representative load, not a boolean-only special case.
fn representative(interface: InterfaceId, first: &str, second: &str) -> Obligation {
    let condition = interface_catalog(interface)
        .into_iter()
        .find(|c| {
            c.first.op == first
                && c.second.op == second
                && c.first.recorded
                && c.second.recorded
                && c.kind == ConditionKind::Between
        })
        .expect("representative condition exists");
    let (soundness, _) = testing_methods(&condition, 0);
    generate_obligations(&soundness)
        .expect("obligation generation succeeds")
        .into_iter()
        .next()
        .expect("the soundness method yields an obligation")
}

/// One prepared scan: the enumeration space plus the lowered program.
struct Prepared {
    space: InputSpace,
    program: Program,
}

fn prepare(interface: InterfaceId, first: &str, second: &str) -> Prepared {
    let ob = representative(interface, first, second);
    let space = InputSpace::from_obligation(&ob, scope_for(interface, 3));
    let program = Program::lower(&CompiledObligation::compile(&ob, &space.var_order()));
    Prepared { space, program }
}

/// Whole-space scan under the scalar bytecode executor; returns candidates
/// seen.
fn scalar_scan(p: &Prepared) -> u64 {
    let mut it = p.space.iter();
    let mut exec = p.program.scalar_exec();
    let mut buf = Vec::new();
    let mut seen = 0u64;
    while it.next_values(&mut buf) {
        match p.program.check(&mut buf, &mut exec) {
            Ok(None) => seen += 1,
            Ok(Some(())) | Err(_) => panic!("the representative obligations are valid"),
        }
    }
    seen
}

/// Whole-space scan under the batched 256-lane block executor.
fn block_scan(p: &Prepared) -> u64 {
    let mut it = p.space.iter();
    let mut block = BlockBuf::new();
    let mut exec = p.program.block_exec();
    let mut seen = 0u64;
    loop {
        let lanes = it.next_block(LANES, &mut block);
        if lanes == 0 {
            return seen;
        }
        match p.program.run_block(&block, &mut exec) {
            None => seen += lanes as u64,
            Some(BlockEvent::Counterexample(_)) | Some(BlockEvent::Error(_, _)) => {
                panic!("the representative obligations are valid")
            }
        }
    }
}

fn bench_evaluators(c: &mut Criterion) {
    let workloads = [
        (
            "set_add_contains",
            prepare(InterfaceId::Set, "add", "contains"),
        ),
        (
            "list_addAt_indexOf",
            prepare(InterfaceId::List, "addAt", "indexOf"),
        ),
    ];
    let mut group = c.benchmark_group("candidate_scan");
    group.sample_size(10);
    for (name, prepared) in &workloads {
        // Both scans must agree on the candidate count, or the bench
        // compares different workloads.
        assert_eq!(block_scan(prepared), scalar_scan(prepared));

        group.bench_with_input(BenchmarkId::new("bytecode", name), prepared, |b, p| {
            b.iter(|| scalar_scan(p))
        });
        group.bench_with_input(BenchmarkId::new("batched", name), prepared, |b, p| {
            b.iter(|| block_scan(p))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_evaluators);
criterion_main!(benches);
