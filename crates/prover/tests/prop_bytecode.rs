//! Property-based tests of the bytecode backend: random obligations built
//! from every term shape — including ill-sorted subterms and oversized
//! quantifier ranges — lower and execute exactly like the reference
//! evaluator (`logic::eval`, through `FiniteModelProver::replay`'s
//! `Replayer`), candidate by candidate, error strings included. The block
//! executor, the only obligation executor, is compared with the reference
//! directly at *every* block size, so batch boundaries never change the
//! deciding event, its counter-model, or its error message.

use proptest::prelude::*;
use proptest::strategy::BoxedStrategy;

use semcommute_logic::build::*;
use semcommute_logic::eval::MAX_QUANTIFIER_RANGE;
use semcommute_logic::{Model, Term};
use semcommute_prover::bytecode::{BlockEvent, Program, LANES};
use semcommute_prover::space::{BlockBuf, InputSpace};
use semcommute_prover::{Obligation, Replayer, Scope};

/// A tiny scope keeping whole-space scans fast in debug builds while still
/// exercising sets, maps, sequences, padding permutations, and integers.
fn tiny_scope(orbit: bool) -> Scope {
    Scope {
        elem_padding: 2,
        max_collection_entries: 2,
        max_seq_len: 2,
        int_min: 0,
        int_max: 1,
        max_models: 5_000_000,
        orbit,
    }
}

fn int_leaf() -> impl Strategy<Value = Term> {
    prop_oneof![
        (-1i64..3).prop_map(int),
        Just(var_int("i")),
        Just(card(var_set("s"))),
        Just(map_size(var_map("m"))),
        Just(seq_len(var_seq("q"))),
        Just(seq_index_of(var_seq("q"), var_elem("a"))),
        Just(seq_last_index_of(var_seq("q"), var_elem("a"))),
    ]
}

fn int_expr() -> impl Strategy<Value = Term> {
    (int_leaf(), int_leaf(), 0..4u8).prop_map(|(a, b, k)| match k {
        0 => add(a, b),
        1 => sub(a, b),
        2 => neg(a),
        _ => a,
    })
}

fn elem_expr() -> impl Strategy<Value = Term> {
    prop_oneof![
        Just(var_elem("a")),
        Just(var_elem("b")),
        Just(null()),
        // `map_get` of an absent key and `seq_at` out of range both
        // totalize to `null`, so these exercise the NULL_ELEM paths.
        Just(map_get(var_map("m"), var_elem("a"))),
        int_expr().prop_map(|i| seq_at(var_seq("q"), i)),
    ]
}

fn set_expr() -> impl Strategy<Value = Term> {
    prop_oneof![
        Just(var_set("s")),
        Just(empty_set()),
        elem_expr().prop_map(|e| set_add(var_set("s"), e)),
        elem_expr().prop_map(|e| set_remove(var_set("s"), e)),
    ]
}

fn map_expr() -> impl Strategy<Value = Term> {
    prop_oneof![
        Just(var_map("m")),
        Just(empty_map()),
        (elem_expr(), elem_expr()).prop_map(|(k, v)| map_put(var_map("m"), k, v)),
        elem_expr().prop_map(|k| map_remove(var_map("m"), k)),
    ]
}

fn seq_expr() -> impl Strategy<Value = Term> {
    prop_oneof![
        Just(var_seq("q")),
        Just(empty_seq()),
        // Insertion clamps, removal and update out of range are ignored —
        // all three totalization rules must survive lowering.
        (int_expr(), elem_expr()).prop_map(|(i, e)| seq_insert_at(var_seq("q"), i, e)),
        int_expr().prop_map(|i| seq_remove_at(var_seq("q"), i)),
        (int_expr(), elem_expr()).prop_map(|(i, e)| seq_set_at(var_seq("q"), i, e)),
    ]
}

fn bool_leaf() -> impl Strategy<Value = Term> {
    prop_oneof![
        Just(tru()),
        Just(fls()),
        (elem_expr(), set_expr()).prop_map(|(e, s)| member(e, s)),
        (map_expr(), elem_expr()).prop_map(|(m, k)| map_has_key(m, k)),
        (seq_expr(), elem_expr()).prop_map(|(s, e)| seq_contains(s, e)),
        (int_expr(), int_expr()).prop_map(|(a, b)| eq(a, b)),
        (elem_expr(), elem_expr()).prop_map(|(a, b)| eq(a, b)),
        (set_expr(), set_expr()).prop_map(|(a, b)| eq(a, b)),
        (map_expr(), map_expr()).prop_map(|(a, b)| eq(a, b)),
        (seq_expr(), seq_expr()).prop_map(|(a, b)| eq(a, b)),
        (int_expr(), int_expr()).prop_map(|(a, b)| lt(a, b)),
        (int_expr(), int_expr()).prop_map(|(a, b)| le(a, b)),
        // Ill-sorted shapes: the error message (with its wrapping context)
        // must come out identical from the bytecode and the reference.
        Just(eq(card(var_elem("a")), int(0))),
        (int_expr(), set_expr()).prop_map(|(a, b)| eq(a, b)),
        Just(member(var_int("i"), var_set("s"))),
        Just(and2(tru(), card(var_set("s")))),
        // An oversized quantifier range, data-dependently: the width
        // crosses `MAX_QUANTIFIER_RANGE` only when the set is empty.
        Just(exists_int(
            "j",
            int(0),
            add(int(MAX_QUANTIFIER_RANGE + 1), neg(card(var_set("s")))),
            tru(),
        )),
        // A range wider than `i64`: the width must saturate, not wrap below
        // the guard into an enumeration of about 2^63 iterations.
        Just(forall_int("j", int(i64::MIN), var_int("i"), tru())),
    ]
}

fn bool_expr_at(depth: u32) -> BoxedStrategy<Term> {
    if depth == 0 {
        return bool_leaf().boxed();
    }
    let inner = bool_expr_at(depth - 1);
    prop_oneof![
        bool_leaf(),
        (inner.clone(), inner.clone()).prop_map(|(a, b)| and2(a, b)),
        (inner.clone(), inner.clone()).prop_map(|(a, b)| or2(a, b)),
        (inner.clone(), inner.clone()).prop_map(|(a, b)| implies(a, b)),
        (inner.clone(), inner.clone()).prop_map(|(a, b)| iff(a, b)),
        inner.clone().prop_map(not),
        (inner.clone(), inner.clone(), inner.clone()).prop_map(|(c, t, e)| ite(c, t, e)),
        // A genuinely enumerated bounded quantifier whose body mixes the
        // binder with free variables (and shadows `j` one level down).
        (inner.clone(), 0..3i64).prop_map(|(b, hi)| {
            forall_int(
                "j",
                int(0),
                int(hi),
                or2(le(var_int("j"), int(1)), and2(b, le(int(0), var_int("j")))),
            )
        }),
    ]
    .boxed()
}

fn bool_expr() -> BoxedStrategy<Term> {
    bool_expr_at(2)
}

/// A random obligation: an optional bool define (consumed by the goal), an
/// optional hypothesis (exercising the input-only precondition short
/// circuit), and a goal.
fn obligation() -> impl Strategy<Value = Obligation> {
    (
        (bool_expr(), bool_expr(), bool_expr()),
        (proptest::bool::ANY, proptest::bool::ANY),
    )
        .prop_map(|((b1, b2, b3), (use_define, use_hyp))| {
            let mut ob = Obligation::new("prop_bytecode");
            let goal = if use_define {
                ob = ob.define("d1", b1);
                and2(var_bool("d1"), b3)
            } else {
                b3
            };
            if use_hyp {
                ob = ob.assume(b2);
            }
            ob.goal(goal)
        })
}

/// The outcome of a whole-space scan: how many candidates were cleanly
/// passed before the deciding event, and the event itself.
#[derive(Debug, Clone, PartialEq)]
enum Outcome {
    Exhausted(u64),
    Cex(u64, Model),
    Error(u64, String),
}

/// The reference scan: every candidate replayed through a [`Replayer`]
/// (`logic::eval` on a `Model`).
fn reference_scan(space: &InputSpace, ob: &Obligation) -> Outcome {
    let replayer = Replayer::new(ob);
    let mut seen = 0u64;
    for input in space.iter() {
        match replayer.check(&input) {
            Ok(None) => seen += 1,
            Ok(Some(model)) => return Outcome::Cex(seen, model),
            Err(e) => return Outcome::Error(seen, e),
        }
    }
    Outcome::Exhausted(seen)
}

/// The batched scan at an arbitrary block size.
fn block_scan(space: &InputSpace, program: &Program, block_size: usize) -> Outcome {
    let mut it = space.iter();
    let mut block = BlockBuf::new();
    let mut exec = program.block_exec();
    let mut seen = 0u64;
    loop {
        let lanes = it.next_block(block_size, &mut block);
        if lanes == 0 {
            return Outcome::Exhausted(seen);
        }
        match program.run_block(&block, &mut exec) {
            None => seen += lanes as u64,
            Some(BlockEvent::Counterexample(lane)) => {
                return Outcome::Cex(seen + lane as u64, program.reconstruct_lane(&exec, lane))
            }
            Some(BlockEvent::Error(lane, e)) => return Outcome::Error(seen + lane as u64, e),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Lowering preserves the reference semantics exactly: over the whole
    /// candidate space the block executor, at the block size the search
    /// uses, reports the same deciding event — same candidate, same
    /// counter-model, same wrapped error message — as the reference.
    #[test]
    fn block_execution_matches_the_reference(ob in obligation(), orbit in proptest::bool::ANY) {
        let space = InputSpace::from_obligation(&ob, tiny_scope(orbit));
        prop_assume!(space.estimated_size() <= 2_000);
        let program = Program::lower(&ob, &space.var_order());
        prop_assert_eq!(reference_scan(&space, &ob), block_scan(&space, &program, LANES));
    }

    /// Batch boundaries never change the deciding event: the block executor
    /// agrees with the reference at every block size, including sizes that
    /// land the event first, last, and alone in a block.
    #[test]
    fn block_execution_matches_the_reference_at_every_block_size(
        ob in obligation(),
        orbit in proptest::bool::ANY,
    ) {
        let space = InputSpace::from_obligation(&ob, tiny_scope(orbit));
        prop_assume!(space.estimated_size() <= 2_000);
        let program = Program::lower(&ob, &space.var_order());
        let reference = reference_scan(&space, &ob);
        for block_size in [1usize, 2, 3, 7, 64, LANES] {
            prop_assert_eq!(
                &block_scan(&space, &program, block_size),
                &reference,
                "block size {} changed the outcome",
                block_size
            );
        }
    }
}
