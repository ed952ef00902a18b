//! Differential harness for compiled admission against the reference
//! evaluator.
//!
//! The gatekeeper evaluates every between condition through a compiled
//! register program. The reference is `logic::eval_bool` over a `Model`
//! built from the log entry and the incoming arguments (see [`reference`]).
//! The two must agree on the admit/deny verdict *and* on the
//! [`AdmissionError::Conflict`] vs [`AdmissionError::Evaluation`]
//! classification, which the executor's retry policy depends on. For every
//! catalog (interface, op-pair) this harness feeds both randomized log
//! entries, incoming arguments and live states — well-formed ones, entries
//! with the pre-state or the recorded result missing, entries with
//! truncated argument lists, and ill-sorted arguments — through the indexed
//! checks the executor runs (`check_indexed` at the captured pre-state,
//! `check_indexed_at` at a re-anchored state), and asserts the outcomes
//! classify identically (conflicts additionally compare equal
//! field-by-field; error *messages* may differ, the reference names
//! variables where the compiled executor names slots). Operations the
//! interface does not know never reach the gatekeeper: the executor reports
//! them (see its `unknown_operation_pairs_fail_fast_without_retries`).

use semcommute_core::condition::names;
use semcommute_logic::{eval_bool, free_vars, ElemId, Model, Sort, Value};
use semcommute_runtime::{
    AdmissionError, AnyStructure, BackoffOptions, CommutativityGatekeeper, Conflict,
    FallbackOptions, LogEntry, RuntimeOptions, SpeculativeRuntime, TxnError,
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

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

/// A random value of the given sort over a small universe, so equalities and
/// memberships genuinely hit both outcomes.
fn random_value(rng: &mut XorShift, sort: Sort) -> Value {
    match sort {
        Sort::Bool => Value::Bool(rng.below(2) == 0),
        Sort::Int => Value::Int(rng.below(9) as i64 - 4),
        Sort::Elem => {
            if rng.chance(10) {
                Value::null()
            } else {
                Value::elem(rng.below(6) as u32 + 1)
            }
        }
        Sort::Set => Value::set_of((0..rng.below(5)).map(|_| ElemId(rng.below(6) as u32 + 1))),
        Sort::Map => Value::map_of((0..rng.below(5)).map(|_| {
            (
                ElemId(rng.below(6) as u32 + 1),
                ElemId(rng.below(6) as u32 + 1),
            )
        })),
        Sort::Seq => Value::seq_of((0..rng.below(5)).map(|_| ElemId(rng.below(6) as u32 + 1))),
    }
}

/// A random value of a random (often wrong) sort.
fn random_any_value(rng: &mut XorShift) -> Value {
    let sort = [
        Sort::Bool,
        Sort::Int,
        Sort::Elem,
        Sort::Set,
        Sort::Map,
        Sort::Seq,
    ][rng.below(6) as usize];
    random_value(rng, sort)
}

/// Random arguments for `op`: usually well-sorted and complete, sometimes
/// truncated, sometimes with an ill-sorted entry — the compiled evaluator
/// and the reference must classify the malformed cases identically too.
fn random_args(rng: &mut XorShift, iface: &semcommute_spec::InterfaceSpec, op: &str) -> Vec<Value> {
    let Some(spec) = iface.op(op) else {
        return Vec::new();
    };
    let mut args: Vec<Value> = spec
        .params
        .iter()
        .map(|(_, sort)| {
            if rng.chance(5) {
                random_any_value(rng)
            } else {
                random_value(rng, *sort)
            }
        })
        .collect();
    if rng.chance(5) && !args.is_empty() {
        args.truncate(args.len() - 1);
    }
    args
}

/// A randomized log entry for `op` as executed by `txn`.
fn random_entry(
    rng: &mut XorShift,
    iface: &semcommute_spec::InterfaceSpec,
    txn: u64,
    op: &str,
) -> LogEntry {
    let result = iface.op(op).and_then(|spec| spec.result_sort).map(|sort| {
        if rng.chance(5) {
            random_any_value(rng)
        } else {
            random_value(rng, sort)
        }
    });
    let pre_state = (!rng.chance(25)).then(|| random_value(rng, iface.state_sort));
    LogEntry {
        txn,
        op: op.to_string(),
        args: random_args(rng, iface, op),
        result: if rng.chance(10) { None } else { result },
        pre_state,
    }
}

/// Collapses an admission outcome for comparison: verdicts and conflicts
/// must match exactly; evaluation errors must match as a *class* (their
/// messages legitimately differ between the two evaluators).
#[derive(Debug, PartialEq)]
enum Outcome {
    Admitted,
    Conflict(Conflict),
    Evaluation,
}

fn outcome(result: Result<(), AdmissionError>) -> Outcome {
    match result {
        Ok(()) => Outcome::Admitted,
        Err(AdmissionError::Conflict(c)) => Outcome::Conflict(c),
        Err(AdmissionError::Evaluation(_)) => Outcome::Evaluation,
    }
}

/// The reference admission outcome: the pair's condition, as the gatekeeper
/// holds it, evaluated by `eval_bool` over a `Model` built from the log
/// entry. `s1` is bound only if the formula mentions it (a free-variable
/// scan), to `state` or else to the entry's captured pre-state; a formula
/// that mentions `s1` with neither at hand is an evaluation error. `r1` is
/// bound if the entry recorded a result, and each argument under its
/// canonical name as far as the argument list reaches. With a `state` (the
/// re-anchor), a formula that does not mention `s1` is admitted unevaluated.
fn reference(
    g: &CommutativityGatekeeper,
    logged: &LogEntry,
    incoming_op: &str,
    incoming: &[Value],
    state: Option<&Value>,
) -> Outcome {
    let formula = &g
        .condition(&logged.op, incoming_op)
        .expect("catalog pair")
        .formula;
    let reads_s1 = free_vars(formula).contains_key(names::INITIAL);
    if state.is_some() && !reads_s1 {
        return Outcome::Admitted;
    }
    let mut model = Model::new();
    if reads_s1 {
        match state.or(logged.pre_state.as_ref()) {
            Some(s1) => model.insert(names::INITIAL, s1.clone()),
            None => return Outcome::Evaluation,
        };
    }
    if let Some(result) = &logged.result {
        model.insert(names::RESULT1, result.clone());
    }
    let iface = semcommute_spec::interface_by_id(g.interface());
    let mut bind = |op: &str, which: usize, args: &[Value]| {
        let params = &iface.op(op).expect("catalog operation").params;
        for ((formal, _), value) in params.iter().zip(args) {
            model.insert(names::arg(formal, which), value.clone());
        }
    };
    bind(&logged.op, 1, &logged.args);
    bind(incoming_op, 2, incoming);
    match eval_bool(formula, &model) {
        Ok(true) => Outcome::Admitted,
        Ok(false) => Outcome::Conflict(Conflict {
            with_txn: logged.txn,
            logged_op: logged.op.clone(),
            incoming_op: incoming_op.to_string(),
        }),
        Err(_) => Outcome::Evaluation,
    }
}

/// The dense index of `op` in the gatekeeper's operation list.
fn index(g: &CommutativityGatekeeper, op: &str) -> u16 {
    g.op_index(op)
        .expect("catalog operations belong to the interface")
}

/// For every catalog pair of every interface: randomized single entries,
/// checked at the captured pre-state and re-anchored at a random state,
/// must classify as the reference does.
#[test]
fn compiled_admission_agrees_with_the_reference_on_every_catalog_pair() {
    for interface in InterfaceId::ALL {
        let iface = &semcommute_spec::interface_by_id(interface);
        let g = CommutativityGatekeeper::new(interface);
        for (first_op, second_op) in g.pairs() {
            let (first, second) = (index(&g, &first_op), index(&g, &second_op));
            let mut rng = XorShift::new(
                0xfeed_face ^ (interface as u64) << 48 ^ seed_of(&first_op, &second_op),
            );
            for case in 0..200 {
                let logged = random_entry(&mut rng, iface, 1, &first_op);
                let incoming = random_args(&mut rng, iface, &second_op);
                assert_eq!(
                    outcome(g.check_indexed(first, &logged, second, &second_op, &incoming)),
                    reference(&g, &logged, &second_op, &incoming, None),
                    "{interface}: {first_op}/{second_op} case {case} diverged on entry \
                     {logged:?} with incoming args {incoming:?}"
                );
                let state = random_value(&mut rng, iface.state_sort);
                assert_eq!(
                    outcome(
                        g.check_indexed_at(first, &logged, second, &second_op, &incoming, &state)
                    ),
                    reference(&g, &logged, &second_op, &incoming, Some(&state)),
                    "{interface}: {first_op}/{second_op} case {case} diverged re-anchored at \
                     {state:?} on entry {logged:?} with incoming args {incoming:?}"
                );
            }
        }
    }
}

fn seed_of(first: &str, second: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in first.bytes().chain([b'/']).chain(second.bytes()) {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Multi-entry logs: admission scans the entries of other transactions in
/// log order and stops at the first non-admission — the executor's
/// pre-state pass over the in-flight log. The compiled scan must end where
/// the reference scan ends, with the same outcome.
#[test]
fn admission_over_randomized_multi_entry_logs_agrees_with_the_reference() {
    for interface in InterfaceId::ALL {
        let iface = &semcommute_spec::interface_by_id(interface);
        let g = CommutativityGatekeeper::new(interface);
        let firsts: Vec<String> = {
            let mut ops: Vec<String> = g.pairs().into_iter().map(|(f, _)| f).collect();
            ops.dedup();
            ops
        };
        let seconds: Vec<String> = {
            let mut ops: Vec<String> = g.pairs().into_iter().map(|(_, s)| s).collect();
            ops.sort();
            ops.dedup();
            ops
        };
        let mut rng = XorShift::new(0xdead_beef ^ (interface as u64) << 32);
        for case in 0..300 {
            let mut log = Vec::new();
            for _ in 0..rng.below(6) {
                let txn = rng.below(3) + 1;
                let op = &firsts[rng.below(firsts.len() as u64) as usize];
                log.push(random_entry(&mut rng, iface, txn, op));
            }
            let incoming_op = &seconds[rng.below(seconds.len() as u64) as usize];
            let incoming = random_args(&mut rng, iface, incoming_op);
            let txn = rng.below(4) + 1;
            let others = || log.iter().filter(|entry| entry.txn != txn);
            let second = index(&g, incoming_op);
            let compiled = outcome(others().try_for_each(|entry| {
                g.check_indexed(index(&g, &entry.op), entry, second, incoming_op, &incoming)
            }));
            let expected = others()
                .map(|entry| reference(&g, entry, incoming_op, &incoming, None))
                .find(|o| *o != Outcome::Admitted)
                .unwrap_or(Outcome::Admitted);
            assert_eq!(
                compiled, expected,
                "{interface} case {case}: admission of `{incoming_op}` by txn {txn} diverged \
                 over log {log:?}"
            );
        }
    }
}

/// The end-to-end counts of one deterministic single-threaded run: commits,
/// aborts, conflicts and committed operations.
type RunCounts = (u64, u64, u64, u64);

/// A deterministic single-threaded runtime run: a small prefilled `HashSet`, a few background transactions pinned
/// open for the whole run (reserved keys outside the workload's domain plus
/// one `contains` probe on a hot prefilled key each), and two-operation
/// transactions over a uniform or a hot-key-skewed key distribution, each
/// retried once before it aborts.
fn pinned_admission_run(skewed: bool) -> RunCounts {
    const PREFILL: u32 = 64;
    let mut set = AnyStructure::by_name("HashSet").unwrap();
    for k in 1..=PREFILL {
        set.apply("add", &[Value::elem(k)]).unwrap();
    }
    let rt = SpeculativeRuntime::with_options(
        set,
        RuntimeOptions {
            // Pinned transactions hold the mode gate for the whole run, so
            // the fallback must stay off (see the contention module docs).
            fallback: FallbackOptions::off(),
            backoff: BackoffOptions::off(),
            ..RuntimeOptions::default()
        },
    );
    let base = PREFILL * 100;
    let pinned: Vec<_> = (0..4u32)
        .map(|t| {
            let mut txn = rt.begin();
            let reserved = |i: u32| Value::elem(base + t * 10 + i);
            for (op, arg) in [
                ("add", reserved(0)),
                ("remove", reserved(1)),
                ("contains", reserved(2)),
                ("contains", Value::elem(t % 3 + 1)),
                ("add", reserved(3)),
                ("remove", reserved(4)),
            ] {
                txn.execute(op, &[arg])
                    .expect("pinned setup operations admit against each other");
            }
            txn
        })
        .collect();

    let mut rng = XorShift::new(0xad31_7bad);
    let mut committed_ops = 0u64;
    for _ in 0..400 {
        let script: Vec<(&str, Value)> = (0..2)
            .map(|_| {
                let op = match rng.below(10) {
                    0..=4 => "add",
                    5 | 6 => "contains",
                    _ => "remove",
                };
                let key = if skewed && rng.below(2) == 0 {
                    rng.below(16)
                } else {
                    rng.below(u64::from(PREFILL) * 4)
                };
                (op, Value::elem(key as u32 + 1))
            })
            .collect();
        let done = rt.run(2, |txn| {
            for (op, arg) in &script {
                txn.execute(op, std::slice::from_ref(arg))?;
            }
            Ok(())
        });
        match done {
            Ok(()) => committed_ops += script.len() as u64,
            Err(TxnError::RetriesExhausted(_)) => {}
            Err(e) => panic!("admission workload failed: {e}"),
        }
    }
    for txn in pinned {
        txn.abort();
    }
    rt.check_invariants()
        .expect("invariants hold after the run");
    let stats = rt.stats();
    (stats.commits, stats.aborts, stats.conflicts, committed_ops)
}

/// A regression pin on the whole admission path: the same deterministic
/// workload commits, aborts and conflicts exactly as often as it always
/// has. A changed count means some verdict changed; the differential tests
/// above say which.
#[test]
fn pinned_admission_runs_keep_their_counts() {
    // (commits, aborts, conflicts, committed ops)
    assert_eq!(pinned_admission_run(false), (399, 7, 3, 798), "uniform");
    assert_eq!(pinned_admission_run(true), (380, 64, 60, 760), "skewed");
}
