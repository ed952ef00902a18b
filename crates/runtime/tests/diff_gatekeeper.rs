//! Backend-differential harness for the admission gatekeeper.
//!
//! The compiled admission backend ([`AdmitBackend::Bytecode`]) must be
//! observationally equivalent to the `Model`-building interpreter
//! ([`AdmitBackend::Interp`]) — same admit/deny verdicts *and* the same
//! [`AdmissionError::Conflict`] vs [`AdmissionError::Evaluation`]
//! classification, which the executor's retry policy depends on. For every
//! catalog (interface, op-pair) this harness feeds both backends randomized
//! log entries, incoming arguments and live states — well-formed ones,
//! entries with the pre-state or the recorded result missing, entries with
//! truncated argument lists, and ill-sorted arguments — through the indexed
//! checks the executor runs (`check_indexed` at the captured pre-state,
//! `check_indexed_at` at a re-anchored state), and asserts the outcomes
//! classify identically (conflicts additionally compare equal
//! field-by-field; error *messages* may differ, the interpreter names
//! variables where the compiled executor names slots). Operations the
//! interface does not know never reach the gatekeeper: the executor reports
//! them (see its `unknown_operation_pairs_fail_fast_without_retries`).

use semcommute_logic::{ElemId, Sort, Value};
use semcommute_runtime::{AdmissionError, AdmitBackend, CommutativityGatekeeper, LogEntry};
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
/// truncated, sometimes with an ill-sorted entry — the compiled and
/// interpreted evaluators must classify the malformed cases identically too.
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
/// messages legitimately differ between backends).
#[derive(Debug, PartialEq)]
enum Outcome {
    Admitted,
    Conflict(semcommute_runtime::Conflict),
    Evaluation,
}

fn outcome(result: Result<(), AdmissionError>) -> Outcome {
    match result {
        Ok(()) => Outcome::Admitted,
        Err(AdmissionError::Conflict(c)) => Outcome::Conflict(c),
        Err(AdmissionError::Evaluation(_)) => Outcome::Evaluation,
    }
}

/// The dense index of `op`; both backends index the same operation list.
fn index(g: &CommutativityGatekeeper, op: &str) -> u16 {
    g.op_index(op)
        .expect("catalog operations belong to the interface")
}

/// For every catalog pair of every interface: randomized single entries,
/// checked through both backends at the captured pre-state and re-anchored
/// at a random state, must classify identically.
#[test]
fn compiled_and_interpreted_admission_agree_on_every_catalog_pair() {
    for interface in InterfaceId::ALL {
        let iface = &semcommute_spec::interface_by_id(interface);
        let bytecode = CommutativityGatekeeper::with_backend(interface, AdmitBackend::Bytecode);
        let interp = CommutativityGatekeeper::with_backend(interface, AdmitBackend::Interp);
        assert_eq!(bytecode.pairs(), interp.pairs(), "{interface}");
        for (first_op, second_op) in bytecode.pairs() {
            let (first, second) = (index(&bytecode, &first_op), index(&bytecode, &second_op));
            let mut rng = XorShift::new(
                0xfeed_face ^ (interface as u64) << 48 ^ seed_of(&first_op, &second_op),
            );
            for case in 0..200 {
                let logged = random_entry(&mut rng, iface, 1, &first_op);
                let incoming = random_args(&mut rng, iface, &second_op);
                let check = |g: &CommutativityGatekeeper| {
                    outcome(g.check_indexed(first, &logged, second, &second_op, &incoming))
                };
                assert_eq!(
                    check(&bytecode),
                    check(&interp),
                    "{interface}: {first_op}/{second_op} case {case} diverged on entry \
                     {logged:?} with incoming args {incoming:?}"
                );
                let state = random_value(&mut rng, iface.state_sort);
                let check_at = |g: &CommutativityGatekeeper| {
                    outcome(
                        g.check_indexed_at(first, &logged, second, &second_op, &incoming, &state),
                    )
                };
                assert_eq!(
                    check_at(&bytecode),
                    check_at(&interp),
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

/// Checks `incoming_op` of transaction `txn` against every entry of another
/// transaction, in log order, stopping at the first non-admission — the
/// executor's pre-state pass over the in-flight log.
fn admit(
    g: &CommutativityGatekeeper,
    log: &[LogEntry],
    txn: u64,
    incoming_op: &str,
    incoming: &[Value],
) -> Result<(), AdmissionError> {
    let second = index(g, incoming_op);
    log.iter()
        .filter(|entry| entry.txn != txn)
        .try_for_each(|entry| {
            g.check_indexed(index(g, &entry.op), entry, second, incoming_op, incoming)
        })
}

/// Multi-entry logs: admission scans entries in order and stops at the
/// first non-admission, so identical per-entry classification must make the
/// whole scan agree too — checked directly here with mixed-op logs.
#[test]
fn admit_over_randomized_multi_entry_logs_agrees() {
    for interface in InterfaceId::ALL {
        let iface = &semcommute_spec::interface_by_id(interface);
        let bytecode = CommutativityGatekeeper::with_backend(interface, AdmitBackend::Bytecode);
        let interp = CommutativityGatekeeper::with_backend(interface, AdmitBackend::Interp);
        let firsts: Vec<String> = {
            let mut ops: Vec<String> = bytecode.pairs().into_iter().map(|(f, _)| f).collect();
            ops.dedup();
            ops
        };
        let seconds: Vec<String> = {
            let mut ops: Vec<String> = bytecode.pairs().into_iter().map(|(_, s)| s).collect();
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
            let fast = outcome(admit(&bytecode, &log, txn, incoming_op, &incoming));
            let slow = outcome(admit(&interp, &log, txn, incoming_op, &incoming));
            assert_eq!(
                fast, slow,
                "{interface} case {case}: admission of `{incoming_op}` by txn {txn} diverged \
                 over log {log:?}"
            );
        }
    }
}

/// The missing-pre-state path raises the identical message under both
/// backends — it is detected before evaluation starts, from each backend's
/// own pre-state projection.
#[test]
fn missing_pre_state_message_is_identical_across_backends() {
    let bytecode = CommutativityGatekeeper::with_backend(InterfaceId::Set, AdmitBackend::Bytecode);
    let interp = CommutativityGatekeeper::with_backend(InterfaceId::Set, AdmitBackend::Interp);
    let entry = LogEntry {
        txn: 1,
        op: "size".into(),
        args: vec![],
        result: Some(Value::Int(0)),
        pre_state: None, // size/add reads s1 — this entry is unusable.
    };
    let msg = |g: &CommutativityGatekeeper| {
        let (size, add) = (index(g, "size"), index(g, "add"));
        match g.check_indexed(size, &entry, add, "add", &[Value::elem(1)]) {
            Err(AdmissionError::Evaluation(m)) => m,
            other => panic!("expected an evaluation error, got {other:?}"),
        }
    };
    assert_eq!(msg(&bytecode), msg(&interp));
}

/// `SEMCOMMUTE_ADMIT` selects the process-wide default backend. The parse is
/// pure (tested exhaustively in the gatekeeper's unit tests); here we pin
/// that default-constructed gatekeepers and runtimes actually use it.
#[test]
fn default_backend_follows_the_process_wide_knob() {
    let expected = AdmitBackend::parse(std::env::var("SEMCOMMUTE_ADMIT").ok().as_deref());
    assert_eq!(AdmitBackend::default_backend(), expected);
    let g = CommutativityGatekeeper::new(InterfaceId::Map);
    assert_eq!(g.backend(), expected);
    let rt = semcommute_runtime::SpeculativeRuntime::new(
        semcommute_runtime::AnyStructure::by_name("HashSet").unwrap(),
    );
    assert_eq!(rt.admit_backend(), expected);
}
