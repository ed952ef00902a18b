//! Exhaustive small-scope schedules for the key-stripe protocol.
//!
//! A set or map runtime splits its structure into key stripes; a keyed
//! operation is admitted against its own stripe's log only, and `size`
//! against every stripe (see `executor`'s module docs). This harness drives
//! the protocol through the public API over every interleaving of two or
//! three transactions with one or two operations each — the steps being
//! `begin`, each `execute`, and the final `commit` or `abort`, with every
//! choice of which transactions commit — on a `HashSet` and a `HashTable`.
//! The keys are chosen so that some share a stripe and some fall in
//! different stripes, with and without `size`.
//!
//! A transaction whose operation conflicts skips its remaining operations
//! and aborts at its final step. After each schedule the committed
//! transactions are replayed serially, in commit-ticket order, through the
//! coarse-lock oracle, which must reproduce every recorded return value and
//! the final abstract state; the structure's invariants must hold, no entry
//! may be left pending, and `commits + aborts == begun`.
//!
//! Every schedule runs single-threaded against one runtime per scenario,
//! whose state is put back to the scenario's start before the next
//! schedule. The contention fallback is off: a degraded transaction would
//! hold the mode gate exclusively and block the next step of the schedule.

use semcommute_logic::{ElemId, Value};
use semcommute_runtime::executor::STRIPES;
use semcommute_runtime::rollback::rebuild;
use semcommute_runtime::{
    AnyStructure, BackoffOptions, CoarseLockRuntime, FallbackOptions, RuntimeOptions,
    SpeculativeRuntime, Transaction, TxnError,
};
use semcommute_spec::AbstractState;
use semcommute_structures::stripe_of;

type Op = (&'static str, Vec<Value>);

/// Three keys: `a` and `b` share a stripe, `c` falls in another.
fn keys() -> (u32, u32, u32) {
    let bits = STRIPES.trailing_zeros();
    let stripe = |k: u32| stripe_of(ElemId(k), bits);
    let a = 1;
    let b = (2..).find(|&k| stripe(k) == stripe(a)).unwrap();
    let c = (2..).find(|&k| stripe(k) != stripe(a)).unwrap();
    (a, b, c)
}

fn op(name: &'static str, args: &[u32]) -> Op {
    (name, args.iter().map(|&k| Value::elem(k)).collect())
}

/// One scenario: a structure, the operations that set its starting state,
/// and one script per transaction.
struct Scenario {
    name: &'static str,
    structure: &'static str,
    start: Vec<Op>,
    scripts: Vec<Vec<Op>>,
}

/// A committed transaction: its ticket and its operations with their
/// recorded results.
struct Committed {
    ticket: u64,
    ops: Vec<(Op, Option<Value>)>,
}

/// Every interleaving of transactions with `steps[t]` steps each, as the
/// sequence of transaction indices taking a step.
fn interleavings(steps: &[usize]) -> Vec<Vec<usize>> {
    fn go(left: &mut [usize], prefix: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if left.iter().all(|&n| n == 0) {
            out.push(prefix.clone());
            return;
        }
        for t in 0..left.len() {
            if left[t] > 0 {
                left[t] -= 1;
                prefix.push(t);
                go(left, prefix, out);
                prefix.pop();
                left[t] += 1;
            }
        }
    }
    let mut out = Vec::new();
    go(&mut steps.to_vec(), &mut Vec::new(), &mut out);
    out
}

/// Runs one schedule: transaction `t` commits at its last step if bit `t`
/// of `commits` is set and none of its operations conflicted.
fn run(
    rt: &SpeculativeRuntime,
    scripts: &[Vec<Op>],
    schedule: &[usize],
    commits: u32,
) -> Vec<Committed> {
    let n = scripts.len();
    let mut txns: Vec<Option<Transaction>> = (0..n).map(|_| None).collect();
    let mut next = vec![0; n];
    let mut conflicted = vec![false; n];
    let mut recorded: Vec<Vec<(Op, Option<Value>)>> = vec![Vec::new(); n];
    let mut committed = Vec::new();
    for &t in schedule {
        let step = next[t];
        next[t] += 1;
        if step == 0 {
            txns[t] = Some(rt.begin());
        } else if step <= scripts[t].len() {
            if conflicted[t] {
                continue;
            }
            let (name, args) = &scripts[t][step - 1];
            let txn = txns[t].as_mut().expect("begun");
            match txn.execute(name, args) {
                Ok(result) => recorded[t].push(((*name, args.clone()), result)),
                Err(TxnError::Conflict(_)) => conflicted[t] = true,
                Err(other) => panic!("{name}{args:?}: unexpected error {other}"),
            }
        } else {
            let txn = txns[t].take().expect("begun");
            if commits >> t & 1 == 1 && !conflicted[t] {
                committed.push(Committed {
                    ticket: txn.commit(),
                    ops: std::mem::take(&mut recorded[t]),
                });
            } else {
                txn.abort();
            }
        }
    }
    committed
}

/// Puts the runtime's state back from `now` to `start` with one
/// transaction.
fn restore(rt: &SpeculativeRuntime, now: &AbstractState, start: &AbstractState) {
    let mut txn = rt.begin();
    match (now, start) {
        (AbstractState::Set(now), AbstractState::Set(start)) => {
            for &k in now.difference(start) {
                txn.execute("remove", &[Value::Elem(k)]).unwrap();
            }
            for &k in start.difference(now) {
                txn.execute("add", &[Value::Elem(k)]).unwrap();
            }
        }
        (AbstractState::Map(now), AbstractState::Map(start)) => {
            for &k in now.keys().filter(|k| !start.contains_key(k)) {
                txn.execute("remove", &[Value::Elem(k)]).unwrap();
            }
            for (&k, &v) in start.iter().filter(|(k, v)| now.get(k) != Some(v)) {
                txn.execute("put", &[Value::Elem(k), Value::Elem(v)])
                    .unwrap();
            }
        }
        other => panic!("not a set or map: {other:?}"),
    }
    txn.commit();
}

/// Runs every schedule of a scenario; returns how many ran.
fn exhaust(scenario: &Scenario) -> usize {
    let Scenario {
        name,
        structure,
        start,
        scripts,
    } = scenario;
    let options = RuntimeOptions {
        fallback: FallbackOptions::off(),
        backoff: BackoffOptions::off(),
        faults: None,
    };
    let rt = SpeculativeRuntime::with_options(AnyStructure::by_name(structure).unwrap(), options);
    let mut setup = rt.begin();
    for (op, args) in start {
        setup.execute(op, args).unwrap();
    }
    setup.commit();
    let base = rt.snapshot();
    let steps: Vec<usize> = scripts.iter().map(|script| script.len() + 2).collect();
    let schedules = interleavings(&steps);
    let mut runs = 0;
    for schedule in &schedules {
        for commits in 0..1u32 << scripts.len() {
            let mut committed = run(&rt, scripts, schedule, commits);
            let case = || format!("{name}: schedule {schedule:?}, commits {commits:b}");
            assert_eq!(rt.pending_operations(), 0, "{}", case());
            assert_eq!(rt.check_invariants(), Ok(()), "{}", case());
            let stats = rt.stats();
            assert_eq!(stats.begun, stats.commits + stats.aborts, "{}", case());
            committed.sort_by_key(|txn| txn.ticket);
            let oracle = CoarseLockRuntime::new(rebuild(structure, &base).unwrap());
            for txn in &committed {
                oracle.run_transaction(|serial| {
                    for ((op, args), recorded) in &txn.ops {
                        let replayed = serial.execute(op, args).unwrap();
                        assert_eq!(
                            &replayed,
                            recorded,
                            "{}: ticket {} `{op}{args:?}` diverged on replay",
                            case(),
                            txn.ticket
                        );
                    }
                });
            }
            let now = rt.snapshot();
            assert_eq!(now, oracle.snapshot(), "{}: final state", case());
            restore(&rt, &now, &base);
            runs += 1;
        }
    }
    runs
}

fn set_scenarios() -> Vec<Scenario> {
    let (a, b, c) = keys();
    let set = |name, scripts| Scenario {
        name,
        structure: "HashSet",
        start: vec![op("add", &[b])],
        scripts,
    };
    vec![
        set(
            "set, two single operations",
            vec![vec![op("add", &[a])], vec![op("size", &[])]],
        ),
        set(
            "set, one stripe",
            vec![
                vec![op("add", &[a]), op("remove", &[b])],
                vec![op("contains", &[b]), op("add", &[a])],
            ],
        ),
        set(
            "set, two stripes",
            vec![
                vec![op("add", &[a]), op("contains", &[c])],
                vec![op("remove", &[c]), op("add", &[b])],
            ],
        ),
        set(
            "set, size",
            vec![
                vec![op("add", &[a]), op("size", &[])],
                vec![op("size", &[]), op("remove", &[b])],
            ],
        ),
        set(
            "set, three transactions in one stripe",
            vec![
                vec![op("add", &[a])],
                vec![op("remove", &[b])],
                vec![op("contains", &[a])],
            ],
        ),
        set(
            "set, three transactions with size",
            vec![
                vec![op("add", &[c])],
                vec![op("size", &[])],
                vec![op("remove", &[a])],
            ],
        ),
        set(
            "set, three transactions of two operations",
            vec![
                vec![op("add", &[a]), op("size", &[])],
                vec![op("remove", &[b]), op("contains", &[c])],
                vec![op("add", &[c]), op("contains", &[a])],
            ],
        ),
    ]
}

fn map_scenarios() -> Vec<Scenario> {
    let (a, b, c) = keys();
    let map = |name, scripts| Scenario {
        name,
        structure: "HashTable",
        start: vec![op("put", &[b, 1])],
        scripts,
    };
    vec![
        map(
            "map, two single operations",
            vec![vec![op("put", &[a, 1])], vec![op("size", &[])]],
        ),
        map(
            "map, one stripe",
            vec![
                vec![op("put", &[a, 1]), op("remove", &[b])],
                vec![op("get", &[b]), op("put", &[a, 2])],
            ],
        ),
        map(
            "map, two stripes",
            vec![
                vec![op("put", &[a, 1]), op("containsKey", &[c])],
                vec![op("remove", &[c]), op("put", &[b, 2])],
            ],
        ),
        map(
            "map, size",
            vec![
                vec![op("put", &[a, 1]), op("size", &[])],
                vec![op("size", &[]), op("remove", &[b])],
            ],
        ),
        map(
            "map, three transactions in one stripe",
            vec![
                vec![op("put", &[a, 1])],
                vec![op("remove", &[b])],
                vec![op("get", &[a])],
            ],
        ),
        map(
            "map, three transactions with size",
            vec![
                vec![op("put", &[c, 3])],
                vec![op("size", &[])],
                vec![op("remove", &[a])],
            ],
        ),
        map(
            "map, three transactions of two operations",
            vec![
                vec![op("put", &[a, 1]), op("size", &[])],
                vec![op("remove", &[b]), op("get", &[c])],
                vec![op("put", &[c, 2]), op("containsKey", &[a])],
            ],
        ),
    ]
}

#[test]
fn the_keys_share_and_split_stripes() {
    let (a, b, c) = keys();
    let bits = STRIPES.trailing_zeros();
    const { assert!(STRIPES > 1) };
    assert_eq!(stripe_of(ElemId(a), bits), stripe_of(ElemId(b), bits));
    assert_ne!(stripe_of(ElemId(a), bits), stripe_of(ElemId(c), bits));
}

#[test]
fn interleavings_are_counted_by_the_multinomial() {
    assert_eq!(interleavings(&[3, 3]).len(), 20);
    assert_eq!(interleavings(&[4, 4]).len(), 70);
    assert_eq!(interleavings(&[3, 3, 3]).len(), 1_680);
    assert_eq!(interleavings(&[4, 4, 4]).len(), 34_650);
}

#[test]
fn every_hash_set_schedule_replays_in_ticket_order() {
    let runs: usize = set_scenarios().iter().map(exhaust).sum();
    assert_eq!(runs, 20 * 4 + 3 * 70 * 4 + 2 * 1_680 * 8 + 34_650 * 8);
}

#[test]
fn every_hash_table_schedule_replays_in_ticket_order() {
    let runs: usize = map_scenarios().iter().map(exhaust).sum();
    assert_eq!(runs, 20 * 4 + 3 * 70 * 4 + 2 * 1_680 * 8 + 34_650 * 8);
}
