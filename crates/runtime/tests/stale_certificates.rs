//! Regression test for a composition hole in pairwise admission.
//!
//! A between condition certified against a logged operation's *captured*
//! pre-state certifies swapping the pair adjacent at that state. When
//! several later operations are each admitted against the same long-lived
//! logged entry, every certificate is individually valid at the capture but
//! the certificates need not compose: here, a logged `get(3)` over a run of
//! duplicate elements admits three single left-shifting `removeAt`s one by
//! one, yet their composition shifts by three and moves a different element
//! into the observed slot — serial replay in ticket order would then read a
//! value the live execution never saw. (This is the deterministic,
//! single-threaded reconstruction of a divergence the differential stress
//! harness hits only rarely, under heavy interleaving.)
//!
//! The fix: admission re-anchors every state-reading condition at the live
//! state under the structure lock (see `Shared::admit_against_slot` and the
//! gatekeeper's `check_*_at` methods). The first test pins the exact trace:
//! two removals are admitted, the third must conflict with the logged
//! observer. The second pins the captured pre-state anchor, which is still
//! checked even where the live state alone would admit. The third pins the
//! undo anchor: the live state with the logged transaction rolled back,
//! where committed operations separate the pair.
//!
//! Over sets and maps the only conditions that read the state are the
//! `size`-first ones, evaluated at the live state projected onto the
//! incoming key, and certified only while the runtime's version is the
//! one `size` ran at and no third live transaction has changed the state.
//! The last three tests pin that rule on `HashSet` and `HashTable`, each
//! ending with a ticket-order replay through `CoarseLockRuntime`.

use semcommute_logic::{ElemId, Value};
use semcommute_runtime::{
    AnyStructure, CoarseLockRuntime, SpeculativeRuntime, Transaction, TxnError,
};
use semcommute_spec::AbstractState;

fn runtime(structure: &str) -> SpeculativeRuntime {
    SpeculativeRuntime::new(AnyStructure::by_name(structure).unwrap())
}

#[test]
fn stale_observer_certificates_do_not_compose() {
    let rt = runtime("ArrayList");

    // Seed [1, 1, 1, 1, 1, 1, 10].
    let mut seed = rt.begin();
    seed.execute("addAt", &[Value::Int(0), Value::elem(10)])
        .unwrap();
    for _ in 0..6 {
        seed.execute("addAt", &[Value::Int(0), Value::elem(1)])
            .unwrap();
    }
    seed.commit();

    // A long-lived observer logs `get(3) = 1` and stays uncommitted.
    let mut observer = rt.begin();
    let read = observer.execute("get", &[Value::Int(3)]).unwrap();
    assert_eq!(read, Some(Value::elem(1)));

    // Two removals below the observed index are admissible — each is a
    // single left shift, and after each the observed slot still reads a
    // 1 (the re-anchored condition holds at the live state too).
    for index in [3, 1] {
        let mut txn = rt.begin();
        txn.execute("removeAt", &[Value::Int(index)]).unwrap();
        txn.commit();
    }

    // The third removal still carries a valid certificate against the
    // observer's captured pre-state (the duplicate run), but at the live
    // state [1, 1, 1, 1, 10] one more shift would move the 10 into the
    // observed slot. Admitting it would make the observer's recorded
    // read unserializable; it must conflict.
    let mut third = rt.begin();
    match third.execute("removeAt", &[Value::Int(0)]) {
        Err(TxnError::Conflict(conflict)) => {
            assert_eq!(conflict.logged_op, "get");
            assert_eq!(conflict.incoming_op, "removeAt");
        }
        other => panic!("stale certificate was admitted: {other:?}"),
    }
    third.abort();

    // The observer commits last and its read replays identically in
    // ticket order: seed, removeAt(3), removeAt(1), get(3) = 1.
    observer.commit();
    assert_eq!(
        rt.snapshot(),
        AbstractState::List([1, 1, 1, 1, 10].iter().map(|&i| ElemId(i)).collect()),
    );
}

/// T1 logs `remove(1)` over `{1}`. T2's `contains(1)` would read `false` at
/// the live state, where the condition holds (`1` is no longer present) —
/// but ticket order may put T2 first, where `contains(1)` reads `true`. Only
/// the anchor at T1's captured pre-state sees that, so it must still be
/// checked: T2 conflicts.
#[test]
fn single_phase_keeps_the_pre_state_anchor() {
    let rt = runtime("HashSet");
    let mut seed = rt.begin();
    seed.execute("add", &[Value::elem(1)]).unwrap();
    seed.commit();

    let mut t1 = rt.begin();
    let removed = t1.execute("remove", &[Value::elem(1)]).unwrap();
    assert_eq!(removed, Some(Value::Bool(true)));

    let mut t2 = rt.begin();
    match t2.execute("contains", &[Value::elem(1)]) {
        Err(TxnError::Conflict(conflict)) => {
            assert_eq!(conflict.logged_op, "remove");
            assert_eq!(conflict.incoming_op, "contains");
        }
        other => panic!("pre-state anchor was skipped: {other:?}"),
    }
    t2.abort();
    t1.commit();
    assert_eq!(rt.snapshot(), AbstractState::Set(Default::default()));
}

/// The third anchor. A logs `addAt(0, 2)` over `[1]`; two transactions each
/// add a `2` at index 0 and commit. B's `removeAt(2)` over `[2, 2, 2, 1]`
/// passes A's captured anchor `[1]` and the live anchor, but if B commits
/// before A, or both abort, the pair is adjacent at `[2, 2, 1]`: the live
/// state with A's operation rolled back. There `removeAt(2)` reads the `1`
/// instead of a `2`, so B must conflict. Had B been admitted, A's abort and
/// then B's would leave `[2, 1, 2]` where serial replay of the committed
/// transactions gives `[2, 2, 1]`.
#[test]
fn aborts_across_committed_separators_restore_the_serial_state() {
    let rt = runtime("ArrayList");
    let add_at_0 = |txn: &mut semcommute_runtime::Transaction, element: u32| {
        txn.execute("addAt", &[Value::Int(0), Value::elem(element)])
            .unwrap();
    };
    let mut seed = rt.begin();
    add_at_0(&mut seed, 1);
    seed.commit();

    let mut a = rt.begin();
    add_at_0(&mut a, 2);
    for _ in 0..2 {
        let mut separator = rt.begin();
        add_at_0(&mut separator, 2);
        separator.commit();
    }
    let mut b = rt.begin();
    match b.execute("removeAt", &[Value::Int(2)]) {
        Err(TxnError::Conflict(conflict)) => {
            assert_eq!(conflict.logged_op, "addAt");
            assert_eq!(conflict.incoming_op, "removeAt");
        }
        other => panic!("undo anchor was skipped: {other:?}"),
    }
    a.abort();
    b.abort();

    assert_eq!(
        rt.snapshot(),
        AbstractState::List([2, 2, 1].iter().map(|&i| ElemId(i)).collect()),
    );
}

/// A third live transaction's effect sits in every anchor, and its abort
/// removes it from all of them. Over `[1, 1]`: T2 logs `removeAt(0)`, T4 logs
/// `addAt(0, 1)`, and T2 logs `get(0) = 1`. T5's `removeAt(0)` commutes with
/// that `get` at every anchor, all of which still hold T4's `1`; but once T4
/// aborts, the pair is adjacent at `[1]`, where `get(0)` after `removeAt(0)`
/// is out of range — and with T5 committing first, T2's read no longer
/// replays. So over a sequence a state-reading pair is refused while a live
/// transaction other than the two has changed the state.
#[test]
fn third_party_changes_block_state_reading_certificates() {
    let rt = runtime("ArrayList");
    let mut seed = rt.begin();
    for _ in 0..2 {
        seed.execute("addAt", &[Value::Int(0), Value::elem(1)])
            .unwrap();
    }
    seed.commit();

    let mut t2 = rt.begin();
    let removed = t2.execute("removeAt", &[Value::Int(0)]).unwrap();
    assert_eq!(removed, Some(Value::elem(1)));
    let mut t4 = rt.begin();
    t4.execute("addAt", &[Value::Int(0), Value::elem(1)])
        .unwrap();
    let read = t2.execute("get", &[Value::Int(0)]).unwrap();
    assert_eq!(read, Some(Value::elem(1)));

    let mut t5 = rt.begin();
    match t5.execute("removeAt", &[Value::Int(0)]) {
        Err(TxnError::Conflict(conflict)) => {
            assert_eq!(conflict.incoming_op, "removeAt");
        }
        other => panic!("third-party change was ignored: {other:?}"),
    }
    t5.abort();
    t4.abort();
    t2.commit();
    assert_eq!(rt.snapshot(), AbstractState::List(vec![ElemId(1)]),);
}

/// One executed operation: name, arguments, recorded result.
type Executed = (String, Vec<Value>, Option<Value>);

/// A transaction that records what it executed, for the replay.
struct Recorded {
    txn: Transaction,
    ops: Vec<Executed>,
}

impl Recorded {
    fn execute(&mut self, op: &str, args: &[Value]) -> Result<Option<Value>, TxnError> {
        let result = self.txn.execute(op, args)?;
        self.ops
            .push((op.to_string(), args.to_vec(), result.clone()));
        Ok(result)
    }
}

/// A runtime with the committed transactions it has seen, by ticket.
struct History {
    rt: SpeculativeRuntime,
    structure: &'static str,
    committed: Vec<(u64, Vec<Executed>)>,
}

impl History {
    /// A runtime over `structure` whose first committed transaction runs
    /// `seed`.
    fn new(structure: &'static str, seed: &[(&str, Vec<Value>)]) -> History {
        let mut history = History {
            rt: runtime(structure),
            structure,
            committed: Vec::new(),
        };
        let mut txn = history.begin();
        for (op, args) in seed {
            txn.execute(op, args).unwrap();
        }
        history.commit(txn);
        history
    }

    fn begin(&self) -> Recorded {
        Recorded {
            txn: self.rt.begin(),
            ops: Vec::new(),
        }
    }

    fn commit(&mut self, txn: Recorded) {
        let ticket = txn.txn.commit();
        self.committed.push((ticket, txn.ops));
    }

    /// Replays the committed transactions serially in ticket order through
    /// the coarse-lock oracle: every recorded result and the final state
    /// must come out the same.
    fn replay(mut self) {
        assert_eq!(self.rt.pending_operations(), 0);
        self.committed.sort_by_key(|(ticket, _)| *ticket);
        let oracle = CoarseLockRuntime::new(AnyStructure::by_name(self.structure).unwrap());
        for (ticket, ops) in &self.committed {
            oracle.run_transaction(|serial| {
                for (op, args, recorded) in ops {
                    let replayed = serial.execute(op, args).unwrap();
                    assert_eq!(
                        &replayed, recorded,
                        "{} ticket {ticket}: {op}{args:?}",
                        self.structure
                    );
                }
            });
        }
        assert_eq!(oracle.snapshot(), self.rt.snapshot());
    }
}

fn expect_conflict(result: Result<Option<Value>, TxnError>, logged: &str) {
    match result {
        Err(TxnError::Conflict(conflict)) => {
            assert_eq!(conflict.logged_op, logged);
        }
        other => panic!("expected a conflict with `{logged}`: {other:?}"),
    }
}

fn e(id: u32) -> Value {
    Value::elem(id)
}

/// While nothing changed since `size` ran, an incoming operation that
/// leaves the state as it is commutes with it and is admitted.
#[test]
fn size_admits_state_preserving_operations_while_the_version_holds() {
    // HashSet over {1}: `add(1)` and `remove(2)` change nothing.
    let mut h = History::new("HashSet", &[("add", vec![e(1)])]);
    let mut t1 = h.begin();
    assert_eq!(t1.execute("size", &[]).unwrap(), Some(Value::Int(1)));
    let mut t2 = h.begin();
    assert_eq!(
        t2.execute("add", &[e(1)]).unwrap(),
        Some(Value::Bool(false))
    );
    assert_eq!(
        t2.execute("remove", &[e(2)]).unwrap(),
        Some(Value::Bool(false))
    );
    h.commit(t2);
    h.commit(t1);
    h.replay();

    // HashTable over {1 -> 10}: `put(1, 10)` and `remove(2)` change
    // nothing.
    let mut h = History::new("HashTable", &[("put", vec![e(1), e(10)])]);
    let mut t1 = h.begin();
    assert_eq!(t1.execute("size", &[]).unwrap(), Some(Value::Int(1)));
    let mut t2 = h.begin();
    assert_eq!(t2.execute("put", &[e(1), e(10)]).unwrap(), Some(e(10)));
    assert_eq!(t2.execute("remove", &[e(2)]).unwrap(), Some(Value::null()));
    h.commit(t1);
    h.commit(t2);
    h.replay();
}

/// Once the state has changed since `size` ran — by the `size`
/// transaction itself, or by a transaction that has since committed — a
/// state-reading pair against it is no longer certified, even for an
/// operation that changes nothing.
#[test]
fn size_conflicts_after_any_state_change_since_it_ran() {
    // HashSet: the `size` transaction adds 5 after its `size`.
    let mut h = History::new("HashSet", &[("add", vec![e(1)])]);
    let mut t1 = h.begin();
    t1.execute("size", &[]).unwrap();
    t1.execute("add", &[e(5)]).unwrap();
    let mut t2 = h.begin();
    expect_conflict(t2.execute("add", &[e(1)]), "size");
    t2.txn.abort();
    h.commit(t1);
    let mut t2 = h.begin();
    assert_eq!(
        t2.execute("add", &[e(1)]).unwrap(),
        Some(Value::Bool(false))
    );
    h.commit(t2);
    h.replay();

    // HashTable: a `put` that replaces 1's value keeps the size, so it
    // is admitted against the `size` and commits; after it, even a
    // no-op `put` is refused.
    let mut h = History::new("HashTable", &[("put", vec![e(1), e(10)])]);
    let mut t1 = h.begin();
    t1.execute("size", &[]).unwrap();
    let mut t3 = h.begin();
    assert_eq!(t3.execute("put", &[e(1), e(11)]).unwrap(), Some(e(10)));
    h.commit(t3);
    let mut t2 = h.begin();
    expect_conflict(t2.execute("put", &[e(1), e(11)]), "size");
    t2.txn.abort();
    h.commit(t1);
    h.replay();
}

/// A third live transaction that has changed the state blocks every
/// state-reading pair (the no-third-party rule). On a map, a value-replacing
/// `put` keeps the size, so a `size` is admitted after it; a `remove` of an
/// absent key then commutes with the `size` at the live state, yet conflicts
/// until the third transaction finishes. On a set every change moves the
/// size, so a `size` is never admitted beside a live change at all.
#[test]
fn size_conflicts_while_a_third_live_transaction_has_changed_the_state() {
    let mut h = History::new("HashTable", &[("put", vec![e(1), e(10)])]);
    let mut t3 = h.begin();
    t3.execute("put", &[e(1), e(11)]).unwrap();
    let mut t1 = h.begin();
    assert_eq!(t1.execute("size", &[]).unwrap(), Some(Value::Int(1)));
    let mut t2 = h.begin();
    expect_conflict(t2.execute("remove", &[e(2)]), "size");
    t2.txn.abort();
    h.commit(t3);
    // The version is still the one `size` ran at, and nobody else is
    // live: admitted.
    let mut t2 = h.begin();
    assert_eq!(t2.execute("remove", &[e(2)]).unwrap(), Some(Value::null()));
    h.commit(t2);
    h.commit(t1);
    h.replay();

    let mut h = History::new("HashSet", &[("add", vec![e(1)])]);
    let mut t3 = h.begin();
    t3.execute("add", &[e(7)]).unwrap();
    let mut t1 = h.begin();
    expect_conflict(t1.execute("size", &[]), "add");
    t1.txn.abort();
    h.commit(t3);
    let mut t1 = h.begin();
    assert_eq!(t1.execute("size", &[]).unwrap(), Some(Value::Int(2)));
    h.commit(t1);
    h.replay();
}
