//! The commutativity gatekeeper: dynamic conflict detection using the
//! verified between conditions.
//!
//! # Compiled admission
//!
//! The gatekeeper compiles each between condition formula **once per
//! process** into a flat register [`Program`] via
//! [`Program::lower_formula`] with a fixed slot layout — `s1`, `r1`, the
//! first operation's canonical argument names, then the second's — and
//! evaluates admissions through the program with reusable thread-local
//! register buffers. No `Model`, no `HashMap`, no term-tree walk on the hot
//! path. Programs are compiled lazily on first use of each (logged-op,
//! incoming-op) pair, in the interface's one pair table (see below), so a
//! process pays for exactly the pairs its workloads exercise, once.
//!
//! The reference semantics is `logic::eval_bool` over a `Model` built from
//! the log entry: `tests/diff_gatekeeper.rs` checks every catalog pair's
//! compiled verdicts, and the [`Conflict`] vs
//! [`Evaluation`](AdmissionError::Evaluation) classification, against it.
//!
//! # Runtime forms
//!
//! The pair table holds the **runtime form** of each recorded between
//! condition ([`semcommute_core::runtime_form`]): over sets and maps, every
//! query of the first operation on the initial state `s1` that its recorded
//! result `r1` decides is replaced by that `r1` term, each rewrite proved
//! equivalent to the catalog's form. What still reads `s1` there is a
//! `size`-first pair, and it reads `s1` only at the pair's own keys
//! (`v2 ∈ s1`, `k2 ∈ dom s1`). Sequence conditions keep the catalog's form.
//!
//! # Anchors per state-reading condition
//!
//! The executor's `Shared::admit_against_slot` admits an incoming operation
//! against each logged operation of another live transaction, looking the
//! pair's condition up once ([`pair_indexed`](CommutativityGatekeeper::pair_indexed)).
//! A state-free condition (the majority — they test `r1` and arguments) is
//! evaluated once. A set or map condition that reads `s1` is evaluated at
//! the live state projected onto its keys
//! ([`PairCheck::state_keys`]), and only while the runtime's version is
//! the one the logged operation ran at, so the captured, live and undo
//! anchors below coincide. A sequence condition that reads `s1` is
//! evaluated at up to **three** anchors:
//!
//! * the logged entry's **captured pre-state**
//!   ([`check_indexed`](CommutativityGatekeeper::check_indexed)) — the exact
//!   certificate for swapping the pair adjacent at the state the logged
//!   operation executed in;
//! * the **live state** under the structure lock
//!   ([`check_indexed_at`](CommutativityGatekeeper::check_indexed_at)) — the
//!   re-anchor that makes per-pair certificates compose once other admitted
//!   operations separate the pair; and
//! * the **undo anchor**, the live state with the logged operation and
//!   its transaction's newer operations undone by their inverses
//!   (`check_indexed_at` again), which certifies the serialization that
//!   puts the logged transaction last.
//!
//! For every state-reading pair the executor also refuses admission while a
//! third live transaction has changed the state (the no-third-party rule).
//!
//! # One pair table
//!
//! Operations are keyed by their dense index in the interface's operation
//! list ([`op_index`](CommutativityGatekeeper::op_index)); every pair lookup,
//! by name or by index, reads one flattened (first × second) table. Whether
//! a pair reads `s1`, and whether an operation's log entries must carry a
//! pre-state, are decided once, when the table is built. The table depends
//! only on the interface, so it is built once per process and interface and
//! shared (`Arc`) by every gatekeeper and runtime for that interface.

use std::cell::RefCell;
use std::fmt;
use std::sync::{Arc, OnceLock};

use semcommute_core::condition::names;
use semcommute_core::runtime_form::{runtime_condition, state_query_rewrites};
use semcommute_core::CommutativityCondition;
use semcommute_logic::{Sort, Term, Value};
use semcommute_prover::Program;
use semcommute_spec::InterfaceId;

use crate::log::LogEntry;

/// A detected conflict: the incoming operation does not semantically commute
/// with an operation another in-flight transaction has already executed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Conflict {
    /// The transaction whose logged operation the incoming operation
    /// conflicts with.
    pub with_txn: u64,
    /// The logged operation.
    pub logged_op: String,
    /// The incoming operation.
    pub incoming_op: String,
}

impl Conflict {
    /// The conflicting operation pair as `(incoming, logged)` — the compact
    /// form retry diagnostics report.
    pub fn op_pair(&self) -> (&str, &str) {
        (&self.incoming_op, &self.logged_op)
    }
}

impl fmt::Display for Conflict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "`{}` does not commute with `{}` executed by transaction {}",
            self.incoming_op, self.logged_op, self.with_txn
        )
    }
}

/// Why the gatekeeper refused to admit an operation.
///
/// The two cases call for opposite reactions, which is why they are distinct:
/// a [`Conflict`] is the ordinary speculative outcome — the transaction
/// aborts, rolls back, and retrying is likely to succeed once the conflicting
/// transaction finishes. An [`Evaluation`](AdmissionError::Evaluation) error
/// means the check itself could not be performed (the condition references
/// information the log entry does not carry). Retrying cannot fix that, so
/// masking it as a conflict — as the runtime did before — turns a
/// configuration bug into a retry loop that ends in a misleading "retries
/// exhausted" report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmissionError {
    /// The operations genuinely do not commute; abort and retry.
    Conflict(Conflict),
    /// The commutativity check could not be evaluated; not retryable.
    Evaluation(String),
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionError::Conflict(c) => write!(f, "{c}"),
            AdmissionError::Evaluation(e) => write!(f, "condition evaluation failed: {e}"),
        }
    }
}

/// Where each input slot of a compiled admission program gets its value from
/// at evaluation time.
#[derive(Debug, Clone, Copy)]
enum SlotSrc {
    /// The logged entry's pre-state projection (`s1`).
    Initial,
    /// The logged entry's recorded return value (`r1`).
    Result1,
    /// Argument `i` of the logged (first) operation.
    FirstArg(usize),
    /// Argument `i` of the incoming (second) operation.
    SecondArg(usize),
}

/// A between condition compiled to a flat register program with the
/// admission slot layout: slot 0 is `s1`, slot 1 is `r1`, then the first
/// operation's canonical argument names, then the second's. Built once per
/// (logged-op, incoming-op) pair, in the interface's shared pair table.
#[derive(Debug)]
struct AdmissionProgram {
    program: Program,
    /// Per input slot: where its value comes from, and its canonical variable
    /// name (for `unbound variable` error messages).
    slots: Vec<(SlotSrc, String)>,
    /// Per input slot: whether the compiled program actually reads it.
    /// Unread slots take a placeholder; read-but-unavailable slots are
    /// evaluation errors — exactly when a `Model` lookup of the reference
    /// evaluator would fail.
    reads: Vec<bool>,
}

thread_local! {
    /// Reusable per-thread register buffer for compiled admission. Sound
    /// across programs because every register an execution reads is
    /// rewritten before the read (constants and read input slots per call,
    /// SSA temporaries by the instruction stream); unread input slots may
    /// hold stale values from a previous program, which no instruction ever
    /// touches.
    static ADMIT_REGS: RefCell<Vec<Value>> = const { RefCell::new(Vec::new()) };
}

impl AdmissionProgram {
    fn compile(
        condition: &CommutativityCondition,
        first_params: &[String],
        second_params: &[String],
    ) -> AdmissionProgram {
        let mut slots = vec![
            (SlotSrc::Initial, names::INITIAL.to_string()),
            (SlotSrc::Result1, names::RESULT1.to_string()),
        ];
        for (i, name) in first_params.iter().enumerate() {
            slots.push((SlotSrc::FirstArg(i), name.clone()));
        }
        for (i, name) in second_params.iter().enumerate() {
            slots.push((SlotSrc::SecondArg(i), name.clone()));
        }
        let order: Vec<String> = slots.iter().map(|(_, name)| name.clone()).collect();
        let program = Program::lower_formula(&condition.formula, &order);
        let reads = program.input_reads();
        AdmissionProgram {
            program,
            slots,
            reads,
        }
    }

    /// Evaluates the condition on one logged entry and the incoming
    /// arguments, through the thread-local register buffers. When `state` is
    /// provided it overrides the logged entry's captured pre-state as the
    /// `s1` binding (the re-anchored evaluation — see
    /// [`CommutativityGatekeeper::check_indexed_at`]). Errors are raw (the
    /// caller prefixes the condition id).
    fn eval(
        &self,
        logged: &LogEntry,
        incoming_args: &[Value],
        state: Option<&Value>,
    ) -> Result<bool, String> {
        ADMIT_REGS.with(|regs| {
            let regs = &mut *regs.borrow_mut();
            self.program.prepare_regs(regs);
            for (slot, (src, name)) in self.slots.iter().enumerate() {
                if !self.reads[slot] {
                    // Never read by the program: no write needed, the
                    // register is dead.
                    continue;
                }
                let found = match src {
                    SlotSrc::Initial => state.or(logged.pre_state.as_ref()),
                    SlotSrc::Result1 => logged.result.as_ref(),
                    SlotSrc::FirstArg(i) => logged.args.get(*i),
                    SlotSrc::SecondArg(i) => incoming_args.get(*i),
                };
                match found {
                    Some(v) => regs[slot] = v.clone(),
                    // A `Model` built from the entry would lack this name,
                    // so the reference evaluator's lookup would fail too.
                    None => return Err(format!("unbound variable `{name}`")),
                }
            }
            self.program.eval_in_regs(regs)
        })
    }
}

/// A between condition prepared for repeated run-time evaluation: the
/// canonical argument-variable names are resolved against the interface
/// specification once, and the formula's state requirements are precomputed,
/// so the per-admission work is a slot fill plus a flat register program
/// run.
#[derive(Debug)]
struct Prepared {
    condition: CommutativityCondition,
    /// Canonical names (`v1`, `k1`, …) for the first operation's arguments.
    first_params: Vec<String>,
    /// Canonical names (`v2`, `k2`, …) for the second operation's arguments.
    second_params: Vec<String>,
    /// Whether the formula reads the initial state `s1` at all, decided at
    /// construction by the walk that finds `state_keys`. The compiled
    /// program reads its `s1` slot exactly then (a unit test pins the two
    /// across the catalog).
    reads_state: bool,
    /// The argument slots at which the formula queries `s1`, if it reads
    /// `s1` only through membership and lookup at arguments (see
    /// [`keyed_state_reads`]); `None` if it reads `s1` any other way.
    state_keys: Option<Vec<SlotSrc>>,
    /// The compiled admission program, built lazily on first use. The pair
    /// table that holds this cell is shared process-wide, so each program is
    /// compiled at most once per process.
    program: OnceLock<AdmissionProgram>,
}

/// The argument slots at which `formula` queries the initial state, if it
/// reads `s1` only as `x ∈ s1`, `x ∈ dom s1` or `s1.get(x)` with `x` an
/// argument of either operation: the queries a set or map answers at the
/// live state without a walk. `None` if `s1` occurs any other way (every
/// sequence condition that reads it). Empty if `s1` does not occur.
fn keyed_state_reads(
    formula: &Term,
    first_params: &[String],
    second_params: &[String],
) -> Option<Vec<SlotSrc>> {
    fn walk(term: &Term, keys: &mut Vec<String>) -> bool {
        let initial = |t: &Term| matches!(t, Term::Var(v) if v.name == names::INITIAL);
        match term {
            Term::Member(key, state) | Term::MapHasKey(state, key) | Term::MapGet(state, key)
                if initial(state) =>
            {
                match &**key {
                    Term::Var(v) => {
                        keys.push(v.name.clone());
                        true
                    }
                    _ => false,
                }
            }
            Term::Var(v) => v.name != names::INITIAL,
            _ => term.children().into_iter().all(|child| walk(child, keys)),
        }
    }
    let mut keys = Vec::new();
    if !walk(formula, &mut keys) {
        return None;
    }
    keys.sort();
    keys.dedup();
    keys.iter()
        .map(|name| {
            let position = |params: &[String]| params.iter().position(|p| p == name);
            position(first_params)
                .map(SlotSrc::FirstArg)
                .or_else(|| position(second_params).map(SlotSrc::SecondArg))
        })
        .collect()
}

impl Prepared {
    fn new(
        condition: CommutativityCondition,
        first_params: Vec<String>,
        second_params: Vec<String>,
    ) -> Prepared {
        let state_keys = keyed_state_reads(&condition.formula, &first_params, &second_params);
        // The walk fails only where `s1` occurs, and finds keys only where
        // it does: `Some(empty)` is the one state-free outcome.
        let reads_state = state_keys.as_ref().is_none_or(|keys| !keys.is_empty());
        Prepared {
            condition,
            first_params,
            second_params,
            reads_state,
            state_keys,
            program: OnceLock::new(),
        }
    }

    fn program(&self) -> &AdmissionProgram {
        self.program.get_or_init(|| {
            AdmissionProgram::compile(&self.condition, &self.first_params, &self.second_params)
        })
    }

    /// Evaluates the condition on `logged` and the incoming arguments, with
    /// `s1` bound to `state`, or to the entry's captured pre-state when
    /// `state` is `None`.
    fn eval(
        &self,
        logged: &LogEntry,
        incoming_args: &[Value],
        state: Option<&Value>,
    ) -> Result<bool, String> {
        if self.reads_state && state.is_none() && logged.pre_state.is_none() {
            return Err(format!(
                "{}: entry for `{}` carries no pre-state but the condition reads `{}`",
                self.condition.id(),
                logged.op,
                names::INITIAL,
            ));
        }
        self.program()
            .eval(logged, incoming_args, state)
            .map_err(|e| format!("{}: {e}", self.condition.id()))
    }

    /// Translates one condition evaluation into an admission verdict.
    fn classify(
        &self,
        logged: &LogEntry,
        incoming_op: &str,
        incoming_args: &[Value],
        state: Option<&Value>,
    ) -> Result<(), AdmissionError> {
        match self.eval(logged, incoming_args, state) {
            Ok(true) => Ok(()),
            Ok(false) => Err(AdmissionError::Conflict(Conflict {
                with_txn: logged.txn,
                logged_op: logged.op.clone(),
                incoming_op: incoming_op.to_string(),
            })),
            Err(e) => Err(AdmissionError::Evaluation(e)),
        }
    }
}

/// Dynamic commutativity checking for one interface.
///
/// The gatekeeper holds the *between* conditions of the interface (for the
/// recorded variants — the runtime always records return values so that
/// inverse operations can be applied later), in their runtime forms (see
/// the module docs), and evaluates them against the run-time information
/// captured in the operation log. This is the "forward gatekeeper" usage
/// scenario of the paper's related-work discussion: before executing an
/// operation, check that it commutes with every operation executed by other
/// uncommitted transactions.
///
/// The gatekeeper also answers, per first operation, whether a log entry
/// for it must carry the abstract pre-state; the executor consults
/// [`requires_pre_state_indexed`](CommutativityGatekeeper::requires_pre_state_indexed)
/// when logging the operation. Only a sequence operation with a condition
/// that reads `s1` needs one: set and map conditions read `s1` at keys the
/// live structure answers, and the rest test `r1` and arguments. The answer
/// is computed once per operation, when the interface's pair table is built.
#[derive(Debug, Clone)]
pub struct CommutativityGatekeeper {
    interface: InterfaceId,
    /// The interface's pair table, shared by every gatekeeper for it.
    table: Arc<PairTable>,
}

/// Everything a gatekeeper knows about its interface. It depends only on the
/// interface, so [`CommutativityGatekeeper::new`] builds it once per process
/// and interface and every gatekeeper for that interface shares it.
#[derive(Debug)]
struct PairTable {
    /// Per operation of `ops`: does a condition with this operation first
    /// read `s1` other than at keys?
    pre_state: Vec<bool>,
    /// The dense operation universe: the interface's operation names in
    /// specification order. [`op_index`](CommutativityGatekeeper::op_index)
    /// resolves a name once, when the operation executes, and the log entry
    /// keeps the index; after that the hot path never hashes a string.
    ops: Vec<String>,
    /// The prepared between conditions for recorded variants, in their
    /// runtime forms, as the flattened (first × second) pair table indexed
    /// `first * ops.len() + second`: the catalog holds one for every pair.
    cells: Vec<Prepared>,
}

impl PairTable {
    /// Builds the table from the runtime forms of the verified catalog's
    /// recorded between conditions. Only those conditions are built: one per
    /// ordered pair of operations.
    fn build(interface: InterfaceId) -> PairTable {
        let iface = semcommute_spec::interface_by_id(interface);
        let ops: Vec<String> = iface.ops.iter().map(|op| op.name.clone()).collect();
        let params = |op: usize, which: usize| -> Vec<String> {
            iface.ops[op]
                .params
                .iter()
                .map(|(formal, _)| names::arg(formal, which))
                .collect()
        };
        let rules = state_query_rewrites(interface);
        let mut cells = Vec::with_capacity(ops.len() * ops.len());
        for (first, first_op) in ops.iter().enumerate() {
            for (second, second_op) in ops.iter().enumerate() {
                let condition = runtime_condition(interface, first_op, second_op, &rules);
                let prepared = Prepared::new(condition, params(first, 1), params(second, 2));
                // Sets and maps keep no mirror to capture or roll back: the
                // executor can only answer their state at keys.
                assert!(
                    prepared.state_keys.is_some() || iface.state_sort == Sort::Seq,
                    "{} reads `s1` other than at keys",
                    prepared.condition.id()
                );
                cells.push(prepared);
            }
        }
        let pre_state = cells
            .chunks(ops.len())
            .map(|row| row.iter().any(|p| p.reads_state && p.state_keys.is_none()))
            .collect();
        PairTable {
            pre_state,
            ops,
            cells,
        }
    }
}

impl CommutativityGatekeeper {
    /// The gatekeeper for an interface. Its pair table is built on the first
    /// call for the interface in the process; later calls share it.
    pub fn new(interface: InterfaceId) -> CommutativityGatekeeper {
        static TABLES: [OnceLock<Arc<PairTable>>; InterfaceId::ALL.len()] =
            [const { OnceLock::new() }; InterfaceId::ALL.len()];
        let table = TABLES[interface as usize]
            .get_or_init(|| Arc::new(PairTable::build(interface)))
            .clone();
        CommutativityGatekeeper { interface, table }
    }

    /// The interface this gatekeeper serves.
    pub fn interface(&self) -> InterfaceId {
        self.interface
    }

    /// The table cell of an ordered pair of operation indices.
    fn cell(&self, first: u16, second: u16) -> &Prepared {
        &self.table.cells[first as usize * self.table.ops.len() + second as usize]
    }

    /// The prepared condition of an ordered pair of operation names, if the
    /// interface knows both.
    fn prepared(&self, first_op: &str, second_op: &str) -> Option<&Prepared> {
        Some(self.cell(self.op_index(first_op)?, self.op_index(second_op)?))
    }

    /// The between condition for an ordered operation pair, in its runtime
    /// form.
    pub fn condition(&self, first_op: &str, second_op: &str) -> Option<&CommutativityCondition> {
        self.prepared(first_op, second_op).map(|p| &p.condition)
    }

    /// Every ordered (first, second) operation pair this gatekeeper holds a
    /// between condition for, sorted by name. Differential harnesses iterate
    /// this to cover the whole catalog.
    pub fn pairs(&self) -> Vec<(String, String)> {
        let ops = &self.table.ops;
        let mut pairs: Vec<(String, String)> = ops
            .iter()
            .flat_map(|first| ops.iter().map(|second| (first.clone(), second.clone())))
            .collect();
        pairs.sort();
        pairs
    }

    /// Must a log entry for `op` (as the *first* operation of a later
    /// between check) carry the abstract pre-state?
    ///
    /// Returns `true` iff some between condition with `op` first reads the
    /// initial state `s1` other than at keys. That leaves sequence
    /// operations only: no set or map operation needs a pre-state. The
    /// executor captures the (O(1), persistent) state projection only for
    /// these operations. Unknown operations need none.
    pub fn requires_pre_state(&self, op: &str) -> bool {
        self.op_index(op)
            .is_some_and(|idx| self.requires_pre_state_indexed(idx))
    }

    /// [`requires_pre_state`](CommutativityGatekeeper::requires_pre_state)
    /// for an operation pre-resolved via
    /// [`op_index`](CommutativityGatekeeper::op_index): one lookup.
    pub fn requires_pre_state_indexed(&self, op_idx: u16) -> bool {
        self.table.pre_state[op_idx as usize]
    }

    /// Resolves an operation name to its dense index in this gatekeeper's
    /// operation universe, or `None` if the interface does not know the
    /// operation. The executor resolves each operation once, when it
    /// executes, and keeps the index with its log entry, so
    /// [`check_indexed`](CommutativityGatekeeper::check_indexed) never hashes
    /// a string.
    pub fn op_index(&self, op: &str) -> Option<u16> {
        self.table
            .ops
            .iter()
            .position(|name| name == op)
            .map(|i| i as u16)
    }

    /// The condition of the pair (`first` logged, `second` incoming), looked
    /// up once for every anchor it is checked at. Indices come from
    /// [`op_index`](CommutativityGatekeeper::op_index).
    pub fn pair_indexed(&self, first: u16, second: u16) -> PairCheck<'_> {
        PairCheck {
            prepared: self.cell(first, second),
        }
    }

    /// Checks an incoming operation against one logged entry of another
    /// transaction, anchored at the entry's captured pre-state, and
    /// classifies the outcome as admissible, [`Conflict`], or an evaluation
    /// failure. Both operations are pre-resolved via
    /// [`op_index`](CommutativityGatekeeper::op_index) (`first` is the
    /// logged operation, `second` the incoming one).
    ///
    /// # Errors
    ///
    /// Returns the [`Conflict`] if the condition is false, or
    /// [`AdmissionError::Evaluation`] if the condition could not be
    /// evaluated from the logged information — the latter is **not** a
    /// conflict and must not be retried (see [`AdmissionError`]).
    pub fn check_indexed(
        &self,
        first: u16,
        logged: &LogEntry,
        second: u16,
        incoming_op: &str,
        incoming_args: &[Value],
    ) -> Result<(), AdmissionError> {
        self.pair_indexed(first, second)
            .check(logged, incoming_op, incoming_args, None)
    }

    /// The **re-anchored** form of
    /// [`check_indexed`](CommutativityGatekeeper::check_indexed): evaluates
    /// the pair's condition with the initial state `s1` bound to `state`
    /// (the live abstract state, read under the structure lock) instead of
    /// the logged entry's captured pre-state.
    ///
    /// A condition certified against the captured pre-state certifies
    /// swapping the pair adjacent *at that state*; once other admitted
    /// operations separate the pair, individually-valid certificates need
    /// not compose. Requiring the condition to also hold at the live state
    /// keeps every logged, state-dependent certificate current at each
    /// intermediate state, so the certificates compose inductively (see the
    /// executor's `admit_against_slot`, which also passes this method the
    /// state with the logged transaction rolled back).
    ///
    /// Pairs whose condition never reads `s1` — the majority; they test `r1`
    /// and arguments — are admitted without evaluation: re-running a
    /// state-free formula would reproduce the verdict `check_indexed`
    /// already delivered.
    ///
    /// # Errors
    ///
    /// See [`check_indexed`](CommutativityGatekeeper::check_indexed).
    pub fn check_indexed_at(
        &self,
        first: u16,
        logged: &LogEntry,
        second: u16,
        incoming_op: &str,
        incoming_args: &[Value],
        state: &Value,
    ) -> Result<(), AdmissionError> {
        let pair = self.pair_indexed(first, second);
        if !pair.reads_state() {
            return Ok(());
        }
        pair.check(logged, incoming_op, incoming_args, Some(state))
    }
}

/// One (logged, incoming) pair's condition, looked up once by
/// [`pair_indexed`](CommutativityGatekeeper::pair_indexed) and then checked
/// at as many anchors as it needs.
#[derive(Debug, Clone, Copy)]
pub struct PairCheck<'g> {
    prepared: &'g Prepared,
}

impl<'g> PairCheck<'g> {
    /// Does the condition read the abstract state `s1`?
    pub fn reads_state(self) -> bool {
        self.prepared.reads_state
    }

    /// If the condition reads `s1` only through membership and lookup at
    /// argument values — every set and map condition — those values, drawn
    /// from the logged entry and the incoming arguments: a state that agrees
    /// with the live one at these keys gives the same verdict. `None` for a
    /// condition that reads `s1` any other way (sequences).
    pub fn state_keys<'a>(
        self,
        logged: &'a LogEntry,
        incoming_args: &'a [Value],
    ) -> Option<impl Iterator<Item = &'a Value> + 'a>
    where
        'g: 'a,
    {
        let keys = self.prepared.state_keys.as_ref()?;
        Some(keys.iter().filter_map(move |src| match src {
            SlotSrc::FirstArg(i) => logged.args.get(*i),
            SlotSrc::SecondArg(i) => incoming_args.get(*i),
            SlotSrc::Initial | SlotSrc::Result1 => None,
        }))
    }

    /// Evaluates the condition on `logged` and the incoming operation, with
    /// `s1` bound to `state`, or to the entry's captured pre-state when
    /// `state` is `None`, and classifies the outcome as admissible,
    /// [`Conflict`], or an evaluation failure.
    ///
    /// # Errors
    ///
    /// See [`check_indexed`](CommutativityGatekeeper::check_indexed).
    pub fn check(
        self,
        logged: &LogEntry,
        incoming_op: &str,
        incoming_args: &[Value],
        state: Option<&Value>,
    ) -> Result<(), AdmissionError> {
        self.prepared
            .classify(logged, incoming_op, incoming_args, state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semcommute_core::runtime_form::runtime_rewrites;
    use semcommute_core::{interface_catalog, ConditionKind};
    use semcommute_spec::AbstractState;

    fn set_entry(txn: u64, op: &str, arg: u32, result: bool, state: &[u32]) -> LogEntry {
        LogEntry {
            txn,
            op: op.to_string(),
            args: vec![Value::elem(arg)],
            result: Some(Value::Bool(result)),
            pre_state: Some(
                AbstractState::Set(state.iter().map(|&i| semcommute_logic::ElemId(i)).collect())
                    .to_value(),
            ),
        }
    }

    /// [`CommutativityGatekeeper::check_indexed`] by operation name.
    fn check(
        g: &CommutativityGatekeeper,
        logged: &LogEntry,
        op: &str,
        args: &[Value],
    ) -> Result<(), AdmissionError> {
        let first = g.op_index(&logged.op).expect("interface operation");
        let second = g.op_index(op).expect("interface operation");
        g.check_indexed(first, logged, second, op, args)
    }

    /// Admits `op` of transaction `txn` against every entry of another
    /// transaction in `log`, in order — the executor's pre-state anchor.
    fn admit(
        g: &CommutativityGatekeeper,
        log: &[LogEntry],
        txn: u64,
        op: &str,
        args: &[Value],
    ) -> Result<(), AdmissionError> {
        log.iter()
            .filter(|e| e.txn != txn)
            .try_for_each(|logged| check(g, logged, op, args))
    }

    /// [`CommutativityGatekeeper::check_indexed_at`] by operation name.
    fn check_at(
        g: &CommutativityGatekeeper,
        logged: &LogEntry,
        op: &str,
        args: &[Value],
        state: &Value,
    ) -> Result<(), AdmissionError> {
        let first = g.op_index(&logged.op).expect("interface operation");
        let second = g.op_index(op).expect("interface operation");
        g.check_indexed_at(first, logged, second, op, args, state)
    }

    #[test]
    fn gatekeeper_has_conditions_for_all_recorded_pairs() {
        let g = CommutativityGatekeeper::new(InterfaceId::Set);
        for first in ["add", "contains", "remove", "size"] {
            for second in ["add", "contains", "remove", "size"] {
                assert!(g.condition(first, second).is_some(), "{first}/{second}");
            }
        }
        assert_eq!(g.interface(), InterfaceId::Set);
    }

    /// The pair table depends only on the interface: two gatekeepers for
    /// one interface share it (and with it every compiled program), and
    /// gatekeepers for different interfaces do not.
    #[test]
    fn gatekeepers_for_one_interface_share_their_table() {
        let a = CommutativityGatekeeper::new(InterfaceId::List);
        let b = CommutativityGatekeeper::new(InterfaceId::List);
        assert!(Arc::ptr_eq(&a.table, &b.table));
        let set = CommutativityGatekeeper::new(InterfaceId::Set);
        assert!(!Arc::ptr_eq(&a.table, &set.table));
    }

    #[test]
    fn pre_state_is_required_only_for_sequence_reads_of_s1() {
        // The runtime forms test `r1` where the catalog reads `s1`, and
        // the `size`-first pairs read `s1` at keys the live structure
        // answers: no set or map operation captures a pre-state.
        for interface in [InterfaceId::Set, InterfaceId::Map] {
            let g = CommutativityGatekeeper::new(interface);
            for op in semcommute_spec::interface_by_id(interface).ops {
                assert!(!g.requires_pre_state(&op.name), "{interface}/{}", op.name);
            }
        }
        // `size`/`add` still reads `s1`, at the incoming element only.
        let g = CommutativityGatekeeper::new(InterfaceId::Set);
        let pair = g.pair_indexed(g.op_index("size").unwrap(), g.op_index("add").unwrap());
        assert!(pair.reads_state());
        let logged = set_entry(1, "size", 0, false, &[]);
        let incoming = [Value::elem(5)];
        let keys: Vec<&Value> = pair.state_keys(&logged, &incoming).unwrap().collect();
        assert_eq!(keys, vec![&Value::elem(5)]);
        // A sequence observer whose condition reads positions of `s1`
        // still captures one, and has no keys.
        let g = CommutativityGatekeeper::new(InterfaceId::List);
        assert!(g.requires_pre_state("get"));
        let pair = g.pair_indexed(g.op_index("get").unwrap(), g.op_index("removeAt").unwrap());
        assert!(pair.reads_state());
        assert!(pair.state_keys(&logged, &incoming).is_none());
    }

    #[test]
    fn distinct_elements_commute_same_element_conflicts() {
        let g = CommutativityGatekeeper::new(InterfaceId::Set);
        // Transaction 1 added element 5, which was new (result = true).
        let log = [set_entry(1, "add", 5, true, &[])];

        // Transaction 2 adding a different element commutes.
        assert!(admit(&g, &log, 2, "add", &[Value::elem(7)]).is_ok());
        // Transaction 2 removing the element transaction 1 just added
        // does not commute.
        let conflict = match admit(&g, &log, 2, "remove", &[Value::elem(5)]) {
            Err(AdmissionError::Conflict(c)) => c,
            other => panic!("expected a conflict, got {other:?}"),
        };
        assert_eq!(conflict.with_txn, 1);
        assert_eq!(conflict.logged_op, "add");
        assert!(conflict.to_string().contains("does not commute"));
        // The same transaction is never in conflict with itself.
        assert!(admit(&g, &log, 1, "remove", &[Value::elem(5)]).is_ok());
    }

    #[test]
    fn contains_conflicts_only_when_observation_would_change() {
        let g = CommutativityGatekeeper::new(InterfaceId::Set);
        // Transaction 1 observed that 3 was present (result = true, and 3
        // was in the pre-state).
        let log = [set_entry(1, "contains", 3, true, &[3])];
        // Adding 3 again commutes (it was already present).
        assert!(admit(&g, &log, 2, "add", &[Value::elem(3)]).is_ok());
        // Removing 3 would invalidate the observation.
        assert!(admit(&g, &log, 2, "remove", &[Value::elem(3)]).is_err());
    }

    #[test]
    fn map_gatekeeper_uses_key_based_conditions() {
        let g = CommutativityGatekeeper::new(InterfaceId::Map);
        let log = [LogEntry {
            txn: 1,
            op: "put".into(),
            args: vec![Value::elem(1), Value::elem(10)],
            result: Some(Value::null()),
            pre_state: Some(AbstractState::Map(Default::default()).to_value()),
        }];
        // A put to a different key commutes.
        assert!(admit(&g, &log, 2, "put", &[Value::elem(2), Value::elem(20)]).is_ok());
        // A get of the same key does not.
        assert!(matches!(
            admit(&g, &log, 2, "get", &[Value::elem(1)]),
            Err(AdmissionError::Conflict(_))
        ));
    }

    /// The one pair table drops no condition: per interface, exactly one
    /// pair per recorded between condition of the catalog, each holding
    /// that condition's runtime form, and every specification operation has
    /// an index (the executor logs only applied operations and keeps their
    /// index without an `Option`). The runtime form differs from the
    /// catalog's exactly at the rewritten pairs.
    #[test]
    fn the_pair_table_holds_every_recorded_between_condition() {
        let mut rewritten = Vec::new();
        for interface in InterfaceId::ALL {
            let g = CommutativityGatekeeper::new(interface);
            let iface = semcommute_spec::interface_by_id(interface);
            for (i, op) in iface.ops.iter().enumerate() {
                assert_eq!(
                    g.op_index(&op.name),
                    Some(i as u16),
                    "{interface}/{}",
                    op.name
                );
            }
            let rewrites = runtime_rewrites(interface);
            let mut recorded: Vec<(String, String)> = interface_catalog(interface)
                .into_iter()
                .filter(|c| {
                    c.kind == ConditionKind::Between && c.first.recorded && c.second.recorded
                })
                .map(|c| {
                    let held = g.condition(&c.first.op, &c.second.op).unwrap();
                    let expected = rewrites
                        .iter()
                        .find(|r| r.paper == c)
                        .map_or(&c, |r| &r.runtime);
                    assert_eq!(held, expected, "{interface}: {}", c.id());
                    if *held != c {
                        rewritten.push(format!("{interface}/{}/{}", c.first.op, c.second.op));
                    }
                    (c.first.op, c.second.op)
                })
                .collect();
            recorded.sort();
            assert!(!recorded.is_empty(), "{interface}");
            assert_eq!(g.pairs(), recorded, "{interface}");
        }
        rewritten.sort();
        assert_eq!(
            rewritten,
            [
                "Map/put/containsKey",
                "Map/put/get",
                "Map/put/put",
                "Map/put/size",
                "Map/remove/containsKey",
                "Map/remove/get",
                "Set/remove/contains",
            ]
        );
    }

    /// One answer to "does this pair read `s1`": the bit decided at
    /// construction from the formula equals the compiled program's read of
    /// its `s1` slot, for every pair of every interface. The per-operation
    /// pre-state projection, by name and by index, is the disjunction of its
    /// pairs' bits over sequences and `false` for every other interface,
    /// whose conditions read `s1` only at keys the live structure answers.
    #[test]
    fn the_state_read_bit_is_the_compiled_programs_s1_read() {
        for interface in InterfaceId::ALL {
            let g = CommutativityGatekeeper::new(interface);
            let pairs = g.pairs();
            for (first, second) in &pairs {
                let prepared = g.prepared(first, second).unwrap();
                assert_eq!(
                    prepared.reads_state,
                    prepared.program().reads[0],
                    "{interface}: {first}/{second}: construction-time s1 bit and compiled \
                     slot read disagree"
                );
            }
            let iface = semcommute_spec::interface_by_id(interface);
            let sequence = iface.state_sort == Sort::Seq;
            for op in iface.ops.iter().map(|op| op.name.as_str()) {
                let expected = sequence
                    && pairs
                        .iter()
                        .filter(|(first, _)| first == op)
                        .any(|(first, second)| g.prepared(first, second).unwrap().reads_state);
                let idx = g.op_index(op).unwrap();
                assert_eq!(g.requires_pre_state(op), expected, "{interface}: `{op}`");
                assert_eq!(
                    g.requires_pre_state_indexed(idx),
                    expected,
                    "{interface}: `{op}` by index"
                );
            }
        }
    }

    /// An operation the interface does not know has no index, so no
    /// admission can reach the pair table with it (the executor reports it;
    /// see `executor::tests::unknown_operation_pairs_fail_fast_without_retries`).
    #[test]
    fn unknown_operations_have_no_index() {
        let g = CommutativityGatekeeper::new(InterfaceId::Set);
        assert_eq!(g.op_index("frobnicate"), None);
        assert!(!g.requires_pre_state("frobnicate"));
        assert!(g.condition("add", "frobnicate").is_none());
        assert!(g.prepared("frobnicate", "add").is_none());
    }

    fn list_state(items: &[u32]) -> Value {
        AbstractState::List(items.iter().map(|&i| semcommute_logic::ElemId(i)).collect()).to_value()
    }

    /// The composition hole the re-anchor closes, at gatekeeper level: a
    /// logged `get(3)` over a run of duplicates admits a `removeAt(0)`
    /// against its *captured* pre-state (one left shift preserves the
    /// reading), but at a live state where earlier admissions already
    /// consumed the duplicate run, the same certificate must be refused.
    #[test]
    fn re_anchor_rejects_certificates_the_captured_pre_state_still_honors() {
        let g = CommutativityGatekeeper::new(InterfaceId::List);
        let logged = LogEntry {
            txn: 1,
            op: "get".into(),
            args: vec![Value::Int(3)],
            result: Some(Value::elem(1)),
            pre_state: Some(list_state(&[1, 1, 1, 1, 1, 1, 10])),
        };
        let incoming = [Value::Int(0)];
        // Against the capture: s1[3] = s1[4], one shift is harmless.
        assert!(check(&g, &logged, "removeAt", &incoming).is_ok());
        // Re-anchored at a live state that still has the duplicate run:
        // also fine.
        let shifted_once = list_state(&[1, 1, 1, 1, 1, 10]);
        assert!(check_at(&g, &logged, "removeAt", &incoming, &shifted_once).is_ok());
        // Re-anchored at a live state where one more shift moves the 10
        // into the observed slot: conflict — even though the pre-state
        // check (above) still passes.
        let live = list_state(&[1, 1, 1, 1, 10]);
        assert!(matches!(
            check_at(&g, &logged, "removeAt", &incoming, &live),
            Err(AdmissionError::Conflict(_))
        ));
    }

    /// Pairs whose condition never reads `s1` have a single anchor: the
    /// re-anchored check is a no-op regardless of the state passed in — it
    /// must not re-deliver (or contradict) the pre-state verdict.
    #[test]
    fn re_anchor_is_a_no_op_for_state_free_pairs() {
        let g = CommutativityGatekeeper::new(InterfaceId::Set);
        // add/remove between conditions test `r1`, not `s1`: removing
        // the element a live transaction just inserted conflicts…
        let logged = set_entry(1, "add", 5, true, &[]);
        assert!(matches!(
            check(&g, &logged, "remove", &[Value::elem(5)]),
            Err(AdmissionError::Conflict(_))
        ));
        // …but the *re-anchor* admits vacuously, whatever the state.
        let state = AbstractState::Set(Default::default()).to_value();
        assert!(check_at(&g, &logged, "remove", &[Value::elem(5)], &state).is_ok());
    }

    /// A placeholder value of the given sort, for building well-formed log
    /// entries straight from the interface specification.
    fn default_value(sort: Sort) -> Value {
        match sort {
            Sort::Bool => Value::Bool(false),
            Sort::Int => Value::Int(0),
            Sort::Elem => Value::elem(1),
            Sort::Set => Value::set_of([semcommute_logic::ElemId(1)]),
            Sort::Map => {
                Value::map_of([(semcommute_logic::ElemId(1), semcommute_logic::ElemId(1))])
            }
            Sort::Seq => Value::seq_of([semcommute_logic::ElemId(1)]),
        }
    }

    /// Table-driven over **all** interfaces: for every
    /// catalog pair whose condition reads `s1`, a log entry without a
    /// pre-state must classify as a (non-retryable) evaluation error, never
    /// as a conflict. Driving this from the catalog itself means an interface
    /// or condition added later cannot silently skip the check.
    #[test]
    fn missing_required_pre_state_is_an_evaluation_error() {
        let mut exercised = 0u32;
        for interface in InterfaceId::ALL {
            let iface = semcommute_spec::interface_by_id(interface);
            let args_of = |op: &str| -> Vec<Value> {
                iface.op(op).map_or_else(Vec::new, |spec| {
                    spec.params
                        .iter()
                        .map(|(_, sort)| default_value(*sort))
                        .collect()
                })
            };
            let g = CommutativityGatekeeper::new(interface);
            for (first, second) in g.pairs() {
                if !g.prepared(&first, &second).unwrap().reads_state {
                    continue;
                }
                let logged = LogEntry {
                    txn: 1,
                    op: first.clone(),
                    args: args_of(&first),
                    result: iface
                        .op(&first)
                        .and_then(|s| s.result_sort)
                        .map(default_value),
                    pre_state: None, // the condition reads s1 — unusable.
                };
                match check(&g, &logged, &second, &args_of(&second)) {
                    Err(AdmissionError::Evaluation(msg)) => {
                        assert!(
                            msg.contains("carries no pre-state"),
                            "{interface}/{first}/{second}: {msg}"
                        );
                    }
                    other => panic!(
                        "{interface}/{first}/{second}: expected an evaluation error, \
                         got {other:?}"
                    ),
                }
                exercised += 1;
            }
        }
        assert!(
            exercised > 0,
            "no catalog between condition reads s1 — the table is empty"
        );
    }
}
