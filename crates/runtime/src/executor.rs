//! The speculative transaction executor.
//!
//! Transactions execute operations on a shared data structure optimistically:
//! before an operation runs, the commutativity gatekeeper checks (using the
//! verified *between* conditions) that it semantically commutes with every
//! operation executed by other uncommitted transactions. If it does, the
//! operation executes and is logged together with its return value and
//! (where a condition needs it) a pre-state projection; if it does not, the
//! transaction observes a conflict and aborts, rolling back its own logged
//! operations with the verified *inverse* operations. Because all interleaved
//! operations of concurrent transactions pairwise commute at the abstract
//! level, the committed execution is equivalent to some serial execution of
//! the committed transactions — the correctness argument the paper's client
//! systems rely on.
//!
//! # Concurrency protocol
//!
//! The structure and the in-flight log are one value behind one mutex: the
//! tracked structure, plus one slot per live transaction holding the
//! operations it has executed and not yet committed or undone.
//! [`Transaction::execute`] is single-phase. Under the mutex it checks the
//! incoming operation against every logged operation of every *other* live
//! transaction — a set or map condition that reads the state at the live
//! state projected onto its keys, while the state is unchanged since the
//! logged operation ran; a sequence condition that reads it at the entry's
//! captured pre-state, at the live state, and at the live state with the
//! entry's transaction rolled back; either only while no third live
//! transaction has changed the state (see `Shared::admit_against_slot`) —
//! then applies the operation, records its pre-state projection where a
//! sequence condition needs one, and appends the entry to its own slot.
//! Admission, apply and logging are one critical section, so every
//! admission sees one consistent instant, and no operation takes effect
//! without being visible to every later admission.
//!
//! Commit draws its ticket, then removes its slot under the mutex. Abort
//! takes its slot and applies the verified inverses newest-first in one
//! critical section, so no admission can run against a state that still
//! contains an effect whose log entry has already disappeared. A
//! transaction that executed nothing commits and aborts without the lock.
//!
//! Lock order: mode gate before structure mutex, never the reverse. A
//! contended acquisition of the structure mutex spins briefly before it
//! blocks (see `Shared::lock`).
//!
//! # Contention management
//!
//! Speculation is a bet, and under hot-key contention it loses: the
//! abort/rollback machinery costs more than the coarse lock it replaced.
//! When the fallback is enabled (the default; `SEMCOMMUTE_FALLBACK=off`
//! restores the unconditional engine), every transaction finish feeds a
//! sliding-window abort account ([`ContentionState`]) and the runtime
//! degrades the structure to a coarse mutex section when a window's abort
//! rate crosses the threshold. A transaction picks its path once, at its
//! first operation: speculative transactions hold the [`ModeGate`] shared
//! for their lifetime, degraded transactions hold it exclusive — the gate's
//! drain barrier guarantees the two kinds never overlap, and because both
//! draw their commit ticket *before* releasing the gate, ticket order
//! remains a valid serialization order across mode transitions (the full
//! argument lives in `docs/ARCHITECTURE.md`). Probing periodically
//! re-enables speculation when contention subsides. The
//! [`retry loop`](SpeculativeRuntime::run) backs off exponentially with
//! deterministic per-transaction jitter instead of spinning, and a
//! [`FaultPlan`] can drive every recovery path deterministically.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use parking_lot::{Mutex, MutexGuard};
use semcommute_logic::Value;
use semcommute_spec::AbstractState;

use crate::contention::{BackoffOptions, ContentionState, FallbackOptions, Mode, ModeGate};
use crate::fault::FaultPlan;
use crate::gatekeeper::{no_condition, AdmissionError, CommutativityGatekeeper, Conflict};
use crate::log::LogEntry;
use crate::rollback::InverseRollback;
use crate::structure::{apply_to_state, AnyStructure, DispatchError, TrackedStructure};

/// An error observed by a transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxnError {
    /// The operation does not commute with an uncommitted operation of
    /// another transaction; the transaction should abort (and typically
    /// retry).
    Conflict(Conflict),
    /// A commutativity condition could not be evaluated (unknown operation
    /// pair, or a condition referencing information the log entry does not
    /// carry). This is a configuration error, not a speculative outcome:
    /// [`SpeculativeRuntime::run`] does **not** retry it.
    Condition(String),
    /// The operation itself was rejected (unknown name, bad argument).
    Dispatch(String),
    /// The transaction has already been committed or aborted.
    Finished,
    /// The retry budget of [`SpeculativeRuntime::run`] was exhausted. The
    /// [`RetryReport`] diagnoses the thrash: attempts made, the structure,
    /// the last conflicting operation pair, and the time spent in backoff.
    RetriesExhausted(RetryReport),
    /// The runtime is poisoned: a verified inverse failed to apply during a
    /// rollback, so the structure may hold effects of an aborted transaction.
    /// The payload diagnoses the failed inverse. Like the PR 7 coarse-lock
    /// poisoning this is sticky — every subsequent operation is refused —
    /// but it surfaces as an error instead of a panic, so the caller decides
    /// how to wind down. [`SpeculativeRuntime::run`] does **not** retry it.
    Poisoned(String),
}

impl fmt::Display for TxnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TxnError::Conflict(c) => write!(f, "conflict: {c}"),
            TxnError::Condition(e) => write!(f, "condition evaluation failed: {e}"),
            TxnError::Dispatch(e) => write!(f, "operation rejected: {e}"),
            TxnError::Finished => write!(f, "transaction already finished"),
            TxnError::RetriesExhausted(report) => {
                write!(f, "retry budget exhausted: {report}")
            }
            TxnError::Poisoned(e) => write!(f, "runtime poisoned: {e}"),
        }
    }
}

impl std::error::Error for TxnError {}

/// Diagnosis of an exhausted retry budget (see
/// [`TxnError::RetriesExhausted`]): enough to tell a genuinely hot key from
/// a stuck peer transaction without re-running under a profiler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryReport {
    /// Transactions begun by the [`SpeculativeRuntime::run`] call
    /// (`max_retries + 1`).
    pub attempts: u64,
    /// The structure the transactions ran against.
    pub structure: &'static str,
    /// The conflict the final attempt aborted on. `None` only if the body
    /// returned a synthesized conflict carrying no information, which the
    /// runtime itself never does.
    pub last_conflict: Option<Conflict>,
    /// Total time the attempts spent asleep in exponential backoff (yields
    /// are not counted).
    pub backoff: Duration,
}

impl fmt::Display for RetryReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} attempts on `{}` with {:?} spent in backoff",
            self.attempts, self.structure, self.backoff
        )?;
        match &self.last_conflict {
            Some(conflict) => {
                let (incoming, logged) = conflict.op_pair();
                write!(
                    f,
                    "; last conflict `{incoming}` vs `{logged}` of transaction {}",
                    conflict.with_txn
                )
            }
            None => write!(f, "; no conflict recorded"),
        }
    }
}

impl From<DispatchError> for TxnError {
    fn from(e: DispatchError) -> Self {
        TxnError::Dispatch(e.to_string())
    }
}

/// Execution statistics of a [`SpeculativeRuntime`].
///
/// The counters satisfy `commits + aborts == begun` once every transaction
/// has finished (committed, aborted, or been dropped).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuntimeStats {
    /// Transactions begun ([`SpeculativeRuntime::begin`], including the
    /// attempts made by [`SpeculativeRuntime::run`]).
    pub begun: u64,
    /// Committed transactions.
    pub commits: u64,
    /// Aborted transactions. Every non-committed finish counts: explicit
    /// [`Transaction::abort`], the rollback performed when a `Transaction` is
    /// dropped uncommitted, and each retry of [`SpeculativeRuntime::run`] —
    /// **including** transactions that executed zero operations (such aborts
    /// are lock-free but still counted, so the `commits + aborts == begun`
    /// identity holds).
    pub aborts: u64,
    /// Conflicts detected by the gatekeeper.
    pub conflicts: u64,
    /// Operations executed (including those later rolled back).
    pub operations: u64,
    /// Rollbacks that failed because a verified inverse did not apply. Each
    /// failure poisons the runtime (see [`TxnError::Poisoned`]); a non-zero
    /// count means the structure may hold effects of aborted transactions.
    pub rollback_failures: u64,
    /// Commits that ran through the degraded coarse-lock section instead of
    /// speculating (a subset of `commits`).
    pub degraded_commits: u64,
    /// Execution-mode transitions applied by the contention state machine
    /// (`Speculative → Degraded → Probing → …`); zero while the fallback is
    /// disabled or contention never crosses the threshold.
    pub mode_switches: u64,
}

/// Construction-time knobs of a [`SpeculativeRuntime`]
/// (see [`SpeculativeRuntime::with_options`]).
///
/// [`Default`] resolves the fallback from its environment variable
/// (`SEMCOMMUTE_FALLBACK`), read once per process, turns backoff on, and
/// attaches no fault plan.
#[derive(Debug, Clone)]
pub struct RuntimeOptions {
    /// The abort-rate-driven coarse-lock fallback (see [`FallbackOptions`]).
    pub fallback: FallbackOptions,
    /// Backoff between conflicted retry attempts (see [`BackoffOptions`]).
    pub backoff: BackoffOptions,
    /// An optional deterministic fault schedule (see [`FaultPlan`]); `None`
    /// costs one branch per operation.
    pub faults: Option<Arc<FaultPlan>>,
}

impl Default for RuntimeOptions {
    fn default() -> RuntimeOptions {
        RuntimeOptions {
            fallback: FallbackOptions::default_options(),
            backoff: BackoffOptions::on(),
            faults: None,
        }
    }
}

/// How long a contended acquisition of the structure mutex spins before it
/// blocks (see `Shared::lock`).
const LOCK_SPIN: Duration = Duration::from_micros(50);

/// The host's available parallelism, read once per process.
fn cores() -> u64 {
    static CORES: OnceLock<u64> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get() as u64))
}

/// One operation in a live transaction's slot of the in-flight log.
struct LoggedOp {
    /// The operation's dense index in the gatekeeper's operation universe,
    /// resolved once when it executed, so admission against it never hashes
    /// the operation name (see [`CommutativityGatekeeper::op_index`]). Only
    /// applied operations are logged, and every operation the structure
    /// applies has an index.
    op_idx: u16,
    /// The structure's [`version`](TrackedStructure::version) just before
    /// the operation ran, and whether the operation changed the state.
    version: u64,
    changed: bool,
    entry: LogEntry,
}

/// Everything the structure mutex guards. The structure and the in-flight
/// log change together, so one lock acquisition sees them consistent.
struct Guarded {
    tracked: TrackedStructure,
    /// Per live transaction that has executed an operation: its log, oldest
    /// first. Commit removes the slot; abort removes it and undoes it.
    inflight: HashMap<u64, Vec<LoggedOp>>,
}

struct Shared {
    guarded: Mutex<Guarded>,
    /// The concrete structure's name, captured before the structure moves
    /// behind its mutex — retry reports shouldn't need a lock acquisition.
    structure_name: &'static str,
    options: RuntimeOptions,
    /// The per-structure abort account and mode state machine.
    contention: ContentionState,
    /// The speculative/degraded drain barrier (see [`ModeGate`]).
    gate: ModeGate,
    /// Global operation ordinal, drawn per `execute` only while a fault plan
    /// is attached — the coordinate system faults are scheduled in.
    op_ordinal: AtomicU64,
    gatekeeper: CommutativityGatekeeper,
    rollback: InverseRollback,
    next_txn: AtomicU64,
    /// Monotone commit tickets, the serialization order certified by the
    /// between conditions (see [`Transaction::commit`]).
    commit_seq: AtomicU64,
    begun: AtomicU64,
    commits: AtomicU64,
    aborts: AtomicU64,
    conflicts: AtomicU64,
    operations: AtomicU64,
    rollback_failures: AtomicU64,
    degraded_commits: AtomicU64,
    /// Set (once) when a rollback fails to apply a verified inverse: the
    /// structure may hold effects of an aborted transaction, so every
    /// subsequent `execute` is refused with [`TxnError::Poisoned`]. Sticky
    /// by design, mirroring the PR 7 coarse-lock poisoning — but surfaced
    /// as an error, never a panic, because the failure is detected while
    /// holding the structure lock.
    poison: OnceLock<String>,
}

impl Shared {
    /// Acquires the structure mutex, spinning for up to [`LOCK_SPIN`]
    /// before blocking.
    ///
    /// Admission, apply and logging all run under this mutex, so busy
    /// workers hand it to each other every operation, a few hundred
    /// nanoseconds apart. A waiter that blocks is woken by the kernel,
    /// which on a virtual machine takes around 10 µs, many critical
    /// sections, and the delay varies with the host's load; spinning covers
    /// a handoff instead. A waiter still spinning after the bound has
    /// probably lost the holder to the scheduler, and blocks. Much shorter
    /// spins measure worse than none (see `docs/PERF.md`). While more
    /// transactions are live than the host has cores, waiters block at
    /// once: the holder may then be waiting for a CPU that a spinner holds.
    fn lock(&self) -> MutexGuard<'_, Guarded> {
        if let Some(guarded) = self.guarded.try_lock() {
            return guarded;
        }
        if self.live_transactions() <= cores() {
            if let Some(guarded) = self.spin() {
                return guarded;
            }
        }
        self.guarded.lock()
    }

    /// Transactions begun and not yet finished. The three counters are
    /// read apart, so the figure is approximate.
    fn live_transactions(&self) -> u64 {
        let finished = self.commits.load(Ordering::Relaxed) + self.aborts.load(Ordering::Relaxed);
        self.begun.load(Ordering::Relaxed).saturating_sub(finished)
    }

    /// Polls `guarded` for up to [`LOCK_SPIN`].
    fn spin(&self) -> Option<MutexGuard<'_, Guarded>> {
        let started = Instant::now();
        while started.elapsed() < LOCK_SPIN {
            for _ in 0..16 {
                std::hint::spin_loop();
                if let Some(guarded) = self.guarded.try_lock() {
                    return Some(guarded);
                }
            }
        }
        None
    }

    /// Admits the incoming operation against the slot of one other live
    /// transaction, newest entry first. Runs under the structure mutex;
    /// `tracked` holds the live abstract state. Each entry's pair condition
    /// is looked up once, and the live state is touched only when that
    /// condition reads it.
    ///
    /// A state-free condition — every set and map pair but the `size`-first
    /// ones, in their runtime forms — is checked once: its verdict cannot
    /// depend on an anchor. A set or map condition that reads the state
    /// reads it only at keys (`v2 ∈ s1`), and is checked at the live state
    /// projected onto those keys, answered by the concrete structure. It is
    /// certified only while the structure's version is the one the logged
    /// operation ran at and that operation changed nothing, so the captured
    /// pre-state, the live state and the undo anchor below are one state;
    /// otherwise the incoming operation conflicts.
    ///
    /// A sequence condition that reads the state is checked at up to three
    /// anchors, over `tracked`'s mirror. The
    /// logged entry's **captured pre-state** certifies swapping the pair at
    /// the state the logged operation ran in. The **live state** keeps the
    /// certificates of long-lived observers composing: a logged `get(3)` over
    /// `[1, 1, 1, 1, 1, 1, 10]` admits any one `removeAt` below it (one left
    /// shift keeps index 3 reading a `1`), but three such removals — each
    /// certified against the same stale capture — compose to a shift of
    /// three and move the `10` into the observed slot. The **undo anchor**
    /// is the state the pair is adjacent at when the logged transaction is
    /// serialized last, which is what its abort and every later commit order
    /// assume: the live state with the slot's operations, from the newest
    /// down to the entry itself, rolled back by their verified inverses.
    /// Operations of transactions that finished in between stay applied.
    /// A logged `addAt(0, 2)` over `[1]`, separated by two committed
    /// `addAt(0, 2)`s from an incoming `removeAt(2)`, is adjacent to it at
    /// `[2, 2, 1]` — neither `[1]` nor the live `[2, 2, 2, 1]` — and only
    /// there does the pair fail to commute.
    ///
    /// Each anchor still contains the effects of any *third* live
    /// transaction, and its abort removes them from all three: over
    /// `[1, 1]`, a `get(0)` logged after another transaction's `addAt(0, 1)`
    /// commutes with an incoming `removeAt(0)` at every anchor, but not at
    /// `[1]`, where the pair is adjacent once that `addAt` is undone. So a
    /// state-reading pair, over any structure, is certified only while no
    /// live transaction other than the logged one and the incoming one has
    /// changed the state (`bystanders`); otherwise the incoming operation
    /// conflicts (see "No third party" in `docs/ARCHITECTURE.md`). With two
    /// workers there is never a third live transaction.
    ///
    /// The undo anchor is built lazily, on a persistent copy of the live
    /// state, and checked only where it can differ from the anchors already
    /// checked: it equals the live state until an entry at or after
    /// the checked one changed the state, and it equals the captured
    /// pre-state while every state change since that pre-state was the
    /// slot's own (the structure's version counts changes).
    fn admit_against_slot(
        &self,
        slot: &[LoggedOp],
        op: &str,
        op_idx: u16,
        args: &[Value],
        tracked: &TrackedStructure,
        bystanders: bool,
    ) -> Result<(), TxnError> {
        // `live` with `slot[rolled_back..]` undone, newest first; `None`
        // while nothing undone so far changed the state.
        let mut anchor: Option<Value> = None;
        let mut rolled_back = slot.len();
        // State changes made by `slot[i..]`.
        let mut own_changes = 0;
        for (i, logged) in slot.iter().enumerate().rev() {
            own_changes += u64::from(logged.changed);
            let entry = &logged.entry;
            let pair = self
                .gatekeeper
                .pair_indexed(logged.op_idx, op_idx)
                .ok_or_else(|| no_condition(entry, op));
            let pair = self.verdict(pair)?;
            if !pair.reads_state() {
                self.verdict(pair.check(entry, op, args, None))?;
                continue;
            }
            if let Some(keys) = pair.state_keys(entry, args) {
                let projected = tracked
                    .inner()
                    .project(keys)
                    .expect("keyed conditions belong to sets and maps");
                self.verdict(pair.check(entry, op, args, Some(&projected)))?;
                if bystanders || logged.changed || tracked.version() != logged.version {
                    return Err(self.conflict(entry, op));
                }
                continue;
            }
            let live = tracked.state_value();
            self.verdict(
                pair.check(entry, op, args, None)
                    .and_then(|()| pair.check(entry, op, args, Some(live))),
            )?;
            if bystanders {
                return Err(self.conflict(entry, op));
            }
            if own_changes == 0 || tracked.version() - logged.version == own_changes {
                continue;
            }
            for newer in slot[i..rolled_back].iter().rev() {
                let Some((inverse, inverse_args)) = self.rollback.inverse_call(&newer.entry) else {
                    continue;
                };
                let state = anchor.get_or_insert_with(|| live.clone());
                if !apply_to_state(state, &inverse, &inverse_args) {
                    // The inverse does not even apply: no serialization puts
                    // the logged transaction last, so the pair cannot be
                    // certified.
                    return Err(self.conflict(entry, op));
                }
            }
            rolled_back = i;
            if let Some(state) = &anchor {
                self.verdict(pair.check(entry, op, args, Some(state)))?;
            }
        }
        Ok(())
    }

    /// A conflict with `entry` that no condition evaluation reported.
    fn conflict(&self, entry: &LogEntry, op: &str) -> TxnError {
        self.conflicts.fetch_add(1, Ordering::Relaxed);
        TxnError::Conflict(Conflict {
            with_txn: entry.txn,
            logged_op: entry.op.clone(),
            incoming_op: op.to_string(),
        })
    }

    /// Translates an admission verdict to a transaction error, counting
    /// conflicts.
    fn verdict<T>(&self, verdict: Result<T, AdmissionError>) -> Result<T, TxnError> {
        verdict.map_err(|e| match e {
            AdmissionError::Conflict(c) => {
                self.conflicts.fetch_add(1, Ordering::Relaxed);
                TxnError::Conflict(c)
            }
            AdmissionError::Evaluation(e) => TxnError::Condition(e),
        })
    }
}

/// A shared data structure with optimistic, commutativity-aware transactions.
#[derive(Clone)]
pub struct SpeculativeRuntime {
    shared: Arc<Shared>,
}

impl SpeculativeRuntime {
    /// Wraps a concrete data structure for speculative access, with every
    /// knob at its default ([`RuntimeOptions::default`]).
    pub fn new(structure: AnyStructure) -> SpeculativeRuntime {
        SpeculativeRuntime::with_options(structure, RuntimeOptions::default())
    }

    /// Wraps a concrete data structure for speculative access with explicit
    /// [`RuntimeOptions`].
    pub fn with_options(structure: AnyStructure, options: RuntimeOptions) -> SpeculativeRuntime {
        let interface = structure.interface();
        let structure_name = structure.name();
        SpeculativeRuntime {
            shared: Arc::new(Shared {
                guarded: Mutex::new(Guarded {
                    tracked: TrackedStructure::new(structure),
                    inflight: HashMap::new(),
                }),
                structure_name,
                contention: ContentionState::new(options.fallback),
                gate: ModeGate::new(),
                op_ordinal: AtomicU64::new(0),
                gatekeeper: CommutativityGatekeeper::new(interface),
                rollback: InverseRollback::new(interface),
                options,
                next_txn: AtomicU64::new(1),
                commit_seq: AtomicU64::new(0),
                begun: AtomicU64::new(0),
                commits: AtomicU64::new(0),
                aborts: AtomicU64::new(0),
                conflicts: AtomicU64::new(0),
                operations: AtomicU64::new(0),
                rollback_failures: AtomicU64::new(0),
                degraded_commits: AtomicU64::new(0),
                poison: OnceLock::new(),
            }),
        }
    }

    /// Begins a new transaction.
    pub fn begin(&self) -> Transaction {
        self.shared.begun.fetch_add(1, Ordering::Relaxed);
        Transaction {
            runtime: self.clone(),
            id: self.shared.next_txn.fetch_add(1, Ordering::Relaxed),
            logged: 0,
            mode: TxnMode::Pending,
            finished: false,
        }
    }

    /// Runs a transaction body, retrying on conflicts up to `max_retries`
    /// times. Conflicted attempts back off per the runtime's
    /// [`BackoffOptions`]: the first few retries only yield, then sleeps
    /// grow exponentially (bounded, jittered deterministically per
    /// transaction) so a pile-up on a hot key spreads out instead of
    /// re-colliding in lockstep.
    ///
    /// # Errors
    ///
    /// Returns [`TxnError::RetriesExhausted`] — carrying a [`RetryReport`] —
    /// if the body keeps conflicting, or the body's own error if it fails
    /// for a non-conflict reason (non-conflict errors — including
    /// [`TxnError::Condition`] — are never retried).
    pub fn run<T>(
        &self,
        max_retries: usize,
        mut body: impl FnMut(&mut Transaction) -> Result<T, TxnError>,
    ) -> Result<T, TxnError> {
        let backoff = self.shared.options.backoff;
        let mut attempts = 0u64;
        let mut slept = Duration::ZERO;
        let mut last_conflict = None;
        for attempt in 0..=max_retries {
            let mut txn = self.begin();
            let txn_id = txn.id;
            attempts += 1;
            match body(&mut txn) {
                Ok(value) => {
                    txn.commit();
                    return Ok(value);
                }
                Err(TxnError::Conflict(conflict)) => {
                    txn.abort();
                    last_conflict = Some(conflict);
                    slept += backoff.wait(txn_id, attempt.min(u32::MAX as usize) as u32);
                }
                Err(other) => {
                    txn.abort();
                    return Err(other);
                }
            }
        }
        Err(TxnError::RetriesExhausted(RetryReport {
            attempts,
            structure: self.shared.structure_name,
            last_conflict,
            backoff: slept,
        }))
    }

    /// The current abstract state of the shared structure.
    pub fn snapshot(&self) -> AbstractState {
        self.shared.guarded.lock().tracked.inner().abstract_state()
    }

    /// Checks the representation invariant of the shared structure.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.shared
            .guarded
            .lock()
            .tracked
            .inner()
            .check_invariants()
    }

    /// Execution statistics so far.
    pub fn stats(&self) -> RuntimeStats {
        let shared = &self.shared;
        RuntimeStats {
            begun: shared.begun.load(Ordering::Relaxed),
            commits: shared.commits.load(Ordering::Relaxed),
            aborts: shared.aborts.load(Ordering::Relaxed),
            conflicts: shared.conflicts.load(Ordering::Relaxed),
            operations: shared.operations.load(Ordering::Relaxed),
            rollback_failures: shared.rollback_failures.load(Ordering::Relaxed),
            degraded_commits: shared.degraded_commits.load(Ordering::Relaxed),
            mode_switches: shared.contention.mode_switches(),
        }
    }

    /// The structure's current execution mode. Always [`Mode::Speculative`]
    /// while the fallback is disabled. Advisory: by the time the caller
    /// looks at the value a transition may already have landed.
    pub fn mode(&self) -> Mode {
        self.shared.contention.mode()
    }

    /// The options this runtime was constructed with.
    pub fn options(&self) -> &RuntimeOptions {
        &self.shared.options
    }

    /// The poison diagnostic, if a rollback has failed to apply a verified
    /// inverse (see [`TxnError::Poisoned`]). `None` on a healthy runtime.
    pub fn poisoned(&self) -> Option<&str> {
        self.shared.poison.get().map(String::as_str)
    }

    /// Test hook: applies an operation to the structure directly, bypassing
    /// admission, logging, and rollback. Fault injection for the rollback
    /// regression tests — mutating the structure behind a live transaction's
    /// back is exactly the corruption that makes its verified inverses stop
    /// applying.
    #[doc(hidden)]
    pub fn apply_unlogged(&self, op: &str, args: &[Value]) -> Result<Option<Value>, TxnError> {
        Ok(self.shared.guarded.lock().tracked.apply(op, args)?)
    }

    /// The number of operations currently logged by uncommitted
    /// transactions.
    pub fn pending_operations(&self) -> usize {
        let guarded = self.shared.guarded.lock();
        guarded.inflight.values().map(Vec::len).sum()
    }
}

/// Which path a transaction is executing on. Chosen once, at the first
/// operation (sticky): re-deciding per operation would let one transaction
/// straddle a mode transition and see a half-speculative, half-degraded
/// world.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TxnMode {
    /// No operation executed yet; no gate side held.
    Pending,
    /// Optimistic execution; holds the [`ModeGate`] shared until finish
    /// (only if the fallback is enabled — disabled, the gate is never
    /// touched).
    Speculative,
    /// Coarse-lock execution; holds the [`ModeGate`] exclusive until finish.
    Degraded,
}

/// An optimistic transaction on a [`SpeculativeRuntime`].
pub struct Transaction {
    runtime: SpeculativeRuntime,
    id: u64,
    /// How many operations this transaction has logged in its in-flight
    /// slot. The slot itself lives under the structure mutex; zero means
    /// there is no slot, so commit and abort need no lock.
    logged: usize,
    mode: TxnMode,
    finished: bool,
}

impl Transaction {
    /// The transaction identifier.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The number of operations this transaction has executed.
    pub fn operations(&self) -> usize {
        self.logged
    }

    /// Executes one operation inside the transaction.
    ///
    /// # Errors
    ///
    /// Returns [`TxnError::Conflict`] if the operation does not commute with
    /// an operation of another uncommitted transaction (the caller should
    /// abort), [`TxnError::Condition`] if a commutativity condition could not
    /// be evaluated (not retryable), or [`TxnError::Dispatch`] if the
    /// operation itself is invalid.
    pub fn execute(&mut self, op: &str, args: &[Value]) -> Result<Option<Value>, TxnError> {
        if self.finished {
            return Err(TxnError::Finished);
        }
        if let Some(reason) = self.runtime.shared.poison.get() {
            return Err(TxnError::Poisoned(reason.clone()));
        }
        // The fault coordinate system: a global operation ordinal, drawn
        // only while a plan is attached (a plain runtime pays one branch).
        let ordinal = match &self.runtime.shared.options.faults {
            Some(faults) => {
                let ordinal = self
                    .runtime
                    .shared
                    .op_ordinal
                    .fetch_add(1, Ordering::Relaxed)
                    + 1;
                faults.fire_panic(self.id, ordinal);
                ordinal
            }
            None => 0,
        };
        if self.mode == TxnMode::Pending {
            self.enter();
        }
        if self.mode == TxnMode::Speculative && ordinal != 0 {
            if let Some(faults) = &self.runtime.shared.options.faults {
                if faults.fire_forced_conflict(self.id, ordinal) {
                    self.runtime
                        .shared
                        .conflicts
                        .fetch_add(1, Ordering::Relaxed);
                    return Err(TxnError::Conflict(Conflict {
                        with_txn: 0,
                        logged_op: "<fault-injection>".to_string(),
                        incoming_op: op.to_string(),
                    }));
                }
            }
        }
        self.execute_locked(op, args)
    }

    /// Picks this transaction's execution path — called exactly once, at the
    /// first operation. The mode flag is advisory; what makes the choice
    /// safe is the gate side acquired *with* it, re-checked after entry:
    /// a transaction that read a stale mode blocks on the gate until the
    /// other side finishes, re-reads the mode, and re-routes. In particular
    /// a speculative entry that raced a degradation cannot execute against
    /// the structure while any degraded transaction runs.
    fn enter(&mut self) {
        let shared = &self.runtime.shared;
        if !shared.options.fallback.enabled {
            // Fallback off: today's engine, gate never touched.
            self.mode = TxnMode::Speculative;
            return;
        }
        loop {
            if shared.contention.mode() == Mode::Degraded {
                shared.gate.enter_exclusive();
                if shared.contention.mode() == Mode::Degraded {
                    self.mode = TxnMode::Degraded;
                    return;
                }
                // The structure left Degraded while we queued: speculate.
                shared.gate.exit_exclusive();
            } else {
                shared.gate.enter_shared();
                if shared.contention.mode() != Mode::Degraded {
                    self.mode = TxnMode::Speculative;
                    return;
                }
                // Degraded landed while we entered: take the coarse path.
                shared.gate.exit_shared();
            }
        }
    }

    /// Finish bookkeeping for both commit and abort: feed the contention
    /// account, then release the gate side held since the first operation.
    /// The caller has already drawn its commit ticket (commit) or finished
    /// its rollback (abort) — releasing the gate is the last thing a
    /// transaction does, which is what orders cross-mode ticket draws.
    fn leave(&mut self, aborted: bool) {
        let shared = &self.runtime.shared;
        match self.mode {
            TxnMode::Pending => {}
            TxnMode::Speculative => {
                if shared.options.fallback.enabled {
                    shared.contention.record_speculative_finish(aborted);
                    shared.gate.exit_shared();
                }
            }
            TxnMode::Degraded => {
                shared.contention.record_degraded_finish();
                shared.gate.exit_exclusive();
            }
        }
        self.mode = TxnMode::Pending;
    }

    /// Admission, apply and logging, in one structure critical section.
    ///
    /// A speculative transaction is admitted against every logged operation
    /// of every other live transaction (see `Shared::admit_against_slot`) and
    /// records a pre-state projection where a sequence condition needs one.
    /// A degraded transaction holds the gate exclusively, so no other
    /// transaction is live: there is nothing to admit against and no
    /// pre-state to project. Both log into their slot, which is what abort
    /// undoes.
    fn execute_locked(&mut self, op: &str, args: &[Value]) -> Result<Option<Value>, TxnError> {
        let shared = &self.runtime.shared;
        // One string resolution for the incoming operation; every per-entry
        // check goes through dense indices.
        let op_idx = shared.gatekeeper.op_index(op);
        // The log entry's owned copies are made before the critical section,
        // which is what concurrent transactions queue for.
        let (op_name, op_args) = (op.to_string(), args.to_vec());
        let mut guarded = shared.lock();
        let Guarded { tracked, inflight } = &mut *guarded;
        let Some(op_idx) = op_idx else {
            // Not an operation of the interface: no condition covers it
            // against another live transaction's entry, and the structure
            // cannot apply it.
            let logged = inflight
                .iter()
                .filter(|(&owner, _)| owner != self.id)
                .find_map(|(_, slot)| slot.last());
            return Err(match logged {
                Some(logged) => {
                    TxnError::Condition(format!("no condition for pair {}/{op}", logged.entry.op))
                }
                None => DispatchError::UnknownOperation(op.to_string()).into(),
            });
        };
        let pre_state = if self.mode == TxnMode::Speculative {
            // The no-third-party rule (see `Shared::admit_against_slot`).
            let changed = |slot: &[LoggedOp]| slot.iter().any(|logged| logged.changed);
            let others = || inflight.iter().filter(|(&owner, _)| owner != self.id);
            let changers = others().filter(|(_, slot)| changed(slot)).count();
            for (_, slot) in others() {
                let bystanders = changers > usize::from(changed(slot));
                shared.admit_against_slot(slot, op, op_idx, args, tracked, bystanders)?;
            }
            shared
                .gatekeeper
                .requires_pre_state_indexed(op_idx)
                .then(|| tracked.state_value().clone())
        } else {
            debug_assert!(inflight.keys().all(|&owner| owner == self.id));
            None
        };
        let version = tracked.version();
        let result = tracked.apply(op, args)?;
        inflight.entry(self.id).or_default().push(LoggedOp {
            op_idx,
            version,
            changed: tracked.version() != version,
            entry: LogEntry {
                txn: self.id,
                op: op_name,
                args: op_args,
                result: result.clone(),
                pre_state,
            },
        });
        drop(guarded);
        self.logged += 1;
        shared.operations.fetch_add(1, Ordering::Relaxed);
        Ok(result)
    }

    /// Commits the transaction: its operations become permanent and stop
    /// constraining other transactions.
    ///
    /// Returns the transaction's **commit ticket** — its position in the
    /// serialization order. The between conditions guarantee that replaying
    /// the committed transactions serially in ticket order reproduces every
    /// recorded return value and the final abstract state (the differential
    /// harness checks exactly this). Commit takes the structure mutex once,
    /// to remove its slot, and no lock at all if it executed nothing.
    pub fn commit(mut self) -> u64 {
        self.finished = true;
        let shared = &self.runtime.shared;
        // The ticket must be drawn *before* the slot disappears: a
        // transaction that executes a non-commuting operation can only be
        // admitted after this removal, so its own (later) fetch_add is
        // guaranteed a larger ticket — the mutex release/acquire orders the
        // two RMWs. Removing first would let that transaction draw a smaller
        // ticket and break the replay order. It is also drawn before `leave`
        // releases the gate, which is what serializes tickets across mode
        // transitions: a transaction on the other gate side begins strictly
        // after this release, so its ticket is strictly later.
        let ticket = shared.commit_seq.fetch_add(1, Ordering::Relaxed) + 1;
        if self.logged > 0 {
            // The guard is a temporary: the slot is freed after the unlock.
            let _slot = shared.lock().inflight.remove(&self.id);
            self.logged = 0;
        }
        if self.mode == TxnMode::Degraded {
            shared.degraded_commits.fetch_add(1, Ordering::Relaxed);
        }
        shared.commits.fetch_add(1, Ordering::Relaxed);
        self.leave(false);
        ticket
    }

    /// Aborts the transaction: its operations are rolled back with the
    /// verified inverse operations, newest first. A transaction that executed
    /// no operations aborts without taking any lock.
    pub fn abort(mut self) {
        self.finished = true;
        self.rollback();
    }

    fn rollback(&mut self) {
        let shared = &self.runtime.shared;
        shared.aborts.fetch_add(1, Ordering::Relaxed);
        if self.logged == 0 {
            // No slot and no effect on the structure: the abort is a counter
            // bump (plus the gate release if an admission-refused first
            // operation already picked a path).
            self.leave(true);
            return;
        }
        self.logged = 0;
        // Slot removal and inverse application happen under one structure
        // lock acquisition: otherwise a concurrent admission could evaluate
        // against a state that still contains an effect whose log entry has
        // already vanished.
        let mut guarded = shared.lock();
        let Guarded { tracked, inflight } = &mut *guarded;
        let slot = inflight.remove(&self.id).unwrap_or_default();
        let injected = shared
            .options
            .faults
            .as_ref()
            .is_some_and(|faults| faults.fire_rollback_failure(self.id));
        if injected {
            // Fault injection: behave exactly as if the first inverse had
            // been rejected.
            let reason = format!(
                "rolling back txn {}: injected rollback failure (fault plan)",
                self.id
            );
            shared.rollback_failures.fetch_add(1, Ordering::Relaxed);
            let _ = shared.poison.set(reason);
        } else {
            for LoggedOp { entry, .. } in slot.iter().rev() {
                let Some((op, args)) = shared.rollback.inverse_call(entry) else {
                    // Nothing to undo: an observer, or an update that changed
                    // nothing (e.g. `add` returned false).
                    continue;
                };
                if let Err(e) = tracked.apply(&op, &args) {
                    // A verified inverse failed to apply: the structure no
                    // longer matches the log (something mutated it outside
                    // the protocol, or an invariant broke). Panicking here
                    // — while holding the structure lock — used to take the
                    // whole process down; instead, poison the runtime so
                    // every subsequent operation is refused with a
                    // diagnosable [`TxnError::Poisoned`], and stop undoing:
                    // applying more inverses to a state we no longer
                    // understand could only compound the damage.
                    let reason = format!(
                        "rolling back txn {}: verified inverse `{op}` of `{}` was rejected: {e}",
                        self.id, entry.op
                    );
                    shared.rollback_failures.fetch_add(1, Ordering::Relaxed);
                    let _ = shared.poison.set(reason);
                    break;
                }
            }
        }
        // The slot is freed after the unlock.
        drop(guarded);
        self.leave(true);
    }
}

impl Drop for Transaction {
    fn drop(&mut self) {
        if !self.finished {
            self.finished = true;
            self.rollback();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semcommute_logic::ElemId;

    fn set_runtime() -> SpeculativeRuntime {
        SpeculativeRuntime::new(AnyStructure::by_name("HashSet").unwrap())
    }

    #[test]
    fn commuting_transactions_interleave_and_commit() {
        let rt = set_runtime();
        let mut t1 = rt.begin();
        let mut t2 = rt.begin();
        // Interleaved adds of distinct elements commute.
        t1.execute("add", &[Value::elem(1)]).unwrap();
        t2.execute("add", &[Value::elem(2)]).unwrap();
        t1.execute("add", &[Value::elem(3)]).unwrap();
        let first = t1.commit();
        let second = t2.commit();
        assert!(second > first, "commit tickets are strictly increasing");
        let state = rt.snapshot();
        assert_eq!(
            state,
            AbstractState::Set([ElemId(1), ElemId(2), ElemId(3)].into_iter().collect())
        );
        let stats = rt.stats();
        assert_eq!(stats.begun, 2);
        assert_eq!(stats.commits, 2);
        assert_eq!(stats.conflicts, 0);
        assert_eq!(rt.pending_operations(), 0);
    }

    #[test]
    fn conflicting_operation_is_detected_and_abort_rolls_back() {
        let rt = set_runtime();
        let mut t1 = rt.begin();
        let mut t2 = rt.begin();
        t1.execute("add", &[Value::elem(5)]).unwrap();
        // Removing the element t1 speculatively added does not commute.
        let err = t2.execute("remove", &[Value::elem(5)]).unwrap_err();
        assert!(matches!(err, TxnError::Conflict(_)));
        // t2 aborts (it executed nothing), t1 aborts too: its add is undone.
        t2.abort();
        t1.abort();
        assert_eq!(rt.snapshot(), AbstractState::Set(Default::default()));
        let stats = rt.stats();
        assert_eq!(stats.aborts, 2);
        assert_eq!(stats.conflicts, 1);
        assert_eq!(stats.begun, stats.commits + stats.aborts);
    }

    #[test]
    fn dropped_transaction_rolls_back_automatically() {
        let rt = set_runtime();
        {
            let mut t = rt.begin();
            t.execute("add", &[Value::elem(9)]).unwrap();
            // dropped without commit
        }
        assert_eq!(rt.snapshot(), AbstractState::Set(Default::default()));
        assert_eq!(rt.stats().aborts, 1);
    }

    #[test]
    fn run_retries_until_the_conflicting_transaction_finishes() {
        let rt = set_runtime();
        let mut t1 = rt.begin();
        t1.execute("add", &[Value::elem(1)]).unwrap();
        // A competing transaction that wants to remove element 1 conflicts
        // while t1 is live…
        let attempt = rt.run(0, |txn| {
            txn.execute("remove", &[Value::elem(1)]).map(|_| ())
        });
        assert!(matches!(attempt, Err(TxnError::RetriesExhausted(_))));
        // …but succeeds once t1 commits.
        t1.commit();
        rt.run(3, |txn| {
            txn.execute("remove", &[Value::elem(1)]).map(|_| ())
        })
        .unwrap();
        assert_eq!(rt.snapshot(), AbstractState::Set(Default::default()));
    }

    #[test]
    fn exhausted_retries_return_a_diagnosable_report() {
        let rt = SpeculativeRuntime::with_options(
            AnyStructure::by_name("HashSet").unwrap(),
            RuntimeOptions {
                // Yield-only backoff keeps the test instant and pins that
                // un-slept retries report Duration::ZERO.
                backoff: BackoffOptions::off(),
                ..RuntimeOptions::default()
            },
        );
        let mut t1 = rt.begin();
        t1.execute("add", &[Value::elem(1)]).unwrap();
        let err = rt
            .run(2, |txn| {
                txn.execute("remove", &[Value::elem(1)]).map(|_| ())
            })
            .unwrap_err();
        let TxnError::RetriesExhausted(report) = err else {
            panic!("expected RetriesExhausted, got {err:?}");
        };
        assert_eq!(report.attempts, 3, "max_retries + 1 attempts");
        assert_eq!(report.structure, "HashSet");
        assert_eq!(report.backoff, Duration::ZERO);
        let conflict = report.last_conflict.as_ref().expect("conflict recorded");
        assert_eq!(conflict.op_pair(), ("remove", "add"));
        assert_eq!(conflict.with_txn, t1.id());
        let rendered = TxnError::RetriesExhausted(report).to_string();
        assert!(rendered.contains("retry budget exhausted"), "{rendered}");
        assert!(rendered.contains("3 attempts on `HashSet`"), "{rendered}");
        assert!(rendered.contains("`remove` vs `add`"), "{rendered}");
        t1.commit();
    }

    #[test]
    fn unknown_operation_pairs_fail_fast_without_retries() {
        let rt = SpeculativeRuntime::new(AnyStructure::by_name("HashSet").unwrap());
        let mut t1 = rt.begin();
        t1.execute("add", &[Value::elem(1)]).unwrap();
        // With t1's `add` outstanding, an operation the catalog has no
        // condition for must surface as a non-retryable `Condition`
        // error — not spin the full retry budget and report
        // `RetriesExhausted`.
        let mut attempts = 0u32;
        let err = rt
            .run(1_000, |txn| {
                attempts += 1;
                txn.execute("frobnicate", &[Value::elem(1)]).map(|_| ())
            })
            .unwrap_err();
        match err {
            TxnError::Condition(msg) => {
                assert!(
                    msg.contains("no condition for pair add/frobnicate"),
                    "{msg}"
                );
            }
            other => panic!("expected a condition error, got {other:?}"),
        }
        assert_eq!(attempts, 1, "condition errors must not be retried");
        t1.commit();
        // The structure is untouched by the failed attempt.
        assert_eq!(
            rt.snapshot(),
            AbstractState::Set([ElemId(1)].into_iter().collect())
        );

        // With no other live transaction there is no pair to check: the
        // structure rejects the operation, which logs nothing.
        let mut t = rt.begin();
        match t.execute("frobnicate", &[Value::elem(2)]) {
            Err(TxnError::Dispatch(msg)) => {
                assert!(msg.contains("unknown operation"), "{msg}");
            }
            other => panic!("expected a dispatch error, got {other:?}"),
        }
        assert_eq!(rt.pending_operations(), 0);
        t.commit();
        assert_eq!(
            rt.snapshot(),
            AbstractState::Set([ElemId(1)].into_iter().collect())
        );
    }

    #[test]
    fn out_of_range_list_index_is_a_dispatch_error_in_a_transaction() {
        // End-to-end version of the structure-level pin: an out-of-range
        // index through `Transaction::execute` is a `Dispatch` error (the
        // transaction stays usable), never an `ArrayList` bounds panic.
        let rt = SpeculativeRuntime::new(AnyStructure::by_name("ArrayList").unwrap());
        let mut t = rt.begin();
        t.execute("addAt", &[Value::Int(0), Value::elem(7)])
            .unwrap();
        for (op, args) in [
            ("get", vec![Value::Int(1)]),
            ("removeAt", vec![Value::Int(1)]),
            ("set", vec![Value::Int(-1), Value::elem(8)]),
            ("addAt", vec![Value::Int(2), Value::elem(8)]),
        ] {
            let err = t.execute(op, &args).unwrap_err();
            match err {
                TxnError::Dispatch(msg) => {
                    assert!(msg.contains("out of range"), "{op}: {msg}");
                }
                other => panic!("{op}: expected a dispatch error, got {other:?}"),
            }
        }
        // The failed dispatches logged nothing, so the commit publishes only
        // the successful `addAt`.
        t.commit();
        assert_eq!(rt.snapshot(), AbstractState::List(vec![ElemId(7)]));
        assert_eq!(rt.stats().commits, 1);
    }

    #[test]
    fn empty_abort_counts_but_leaves_nothing_behind() {
        let rt = set_runtime();
        let t = rt.begin();
        assert_eq!(t.operations(), 0);
        t.abort();
        // An explicit commit of an empty transaction also just counts.
        let t = rt.begin();
        let ticket = t.commit();
        assert!(ticket > 0);
        let stats = rt.stats();
        assert_eq!(stats.begun, 2);
        assert_eq!(stats.commits, 1);
        assert_eq!(stats.aborts, 1);
        assert_eq!(stats.operations, 0);
        assert_eq!(rt.pending_operations(), 0);
    }

    #[test]
    fn empty_commit_and_abort_are_lock_free() {
        // Hold the structure lock hostage on another thread; an empty commit
        // or abort must still complete because it never touches the lock.
        let rt = set_runtime();
        let hold = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(true));
        let rt2 = rt.clone();
        let hold2 = std::sync::Arc::clone(&hold);
        let blocker = std::thread::spawn(move || {
            let _guard = rt2.shared.guarded.lock();
            while hold2.load(Ordering::Relaxed) {
                std::thread::yield_now();
            }
        });
        // Give the blocker time to take the lock.
        while rt.shared.guarded.try_lock().is_some() {
            std::thread::yield_now();
        }
        rt.begin().abort(); // would deadlock here if the empty abort locked
        rt.begin().commit(); // likewise for the empty commit
        assert_eq!(rt.stats().aborts, 1);
        assert_eq!(rt.stats().commits, 1);
        hold.store(false, Ordering::Relaxed);
        blocker.join().unwrap();
    }

    #[test]
    fn live_transactions_count_begun_and_unfinished() {
        // The count decides whether a contended lock acquisition spins.
        let rt = set_runtime();
        let t1 = rt.begin();
        let mut t2 = rt.begin();
        t2.execute("add", &[Value::elem(1)]).unwrap();
        assert_eq!(rt.shared.live_transactions(), 2);
        t1.abort();
        assert_eq!(rt.shared.live_transactions(), 1);
        t2.commit();
        assert_eq!(rt.shared.live_transactions(), 0);
    }

    #[test]
    fn parallel_disjoint_insertions_produce_the_union() {
        let rt = set_runtime();
        let threads = 4;
        let per_thread = 50u32;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let rt = rt.clone();
                scope.spawn(move || {
                    for i in 0..per_thread {
                        let element = Value::elem(t * per_thread + i + 1);
                        rt.run(16, |txn| {
                            txn.execute("add", std::slice::from_ref(&element))?;
                            txn.execute("contains", std::slice::from_ref(&element))
                        })
                        .unwrap();
                    }
                });
            }
        });
        let state = rt.snapshot();
        assert_eq!(
            state,
            AbstractState::Set((1..=threads * per_thread).map(ElemId).collect())
        );
        assert!(rt.check_invariants().is_ok());
        assert_eq!(rt.stats().commits as u32, threads * per_thread);
        let stats = rt.stats();
        assert_eq!(stats.begun, stats.commits + stats.aborts);
    }

    #[test]
    fn finished_transactions_reject_further_operations() {
        let rt = set_runtime();
        let mut t = rt.begin();
        t.execute("add", &[Value::elem(1)]).unwrap();
        let id = t.id();
        assert!(id > 0);
        t.commit();
        let mut t2 = rt.begin();
        t2.execute("add", &[Value::elem(2)]).unwrap();
        t2.abort();
        // After abort, only the committed element remains.
        assert_eq!(
            rt.snapshot(),
            AbstractState::Set([ElemId(1)].into_iter().collect())
        );
    }

    #[test]
    fn map_runtime_detects_key_conflicts() {
        let rt = SpeculativeRuntime::new(AnyStructure::by_name("HashTable").unwrap());
        let mut t1 = rt.begin();
        let mut t2 = rt.begin();
        t1.execute("put", &[Value::elem(1), Value::elem(10)])
            .unwrap();
        // Different key: fine.
        t2.execute("put", &[Value::elem(2), Value::elem(20)])
            .unwrap();
        // Same key: conflict.
        assert!(matches!(
            t2.execute("get", &[Value::elem(1)]),
            Err(TxnError::Conflict(_))
        ));
        t1.commit();
        t2.commit();
    }

    #[test]
    fn failed_inverse_poisons_the_runtime_instead_of_panicking() {
        let rt = SpeculativeRuntime::new(AnyStructure::by_name("ArrayList").unwrap());
        let mut t = rt.begin();
        t.execute("addAt", &[Value::Int(0), Value::elem(1)])
            .unwrap();
        // Fault injection: empty the list behind the transaction's back, so
        // its verified inverse (`removeAt 0`) no longer applies.
        rt.apply_unlogged("removeAt", &[Value::Int(0)]).unwrap();
        t.abort(); // must poison, not panic (it holds the structure lock)

        let stats = rt.stats();
        assert_eq!(stats.aborts, 1);
        assert_eq!(stats.rollback_failures, 1);
        assert_eq!(stats.begun, stats.commits + stats.aborts);
        let reason = rt.poisoned().expect("runtime is poisoned");
        assert!(reason.contains("removeAt"), "{reason}");
        assert!(reason.contains("addAt"), "{reason}");

        // Every subsequent operation is refused with the diagnostic…
        let mut t2 = rt.begin();
        match t2.execute("size", &[]) {
            Err(TxnError::Poisoned(msg)) => assert!(msg.contains("removeAt"), "{msg}"),
            other => panic!("expected Poisoned, got {other:?}"),
        }
        t2.abort();
        // …and `run` surfaces it without burning the retry budget.
        let mut attempts = 0u32;
        let err = rt
            .run(1_000, |txn| {
                attempts += 1;
                txn.execute("size", &[]).map(|_| ())
            })
            .unwrap_err();
        assert!(matches!(err, TxnError::Poisoned(_)));
        assert_eq!(attempts, 1, "poisoned runtimes must not be retried");
    }

    #[test]
    fn healthy_runtimes_report_no_poison() {
        let rt = set_runtime();
        rt.run(1, |txn| txn.execute("add", &[Value::elem(1)]).map(|_| ()))
            .unwrap();
        assert_eq!(rt.poisoned(), None);
        assert_eq!(rt.stats().rollback_failures, 0);
    }

    /// The entries of a transaction's slot, as `(op, pre_state)`.
    fn logged_pre_states(
        rt: &SpeculativeRuntime,
        txn: &Transaction,
    ) -> Vec<(String, Option<Value>)> {
        rt.shared.guarded.lock().inflight[&txn.id()]
            .iter()
            .map(|logged| (logged.entry.op.clone(), logged.entry.pre_state.clone()))
            .collect()
    }

    #[test]
    fn pre_state_is_projected_not_cloned_per_op() {
        // No set or map entry carries a pre-state: the runtime forms test
        // `r1`, and `size`-first pairs read the live state at their keys.
        for (name, ops) in [
            (
                "HashSet",
                vec![
                    ("add", vec![Value::elem(2)]),
                    ("remove", vec![Value::elem(1)]),
                    ("contains", vec![Value::elem(1)]),
                    ("size", vec![]),
                ],
            ),
            (
                "HashTable",
                vec![
                    ("put", vec![Value::elem(2), Value::elem(20)]),
                    ("remove", vec![Value::elem(1)]),
                    ("get", vec![Value::elem(2)]),
                    ("containsKey", vec![Value::elem(1)]),
                    ("size", vec![]),
                ],
            ),
        ] {
            let rt = SpeculativeRuntime::new(AnyStructure::by_name(name).unwrap());
            let mut t = rt.begin();
            for (op, args) in &ops {
                t.execute(op, args).unwrap();
            }
            let logged = logged_pre_states(&rt, &t);
            assert_eq!(logged.len(), ops.len(), "{name}");
            for (op, pre_state) in logged {
                assert!(pre_state.is_none(), "{name}.{op} captured a pre-state");
            }
            t.commit();
        }
        // An ArrayList entry carries one exactly where a condition with the
        // operation first reads positions of `s1`: `addAt` and `get` do,
        // `size` does not.
        let rt = SpeculativeRuntime::new(AnyStructure::by_name("ArrayList").unwrap());
        let mut setup = rt.begin();
        setup
            .execute("addAt", &[Value::Int(0), Value::elem(1)])
            .unwrap();
        setup.commit();
        let mut t = rt.begin();
        t.execute("addAt", &[Value::Int(0), Value::elem(2)])
            .unwrap();
        t.execute("get", &[Value::Int(1)]).unwrap();
        t.execute("size", &[]).unwrap();
        let logged = logged_pre_states(&rt, &t);
        let captured: Vec<bool> = logged.iter().map(|(_, pre)| pre.is_some()).collect();
        assert_eq!(captured, vec![true, true, false]);
        assert_eq!(t.operations(), 3);
        // The `get` pre-state is the abstract state just before it ran.
        let pre = logged[1].1.clone().unwrap();
        assert_eq!(
            AbstractState::from_value(&pre).unwrap(),
            AbstractState::List(vec![ElemId(2), ElemId(1)])
        );
        t.commit();
    }
}
