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
//! The runtime keeps the structure behind one mutex but keeps the *admission*
//! work — the expensive part, one condition evaluation per outstanding
//! operation — off that mutex. Uncommitted operations live in the sharded
//! [`InFlightIndex`]; a monotone publish sequence (`publish_seq`) orders them.
//! [`Transaction::execute`] runs in two phases:
//!
//! 1. **Optimistic phase (no structure lock).** Load `publish_seq` with
//!    `Acquire` as a snapshot, read every other transaction's published
//!    operations from the index (shard read locks only), and evaluate the
//!    between conditions lock-free.
//! 2. **Validated apply (structure lock).** Take the structure lock, give
//!    the operations published *after* the snapshot their first full check,
//!    and **re-anchor** every state-reading condition at the live state —
//!    pre-state-anchored certificates alone do not compose across the
//!    operations admitted since an entry was logged (see
//!    `Shared::check_against_locked`). Then apply the operation, publish
//!    its log entry to the index, and bump `publish_seq` with a `Release`
//!    store — in that order, so any operation whose sequence number a later
//!    `Acquire` load observes is already visible in its shard.
//!
//! Publishing under the structure lock makes apply-and-publish atomic: no
//! operation can take effect without being visible to the revalidation pass
//! of every concurrent admission. Commit takes **no** structure lock — the
//! committed effects are already applied, so commit only removes the
//! transaction's slot from the index (O(own operations)). Abort removes the
//! slot *and* applies the verified inverses, both under the structure lock,
//! so no admission can run against a state that still contains an effect
//! whose log entry has already disappeared.
//!
//! Lock order: mode gate before structure mutex before index shard lock,
//! never the reverse.
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

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use parking_lot::Mutex;
use semcommute_logic::Value;
use semcommute_spec::AbstractState;

use crate::contention::{BackoffOptions, ContentionState, FallbackOptions, Mode, ModeGate};
use crate::fault::FaultPlan;
use crate::gatekeeper::{AdmissionError, AdmitBackend, CommutativityGatekeeper, Conflict};
use crate::index::{InFlightIndex, PublishedOp};
use crate::log::LogEntry;
use crate::rollback::InverseRollback;
use crate::structure::{AnyStructure, DispatchError, TrackedStructure};

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
/// [`Default`] resolves the admission backend and the fallback from their
/// environment variables (`SEMCOMMUTE_ADMIT`, `SEMCOMMUTE_FALLBACK`), read
/// once per process, turns backoff on, and attaches no fault plan.
#[derive(Debug, Clone)]
pub struct RuntimeOptions {
    /// How admission evaluates between conditions (see [`AdmitBackend`]).
    pub backend: AdmitBackend,
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
            backend: AdmitBackend::default_backend(),
            fallback: FallbackOptions::default_options(),
            backoff: BackoffOptions::on(),
            faults: None,
        }
    }
}

struct Shared {
    structure: Mutex<TrackedStructure>,
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
    index: InFlightIndex,
    gatekeeper: CommutativityGatekeeper,
    rollback: InverseRollback,
    next_txn: AtomicU64,
    /// Monotone count of published operations. Written only under the
    /// structure lock (with `Release`); admission reads it with `Acquire` to
    /// snapshot which operations its optimistic pass has covered.
    publish_seq: AtomicU64,
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
    /// Classifies the incoming operation against a batch of published
    /// operations, translating admission outcomes to transaction errors.
    fn check_against(
        &self,
        published: &[Arc<PublishedOp>],
        op: &str,
        op_idx: Option<u16>,
        args: &[Value],
    ) -> Result<(), TxnError> {
        for p in published {
            // Both operation names resolved to dense indices already (the
            // logged one at publish time, the incoming one once per batch by
            // the caller): the per-entry check hashes no strings.
            let verdict = match (p.op_idx, op_idx) {
                (Some(first), Some(second)) => self
                    .gatekeeper
                    .check_indexed(first, &p.entry, second, op, args),
                _ => self.gatekeeper.check_entry(&p.entry, op, args),
            };
            match verdict {
                Ok(()) => {}
                Err(AdmissionError::Conflict(c)) => {
                    self.conflicts.fetch_add(1, Ordering::Relaxed);
                    return Err(TxnError::Conflict(c));
                }
                Err(AdmissionError::Evaluation(e)) => return Err(TxnError::Condition(e)),
            }
        }
        Ok(())
    }

    /// The under-lock admission pass. Entries published after `snap` get the
    /// full between-condition check — the optimistic pass never saw them.
    /// In addition, **every** live entry whose condition reads the abstract
    /// state is re-anchored: the condition must also hold with `s1` bound to
    /// the current state (`state`, read under the held structure lock).
    ///
    /// The re-anchor closes a composition hole in pairwise admission. A
    /// condition certified against a logged entry's captured pre-state
    /// certifies swapping the pair adjacent *at that state*; once other
    /// admitted operations separate the pair, the certificate is anchored to
    /// a state that no longer exists, and individually-valid certificates
    /// need not compose. Concretely: a logged `get(3)` over
    /// `[1, 1, 1, 1, 1, 1, 10]` admits any one `removeAt` below it (one left
    /// shift keeps index 3 reading a `1`), but three such removals — each
    /// certified against the same stale capture — compose to a shift of
    /// three and move the `10` into the observed slot, breaking serial
    /// replay. Anchoring each certificate at the live state as well keeps
    /// every logged, state-dependent certificate current at each
    /// intermediate state, so the certificates compose inductively.
    /// State-free conditions are exempt: their verdict cannot drift, and the
    /// gatekeeper skips their re-evaluation.
    fn check_against_locked(
        &self,
        published: &[Arc<PublishedOp>],
        op: &str,
        op_idx: Option<u16>,
        args: &[Value],
        snap: u64,
        state: &Value,
    ) -> Result<(), TxnError> {
        for p in published {
            let fresh = p.seq > snap;
            let verdict = match (p.op_idx, op_idx) {
                (Some(first), Some(second)) => {
                    let pre = if fresh {
                        self.gatekeeper
                            .check_indexed(first, &p.entry, second, op, args)
                    } else {
                        Ok(())
                    };
                    pre.and_then(|()| {
                        self.gatekeeper
                            .check_indexed_at(first, &p.entry, second, op, args, state)
                    })
                }
                _ => {
                    let pre = if fresh {
                        self.gatekeeper.check_entry(&p.entry, op, args)
                    } else {
                        Ok(())
                    };
                    pre.and_then(|()| self.gatekeeper.check_entry_at(&p.entry, op, args, state))
                }
            };
            match verdict {
                Ok(()) => {}
                Err(AdmissionError::Conflict(c)) => {
                    self.conflicts.fetch_add(1, Ordering::Relaxed);
                    return Err(TxnError::Conflict(c));
                }
                Err(AdmissionError::Evaluation(e)) => return Err(TxnError::Condition(e)),
            }
        }
        Ok(())
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

    /// Wraps a concrete data structure for speculative access with an
    /// explicit admission backend (see [`AdmitBackend`]). Under
    /// [`AdmitBackend::Bytecode`] the between-condition catalog is compiled
    /// to flat register programs, lazily, once per runtime — every clone of
    /// this runtime shares the compiled cache. The remaining knobs keep
    /// their process-wide defaults.
    pub fn with_backend(structure: AnyStructure, backend: AdmitBackend) -> SpeculativeRuntime {
        SpeculativeRuntime::with_options(
            structure,
            RuntimeOptions {
                backend,
                ..RuntimeOptions::default()
            },
        )
    }

    /// Wraps a concrete data structure for speculative access with explicit
    /// [`RuntimeOptions`].
    pub fn with_options(structure: AnyStructure, options: RuntimeOptions) -> SpeculativeRuntime {
        let interface = structure.interface();
        let structure_name = structure.name();
        SpeculativeRuntime {
            shared: Arc::new(Shared {
                structure: Mutex::new(TrackedStructure::new(structure)),
                structure_name,
                contention: ContentionState::new(options.fallback),
                gate: ModeGate::new(),
                op_ordinal: AtomicU64::new(0),
                index: InFlightIndex::new(),
                gatekeeper: CommutativityGatekeeper::with_backend(interface, options.backend),
                rollback: InverseRollback::new(interface),
                options,
                next_txn: AtomicU64::new(1),
                publish_seq: AtomicU64::new(0),
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
            entries: Vec::new(),
            scratch: Vec::new(),
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
        self.shared.structure.lock().inner().abstract_state()
    }

    /// Checks the representation invariant of the shared structure.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.shared.structure.lock().inner().check_invariants()
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
        Ok(self.shared.structure.lock().apply(op, args)?)
    }

    /// The number of operations currently published by uncommitted
    /// transactions.
    pub fn pending_operations(&self) -> usize {
        self.shared.index.len()
    }

    /// The admission backend this runtime's gatekeeper evaluates
    /// commutativity conditions with.
    pub fn admit_backend(&self) -> AdmitBackend {
        self.shared.gatekeeper.backend()
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
    /// This transaction's published operations, oldest first — the
    /// per-transaction log. Rollback walks it newest-first; nobody else ever
    /// needs to scan it. Degraded transactions log here too (for rollback),
    /// but never publish to the index.
    entries: Vec<Arc<PublishedOp>>,
    /// Reusable buffer for the outstanding operations each admission pass
    /// checks against — cleared after every operation so it pins nothing,
    /// but its capacity persists and the hot path allocates no `Vec`.
    scratch: Vec<Arc<PublishedOp>>,
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
        self.entries.len()
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
        match self.mode {
            TxnMode::Speculative => self.execute_speculative(op, args, ordinal),
            TxnMode::Degraded => self.execute_degraded(op, args),
            TxnMode::Pending => unreachable!("enter() always picks a path"),
        }
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

    /// The optimistic path: two-phase admission, apply, publish.
    fn execute_speculative(
        &mut self,
        op: &str,
        args: &[Value],
        ordinal: u64,
    ) -> Result<Option<Value>, TxnError> {
        let shared = &self.runtime.shared;
        if ordinal != 0 {
            if let Some(faults) = &shared.options.faults {
                if faults.fire_forced_conflict(self.id, ordinal) {
                    shared.conflicts.fetch_add(1, Ordering::Relaxed);
                    return Err(TxnError::Conflict(Conflict {
                        with_txn: 0,
                        logged_op: "<fault-injection>".to_string(),
                        incoming_op: op.to_string(),
                    }));
                }
            }
        }
        // One string resolution for the incoming operation; every per-entry
        // check below goes through dense indices.
        let op_idx = shared.gatekeeper.op_index(op);

        // Optimistic phase: evaluate conditions against everything published
        // up to `snap` without touching the structure lock.
        let snap = shared.publish_seq.load(Ordering::Acquire);
        shared.index.others_into(self.id, &mut self.scratch);
        let optimistic = shared.check_against(&self.scratch, op, op_idx, args);
        self.scratch.clear();
        optimistic?;

        // Validated apply: under the structure lock, operations published
        // after the snapshot get their first full check, and every
        // state-reading condition is re-anchored at the live state (see
        // `check_against_locked`).
        let mut structure = shared.structure.lock();
        shared.index.others_into(self.id, &mut self.scratch);
        let validated = shared.check_against_locked(
            &self.scratch,
            op,
            op_idx,
            args,
            snap,
            structure.state_value(),
        );
        self.scratch.clear();
        if let Err(e) = validated {
            drop(structure);
            return Err(e);
        }

        let pre_state = shared
            .gatekeeper
            .requires_pre_state(op)
            .then(|| structure.state_value().clone());
        let result = structure.apply(op, args)?;
        let seq = shared.publish_seq.load(Ordering::Relaxed) + 1;
        let published = Arc::new(PublishedOp {
            seq,
            op_idx,
            entry: LogEntry {
                txn: self.id,
                op: op.to_string(),
                args: args.to_vec(),
                result: result.clone(),
                pre_state,
            },
        });
        // Publish to the shard *before* the sequence store: an admission that
        // Acquire-loads `seq` must already find the entry in the index.
        shared.index.publish(self.id, Arc::clone(&published));
        if ordinal != 0 {
            if let Some(faults) = &shared.options.faults {
                // Stretch the entry-visible-but-sequence-unadvanced state.
                faults.fire_delayed_publish(self.id, ordinal);
            }
        }
        shared.publish_seq.store(seq, Ordering::Release);
        drop(structure);

        self.entries.push(published);
        shared.operations.fetch_add(1, Ordering::Relaxed);
        Ok(result)
    }

    /// The degraded path: the coarse-lock discipline of
    /// [`CoarseLockRuntime`](crate::CoarseLockRuntime) inside the
    /// speculative engine. The gate is held exclusively (no speculative
    /// transaction is in flight — see [`Transaction::enter`]), so there is
    /// nothing to admit against and no pre-state to project; operations are
    /// logged locally for inverse rollback but never published to the
    /// in-flight index.
    fn execute_degraded(&mut self, op: &str, args: &[Value]) -> Result<Option<Value>, TxnError> {
        let shared = &self.runtime.shared;
        // The structure mutex still guards against lock-path bystanders
        // (snapshots, invariant checks, unlogged test writes).
        let result = shared.structure.lock().apply(op, args)?;
        self.entries.push(Arc::new(PublishedOp {
            seq: 0,
            op_idx: None,
            entry: LogEntry {
                txn: self.id,
                op: op.to_string(),
                args: args.to_vec(),
                result: result.clone(),
                pre_state: None,
            },
        }));
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
    /// harness checks exactly this). Commit takes no structure lock and is
    /// O(this transaction's operations).
    pub fn commit(mut self) -> u64 {
        self.finished = true;
        let shared = &self.runtime.shared;
        // The ticket must be drawn *before* the index slot disappears: a
        // transaction that executes a non-commuting operation can only be
        // admitted after this removal, so its own (later) fetch_add is
        // guaranteed a larger ticket — the shard lock release/acquire orders
        // the two RMWs. Removing first would let that transaction draw a
        // smaller ticket and break the replay order. It is also drawn before
        // `leave` releases the gate, which is what serializes tickets across
        // mode transitions: a transaction on the other gate side begins
        // strictly after this release, so its ticket is strictly later.
        let ticket = shared.commit_seq.fetch_add(1, Ordering::Relaxed) + 1;
        if !self.entries.is_empty() {
            if self.mode == TxnMode::Degraded {
                // Degraded operations were never published; the log was only
                // kept in case of rollback.
                shared.degraded_commits.fetch_add(1, Ordering::Relaxed);
            } else {
                shared.index.remove(self.id);
            }
            self.entries.clear();
        } else if self.mode == TxnMode::Degraded {
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
        if self.entries.is_empty() {
            // Nothing was published: there is no slot in the index and no
            // effect on the structure, so the abort is a counter bump (plus
            // the gate release if an admission-refused first operation
            // already picked a path).
            self.leave(true);
            return;
        }
        {
            // Index removal and inverse application happen under one
            // structure lock acquisition: otherwise a concurrent admission
            // could evaluate against a state that still contains an effect
            // whose log entry has already vanished.
            let mut structure = shared.structure.lock();
            if self.mode != TxnMode::Degraded {
                shared.index.remove(self.id);
            }
            let injected = shared
                .options
                .faults
                .as_ref()
                .is_some_and(|faults| faults.fire_rollback_failure(self.id));
            if injected {
                // Fault injection: behave exactly as if the first inverse
                // had been rejected.
                let reason = format!(
                    "rolling back txn {}: injected rollback failure (fault plan)",
                    self.id
                );
                shared.rollback_failures.fetch_add(1, Ordering::Relaxed);
                let _ = shared.poison.set(reason);
            } else {
                for published in self.entries.iter().rev() {
                    let entry = &published.entry;
                    let Some(inverse) = shared.rollback.inverse_of(&entry.op) else {
                        // Observer operations change nothing and need no undo.
                        continue;
                    };
                    let Some((op, args)) =
                        inverse.concrete_call(&entry.args, entry.result.as_ref())
                    else {
                        // Nothing to undo (e.g. `add` returned false).
                        continue;
                    };
                    if let Err(e) = structure.apply(&op, &args) {
                        // A verified inverse failed to apply: the structure no
                        // longer matches the log (something mutated it outside
                        // the protocol, or an invariant broke). Panicking here
                        // — while holding the structure lock — used to take
                        // the whole process down; instead, poison the runtime
                        // so every subsequent operation is refused with a
                        // diagnosable [`TxnError::Poisoned`], and stop
                        // undoing: applying more inverses to a state we no
                        // longer understand could only compound the damage.
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
            self.entries.clear();
        }
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
        let rt = set_runtime();
        let mut t1 = rt.begin();
        t1.execute("add", &[Value::elem(1)]).unwrap();
        // With t1's `add` outstanding, an operation the catalog has no
        // condition for must surface as a non-retryable `Condition` error —
        // not spin the full retry budget and report `RetriesExhausted`.
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
    fn empty_abort_is_lock_free() {
        // Hold the structure lock hostage on another thread; an empty abort
        // must still complete because it never touches the lock.
        let rt = set_runtime();
        let hold = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(true));
        let rt2 = rt.clone();
        let hold2 = std::sync::Arc::clone(&hold);
        let blocker = std::thread::spawn(move || {
            let _guard = rt2.shared.structure.lock();
            while hold2.load(Ordering::Relaxed) {
                std::thread::yield_now();
            }
        });
        // Give the blocker time to take the lock.
        while rt.shared.structure.try_lock().is_some() {
            std::thread::yield_now();
        }
        let t = rt.begin();
        t.abort(); // would deadlock here if the empty abort locked
        assert_eq!(rt.stats().aborts, 1);
        hold.store(false, Ordering::Relaxed);
        blocker.join().unwrap();
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

    #[test]
    fn pre_state_is_projected_not_cloned_per_op() {
        // `add`/`contains` need no pre-state; `remove` and `size` do. Check
        // the published entries carry exactly that.
        let rt = set_runtime();
        let mut setup = rt.begin();
        setup.execute("add", &[Value::elem(1)]).unwrap();
        setup.commit();
        let mut t = rt.begin();
        t.execute("add", &[Value::elem(2)]).unwrap();
        t.execute("remove", &[Value::elem(1)]).unwrap();
        t.execute("size", &[]).unwrap();
        let states: Vec<bool> = t
            .entries
            .iter()
            .map(|p| p.entry.pre_state.is_some())
            .collect();
        assert_eq!(states, vec![false, true, true]);
        // The `remove` pre-state is the abstract state just before it ran.
        let pre = t.entries[1].entry.pre_state.clone().unwrap();
        assert_eq!(
            AbstractState::from_value(&pre).unwrap(),
            AbstractState::Set([ElemId(1), ElemId(2)].into_iter().collect())
        );
        t.commit();
    }
}
