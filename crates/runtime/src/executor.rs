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
//! # Key stripes
//!
//! A set or map runtime splits its structure into [`STRIPES`] stripes by key
//! hash (see `AnyStructure::split`); a sequence or an accumulator is one
//! stripe. Each stripe is a mutex on its own cache lines around its part of
//! the structure and its part of the in-flight log: the logged operations of
//! live transactions on its keys, each transaction's oldest first. The
//! license is verified: every set and map pair of keyed operations commutes
//! whenever the keys differ (`core::runtime_form::stripe_license`), so a
//! keyed operation locks its key's stripe and is admitted against that
//! stripe's entries only. Every other operation — `size`, and every
//! operation of a one-stripe structure — locks every stripe in ascending
//! order, is admitted against every entry, and is logged in every stripe, so
//! every later admission sees it.
//!
//! [`Transaction::execute`] is single-phase. Under its stripe locks it
//! checks the incoming operation against every logged operation of every
//! *other* live transaction there — a set or map condition that reads the
//! state at the live state projected onto its keys, while the state is
//! unchanged since the logged operation ran; a sequence condition that reads
//! it at the entry's captured pre-state, at the live state, and at the live
//! state with the entry's transaction rolled back; either only while no
//! third live transaction has changed the state (see
//! `Shared::admit_against_slot`) — then applies the operation, records its
//! pre-state projection where a sequence condition needs one, and logs the
//! entry. Admission, apply and logging are one critical section, so every
//! admission sees one consistent instant of the stripes it reads, and no
//! operation takes effect without being visible to every later admission.
//! Whether the state changed is one global version, and which live
//! transactions changed it one global count, each updated under the lock of
//! the stripe that made the change.
//!
//! Commit draws its ticket, then removes its entries stripe by stripe.
//! Abort undoes its entries with the verified inverses newest-first within
//! each stripe, in the critical section that removes them, so no admission
//! can run against a state that still contains an effect whose log entry has
//! already disappeared. A transaction that executed nothing commits and
//! aborts without a lock.
//!
//! Lock order: mode gate before stripe mutexes, stripes in ascending order,
//! never the reverse. A contended acquisition of a stripe mutex spins
//! briefly before it blocks (see `Shared::lock`).
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
use std::time::{Duration, Instant};

use parking_lot::{Mutex, MutexGuard};
use semcommute_core::runtime_form::{keyed_operations, STRIPE_KEY};
use semcommute_logic::Value;
use semcommute_spec::AbstractState;
use semcommute_structures::stripe_of;

use crate::contention::{BackoffOptions, ContentionState, FallbackOptions, Mode, ModeGate};
use crate::fault::FaultPlan;
use crate::gatekeeper::{AdmissionError, CommutativityGatekeeper, Conflict};
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

/// How long a contended acquisition of a stripe mutex spins before it
/// blocks (see `Shared::lock`).
const LOCK_SPIN: Duration = Duration::from_micros(50);

/// The host's available parallelism, read once per process.
fn cores() -> u64 {
    static CORES: OnceLock<u64> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get() as u64))
}

/// The hash bits a set or map runtime stripes its keys by.
const STRIPE_BITS: u32 = 6;

/// Stripes of a set or map runtime (a power of two; a sequence or an
/// accumulator is one stripe). A transaction records the stripes it logged
/// in as a `u64` bitmask, so there are at most 64.
pub const STRIPES: usize = 1 << STRIPE_BITS;

const _: () = assert!(STRIPES <= u64::BITS as usize);

/// One operation in a stripe's part of the in-flight log.
#[derive(Clone)]
struct LoggedOp {
    /// The operation's dense index in the gatekeeper's operation universe,
    /// resolved once when it executed, so admission against it never hashes
    /// the operation name (see [`CommutativityGatekeeper::op_index`]). Only
    /// applied operations are logged, and every operation the structure
    /// applies has an index.
    op_idx: u16,
    /// The runtime's global version just before the operation ran. Read
    /// only for an operation that locks every stripe — the only first
    /// operations of a state-reading pair — and zero for a keyed one.
    version: u64,
    /// Whether the operation changed the state.
    changed: bool,
    /// Whether its transaction had changed the state once it ran.
    txn_changed: bool,
    entry: LogEntry,
}

/// Everything one stripe mutex guards: the stripe's part of the structure
/// and of the in-flight log change together, so one lock acquisition sees
/// them consistent.
struct Stripe {
    tracked: TrackedStructure,
    /// The logged operations of live transactions in this stripe: each
    /// transaction's entries contiguous, oldest first. Commit removes a
    /// transaction's run; abort removes it and undoes it.
    entries: Vec<LoggedOp>,
}

impl Stripe {
    /// Applies an operation, bumping `version` if it changed the state.
    /// Returns its result and whether it did.
    fn apply(
        &mut self,
        op: &str,
        args: &[Value],
        version: &AtomicU64,
    ) -> Result<(Option<Value>, bool), DispatchError> {
        let before = self.tracked.version();
        let result = self.tracked.apply(op, args)?;
        let changed = self.tracked.version() != before;
        if changed {
            version.fetch_add(1, Ordering::SeqCst);
        }
        Ok((result, changed))
    }

    /// Where `txn`'s entries sit in [`entries`](Stripe::entries), if it has
    /// any.
    fn run_of(&self, txn: u64) -> Option<std::ops::Range<usize>> {
        let start = self.entries.iter().position(|op| op.entry.txn == txn)?;
        let len = self.entries[start..]
            .iter()
            .take_while(|op| op.entry.txn == txn)
            .count();
        Some(start..start + len)
    }

    /// Logs `op` at the end of its transaction's run; `first` says the
    /// transaction has no entry here yet.
    fn log(&mut self, op: LoggedOp, first: bool) {
        let at = if first {
            self.entries.len()
        } else {
            let txn = op.entry.txn;
            self.entries
                .iter()
                .rposition(|logged| logged.entry.txn == txn)
                .map_or(self.entries.len(), |last| last + 1)
        };
        self.entries.insert(at, op);
    }

    /// The runs of live transactions other than `txn`.
    fn others(&self, txn: u64) -> impl Iterator<Item = &[LoggedOp]> {
        self.entries
            .chunk_by(|a, b| a.entry.txn == b.entry.txn)
            .filter(move |run| run[0].entry.txn != txn)
    }
}

/// A stripe mutex on cache lines of its own: two, because adjacent-line
/// prefetch moves lines in pairs.
#[repr(align(128))]
struct StripeLock(Mutex<Stripe>);

struct Shared {
    stripes: Box<[StripeLock]>,
    /// One bit per operation index: does the operation lock its key's stripe
    /// only? Set for the keyed operations of a striped set or map
    /// ([`keyed_operations`]); every other operation locks every stripe.
    keyed: u64,
    /// The concrete structure's name, captured before the structure moves
    /// behind its mutexes — retry reports shouldn't need a lock acquisition.
    structure_name: &'static str,
    options: RuntimeOptions,
    gatekeeper: CommutativityGatekeeper,
    rollback: InverseRollback,
    /// Set (once) when a rollback fails to apply a verified inverse: the
    /// structure may hold effects of an aborted transaction, so every
    /// subsequent `execute` is refused with [`TxnError::Poisoned`]. Sticky
    /// by design, mirroring the coarse-lock runtime's poisoning — but surfaced
    /// as an error, never a panic, because the failure is detected while
    /// holding a stripe lock.
    poison: OnceLock<String>,
    hot: Hot,
}

/// The shared state every transaction writes, on cache lines of its own:
/// apart from the fields every operation reads, so another worker's writes
/// do not evict those, and together, so a transaction pulls few lines from
/// another core.
#[repr(C, align(128))]
struct Hot {
    /// The next transaction identifier; identifiers start at 1, so this is
    /// also one more than the transactions begun.
    next_txn: AtomicU64,
    /// The speculative/degraded drain barrier (see [`ModeGate`]).
    gate: ModeGate,
    /// The per-structure abort account and mode state machine.
    contention: ContentionState,
    /// Monotone commit tickets, the serialization order certified by the
    /// between conditions (see [`Transaction::commit`]); every commit draws
    /// one, so this is also the commit count.
    commit_seq: AtomicU64,
    aborts: AtomicU64,
    /// Operations of finished transactions, added once per finish.
    operations: AtomicU64,
    /// State changes so far, over every stripe, undos included; bumped under
    /// the lock of the stripe that changed.
    version: AtomicU64,
    /// Live transactions that have changed the state: incremented under the
    /// lock of a transaction's first changing stripe, decremented under the
    /// lock of the last stripe it leaves.
    changers: AtomicU64,
    conflicts: AtomicU64,
    rollback_failures: AtomicU64,
    degraded_commits: AtomicU64,
    /// Global operation ordinal, drawn per `execute` only while a fault plan
    /// is attached — the coordinate system faults are scheduled in.
    op_ordinal: AtomicU64,
}

/// The stripe locks one operation holds: `first` is the index of
/// `guards[0]`, and the guards are consecutive stripes.
struct Held<'a> {
    first: usize,
    guards: HeldGuards<'a>,
}

enum HeldGuards<'a> {
    One([MutexGuard<'a, Stripe>; 1]),
    All(Vec<MutexGuard<'a, Stripe>>),
}

impl<'a> Held<'a> {
    fn guards(&self) -> &[MutexGuard<'a, Stripe>] {
        match &self.guards {
            HeldGuards::One(one) => one,
            HeldGuards::All(all) => all,
        }
    }

    fn guards_mut(&mut self) -> &mut [MutexGuard<'a, Stripe>] {
        match &mut self.guards {
            HeldGuards::One(one) => one,
            HeldGuards::All(all) => all,
        }
    }

    /// Applies an operation in every held stripe — one for a keyed
    /// operation or a one-stripe structure; a set or map `size` adds the
    /// stripes' sizes up. Returns the result and whether the state changed.
    fn apply(
        &mut self,
        op: &str,
        args: &[Value],
        version: &AtomicU64,
    ) -> Result<(Option<Value>, bool), DispatchError> {
        let mut result = None;
        let mut changed = false;
        for stripe in self.guards_mut() {
            let (part, part_changed) = stripe.apply(op, args, version)?;
            changed |= part_changed;
            result = match (result, part) {
                (Some(Value::Int(total)), Some(Value::Int(n))) => Some(Value::Int(total + n)),
                (_, part) => part,
            };
        }
        Ok((result, changed))
    }
}

impl Shared {
    /// The stripe a keyed operation locks, or `None` for one that locks
    /// every stripe. A keyed operation's stripe is the stripe of its key,
    /// argument [`STRIPE_KEY`]: the stripe-license obligations
    /// (`core::runtime_form::stripe_license`, all 25 verified) state that
    /// two keyed set or map operations commute whenever those arguments
    /// differ, which is what lets admission read the key's stripe alone. A
    /// key that is not an element fails dispatch; it is admitted like any
    /// unkeyed operation first, against every stripe.
    fn stripe_of(&self, op_idx: u16, args: &[Value]) -> Option<usize> {
        if !self.keyed(op_idx) {
            return None;
        }
        match args.get(STRIPE_KEY) {
            Some(Value::Elem(key)) if !key.is_null() => Some(stripe_of(*key, STRIPE_BITS)),
            _ => None,
        }
    }

    /// Does operation `op_idx` lock its key's stripe only?
    fn keyed(&self, op_idx: u16) -> bool {
        self.keyed >> op_idx & 1 == 1
    }

    /// Locks one stripe, or every stripe in ascending order.
    fn hold(&self, stripe: Option<usize>) -> Held<'_> {
        match stripe {
            Some(stripe) => Held {
                first: stripe,
                guards: HeldGuards::One([self.lock(stripe)]),
            },
            None if self.stripes.len() == 1 => Held {
                first: 0,
                guards: HeldGuards::One([self.lock(0)]),
            },
            None => Held {
                first: 0,
                guards: HeldGuards::All((0..self.stripes.len()).map(|i| self.lock(i)).collect()),
            },
        }
    }

    /// Acquires a stripe mutex, spinning for up to [`LOCK_SPIN`] before
    /// blocking.
    ///
    /// Admission, apply and logging all run under the stripe mutexes, so
    /// busy workers on one stripe hand its mutex to each other every
    /// operation, a few hundred nanoseconds apart. A waiter that blocks is
    /// woken by the kernel, which on a virtual machine takes around 10 µs,
    /// many critical sections, and the delay varies with the host's load;
    /// spinning covers a handoff instead. A waiter still spinning after the
    /// bound has probably lost the holder to the scheduler, and blocks.
    /// Much shorter spins measure worse than none (see `docs/PERF.md`).
    /// While more transactions are live than the host has cores, waiters
    /// block at once: the holder may then be waiting for a CPU that a
    /// spinner holds.
    fn lock(&self, stripe: usize) -> MutexGuard<'_, Stripe> {
        let mutex = &self.stripes[stripe].0;
        if let Some(guard) = mutex.try_lock() {
            return guard;
        }
        if self.live_transactions() <= cores() {
            if let Some(guard) = spin(mutex) {
                return guard;
            }
        }
        mutex.lock()
    }

    /// Transactions begun and not yet finished. The three counters are
    /// read apart, so the figure is approximate.
    fn live_transactions(&self) -> u64 {
        let hot = &self.hot;
        let finished = hot.commit_seq.load(Ordering::Relaxed) + hot.aborts.load(Ordering::Relaxed);
        (hot.next_txn.load(Ordering::Relaxed) - 1).saturating_sub(finished)
    }

    /// Admits the incoming operation against the run of one other live
    /// transaction in one stripe, newest entry first. Runs under the
    /// stripe's mutex; `tracked` holds the stripe's live abstract state, and
    /// `changed` says whether the incoming transaction has changed the
    /// state. Each entry's pair condition is looked up once, and the live
    /// state is touched only when that condition reads it.
    ///
    /// A state-free condition — every set and map pair but the `size`-first
    /// ones, in their runtime forms — is checked once: its verdict cannot
    /// depend on an anchor. A set or map condition that reads the state
    /// reads it only at the incoming operation's key (`v2 ∈ s1`), and is
    /// checked at the live state projected onto that key, answered by the
    /// key's stripe. It is certified only while the runtime's global
    /// version is the one the logged operation ran at and that operation
    /// changed nothing, so the captured pre-state, the live state and the
    /// undo anchor below are one state; otherwise the incoming operation
    /// conflicts.
    ///
    /// A sequence condition that reads the state is checked at up to three
    /// anchors, over `tracked`'s mirror (a sequence is one stripe). The
    /// logged entry's **captured pre-state** certifies swapping the pair at
    /// the state the logged operation ran in. The **live state** keeps the
    /// certificates of long-lived observers composing: a logged `get(3)` over
    /// `[1, 1, 1, 1, 1, 1, 10]` admits any one `removeAt` below it (one left
    /// shift keeps index 3 reading a `1`), but three such removals — each
    /// certified against the same stale capture — compose to a shift of
    /// three and move the `10` into the observed slot. The **undo anchor**
    /// is the state the pair is adjacent at when the logged transaction is
    /// serialized last, which is what its abort and every later commit order
    /// assume: the live state with the run's operations, from the newest
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
    /// changed the state (the global count of changers says); otherwise the
    /// incoming operation conflicts (see "No third party" in
    /// `docs/ARCHITECTURE.md`). With two workers there is never a third
    /// live transaction.
    ///
    /// The undo anchor is built lazily, on a persistent copy of the live
    /// state, and checked only where it can differ from the anchors already
    /// checked: it equals the live state until an entry at or after
    /// the checked one changed the state, and it equals the captured
    /// pre-state while every state change since that pre-state was the
    /// run's own (the global version counts changes).
    fn admit_against_slot(
        &self,
        slot: &[LoggedOp],
        op: &str,
        op_idx: u16,
        args: &[Value],
        tracked: &TrackedStructure,
        changed: bool,
    ) -> Result<(), TxnError> {
        // Does a live transaction other than the logged one and the incoming
        // one change the state? The logged one's newest entry here says
        // whether it did; a change it made after that entry moved the
        // version, which refuses the pair on its own.
        let bystanders = || {
            let others = self.hot.changers.load(Ordering::SeqCst) - u64::from(changed);
            others > u64::from(slot[slot.len() - 1].txn_changed)
        };
        // `live` with `slot[rolled_back..]` undone, newest first; `None`
        // while nothing undone so far changed the state.
        let mut anchor: Option<Value> = None;
        let mut rolled_back = slot.len();
        // State changes made by `slot[i..]`.
        let mut own_changes = 0;
        for (i, logged) in slot.iter().enumerate().rev() {
            own_changes += u64::from(logged.changed);
            let entry = &logged.entry;
            let pair = self.gatekeeper.pair_indexed(logged.op_idx, op_idx);
            if !pair.reads_state() {
                self.verdict(pair.check(entry, op, args, None))?;
                continue;
            }
            let version = self.hot.version.load(Ordering::SeqCst);
            if let Some(keys) = pair.state_keys(entry, args) {
                let projected = tracked
                    .inner()
                    .project(keys)
                    .expect("keyed conditions belong to sets and maps");
                self.verdict(pair.check(entry, op, args, Some(&projected)))?;
                if logged.changed || version != logged.version || bystanders() {
                    return Err(self.conflict(entry, op));
                }
                continue;
            }
            let live = tracked.state_value();
            self.verdict(
                pair.check(entry, op, args, None)
                    .and_then(|()| pair.check(entry, op, args, Some(live))),
            )?;
            if bystanders() {
                return Err(self.conflict(entry, op));
            }
            if own_changes == 0 || version - logged.version == own_changes {
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

    /// Removes transaction `txn`'s entries from the `stripes` it logged in
    /// (a bitmask), in ascending order, after `each` has seen them under
    /// that stripe's lock; if the transaction `changed` the state, the last
    /// stripe's critical section also takes it out of the changers. Once
    /// `each` fails, the remaining stripes are only cleared.
    fn release(
        &self,
        txn: u64,
        mut stripes: u64,
        changed: bool,
        mut each: impl FnMut(&mut Stripe, std::ops::Range<usize>) -> Result<(), String>,
    ) -> Result<(), String> {
        let mut outcome = Ok(());
        while stripes != 0 {
            let i = stripes.trailing_zeros() as usize;
            stripes &= stripes - 1;
            let mut stripe = self.lock(i);
            let run = stripe.run_of(txn).expect("a stripe logged in holds a run");
            if outcome.is_ok() {
                outcome = each(&mut stripe, run.clone());
            }
            // The entries are dropped under the lock: freeing them is cheap
            // next to a second pass over the stripes.
            stripe.entries.drain(run);
            if stripes == 0 && changed {
                self.hot.changers.fetch_sub(1, Ordering::SeqCst);
            }
        }
        outcome
    }

    /// A conflict with `entry` that no condition evaluation reported.
    fn conflict(&self, entry: &LogEntry, op: &str) -> TxnError {
        self.hot.conflicts.fetch_add(1, Ordering::Relaxed);
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
                self.hot.conflicts.fetch_add(1, Ordering::Relaxed);
                TxnError::Conflict(c)
            }
            AdmissionError::Evaluation(e) => TxnError::Condition(e),
        })
    }
}

/// Polls `mutex` for up to [`LOCK_SPIN`].
fn spin(mutex: &Mutex<Stripe>) -> Option<MutexGuard<'_, Stripe>> {
    let started = Instant::now();
    while started.elapsed() < LOCK_SPIN {
        for _ in 0..16 {
            std::hint::spin_loop();
            if let Some(guard) = mutex.try_lock() {
                return Some(guard);
            }
        }
    }
    None
}

/// The union of the stripes' abstract states (which are disjoint); the one
/// stripe's state as is.
fn union(mut states: impl Iterator<Item = AbstractState>) -> AbstractState {
    let mut all = states.next().expect("a runtime has a stripe");
    for state in states {
        match (&mut all, state) {
            (AbstractState::Set(all), AbstractState::Set(part)) => all.extend(part),
            (AbstractState::Map(all), AbstractState::Map(part)) => all.extend(part),
            (all, part) => unreachable!("stripes of one structure, got {all:?} and {part:?}"),
        }
    }
    all
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
    /// [`RuntimeOptions`]. A set or map is split into [`STRIPES`] key
    /// stripes by moving whole bucket chains (a list-based one relinks its
    /// nodes); a hash table's stripes count their elements on first need.
    pub fn with_options(structure: AnyStructure, options: RuntimeOptions) -> SpeculativeRuntime {
        let interface = structure.interface();
        let structure_name = structure.name();
        let stripes: Box<[StripeLock]> = structure
            .split(STRIPE_BITS)
            .into_iter()
            .map(|part| {
                StripeLock(Mutex::new(Stripe {
                    tracked: TrackedStructure::new(part),
                    entries: Vec::new(),
                }))
            })
            .collect();
        let gatekeeper = CommutativityGatekeeper::new(interface);
        let keyed = match stripes.len() {
            1 => 0,
            _ => keyed_operations(interface)
                .iter()
                .filter_map(|op| gatekeeper.op_index(op))
                .fold(0, |keyed, op_idx| keyed | 1 << op_idx),
        };
        SpeculativeRuntime {
            shared: Arc::new(Shared {
                stripes,
                keyed,
                structure_name,
                gatekeeper,
                rollback: InverseRollback::new(interface),
                poison: OnceLock::new(),
                hot: Hot {
                    next_txn: AtomicU64::new(1),
                    gate: ModeGate::new(),
                    contention: ContentionState::new(options.fallback),
                    commit_seq: AtomicU64::new(0),
                    aborts: AtomicU64::new(0),
                    operations: AtomicU64::new(0),
                    version: AtomicU64::new(0),
                    changers: AtomicU64::new(0),
                    conflicts: AtomicU64::new(0),
                    rollback_failures: AtomicU64::new(0),
                    degraded_commits: AtomicU64::new(0),
                    op_ordinal: AtomicU64::new(0),
                },
                options,
            }),
        }
    }

    /// Begins a new transaction.
    pub fn begin(&self) -> Transaction {
        Transaction {
            runtime: self.clone(),
            id: self.shared.hot.next_txn.fetch_add(1, Ordering::Relaxed),
            logged: 0,
            stripes: 0,
            changed: false,
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

    /// The current abstract state of the shared structure: the union of its
    /// stripes' states, read under every stripe lock.
    pub fn snapshot(&self) -> AbstractState {
        let held = self.shared.hold(None);
        union(
            held.guards()
                .iter()
                .map(|stripe| stripe.tracked.inner().abstract_state()),
        )
    }

    /// Checks the representation invariant of the shared structure: every
    /// stripe's, and that every key of a set or map sits in its own stripe.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn check_invariants(&self) -> Result<(), String> {
        let held = self.shared.hold(None);
        let striped = held.guards().len() > 1;
        for (i, stripe) in held.guards().iter().enumerate() {
            let inner = stripe.tracked.inner();
            inner
                .check_invariants()
                .map_err(|e| format!("stripe {i}: {e}"))?;
            if let Some(key) = inner
                .keys()
                .into_iter()
                .find(|&key| striped && stripe_of(key, STRIPE_BITS) != i)
            {
                return Err(format!(
                    "key {key} sits in stripe {i}, not its own stripe {}",
                    stripe_of(key, STRIPE_BITS)
                ));
            }
        }
        Ok(())
    }

    /// Execution statistics so far.
    pub fn stats(&self) -> RuntimeStats {
        let hot = &self.shared.hot;
        RuntimeStats {
            begun: hot.next_txn.load(Ordering::Relaxed) - 1,
            commits: hot.commit_seq.load(Ordering::Relaxed),
            aborts: hot.aborts.load(Ordering::Relaxed),
            conflicts: hot.conflicts.load(Ordering::Relaxed),
            operations: hot.operations.load(Ordering::Relaxed),
            rollback_failures: hot.rollback_failures.load(Ordering::Relaxed),
            degraded_commits: hot.degraded_commits.load(Ordering::Relaxed),
            mode_switches: hot.contention.mode_switches(),
        }
    }

    /// The structure's current execution mode. Always [`Mode::Speculative`]
    /// while the fallback is disabled. Advisory: by the time the caller
    /// looks at the value a transition may already have landed.
    pub fn mode(&self) -> Mode {
        self.shared.hot.contention.mode()
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
        let shared = &self.shared;
        let stripe = shared
            .gatekeeper
            .op_index(op)
            .and_then(|op_idx| shared.stripe_of(op_idx, args));
        let (result, _) = shared.hold(stripe).apply(op, args, &shared.hot.version)?;
        Ok(result)
    }

    /// The number of operations currently logged by uncommitted
    /// transactions. An operation that locks every stripe is logged in each
    /// and counts once.
    pub fn pending_operations(&self) -> usize {
        let shared = &self.shared;
        let held = shared.hold(None);
        held.guards()
            .iter()
            .enumerate()
            .map(|(i, stripe)| {
                stripe
                    .entries
                    .iter()
                    .filter(|logged| i == 0 || shared.keyed(logged.op_idx))
                    .count()
            })
            .sum()
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
    /// How many operations this transaction has logged.
    logged: usize,
    /// The stripes it has logged in, one bit each; zero means it has no
    /// entry anywhere, so commit and abort need no lock.
    stripes: u64,
    /// Whether one of its operations changed the state (it then counts in
    /// the runtime's changers until it finishes).
    changed: bool,
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
                    .hot
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
                        .hot
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
            if shared.hot.contention.mode() == Mode::Degraded {
                shared.hot.gate.enter_exclusive();
                if shared.hot.contention.mode() == Mode::Degraded {
                    self.mode = TxnMode::Degraded;
                    return;
                }
                // The structure left Degraded while we queued: speculate.
                shared.hot.gate.exit_exclusive();
            } else {
                shared.hot.gate.enter_shared();
                if shared.hot.contention.mode() != Mode::Degraded {
                    self.mode = TxnMode::Speculative;
                    return;
                }
                // Degraded landed while we entered: take the coarse path.
                shared.hot.gate.exit_shared();
            }
        }
    }

    /// Finish bookkeeping for both commit and abort: count the finished
    /// transaction's operations, feed the contention account, then release
    /// the gate side held since the first operation. The caller has already
    /// drawn its commit ticket (commit) or finished its rollback (abort) —
    /// releasing the gate is the last thing a transaction does, which is
    /// what orders cross-mode ticket draws.
    fn leave(&mut self, aborted: bool) {
        let shared = &self.runtime.shared;
        if self.logged > 0 {
            shared
                .hot
                .operations
                .fetch_add(self.logged as u64, Ordering::Relaxed);
            self.logged = 0;
        }
        match self.mode {
            TxnMode::Pending => {}
            TxnMode::Speculative => {
                if shared.options.fallback.enabled {
                    shared.hot.contention.record_speculative_finish(aborted);
                    shared.hot.gate.exit_shared();
                }
            }
            TxnMode::Degraded => {
                shared.hot.contention.record_degraded_finish();
                shared.hot.gate.exit_exclusive();
            }
        }
        self.mode = TxnMode::Pending;
    }

    /// Admission, apply and logging, in one critical section of the
    /// operation's stripe locks.
    ///
    /// A speculative transaction is admitted against every logged operation
    /// of every other live transaction in those stripes (see
    /// `Shared::admit_against_slot`) and records a pre-state projection
    /// where a sequence condition needs one. A degraded transaction holds
    /// the gate exclusively, so no other transaction is live: there is
    /// nothing to admit against and no pre-state to project. Both log into
    /// the stripes, which is what abort undoes.
    fn execute_locked(&mut self, op: &str, args: &[Value]) -> Result<Option<Value>, TxnError> {
        let shared = &self.runtime.shared;
        // One string resolution for the incoming operation; every per-entry
        // check goes through dense indices.
        let op_idx = shared.gatekeeper.op_index(op);
        // The log entry's owned copies are made before the critical section,
        // which is what concurrent transactions queue for.
        let (op_name, op_args) = (op.to_string(), args.to_vec());
        let stripe = op_idx.and_then(|op_idx| shared.stripe_of(op_idx, args));
        let mut held = shared.hold(stripe);
        let Some(op_idx) = op_idx else {
            // Not an operation of the interface: no condition covers it
            // against another live transaction's entry, and the structure
            // cannot apply it.
            let logged = held
                .guards()
                .iter()
                .find_map(|stripe| stripe.others(self.id).next());
            return Err(match logged {
                Some(run) => {
                    TxnError::Condition(format!("no condition for pair {}/{op}", run[0].entry.op))
                }
                None => DispatchError::UnknownOperation(op.to_string()).into(),
            });
        };
        let pre_state = if self.mode == TxnMode::Speculative {
            for stripe in held.guards() {
                for slot in stripe.others(self.id) {
                    shared.admit_against_slot(
                        slot,
                        op,
                        op_idx,
                        args,
                        &stripe.tracked,
                        self.changed,
                    )?;
                }
            }
            shared
                .gatekeeper
                .requires_pre_state_indexed(op_idx)
                .then(|| held.guards()[0].tracked.state_value().clone())
        } else {
            debug_assert!(held
                .guards()
                .iter()
                .all(|stripe| stripe.others(self.id).next().is_none()));
            None
        };
        let version = if stripe.is_none() {
            shared.hot.version.load(Ordering::SeqCst)
        } else {
            0
        };
        let (result, changed) = held.apply(op, args, &shared.hot.version)?;
        if changed && !self.changed {
            self.changed = true;
            shared.hot.changers.fetch_add(1, Ordering::SeqCst);
        }
        let logged = LoggedOp {
            op_idx,
            version,
            changed,
            txn_changed: self.changed,
            entry: LogEntry {
                txn: self.id,
                op: op_name,
                args: op_args,
                result: result.clone(),
                pre_state,
            },
        };
        let first = held.first;
        let guards = held.guards_mut();
        let last = guards.len() - 1;
        for (i, stripe) in guards[..last].iter_mut().enumerate() {
            stripe.log(logged.clone(), self.stripes & (1 << (first + i)) == 0);
        }
        guards[last].log(logged, self.stripes & (1 << (first + last)) == 0);
        self.stripes |= (u64::MAX >> (63 - last)) << first;
        drop(held);
        self.logged += 1;
        Ok(result)
    }

    /// Commits the transaction: its operations become permanent and stop
    /// constraining other transactions.
    ///
    /// Returns the transaction's **commit ticket** — its position in the
    /// serialization order. The between conditions guarantee that replaying
    /// the committed transactions serially in ticket order reproduces every
    /// recorded return value and the final abstract state (the differential
    /// harness checks exactly this). Commit takes each stripe it logged in
    /// once, to remove its entries, and no lock at all if it executed
    /// nothing.
    pub fn commit(mut self) -> u64 {
        self.finished = true;
        let shared = &self.runtime.shared;
        // The ticket must be drawn *before* any entry disappears: a
        // transaction that executes a non-commuting operation can only be
        // admitted after the removal from that operation's stripe, so its
        // own (later) fetch_add is guaranteed a larger ticket — the mutex
        // release/acquire orders the two RMWs. Removing first would let that
        // transaction draw a smaller ticket and break the replay order. It
        // is also drawn before `leave` releases the gate, which is what
        // serializes tickets across mode transitions: a transaction on the
        // other gate side begins strictly after this release, so its ticket
        // is strictly later.
        let ticket = shared.hot.commit_seq.fetch_add(1, Ordering::Relaxed) + 1;
        let _ = shared.release(
            self.id,
            std::mem::take(&mut self.stripes),
            self.changed,
            |_, _| Ok(()),
        );
        if self.mode == TxnMode::Degraded {
            shared.hot.degraded_commits.fetch_add(1, Ordering::Relaxed);
        }
        self.leave(false);
        ticket
    }

    /// Aborts the transaction: its operations are rolled back with the
    /// verified inverse operations, newest first within each stripe. A
    /// transaction that executed no operations aborts without taking any
    /// lock.
    pub fn abort(mut self) {
        self.finished = true;
        self.rollback();
    }

    fn rollback(&mut self) {
        let shared = &self.runtime.shared;
        shared.hot.aborts.fetch_add(1, Ordering::Relaxed);
        if self.stripes == 0 {
            // No entry and no effect on the structure: the abort is a
            // counter bump (plus the gate release if an admission-refused
            // first operation already picked a path).
            self.leave(true);
            return;
        }
        let injected = shared
            .options
            .faults
            .as_ref()
            .is_some_and(|faults| faults.fire_rollback_failure(self.id));
        let id = self.id;
        // A stripe's entries are removed and undone in one critical section:
        // otherwise a concurrent admission could evaluate against a state
        // that still contains an effect whose log entry has already
        // vanished.
        let stripes = std::mem::take(&mut self.stripes);
        let undone = shared.release(id, stripes, self.changed, |stripe, run| {
            if injected {
                // Fault injection: behave exactly as if the first inverse
                // had been rejected.
                return Err(format!(
                    "rolling back txn {id}: injected rollback failure (fault plan)"
                ));
            }
            for at in run.rev() {
                let Some((op, args)) = shared.rollback.inverse_call(&stripe.entries[at].entry)
                else {
                    // Nothing to undo: an observer, or an update that changed
                    // nothing (e.g. `add` returned false).
                    continue;
                };
                if let Err(e) = stripe.apply(&op, &args, &shared.hot.version) {
                    // A verified inverse failed to apply: the structure no
                    // longer matches the log (something mutated it outside
                    // the protocol, or an invariant broke). Panicking here
                    // — while holding a stripe lock — used to take the whole
                    // process down; instead, poison the runtime so every
                    // subsequent operation is refused with a diagnosable
                    // [`TxnError::Poisoned`], and stop undoing: applying
                    // more inverses to a state we no longer understand
                    // could only compound the damage.
                    return Err(format!(
                        "rolling back txn {id}: verified inverse `{op}` of `{}` was rejected: {e}",
                        stripe.entries[at].entry.op
                    ));
                }
            }
            Ok(())
        });
        if let Err(reason) = undone {
            shared.hot.rollback_failures.fetch_add(1, Ordering::Relaxed);
            let _ = shared.poison.set(reason);
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
        // Hold every stripe lock hostage on another thread; an empty commit
        // or abort must still complete because it never touches a lock.
        let rt = set_runtime();
        assert_eq!(rt.shared.stripes.len(), STRIPES);
        let hold = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(true));
        let rt2 = rt.clone();
        let hold2 = std::sync::Arc::clone(&hold);
        let blocker = std::thread::spawn(move || {
            let _guards = rt2.shared.hold(None);
            while hold2.load(Ordering::Relaxed) {
                std::thread::yield_now();
            }
        });
        // Give the blocker time to take the locks (the last one last).
        while rt.shared.stripes[STRIPES - 1].0.try_lock().is_some() {
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

    /// The entries of a transaction, as `(op, pre_state)`, read across its
    /// stripes: stripe by stripe, an entry logged in every stripe once.
    fn logged_pre_states(
        rt: &SpeculativeRuntime,
        txn: &Transaction,
    ) -> Vec<(String, Option<Value>)> {
        let held = rt.shared.hold(None);
        let mut logged = Vec::new();
        for (i, stripe) in held.guards().iter().enumerate() {
            for op in &stripe.entries {
                if op.entry.txn == txn.id() && (i == 0 || rt.shared.keyed(op.op_idx)) {
                    logged.push((op.entry.op.clone(), op.entry.pre_state.clone()));
                }
            }
        }
        logged
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
        // A later update leaves the logged pre-state as it was: the entry and
        // the live mirror share one array until the update copies it.
        t.execute("addAt", &[Value::Int(0), Value::elem(3)])
            .unwrap();
        let pre = logged_pre_states(&rt, &t)[1].1.clone().unwrap();
        assert_eq!(
            AbstractState::from_value(&pre).unwrap(),
            AbstractState::List(vec![ElemId(2), ElemId(1)])
        );
        let live = AbstractState::List(vec![ElemId(3), ElemId(2), ElemId(1)]);
        assert_eq!(rt.snapshot(), live);
        let mirror = rt.shared.hold(None).guards()[0]
            .tracked
            .state_value()
            .clone();
        assert_eq!(AbstractState::from_value(&mirror).unwrap(), live);
        t.commit();
    }

    /// A set or map splits into its stripes: their union is the caller's
    /// abstract state, every key sits in its own stripe (which
    /// `check_invariants` checks too), and a sequence stays whole.
    #[test]
    fn carved_stripes_partition_the_callers_state() {
        for name in ["HashSet", "ListSet", "HashTable", "AssociationList"] {
            for n in [0u32, 20, 3_000] {
                let mut structure = AnyStructure::by_name(name).unwrap();
                for k in 1..=n {
                    let key = Value::elem(k * 3);
                    let args = match structure.interface() {
                        semcommute_spec::InterfaceId::Set => vec![key],
                        _ => vec![key, Value::elem(k)],
                    };
                    let op = if args.len() == 1 { "add" } else { "put" };
                    structure.apply(op, &args).unwrap();
                }
                let whole = structure.abstract_state();
                let rt = SpeculativeRuntime::new(structure);
                assert_eq!(rt.shared.stripes.len(), STRIPES, "{name}");
                assert_eq!(rt.snapshot(), whole, "{name} n={n}");
                assert_eq!(rt.check_invariants(), Ok(()), "{name} n={n}");
                let held = rt.shared.hold(None);
                let mut keys = 0;
                for (i, stripe) in held.guards().iter().enumerate() {
                    for key in stripe.tracked.inner().keys() {
                        assert_eq!(stripe_of(key, STRIPE_BITS), i, "{name}: {key}");
                        keys += 1;
                    }
                }
                assert_eq!(keys, n, "{name}");
            }
        }
        for name in ["ArrayList", "Accumulator"] {
            let rt = SpeculativeRuntime::new(AnyStructure::by_name(name).unwrap());
            assert_eq!(rt.shared.stripes.len(), 1, "{name}");
            assert_eq!(rt.shared.keyed, 0, "{name}");
        }
    }

    /// `check_invariants` refuses a key outside its own stripe.
    #[test]
    fn a_key_in_a_foreign_stripe_breaks_the_invariant() {
        let rt = set_runtime();
        let key = semcommute_logic::ElemId(5);
        let foreign = (stripe_of(key, STRIPE_BITS) + 1) % STRIPES;
        rt.shared
            .lock(foreign)
            .tracked
            .apply("add", &[Value::Elem(key)])
            .unwrap();
        let err = rt.check_invariants().unwrap_err();
        assert!(err.contains("not its own stripe"), "{err}");
    }

    /// A `size` is logged in every stripe but pending once, and every set
    /// and map pair that reads the state starts with an operation that
    /// locks every stripe — the only entries whose version is recorded.
    #[test]
    fn size_is_logged_everywhere_and_pending_once() {
        let rt = set_runtime();
        let mut t = rt.begin();
        t.execute("add", &[Value::elem(1)]).unwrap();
        t.execute("size", &[]).unwrap();
        t.execute("contains", &[Value::elem(2)]).unwrap();
        assert_eq!(rt.pending_operations(), 3);
        assert_eq!(t.stripes, u64::MAX);
        let held = rt.shared.hold(None);
        let size_entries: usize = held
            .guards()
            .iter()
            .map(|stripe| {
                stripe
                    .entries
                    .iter()
                    .filter(|op| op.entry.op == "size")
                    .count()
            })
            .sum();
        assert_eq!(size_entries, STRIPES);
        drop(held);
        t.commit();
        assert_eq!(rt.pending_operations(), 0);
        for interface in [
            semcommute_spec::InterfaceId::Set,
            semcommute_spec::InterfaceId::Map,
        ] {
            let rt = SpeculativeRuntime::new(
                AnyStructure::by_name(if interface == semcommute_spec::InterfaceId::Set {
                    "HashSet"
                } else {
                    "HashTable"
                })
                .unwrap(),
            );
            let g = &rt.shared.gatekeeper;
            for (first, second) in g.pairs() {
                let (i, j) = (g.op_index(&first).unwrap(), g.op_index(&second).unwrap());
                if g.pair_indexed(i, j).reads_state() {
                    assert!(!rt.shared.keyed(i), "{interface}: {first}/{second}");
                }
            }
        }
    }
}
