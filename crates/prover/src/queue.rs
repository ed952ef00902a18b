//! The obligation scheduler: one work queue over proof obligations.
//!
//! The verification driver submits every interface's obligations as one
//! flat batch, and `workers` scoped threads drain it through one
//! mutex-guarded queue:
//!
//! * submissions are taken **in submission order** through a cursor.
//!   Keying — the simplify + hash pass of [`Portfolio::canonical_key`]: the
//!   structural hash of the simplified obligation mixed with the scope —
//!   happens **on the worker that takes the submission**, so no serial
//!   keying pre-pass bounds the run. Canonically identical submissions
//!   collapse: the first worker to key a hash *claims* it in the run's
//!   in-flight table and proves it; workers that key the same hash while
//!   the claim is open *subscribe* and have the verdict fanned out to them
//!   when the claimant publishes; workers that key it after publication
//!   answer directly from the table — in every case the hash is proved at
//!   most once per run;
//! * workers publish verdicts through the portfolio's
//!   [`VerdictCache`](crate::portfolio::VerdictCache), keyed by the same
//!   canonical hash, so duplicate work is impossible even across scheduler
//!   runs sharing a cache;
//! * an optional [`ExitGuard`] per obligation group (the driver uses one per
//!   testing method) reproduces the sequential early-exit semantics: once
//!   the obligation at index `i` of a group fails, obligations of the same
//!   group at indices `> i` may be skipped — but never obligations at lower
//!   indices, so the group's reported verdict (the *first* failing
//!   obligation in program order) is exactly the one an in-order proof of
//!   the group would report;
//! * obligations are **splittable**: when the claimed obligation needs a
//!   finite-model search whose unreduced candidate space exceeds the
//!   *split threshold*, the worker repeatedly pushes the back half of its
//!   remaining range onto the queue's range FIFO and scans the front chunk
//!   itself. Ranges are taken before the next submission, oldest first, so
//!   the first (largest) back half of a search is the first one another
//!   worker picks up. All subranges of one obligation share a
//!   [`SearchShared`]: an `AtomicU64` minimum-position early-exit guard plus
//!   merged work counters, so the finalized verdict — including which
//!   counter-model is reported and which evaluation error decides an
//!   `Unknown` — is exactly the sequential scan's, at every worker count and
//!   threshold. The last subrange to complete finalizes, publishes, and fans
//!   out to subscribers. Without splitting, a handful of monolithic
//!   obligations (the ArrayList searches run millions of candidates) pin
//!   one worker each while the rest of the pool idles.
//!
//! A worker that finds the queue empty while another task is still running
//! blocks on a condition variable: the running task may yet split, so it is
//! woken when a range is pushed, and every waiter is woken to exit once
//! nothing is queued or running.
//!
//! Every width runs the same worker loop on `workers` scoped threads. At one
//! worker the submissions are processed in submission order and splitting
//! is off (no other worker could take a range).

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

use crate::finite::{ModelSearch, SearchShared};
use crate::obligation::Obligation;
use crate::portfolio::{Portfolio, Started};
use crate::verdict::Verdict;

/// The default split threshold: obligations whose unreduced candidate space
/// is at most this many positions run as one task; larger searches are split
/// into range chunks of roughly this size. Large enough that a chunk
/// amortizes its queue traffic and iterator resume by tens of milliseconds
/// of scanning, small enough that the catalog's monolithic ArrayList
/// obligations shatter into hundreds of pieces.
pub const DEFAULT_SPLIT_THRESHOLD: u64 = 32_768;
/// The process-wide default split threshold:
/// [`DEFAULT_SPLIT_THRESHOLD`] unless the `SEMCOMMUTE_SPLIT` environment
/// variable holds a number when first consulted.
///
/// The env override exists for the CI small-split leg: running the whole
/// test suite with a much smaller threshold (every large search shatters
/// into dozens of range tasks) is the cheapest way to re-validate every
/// scheduler-dependent test against aggressive splitting; the differential
/// tests additionally pin single-position thresholds explicitly. Verdicts
/// must not depend on the threshold, so no fingerprint or cache key
/// includes it.
pub fn default_split_threshold() -> u64 {
    static DEFAULT: OnceLock<u64> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        std::env::var("SEMCOMMUTE_SPLIT")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(DEFAULT_SPLIT_THRESHOLD)
    })
}

/// Early-exit flag shared by the obligations of one group (one generated
/// testing method, in the verification driver).
///
/// An in-order proof of a method's obligations stops at the first failure.
/// In a parallel run the group's obligations complete out of order, so the
/// guard tracks the *lowest* failing index instead: workers skip
/// obligations strictly above it, and because indices below the current
/// minimum are never skipped, the minimum converges to exactly the index an
/// in-order run would have stopped at.
#[derive(Debug, Default)]
pub struct ExitGuard {
    failed_at: AtomicU32,
}

impl ExitGuard {
    /// Creates a guard with no failure recorded.
    pub fn new() -> ExitGuard {
        ExitGuard {
            failed_at: AtomicU32::new(u32::MAX),
        }
    }

    /// Records that the obligation at `index` failed (keeps the minimum).
    pub fn fail(&self, index: u32) {
        self.failed_at.fetch_min(index, Ordering::SeqCst);
    }

    /// The lowest failing index recorded so far.
    pub fn failed_at(&self) -> Option<u32> {
        match self.failed_at.load(Ordering::SeqCst) {
            u32::MAX => None,
            i => Some(i),
        }
    }

    /// `true` when the obligation at `index` no longer needs proving: some
    /// obligation of the group at a strictly lower index already failed.
    pub fn skips(&self, index: u32) -> bool {
        self.failed_at.load(Ordering::SeqCst) < index
    }
}

/// One obligation submitted to the scheduler.
#[derive(Debug, Clone)]
pub struct ScheduledObligation {
    /// The obligation to prove.
    pub obligation: Obligation,
    /// Index into the portfolio slice given to [`prove_all_scheduled`] (the
    /// driver uses one portfolio per interface scope).
    pub portfolio: usize,
    /// Early-exit group membership: the shared guard and this obligation's
    /// index within its group.
    pub guard: Option<(Arc<ExitGuard>, u32)>,
}

impl ScheduledObligation {
    /// Wraps an obligation with the default portfolio and no early-exit
    /// group.
    pub fn new(obligation: Obligation) -> ScheduledObligation {
        ScheduledObligation {
            obligation,
            portfolio: 0,
            guard: None,
        }
    }

    /// Selects the portfolio (by index) this obligation is proved with.
    pub fn with_portfolio(mut self, portfolio: usize) -> ScheduledObligation {
        self.portfolio = portfolio;
        self
    }

    /// Joins an early-exit group at the given index.
    pub fn with_guard(mut self, guard: Arc<ExitGuard>, index: u32) -> ScheduledObligation {
        self.guard = Some((guard, index));
        self
    }
}

/// Counters describing one scheduler run.
///
/// The accounting invariant — checked by the scheduler property tests — is
/// `proved + cache_hits + skipped == submitted`: every submitted obligation
/// is either proved (it was the first of its canonical hash and missed the
/// verdict cache), answered by dedup (a duplicate submission, or a verdict
/// already in the shared cache), or skipped by its early-exit guard.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueueReport {
    /// Obligations submitted.
    pub submitted: usize,
    /// Unique canonical hashes keyed during the run. Keying happens on the
    /// worker that takes a submission, so guard-skipped submissions (which
    /// are never keyed) do not contribute.
    pub unique: usize,
    /// Obligations actually sent to the prover portfolio (cache misses).
    pub proved: u64,
    /// Submissions answered without proving: duplicates deduplicated
    /// through the in-flight table (subscribed while a claim was open, or
    /// keyed after publication) plus claims whose verdict was already in
    /// the shared cache.
    pub cache_hits: u64,
    /// Submissions skipped because their early-exit guard had already failed
    /// at a lower index when the submission was taken.
    pub skipped: u64,
    /// Split-off ranges run by a worker other than the one that split them
    /// (zero at one worker, where nothing splits).
    pub steals: u64,
    /// Split operations: each time a worker pushed the back half of a model
    /// search's remaining range onto the queue.
    pub splits: u64,
    /// Range chunks actually scanned (a search that never split counts
    /// zero; a split search counts one per executed chunk).
    pub subranges: u64,
    /// The longest claim-to-verdict wall-clock of any proved obligation —
    /// the skew metric: without splitting this is the wall of the largest
    /// monolithic model search (and the floor under the whole run's wall);
    /// with splitting it collapses toward the per-chunk cost.
    pub max_obligation_wall: Duration,
    /// The 99th-percentile claim-to-verdict wall-clock over proved
    /// obligations (equals the maximum for runs with under ~100 proofs).
    pub p99_obligation_wall: Duration,
    /// Aggregated errors: `Unknown` verdict reasons and the non-fatal
    /// evaluation errors the provers surfaced through
    /// [`ProofStats::errors`](crate::stats::ProofStats::errors), each
    /// prefixed with the obligation name.
    pub errors: Vec<String>,
}

/// The outcome of a scheduler run.
#[derive(Debug, Clone)]
pub struct QueueRun {
    /// One slot per submitted obligation, in submission order. `None` only
    /// for obligations skipped via their [`ExitGuard`].
    pub verdicts: Vec<Option<Verdict>>,
    /// Scheduler counters.
    pub report: QueueReport,
}

/// One submission's early-exit membership: its group guard and index.
type GuardRef = Option<(Arc<ExitGuard>, u32)>;

/// The per-run dedup state of one canonical hash.
enum KeyState {
    /// A worker keyed this hash first and is proving it; the listed
    /// submissions keyed it while the claim was open and will have the
    /// verdict fanned out to them when the claimant publishes.
    Claimed(Vec<(usize, GuardRef)>),
    /// The verdict is published; later submissions with this hash answer
    /// directly as dedup hits.
    Done(Verdict),
}

/// A split-off range of a model search, waiting in the queue.
struct Range {
    /// The obligation-wide search state this range belongs to.
    search: Arc<ActiveSearch>,
    /// Inclusive start of the range.
    lo: u64,
    /// Exclusive end of the range.
    hi: u64,
    /// The worker that split it off.
    owner: usize,
}

/// One unit of worker-loop work: a whole submitted obligation, or one range
/// of a split model search (split further when it still exceeds the
/// threshold).
enum Task {
    /// Index into the submission list.
    Submission(usize),
    /// A split-off range.
    Range(Range),
}

/// The run's work queue, all behind one mutex.
#[derive(Default)]
struct Work {
    /// The next submission to take.
    next: usize,
    /// Split-off ranges, oldest first.
    ranges: VecDeque<Range>,
    /// Tasks taken and not yet finished: while any runs, a range may still
    /// be pushed.
    running: usize,
    /// See [`QueueReport::splits`].
    splits: u64,
    /// See [`QueueReport::steals`].
    steals: u64,
}

impl Work {
    /// The next task for worker `me`, if one is queued: a split-off range
    /// before the next of the `submitted` submissions.
    fn take(&mut self, me: usize, submitted: usize) -> Option<Task> {
        let task = if let Some(range) = self.ranges.pop_front() {
            self.steals += u64::from(range.owner != me);
            Task::Range(range)
        } else if self.next < submitted {
            self.next += 1;
            Task::Submission(self.next - 1)
        } else {
            return None;
        };
        self.running += 1;
        Some(task)
    }
}

/// A claimed obligation whose finite-model search is running as range tasks.
struct ActiveSearch {
    /// The obligation's canonical hash (for publication).
    key: u128,
    /// Index of the portfolio that keyed the obligation.
    portfolio: usize,
    /// The claiming submission's index (receives the finalized verdict).
    submission: usize,
    /// The claiming submission's early-exit group membership.
    guard: GuardRef,
    /// The prepared search (lowered program + input space), scanned
    /// concurrently by range.
    search: ModelSearch,
    /// The minimum-position deciding-event guard and merged counters shared
    /// by every subrange.
    shared: SearchShared,
    /// Subranges queued or running; the worker that takes this to zero
    /// finalizes, publishes, and fans out the verdict.
    outstanding: AtomicU64,
}

/// Locks `mutex`, recovering the data of a poisoned one.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|p| p.into_inner())
}

/// Proves a batch of obligations with one portfolio on `workers` workers.
/// Convenience wrapper over [`prove_all_scheduled`]; since no early-exit
/// guards are involved every verdict is present.
pub fn prove_all(portfolio: &Portfolio, obligations: &[Obligation], workers: usize) -> QueueRun {
    let items = obligations
        .iter()
        .map(|ob| ScheduledObligation::new(ob.clone()))
        .collect();
    prove_all_scheduled(std::slice::from_ref(portfolio), items, workers)
}

/// [`prove_all_scheduled_split`] at the process-default split threshold
/// ([`default_split_threshold`]).
pub fn prove_all_scheduled(
    portfolios: &[Portfolio],
    items: Vec<ScheduledObligation>,
    workers: usize,
) -> QueueRun {
    prove_all_scheduled_split(portfolios, items, workers, default_split_threshold())
}

/// Proves a batch of [`ScheduledObligation`]s on `workers` workers sharing
/// one queue, splitting any claimed finite-model search whose unreduced
/// candidate space exceeds `split_threshold` positions into range tasks
/// (`u64::MAX` disables splitting; values below 1 are clamped to 1).
///
/// The returned verdicts are positionally aligned with `items`. Each
/// submission is keyed (simplify + hash) by the worker that takes it; the
/// submission that claims a canonical hash first receives the prover's
/// verdict, and every other submission of that hash receives it as a dedup
/// hit (zeroed work counters, `cache_hits = 1`), mirroring what [`Portfolio::prove`]
/// reports for a cache hit — so accumulated statistics are identical to
/// what a sequential run over the same submissions would have accumulated.
/// A submission whose early-exit guard has already failed at a lower index
/// when it is taken is skipped outright (verdict `None`), exactly as an
/// in-order proof of the group would have stopped before it. Verdicts —
/// including reported counter-models and deciding `Unknown` reasons — are
/// identical at every worker count and split threshold.
///
/// # Panics
///
/// Panics if an item's `portfolio` index is out of bounds of `portfolios`.
pub fn prove_all_scheduled_split(
    portfolios: &[Portfolio],
    items: Vec<ScheduledObligation>,
    workers: usize,
    split_threshold: u64,
) -> QueueRun {
    let submitted = items.len();
    for item in &items {
        assert!(
            item.portfolio < portfolios.len(),
            "scheduled obligation references portfolio {} of {}",
            item.portfolio,
            portfolios.len()
        );
    }

    // Workers are deliberately *not* clamped to the submission count: a
    // single submitted obligation can still fan out over every worker as
    // range tasks once its search splits.
    let workers = if submitted == 0 { 1 } else { workers.max(1) };
    // A chunk must make progress, so the smallest meaningful threshold is 1
    // (every position its own task); a lone worker has no one to split for.
    let split_threshold = if workers <= 1 {
        u64::MAX
    } else {
        split_threshold.max(1)
    };

    // Canonical hash → dedup state, for the run. Keying happens on the
    // workers, so two of them can key the same hash concurrently; this
    // table keeps each hash proved at most once per run without blocking a
    // worker — a loser of the claim race subscribes and moves on.
    let in_flight: Mutex<HashMap<u128, KeyState>> = Mutex::new(HashMap::new());
    let results: Vec<OnceLock<Verdict>> = (0..submitted).map(|_| OnceLock::new()).collect();
    let proved = AtomicU64::new(0);
    let cache_hits = AtomicU64::new(0);
    let subranges = AtomicU64::new(0);
    let errors: Mutex<Vec<String>> = Mutex::new(Vec::new());
    // Claim-to-verdict wall-clock of every proved obligation, for the skew
    // metrics (max / p99) that make imbalance visible in BENCH files.
    let obligation_walls: Mutex<Vec<Duration>> = Mutex::new(Vec::new());

    // Hands a submission its verdict, recording a failure in its early-exit
    // group first so racing group members observe it as soon as possible.
    let deliver = |index: usize, guard: &GuardRef, verdict: Verdict| {
        if !verdict.is_valid() {
            if let Some((guard, group_index)) = guard {
                guard.fail(*group_index);
            }
        }
        let _ = results[index].set(verdict);
    };

    // Books a claimed obligation's verdict: counters, error aggregation,
    // publication through the in-flight table, delivery to the claiming
    // submission and fan-out to everyone who subscribed while it ran. Used
    // both for verdicts computed in one piece and for finalized split
    // searches.
    let complete = |key: u128, index: usize, guard: &GuardRef, verdict: Verdict, hit: bool| {
        if hit {
            cache_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            proved.fetch_add(1, Ordering::Relaxed);
            lock(&obligation_walls).push(verdict.stats().elapsed);
        }
        let name = &items[index].obligation.name;
        let mut found: Vec<String> = verdict
            .stats()
            .errors
            .iter()
            .map(|e| format!("{name}: {e}"))
            .collect();
        if let Verdict::Unknown { reason, stats } = &verdict {
            if !stats.errors.iter().any(|e| e == reason) {
                found.push(format!("{name}: {reason}"));
            }
        }
        if !found.is_empty() {
            lock(&errors).extend(found);
        }

        // Publish, collecting whoever subscribed while the proof ran.
        let subscribers = match lock(&in_flight).insert(key, KeyState::Done(verdict.clone())) {
            Some(KeyState::Claimed(subscribers)) => subscribers,
            // Unreachable: the claim was held exclusively.
            _ => Vec::new(),
        };
        for (subscriber, guard) in subscribers {
            cache_hits.fetch_add(1, Ordering::Relaxed);
            deliver(subscriber, &guard, verdict.clone().into_cache_hit());
        }
        deliver(index, guard, verdict);
    };

    // Takes one submission: guard check, worker-side keying, claim/dedup.
    // Returns a search to be run as range tasks when the claimed obligation
    // is large enough to split; everything else completes inline.
    let process_submission =
        |index: usize, item: &ScheduledObligation| -> Option<Arc<ActiveSearch>> {
            if let Some((guard, group_index)) = &item.guard {
                if guard.skips(*group_index) {
                    // Skipped: not even keyed. The submission's verdict slot
                    // stays `None`, counted as `skipped` at fan-in.
                    return None;
                }
            }
            let portfolio = &portfolios[item.portfolio];
            // Keying — simplify + hash of the obligation — runs here, on the
            // taking worker. The hash is unseeded, so every worker computes
            // the same key.
            let key = portfolio.canonical_key(&item.obligation);
            let published = {
                let mut in_flight = lock(&in_flight);
                match in_flight.get_mut(&key) {
                    None => {
                        in_flight.insert(key, KeyState::Claimed(Vec::new()));
                        None
                    }
                    Some(KeyState::Claimed(subscribers)) => {
                        subscribers.push((index, item.guard.clone()));
                        return None;
                    }
                    Some(KeyState::Done(verdict)) => Some(verdict.clone()),
                }
            };
            if let Some(verdict) = published {
                cache_hits.fetch_add(1, Ordering::Relaxed);
                deliver(index, &item.guard, verdict.into_cache_hit());
                return None;
            }

            // This worker holds the claim for `key`: prove it (the shared
            // verdict cache may still answer, e.g. from an earlier run).
            match portfolio.start_keyed(key, &item.obligation) {
                Started::Cached(verdict) => {
                    complete(key, index, &item.guard, verdict, true);
                    None
                }
                Started::Decided(verdict) => {
                    portfolio.publish_keyed(key, &verdict);
                    complete(key, index, &item.guard, verdict, false);
                    None
                }
                Started::Search(search) => {
                    if search.total() > split_threshold {
                        // Too large for one worker: hand back a shared search
                        // for the worker loop to scan as range tasks.
                        Some(Arc::new(ActiveSearch {
                            key,
                            portfolio: item.portfolio,
                            submission: index,
                            guard: item.guard.clone(),
                            shared: SearchShared::new(),
                            outstanding: AtomicU64::new(1),
                            search: *search,
                        }))
                    } else {
                        let verdict = search.run();
                        portfolio.publish_keyed(key, &verdict);
                        complete(key, index, &item.guard, verdict, false);
                        None
                    }
                }
            }
        };

    // Retires one subrange; the worker that retires the last one assembles
    // the merged verdict (minimum-position deciding event, summed counters)
    // and publishes it exactly as an unsplit proof would have been.
    let finish_range = |active: &Arc<ActiveSearch>| {
        if active.outstanding.fetch_sub(1, Ordering::AcqRel) == 1 {
            let verdict = active.search.finalize(&active.shared);
            portfolios[active.portfolio].publish_keyed(active.key, &verdict);
            complete(active.key, active.submission, &active.guard, verdict, false);
        }
    };

    let queue = Mutex::new(Work::default());
    // Signalled when a range is pushed, and when the last running task
    // finishes with nothing queued.
    let ready = Condvar::new();
    std::thread::scope(|scope| {
        for me in 0..workers {
            let (queue, ready, items) = (&queue, &ready, &items);
            let (process_submission, finish_range, subranges) =
                (&process_submission, &finish_range, &subranges);
            scope.spawn(move || {
                // Scans `[lo, hi)` of a split search: while the range
                // exceeds the threshold, push the back half onto the queue
                // and keep the front. The chunk scan shares the search's
                // minimum-position guard, so racing chunks stop as soon as
                // the verdict is decided to their left.
                let run_chunk = |search: Arc<ActiveSearch>, lo: u64, mut hi: u64| {
                    while hi - lo > split_threshold {
                        let mid = lo + (hi - lo) / 2;
                        search.outstanding.fetch_add(1, Ordering::Relaxed);
                        let mut work = lock(queue);
                        work.splits += 1;
                        work.ranges.push_back(Range {
                            search: search.clone(),
                            lo: mid,
                            hi,
                            owner: me,
                        });
                        drop(work);
                        ready.notify_one();
                        hi = mid;
                    }
                    subranges.fetch_add(1, Ordering::Relaxed);
                    search.search.run_range(lo, hi, &search.shared);
                    finish_range(&search);
                };
                let mut work = lock(queue);
                loop {
                    match work.take(me, submitted) {
                        Some(task) => {
                            drop(work);
                            match task {
                                Task::Submission(index) => {
                                    if let Some(active) = process_submission(index, &items[index]) {
                                        let total = active.search.total();
                                        run_chunk(active, 0, total);
                                    }
                                }
                                Task::Range(Range { search, lo, hi, .. }) => {
                                    run_chunk(search, lo, hi)
                                }
                            }
                            work = lock(queue);
                            work.running -= 1;
                        }
                        // Nothing queued, nothing running: done, and so is
                        // every waiter.
                        None if work.running == 0 => {
                            ready.notify_all();
                            break;
                        }
                        // A running task may still split: wait for it.
                        None => work = ready.wait(work).unwrap_or_else(|p| p.into_inner()),
                    }
                }
            });
        }
    });

    let work = queue.into_inner().unwrap_or_else(|p| p.into_inner());
    let verdicts: Vec<Option<Verdict>> = results.into_iter().map(OnceLock::into_inner).collect();
    let mut walls = obligation_walls
        .into_inner()
        .unwrap_or_else(|p| p.into_inner());
    walls.sort_unstable();
    let report = QueueReport {
        submitted,
        unique: in_flight
            .into_inner()
            .unwrap_or_else(|p| p.into_inner())
            .len(),
        proved: proved.into_inner(),
        cache_hits: cache_hits.into_inner(),
        skipped: verdicts.iter().filter(|v| v.is_none()).count() as u64,
        steals: work.steals,
        splits: work.splits,
        subranges: subranges.into_inner(),
        max_obligation_wall: walls.last().copied().unwrap_or_default(),
        p99_obligation_wall: walls
            .get((walls.len() * 99 / 100).min(walls.len().saturating_sub(1)))
            .copied()
            .unwrap_or_default(),
        errors: errors.into_inner().unwrap_or_else(|p| p.into_inner()),
    };
    QueueRun { verdicts, report }
}
