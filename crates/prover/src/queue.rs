//! A work-stealing scheduler over proof obligations.
//!
//! The verification driver used to split the catalog statically: one thread
//! group per interface, each group chunking its conditions. On skewed
//! catalogs (ArrayList dominates the paper's wall-clock) that leaves three
//! groups idle while one finishes. This module replaces the static split
//! with a single flat work queue:
//!
//! * every submitted obligation is addressed by its **canonical hash**
//!   ([`Portfolio::canonical_key`]: the structural hash of the simplified
//!   obligation mixed with the scope). Keying — the simplify + hash
//!   pass over the obligation — happens **on the worker that pops
//!   the submission**, not on the submitting thread: an up-front serial
//!   keying pre-pass was the scheduler's Amdahl floor at high worker
//!   counts. Canonically identical submissions still collapse: the first
//!   worker to key a hash *claims* it in a sharded in-flight table (sharded
//!   exactly like the verdict cache) and proves it; workers that key the
//!   same hash while the claim is open *subscribe* and have the verdict
//!   fanned out to them when the claimant publishes; workers that key it
//!   after publication answer directly from the table — in every case the
//!   hash is proved at most once per run;
//! * submissions are distributed round-robin over per-worker deques; a
//!   worker pops from the front of its own deque and, when empty, **steals
//!   a batch** (half the victim's remaining submissions) from the back of
//!   another worker's deque, so a worker that drew cheap structural
//!   obligations immediately takes over part of a loaded worker's share;
//! * workers publish verdicts through the portfolio's sharded
//!   [`VerdictCache`](crate::portfolio::VerdictCache), keyed by the same
//!   canonical hash, so duplicate work
//!   is impossible even across scheduler runs sharing a cache;
//! * an optional [`ExitGuard`] per obligation group (the driver uses one per
//!   testing method) reproduces the sequential early-exit semantics: once
//!   the obligation at index `i` of a group fails, obligations of the same
//!   group at indices `> i` may be skipped — but never obligations at lower
//!   indices, so the group's reported verdict (the *first* failing
//!   obligation in program order) is exactly the one an in-order proof of
//!   the group would report;
//! * obligations are **splittable**: when the claimed obligation needs a
//!   finite-model search whose unreduced candidate space exceeds the
//!   *split threshold*, the worker turns it into range tasks Cilk-style —
//!   it repeatedly pushes the back half of its remaining range onto the
//!   front of its own deque (where thieves steal from the back, so a thief
//!   takes the largest, farthest-away ranges) and scans the front chunk
//!   itself. All subranges of one obligation share a
//!   [`SearchShared`]: an `AtomicU64`
//!   minimum-position early-exit guard plus merged work counters, so the
//!   finalized verdict — including which counter-model is reported and
//!   which evaluation error decides an `Unknown` — is exactly the
//!   sequential scan's, at every worker count and threshold. The last
//!   subrange to complete finalizes, publishes, and fans out to
//!   subscribers. Without splitting, a handful of monolithic obligations
//!   (the ArrayList searches run millions of candidates) pin one worker
//!   each while the rest of the pool idles; with it, the largest obligation
//!   parallelizes like the rest of the catalog.
//!
//! Every width runs the same worker loop on `workers` scoped threads. At one
//! worker the single deque holds the submissions in submission order, so
//! they are processed in order, and splitting is off (there is no one to
//! steal a range).

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use crate::finite::{ModelSearch, SearchShared};
use crate::obligation::Obligation;
use crate::portfolio::{Portfolio, Started};
use crate::stats::ProofStats;
use crate::verdict::Verdict;

/// The default split threshold: obligations whose unreduced candidate space
/// is at most this many positions run as one task; larger searches are split
/// into stealable range chunks of roughly this size. Large enough that a
/// chunk amortizes its deque traffic and iterator resume by tens of
/// milliseconds of scanning, small enough that the catalog's monolithic
/// ArrayList obligations shatter into hundreds of stealable pieces.
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
    /// driver uses one portfolio per interface scope, all sharing one
    /// sharded cache).
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
    /// worker that pops a submission, so guard-skipped submissions (which
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
    /// at a lower index when the submission was popped.
    pub skipped: u64,
    /// Successful steal operations (a batch moved between worker deques).
    pub steals: u64,
    /// Tasks moved by those steals.
    pub stolen_tasks: u64,
    /// Split operations: each time a worker pushed the back half of a model
    /// search's remaining range onto its deque for thieves.
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
    /// [`ProofStats::errors`], each prefixed with the obligation name.
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

/// The in-flight dedup table of one scheduler run: canonical hash →
/// [`KeyState`], sharded exactly like the verdict cache
/// ([`crate::portfolio::N_SHARDS`], same `key % N` split) so concurrent
/// workers claiming and publishing different hashes rarely contend.
///
/// Keying now happens on the workers, so two workers can key the same hash
/// concurrently; this table is what keeps each hash proved at most once per
/// run without ever blocking a worker — a loser of the claim race subscribes
/// and moves on to its next submission.
struct InFlight {
    shards: [Mutex<HashMap<u128, KeyState>>; crate::portfolio::N_SHARDS],
}

impl InFlight {
    fn new() -> InFlight {
        InFlight {
            shards: std::array::from_fn(|_| Mutex::new(HashMap::new())),
        }
    }

    fn shard(&self, key: u128) -> &Mutex<HashMap<u128, KeyState>> {
        &self.shards[(key % self.shards.len() as u128) as usize]
    }

    /// Number of distinct canonical hashes keyed during the run.
    fn unique(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|p| p.into_inner()).len())
            .sum()
    }
}

/// One unit of worker-loop work: a whole submitted obligation, or one range
/// of a split model search.
enum Task {
    /// Index into the submission list.
    Submission(usize),
    /// Scan unreduced positions `[lo, hi)` of a shared model search
    /// (splitting further when the range still exceeds the threshold).
    Range {
        /// The obligation-wide search state this range belongs to.
        search: Arc<ActiveSearch>,
        /// Inclusive start of the range.
        lo: u64,
        /// Exclusive end of the range.
        hi: u64,
    },
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

/// Proves a batch of obligations with one portfolio and `workers` stealing
/// workers. Convenience wrapper over [`prove_all_scheduled`]; since no
/// early-exit guards are involved every verdict is present.
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

/// Proves a batch of [`ScheduledObligation`]s on `workers` work-stealing
/// workers, splitting any claimed finite-model search whose unreduced
/// candidate space exceeds `split_threshold` positions into stealable range
/// tasks (`u64::MAX` disables splitting; values below 1 are clamped to 1).
///
/// The returned verdicts are positionally aligned with `items`. Each
/// submission is keyed (simplify + hash) by the worker that pops it; the
/// submission that claims a canonical hash first receives the prover's
/// verdict, and every other submission of that hash receives it as a dedup
/// hit (zeroed work counters, `cache_hits = 1`), mirroring what
/// [`Portfolio::prove`] reports for a cache hit — so accumulated statistics
/// are identical to what a sequential run over the same submissions would
/// have accumulated. A submission whose early-exit guard has already failed
/// at a lower index when it is popped is skipped outright (verdict `None`),
/// exactly as an in-order proof of the group would have stopped before it.
/// Verdicts — including reported counter-models and deciding `Unknown`
/// reasons — are identical at every worker count and split threshold.
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
    let mut report = QueueReport {
        submitted,
        ..QueueReport::default()
    };
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
    // (every position its own task); a lone worker has no thief to split
    // for.
    let split_threshold = if workers <= 1 {
        u64::MAX
    } else {
        split_threshold.max(1)
    };

    let in_flight = InFlight::new();
    let results: Vec<OnceLock<Verdict>> = (0..submitted).map(|_| OnceLock::new()).collect();
    let proved = AtomicU64::new(0);
    let cache_hits = AtomicU64::new(0);
    let steals = AtomicU64::new(0);
    let stolen_tasks = AtomicU64::new(0);
    let splits = AtomicU64::new(0);
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

    // The answer a duplicate submission receives: the proved verdict with
    // zeroed work counters and `cache_hits = 1`, mirroring what
    // [`Portfolio::prove`] reports for a cache hit — so accumulated
    // statistics are identical to a sequential run over the submissions.
    let dedup_hit = |verdict: &Verdict| -> Verdict {
        let mut hit = verdict.clone();
        let prover = hit.stats().prover;
        *hit.stats_mut() = ProofStats {
            prover,
            cache_hits: 1,
            ..ProofStats::none()
        };
        hit
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
            obligation_walls
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .push(verdict.stats().elapsed);
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
            errors
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .extend(found);
        }

        // Publish, collecting whoever subscribed while the proof ran.
        let subscribers = {
            let mut shard = in_flight
                .shard(key)
                .lock()
                .unwrap_or_else(|p| p.into_inner());
            match shard.insert(key, KeyState::Done(verdict.clone())) {
                Some(KeyState::Claimed(subscribers)) => subscribers,
                // Unreachable: the claim was held exclusively.
                _ => Vec::new(),
            }
        };
        deliver(index, guard, verdict.clone());
        for (subscriber, guard) in subscribers {
            cache_hits.fetch_add(1, Ordering::Relaxed);
            deliver(subscriber, &guard, dedup_hit(&verdict));
        }
    };

    // Pops one submission: guard check, worker-side keying, claim/dedup.
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
            // popping worker. The hash is unseeded, so every worker computes
            // the same key.
            let key = portfolio.canonical_key(&item.obligation);
            let published = {
                let mut shard = in_flight
                    .shard(key)
                    .lock()
                    .unwrap_or_else(|p| p.into_inner());
                match shard.get_mut(&key) {
                    None => {
                        shard.insert(key, KeyState::Claimed(Vec::new()));
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
                deliver(index, &item.guard, dedup_hit(&verdict));
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
                        // for the worker loop to scan as stealable range tasks.
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

    // Seed the per-worker deques round-robin so every worker starts
    // with a cross-section of the catalog, then let emptied workers
    // steal batches from the back of loaded ones. `pending` counts
    // tasks queued or running; a worker only exits when it finds
    // nothing to steal *and* nothing is still running — a running
    // range task may yet split and repopulate the deques.
    let deques: Vec<Mutex<VecDeque<Task>>> = (0..workers)
        .map(|w| {
            Mutex::new(
                (0..submitted)
                    .filter(|i| i % workers == w)
                    .map(Task::Submission)
                    .collect::<VecDeque<Task>>(),
            )
        })
        .collect();
    let pending = AtomicU64::new(submitted as u64);
    std::thread::scope(|scope| {
        for me in 0..workers {
            let (deques, items, pending) = (&deques, &items, &pending);
            let (process_submission, finish_range) = (&process_submission, &finish_range);
            let (steals, stolen_tasks) = (&steals, &stolen_tasks);
            let (splits, subranges) = (&splits, &subranges);
            scope.spawn(move || {
                // Scans `[lo, hi)` of a split search Cilk-style: while
                // the range exceeds the threshold, push the back half
                // onto the *front* of the own deque (the owner drains
                // nearest-first for locality; thieves take from the
                // back, so a thief grabs the largest, farthest range)
                // and keep the front. The chunk scan shares the
                // search's minimum-position guard, so racing chunks
                // stop as soon as the verdict is decided to their left.
                let run_chunk = |search: Arc<ActiveSearch>, lo: u64, mut hi: u64| {
                    while hi - lo > split_threshold {
                        let mid = lo + (hi - lo) / 2;
                        search.outstanding.fetch_add(1, Ordering::Relaxed);
                        pending.fetch_add(1, Ordering::Relaxed);
                        splits.fetch_add(1, Ordering::Relaxed);
                        deques[me]
                            .lock()
                            .unwrap_or_else(|p| p.into_inner())
                            .push_front(Task::Range {
                                search: search.clone(),
                                lo: mid,
                                hi,
                            });
                        hi = mid;
                    }
                    subranges.fetch_add(1, Ordering::Relaxed);
                    search.search.run_range(lo, hi, &search.shared);
                    finish_range(&search);
                };
                // Consecutive empty pop+steal rounds: yield at first,
                // then back off to short sleeps so workers starved by a
                // long-running unsplittable task don't burn their cores
                // polling the deques.
                let mut idle_rounds: u32 = 0;
                loop {
                    let next = deques[me]
                        .lock()
                        .unwrap_or_else(|p| p.into_inner())
                        .pop_front();
                    let task = match next {
                        Some(task) => task,
                        None => {
                            // Steal half of the first non-empty
                            // victim's deque (from the back, so the
                            // victim keeps the front it is about to
                            // pop).
                            let mut batch: VecDeque<Task> = VecDeque::new();
                            for offset in 1..workers {
                                let victim = (me + offset) % workers;
                                let mut v =
                                    deques[victim].lock().unwrap_or_else(|p| p.into_inner());
                                let take = v.len().div_ceil(2);
                                if take == 0 {
                                    continue;
                                }
                                for _ in 0..take {
                                    if let Some(task) = v.pop_back() {
                                        batch.push_front(task);
                                    }
                                }
                                break;
                            }
                            match batch.pop_front() {
                                None => {
                                    if pending.load(Ordering::Acquire) == 0 {
                                        // Nothing queued, nothing
                                        // running: done.
                                        break;
                                    }
                                    // A running task may still split;
                                    // wait for work to appear — yield
                                    // briefly, then sleep (capped at
                                    // 1 ms so newly split ranges are
                                    // picked up promptly).
                                    idle_rounds = idle_rounds.saturating_add(1);
                                    if idle_rounds < 16 {
                                        std::thread::yield_now();
                                    } else {
                                        let exp = (idle_rounds - 16).min(4);
                                        std::thread::sleep(Duration::from_micros(62 << exp));
                                    }
                                    continue;
                                }
                                Some(task) => {
                                    steals.fetch_add(1, Ordering::Relaxed);
                                    stolen_tasks
                                        .fetch_add(batch.len() as u64 + 1, Ordering::Relaxed);
                                    if !batch.is_empty() {
                                        deques[me]
                                            .lock()
                                            .unwrap_or_else(|p| p.into_inner())
                                            .append(&mut batch);
                                    }
                                    task
                                }
                            }
                        }
                    };
                    idle_rounds = 0;
                    match task {
                        Task::Submission(index) => {
                            if let Some(active) = process_submission(index, &items[index]) {
                                let total = active.search.total();
                                run_chunk(active, 0, total);
                            }
                        }
                        Task::Range { search, lo, hi } => run_chunk(search, lo, hi),
                    }
                    pending.fetch_sub(1, Ordering::Release);
                }
            });
        }
    });

    report.unique = in_flight.unique();
    let mut skipped = 0u64;
    let verdicts: Vec<Option<Verdict>> = results
        .into_iter()
        .map(|slot| {
            let verdict = slot.into_inner();
            if verdict.is_none() {
                skipped += 1;
            }
            verdict
        })
        .collect();
    report.proved = proved.into_inner();
    report.cache_hits = cache_hits.into_inner();
    report.skipped = skipped;
    report.steals = steals.into_inner();
    report.stolen_tasks = stolen_tasks.into_inner();
    report.splits = splits.into_inner();
    report.subranges = subranges.into_inner();
    let mut walls = obligation_walls
        .into_inner()
        .unwrap_or_else(|p| p.into_inner());
    walls.sort_unstable();
    if let Some(&max) = walls.last() {
        report.max_obligation_wall = max;
        report.p99_obligation_wall = walls[((walls.len() * 99) / 100).min(walls.len() - 1)];
    }
    report.errors = errors.into_inner().unwrap_or_else(|p| p.into_inner());
    QueueRun { verdicts, report }
}
