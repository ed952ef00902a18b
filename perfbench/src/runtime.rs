//! The runtime workloads: `set_read_mostly` and `list_positional`.
//!
//! Both are closed loops: each worker runs its pre-generated transactions one
//! after another, starting the next only when the previous one committed or
//! failed. A repetition builds a fresh runtime (structure construction,
//! prefill, runtime construction and one warm-up transaction that executes
//! every operation kind of the workload, which compiles the admission
//! programs) — that is `setup_s` — and then times the workers over the
//! scripts. Repetitions alternate between one worker and `nproc` workers.
//!
//! Transactions go through the public `begin` / `Transaction::execute` /
//! `commit` / `abort` calls with the same retry policy as
//! `SpeculativeRuntime::run` (retry on conflict after the runtime's own
//! `BackoffOptions::wait`). `run` itself cannot be used: it drops the
//! commit ticket, and the ticket order is what the replay oracle needs.
//!
//! After every repetition the outputs are checked: the structure's
//! invariants, `begun == commits + aborts`, and a serial replay of the
//! committed transactions in ticket order through `CoarseLockRuntime`,
//! which must reproduce every recorded return value and the final abstract
//! state.

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Barrier, OnceLock};
use std::time::Instant;

use semcommute_logic::Value;
use semcommute_runtime::rollback::rebuild;
use semcommute_runtime::{
    AnyStructure, CoarseLockRuntime, CommutativityGatekeeper, InverseRollback, LogEntry,
    RuntimeStats, SpeculativeRuntime, TrackedStructure, TxnError,
};
use semcommute_spec::AbstractState;

use crate::report::Outcome;
use crate::stats::{median, percentile, ratio};
use crate::trace::{durations_ns, span_totals, write_jsonl, NoTrace, Recorder, Tracer};
use crate::{another, RunArgs};

/// Operations per transaction.
pub const OPS_PER_TXN: usize = 4;

/// Retry budget per transaction, as a caller of `SpeculativeRuntime::run`
/// would pass it.
pub const MAX_RETRIES: usize = 1_000;

/// The two runtime operation mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// A `HashSet` read by `contains` 80 % of the time, written by
    /// `add` / `remove` otherwise, over a key domain four times the
    /// prefill.
    SetReadMostly,
    /// An `ArrayList` read by `get` / `indexOf` and written by `set` and
    /// size-preserving `addAt` + `removeAt` pairs.
    ListPositional,
}

/// Size of a runtime workload.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// The operation mix.
    pub mix: Mix,
    /// Elements in the structure before the timed window.
    pub prefill: usize,
    /// Transactions per worker per repetition.
    pub txns_per_worker: usize,
    /// Repetitions per width made even if `--seconds` runs out first.
    pub min_reps: usize,
}

impl RuntimeConfig {
    /// The benchmark's workload size.
    pub fn full(mix: Mix) -> RuntimeConfig {
        match mix {
            Mix::SetReadMostly => RuntimeConfig {
                mix,
                prefill: 10_000,
                txns_per_worker: 60_000,
                min_reps: 3,
            },
            Mix::ListPositional => RuntimeConfig {
                mix,
                prefill: 1_000,
                txns_per_worker: 24_000,
                min_reps: 3,
            },
        }
    }

    /// A small size for tests.
    pub fn quick(mix: Mix) -> RuntimeConfig {
        RuntimeConfig {
            mix,
            prefill: match mix {
                Mix::SetReadMostly => 200,
                Mix::ListPositional => 50,
            },
            txns_per_worker: 300,
            min_reps: 1,
        }
    }

    fn structure(&self) -> &'static str {
        match self.mix {
            Mix::SetReadMostly => "HashSet",
            Mix::ListPositional => "ArrayList",
        }
    }
}

/// One operation call.
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    /// Operation name.
    pub name: &'static str,
    /// Arguments.
    pub args: Vec<Value>,
}

fn op(name: &'static str, args: Vec<Value>) -> Op {
    Op { name, args }
}

/// splitmix64: small, seedable, and good enough for workload generation.
struct Rng(u64);

impl Rng {
    fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Every input of a workload, generated from the seed before anything is
/// timed.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The structure's name.
    pub structure: &'static str,
    /// Operations that fill the empty structure.
    pub prefill: Vec<Op>,
    /// The warm-up transaction: one operation of every kind the scripts use.
    pub warmup: Vec<Op>,
    /// Per worker, `txns_per_worker × OPS_PER_TXN` operations.
    pub scripts: Vec<Vec<Op>>,
}

/// Generates the inputs of a workload for `workers` workers.
pub fn generate(cfg: &RuntimeConfig, seed: u64, workers: usize) -> Inputs {
    let mut rng = Rng::new(seed, 0);
    match cfg.mix {
        Mix::SetReadMostly => {
            let domain = 4 * cfg.prefill as u64;
            let key = |rng: &mut Rng| vec![Value::elem(rng.below(domain) as u32 + 1)];
            let mut keys: Vec<u32> = (1..=domain as u32).collect();
            for i in 0..cfg.prefill {
                let j = i + rng.below((keys.len() - i) as u64) as usize;
                keys.swap(i, j);
            }
            let prefill = keys[..cfg.prefill]
                .iter()
                .map(|&k| op("add", vec![Value::elem(k)]))
                .collect();
            let outside = vec![Value::elem(domain as u32 + 1)];
            let warmup = vec![
                op("add", outside.clone()),
                op("contains", outside.clone()),
                op("remove", outside),
            ];
            let scripts = (0..workers)
                .map(|w| {
                    let mut rng = Rng::new(seed, w as u64 + 1);
                    (0..cfg.txns_per_worker * OPS_PER_TXN)
                        .map(|_| match rng.below(10) {
                            0..=7 => op("contains", key(&mut rng)),
                            8 => op("add", key(&mut rng)),
                            _ => op("remove", key(&mut rng)),
                        })
                        .collect()
                })
                .collect();
            Inputs {
                structure: cfg.structure(),
                prefill,
                warmup,
                scripts,
            }
        }
        Mix::ListPositional => {
            let n = cfg.prefill as u64;
            let values = 4 * n;
            let value = |rng: &mut Rng| Value::elem(rng.below(values) as u32 + 1);
            let index = |rng: &mut Rng, bound: u64| Value::Int(rng.below(bound) as i64);
            let prefill = (0..n)
                .map(|i| op("addAt", vec![Value::Int(i as i64), value(&mut rng)]))
                .collect();
            let warmup = vec![
                op("get", vec![Value::Int(0)]),
                op("indexOf", vec![Value::elem(1)]),
                op("set", vec![Value::Int(0), Value::elem(1)]),
                op("addAt", vec![Value::Int(0), Value::elem(1)]),
                op("removeAt", vec![Value::Int(0)]),
            ];
            // The list holds at least `n` elements at every moment — every
            // write transaction that grows it shrinks it back — so indices
            // below `n` are always in range and no operation is rejected.
            let read = |rng: &mut Rng| {
                if rng.below(2) == 0 {
                    op("get", vec![index(rng, n)])
                } else {
                    op("indexOf", vec![value(rng)])
                }
            };
            let scripts = (0..workers)
                .map(|w| {
                    let mut rng = Rng::new(seed, w as u64 + 1);
                    let mut script = Vec::with_capacity(cfg.txns_per_worker * OPS_PER_TXN);
                    for _ in 0..cfg.txns_per_worker {
                        // Shifting transactions conflict with nearly every
                        // concurrent positional read, and a conflict
                        // that outlasts the yield-only retries puts the
                        // other worker to sleep; at 1 % they keep aborts
                        // near 2 %, so the latency percentiles up to
                        // the 95th measure the program rather than how long
                        // the host takes to wake a backed-off thread.
                        match rng.below(100) {
                            0..=88 => {
                                for _ in 0..OPS_PER_TXN {
                                    script.push(read(&mut rng));
                                }
                            }
                            89..=98 => {
                                let i = index(&mut rng, n);
                                script.push(op("get", vec![i.clone()]));
                                script.push(op("set", vec![i, value(&mut rng)]));
                                script.push(read(&mut rng));
                                script.push(read(&mut rng));
                            }
                            _ => {
                                script.push(op(
                                    "addAt",
                                    vec![index(&mut rng, n + 1), value(&mut rng)],
                                ));
                                script.push(read(&mut rng));
                                script.push(op("removeAt", vec![index(&mut rng, n)]));
                                script.push(read(&mut rng));
                            }
                        }
                    }
                    script
                })
                .collect();
            Inputs {
                structure: cfg.structure(),
                prefill,
                warmup,
                scripts,
            }
        }
    }
}

impl Inputs {
    /// The prefilled structure.
    pub fn prefilled(&self) -> AnyStructure {
        let mut structure = AnyStructure::by_name(self.structure).expect("known structure name");
        for op in &self.prefill {
            structure
                .apply(op.name, &op.args)
                .expect("prefill operations are in range");
        }
        structure
    }
}

/// Builds a ready runtime: prefill, construction, and the warm-up
/// transaction. Returns it with the time taken.
fn build_runtime(inputs: &Inputs) -> Result<(SpeculativeRuntime, f64), String> {
    let start = Instant::now();
    let rt = SpeculativeRuntime::new(inputs.prefilled());
    let mut warm = rt.begin();
    for op in &inputs.warmup {
        warm.execute(op.name, &op.args)
            .map_err(|e| format!("warm-up `{}` failed: {e}", op.name))?;
    }
    warm.commit();
    Ok((rt, start.elapsed().as_secs_f64()))
}

/// A built runtime with its set-up time, starting state and counters.
type Built = (SpeculativeRuntime, f64, AbstractState, RuntimeStats);

/// What one worker did in one repetition.
#[derive(Debug, Default)]
pub struct WorkerLog {
    /// `(commit ticket, transaction index in the script)` per committed
    /// transaction, in commit order.
    pub committed: Vec<(u64, u32)>,
    /// The recorded return values, `OPS_PER_TXN` per committed transaction.
    pub results: Vec<Option<Value>>,
    /// Transaction latency, first `begin` to final commit (or failure),
    /// including retries and backoff, in nanoseconds.
    pub latencies_ns: Vec<f64>,
    /// Transactions that failed.
    pub failed: u64,
    /// The first few failure diagnostics.
    pub errors: Vec<String>,
}

/// Runs one worker's script through the runtime.
fn drive<R: Recorder>(rt: &SpeculativeRuntime, script: &[Op], rec: &mut R) -> WorkerLog {
    let txns = script.len() / OPS_PER_TXN;
    let mut log = WorkerLog {
        committed: Vec::with_capacity(txns),
        results: Vec::with_capacity(script.len()),
        latencies_ns: Vec::with_capacity(txns),
        ..WorkerLog::default()
    };
    let backoff = rt.options().backoff;
    let mut results = Vec::with_capacity(OPS_PER_TXN);
    for (t, ops) in script.chunks(OPS_PER_TXN).enumerate() {
        let started = Instant::now();
        rec.enter("runtime.txn", t as u64);
        let mut committed = false;
        let mut error = None;
        for attempt in 0..=MAX_RETRIES {
            let mut txn = rt.begin();
            let id = txn.id();
            results.clear();
            let mut failure = None;
            for op in ops {
                rec.enter("runtime.executor.execute", id);
                let result = txn.execute(op.name, &op.args);
                rec.exit();
                match result {
                    Ok(value) => results.push(value),
                    Err(e) => {
                        failure = Some(e);
                        break;
                    }
                }
            }
            match failure {
                None => {
                    rec.enter("runtime.executor.commit", id);
                    let ticket = txn.commit();
                    rec.exit();
                    log.committed.push((ticket, t as u32));
                    log.results.append(&mut results);
                    committed = true;
                    break;
                }
                Some(TxnError::Conflict(_)) => {
                    rec.enter("runtime.executor.abort", id);
                    txn.abort();
                    rec.exit();
                    rec.enter("runtime.executor.backoff", id);
                    backoff.wait(id, attempt as u32);
                    rec.exit();
                }
                Some(other) => {
                    txn.abort();
                    error = Some(other.to_string());
                    break;
                }
            }
        }
        rec.exit();
        log.latencies_ns.push(started.elapsed().as_nanos() as f64);
        if !committed {
            log.failed += 1;
            if log.errors.len() < 4 {
                let reason = error.unwrap_or_else(|| "retry budget exhausted".to_string());
                log.errors.push(format!("transaction {t}: {reason}"));
            }
        }
    }
    log
}

/// A committed transaction as the replay oracle sees it.
#[derive(Debug, Clone)]
pub struct Committed<'a> {
    /// Its commit ticket.
    pub ticket: u64,
    /// Its operations.
    pub ops: &'a [Op],
    /// The return values it observed.
    pub results: &'a [Option<Value>],
}

/// Replays committed transactions serially in ticket order through
/// `CoarseLockRuntime`, starting from `base`. Returns the number of
/// transactions whose replay returned a different value or was rejected
/// (plus one if the final states differ), with diagnostics.
pub fn replay_failures(
    structure: &str,
    base: &AbstractState,
    committed: &mut [Committed<'_>],
    final_state: &AbstractState,
) -> (u64, Vec<String>) {
    let mut errors = Vec::new();
    let oracle = match rebuild(structure, base) {
        Ok(s) => CoarseLockRuntime::new(s),
        Err(e) => return (1, vec![e]),
    };
    committed.sort_by_key(|c| c.ticket);
    let mut failed = 0;
    for txn in committed.iter() {
        let diverged = oracle.run_transaction(|serial| {
            txn.ops.iter().zip(txn.results).find_map(|(op, recorded)| {
                match serial.execute(op.name, &op.args) {
                    Ok(replayed) if &replayed == recorded => None,
                    Ok(replayed) => Some(format!(
                        "ticket {}: `{}` returned {recorded:?}, serial replay gives {replayed:?}",
                        txn.ticket, op.name
                    )),
                    Err(e) => Some(format!(
                        "ticket {}: `{}` rejected on replay: {e}",
                        txn.ticket, op.name
                    )),
                }
            })
        });
        if let Some(e) = diverged {
            failed += 1;
            if errors.len() < 4 {
                errors.push(e);
            }
        }
    }
    if oracle.snapshot() != *final_state {
        failed += 1;
        errors.push("final state differs from the serial replay".to_string());
    }
    (failed, errors)
}

/// One timed repetition.
pub struct Rep<R> {
    /// Wall time from the first worker's start to the last worker's end.
    pub wall_s: f64,
    /// Set-up time of the runtime.
    pub setup_s: f64,
    /// Operations in committed transactions.
    pub committed_ops: u64,
    /// Transactions attempted.
    pub attempted: u64,
    /// Failed transactions and failed checks.
    pub failed: u64,
    /// Diagnostics.
    pub errors: Vec<String>,
    /// Transaction latencies, in nanoseconds.
    pub latencies_ns: Vec<f64>,
    /// The runtime's counters over the timed window.
    pub stats: RuntimeStats,
    /// Each worker's recorder.
    pub recorders: Vec<R>,
}

fn delta(after: RuntimeStats, before: RuntimeStats) -> RuntimeStats {
    RuntimeStats {
        begun: after.begun - before.begun,
        commits: after.commits - before.commits,
        aborts: after.aborts - before.aborts,
        conflicts: after.conflicts - before.conflicts,
        operations: after.operations - before.operations,
        rollback_failures: after.rollback_failures - before.rollback_failures,
        degraded_commits: after.degraded_commits - before.degraded_commits,
        mode_switches: after.mode_switches - before.mode_switches,
    }
}

/// Runs the first `workers` scripts on a fresh runtime and checks the
/// outcome. Fails only if the runtime could not be built.
///
/// The first worker builds the runtime itself before the others start, so
/// the structure is always warm in the cache of the thread that runs the
/// single-worker repetitions, whichever core the scheduler picked for it.
pub fn run_rep<R: Recorder + Send>(
    inputs: &Inputs,
    workers: usize,
    mut recorders: Vec<R>,
) -> Result<Rep<R>, String> {
    let built: OnceLock<Result<Built, String>> = OnceLock::new();
    let barrier = Barrier::new(workers);
    let mut runs: Vec<(Instant, Instant, WorkerLog, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = inputs.scripts[..workers]
            .iter()
            .zip(recorders.drain(..))
            .enumerate()
            .map(|(worker, (script, mut rec))| {
                let built = &built;
                let barrier = &barrier;
                scope.spawn(move || {
                    if worker == 0 {
                        // Whatever happens, the other workers must get past
                        // the barrier.
                        let setup = catch_unwind(AssertUnwindSafe(|| {
                            build_runtime(inputs).map(|(rt, setup_s)| {
                                let base = rt.snapshot();
                                let before = rt.stats();
                                (rt, setup_s, base, before)
                            })
                        }))
                        .unwrap_or_else(|_| Err("building the runtime panicked".to_string()));
                        let _ = built.set(setup);
                    }
                    barrier.wait();
                    let Some(Ok((rt, ..))) = built.get() else {
                        return (Instant::now(), Instant::now(), WorkerLog::default(), rec);
                    };
                    let start = Instant::now();
                    let log = drive(rt, script, &mut rec);
                    (start, Instant::now(), log, rec)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("benchmark worker panicked"))
            .collect()
    });
    let (rt, setup_s, base, before) = built
        .into_inner()
        .unwrap_or_else(|| Err("no worker built the runtime".to_string()))?;
    let start = runs.iter().map(|r| r.0).min().expect("at least one worker");
    let end = runs.iter().map(|r| r.1).max().expect("at least one worker");
    let stats = delta(rt.stats(), before);

    let mut check = Outcome::default();
    for (_, _, log, _) in &mut runs {
        check.absorb_failures(log.failed, std::mem::take(&mut log.errors));
    }
    if let Err(e) = rt.check_invariants() {
        check.fail(1, format!("invariant violated: {e}"));
    }
    if let Some(reason) = rt.poisoned() {
        check.fail(1, format!("runtime poisoned: {reason}"));
    }
    if stats.begun != stats.commits + stats.aborts {
        check.fail(
            1,
            format!(
                "begun {} != commits {} + aborts {}",
                stats.begun, stats.commits, stats.aborts
            ),
        );
    }
    let mut committed: Vec<Committed<'_>> = Vec::new();
    for ((_, _, log, _), script) in runs.iter().zip(&inputs.scripts) {
        for (i, &(ticket, t)) in log.committed.iter().enumerate() {
            let t = t as usize;
            committed.push(Committed {
                ticket,
                ops: &script[t * OPS_PER_TXN..(t + 1) * OPS_PER_TXN],
                results: &log.results[i * OPS_PER_TXN..(i + 1) * OPS_PER_TXN],
            });
        }
    }
    if committed.len() as u64 != stats.commits {
        check.fail(
            1,
            format!(
                "{} transactions committed, the runtime counted {}",
                committed.len(),
                stats.commits
            ),
        );
    }
    let (replay_failed, replay_errors) =
        replay_failures(inputs.structure, &base, &mut committed, &rt.snapshot());
    check.absorb_failures(replay_failed, replay_errors);

    let committed_ops = (committed.len() * OPS_PER_TXN) as u64;
    let attempted = inputs.scripts[..workers]
        .iter()
        .map(|s| (s.len() / OPS_PER_TXN) as u64)
        .sum();
    let mut latencies_ns = Vec::new();
    let mut recorders = Vec::with_capacity(workers);
    for (_, _, log, rec) in runs {
        latencies_ns.extend(log.latencies_ns);
        recorders.push(rec);
    }
    Ok(Rep {
        wall_s: (end - start).as_secs_f64(),
        setup_s,
        committed_ops,
        attempted,
        failed: check.failed,
        errors: check.errors,
        latencies_ns,
        stats,
        recorders,
    })
}

/// The coarse-lock baseline on the identical scripts: committed operations
/// per second.
fn baseline_ops_per_s(inputs: &Inputs, workers: usize) -> (f64, u64) {
    let rt = CoarseLockRuntime::new(inputs.prefilled());
    let barrier = Barrier::new(workers);
    let runs: Vec<(Instant, Instant, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = inputs.scripts[..workers]
            .iter()
            .map(|script| {
                let rt = &rt;
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    let start = Instant::now();
                    let mut rejected = 0;
                    for ops in script.chunks(OPS_PER_TXN) {
                        rt.run_transaction(|txn| {
                            for op in ops {
                                if black_box(txn.execute(op.name, &op.args)).is_err() {
                                    rejected += 1;
                                }
                            }
                        });
                    }
                    (start, Instant::now(), rejected)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("baseline worker panicked"))
            .collect()
    });
    let start = runs.iter().map(|r| r.0).min().expect("at least one worker");
    let end = runs.iter().map(|r| r.1).max().expect("at least one worker");
    let ops: usize = inputs.scripts[..workers].iter().map(Vec::len).sum();
    let rejected = runs.iter().map(|r| r.2).sum();
    (ops as f64 / (end - start).as_secs_f64(), rejected)
}

/// Times `f` over enough passes to fill `min_s` seconds; returns
/// nanoseconds per unit, `units` being the work one pass does.
fn per_unit_ns(units: usize, min_s: f64, mut f: impl FnMut()) -> f64 {
    f();
    let start = Instant::now();
    let mut passes = 0u64;
    while passes == 0 || start.elapsed().as_secs_f64() < min_s {
        f();
        passes += 1;
    }
    start.elapsed().as_nanos() as f64 / (passes as f64 * units as f64)
}

/// Layer probes over the first worker's script: gatekeeper checks against
/// workload-shaped log entries, plain vs tracked apply, inverse rollback.
fn probes(inputs: &Inputs, outcome: &mut Outcome) {
    const PROBE_S: f64 = 0.05;
    let script = &inputs.scripts[0];
    let base = inputs.prefilled();
    let interface = base.interface();

    // Gatekeeper: entries logged by applying the first half of a window of
    // the script, checked against the operations of the second half.
    let gk = CommutativityGatekeeper::new(interface);
    let window = script.len().min(4_096) / 2;
    let mut tracked = TrackedStructure::new(base.clone());
    let mut entries = Vec::with_capacity(window);
    for op in &script[..window] {
        let pre_state = gk
            .requires_pre_state(op.name)
            .then(|| tracked.state_value().clone());
        let result = tracked
            .apply(op.name, &op.args)
            .expect("script operations are in range");
        let index = gk.op_index(op.name).expect("workload operations are known");
        entries.push((
            index,
            LogEntry {
                txn: 1,
                op: op.name.to_string(),
                args: op.args.clone(),
                result,
                pre_state,
            },
        ));
    }
    let incoming: Vec<(u16, &Op)> = script[window..2 * window]
        .iter()
        .map(|op| {
            (
                gk.op_index(op.name).expect("workload operations are known"),
                op,
            )
        })
        .collect();
    let state = tracked.state_value().clone();
    let check_ns = per_unit_ns(window, PROBE_S, || {
        for ((first, entry), (second, op)) in entries.iter().zip(&incoming) {
            let _ = black_box(gk.check_indexed(*first, entry, *second, op.name, &op.args));
        }
    });
    let check_at_ns = per_unit_ns(window, PROBE_S, || {
        for ((first, entry), (second, op)) in entries.iter().zip(&incoming) {
            let _ =
                black_box(gk.check_indexed_at(*first, entry, *second, op.name, &op.args, &state));
        }
    });
    outcome.push("runtime.gatekeeper.check_ns", check_ns);
    outcome.push("runtime.gatekeeper.check_at_ns", check_at_ns);

    // Apply: the concrete structure alone, then with the abstract mirror.
    // Every pass starts from a fresh copy of the prefilled structure
    // (copied outside the timed region).
    let ops = &script[..script.len().min(16_384)];
    let mut apply_s = 0.0;
    let mut tracked_s = 0.0;
    let mut passes = 0;
    while passes < 3 || apply_s + tracked_s < 2.0 * PROBE_S {
        let mut plain = base.clone();
        let start = Instant::now();
        for op in ops {
            let _ = black_box(plain.apply(op.name, &op.args));
        }
        apply_s += start.elapsed().as_secs_f64();
        let mut tracked = TrackedStructure::new(base.clone());
        let start = Instant::now();
        for op in ops {
            let _ = black_box(tracked.apply(op.name, &op.args));
        }
        tracked_s += start.elapsed().as_secs_f64();
        passes += 1;
    }
    let applied = (passes * ops.len()) as f64;
    outcome.push("runtime.structure.apply_ns", apply_s * 1e9 / applied);
    outcome.push(
        "runtime.structure.tracked_apply_ns",
        tracked_s * 1e9 / applied,
    );

    // Rollback: apply a batch of transactions, then undo every entry,
    // newest first, with the verified inverses.
    let rollback = InverseRollback::new(interface);
    let mut structure = base.clone();
    let mut undo_s = 0.0;
    let mut undone = 0usize;
    for batch in script.chunks(1_024 * OPS_PER_TXN).take(4) {
        let entries: Vec<LogEntry> = batch
            .iter()
            .map(|op| LogEntry {
                txn: 1,
                op: op.name.to_string(),
                args: op.args.clone(),
                result: structure
                    .apply(op.name, &op.args)
                    .expect("script operations are in range"),
                pre_state: None,
            })
            .collect();
        let start = Instant::now();
        let undo = rollback.undo(&mut structure, &entries);
        undo_s += start.elapsed().as_secs_f64();
        undone += entries.len();
        if let Err(e) = undo {
            outcome.fail(1, format!("inverse rollback failed: {e}"));
        }
    }
    if structure.abstract_state() != base.abstract_state() {
        outcome.fail(1, "inverse rollback did not restore the prefilled state");
    }
    outcome.push(
        "runtime.rollback.undo_ns",
        undo_s * 1e9 / undone.max(1) as f64,
    );
}

fn absorb<R>(outcome: &mut Outcome, rep: &mut Rep<R>) {
    outcome.attempted += rep.attempted;
    outcome.absorb_failures(rep.failed, std::mem::take(&mut rep.errors));
    outcome.push("setup_s", rep.setup_s);
}

/// Runs a runtime workload; `nproc` is the parallel width.
pub fn run(cfg: &RuntimeConfig, args: &RunArgs, nproc: usize) -> Outcome {
    let started = Instant::now();
    let inputs = generate(cfg, args.seed, nproc);
    let mut outcome = Outcome::default();
    outcome
        .notes
        .insert("generate_s", started.elapsed().as_secs_f64().to_string());
    // One discarded repetition at each width (its outputs are still
    // checked): the first repetitions of a fresh process pay page faults
    // and thread placements that later ones do not.
    for workers in [1, nproc] {
        match run_rep(&inputs, workers, vec![NoTrace; workers]) {
            Ok(mut rep) => {
                outcome.attempted += rep.attempted;
                outcome.absorb_failures(rep.failed, std::mem::take(&mut rep.errors));
            }
            Err(e) => outcome.fail(1, e),
        }
    }
    if args.trace {
        run_traced(cfg, args, nproc, &inputs, started, &mut outcome);
    } else {
        run_untraced(cfg, args, nproc, &inputs, started, &mut outcome);
    }
    outcome.notes.insert("workers", nproc.to_string());
    outcome.notes.insert("prefill", cfg.prefill.to_string());
    outcome
        .notes
        .insert("txns_per_worker", cfg.txns_per_worker.to_string());
    outcome
}

fn run_untraced(
    cfg: &RuntimeConfig,
    args: &RunArgs,
    nproc: usize,
    inputs: &Inputs,
    started: Instant,
    outcome: &mut Outcome,
) {
    let mut reps = 0;
    let mut last_s = 0.0;
    let mut stats = Vec::new();
    while another(reps, cfg.min_reps, started, last_s, args.seconds) {
        let pair = Instant::now();
        let widths = if reps % 2 == 0 {
            [1, nproc]
        } else {
            [nproc, 1]
        };
        for workers in widths {
            let mut rep = match run_rep(inputs, workers, vec![NoTrace; workers]) {
                Ok(rep) => rep,
                Err(e) => return outcome.fail(1, e),
            };
            absorb(outcome, &mut rep);
            let ops_per_s = rep.committed_ops as f64 / rep.wall_s;
            if workers == 1 {
                outcome.push("ops_per_s_t1", ops_per_s);
            }
            if workers == nproc {
                // Percentiles per repetition, so memory does not grow with
                // the number of repetitions that fit the budget.
                outcome.push("ops_per_s", ops_per_s);
                let total_ns: f64 = rep.latencies_ns.iter().sum();
                outcome.push("mean_us", total_ns / rep.latencies_ns.len() as f64 / 1e3);
                outcome.push("p95_us", percentile(&rep.latencies_ns, 95.0) / 1e3);
                outcome.notes.insert(
                    "latency_samples_per_rep",
                    rep.latencies_ns.len().to_string(),
                );
                stats.push(rep.stats);
            }
        }
        last_s = pair.elapsed().as_secs_f64();
        reps += 1;
    }
    outcome.notes.insert("reps", reps.to_string());
    let aborts: u64 = stats.iter().map(|s| s.aborts).sum();
    let begun: u64 = stats.iter().map(|s| s.begun).sum();
    let switches: u64 = stats.iter().map(|s| s.mode_switches).sum();
    outcome.notes.insert(
        "abort_ratio",
        ratio(aborts as f64, begun as f64).to_string(),
    );
    outcome.notes.insert("mode_switches", switches.to_string());
}

fn run_traced(
    cfg: &RuntimeConfig,
    args: &RunArgs,
    nproc: usize,
    inputs: &Inputs,
    started: Instant,
    outcome: &mut Outcome,
) {
    probes(inputs, outcome);
    for workers in [1, nproc] {
        let (ops_per_s, rejected) = baseline_ops_per_s(inputs, workers);
        if rejected > 0 {
            outcome.fail(rejected, "coarse-lock baseline rejected script operations");
        }
        let name = if workers == 1 {
            "runtime.baseline.ops_per_s_t1"
        } else {
            "runtime.baseline.ops_per_s"
        };
        outcome.push(name, ops_per_s);
    }
    let capacity = cfg.txns_per_worker * (OPS_PER_TXN + 3);
    let mut untraced_ops = Vec::new();
    let mut traced_ops = Vec::new();
    let mut latencies_ns = Vec::new();
    let mut reps = 0;
    let mut last_s = 0.0;
    let mut last_tracers = Vec::new();
    while another(reps, cfg.min_reps, started, last_s, args.seconds) {
        let pair = Instant::now();
        let mut plain = match run_rep(inputs, nproc, vec![NoTrace; nproc]) {
            Ok(rep) => rep,
            Err(e) => return outcome.fail(1, e),
        };
        absorb(outcome, &mut plain);
        untraced_ops.push(plain.committed_ops as f64 / plain.wall_s);
        latencies_ns.extend_from_slice(&plain.latencies_ns);
        let s = plain.stats;
        outcome.push(
            "runtime.executor.abort_ratio",
            ratio(s.aborts as f64, s.begun as f64),
        );
        outcome.push(
            "runtime.executor.useful_op_ratio",
            ratio(plain.committed_ops as f64, s.operations as f64),
        );
        outcome.push(
            "runtime.contention.degraded_share",
            ratio(s.degraded_commits as f64, s.commits as f64),
        );
        outcome.push("runtime.contention.mode_switches", s.mode_switches as f64);

        let epoch = Instant::now();
        let tracers = (0..nproc).map(|_| Tracer::new(epoch, capacity)).collect();
        let mut traced = match run_rep(inputs, nproc, tracers) {
            Ok(rep) => rep,
            Err(e) => return outcome.fail(1, e),
        };
        absorb(outcome, &mut traced);
        traced_ops.push(traced.committed_ops as f64 / traced.wall_s);
        let tracers: Vec<&Tracer> = traced.recorders.iter().collect();
        let us = |name: &str, p: f64| percentile(&durations_ns(&tracers, name), p) / 1e3;
        outcome.push(
            "runtime.executor.execute_p50_us",
            us("runtime.executor.execute", 50.0),
        );
        outcome.push(
            "runtime.executor.execute_p99_us",
            us("runtime.executor.execute", 99.0),
        );
        outcome.push(
            "runtime.executor.commit_p50_us",
            us("runtime.executor.commit", 50.0),
        );
        outcome.push(
            "runtime.executor.abort_p50_us",
            us("runtime.executor.abort", 50.0),
        );
        let totals = span_totals(&tracers);
        let total = |name: &str| totals.get(name).map_or(0.0, |t| t.total_s);
        outcome.push(
            "runtime.executor.retry_s",
            total("runtime.txn") - total("runtime.executor.execute"),
        );
        last_tracers = traced.recorders;
        last_s = pair.elapsed().as_secs_f64();
        reps += 1;
    }
    let us: Vec<f64> = latencies_ns.iter().map(|ns| ns / 1e3).collect();
    outcome.push("runtime.txn_p50_us", percentile(&us, 50.0));
    outcome.push("runtime.txn_p99_us", percentile(&us, 99.0));
    outcome.push("runtime.txn_p999_us", percentile(&us, 99.9));
    outcome.push("runtime.txn_max_us", percentile(&us, 100.0));
    outcome.push(
        "trace.overhead_ratio",
        median(&untraced_ops) / median(&traced_ops) - 1.0,
    );
    outcome.notes.insert("reps", reps.to_string());
    let tracers: Vec<&Tracer> = last_tracers.iter().collect();
    outcome.spans = span_totals(&tracers);
    let path = args.trace_path();
    match write_jsonl(&path, &tracers) {
        Ok(()) => {
            outcome
                .notes
                .insert("trace_file", path.display().to_string());
        }
        Err(e) => outcome.fail(1, format!("writing {}: {e}", path.display())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semcommute_logic::ElemId;

    #[test]
    fn same_seed_same_inputs() {
        for mix in [Mix::SetReadMostly, Mix::ListPositional] {
            let cfg = RuntimeConfig::quick(mix);
            let a = generate(&cfg, 7, 2);
            let b = generate(&cfg, 7, 2);
            let c = generate(&cfg, 8, 2);
            assert_eq!(a.scripts, b.scripts);
            assert_eq!(a.prefill, b.prefill);
            assert_ne!(a.scripts, c.scripts);
            assert_eq!(a.scripts[0].len(), cfg.txns_per_worker * OPS_PER_TXN);
        }
    }

    #[test]
    fn replay_catches_a_planted_return_value() {
        let ops = [
            op("add", vec![Value::elem(1)]),
            op("contains", vec![Value::elem(1)]),
        ];
        let good = [Some(Value::Bool(true)), Some(Value::Bool(true))];
        let planted = [Some(Value::Bool(true)), Some(Value::Bool(false))];
        let base = AbstractState::Set(Default::default());
        let after = AbstractState::Set([ElemId(1)].into_iter().collect());
        let history = |results| {
            vec![Committed {
                ticket: 1,
                ops: &ops,
                results,
            }]
        };
        assert_eq!(
            replay_failures("HashSet", &base, &mut history(&good), &after).0,
            0
        );
        let (failed, errors) = replay_failures("HashSet", &base, &mut history(&planted), &after);
        assert_eq!(failed, 1);
        assert!(errors[0].contains("contains"), "{errors:?}");
        // A final state the replay does not reach is caught too.
        assert_eq!(
            replay_failures("HashSet", &base, &mut history(&good), &base).0,
            1
        );
    }

    #[test]
    fn a_failed_set_up_is_an_error_not_a_hang() {
        let mut inputs = generate(&RuntimeConfig::quick(Mix::SetReadMostly), 1, 2);
        inputs.warmup.push(op("frobnicate", vec![]));
        let Err(e) = run_rep(&inputs, 2, vec![NoTrace; 2]) else {
            panic!("an unknown warm-up operation must fail the set-up");
        };
        assert!(e.contains("frobnicate"), "{e}");
    }

    #[test]
    fn quick_repetitions_pass_every_check() {
        for mix in [Mix::SetReadMostly, Mix::ListPositional] {
            let inputs = generate(&RuntimeConfig::quick(mix), 3, 2);
            for workers in [1, 2] {
                let rep = run_rep(&inputs, workers, vec![NoTrace; workers]).unwrap();
                assert_eq!(rep.failed, 0, "{mix:?}/{workers}: {:?}", rep.errors);
                assert!(rep.committed_ops > 0);
                assert_eq!(rep.stats.begun, rep.stats.commits + rep.stats.aborts);
            }
        }
    }
}
