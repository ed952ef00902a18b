//! Runtime workload benchmark: speculative vs coarse-lock vs the seed engine.
//!
//! Drives mixed set transactions (adds, membership tests, removes) through
//! three engines — the production [`SpeculativeRuntime`], the
//! [`CoarseLockRuntime`] baseline, and the seed-faithful reference engine
//! ([`semcommute_bench::seed_runtime`]) — at several thread counts and two
//! key distributions:
//!
//! * `uniform`: keys drawn from a large domain, so almost all transactions
//!   commute (the paper's motivating case: commutativity exposes
//!   parallelism);
//! * `skewed`: half the operations hit a handful of hot keys, forcing real
//!   conflicts, aborts, and inverse-driven rollback.
//!
//! The structure is pre-populated so the seed engine's per-operation
//! abstract-state clone has a realistic structure size to pay for. The seed
//! engine runs a reduced operation count (it is quadratic in practice) and
//! is compared on *per-committed-operation* time.
//!
//! A fourth axis isolates the **admission backend** (`--admit`): compiled
//! register programs ([`AdmitBackend::Bytecode`]) versus the `Model`-building
//! interpreter ([`AdmitBackend::Interp`]). At a single thread the log would
//! normally be empty when each transaction runs, so the admission legs pin a
//! few background transactions open for the whole measured run — their logged
//! entries are what every workload operation must be admitted against, which
//! puts admission itself — one check per live entry, under the structure
//! mutex — on the critical path. The pinned
//! scripts include `contains` probes on hot prefilled keys so the skewed
//! workload also produces genuine conflict verdicts, and a small prefill
//! keeps copy-on-write detach cost from swamping the admission cost being
//! compared. Both backends run the identical deterministic workload; their
//! commit/abort/conflict counts must be identical (the diff harnesses prove
//! the verdicts agree) so the wall-time ratio *is* the per-op ratio.
//!
//! A fifth axis is the **snapshot-heavy leg** (PR 9): transactions whose
//! operations require a pre-state projection retain a clone of the tracked
//! mirror in every logged entry, so the next mirror mutation pays the
//! representation's detach cost. Under the old flat (eager) collections that
//! detach re-cloned the whole collection — `O(n)` per mutation while any
//! snapshot is live; under the tree-shaped persistent values it path-copies
//! `O(log n)` nodes. Two leg families measure this:
//!
//! * `mirror_flat` / `mirror_tree`: a paired microharness driving the
//!   identical deterministic hot-key-skew "retain a snapshot, then mutate"
//!   loop against a bench-local reconstruction of the flat representation
//!   (`Arc<BTreeSet>` + `make_mut`, the PR 3 mirror) and against the tree
//!   [`PSet`]. The flat loop omits the `Value` enum wrapper and op dispatch
//!   the real runtime pays, so its per-op time is a *lower bound* on the
//!   flat representation's true cost — the measured ratio understates the
//!   tree's advantage.
//! * `snapshot_runtime`: the real end-to-end path — a [`SpeculativeRuntime`]
//!   on a large prefilled set driving transactions whose `size` probes
//!   require pre-state projections interleaved with hot-key mutations.
//!
//! A sixth axis is the **contention-management leg family** (PR 10), which
//! measures the abort-rate-driven coarse-lock fallback
//! ([`semcommute_runtime::contention`]) from both sides:
//!
//! * `hot` legs drive a deterministic high-contention workload — every
//!   admission attempt is forced into conflict on a fixed ordinal period by
//!   an attached [`FaultPlan`], so the measured contention is identical on
//!   every host — through three engines: the adaptive runtime
//!   (`fallback=on`, which degrades to the coarse section and stays there),
//!   the non-adaptive runtime (`fallback=off`, which pays the full
//!   speculate-abort-retry cost for every transaction), and the coarse-lock
//!   baseline (the cost floor the degraded path borrows).
//! * fallback **parity** legs rerun the classic uniform/skewed workloads
//!   with the fallback explicitly on and explicitly off: their abort rates
//!   sit far below the degrade threshold, so the mode machinery must never
//!   fire (`mode_switches == 0`) and its bookkeeping overhead must stay in
//!   the noise (per-op parity within 10% at threads=1).
//!
//! Usage: `runtime_perf [--ops N] [--prefill N] [--seed-ops N]
//! [--admit bytecode|interp|both|off] [--snap-ops N] [--snap-prefill N]
//! [--json PATH]`.
//! With the defaults the speculative and coarse legs together drive several
//! million mixed operations across the configurations. Emits the
//! measurements as JSON
//! (`BENCH_pr10.json` in CI) with an `acceptance` section recording the
//! criterion, which depends on no host's core count: speculative per-op
//! overhead at threads=1 must be ≥ 5× lower than the seed engine's — when
//! both admission backends
//! run, compiled admission must be at most 0.5× the interpreter's per-op
//! time with identical counts — the tree representation must beat the
//! flat mirror's per-op snapshot-loop cost by ≥ 2× with identical final
//! contents — and under forced contention the adaptive runtime must land
//! near the coarse baseline's per-op cost while the non-adaptive runtime
//! loses to it by a wide margin. Speculative-over-coarse throughput at
//! threads=4 is recorded in the same section but not asserted: it measures
//! the host's cores, not the code.

use std::collections::{BTreeSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use semcommute_bench::seed_runtime::SeedRuntime;
use semcommute_logic::{ElemId, PSet, Value};
use semcommute_runtime::{
    AdmissionError, AdmitBackend, AnyStructure, CoarseLockRuntime, CommutativityGatekeeper,
    FallbackOptions, FaultPlan, LogEntry, RuntimeOptions, SpeculativeRuntime, TxnError,
};
use semcommute_spec::InterfaceId;

/// Deterministic xorshift64* — reproducible workloads, no external crates.
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
}

#[derive(Clone, Copy, PartialEq)]
enum Workload {
    Uniform,
    Skewed,
    /// Every key drawn from a tiny domain — the contention legs' workload.
    /// Real aborts need concurrent overlap, so the `hot` legs additionally
    /// force conflicts on a fixed ordinal period to make the measured
    /// contention host-independent.
    Hot,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Uniform => "uniform",
            Workload::Skewed => "skewed",
            Workload::Hot => "hot",
        }
    }

    /// One transaction script: two operations, mixed kinds.
    fn transaction(self, rng: &mut XorShift, prefill: u64) -> Vec<(&'static str, Vec<Value>)> {
        let key = |rng: &mut XorShift| {
            let k = match self {
                Workload::Uniform => rng.below(prefill * 4),
                // Half the traffic on 16 hot keys.
                Workload::Skewed => {
                    if rng.below(2) == 0 {
                        rng.below(16)
                    } else {
                        rng.below(prefill * 4)
                    }
                }
                // All the traffic on 8 hot keys.
                Workload::Hot => rng.below(8),
            };
            Value::elem(k as u32 + 1)
        };
        (0..2)
            .map(|_| match rng.below(10) {
                0..=4 => ("add", vec![key(rng)]),
                5 | 6 => ("contains", vec![key(rng)]),
                _ => ("remove", vec![key(rng)]),
            })
            .collect()
    }
}

struct Measurement {
    engine: &'static str,
    workload: &'static str,
    /// Which admission backend the leg ran under: `"default"` for the classic
    /// grid (whatever `SEMCOMMUTE_ADMIT` selects), the backend name for the
    /// dedicated admission legs.
    admit: &'static str,
    /// Which fallback configuration the leg ran under: `"default"` for the
    /// classic grid (whatever `SEMCOMMUTE_FALLBACK` selects), `"on"` / `"off"`
    /// for the dedicated contention legs, `"n/a"` for non-speculative
    /// engines.
    fallback: &'static str,
    threads: u64,
    target_ops: u64,
    committed_ops: u64,
    commits: u64,
    aborts: u64,
    conflicts: u64,
    /// Commits that ran through the degraded coarse section (speculative
    /// legs only).
    degraded_commits: u64,
    /// Execution-mode transitions applied by the contention state machine
    /// (speculative legs only).
    mode_switches: u64,
    /// Operations held open by pinned background transactions for the whole
    /// measured run (0 for the classic legs).
    pinned_ops: u64,
    wall_s: f64,
}

impl Measurement {
    fn committed_ops_per_s(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.committed_ops as f64 / self.wall_s
        } else {
            0.0
        }
    }

    fn per_op_ns(&self) -> f64 {
        if self.committed_ops > 0 {
            self.wall_s * 1e9 / self.committed_ops as f64
        } else {
            f64::INFINITY
        }
    }

    fn json(&self) -> String {
        format!(
            "    {{\"engine\": \"{}\", \"workload\": \"{}\", \"admit\": \"{}\", \
             \"fallback\": \"{}\", \"threads\": {}, \
             \"target_ops\": {}, \"committed_ops\": {}, \"commits\": {}, \"aborts\": {}, \
             \"conflicts\": {}, \"degraded_commits\": {}, \"mode_switches\": {}, \
             \"pinned_ops\": {}, \"wall_s\": {:.6}, \
             \"committed_ops_per_s\": {:.1}, \
             \"per_op_ns\": {:.1}}}",
            self.engine,
            self.workload,
            self.admit,
            self.fallback,
            self.threads,
            self.target_ops,
            self.committed_ops,
            self.commits,
            self.aborts,
            self.conflicts,
            self.degraded_commits,
            self.mode_switches,
            self.pinned_ops,
            self.wall_s,
            self.committed_ops_per_s(),
            self.per_op_ns(),
        )
    }
}

/// Runs a leg `reps` times and keeps the fastest run. The acceptance
/// criteria pin tight wall-clock ratios (parity within 10%); on a busy host
/// a single sample is too noisy for that, and for a deterministic workload
/// the minimum is the standard noise-robust estimate of the true cost.
fn best_of(reps: u32, mut leg: impl FnMut() -> Measurement) -> Measurement {
    let mut best: Option<Measurement> = None;
    for _ in 0..reps {
        let m = leg();
        if best.as_ref().is_none_or(|b| m.wall_s < b.wall_s) {
            best = Some(m);
        }
    }
    best.expect("at least one rep")
}

fn prefilled(prefill: u64) -> AnyStructure {
    let mut s = AnyStructure::by_name("HashSet").unwrap();
    for k in 0..prefill {
        s.apply("add", &[Value::elem(k as u32 + 1)]).unwrap();
    }
    s
}

fn run_speculative(workload: Workload, threads: u64, ops: u64, prefill: u64) -> Measurement {
    run_speculative_leg(
        workload,
        threads,
        ops,
        prefill,
        "default",
        RuntimeOptions::default(),
        None,
    )
}

/// The speculative leg with explicit [`RuntimeOptions`] — the contention
/// legs route through here with the fallback pinned on or off and, for the
/// `hot` legs, a [`FaultPlan`] forcing an admission conflict on every
/// `conflict_period`-th operation ordinal (deterministic contention that
/// does not depend on the host's scheduler).
fn run_speculative_leg(
    workload: Workload,
    threads: u64,
    ops: u64,
    prefill: u64,
    fallback: &'static str,
    mut options: RuntimeOptions,
    conflict_period: Option<u64>,
) -> Measurement {
    if let Some(period) = conflict_period {
        let plan = FaultPlan::new();
        plan.force_conflict_every(period);
        options.faults = Some(Arc::new(plan));
    }
    let rt = SpeculativeRuntime::with_options(prefilled(prefill), options);
    let per_thread = ops / threads / 2; // two ops per transaction
    let committed_ops = AtomicU64::new(0);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for thread in 0..threads {
            let rt = rt.clone();
            let committed_ops = &committed_ops;
            scope.spawn(move || {
                let mut rng = XorShift::new(0xfeed_beef ^ (thread << 40) ^ ops);
                for _ in 0..per_thread {
                    let script = workload.transaction(&mut rng, prefill);
                    let done = rt.run(1_000, |txn| {
                        for (op, args) in &script {
                            txn.execute(op, args)?;
                        }
                        Ok(())
                    });
                    match done {
                        Ok(()) => {
                            committed_ops.fetch_add(script.len() as u64, Ordering::Relaxed);
                        }
                        Err(TxnError::RetriesExhausted(_)) => {}
                        Err(e) => panic!("speculative workload failed: {e}"),
                    }
                }
            });
        }
    });
    let wall_s = start.elapsed().as_secs_f64();
    rt.check_invariants()
        .expect("invariants hold after the run");
    let stats = rt.stats();
    assert_eq!(stats.begun, stats.commits + stats.aborts);
    Measurement {
        engine: "speculative",
        workload: workload.name(),
        admit: "default",
        fallback,
        threads,
        target_ops: per_thread * threads * 2,
        committed_ops: committed_ops.load(Ordering::Relaxed),
        commits: stats.commits,
        aborts: stats.aborts,
        conflicts: stats.conflicts,
        degraded_commits: stats.degraded_commits,
        mode_switches: stats.mode_switches,
        pinned_ops: 0,
        wall_s,
    }
}

fn run_coarse(workload: Workload, threads: u64, ops: u64, prefill: u64) -> Measurement {
    let rt = CoarseLockRuntime::new(prefilled(prefill));
    let per_thread = ops / threads / 2;
    let committed = AtomicU64::new(0);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for thread in 0..threads {
            let rt = rt.clone();
            let committed = &committed;
            scope.spawn(move || {
                let mut rng = XorShift::new(0xfeed_beef ^ (thread << 40) ^ ops);
                for _ in 0..per_thread {
                    let script = workload.transaction(&mut rng, prefill);
                    rt.run_transaction(|txn| {
                        for (op, args) in &script {
                            txn.execute(op, args).unwrap();
                        }
                    });
                    committed.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    let wall_s = start.elapsed().as_secs_f64();
    let commits = committed.load(Ordering::Relaxed);
    Measurement {
        engine: "coarse_lock",
        workload: workload.name(),
        admit: "default",
        fallback: "n/a",
        threads,
        target_ops: per_thread * threads * 2,
        committed_ops: commits * 2,
        commits,
        aborts: 0,
        conflicts: 0,
        degraded_commits: 0,
        mode_switches: 0,
        pinned_ops: 0,
        wall_s,
    }
}

fn run_seed(workload: Workload, threads: u64, ops: u64, prefill: u64) -> Measurement {
    let rt = SeedRuntime::new(prefilled(prefill));
    let per_thread = ops / threads / 2;
    let next_txn = AtomicU64::new(1);
    let committed_ops = AtomicU64::new(0);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for thread in 0..threads {
            let rt = rt.clone();
            let next_txn = &next_txn;
            let committed_ops = &committed_ops;
            scope.spawn(move || {
                let mut rng = XorShift::new(0xfeed_beef ^ (thread << 40) ^ ops);
                for _ in 0..per_thread {
                    let script = workload.transaction(&mut rng, prefill);
                    let txn = next_txn.fetch_add(1, Ordering::Relaxed);
                    if rt.run_transaction(txn, &script, 1_000) {
                        committed_ops.fetch_add(script.len() as u64, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    let wall_s = start.elapsed().as_secs_f64();
    let stats = rt.stats();
    Measurement {
        engine: "seed",
        workload: workload.name(),
        admit: "default",
        fallback: "n/a",
        threads,
        target_ops: per_thread * threads * 2,
        committed_ops: committed_ops.load(Ordering::Relaxed),
        commits: stats.commits,
        aborts: stats.aborts,
        conflicts: stats.aborts,
        degraded_commits: 0,
        mode_switches: 0,
        pinned_ops: 0,
        wall_s,
    }
}

fn admit_label(backend: AdmitBackend) -> &'static str {
    match backend {
        AdmitBackend::Bytecode => "bytecode",
        AdmitBackend::Interp => "interp",
    }
}

/// The dedicated admission leg: a single measured thread, a small prefill
/// (so copy-on-write detach cost stays off the critical path), and three
/// *pinned* background transactions whose fifteen logged operations every
/// measured operation must be admitted against. The pinned scripts touch
/// reserved keys far outside the workload's domain (so the well-formed
/// verdict is "commutes") plus one `contains` probe each on a hot prefilled
/// key (so skewed traffic earns genuine conflict verdicts and exercises the
/// retry/abort path). The workload is deterministic and identical across
/// backends; only the admission evaluator differs.
fn run_admission(workload: Workload, backend: AdmitBackend, ops: u64, prefill: u64) -> Measurement {
    // The fallback must be pinned off here: the pinned background
    // transactions hold the mode gate's shared side for the entire measured
    // run, so an abort-rate-triggered degrade (the skewed leg aborts half
    // its traffic by design) would wait forever for readers that never
    // leave. Long-lived open transactions and the coarse fallback are
    // mutually exclusive by construction — see the contention module docs.
    let rt = SpeculativeRuntime::with_options(
        prefilled(prefill),
        RuntimeOptions {
            backend,
            fallback: FallbackOptions::off(),
            ..RuntimeOptions::default()
        },
    );

    // Pin the background transactions open for the whole measured run. The
    // entry count is deliberately large enough (120) that admission checks —
    // not begin/commit bookkeeping — dominate the measured wall time.
    let base = (prefill * 100) as u32;
    let mut pinned = Vec::new();
    let mut pinned_ops = 0u64;
    for t in 0..20u32 {
        let mut txn = rt.begin();
        let reserved = |i: u32| Value::elem(base + t * 10 + i);
        let script = [
            ("add", vec![reserved(0)]),
            ("remove", vec![reserved(1)]),
            ("contains", vec![reserved(2)]),
            // A hot prefilled key: `contains` records `r1 = true`, which is
            // exactly what the between conditions for (contains, add/remove)
            // consult when the workload later hits the same key.
            ("contains", vec![Value::elem(t % 3 + 1)]),
            ("add", vec![reserved(3)]),
            ("remove", vec![reserved(4)]),
        ];
        for (op, args) in &script {
            txn.execute(op, args)
                .expect("pinned setup operations admit against each other");
            pinned_ops += 1;
        }
        pinned.push(txn);
    }

    let txns = ops / 2; // two ops per transaction
    let mut committed_ops = 0u64;
    let mut rng = XorShift::new(0xad31_7bad ^ ops);
    let start = Instant::now();
    for _ in 0..txns {
        let script = workload.transaction(&mut rng, prefill);
        // Conflicts against a pinned transaction do not resolve on retry, so
        // a tight retry budget keeps the leg honest: one retry, then abort.
        let done = rt.run(2, |txn| {
            for (op, args) in &script {
                txn.execute(op, args)?;
            }
            Ok(())
        });
        match done {
            Ok(()) => committed_ops += script.len() as u64,
            Err(TxnError::RetriesExhausted(_)) => {}
            Err(e) => panic!("admission workload failed: {e}"),
        }
    }
    let wall_s = start.elapsed().as_secs_f64();

    for txn in pinned {
        txn.abort();
    }
    rt.check_invariants()
        .expect("invariants hold after the run");
    let stats = rt.stats();
    assert_eq!(stats.begun, stats.commits + stats.aborts);
    Measurement {
        engine: "speculative",
        workload: workload.name(),
        admit: admit_label(backend),
        fallback: "off",
        threads: 1,
        target_ops: txns * 2,
        committed_ops,
        commits: stats.commits,
        aborts: stats.aborts,
        conflicts: stats.conflicts,
        degraded_commits: stats.degraded_commits,
        mode_switches: stats.mode_switches,
        pinned_ops,
        wall_s,
    }
}

/// The admission-only microbenchmark: drives the gatekeeper's indexed check
/// path directly — the exact code the executor's hot loop runs per (logged
/// entry, incoming operation) pair — over a log shaped like
/// [`run_admission`]'s pinned transactions and incoming operations drawn
/// from the same workload distributions. No structure, no logging, no
/// commit: the measured wall time is admission evaluation alone, so the
/// per-check ratio between the two backends is the number the acceptance
/// criterion pins. Every check runs (no conflict early-exit), so both
/// backends perform the identical check sequence; `commits` counts admitted
/// checks, `conflicts` conflict verdicts, `aborts` evaluation errors
/// (expected 0).
fn run_gatekeeper(
    workload: Workload,
    backend: AdmitBackend,
    checks: u64,
    prefill: u64,
) -> Measurement {
    let g = CommutativityGatekeeper::with_backend(InterfaceId::Set, backend);

    // The same entry shape `run_admission`'s pinned transactions log, with
    // the results the runtime would record — including the projected
    // pre-state for operations whose conditions read `s1`, exactly as the
    // executor attaches it when logging.
    let pre = prefilled(prefill).abstract_state().to_value();
    let base = (prefill * 100) as u32;
    let mut entries: Vec<(u16, LogEntry)> = Vec::new();
    for t in 0..20u32 {
        let reserved = |i: u32| Value::elem(base + t * 10 + i);
        let shaped = [
            ("add", reserved(0), Value::Bool(true)),
            ("remove", reserved(1), Value::Bool(false)),
            ("contains", reserved(2), Value::Bool(false)),
            ("contains", Value::elem(t % 3 + 1), Value::Bool(true)),
            ("add", reserved(3), Value::Bool(true)),
            ("remove", reserved(4), Value::Bool(false)),
        ];
        for (op, arg, result) in shaped {
            entries.push((
                g.op_index(op).expect("catalog operation"),
                LogEntry {
                    txn: u64::from(t) + 1,
                    op: op.to_string(),
                    args: vec![arg],
                    result: Some(result),
                    pre_state: g.requires_pre_state(op).then(|| pre.clone()),
                },
            ));
        }
    }

    let incoming = checks / (2 * entries.len() as u64); // two ops per script
    let mut rng = XorShift::new(0x06a7_ebad ^ checks);
    let (mut performed, mut admitted, mut conflicts, mut errors) = (0u64, 0u64, 0u64, 0u64);
    let start = Instant::now();
    for _ in 0..incoming {
        for (op, args) in workload.transaction(&mut rng, prefill) {
            let op_idx = g.op_index(op).expect("catalog operation");
            for (first, entry) in &entries {
                performed += 1;
                match g.check_indexed(*first, entry, op_idx, op, &args) {
                    Ok(()) => admitted += 1,
                    Err(AdmissionError::Conflict(_)) => conflicts += 1,
                    Err(AdmissionError::Evaluation(_)) => errors += 1,
                }
            }
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    assert_eq!(errors, 0, "well-formed entries never fail evaluation");
    Measurement {
        engine: "gatekeeper",
        workload: workload.name(),
        admit: admit_label(backend),
        fallback: "n/a",
        threads: 1,
        target_ops: checks,
        committed_ops: performed,
        commits: admitted,
        aborts: errors,
        conflicts,
        degraded_commits: 0,
        mode_switches: 0,
        pinned_ops: entries.len() as u64,
        wall_s,
    }
}

/// Number of live snapshots the mirror microharness keeps retained — shaped
/// like a handful of open transactions whose logged entries each hold a
/// pre-state projection.
const MIRROR_RETAIN: usize = 64;

/// How far above the coarse baseline's per-op cost the adaptive runtime may
/// land on the forced-contention `hot` leg. The degraded section is the
/// coarse discipline plus the costs that keep speculation resumable and
/// abortable — the inverse log recorded per operation, the persistent
/// mirror updated in step with every mutation, and the mode-gate
/// acquisition per transaction — so the adaptive engine cannot match the
/// bare baseline exactly. Measured on the dev host it lands at ~5.6× the
/// coarse floor (versus ~21× for non-degraded speculation and unbounded
/// retry cost without the fallback); the criterion pins that it stays
/// within the same order as the baseline, not within speculation's.
const HOT_ADAPTIVE_OVER_COARSE_MAX: f64 = 8.0;

/// How much worse the non-adaptive (`fallback=off`) runtime must do than
/// the adaptive one on the forced-contention leg: every transaction pays
/// the speculate-abort-retry cycle the adaptive engine escapes by
/// degrading, and adaptation must win by a wide margin.
const HOT_OFF_OVER_ADAPTIVE_MIN: f64 = 3.0;

/// The key distribution of the snapshot loops: hot-key skew over a domain
/// twice the structure size (so inserts and removes both happen).
fn snapshot_key(rng: &mut XorShift, n: u64) -> ElemId {
    let k = if rng.below(2) == 0 {
        rng.below(16)
    } else {
        rng.below(n * 2)
    };
    ElemId(k as u32 + 1)
}

/// Folds a set's contents into a checksum so the flat and tree mirror legs
/// can prove they computed the same thing.
fn set_checksum(elems: impl Iterator<Item = ElemId>) -> u64 {
    elems.fold(0u64, |a, e| {
        a.wrapping_mul(0x100_0000_01b3).wrapping_add(u64::from(e.0))
    })
}

/// The flat half of the mirror microharness: the PR 3 representation — an
/// eager collection behind `Arc` with `make_mut` copy-on-write. Retaining a
/// snapshot is an `O(1)` handle clone, but the next mutation re-clones the
/// *entire* collection. This loop pays no `Value` wrapper or dispatch cost,
/// so it is a lower bound on what the real runtime paid under the flat
/// representation.
fn run_snapshot_mirror_flat(ops: u64, n: u64) -> (Measurement, u64) {
    let mut primary: Arc<BTreeSet<ElemId>> = Arc::new((1..=n as u32).map(ElemId).collect());
    let mut retained: VecDeque<Arc<BTreeSet<ElemId>>> = VecDeque::with_capacity(MIRROR_RETAIN);
    let mut rng = XorShift::new(0x5a_a9_5a_a9 ^ ops);
    let start = Instant::now();
    for _ in 0..ops {
        if retained.len() == MIRROR_RETAIN {
            retained.pop_front();
        }
        // The pre-state projection the executor attaches to a logged entry.
        retained.push_back(Arc::clone(&primary));
        // The next mirror mutation: `make_mut` detaches from every retained
        // snapshot by cloning the whole collection.
        let k = snapshot_key(&mut rng, n);
        let set = Arc::make_mut(&mut primary);
        if !set.insert(k) {
            set.remove(&k);
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    let checksum = set_checksum(primary.iter().copied());
    (
        Measurement {
            engine: "mirror_flat",
            workload: "skewed",
            admit: "default",
            fallback: "n/a",
            threads: 1,
            target_ops: ops,
            committed_ops: ops,
            commits: 0,
            aborts: 0,
            conflicts: 0,
            degraded_commits: 0,
            mode_switches: 0,
            pinned_ops: MIRROR_RETAIN as u64,
            wall_s,
        },
        checksum,
    )
}

/// The tree half of the mirror microharness: the identical deterministic
/// loop against the tree-shaped [`PSet`], whose mutations detach from the
/// retained snapshots by path-copying `O(log n)` nodes.
fn run_snapshot_mirror_tree(ops: u64, n: u64) -> (Measurement, u64) {
    let mut primary: PSet = (1..=n as u32).map(ElemId).collect();
    let mut retained: VecDeque<PSet> = VecDeque::with_capacity(MIRROR_RETAIN);
    let mut rng = XorShift::new(0x5a_a9_5a_a9 ^ ops);
    let start = Instant::now();
    for _ in 0..ops {
        if retained.len() == MIRROR_RETAIN {
            retained.pop_front();
        }
        retained.push_back(primary.clone());
        let k = snapshot_key(&mut rng, n);
        if !primary.insert(k) {
            primary.remove(&k);
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    let checksum = set_checksum(primary.iter().copied());
    (
        Measurement {
            engine: "mirror_tree",
            workload: "skewed",
            admit: "default",
            fallback: "n/a",
            threads: 1,
            target_ops: ops,
            committed_ops: ops,
            commits: 0,
            aborts: 0,
            conflicts: 0,
            degraded_commits: 0,
            mode_switches: 0,
            pinned_ops: MIRROR_RETAIN as u64,
            wall_s,
        },
        checksum,
    )
}

/// The end-to-end snapshot-heavy leg: the production runtime on a large
/// prefilled set, driving transactions that interleave `size` probes (whose
/// between conditions read `s1`, so the executor attaches a pre-state
/// projection to each) with hot-key-skew mutations. Every projection retains
/// the tracked mirror's state value, so each following mutation pays the
/// representation's detach cost — the cost the tentpole moved from `O(n)`
/// to `O(log n)`.
fn run_snapshot_runtime(ops: u64, prefill: u64) -> Measurement {
    let rt = SpeculativeRuntime::new(prefilled(prefill));
    let ops_per_txn = 8u64; // four (size, mutate) pairs
    let txns = ops / ops_per_txn;
    let mut committed_ops = 0u64;
    let mut rng = XorShift::new(0x5a_a9_5a_a9 ^ ops);
    let start = Instant::now();
    for _ in 0..txns {
        let script: Vec<(&str, Vec<Value>)> = (0..4)
            .flat_map(|_| {
                let k = snapshot_key(&mut rng, prefill);
                let mutate = if rng.below(2) == 0 { "add" } else { "remove" };
                [("size", vec![]), (mutate, vec![Value::Elem(k)])]
            })
            .collect();
        let done = rt.run(1_000, |txn| {
            for (op, args) in &script {
                txn.execute(op, args)?;
            }
            Ok(())
        });
        match done {
            Ok(()) => committed_ops += script.len() as u64,
            Err(TxnError::RetriesExhausted(_)) => {}
            Err(e) => panic!("snapshot workload failed: {e}"),
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    rt.check_invariants()
        .expect("invariants hold after the run");
    let stats = rt.stats();
    assert_eq!(stats.begun, stats.commits + stats.aborts);
    Measurement {
        engine: "snapshot_runtime",
        workload: "skewed",
        admit: "default",
        fallback: "default",
        threads: 1,
        target_ops: txns * ops_per_txn,
        committed_ops,
        commits: stats.commits,
        aborts: stats.aborts,
        conflicts: stats.conflicts,
        degraded_commits: stats.degraded_commits,
        mode_switches: stats.mode_switches,
        pinned_ops: 0,
        wall_s,
    }
}

fn main() {
    let mut ops: u64 = 250_000;
    let mut seed_ops: u64 = 20_000;
    let mut prefill: u64 = 10_000;
    let mut admit: Vec<AdmitBackend> = vec![AdmitBackend::Bytecode, AdmitBackend::Interp];
    let mut snap_ops: Option<u64> = None;
    let mut snap_prefill: u64 = 4_096;
    let mut json_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--ops" => ops = args.next().and_then(|v| v.parse().ok()).expect("--ops N"),
            "--snap-ops" => {
                snap_ops = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--snap-ops N"),
                )
            }
            "--snap-prefill" => {
                snap_prefill = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--snap-prefill N")
            }
            "--seed-ops" => {
                seed_ops = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--seed-ops N")
            }
            "--prefill" => {
                prefill = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--prefill N")
            }
            "--admit" => {
                admit = match args.next().as_deref() {
                    Some("bytecode") => vec![AdmitBackend::Bytecode],
                    Some("interp") => vec![AdmitBackend::Interp],
                    Some("both") => vec![AdmitBackend::Bytecode, AdmitBackend::Interp],
                    Some("off") => vec![],
                    other => panic!("--admit bytecode|interp|both|off, got {other:?}"),
                }
            }
            "--json" => json_path = Some(args.next().expect("--json PATH")),
            other => panic!("unknown option {other}"),
        }
    }

    semcommute_bench::banner("runtime workload: speculative vs coarse-lock vs seed");
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get() as u64);
    println!(
        "host parallelism: {host_threads}, ops: {ops}, prefill: {prefill}, seed ops: {seed_ops}"
    );

    let mut runs: Vec<Measurement> = Vec::new();
    for workload in [Workload::Uniform, Workload::Skewed] {
        for threads in [1, 2, 4, 8] {
            runs.push(run_speculative(workload, threads, ops, prefill));
            runs.push(run_coarse(workload, threads, ops, prefill));
            let last = runs.len() - 2;
            println!(
                "{:8} {:12} t={:2}  spec {:>12.0} ops/s ({:>7.0} ns/op, {} aborts)   coarse {:>12.0} ops/s ({:>7.0} ns/op)",
                workload.name(),
                "",
                threads,
                runs[last].committed_ops_per_s(),
                runs[last].per_op_ns(),
                runs[last].aborts,
                runs[last + 1].committed_ops_per_s(),
                runs[last + 1].per_op_ns(),
            );
        }
        // The seed engine is measured at threads=1 on a reduced op count —
        // its per-operation state clone makes full-size runs impractical,
        // which is the point of measuring it.
        runs.push(run_seed(workload, 1, seed_ops, prefill));
        let last = runs.len() - 1;
        println!(
            "{:8} {:12} t= 1  seed {:>13.0} ops/s ({:>7.0} ns/op) [reduced {} ops]",
            workload.name(),
            "",
            runs[last].committed_ops_per_s(),
            runs[last].per_op_ns(),
            seed_ops,
        );
    }

    // The admission legs: same reduced op count for both backends, a small
    // prefill, pinned background transactions supplying the entries to admit
    // against (see `run_admission`).
    let admit_ops = (ops / 5).max(1_000);
    let admit_prefill = 64;
    for workload in [Workload::Uniform, Workload::Skewed] {
        for &backend in &admit {
            runs.push(run_admission(workload, backend, admit_ops, admit_prefill));
            let m = runs.last().unwrap();
            println!(
                "{:8} admit/{:5} t= 1  spec {:>12.0} ops/s ({:>7.0} ns/op, {} commits, \
                 {} aborts, {} conflicts)",
                m.workload,
                m.admit,
                m.committed_ops_per_s(),
                m.per_op_ns(),
                m.commits,
                m.aborts,
                m.conflicts,
            );
        }
    }

    // The admission-only microbenchmark: same log shape and workload
    // distributions, gatekeeper checks alone (see `run_gatekeeper`).
    let gate_checks = (ops * 4).max(100_000);
    for workload in [Workload::Uniform, Workload::Skewed] {
        for &backend in &admit {
            runs.push(run_gatekeeper(
                workload,
                backend,
                gate_checks,
                admit_prefill,
            ));
            let m = runs.last().unwrap();
            println!(
                "{:8} gate/{:6} t= 1  {:>14.0} checks/s ({:>6.0} ns/check, \
                 {} admitted, {} conflicts)",
                m.workload,
                m.admit,
                m.committed_ops_per_s(),
                m.per_op_ns(),
                m.commits,
                m.conflicts,
            );
        }
    }

    // The snapshot-heavy legs: the flat-vs-tree mirror microharness (the
    // identical deterministic loop under both representations), then the
    // end-to-end runtime leg (see `run_snapshot_runtime`). The flat leg runs
    // a reduced op count — each of its mutations re-clones the whole
    // structure, which is the point of measuring it.
    let snap_ops = snap_ops.unwrap_or_else(|| (ops / 5).max(10_000));
    let flat_ops = (snap_ops / 10).max(1_000);
    let (flat, flat_checksum) = run_snapshot_mirror_flat(flat_ops, snap_prefill);
    let (tree, _tree_checksum) = run_snapshot_mirror_tree(snap_ops, snap_prefill);
    let mirror_flat_per_op = flat.per_op_ns();
    let mirror_tree_per_op = tree.per_op_ns();
    // The two loops are deterministic and identical apart from length; rerun
    // the tree leg at the flat leg's length for the contents check.
    let (_, tree_at_flat_len) = run_snapshot_mirror_tree(flat_ops, snap_prefill);
    let mirror_contents_identical = flat_checksum == tree_at_flat_len;
    for m in [flat, tree] {
        println!(
            "{:8} {:12} t= 1  {:>14.0} ops/s ({:>7.0} ns/op) [n={}, {} retained]",
            m.workload,
            m.engine,
            m.committed_ops_per_s(),
            m.per_op_ns(),
            snap_prefill,
            m.pinned_ops,
        );
        runs.push(m);
    }
    runs.push(run_snapshot_runtime(snap_ops, snap_prefill));
    let m = runs.last().unwrap();
    println!(
        "{:8} {:12} t= 1  {:>14.0} ops/s ({:>7.0} ns/op, {} commits, {} aborts)",
        m.workload,
        m.engine,
        m.committed_ops_per_s(),
        m.per_op_ns(),
        m.commits,
        m.aborts,
    );

    // The contention legs: forced conflicts on every `hot_period`-th
    // operation ordinal make roughly two thirds of speculative admission
    // attempts abort (two-op transactions draw two consecutive ordinals),
    // identically on every host. The adaptive runtime must cross its abort
    // threshold, degrade to the coarse section, and ride it — probe windows
    // keep failing, so it stays degraded; the non-adaptive runtime pays the
    // full speculate-abort-retry cost for every transaction; the coarse
    // baseline is the floor the degraded path borrows its discipline from.
    let hot_ops = (ops / 5).max(10_000);
    let hot_period = 3;
    for threads in [1, 4] {
        // The threads=1 legs gate acceptance on wall-clock ratios, so they
        // run best-of-3 (see `best_of`); the threads=4 legs are recorded
        // for the report only.
        let reps = if threads == 1 { 3 } else { 1 };
        for (fallback, options) in [
            ("on", FallbackOptions::on()),
            ("off", FallbackOptions::off()),
        ] {
            runs.push(best_of(reps, || {
                run_speculative_leg(
                    Workload::Hot,
                    threads,
                    hot_ops,
                    prefill,
                    fallback,
                    RuntimeOptions {
                        fallback: options,
                        ..RuntimeOptions::default()
                    },
                    Some(hot_period),
                )
            }));
            let m = runs.last().unwrap();
            println!(
                "{:8} fb={:9} t={:2}  spec {:>12.0} ops/s ({:>7.0} ns/op, {} aborts, \
                 {} degraded, {} switches)",
                m.workload,
                m.fallback,
                m.threads,
                m.committed_ops_per_s(),
                m.per_op_ns(),
                m.aborts,
                m.degraded_commits,
                m.mode_switches,
            );
        }
        runs.push(best_of(reps, || {
            run_coarse(Workload::Hot, threads, hot_ops, prefill)
        }));
        let m = runs.last().unwrap();
        println!(
            "{:8} {:12} t={:2}  coarse {:>10.0} ops/s ({:>7.0} ns/op)",
            m.workload,
            "",
            m.threads,
            m.committed_ops_per_s(),
            m.per_op_ns(),
        );
    }

    // The fallback parity legs: the classic workloads with the fallback
    // explicitly on and explicitly off. Their abort rates sit far below the
    // degrade threshold, so these legs pin the cost of *having* the
    // contention manager armed when it never fires.
    for workload in [Workload::Uniform, Workload::Skewed] {
        for threads in [1, 4] {
            // Only the threads=1 ratio gates acceptance (within 10%), so
            // those legs run best-of-3.
            let reps = if threads == 1 { 3 } else { 1 };
            for (fallback, options) in [
                ("on", FallbackOptions::on()),
                ("off", FallbackOptions::off()),
            ] {
                runs.push(best_of(reps, || {
                    run_speculative_leg(
                        workload,
                        threads,
                        ops,
                        prefill,
                        fallback,
                        RuntimeOptions {
                            fallback: options,
                            ..RuntimeOptions::default()
                        },
                        None,
                    )
                }));
                let m = runs.last().unwrap();
                println!(
                    "{:8} fb={:9} t={:2}  spec {:>12.0} ops/s ({:>7.0} ns/op, {} aborts, \
                     {} switches)",
                    m.workload,
                    m.fallback,
                    m.threads,
                    m.committed_ops_per_s(),
                    m.per_op_ns(),
                    m.aborts,
                    m.mode_switches,
                );
            }
        }
    }

    // Acceptance: the production engine at threads=1 must show ≥ 5× lower
    // per-committed-op overhead than the seed engine, on any host.
    // Speculative-over-coarse throughput at threads=4 is recorded only: it
    // depends on the host's core count.
    let per_op = |engine: &str, workload: &str, threads: u64| {
        runs.iter()
            .find(|m| {
                m.engine == engine
                    && m.workload == workload
                    && m.threads == threads
                    // The classic grid only — not the dedicated fallback legs.
                    && (m.fallback == "default" || m.fallback == "n/a")
            })
            .map(|m| m.per_op_ns())
            .unwrap_or(f64::INFINITY)
    };
    let overhead_ratio_uniform = per_op("seed", "uniform", 1) / per_op("speculative", "uniform", 1);
    let overhead_ratio_skewed = per_op("seed", "skewed", 1) / per_op("speculative", "skewed", 1);
    let spec_vs_coarse_t4 = {
        let spec = runs
            .iter()
            .find(|m| m.engine == "speculative" && m.workload == "uniform" && m.threads == 4)
            .map(|m| m.committed_ops_per_s())
            .unwrap_or(0.0);
        let coarse = runs
            .iter()
            .find(|m| m.engine == "coarse_lock" && m.workload == "uniform" && m.threads == 4)
            .map(|m| m.committed_ops_per_s())
            .unwrap_or(f64::INFINITY);
        spec / coarse
    };
    // When both admission backends ran, two comparisons gate acceptance:
    //
    // * **End-to-end**: the runtime admission legs must have *identical*
    //   commit/abort/conflict counts (same deterministic workload; verdict
    //   agreement is proven by the diff harnesses — a mismatch here is a
    //   real bug), and the compiled backend must not be slower. End-to-end
    //   wall time also pays structure application, logging, and commit
    //   bookkeeping, identically under both backends, so this ratio
    //   understates the admission speedup.
    // * **Admission-only**: the gatekeeper microbenchmark isolates the
    //   per-check cost the tentpole changed; compiled admission must be at
    //   most 0.5× the interpreter per check, with identical verdicts. With
    //   identical counts the wall-time ratio *is* the per-op ratio.
    let admit_both =
        admit.contains(&AdmitBackend::Bytecode) && admit.contains(&AdmitBackend::Interp);
    let mut admit_counts_identical = true;
    let mut admit_ratio = |engine: &str, wl: &str| -> f64 {
        let leg = |backend: &str| {
            runs.iter()
                .find(|m| m.engine == engine && m.admit == backend && m.workload == wl)
                .expect("both admission legs ran")
        };
        let fast = leg("bytecode");
        let slow = leg("interp");
        admit_counts_identical &= fast.commits == slow.commits
            && fast.aborts == slow.aborts
            && fast.conflicts == slow.conflicts
            && fast.committed_ops == slow.committed_ops;
        slow.wall_s / fast.wall_s
    };
    let (admit_uniform, admit_skewed, gate_uniform, gate_skewed) = if admit_both {
        (
            admit_ratio("speculative", "uniform"),
            admit_ratio("speculative", "skewed"),
            admit_ratio("gatekeeper", "uniform"),
            admit_ratio("gatekeeper", "skewed"),
        )
    } else {
        (0.0, 0.0, 0.0, 0.0)
    };
    let admit_passed = !admit_both
        || (admit_counts_identical
            && gate_uniform >= 2.0
            && gate_skewed >= 2.0
            && admit_uniform > 1.0
            && admit_skewed > 1.0);

    // The snapshot criterion: under the identical retain-then-mutate loop
    // the tree representation's per-op cost must be materially (≥ 2×) lower
    // than the flat mirror's — which, being a lower bound on the real flat
    // cost, makes the comparison conservative — and both loops must compute
    // the same final contents.
    let mirror_flat_over_tree = mirror_flat_per_op / mirror_tree_per_op;
    let snapshot_passed = mirror_flat_over_tree >= 2.0 && mirror_contents_identical;

    // The contention criterion, measured at threads=1 where the forced
    // contention is exactly deterministic. Under forced conflicts the
    // adaptive runtime must actually adapt (at least one mode switch, most
    // commits through the degraded section) and end up within a small
    // constant of the coarse baseline's per-op cost — the degraded section
    // *is* the coarse discipline, plus the mirror maintenance and mode-gate
    // bookkeeping that keep speculation resumable — while the non-adaptive
    // runtime must lose to the adaptive one by a wide margin. The parity
    // legs must show the armed-but-idle contention manager never firing and
    // costing nothing measurable (per-op parity within 10% at threads=1).
    let fallback_leg = |workload: &str, fallback: &str, threads: u64| {
        runs.iter()
            .find(|m| {
                m.engine == "speculative"
                    // Not the dedicated admission legs, which also pin the
                    // fallback off (their gate-pinning transactions exclude
                    // the degraded path — see `run_admission`).
                    && m.admit == "default"
                    && m.workload == workload
                    && m.fallback == fallback
                    && m.threads == threads
            })
            .expect("fallback leg ran")
    };
    let hot_adaptive = fallback_leg("hot", "on", 1);
    let hot_off = fallback_leg("hot", "off", 1);
    let hot_coarse_per_op = per_op("coarse_lock", "hot", 1);
    let hot_adaptive_over_coarse = hot_adaptive.per_op_ns() / hot_coarse_per_op;
    let hot_off_over_adaptive = hot_off.per_op_ns() / hot_adaptive.per_op_ns();
    let hot_degraded_share =
        hot_adaptive.degraded_commits as f64 / hot_adaptive.commits.max(1) as f64;
    let hot_adapted = hot_adaptive.mode_switches >= 1
        && hot_degraded_share >= 0.5
        && hot_off.mode_switches == 0
        && hot_off.degraded_commits == 0;
    let parity_uniform = fallback_leg("uniform", "on", 1).per_op_ns()
        / fallback_leg("uniform", "off", 1).per_op_ns();
    let parity_skewed =
        fallback_leg("skewed", "on", 1).per_op_ns() / fallback_leg("skewed", "off", 1).per_op_ns();
    // All eight parity legs (both workloads, both thread counts, on and
    // off): the mode machinery must never have fired.
    let parity_never_fired = [Workload::Uniform, Workload::Skewed].iter().all(|w| {
        [1u64, 4].iter().all(|&t| {
            ["on", "off"].iter().all(|fb| {
                let m = fallback_leg(w.name(), fb, t);
                m.mode_switches == 0 && m.degraded_commits == 0
            })
        })
    });
    let parity_within = |ratio: f64| (0.9..=1.1).contains(&ratio);
    let fallback_passed = hot_adapted
        && hot_adaptive_over_coarse <= HOT_ADAPTIVE_OVER_COARSE_MAX
        && hot_off_over_adaptive >= HOT_OFF_OVER_ADAPTIVE_MIN
        && parity_within(parity_uniform)
        && parity_within(parity_skewed)
        && parity_never_fired;

    let single_core = host_threads == 1;
    let classic_passed = overhead_ratio_uniform >= 5.0 && overhead_ratio_skewed >= 5.0;
    let passed = classic_passed && admit_passed && snapshot_passed && fallback_passed;
    println!();
    println!(
        "seed/speculative per-op overhead ratio: uniform {overhead_ratio_uniform:.1}x, \
         skewed {overhead_ratio_skewed:.1}x"
    );
    println!(
        "speculative/coarse throughput at t=4 (uniform, recorded, not gated): \
         {spec_vs_coarse_t4:.2}x"
    );
    if admit_both {
        println!(
            "interp/bytecode end-to-end per-op ratio: uniform {admit_uniform:.2}x, \
             skewed {admit_skewed:.2}x (counts identical: {admit_counts_identical})"
        );
        println!(
            "interp/bytecode admission-only per-check ratio: uniform {gate_uniform:.2}x, \
             skewed {gate_skewed:.2}x"
        );
    }
    println!(
        "flat/tree snapshot-loop per-op ratio: {mirror_flat_over_tree:.1}x \
         (flat {mirror_flat_per_op:.0} ns/op, tree {mirror_tree_per_op:.0} ns/op, \
         contents identical: {mirror_contents_identical})"
    );
    println!(
        "hot leg (forced conflict every {hot_period} ops, t=1): adaptive/coarse per-op \
         {hot_adaptive_over_coarse:.2}x, off/adaptive per-op {hot_off_over_adaptive:.1}x, \
         degraded commit share {:.0}%, switches {}",
        hot_degraded_share * 100.0,
        hot_adaptive.mode_switches,
    );
    println!(
        "fallback parity (on/off per-op, t=1): uniform {parity_uniform:.3}x, \
         skewed {parity_skewed:.3}x (never fired: {parity_never_fired})"
    );
    println!(
        "acceptance (>=5x lower per-op overhead than seed at t=1{}; tree >=2x lower \
         snapshot-loop per-op than flat; adaptive <={HOT_ADAPTIVE_OVER_COARSE_MAX}x \
         coarse and >={HOT_OFF_OVER_ADAPTIVE_MIN}x better than fallback-off under \
         forced contention, parity within 10%): {}",
        if admit_both {
            "; compiled admission <=0.5x interp per-check, faster end-to-end, identical counts"
        } else {
            ""
        },
        if passed { "PASS" } else { "FAIL" }
    );

    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"options\": {{\"ops\": {ops}, \"seed_ops\": {seed_ops}, \"prefill\": {prefill}, \
         \"admit\": [{}], \"admit_ops\": {admit_ops}, \"admit_prefill\": {admit_prefill}, \"gate_checks\": {gate_checks}, \
         \"snap_ops\": {snap_ops}, \"snap_flat_ops\": {flat_ops}, \"snap_prefill\": {snap_prefill}, \
         \"snap_retained\": {MIRROR_RETAIN}, \
         \"hot_ops\": {hot_ops}, \"hot_conflict_period\": {hot_period}, \
         \"host_parallelism\": {host_threads}}},\n",
        admit
            .iter()
            .map(|&b| format!("\"{}\"", admit_label(b)))
            .collect::<Vec<_>>()
            .join(", "),
    ));
    json.push_str("  \"runs\": [\n");
    for (i, m) in runs.iter().enumerate() {
        json.push_str(&m.json());
        json.push_str(if i + 1 < runs.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"acceptance\": {{\"single_core_host\": {single_core}, \
         \"seed_over_speculative_per_op_uniform\": {overhead_ratio_uniform:.2}, \
         \"seed_over_speculative_per_op_skewed\": {overhead_ratio_skewed:.2}, \
         \"speculative_over_coarse_t4_uniform\": {spec_vs_coarse_t4:.3}, \
         \"admit_compared\": {admit_both}, \
         \"admit_interp_over_bytecode_uniform\": {admit_uniform:.2}, \
         \"admit_interp_over_bytecode_skewed\": {admit_skewed:.2}, \
         \"gate_interp_over_bytecode_uniform\": {gate_uniform:.2}, \
         \"gate_interp_over_bytecode_skewed\": {gate_skewed:.2}, \
         \"admit_counts_identical\": {admit_counts_identical}, \
         \"mirror_flat_over_tree_per_op\": {mirror_flat_over_tree:.2}, \
         \"mirror_flat_per_op_ns\": {mirror_flat_per_op:.1}, \
         \"mirror_tree_per_op_ns\": {mirror_tree_per_op:.1}, \
         \"mirror_contents_identical\": {mirror_contents_identical}, \
         \"hot_adaptive_over_coarse_per_op\": {hot_adaptive_over_coarse:.2}, \
         \"hot_adaptive_over_coarse_max\": {HOT_ADAPTIVE_OVER_COARSE_MAX}, \
         \"hot_off_over_adaptive_per_op\": {hot_off_over_adaptive:.2}, \
         \"hot_off_over_adaptive_min\": {HOT_OFF_OVER_ADAPTIVE_MIN}, \
         \"hot_degraded_commit_share\": {hot_degraded_share:.3}, \
         \"hot_adaptive_mode_switches\": {}, \
         \"fallback_parity_uniform_t1\": {parity_uniform:.3}, \
         \"fallback_parity_skewed_t1\": {parity_skewed:.3}, \
         \"fallback_parity_never_fired\": {parity_never_fired}, \
         \"fallback_passed\": {fallback_passed}, \
         \"passed\": {passed}}}\n",
        hot_adaptive.mode_switches,
    ));
    json.push('}');
    if let Some(path) = json_path {
        std::fs::write(&path, &json).expect("write JSON report");
        println!("wrote {path}");
    } else {
        println!("{json}");
    }
    assert!(passed, "acceptance criterion not met");
}
