//! Runtime acceptance bar: the contention fallback.
//!
//! Drives mixed set transactions (adds, membership tests, removes) through
//! the production [`SpeculativeRuntime`] and the [`CoarseLockRuntime`]
//! baseline under deterministic workloads, and panics unless the bar below
//! holds. The abort-rate-driven coarse-lock fallback
//! ([`semcommute_runtime::contention`]) is measured from both sides:
//!
//! * `hot` legs drive a deterministic high-contention workload — every
//!   admission attempt is forced into conflict on a fixed ordinal period by
//!   an attached [`FaultPlan`], so the measured contention is identical on
//!   every host — through three engines: the adaptive runtime
//!   (`fallback=on`, which degrades to the coarse section and stays there),
//!   the non-adaptive runtime (`fallback=off`, which pays the full
//!   speculate-abort-retry cost for every transaction), and the coarse-lock
//!   baseline (the cost floor the degraded path borrows).
//! * fallback **parity** legs run a `uniform` workload (keys drawn from a
//!   large domain, so almost everything commutes) and a `skewed` one (half
//!   the operations on a handful of hot keys) with the fallback explicitly
//!   on and explicitly off: their abort rates sit far below the degrade
//!   threshold, so the mode machinery must never fire (`mode_switches ==
//!   0`) and its bookkeeping overhead must stay in the noise (per-op parity
//!   within 10% at threads=1).
//!
//! Usage: `runtime_perf [--ops N] [--prefill N] [--json PATH]`.
//! Emits the measurements as JSON with an `acceptance` section recording
//! the bar, which depends on no host's core count: under forced
//! contention the adaptive runtime must land near the coarse baseline's
//! per-op cost while the non-adaptive runtime loses to it by a wide margin.
//! Throughput and latency against the coarse baseline are measured by the
//! `perfbench` package, not here.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use semcommute_logic::Value;
use semcommute_runtime::{
    AnyStructure, CoarseLockRuntime, FallbackOptions, FaultPlan, RuntimeOptions,
    SpeculativeRuntime, TxnError,
};

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
    /// Which fallback configuration the leg ran under: `"on"` / `"off"` for
    /// the speculative legs, `"n/a"` for non-speculative engines.
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
            "    {{\"engine\": \"{}\", \"workload\": \"{}\", \
             \"fallback\": \"{}\", \"threads\": {}, \
             \"target_ops\": {}, \"committed_ops\": {}, \"commits\": {}, \"aborts\": {}, \
             \"conflicts\": {}, \"degraded_commits\": {}, \"mode_switches\": {}, \
             \"wall_s\": {:.6}, \
             \"committed_ops_per_s\": {:.1}, \
             \"per_op_ns\": {:.1}}}",
            self.engine,
            self.workload,
            self.fallback,
            self.threads,
            self.target_ops,
            self.committed_ops,
            self.commits,
            self.aborts,
            self.conflicts,
            self.degraded_commits,
            self.mode_switches,
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
        fallback,
        threads,
        target_ops: per_thread * threads * 2,
        committed_ops: committed_ops.load(Ordering::Relaxed),
        commits: stats.commits,
        aborts: stats.aborts,
        conflicts: stats.conflicts,
        degraded_commits: stats.degraded_commits,
        mode_switches: stats.mode_switches,
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
        fallback: "n/a",
        threads,
        target_ops: per_thread * threads * 2,
        committed_ops: commits * 2,
        commits,
        aborts: 0,
        conflicts: 0,
        degraded_commits: 0,
        mode_switches: 0,
        wall_s,
    }
}

/// How far above the coarse baseline's per-op cost the adaptive runtime may
/// land on the forced-contention `hot` leg. The degraded section is the
/// coarse discipline plus the costs that keep speculation resumable and
/// abortable — the inverse log recorded per operation, the persistent
/// mirror updated in step with every mutation, and the mode-gate
/// acquisition per transaction — so the adaptive engine cannot match the
/// bare baseline exactly. Measured on the dev host it lands at ~5.6× the
/// coarse floor (versus ~21× for non-degraded speculation and unbounded
/// retry cost without the fallback); the bar pins that it stays
/// within the same order as the baseline, not within speculation's.
const HOT_ADAPTIVE_OVER_COARSE_MAX: f64 = 8.0;

/// How much worse the non-adaptive (`fallback=off`) runtime must do than
/// the adaptive one on the forced-contention leg: every transaction pays
/// the speculate-abort-retry cycle the adaptive engine escapes by
/// degrading, and adaptation must win by a wide margin.
const HOT_OFF_OVER_ADAPTIVE_MIN: f64 = 3.0;

fn main() {
    let mut ops: u64 = 250_000;
    let mut prefill: u64 = 10_000;
    let mut json_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--ops" => ops = args.next().and_then(|v| v.parse().ok()).expect("--ops N"),
            "--prefill" => {
                prefill = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--prefill N")
            }
            "--json" => json_path = Some(args.next().expect("--json PATH")),
            other => panic!("unknown option {other}"),
        }
    }

    semcommute_bench::banner("runtime acceptance bar: contention fallback");
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get() as u64);
    println!("host parallelism: {host_threads}, ops: {ops}, prefill: {prefill}");

    let mut runs: Vec<Measurement> = Vec::new();

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

    // The fallback parity legs: the uniform and skewed workloads with the fallback
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

    // The contention bar, measured at threads=1 where the forced
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
                    && m.workload == workload
                    && m.fallback == fallback
                    && m.threads == threads
            })
            .expect("fallback leg ran")
    };
    let hot_adaptive = fallback_leg("hot", "on", 1);
    let hot_off = fallback_leg("hot", "off", 1);
    let hot_coarse_per_op = runs
        .iter()
        .find(|m| m.engine == "coarse_lock" && m.workload == "hot" && m.threads == 1)
        .expect("coarse hot leg ran")
        .per_op_ns();
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

    let passed = fallback_passed;
    println!();
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
        "acceptance (adaptive <={HOT_ADAPTIVE_OVER_COARSE_MAX}x coarse and \
         >={HOT_OFF_OVER_ADAPTIVE_MIN}x better than fallback-off under forced contention, \
         parity within 10%): {}",
        if passed { "PASS" } else { "FAIL" }
    );

    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"options\": {{\"ops\": {ops}, \"prefill\": {prefill}, \
         \"hot_ops\": {hot_ops}, \"hot_conflict_period\": {hot_period}, \
         \"host_parallelism\": {host_threads}}},\n",
    ));
    json.push_str("  \"runs\": [\n");
    for (i, m) in runs.iter().enumerate() {
        json.push_str(&m.json());
        json.push_str(if i + 1 < runs.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"acceptance\": {{\
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
    assert!(passed, "acceptance bar not met");
}
