//! The `verify_catalog` workload: the paper's own measurement.
//!
//! Each repetition verifies the whole condition catalog and the eight inverse
//! operations, once at threads=1 (the sequential oracle path) and once at
//! threads=`nproc` (the work-stealing scheduler), through the public
//! `semcommute_core::verify::verify_catalog` and
//! `semcommute_core::inverse::verify_inverse`. The calling thread's term
//! arena is cleared before each, because a user pays a cold arena on every
//! run. Every verdict is checked against the known answer (all valid, as
//! the paper reports) and the two widths must agree verdict by verdict.
//!
//! The traced run adds a walk over the same catalog that calls the
//! pipeline's public steps in `verify_condition` order — testing-method
//! templates, vcgen, canonical keying, the verdict cache, the structural
//! prover, finite-model preparation and search — with a span around each,
//! plus an enumeration-only pass over the searched input spaces.

use std::hint::black_box;
use std::time::Instant;

use semcommute_core::interface_catalog;
use semcommute_core::inverse::{inverse_catalog, verify_inverse};
use semcommute_core::template::testing_methods;
use semcommute_core::vcgen::generate_obligations;
use semcommute_core::verify::{scope_for, verify_catalog, CatalogReport, VerifyOptions};
use semcommute_logic::with_arena;
use semcommute_prover::bytecode::LANES;
use semcommute_prover::space::BlockBuf;
use semcommute_prover::structural::prove_structural;
use semcommute_prover::{
    FiniteModelProver, InputSpace, Obligation, Portfolio, ProofStats, Scope, Verdict,
};
use semcommute_spec::InterfaceId;

use crate::report::Outcome;
use crate::stats::{median, percentile, ratio};
use crate::trace::{span_totals, write_jsonl, Recorder, Tracer};
use crate::{another, RunArgs};

/// Number of conditions in the full catalog (Accumulator, Set, Map and
/// ArrayList) at the paper's variant set.
pub const FULL_CATALOG_CONDITIONS: usize = 510;

/// Number of inverse operations (Table 5.10).
pub const INVERSES: usize = 8;

/// Size of the verification workload.
#[derive(Debug, Clone)]
pub struct VerifyConfig {
    /// Conditions per interface (`None`: the whole catalog).
    pub limit: Option<usize>,
    /// ArrayList sequence scope.
    pub seq_len: usize,
    /// Conditions the catalog must hold; a catalog that shrinks or grows
    /// fails the run.
    pub expected_conditions: usize,
    /// Repetitions made even if `--seconds` runs out first.
    pub min_reps: usize,
}

impl VerifyConfig {
    /// The paper's workload: the whole catalog at `seq_len` 4.
    pub fn full() -> VerifyConfig {
        VerifyConfig {
            limit: None,
            seq_len: 4,
            expected_conditions: FULL_CATALOG_CONDITIONS,
            min_reps: 3,
        }
    }

    /// Three conditions per interface at `seq_len` 3: seconds, not minutes.
    pub fn quick() -> VerifyConfig {
        VerifyConfig {
            limit: Some(3),
            seq_len: 3,
            expected_conditions: 12,
            min_reps: 1,
        }
    }

    fn catalog(&self, interface: InterfaceId) -> Vec<semcommute_core::CommutativityCondition> {
        let mut catalog = interface_catalog(interface);
        if let Some(limit) = self.limit {
            catalog.truncate(limit);
        }
        catalog
    }
}

/// A verdict reduced to what the reference checks: which testing method it
/// answers and its kind.
pub type VerdictList = Vec<(String, &'static str)>;

fn kind(verdict: &Verdict) -> &'static str {
    match verdict {
        Verdict::Valid { .. } => "valid",
        Verdict::CounterModel { .. } => "counter-model",
        Verdict::Unknown { .. } => "unknown",
    }
}

/// One verification of catalog plus inverses at one width.
pub struct Rep {
    /// Wall time of catalog plus inverses.
    pub wall_s: f64,
    /// The catalog report.
    pub catalog: CatalogReport,
    /// The inverse verdicts, in catalog order.
    pub inverses: Vec<Verdict>,
}

impl Rep {
    /// Every verdict, labelled, in catalog order.
    pub fn verdicts(&self) -> VerdictList {
        let mut out = Vec::new();
        for interface in &self.catalog.interfaces {
            for (i, c) in interface.reports.iter().enumerate() {
                let label = |method: &str| format!("{}/{i}/{method}", interface.interface);
                out.push((label("soundness"), kind(&c.soundness)));
                out.push((label("completeness"), kind(&c.completeness)));
            }
        }
        for (i, v) in self.inverses.iter().enumerate() {
            out.push((format!("inverse/{i}"), kind(v)));
        }
        out
    }
}

/// Verifies the catalog and the inverses at `threads` workers.
pub fn run_rep(cfg: &VerifyConfig, threads: usize) -> Rep {
    with_arena(|arena| arena.clear());
    let options = VerifyOptions {
        threads,
        seq_len: cfg.seq_len,
        limit: cfg.limit,
        ..VerifyOptions::default()
    };
    let start = Instant::now();
    let catalog = verify_catalog(&options);
    let inverses = inverse_catalog()
        .iter()
        .map(|inv| verify_inverse(inv, &Portfolio::new(scope_for(inv.interface, cfg.seq_len))))
        .collect();
    Rep {
        wall_s: start.elapsed().as_secs_f64(),
        catalog,
        inverses,
    }
}

/// Checks verdict lists against the known answer: each list holds
/// `2 × expected_conditions` method verdicts plus one per inverse, every
/// verdict is valid, and all lists agree label by label and kind by kind.
/// Returns the number of verdicts checked and the failures found.
pub fn check_verdicts(expected_conditions: usize, lists: &[&VerdictList]) -> (u64, Outcome) {
    let mut outcome = Outcome::default();
    let expected_len = 2 * expected_conditions + INVERSES;
    let mut attempted = 0;
    for list in lists {
        attempted += list.len() as u64;
        if list.len() != expected_len {
            outcome.fail(
                1,
                format!("{} verdicts, expected {expected_len}", list.len()),
            );
        }
        for (label, kind) in list.iter() {
            if *kind != "valid" {
                outcome.fail(1, format!("{label}: {kind}, expected valid"));
            }
        }
    }
    if let Some((first, rest)) = lists.split_first() {
        for other in rest {
            for (i, (a, b)) in first.iter().zip(other.iter()).enumerate() {
                if a != b {
                    outcome.fail(1, format!("verdict {i} disagrees: {a:?} vs {b:?}"));
                }
            }
        }
    }
    (attempted, outcome)
}

/// Times building what a verification run starts from: the four interface
/// catalogs, their scopes and the inverse catalog.
fn setup_once(cfg: &VerifyConfig) -> f64 {
    let start = Instant::now();
    for interface in InterfaceId::ALL {
        black_box(cfg.catalog(interface));
        black_box(Portfolio::new(scope_for(interface, cfg.seq_len)));
    }
    black_box(inverse_catalog());
    start.elapsed().as_secs_f64()
}

/// Set-up measurements made before each repetition pair, so that they
/// sample the whole run rather than its first moment.
const SETUP_REPS: usize = 8;

fn measure_setup(cfg: &VerifyConfig, outcome: &mut Outcome) {
    for _ in 0..SETUP_REPS {
        outcome.push("setup_s", setup_once(cfg));
    }
}

fn items(rep: &Rep) -> f64 {
    let methods: usize = rep
        .catalog
        .interfaces
        .iter()
        .map(|r| r.method_count())
        .sum();
    (methods + rep.inverses.len()) as f64
}

/// Runs the workload; `nproc` is the parallel width.
pub fn run(cfg: &VerifyConfig, args: &RunArgs, nproc: usize) -> Outcome {
    let started = Instant::now();
    let mut outcome = Outcome::default();
    if args.trace {
        run_traced(cfg, args, nproc, started, &mut outcome);
    } else {
        run_untraced(cfg, args, nproc, started, &mut outcome);
    }
    outcome.notes.insert("threads", nproc.to_string());
    outcome.notes.insert("seq_len", cfg.seq_len.to_string());
    outcome
}

fn run_untraced(
    cfg: &VerifyConfig,
    args: &RunArgs,
    nproc: usize,
    started: Instant,
    outcome: &mut Outcome,
) {
    // Per condition, its threads=1 latency in every repetition.
    let mut latencies_us: Vec<Vec<f64>> = Vec::new();
    let mut reps = 0;
    let mut last_s = 0.0;
    while another(reps, cfg.min_reps, started, last_s, args.seconds) {
        let pair = Instant::now();
        measure_setup(cfg, outcome);
        // Alternate which width runs first so neither always sees the
        // other's after-effects.
        let (t1, tn) = if reps % 2 == 0 {
            let t1 = run_rep(cfg, 1);
            (t1, run_rep(cfg, nproc))
        } else {
            let tn = run_rep(cfg, nproc);
            (run_rep(cfg, 1), tn)
        };
        last_s = pair.elapsed().as_secs_f64();
        reps += 1;
        let (attempted, check) =
            check_verdicts(cfg.expected_conditions, &[&t1.verdicts(), &tn.verdicts()]);
        outcome.attempted += attempted;
        outcome.absorb_failures(check.failed, check.errors);
        outcome.push("ops_per_s", items(&tn) / tn.wall_s);
        outcome.push("ops_per_s_t1", items(&t1) / t1.wall_s);
        let conditions = t1.catalog.interfaces.iter().flat_map(|r| &r.reports);
        for (i, c) in conditions.enumerate() {
            if latencies_us.len() <= i {
                latencies_us.push(Vec::new());
            }
            latencies_us[i].push(c.elapsed.as_secs_f64() * 1e6);
        }
        outcome
            .notes
            .insert("models_checked_t1", t1.catalog.models_checked().to_string());
        outcome
            .notes
            .insert("orbits_pruned_t1", t1.catalog.orbits_pruned().to_string());
    }
    // A condition's latency is its median over the repetitions, which holds
    // the ranking of the conditions still against one repetition's noise.
    // The latencies cluster by interface and the overall median falls
    // between two clusters, so the central figure is the mean.
    let per_condition: Vec<f64> = latencies_us.iter().map(|v| median(v)).collect();
    outcome.push(
        "mean_us",
        per_condition.iter().sum::<f64>() / per_condition.len() as f64,
    );
    outcome.push("p95_us", percentile(&per_condition, 95.0));
    outcome.notes.insert("reps", reps.to_string());
    outcome
        .notes
        .insert("latency_conditions", per_condition.len().to_string());
}

/// What the traced walk observed.
#[derive(Default)]
struct Walk {
    verdicts: VerdictList,
    searched: Vec<(Obligation, Scope)>,
    obligations: u64,
    keyed: u64,
    cache_hits: u64,
    structural_attempts: u64,
    structural_decided: u64,
    models_checked: u64,
}

fn interface_span(interface: InterfaceId) -> &'static str {
    match interface {
        InterfaceId::Accumulator => "core.verify.accumulator",
        InterfaceId::Set => "core.verify.set",
        InterfaceId::Map => "core.verify.map",
        InterfaceId::List => "core.verify.list",
    }
}

/// One obligation through the portfolio's public steps, in the order
/// `Portfolio::prove` takes them: canonical key, verdict cache, structural
/// prover, finite-model preparation and search, publication.
fn prove_traced(
    portfolio: &Portfolio,
    finite: &FiniteModelProver,
    ob: &Obligation,
    id: u64,
    tracer: &mut Tracer,
    walk: &mut Walk,
) -> Verdict {
    walk.obligations += 1;
    let key = tracer.span("prover.portfolio.key", id, |_| portfolio.canonical_key(ob));
    walk.keyed += 1;
    if let Some(mut hit) = tracer.span("prover.portfolio.cache", id, |_| portfolio.cache().get(key))
    {
        walk.cache_hits += 1;
        let prover = hit.stats().prover;
        *hit.stats_mut() = ProofStats {
            prover,
            cache_hits: 1,
            ..ProofStats::none()
        };
        return hit;
    }
    walk.structural_attempts += 1;
    if let Some(stats) = tracer.span("prover.structural", id, |_| prove_structural(ob)) {
        walk.structural_decided += 1;
        let verdict = Verdict::Valid { stats };
        portfolio.publish_keyed(key, &verdict);
        return verdict;
    }
    let prepared = tracer.span("prover.finite.prepare", id, |_| {
        finite.begin(ob).map_err(Box::new)
    });
    let verdict = match prepared {
        Err(verdict) => *verdict,
        Ok(search) => {
            let verdict = tracer.span("prover.finite.search", id, |_| search.run());
            walk.models_checked += verdict.stats().models_checked;
            walk.searched.push((ob.clone(), finite.scope().clone()));
            verdict
        }
    };
    portfolio.publish_keyed(key, &verdict);
    verdict
}

/// Proves a list of obligations, stopping at the first invalid one as
/// `verify_condition` and `verify_inverse` do.
fn prove_all_traced(
    portfolio: &Portfolio,
    finite: &FiniteModelProver,
    obligations: &[Obligation],
    next_id: &mut u64,
    tracer: &mut Tracer,
    walk: &mut Walk,
) -> &'static str {
    for ob in obligations {
        *next_id += 1;
        let verdict = prove_traced(portfolio, finite, ob, *next_id, tracer, walk);
        if !verdict.is_valid() {
            return kind(&verdict);
        }
    }
    "valid"
}

/// The traced walk over catalog and inverses at threads=1.
fn traced_walk(cfg: &VerifyConfig, tracer: &mut Tracer) -> Walk {
    with_arena(|arena| arena.clear());
    let mut walk = Walk::default();
    let mut next_id = 0u64;
    for interface in InterfaceId::ALL {
        let scope = scope_for(interface, cfg.seq_len);
        let portfolio = Portfolio::new(scope.clone());
        let finite = FiniteModelProver::new(scope);
        tracer.enter(interface_span(interface), 0);
        for (i, condition) in cfg.catalog(interface).iter().enumerate() {
            tracer.enter("core.condition", i as u64);
            let (soundness, completeness) =
                tracer.span("core.template", i as u64, |_| testing_methods(condition, i));
            for (name, method) in [("soundness", soundness), ("completeness", completeness)] {
                let verdict =
                    match tracer.span("core.vcgen", i as u64, |_| generate_obligations(&method)) {
                        Err(_) => "unknown",
                        Ok(obligations) => prove_all_traced(
                            &portfolio,
                            &finite,
                            &obligations,
                            &mut next_id,
                            tracer,
                            &mut walk,
                        ),
                    };
                walk.verdicts
                    .push((format!("{interface}/{i}/{name}"), verdict));
            }
            tracer.exit();
        }
        tracer.exit();
    }
    tracer.enter("core.inverse", 0);
    for (i, inverse) in inverse_catalog().iter().enumerate() {
        let scope = scope_for(inverse.interface, cfg.seq_len);
        let portfolio = Portfolio::new(scope.clone());
        let finite = FiniteModelProver::new(scope);
        let verdict = prove_all_traced(
            &portfolio,
            &finite,
            &inverse.obligations(),
            &mut next_id,
            tracer,
            &mut walk,
        );
        walk.verdicts.push((format!("inverse/{i}"), verdict));
    }
    tracer.exit();
    walk
}

/// Enumerates every searched input space without evaluating a candidate;
/// returns the number of candidates enumerated.
fn enumerate_only(searched: &[(Obligation, Scope)], tracer: &mut Tracer) -> u64 {
    let spaces: Vec<InputSpace> = searched
        .iter()
        .map(|(ob, scope)| InputSpace::from_obligation(ob, scope.clone()))
        .collect();
    let mut block = BlockBuf::new();
    let mut candidates = 0u64;
    for (id, space) in spaces.iter().enumerate() {
        tracer.span("prover.space.enumerate", id as u64, |_| {
            let mut it = space.iter();
            loop {
                let lanes = it.next_block(LANES, &mut block);
                if lanes == 0 {
                    break;
                }
                candidates += lanes as u64;
            }
        });
    }
    black_box(candidates)
}

fn run_traced(
    cfg: &VerifyConfig,
    args: &RunArgs,
    nproc: usize,
    started: Instant,
    outcome: &mut Outcome,
) {
    let mut reps = 0;
    let mut last_s = 0.0;
    let mut last_tracers = None;
    while another(reps, 1, started, last_s, args.seconds) {
        let iteration = Instant::now();
        // The untraced threads=1 repetition and the traced walk run back to
        // back, in alternating order, so the overhead estimate compares
        // like with like.
        let untraced_first = reps % 2 == 0;
        let early = untraced_first.then(|| run_rep(cfg, 1));
        let epoch = Instant::now();
        let mut walk_tracer = Tracer::new(epoch, 1 << 16);
        let walk = traced_walk(cfg, &mut walk_tracer);
        let walk_s = epoch.elapsed().as_secs_f64();
        let t1 = early.unwrap_or_else(|| run_rep(cfg, 1));
        let mut enum_tracer = Tracer::new(epoch, walk.searched.len() + 1);
        let enumerated = enumerate_only(&walk.searched, &mut enum_tracer);
        let tn = run_rep(cfg, nproc);
        last_s = iteration.elapsed().as_secs_f64();
        reps += 1;

        let (attempted, check) = check_verdicts(
            cfg.expected_conditions,
            &[&t1.verdicts(), &walk.verdicts, &tn.verdicts()],
        );
        outcome.attempted += attempted;
        outcome.absorb_failures(check.failed, check.errors);
        if enumerated != walk.models_checked {
            outcome.fail(
                1,
                format!(
                    "enumeration-only pass saw {enumerated} candidates, the searches checked {}",
                    walk.models_checked
                ),
            );
        }

        let totals = span_totals(&[&walk_tracer, &enum_tracer]);
        let total = |name: &str| totals.get(name).map_or(0.0, |t| t.total_s);
        let search_s = total("prover.finite.search");
        let enumerate_s = total("prover.space.enumerate");
        outcome.push("core.template.s", total("core.template"));
        outcome.push("core.vcgen.s", total("core.vcgen"));
        outcome.push("core.vcgen.obligations", walk.obligations as f64);
        outcome.push("prover.portfolio.key_s", total("prover.portfolio.key"));
        outcome.push(
            "prover.portfolio.cache_hit_ratio",
            ratio(walk.cache_hits as f64, walk.keyed as f64),
        );
        outcome.push("prover.structural.s", total("prover.structural"));
        outcome.push(
            "prover.structural.decided_ratio",
            ratio(
                walk.structural_decided as f64,
                walk.structural_attempts as f64,
            ),
        );
        outcome.push("prover.finite.prepare_s", total("prover.finite.prepare"));
        outcome.push("prover.finite.search_s", search_s);
        outcome.push("prover.space.enumerate_s", enumerate_s);
        outcome.push("prover.finite.eval_s", search_s - enumerate_s);
        outcome.push(
            "prover.finite.ns_per_candidate",
            ratio(search_s * 1e9, walk.models_checked as f64),
        );
        outcome.push(
            "prover.finite.max_obligation_s",
            totals.get("prover.finite.search").map_or(0.0, |t| t.max_s),
        );
        outcome.push("core.inverse.s", total("core.inverse"));

        let catalog = &t1.catalog;
        let models = catalog.models_checked() as f64;
        outcome.push("prover.finite.models_checked", models);
        outcome.push("prover.orbit.pruned", catalog.orbits_pruned() as f64);
        outcome.push(
            "prover.bytecode.fallback_ratio",
            ratio(catalog.batch_fallbacks() as f64, models),
        );
        outcome.push(
            "prover.bytecode.instrs_per_candidate",
            ratio(catalog.instrs_executed() as f64, models),
        );
        for interface in &catalog.interfaces {
            let name = match interface.interface {
                InterfaceId::Accumulator => "core.verify.accumulator.busy_s",
                InterfaceId::Set => "core.verify.set.busy_s",
                InterfaceId::Map => "core.verify.map.busy_s",
                InterfaceId::List => "core.verify.list.busy_s",
            };
            outcome.push(name, interface.elapsed.as_secs_f64());
        }

        if let Some(queue) = &tn.catalog.scheduler {
            let busy: f64 = tn
                .catalog
                .interfaces
                .iter()
                .map(|r| r.elapsed.as_secs_f64())
                .sum();
            let wall = tn.catalog.elapsed.as_secs_f64();
            outcome.push("prover.queue.utilization", ratio(busy, nproc as f64 * wall));
            outcome.push("prover.queue.steals", queue.steals as f64);
            outcome.push("prover.queue.splits", queue.splits as f64);
            outcome.push(
                "prover.queue.max_obligation_wall_s",
                queue.max_obligation_wall.as_secs_f64(),
            );
            outcome.push(
                "prover.queue.dedup_ratio",
                ratio(queue.unique as f64, queue.submitted as f64),
            );
        }
        outcome.push("trace.overhead_ratio", walk_s / t1.wall_s - 1.0);
        outcome
            .notes
            .insert("walk_models_checked", walk.models_checked.to_string());
        last_tracers = Some((walk_tracer, enum_tracer));
    }
    outcome.notes.insert("reps", reps.to_string());
    if let Some((walk_tracer, enum_tracer)) = last_tracers {
        outcome.spans = span_totals(&[&walk_tracer, &enum_tracer]);
        let path = args.trace_path();
        match write_jsonl(&path, &[&walk_tracer, &enum_tracer]) {
            Ok(()) => {
                outcome
                    .notes
                    .insert("trace_file", path.display().to_string());
            }
            Err(e) => outcome.fail(1, format!("writing {}: {e}", path.display())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planted_verdict_mismatch_is_caught() {
        let cfg = VerifyConfig::quick();
        let t1 = run_rep(&cfg, 1).verdicts();
        let tn = run_rep(&cfg, 2).verdicts();
        let (attempted, clean) = check_verdicts(cfg.expected_conditions, &[&t1, &tn]);
        assert_eq!(
            attempted,
            2 * (2 * cfg.expected_conditions + INVERSES) as u64
        );
        assert_eq!(clean.failed, 0, "{:?}", clean.errors);

        // One planted counter-model: wrong against the known answer and
        // against the other width.
        let mut planted = tn.clone();
        planted[3].1 = "counter-model";
        let (_, caught) = check_verdicts(cfg.expected_conditions, &[&t1, &planted]);
        assert_eq!(caught.failed, 2, "{:?}", caught.errors);

        // A missing verdict is caught even when both widths agree on it.
        let mut short = t1.clone();
        short.pop();
        let (_, caught) = check_verdicts(cfg.expected_conditions, &[&short, &short]);
        assert_eq!(caught.failed, 2, "{:?}", caught.errors);
    }

    #[test]
    fn traced_walk_matches_the_untraced_pipeline() {
        let cfg = VerifyConfig::quick();
        let untraced = run_rep(&cfg, 1);
        let mut tracer = Tracer::new(Instant::now(), 1024);
        let walk = traced_walk(&cfg, &mut tracer);
        assert_eq!(walk.verdicts, untraced.verdicts());
        let inverse_models: u64 = untraced
            .inverses
            .iter()
            .map(|v| v.stats().models_checked)
            .sum();
        assert_eq!(
            walk.models_checked,
            untraced.catalog.models_checked() + inverse_models
        );
        let mut enum_tracer = Tracer::new(Instant::now(), 64);
        assert_eq!(
            enumerate_only(&walk.searched, &mut enum_tracer),
            walk.models_checked
        );
    }
}
