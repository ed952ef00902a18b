//! The verification driver: discharging the generated testing methods.
//!
//! For every commutativity condition the driver generates the soundness and
//! completeness testing methods, symbolically executes them into proof
//! obligations, and discharges the obligations with the prover portfolio.
//! Every entry point — [`verify_catalog`], [`verify_interface`],
//! [`verify_condition`] and [`crate::inverse::verify_inverse`] — plans its
//! obligations into scheduler submissions and proves them through the
//! obligation scheduler ([`semcommute_prover::queue`]), at one worker or
//! many. This reproduces the experiment behind Table 5.8 (verification
//! times per data structure) and the headline claim that all 765 conditions
//! are sound and complete.

use std::sync::Arc;
use std::time::{Duration, Instant};

use semcommute_prover::queue::{self, ExitGuard, QueueReport, ScheduledObligation};
use semcommute_prover::{Obligation, Portfolio, ProofStats, ProverChoice, Scope, Verdict};
use semcommute_spec::InterfaceId;

use crate::catalog::interface_catalog;
use crate::condition::CommutativityCondition;
use crate::template::testing_methods;
use crate::vcgen::generate_obligations;

/// The scope the driver uses for an interface.
///
/// The counter/set/map obligations need only the named elements plus one
/// anonymous element (see `prover::scope`); the ArrayList obligations use the
/// explicit sequence scope, whose length bound is the verification parameter
/// reported alongside the results.
pub fn scope_for(interface: InterfaceId, seq_len: usize) -> Scope {
    match interface {
        InterfaceId::List => Scope::sequences(seq_len),
        _ => Scope {
            elem_padding: 1,
            max_collection_entries: 3,
            max_seq_len: 1,
            int_min: -2,
            int_max: 4,
            max_models: 50_000_000,
            orbit: semcommute_prover::scope::default_orbit(),
        },
    }
}

/// Options controlling a verification run.
#[derive(Debug, Clone)]
pub struct VerifyOptions {
    /// Number of worker threads draining the obligation scheduler: the same
    /// workers drain whole obligations *and* the range tasks of split model
    /// searches, so this is the only parallelism axis.
    pub threads: usize,
    /// Sequence-length scope for ArrayList obligations.
    pub seq_len: usize,
    /// Verify only the first `n` conditions of the interface (for quick runs
    /// and tests); `None` verifies the whole catalog.
    pub limit: Option<usize>,
    /// Unreduced-candidate-space size above which a claimed obligation's
    /// model search is split into range tasks (see
    /// [`semcommute_prover::queue::prove_all_scheduled_split`]);
    /// `u64::MAX` disables splitting. Verdicts do not depend on this value
    /// — only the work distribution does.
    pub split_threshold: u64,
    /// Whether the finite-model search enumerates the input space
    /// orbit-canonically (`true`, the default) or unreduced (`false` — the
    /// oracle enumerator the differential soundness harness compares
    /// against). See [`semcommute_prover::orbit`].
    pub orbit: bool,
}

impl Default for VerifyOptions {
    fn default() -> Self {
        VerifyOptions {
            threads: std::thread::available_parallelism().map_or(4, |n| n.get()),
            seq_len: 4,
            limit: None,
            split_threshold: queue::default_split_threshold(),
            orbit: semcommute_prover::scope::default_orbit(),
        }
    }
}

impl VerifyOptions {
    /// A configuration suitable for unit/integration tests: small scope and a
    /// bounded number of conditions.
    pub fn quick(limit: usize) -> VerifyOptions {
        VerifyOptions {
            threads: 2,
            seq_len: 3,
            limit: Some(limit),
            split_threshold: queue::default_split_threshold(),
            orbit: semcommute_prover::scope::default_orbit(),
        }
    }
}

/// The outcome of verifying one commutativity condition: the verdicts of its
/// soundness and completeness testing methods (each aggregating every proof
/// obligation the method produced).
#[derive(Debug, Clone)]
pub struct ConditionReport {
    /// The condition that was verified.
    pub condition: CommutativityCondition,
    /// Verdict of the soundness testing method.
    pub soundness: Verdict,
    /// Verdict of the completeness testing method.
    pub completeness: Verdict,
    /// Busy time spent on this condition: the summed proof time of the
    /// obligations its two methods proved, at every width. Testing-method
    /// generation, vcgen and canonical keying are not included.
    pub elapsed: Duration,
    /// Whether the generated methods carried proof hints.
    pub hinted: bool,
}

impl ConditionReport {
    /// `true` when both the soundness and the completeness method verified.
    pub fn verified(&self) -> bool {
        self.soundness.is_valid() && self.completeness.is_valid()
    }
}

/// The outcome of verifying an interface's full (or limited) catalog.
#[derive(Debug, Clone)]
pub struct InterfaceReport {
    /// The interface.
    pub interface: InterfaceId,
    /// Per-condition reports, in catalog order.
    pub reports: Vec<ConditionReport>,
    /// Busy time of the interface's conditions (the sum of their
    /// [`ConditionReport::elapsed`]), at every width.
    pub elapsed: Duration,
    /// The sequence scope used (relevant for ArrayList).
    pub seq_len: usize,
}

impl InterfaceReport {
    /// Number of conditions whose soundness and completeness both verified.
    pub fn verified_count(&self) -> usize {
        self.reports.iter().filter(|r| r.verified()).count()
    }

    /// Number of conditions verified.
    pub fn total(&self) -> usize {
        self.reports.len()
    }

    /// Number of generated testing methods (two per condition).
    pub fn method_count(&self) -> usize {
        self.reports.len() * 2
    }

    /// Number of testing methods that carried proof hints.
    pub fn hinted_method_count(&self) -> usize {
        self.reports.iter().filter(|r| r.hinted).count()
    }

    /// Conditions that failed to verify, with the failing verdicts.
    pub fn failures(&self) -> Vec<&ConditionReport> {
        self.reports.iter().filter(|r| !r.verified()).collect()
    }

    /// Total candidate models examined by the finite-model prover across the
    /// run.
    pub fn models_checked(&self) -> u64 {
        self.reports
            .iter()
            .map(|r| r.soundness.stats().models_checked + r.completeness.stats().models_checked)
            .sum()
    }

    /// Total testing-method verdicts answered from the portfolio's
    /// obligation dedup cache.
    pub fn cache_hits(&self) -> u64 {
        self.reports
            .iter()
            .map(|r| r.soundness.stats().cache_hits + r.completeness.stats().cache_hits)
            .sum()
    }

    /// Total candidate models the orbit reduction pruned across the run
    /// (zero when the reduction is off).
    pub fn orbits_pruned(&self) -> u64 {
        self.reports
            .iter()
            .map(|r| r.soundness.stats().orbits_pruned + r.completeness.stats().orbits_pruned)
            .sum()
    }

    /// Total candidate blocks the batched bytecode evaluator executed across
    /// the run.
    pub fn batches(&self) -> u64 {
        self.reports
            .iter()
            .map(|r| r.soundness.stats().batches + r.completeness.stats().batches)
            .sum()
    }

    /// Total candidate lanes the batched evaluator re-ran through the
    /// per-candidate scalar fallback across the run.
    pub fn batch_fallbacks(&self) -> u64 {
        self.reports
            .iter()
            .map(|r| r.soundness.stats().batch_fallbacks + r.completeness.stats().batch_fallbacks)
            .sum()
    }

    /// Total bytecode instructions executed across active lanes over the run.
    pub fn instrs_executed(&self) -> u64 {
        self.reports
            .iter()
            .map(|r| r.soundness.stats().instrs_executed + r.completeness.stats().instrs_executed)
            .sum()
    }

    /// Every non-fatal evaluation error the provers surfaced through
    /// [`ProofStats::errors`] across the run (e.g. a split model search's
    /// worker that raced past an evaluation error while another worker
    /// decided the obligation).
    pub fn errors(&self) -> Vec<&str> {
        self.reports
            .iter()
            .flat_map(|r| [&r.soundness, &r.completeness])
            .flat_map(|v| v.stats().errors.iter().map(String::as_str))
            .collect()
    }

    /// How many obligations were decided by the structural prover vs. the
    /// finite-model prover.
    pub fn prover_breakdown(&self) -> (usize, usize) {
        let mut structural = 0;
        let mut finite = 0;
        for r in &self.reports {
            for v in [&r.soundness, &r.completeness] {
                match v.stats().prover {
                    ProverChoice::Structural => structural += 1,
                    ProverChoice::FiniteModel => finite += 1,
                    ProverChoice::None => {}
                }
            }
        }
        (structural, finite)
    }
}

/// Verifies a single condition with the given prover.
///
/// The condition's two testing methods are planned exactly as in a catalog
/// run and proved by the scheduler at one worker on `prover`, so a single
/// condition takes the same path as [`verify_catalog`].
pub fn verify_condition(
    cond: &CommutativityCondition,
    prover: &Portfolio,
    id: usize,
) -> ConditionReport {
    let mut items = Vec::new();
    let plan = plan_condition(cond.clone(), id, 0, &mut items);
    assemble_report(plan, &prove_on_one_worker(prover, items))
}

/// Proves planned submissions with the scheduler at one worker on `prover`:
/// the caller-supplied portfolio's cache answers repeats, and submissions
/// are processed in order.
pub(crate) fn prove_on_one_worker(
    prover: &Portfolio,
    items: Vec<ScheduledObligation>,
) -> Vec<Option<Verdict>> {
    queue::prove_all_scheduled_split(std::slice::from_ref(prover), items, 1, u64::MAX).verdicts
}

/// The scheduler-facing shape of one testing method: where its obligations
/// sit in the flat submission list, or why vcgen rejected it. (The method's
/// [`ExitGuard`] travels inside its [`ScheduledObligation`]s.)
pub(crate) struct MethodPlan {
    obligations: Result<std::ops::Range<usize>, String>,
}

/// Appends one method's obligations to the submission list, tagged with
/// `portfolio` and one fresh [`ExitGuard`] for the method.
pub(crate) fn plan_method(
    obligations: Result<Vec<Obligation>, String>,
    portfolio: usize,
    items: &mut Vec<ScheduledObligation>,
) -> MethodPlan {
    let guard = Arc::new(ExitGuard::new());
    let obligations = obligations.map(|obs| {
        let start = items.len();
        items.extend(obs.into_iter().enumerate().map(|(index, ob)| {
            ScheduledObligation::new(ob)
                .with_portfolio(portfolio)
                .with_guard(guard.clone(), index as u32)
        }));
        start..items.len()
    });
    MethodPlan { obligations }
}

/// One condition's two testing methods, planned for the scheduler.
struct ConditionPlan {
    condition: CommutativityCondition,
    hinted: bool,
    soundness: MethodPlan,
    completeness: MethodPlan,
}

/// Generates a condition's testing methods and plans their obligations.
fn plan_condition(
    condition: CommutativityCondition,
    id: usize,
    portfolio: usize,
    items: &mut Vec<ScheduledObligation>,
) -> ConditionPlan {
    let (soundness_method, completeness_method) = testing_methods(&condition, id);
    let hinted = !soundness_method.hints.is_empty() || !completeness_method.hints.is_empty();
    let soundness = plan_method(generate_obligations(&soundness_method), portfolio, items);
    let completeness = plan_method(generate_obligations(&completeness_method), portfolio, items);
    ConditionPlan {
        condition,
        hinted,
        soundness,
        completeness,
    }
}

/// Reassembles one method's verdict from the scheduler's flat verdict list:
/// statistics accumulate in obligation order up to (and including) the
/// first non-valid verdict, which becomes the method's verdict; obligations
/// past the failure may have been skipped by the guard and are not
/// consulted. A method whose obligations all hold is `Valid`.
pub(crate) fn method_verdict(plan: &MethodPlan, verdicts: &[Option<Verdict>]) -> Verdict {
    let range = match &plan.obligations {
        Err(e) => {
            return Verdict::Unknown {
                reason: format!("vcgen failed: {e}"),
                stats: Default::default(),
            }
        }
        Ok(range) => range.clone(),
    };
    let mut accumulated = ProofStats::none();
    for index in range {
        // A `None` verdict means the guard skipped this obligation, which
        // only happens strictly after a recorded failure — and the loop
        // returns at that failure first.
        let Some(verdict) = &verdicts[index] else {
            break;
        };
        accumulated.merge(verdict.stats());
        if !verdict.is_valid() {
            let mut verdict = verdict.clone();
            *verdict.stats_mut() = accumulated;
            return verdict;
        }
    }
    Verdict::Valid { stats: accumulated }
}

/// Reassembles one condition's report. Its obligations may interleave with
/// the rest of the run on any worker, so `elapsed` is the *busy* time they
/// cost (the sum of their proof times) rather than a span of wall-clock.
fn assemble_report(plan: ConditionPlan, verdicts: &[Option<Verdict>]) -> ConditionReport {
    let soundness = method_verdict(&plan.soundness, verdicts);
    let completeness = method_verdict(&plan.completeness, verdicts);
    let elapsed = soundness.stats().elapsed + completeness.stats().elapsed;
    ConditionReport {
        condition: plan.condition,
        soundness,
        completeness,
        elapsed,
        hinted: plan.hinted,
    }
}

/// Verifies (a prefix of) an interface's catalog: [`verify_catalog`]
/// restricted to one interface.
pub fn verify_interface(interface: InterfaceId, options: &VerifyOptions) -> InterfaceReport {
    verify_interfaces(&[interface], options)
        .interfaces
        .pop()
        .expect("one interface was planned")
}

/// The outcome of verifying the whole catalog, with scheduler telemetry.
#[derive(Debug, Clone)]
pub struct CatalogReport {
    /// Per-interface reports, in the paper's order.
    pub interfaces: Vec<InterfaceReport>,
    /// Scheduler counters of the run. Every run goes through the
    /// scheduler, so this is always `Some`.
    pub scheduler: Option<QueueReport>,
    /// Wall-clock time of the whole run.
    pub elapsed: Duration,
}

impl CatalogReport {
    /// Total candidate models the finite-model prover examined.
    pub fn models_checked(&self) -> u64 {
        self.interfaces.iter().map(|r| r.models_checked()).sum()
    }

    /// Total candidate models the orbit reduction pruned (zero when the
    /// reduction is off).
    pub fn orbits_pruned(&self) -> u64 {
        self.interfaces.iter().map(|r| r.orbits_pruned()).sum()
    }

    /// Total candidate blocks the batched bytecode evaluator executed.
    pub fn batches(&self) -> u64 {
        self.interfaces.iter().map(|r| r.batches()).sum()
    }

    /// Total candidate lanes the batched evaluator re-ran through the
    /// per-candidate scalar fallback.
    pub fn batch_fallbacks(&self) -> u64 {
        self.interfaces.iter().map(|r| r.batch_fallbacks()).sum()
    }

    /// Total bytecode instructions executed across active lanes.
    pub fn instrs_executed(&self) -> u64 {
        self.interfaces.iter().map(|r| r.instrs_executed()).sum()
    }
}

/// Verifies every interface through one obligation scheduler.
///
/// *All* interfaces' obligations are flattened into a single
/// canonical-hash-addressed work queue drained by `options.threads`
/// workers — one worker included, which processes the submissions
/// in catalog order. Compared to the static one-thread-group-per-interface
/// split this keeps every worker busy to the end on skewed catalogs
/// (ArrayList dominates the paper's wall-clock), and the scheduler's
/// in-flight table dedups canonically identical obligations across the
/// interfaces' portfolios.
///
/// The per-interface (and per-condition) `elapsed` fields report *busy*
/// time — the summed proof time of their obligations — because interfaces
/// interleave on the same workers; `CatalogReport::elapsed` is the measured
/// wall-clock of the whole run.
pub fn verify_catalog(options: &VerifyOptions) -> CatalogReport {
    verify_interfaces(&InterfaceId::ALL, options)
}

/// The one verification driver behind [`verify_catalog`] and
/// [`verify_interface`]: plans (a prefix of) each interface's catalog into
/// scheduler submissions, one portfolio per interface scope, and proves
/// them all in one scheduler run at `options.threads` workers.
fn verify_interfaces(interfaces: &[InterfaceId], options: &VerifyOptions) -> CatalogReport {
    let start = Instant::now();
    let mut portfolios = Vec::new();
    let mut items = Vec::new();
    let mut plans = Vec::new();
    for (portfolio, &interface) in interfaces.iter().enumerate() {
        let mut catalog = interface_catalog(interface);
        if let Some(limit) = options.limit {
            catalog.truncate(limit);
        }
        portfolios.push(Portfolio::new(
            scope_for(interface, options.seq_len).with_orbit(options.orbit),
        ));
        let planned: Vec<ConditionPlan> = catalog
            .into_iter()
            .enumerate()
            .map(|(id, condition)| plan_condition(condition, id, portfolio, &mut items))
            .collect();
        plans.push((interface, planned));
    }
    let run = queue::prove_all_scheduled_split(
        &portfolios,
        items,
        options.threads,
        options.split_threshold,
    );
    let interfaces = plans
        .into_iter()
        .map(|(interface, plans)| {
            let reports: Vec<ConditionReport> = plans
                .into_iter()
                .map(|plan| assemble_report(plan, &run.verdicts))
                .collect();
            let elapsed = reports.iter().map(|r| r.elapsed).sum();
            InterfaceReport {
                interface,
                reports,
                elapsed,
                seq_len: options.seq_len,
            }
        })
        .collect();
    CatalogReport {
        interfaces,
        scheduler: Some(run.report),
        elapsed: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulator_catalog_fully_verifies() {
        let report = verify_interface(InterfaceId::Accumulator, &VerifyOptions::quick(12));
        assert_eq!(report.total(), 12);
        assert_eq!(
            report.verified_count(),
            12,
            "failures: {:#?}",
            report
                .failures()
                .iter()
                .map(|f| f.condition.id())
                .collect::<Vec<_>>()
        );
        assert_eq!(report.method_count(), 24);
    }

    #[test]
    fn set_catalog_prefix_verifies() {
        let report = verify_interface(InterfaceId::Set, &VerifyOptions::quick(24));
        assert_eq!(report.verified_count(), report.total());
        // Some obligations are discharged structurally, some need models.
        let (structural, finite) = report.prover_breakdown();
        assert!(structural + finite > 0);
    }

    #[test]
    fn verify_condition_reports_hints_and_time() {
        let cond = interface_catalog(InterfaceId::Set)
            .into_iter()
            .find(|c| c.first.op == "add" && c.second.op == "remove")
            .unwrap();
        let prover = Portfolio::new(scope_for(InterfaceId::Set, 3));
        let report = verify_condition(&cond, &prover, 0);
        assert!(report.verified());
        assert!(!report.hinted);
    }

    /// Every public entry point takes the one scheduler path:
    /// `verify_condition` and `verify_interface` reproduce the matching rows
    /// of `verify_catalog`, at one worker and at two.
    #[test]
    fn entry_points_agree_with_the_catalog_run() {
        fn assert_same(expected: &ConditionReport, got: &ConditionReport, entry: &str) {
            let id = expected.condition.id();
            assert_eq!(id, got.condition.id(), "{entry}");
            for (method, e, g) in [
                ("soundness", &expected.soundness, &got.soundness),
                ("completeness", &expected.completeness, &got.completeness),
            ] {
                assert_eq!(e.is_valid(), g.is_valid(), "{entry}: {id} {method}");
                assert_eq!(e.is_unknown(), g.is_unknown(), "{entry}: {id} {method}");
                assert_eq!(
                    e.counter_model(),
                    g.counter_model(),
                    "{entry}: {id} {method}"
                );
                assert_eq!(
                    e.stats().models_checked,
                    g.stats().models_checked,
                    "{entry}: {id} {method} models_checked"
                );
            }
        }
        for threads in [1, 2] {
            let options = VerifyOptions {
                threads,
                ..VerifyOptions::quick(6)
            };
            let catalog = verify_catalog(&options);
            assert_eq!(catalog.interfaces.len(), InterfaceId::ALL.len());
            for row in &catalog.interfaces {
                let single = verify_interface(row.interface, &options);
                assert_eq!(single.total(), row.total());
                let prover = Portfolio::new(
                    scope_for(row.interface, options.seq_len).with_orbit(options.orbit),
                );
                for (i, expected) in row.reports.iter().enumerate() {
                    assert_same(expected, &single.reports[i], "verify_interface");
                    let condition = verify_condition(&expected.condition, &prover, i);
                    assert_same(expected, &condition, "verify_condition");
                }
            }
        }
    }

    #[test]
    fn scope_for_list_uses_sequence_scope() {
        let s = scope_for(InterfaceId::List, 4);
        assert_eq!(s.max_seq_len, 4);
        let s = scope_for(InterfaceId::Map, 4);
        assert_eq!(s.elem_padding, 1);
    }

    #[test]
    fn options_default_and_quick() {
        let d = VerifyOptions::default();
        assert!(d.threads >= 1);
        assert!(d.limit.is_none());
        let q = VerifyOptions::quick(5);
        assert_eq!(q.limit, Some(5));
    }
}
