//! The finite-model prover: exhaustive counter-model search over the relevant
//! universe, runnable whole or as splittable position ranges.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use semcommute_logic::{eval, Model, Term, Value};

use crate::bytecode::{BlockEvent, Program, LANES};
use crate::obligation::{schedule, Obligation, Stage};
use crate::scope::Scope;
use crate::space::{BlockBuf, InputSpace};
use crate::stats::ProofStats;
use crate::verdict::Verdict;

/// The finite-model prover.
///
/// For each candidate model of the obligation's input variables (see
/// [`InputSpace`]), the prover computes the defined variables by evaluation —
/// exactly the computation the generated testing method would perform — and
/// then checks whether all hypotheses hold and the goal fails. If such a model
/// exists the obligation is invalid and the model is reported; if no candidate
/// model within the scope is a counter-model, the obligation is reported
/// valid.
///
/// That verdict means "no counter-model within the scope", for every
/// fragment: the [`Scope`] bounds the universe, the collection sizes, the
/// sequence lengths and the integers, and an obligation whose counter-models
/// all lie outside it comes back valid (`card(s) <= 4` needs a five-element
/// set, which [`Scope::standard`] never enumerates). Only the structural
/// prover's verdicts hold unboundedly.
///
/// [`FiniteModelProver::prove`] runs the whole search on the calling thread.
/// For intra-obligation parallelism, [`FiniteModelProver::begin`] prepares a
/// [`ModelSearch`] whose candidate space can be scanned as independent
/// unreduced-position ranges ([`ModelSearch::run_range`]) — the
/// work-stealing scheduler splits a large obligation into such range tasks
/// so idle workers can steal parts of one monolithic search.
#[derive(Debug, Clone, Default)]
pub struct FiniteModelProver {
    scope: Scope,
}

impl FiniteModelProver {
    /// Creates a prover with the given scope.
    pub fn new(scope: Scope) -> FiniteModelProver {
        FiniteModelProver { scope }
    }

    /// The scope used by this prover.
    pub fn scope(&self) -> &Scope {
        &self.scope
    }

    /// Prepares the counter-model search for an obligation: validates it,
    /// builds the input space, checks the model budget, and lowers the
    /// obligation to its register program. Returns the verdict directly
    /// (`Err`) when the search cannot run at all — a malformed obligation or
    /// a space over budget.
    pub fn begin(&self, ob: &Obligation) -> Result<ModelSearch, Verdict> {
        let started = Instant::now();
        if let Err(msg) = ob.validate() {
            return Err(Verdict::Unknown {
                reason: format!("malformed obligation: {msg}"),
                stats: ProofStats::finite(0, started.elapsed()),
            });
        }
        let space = InputSpace::from_obligation(ob, self.scope.clone());
        let estimate = space.estimated_size();
        if estimate > self.scope.max_models as u128 {
            return Err(Verdict::Unknown {
                reason: format!(
                    "search space of ~{estimate} models exceeds the budget of {}",
                    self.scope.max_models
                ),
                stats: ProofStats::finite(0, started.elapsed()),
            });
        }
        // The obligation is lowered once per search: every variable
        // occurrence becomes a register, so the per-candidate loop never
        // builds a name-keyed model or looks anything up by string. The
        // program owns everything it reads, so one search can be scanned
        // from many worker threads.
        let program = Program::lower(ob, &space.var_order());
        Ok(ModelSearch {
            space,
            program,
            // `estimate <= max_models` (a u64) was just checked.
            total: estimate as u64,
            started,
        })
    }

    /// Attempts to prove the obligation by exhaustive counter-model search
    /// on the calling thread. This is the bit-reproducible sequential form
    /// the range-split runs are differentially tested against.
    pub fn prove(&self, ob: &Obligation) -> Verdict {
        match self.begin(ob) {
            Err(verdict) => verdict,
            Ok(search) => search.run(),
        }
    }

    /// Evaluates the obligation under one explicit input model with the
    /// reference evaluator ([`mod@semcommute_logic::eval`]): the oracle the
    /// bytecode search is differentially tested against, and the way tests
    /// replay reported counterexamples. See [`Replayer::check`] for the
    /// contract; a [`Replayer`] amortizes the per-obligation setup over many
    /// candidates.
    pub fn replay(&self, ob: &Obligation, input: &Model) -> Result<Option<Model>, String> {
        Replayer::new(ob).check(input)
    }

    /// Returns the input model restricted to the obligation's input variables
    /// from a full counterexample model (inverse of the define computation).
    pub fn project_inputs(&self, ob: &Obligation, full: &Model) -> Model {
        let inputs = ob.input_vars();
        Model::from_bindings(
            full.iter()
                .filter(|(name, _)| inputs.contains_key(*name))
                .map(|(name, value)| (name.to_string(), value.clone())),
        )
    }
}

/// An obligation prepared for reference evaluation
/// ([`FiniteModelProver::replay`]): its define/hypothesis schedule
/// (`obligation::schedule`) is computed once, so a candidate-by-candidate
/// reference scan pays only for the [`mod@semcommute_logic::eval`] calls.
#[derive(Debug, Clone)]
pub struct Replayer<'a> {
    ob: &'a Obligation,
    schedule: Vec<Stage>,
}

impl<'a> Replayer<'a> {
    /// Prepares `ob` for reference evaluation.
    pub fn new(ob: &'a Obligation) -> Replayer<'a> {
        Replayer {
            ob,
            schedule: schedule(ob),
        }
    }

    /// Evaluates the obligation under one input model with `logic::eval`.
    ///
    /// Defines are computed and hypotheses checked in the obligation's
    /// schedule (`obligation::schedule`), the order the search follows, and
    /// evaluation errors carry the same `evaluating ...:` context the search
    /// reports. Returns `Ok(Some(full_model))` (inputs plus computed
    /// defines) when the model is a counterexample, `Ok(None)` when a
    /// hypothesis fails or the goal holds, and `Err` on an evaluation error.
    /// Defines are evaluated on top of `input`, overwriting any binding it
    /// has for them; a missing input variable is an unbound-variable error
    /// once evaluation reaches it.
    pub fn check(&self, input: &Model) -> Result<Option<Model>, String> {
        let ob = self.ob;
        let mut model = input.clone();
        for stage in &self.schedule {
            match *stage {
                Stage::Define(i) => {
                    let (name, term) = &ob.defines[i];
                    let value =
                        eval(term, &model).map_err(|e| format!("evaluating `{name}`: {e}"))?;
                    model.insert(name.clone(), value);
                }
                Stage::Hypothesis(i) => {
                    if !eval_step(&ob.hypotheses[i], &model, "evaluating hypothesis")? {
                        return Ok(None);
                    }
                }
            }
        }
        Ok((!eval_step(&ob.goal, &model, "evaluating goal")?).then_some(model))
    }
}

/// Evaluates a hypothesis or the goal for [`Replayer::check`], wrapping
/// failures — a non-boolean result included — in `context`.
fn eval_step(term: &Term, model: &Model, context: &str) -> Result<bool, String> {
    match eval(term, model).map_err(|e| format!("{context}: {e}"))? {
        Value::Bool(b) => Ok(b),
        other => Err(format!("{context}: expected bool, found {}", other.sort())),
    }
}

/// A prepared counter-model search: the lowered obligation plus its input
/// space, ready to be scanned whole ([`ModelSearch::run`]) or as
/// unreduced-position ranges ([`ModelSearch::run_range`]) that many worker
/// threads drive concurrently against one [`SearchShared`].
///
/// Positions are **unreduced** enumeration indices (see
/// [`crate::space::SpaceIter::position`]): deterministic, identical at every
/// thread count and split granularity, and — because the orbit-canonical
/// enumeration visits canonical candidates in unreduced-position order — the
/// deciding event with the minimum position is exactly the event the
/// sequential scan stops at. That is what makes a range-split search report
/// the *same* verdict, counter-model, and `Unknown` reason as the unsplit
/// sequential oracle, not merely an equivalent one.
#[derive(Debug)]
pub struct ModelSearch {
    space: InputSpace,
    program: Program,
    total: u64,
    started: Instant,
}

impl ModelSearch {
    /// The unreduced size of the candidate space: ranges partition
    /// `[0, total)`.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Runs the whole search on the calling thread and returns the verdict:
    /// [`ModelSearch::run_range`] over `[0, total)` followed by
    /// [`ModelSearch::finalize`], the one block-scan loop.
    ///
    /// Candidates are materialized in blocks of up to [`LANES`] and executed
    /// column-wise. [`crate::bytecode::Program::run_block`] reports the
    /// minimum-lane deciding event of each block, which is exactly the
    /// candidate a one-at-a-time scan stops at, so verdict, counter-model,
    /// `Unknown` reason, `models_checked`, and `orbits_pruned` all match a
    /// candidate-by-candidate [`FiniteModelProver::replay`] of the space.
    pub fn run(self) -> Verdict {
        let shared = SearchShared::new();
        self.run_range(0, self.total, &shared);
        self.finalize(&shared)
    }

    /// Scans the candidates whose unreduced position lies in `[lo, hi)`,
    /// recording what it finds into `shared`. Safe to call from many threads
    /// over disjoint ranges of one search.
    ///
    /// The scan stops early when `shared` already holds a deciding event at
    /// a position below the range (the sequential oracle would never have
    /// reached here) or below the scan's own cursor (nothing further in this
    /// range can change the verdict); in both cases the work skipped is work
    /// whose outcome is already irrelevant. On a deciding event the scan
    /// records it — [`SearchShared`] keeps the minimum-position one — and
    /// stops, exactly as the sequential scan stops at its first deciding
    /// event.
    ///
    /// The deciding-event guard is polled once per block rather than once
    /// per candidate; that is count-identical to a per-candidate guard under
    /// any sequential execution order, because ranges are disjoint: a range
    /// either contains its own minimum-position event (both scans stop
    /// exactly there), lies entirely below the recorded minimum (both scan
    /// it fully), or starts above it (both skip it). At more than one thread
    /// the counters are racy; the verdict, counter-model, and `Unknown`
    /// reason remain bit-identical because only the minimum-position event
    /// decides.
    pub fn run_range(&self, lo: u64, hi: u64, shared: &SearchShared) {
        if shared.deciding.load(Ordering::Relaxed) < lo {
            return;
        }
        let program = &self.program;
        let mut it = self.space.range_iter(lo, hi);
        let mut block = BlockBuf::new();
        let mut exec = program.block_exec();
        let mut checked: u64 = 0;
        // `Some` when a deciding event in this range fixed the pruned
        // counter at the event's lane; otherwise the iterator's total.
        let mut pruned_at_event: Option<u64> = None;
        loop {
            if shared.deciding.load(Ordering::Relaxed) < it.position() {
                break;
            }
            let lanes = it.next_block(LANES, &mut block);
            if lanes == 0 {
                break;
            }
            match program.run_block(&block, &mut exec) {
                None => checked += lanes as u64,
                Some(BlockEvent::Counterexample(lane)) => {
                    checked += lane as u64 + 1;
                    shared.record_counterexample(
                        block.position(lane),
                        program.reconstruct_lane(&exec, lane),
                    );
                    pruned_at_event = Some(block.pruned_after(lane));
                    break;
                }
                Some(BlockEvent::Error(lane, reason)) => {
                    checked += lane as u64 + 1;
                    shared.record_error(block.position(lane), reason);
                    pruned_at_event = Some(block.pruned_after(lane));
                    break;
                }
            }
        }
        shared.checked.fetch_add(checked, Ordering::Relaxed);
        shared.pruned.fetch_add(
            pruned_at_event.unwrap_or_else(|| it.orbits_pruned()),
            Ordering::Relaxed,
        );
        shared.batches.fetch_add(exec.batches(), Ordering::Relaxed);
        shared
            .batch_fallbacks
            .fetch_add(exec.fallback_lanes(), Ordering::Relaxed);
        shared
            .instrs_executed
            .fetch_add(exec.instrs_executed(), Ordering::Relaxed);
    }

    /// Assembles the verdict after every subrange of the search completed,
    /// merging the accumulated `ProofStats` (summed `models_checked` and
    /// `orbits_pruned`, wall-clock from [`FiniteModelProver::begin`] to
    /// now). Call exactly once, after the last subrange — it drains the
    /// shared findings.
    pub fn finalize(&self, shared: &SearchShared) -> Verdict {
        assemble_verdict(shared.take_outcome(), self.started.elapsed())
    }
}

/// The state shared by all subranges of one split model search: the
/// minimum-position deciding event (an `AtomicU64` early-exit guard over
/// unreduced positions) plus merged work counters.
#[derive(Debug)]
pub struct SearchShared {
    /// Lowest unreduced position at which a deciding event (counter-model
    /// or evaluation error) was recorded; `u64::MAX` when none. Subranges
    /// poll this to stop scanning positions the sequential oracle would
    /// never have reached.
    deciding: AtomicU64,
    /// Candidate models checked, summed over subranges.
    checked: AtomicU64,
    /// Candidates pruned as non-canonical, summed over subranges (each
    /// range counts exactly the pruned positions inside itself).
    pruned: AtomicU64,
    /// Bytecode blocks executed, summed over subranges.
    batches: AtomicU64,
    /// Lanes re-run through the scalar fallback, summed over subranges.
    batch_fallbacks: AtomicU64,
    /// Bytecode instructions executed across active lanes, summed over
    /// subranges.
    instrs_executed: AtomicU64,
    findings: Mutex<SearchFindings>,
}

#[derive(Debug, Default)]
struct SearchFindings {
    /// The counter-model with the lowest position observed so far.
    counterexample: Option<(u64, Model)>,
    /// Every evaluation error observed, with its position.
    errors: Vec<(u64, String)>,
}

impl Default for SearchShared {
    fn default() -> Self {
        SearchShared::new()
    }
}

impl SearchShared {
    /// Creates the shared state for one search (no event recorded).
    pub fn new() -> SearchShared {
        SearchShared {
            deciding: AtomicU64::new(u64::MAX),
            checked: AtomicU64::new(0),
            pruned: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            batch_fallbacks: AtomicU64::new(0),
            instrs_executed: AtomicU64::new(0),
            findings: Mutex::new(SearchFindings::default()),
        }
    }

    /// The position of the lowest deciding event recorded so far.
    pub fn deciding(&self) -> Option<u64> {
        match self.deciding.load(Ordering::SeqCst) {
            u64::MAX => None,
            p => Some(p),
        }
    }

    /// Records a counter-model found at unreduced position `upos`. Keeps
    /// the minimum-position one no matter the order in which racing
    /// subranges report.
    pub fn record_counterexample(&self, upos: u64, model: Model) {
        self.deciding.fetch_min(upos, Ordering::SeqCst);
        let mut f = self.findings.lock().unwrap_or_else(|p| p.into_inner());
        match &f.counterexample {
            Some((existing, _)) if *existing <= upos => {}
            _ => f.counterexample = Some((upos, model)),
        }
    }

    /// Records an evaluation error at unreduced position `upos`. Errors are
    /// deciding events too — the sequential scan stops at the first one — so
    /// the minimum also covers them; every error is retained for the
    /// verdict's statistics.
    pub fn record_error(&self, upos: u64, reason: String) {
        self.deciding.fetch_min(upos, Ordering::SeqCst);
        self.findings
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .errors
            .push((upos, reason));
    }

    /// Drains the shared state into its merged outcome (errors sorted by
    /// position). Meant to be called once, by whoever retires the last
    /// subrange; the shared state is borrowed (not consumed) because the
    /// scheduler holds it behind an `Arc` shared with in-flight tasks.
    pub fn take_outcome(&self) -> SearchOutcome {
        let mut findings =
            std::mem::take(&mut *self.findings.lock().unwrap_or_else(|p| p.into_inner()));
        findings.errors.sort_by_key(|(upos, _)| *upos);
        SearchOutcome {
            checked: self.checked.load(Ordering::SeqCst),
            pruned: self.pruned.load(Ordering::SeqCst),
            batches: self.batches.load(Ordering::SeqCst),
            batch_fallbacks: self.batch_fallbacks.load(Ordering::SeqCst),
            instrs_executed: self.instrs_executed.load(Ordering::SeqCst),
            counterexample: findings.counterexample,
            errors: findings.errors,
        }
    }
}

/// The merged outcome of a (possibly split) model search.
#[derive(Debug)]
pub struct SearchOutcome {
    /// Candidate models checked, summed over subranges.
    pub checked: u64,
    /// Candidates pruned as non-canonical, summed over subranges.
    pub pruned: u64,
    /// Bytecode blocks executed, summed over subranges.
    pub batches: u64,
    /// Lanes re-run through the scalar fallback, summed over subranges.
    pub batch_fallbacks: u64,
    /// Bytecode instructions executed across active lanes, summed over
    /// subranges.
    pub instrs_executed: u64,
    /// The minimum-position counter-model, if any was found.
    pub counterexample: Option<(u64, Model)>,
    /// Every evaluation error observed, sorted by position.
    pub errors: Vec<(u64, String)>,
}

/// Turns a merged [`SearchOutcome`] into the verdict the sequential scan of
/// the same space would report: the deciding event is the one with the
/// **minimum unreduced position** — a counter-model yields `CounterModel`, an
/// evaluation error yields `Unknown` with that error as the reason (ties
/// cannot occur: one position records one event). Events at higher positions
/// — which the sequential scan would never have reached — do not change the
/// verdict; errors among them are surfaced through [`ProofStats::errors`] so
/// a verdict that raced past failures still reports them.
pub fn assemble_verdict(outcome: SearchOutcome, elapsed: Duration) -> Verdict {
    let stats = ProofStats::finite(outcome.checked, elapsed)
        .with_orbits_pruned(outcome.pruned)
        .with_batch_counters(
            outcome.batches,
            outcome.batch_fallbacks,
            outcome.instrs_executed,
        );
    let error_decides = match (&outcome.counterexample, outcome.errors.first()) {
        (Some((cx, _)), Some((err, _))) => err < cx,
        (None, Some(_)) => true,
        _ => false,
    };
    if error_decides {
        let mut errors = outcome.errors;
        let (_, reason) = errors.remove(0);
        let non_fatal: Vec<String> = errors.into_iter().map(|(_, e)| e).collect();
        Verdict::Unknown {
            reason,
            stats: stats.with_errors(non_fatal),
        }
    } else if let Some((_, model)) = outcome.counterexample {
        let non_fatal: Vec<String> = outcome.errors.into_iter().map(|(_, e)| e).collect();
        Verdict::CounterModel {
            model,
            stats: stats.with_errors(non_fatal),
        }
    } else {
        Verdict::Valid { stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semcommute_logic::build::*;
    use semcommute_logic::Value;

    fn prover() -> FiniteModelProver {
        FiniteModelProver::new(Scope::small())
    }

    #[test]
    fn valid_obligation_is_proved() {
        // r = (v in s), s1 = s Un {v}  |-  v in s1
        let ob = Obligation::new("add_membership")
            .define("r", member(var_elem("v"), var_set("s")))
            .define("s1", set_add(var_set("s"), var_elem("v")))
            .goal(member(var_elem("v"), var_set("s1")));
        let verdict = prover().prove(&ob);
        assert!(verdict.is_valid(), "{verdict}");
        assert!(verdict.stats().models_checked > 0);
    }

    #[test]
    fn invalid_obligation_yields_counterexample() {
        // claim: v in s  (false in general)
        let ob = Obligation::new("bogus").goal(member(var_elem("v"), var_set("s")));
        let verdict = prover().prove(&ob);
        let model = verdict.counter_model().expect("counterexample expected");
        // In the counterexample v is indeed not a member of s.
        let v = model.get("v").unwrap().as_elem().unwrap();
        assert!(!model.get("s").unwrap().as_set().unwrap().contains(&v));
    }

    /// A set-fragment `Valid` is bounded by the scope: `card(s) <= 4` has no
    /// counter-model at `Scope::standard`, nor with only the entry bound
    /// widened (two padding elements cap every set at two members), but one
    /// appears once the universe and the entry bound both reach five.
    #[test]
    fn set_validity_is_relative_to_the_scope() {
        let ob = Obligation::new("card_bound").goal(le(card(var_set("s")), int(4)));
        let prove = |scope: Scope| FiniteModelProver::new(scope).prove(&ob);
        assert!(prove(Scope::standard()).is_valid());
        let entries_only = Scope {
            max_collection_entries: 5,
            ..Scope::standard()
        };
        assert!(prove(entries_only.clone()).is_valid());
        let widened = prove(Scope {
            elem_padding: 5,
            ..entries_only
        });
        let model = widened.counter_model().expect("a five-element set");
        assert_eq!(model.get("s").unwrap().as_set().unwrap().len(), 5);
    }

    #[test]
    fn hypotheses_restrict_the_search() {
        // Under the hypothesis v in s, the goal v in s holds.
        let ob = Obligation::new("hyp")
            .assume(member(var_elem("v"), var_set("s")))
            .goal(member(var_elem("v"), var_set("s")));
        assert!(prover().prove(&ob).is_valid());
    }

    #[test]
    fn conditional_commutativity_of_add_and_contains() {
        // Between condition for contains(v1); add(v2):  v1 ~= v2 | r1a
        // soundness: under the condition, contains returns the same value
        // before and after the add.
        let cond = or2(neq(var_elem("v1"), var_elem("v2")), var_bool("r1a"));
        let ob = Obligation::new("contains_add_between_s")
            .define("r1a", member(var_elem("v1"), var_set("s")))
            .define("s_post", set_add(var_set("s"), var_elem("v2")))
            .define("r1b", member(var_elem("v1"), var_set("s_post")))
            .assume(cond.clone())
            .goal(eq(var_bool("r1a"), var_bool("r1b")));
        assert!(prover().prove(&ob).is_valid());

        // completeness: under the negated condition the return values differ.
        let ob_c = Obligation::new("contains_add_between_c")
            .define("r1a", member(var_elem("v1"), var_set("s")))
            .define("s_post", set_add(var_set("s"), var_elem("v2")))
            .define("r1b", member(var_elem("v1"), var_set("s_post")))
            .assume(not(cond))
            .goal(neq(var_bool("r1a"), var_bool("r1b")));
        assert!(prover().prove(&ob_c).is_valid());

        // Without the condition, soundness fails and the counterexample has
        // v1 = v2 with v1 not in s.
        let ob_bad = Obligation::new("contains_add_unconditional")
            .define("r1a", member(var_elem("v1"), var_set("s")))
            .define("s_post", set_add(var_set("s"), var_elem("v2")))
            .define("r1b", member(var_elem("v1"), var_set("s_post")))
            .goal(eq(var_bool("r1a"), var_bool("r1b")));
        let verdict = prover().prove(&ob_bad);
        let model = verdict.counter_model().expect("counterexample expected");
        assert_eq!(model.get("v1"), model.get("v2"));
        assert_eq!(model.get("r1a"), Some(&Value::Bool(false)));
        assert_eq!(model.get("r1b"), Some(&Value::Bool(true)));
    }

    #[test]
    fn budget_exhaustion_reports_unknown() {
        let tiny = Scope {
            max_models: 1,
            ..Scope::small()
        };
        let ob = Obligation::new("budget").goal(eq(var_set("s"), var_set("t")));
        let verdict = FiniteModelProver::new(tiny).prove(&ob);
        assert!(verdict.is_unknown());
    }

    #[test]
    fn malformed_obligation_reports_unknown() {
        let ob = Obligation::new("cyclic").define("x", add(var_int("x"), int(1)));
        assert!(prover().prove(&ob).is_unknown());
    }

    #[test]
    fn eval_error_reports_unknown() {
        // ill-sorted goal: card of an element
        let ob = Obligation::new("illsorted").goal(eq(card(var_elem("v")), int(0)));
        assert!(prover().prove(&ob).is_unknown());
    }

    #[test]
    fn replay_and_project_round_trip() {
        let ob = Obligation::new("bogus")
            .define("r", member(var_elem("v"), var_set("s")))
            .goal(var_bool("r"));
        let p = prover();
        let verdict = p.prove(&ob);
        let full = verdict.counter_model().unwrap();
        let inputs = p.project_inputs(&ob, full);
        assert!(inputs.contains("v") && inputs.contains("s") && !inputs.contains("r"));
        let replayed = p
            .replay(&ob, &inputs)
            .expect("evaluates")
            .expect("still a counterexample");
        assert_eq!(replayed.get("r"), Some(&Value::Bool(false)));
    }

    /// Runs a prepared search as `parts` contiguous ranges (in the given
    /// completion order) and finalizes — the split execution the scheduler
    /// performs, minus the deques.
    fn run_split(ob: &Obligation, scope: Scope, parts: u64, order: &[u64]) -> Verdict {
        let search = FiniteModelProver::new(scope).begin(ob).expect("searchable");
        let total = search.total();
        let shared = SearchShared::new();
        let bounds = |i: u64| (i * total / parts, (i + 1) * total / parts);
        for &part in order {
            let (lo, hi) = bounds(part);
            search.run_range(lo, hi, &shared);
        }
        search.finalize(&shared)
    }

    #[test]
    fn range_split_search_agrees_with_sequential() {
        // A valid obligation: every split execution must enumerate the whole
        // space, and the merged counters must reconcile exactly with the
        // unsplit scan.
        let ob = Obligation::new("split_valid")
            .define("r1", member(var_elem("v1"), var_set("s")))
            .define("s1", set_add(var_set("s"), var_elem("v2")))
            .define("r2", member(var_elem("v1"), var_set("s1")))
            .assume(not(eq(var_elem("v1"), var_elem("v2"))))
            .goal(eq(var_bool("r1"), var_bool("r2")));
        let sequential = FiniteModelProver::new(Scope::standard()).prove(&ob);
        assert!(sequential.is_valid());
        for parts in [2u64, 7, 64] {
            let order: Vec<u64> = (0..parts).rev().collect();
            let split = run_split(&ob, Scope::standard(), parts, &order);
            assert!(split.is_valid(), "{parts} parts: {split}");
            assert_eq!(
                split.stats().models_checked,
                sequential.stats().models_checked,
                "{parts} parts: subrange models_checked must sum to the unsplit count"
            );
            assert_eq!(
                split.stats().orbits_pruned,
                sequential.stats().orbits_pruned,
                "{parts} parts: subrange orbits_pruned must sum to the unsplit count"
            );
        }

        // An invalid obligation: the split search must report exactly the
        // sequential oracle's counter-model (the minimum-position one), even
        // when the range containing it completes last.
        let bogus = Obligation::new("split_bogus")
            .define("r", member(var_elem("v"), var_set("s")))
            .goal(var_bool("r"));
        let oracle = FiniteModelProver::new(Scope::standard()).prove(&bogus);
        let expected = oracle.counter_model().expect("counterexample expected");
        for parts in [3u64, 16] {
            let order: Vec<u64> = (0..parts).rev().collect();
            let split = run_split(&bogus, Scope::standard(), parts, &order);
            assert_eq!(
                split.counter_model().expect("counterexample expected"),
                expected,
                "{parts} parts: the reported counter-model drifted from the oracle"
            );
        }
    }

    /// The deciding event of a split search is the one at the minimum
    /// unreduced position, whichever kind it is — identical to where the
    /// sequential scan stops. Crafted so that position 0 errors (the bounded
    /// quantifier's range is one over `MAX_QUANTIFIER_RANGE` when `s = {}`)
    /// while a later position is a genuine counter-model: the sequential
    /// oracle reports `Unknown`, and so must every split execution, no
    /// matter which subrange completes first.
    #[test]
    fn split_search_reports_the_minimum_position_event() {
        let scope = Scope {
            elem_padding: 1,
            max_collection_entries: 1,
            max_seq_len: 1,
            int_min: 0,
            int_max: 2047,
            max_models: 5_000_000,
            // The position reasoning below depends on the exact enumeration
            // order; a one-element padding block makes the orbit reduction a
            // no-op anyway, so pin it off.
            orbit: false,
        };
        let quantifier = exists_int(
            "i",
            int(0),
            sub(
                int(semcommute_logic::eval::MAX_QUANTIFIER_RANGE + 1),
                card(var_set("s")),
            ),
            tru(),
        );
        let ob = Obligation::new("error_first").goal(and2(quantifier, lt(var_int("a"), int(-1))));
        let oracle = FiniteModelProver::new(scope.clone()).prove(&ob);
        let Verdict::Unknown { reason, .. } = &oracle else {
            panic!("the oracle stops at the position-0 error: {oracle}");
        };
        // Enumeration order: `a` is the high digit, `s in [{}, {e1}]` the
        // low one — even positions error (empty set widens the quantifier
        // past the limit), odd positions are counter-models. Subrange
        // `[1, 2)` finds the position-1 counter-model; `[0, 1)` the
        // position-0 error. Whichever completes first, the position-0 error
        // decides, exactly as in the oracle.
        let prover = FiniteModelProver::new(scope.clone());
        for first_range in [(1u64, 2u64), (0, 1)] {
            let search = prover.begin(&ob).expect("searchable");
            let shared = SearchShared::new();
            let second = if first_range == (0, 1) {
                (1, 2)
            } else {
                (0, 1)
            };
            search.run_range(first_range.0, first_range.1, &shared);
            search.run_range(second.0, second.1, &shared);
            let split = search.finalize(&shared);
            let Verdict::Unknown {
                reason: split_reason,
                ..
            } = &split
            else {
                panic!("a later counter-model displaced the deciding error: {split}");
            };
            assert_eq!(split_reason, reason);
        }

        // The mirrored obligation: position 0 is a counter-model (`s = {}`
        // keeps the quantifier in range, `a = 0` refutes the goal) and odd
        // positions error. The counter-model decides even when the
        // error-bearing subrange completes first — and the raced-past error
        // then surfaces as a non-fatal statistic.
        let quantifier = exists_int(
            "i",
            int(0),
            add(
                int(semcommute_logic::eval::MAX_QUANTIFIER_RANGE),
                card(var_set("s")),
            ),
            tru(),
        );
        let ob = Obligation::new("model_first").goal(and2(quantifier, lt(var_int("a"), int(-1))));
        let oracle = prover.prove(&ob);
        let expected = oracle.counter_model().expect("position 0 refutes the goal");
        let search = prover.begin(&ob).expect("searchable");
        let shared = SearchShared::new();
        search.run_range(1, 2, &shared); // records the position-1 error
        search.run_range(0, search.total(), &shared); // position-0 counter-model
        let split = search.finalize(&shared);
        assert_eq!(
            split.counter_model().expect("counter-model decides"),
            expected
        );
        assert!(
            !split.stats().errors.is_empty(),
            "the raced-past error must surface in the stats"
        );
        assert!(split.stats().errors[0].contains("quantifier range"));
    }

    /// Orbit reduction checks strictly fewer models, reports the skipped
    /// candidates, and reaches the same verdict — with the invariant that
    /// for a fully enumerated (valid) obligation the reduced and unreduced
    /// counts reconcile exactly: `checked_on + pruned_on == checked_off`.
    #[test]
    fn orbit_reduction_reconciles_with_the_unreduced_search() {
        let ob = Obligation::new("orbit_valid")
            .define("r1", member(var_elem("v1"), var_set("s")))
            .define("s1", set_add(var_set("s"), var_elem("v2")))
            .define("r2", member(var_elem("v1"), var_set("s1")))
            .assume(not(eq(var_elem("v1"), var_elem("v2"))))
            .goal(eq(var_bool("r1"), var_bool("r2")));
        // Scope::standard has two padding elements, so the reduction bites.
        let on = FiniteModelProver::new(Scope::standard().with_orbit(true)).prove(&ob);
        let off = FiniteModelProver::new(Scope::standard().with_orbit(false)).prove(&ob);
        assert!(on.is_valid() && off.is_valid());
        assert!(on.stats().orbits_pruned > 0);
        assert_eq!(off.stats().orbits_pruned, 0);
        assert!(on.stats().models_checked < off.stats().models_checked);
        assert_eq!(
            on.stats().models_checked + on.stats().orbits_pruned,
            off.stats().models_checked,
        );

        // The range-split search agrees with the sequential one on both
        // counters: pruned positions are attributed to the unique subrange
        // containing them, so the sums reconcile exactly.
        let split = run_split(&ob, Scope::standard().with_orbit(true), 5, &[4, 2, 0, 1, 3]);
        assert!(split.is_valid());
        assert_eq!(split.stats().models_checked, on.stats().models_checked);
        assert_eq!(split.stats().orbits_pruned, on.stats().orbits_pruned);
    }

    /// A counterexample found under the reduction is canonical and is a
    /// model the unreduced oracle also refutes.
    #[test]
    fn orbit_counterexamples_replay_under_the_oracle() {
        let ob = Obligation::new("orbit_bogus")
            .define("r", member(var_elem("v"), var_set("s")))
            .goal(var_bool("r"));
        let on = FiniteModelProver::new(Scope::standard().with_orbit(true));
        let off = FiniteModelProver::new(Scope::standard().with_orbit(false));
        let verdict = on.prove(&ob);
        let full = verdict.counter_model().expect("counterexample expected");
        let inputs = on.project_inputs(&ob, full);
        assert!(matches!(off.replay(&ob, &inputs), Ok(Some(_))));
    }

    fn kind(v: &Verdict) -> &'static str {
        match v {
            Verdict::Valid { .. } => "valid",
            Verdict::CounterModel { .. } => "counter-model",
            Verdict::Unknown { .. } => "unknown",
        }
    }

    /// The candidate-by-candidate reference form of
    /// [`ModelSearch::run_range`]: every candidate is replayed through
    /// [`FiniteModelProver::replay`] (`logic::eval` on a `Model`), and the
    /// deciding-event guard is polled after every candidate.
    fn reference_range(
        search: &ModelSearch,
        ob: &Obligation,
        lo: u64,
        hi: u64,
        shared: &SearchShared,
    ) {
        if shared.deciding.load(Ordering::Relaxed) < lo {
            return;
        }
        let replayer = Replayer::new(ob);
        let mut it = search.space.range_iter(lo, hi);
        let mut checked: u64 = 0;
        loop {
            let upos = it.position();
            let Some(input) = it.next() else {
                break;
            };
            checked += 1;
            match replayer.check(&input) {
                Ok(None) => {}
                Ok(Some(model)) => {
                    shared.record_counterexample(upos, model);
                    break;
                }
                Err(reason) => {
                    shared.record_error(upos, reason);
                    break;
                }
            }
            if shared.deciding.load(Ordering::Relaxed) < upos {
                break;
            }
        }
        shared.checked.fetch_add(checked, Ordering::Relaxed);
        shared
            .pruned
            .fetch_add(it.orbits_pruned(), Ordering::Relaxed);
    }

    /// [`run_split`] with every range scanned by [`reference_range`]; one
    /// part is the sequential reference scan.
    fn reference_split(ob: &Obligation, scope: Scope, parts: u64, order: &[u64]) -> Verdict {
        let search = FiniteModelProver::new(scope).begin(ob).expect("searchable");
        let total = search.total();
        let shared = SearchShared::new();
        for &part in order {
            reference_range(
                &search,
                ob,
                part * total / parts,
                (part + 1) * total / parts,
                &shared,
            );
        }
        search.finalize(&shared)
    }

    fn unknown_reason(v: &Verdict) -> Option<&str> {
        match v {
            Verdict::Unknown { reason, .. } => Some(reason),
            _ => None,
        }
    }

    /// The bytecode search reports bit-identical verdicts, counter-models,
    /// `Unknown` reasons, and work counters to a candidate-by-candidate
    /// `logic::eval` scan — whole or range-split, with the orbit reduction
    /// on or off — and its batch counters reconcile with the block size.
    #[test]
    fn bytecode_search_matches_the_reference_scan() {
        let valid = Obligation::new("bc_valid")
            .define("r1", member(var_elem("v1"), var_set("s")))
            .define("s1", set_add(var_set("s"), var_elem("v2")))
            .define("r2", member(var_elem("v1"), var_set("s1")))
            .assume(not(eq(var_elem("v1"), var_elem("v2"))))
            .goal(eq(var_bool("r1"), var_bool("r2")));
        let bogus = Obligation::new("bc_bogus")
            .define("r", member(var_elem("v"), var_set("s")))
            .goal(var_bool("r"));
        let illsorted = Obligation::new("bc_illsorted")
            .assume(lt(var_int("a"), int(1)))
            .goal(eq(card(var_elem("v")), int(0)));
        for ob in [&valid, &bogus, &illsorted] {
            for orbit in [true, false] {
                let scope = Scope::standard().with_orbit(orbit);
                let reference = reference_split(ob, scope.clone(), 1, &[0]);
                let bc = FiniteModelProver::new(scope.clone()).prove(ob);
                assert_eq!(kind(&reference), kind(&bc), "{}", ob.name);
                assert_eq!(reference.counter_model(), bc.counter_model(), "{}", ob.name);
                assert_eq!(
                    unknown_reason(&reference),
                    unknown_reason(&bc),
                    "{}",
                    ob.name
                );
                assert_eq!(reference.stats().models_checked, bc.stats().models_checked);
                assert_eq!(reference.stats().orbits_pruned, bc.stats().orbits_pruned);
                assert!(bc.stats().batches > 0, "{}", ob.name);
                assert!(bc.stats().batches <= bc.stats().models_checked / 256 + 1);
                assert!(bc.stats().instrs_executed > 0);

                // The same agreement holds for a split execution driven in
                // descending range order: the verdict matches the sequential
                // reference, and the work counters match a reference split
                // with the identical part structure and completion order
                // (counts legitimately exceed the sequential scan's when
                // ranges run before the deciding event is recorded).
                let order = [6, 5, 4, 3, 2, 1, 0];
                let split_bc = run_split(ob, scope.clone(), 7, &order);
                let split_reference = reference_split(ob, scope.clone(), 7, &order);
                assert_eq!(kind(&reference), kind(&split_bc), "{}", ob.name);
                assert_eq!(
                    reference.counter_model(),
                    split_bc.counter_model(),
                    "{}",
                    ob.name
                );
                assert_eq!(
                    unknown_reason(&reference),
                    unknown_reason(&split_bc),
                    "{}",
                    ob.name
                );
                assert_eq!(
                    split_bc.stats().models_checked,
                    split_reference.stats().models_checked,
                    "{}",
                    ob.name
                );
                assert_eq!(
                    split_bc.stats().orbits_pruned,
                    split_reference.stats().orbits_pruned,
                    "{}",
                    ob.name
                );
            }
        }
    }

    /// The define/hypothesis schedule is shared by the bytecode and the
    /// reference: an input-only hypothesis that is false rejects the
    /// candidate before a define that cannot be evaluated runs, in both; when
    /// the hypothesis holds, both report the same wrapped define error — for
    /// each candidate alone and for both in one block.
    #[test]
    fn bytecode_and_reference_share_the_evaluation_schedule() {
        let ob = Obligation::new("schedule")
            .define("n", card(var_elem("v")))
            .assume(lt(var_int("i"), int(0)))
            .goal(eq(var_int("n"), int(0)));
        let program = Program::lower(&ob, &["i", "v"].map(String::from));
        let mut exec = program.block_exec();
        let error = "evaluating `n`: card: expected obj set, found obj".to_string();
        let mut run = |is: &[i64]| {
            let lanes: Vec<Vec<Value>> = is
                .iter()
                .map(|&i| vec![Value::Int(i), Value::elem(1)])
                .collect();
            match program.run_block(&BlockBuf::from_lanes(&lanes), &mut exec) {
                Some(BlockEvent::Error(lane, e)) => Some((lane, e)),
                None => None,
                other => panic!("unexpected {other:?}"),
            }
        };
        for (i, expected) in [(3, Ok(None)), (-1, Err(error.clone()))] {
            let input = Model::from_bindings([("i", Value::Int(i)), ("v", Value::elem(1))]);
            assert_eq!(prover().replay(&ob, &input), expected, "i = {i}");
            assert_eq!(run(&[i]), expected.err().map(|e| (0, e)), "i = {i}");
        }
        assert_eq!(run(&[3, -1]), Some((1, error)));
    }

    /// A quantifier range wider than `i64` is refused with one typed error
    /// through all three evaluation paths — the reference `eval_bool`, the
    /// formula path (`Program::eval_in_regs`) and the model search (the
    /// block executor) — instead of wrapping below the range guard and
    /// enumerating about 2^63 iterations.
    #[test]
    fn an_overflowing_quantifier_width_is_refused_on_every_path() {
        let formula = forall_int("i", int(i64::MIN), int(1), tru());
        let reference = eval::eval_bool(&formula, &Model::new())
            .unwrap_err()
            .to_string();
        assert_eq!(
            reference,
            format!(
                "quantifier range of width {} is too large to enumerate",
                i64::MAX
            )
        );
        let program = Program::lower_formula(&formula, &[]);
        let mut regs = Vec::new();
        program.prepare_regs(&mut regs);
        assert_eq!(
            program.eval_in_regs(&mut regs),
            Err(format!("evaluating goal: {reference}"))
        );
        let verdict = prover().prove(&Obligation::new("overflow").goal(formula));
        assert_eq!(
            unknown_reason(&verdict),
            Some(format!("evaluating goal: {reference}").as_str())
        );
    }

    #[test]
    fn integer_reasoning_within_scope() {
        // counter' = c + v; counter'' = counter' - v; goal counter'' = c
        let ob = Obligation::new("inverse_increase")
            .define("c1", add(var_int("c"), var_int("v")))
            .define("c2", sub(var_int("c1"), var_int("v")))
            .goal(eq(var_int("c2"), var_int("c")));
        assert!(prover().prove(&ob).is_valid());
    }
}
