//! Slot-compiled obligations: the intermediate form the bytecode backend
//! lowers from.
//!
//! The reference evaluator ([`mod@semcommute_logic::eval`]) looks free variables
//! up by name in a `BTreeMap`-backed [`Model`](semcommute_logic::Model) and
//! clones the whole model to bind a quantifier variable. That is fine for one
//! evaluation, but the finite-model prover evaluates the same obligation
//! under *millions* of candidate models. A [`CompiledObligation`] therefore
//! resolves every variable occurrence to a dense *slot* index once, up
//! front, and fixes the order in which defines are computed and hypotheses
//! checked (`schedule`). [`crate::bytecode::Program::lower`] turns it into
//! the flat register program the search executes; the slot layout becomes
//! the register layout (input slot `i` is register `i`).

use std::collections::HashMap;

use semcommute_logic::Term;

use crate::obligation::Obligation;

/// A term with every variable occurrence resolved to a slot index.
///
/// `pub(crate)` so the bytecode backend (`crate::bytecode`) can lower the
/// compiled form to its flat register program.
#[derive(Debug, Clone)]
pub(crate) enum CTerm {
    Slot(u32),
    BoolLit(bool),
    IntLit(i64),
    Null,
    EmptySet,
    EmptyMap,
    EmptySeq,
    Not(Box<CTerm>),
    Neg(Box<CTerm>),
    Card(Box<CTerm>),
    MapSize(Box<CTerm>),
    SeqLen(Box<CTerm>),
    And(Vec<CTerm>),
    Or(Vec<CTerm>),
    Implies(Box<CTerm>, Box<CTerm>),
    Iff(Box<CTerm>, Box<CTerm>),
    Eq(Box<CTerm>, Box<CTerm>),
    Add(Box<CTerm>, Box<CTerm>),
    Sub(Box<CTerm>, Box<CTerm>),
    Lt(Box<CTerm>, Box<CTerm>),
    Le(Box<CTerm>, Box<CTerm>),
    SetAdd(Box<CTerm>, Box<CTerm>),
    SetRemove(Box<CTerm>, Box<CTerm>),
    Member(Box<CTerm>, Box<CTerm>),
    MapPut(Box<CTerm>, Box<CTerm>, Box<CTerm>),
    MapRemove(Box<CTerm>, Box<CTerm>),
    MapGet(Box<CTerm>, Box<CTerm>),
    MapHasKey(Box<CTerm>, Box<CTerm>),
    SeqInsertAt(Box<CTerm>, Box<CTerm>, Box<CTerm>),
    SeqRemoveAt(Box<CTerm>, Box<CTerm>),
    SeqSetAt(Box<CTerm>, Box<CTerm>, Box<CTerm>),
    SeqAt(Box<CTerm>, Box<CTerm>),
    SeqIndexOf(Box<CTerm>, Box<CTerm>),
    SeqLastIndexOf(Box<CTerm>, Box<CTerm>),
    SeqContains(Box<CTerm>, Box<CTerm>),
    Ite(Box<CTerm>, Box<CTerm>, Box<CTerm>),
    Quantifier {
        universal: bool,
        slot: u32,
        lo: Box<CTerm>,
        hi: Box<CTerm>,
        body: Box<CTerm>,
    },
}

/// One step of the compiled evaluation program: compute a defined variable
/// into its slot, or check a hypothesis (bailing out of the candidate when
/// it fails). Steps follow the obligation's [`schedule`].
#[derive(Debug, Clone)]
pub(crate) enum Step {
    Define(u32, CTerm),
    Check(CTerm),
}

/// One entry of an obligation's evaluation [`schedule`]: compute define `i`
/// (an index into [`Obligation::defines`]) or check hypothesis `i` (an index
/// into [`Obligation::hypotheses`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Stage {
    Define(usize),
    Hypothesis(usize),
}

/// The order in which an obligation's defines are computed and its
/// hypotheses checked — the single definition both evaluators follow:
/// [`CompiledObligation::compile`] (and through it the bytecode) and the
/// reference [`crate::FiniteModelProver::replay`].
///
/// Hypotheses are scheduled at the *earliest* point their referenced defines
/// are available — a hypothesis over input variables only (an index-bounds
/// precondition, say) runs before any define is computed, so the large
/// fraction of candidates that violate it never pays for the defines. The
/// schedule is observable: a candidate that fails an early hypothesis never
/// evaluates a later define, so a define that would fail to evaluate on it
/// does not turn the candidate into an error.
///
/// Definition order is preserved, hypothesis order is preserved, and each
/// hypothesis sits immediately after the last define it reads.
pub(crate) fn schedule(ob: &Obligation) -> Vec<Stage> {
    let define_position: HashMap<&str, usize> = ob
        .defines
        .iter()
        .enumerate()
        .map(|(i, (name, _))| (name.as_str(), i))
        .collect();
    // For each hypothesis, the position of the last define it reads (`None`
    // when it only reads inputs).
    let mut pending = ob
        .hypotheses
        .iter()
        .enumerate()
        .map(|(i, h)| {
            let latest = semcommute_logic::free_vars(h)
                .keys()
                .filter_map(|name| define_position.get(name.as_str()).copied())
                .max();
            (latest, i)
        })
        .peekable();
    let mut stages = Vec::with_capacity(ob.defines.len() + ob.hypotheses.len());
    let mut emit_ready = |after: Option<usize>, stages: &mut Vec<Stage>| {
        // Hypothesis dependencies are monotone in hypothesis order (vcgen
        // only references already-defined variables), so a peek-and-pop
        // sweep preserves their relative order; a hypothesis that reads a
        // later define merely holds back the ones behind it.
        while matches!(pending.peek(), Some((latest, _)) if *latest <= after) {
            let (_, i) = pending.next().expect("peeked");
            stages.push(Stage::Hypothesis(i));
        }
    };
    emit_ready(None, &mut stages);
    for position in 0..ob.defines.len() {
        stages.push(Stage::Define(position));
        emit_ready(Some(position), &mut stages);
    }
    // Every `latest` is `None` or a define position, so the sweep after the
    // last define has drained every hypothesis.
    debug_assert!(pending.next().is_none());
    stages
}

/// An obligation compiled against a fixed input-variable order.
#[derive(Debug, Clone)]
pub struct CompiledObligation {
    /// Slots `0..input_count` hold the input variables, in the order given to
    /// [`CompiledObligation::compile`] (the enumeration order of the space).
    pub(crate) input_count: usize,
    /// Defines and hypothesis checks, interleaved in [`schedule`] order.
    pub(crate) steps: Vec<Step>,
    pub(crate) goal: CTerm,
    /// Slot index → variable name, for reconstructing counter-models.
    /// Quantifier-bound slots have synthetic names and are excluded from
    /// reconstruction.
    pub(crate) slot_names: Vec<String>,
    /// Number of named slots (inputs + defines); the rest are binder slots.
    pub(crate) named_slots: usize,
}

impl CompiledObligation {
    /// Compiles `ob` against the given input-variable order (name, sort per
    /// slot). Every free variable of the obligation must appear in
    /// `input_order` or be defined; quantifier binders get private slots.
    pub fn compile(ob: &Obligation, input_order: &[String]) -> CompiledObligation {
        let mut slots: HashMap<String, u32> = HashMap::new();
        let mut slot_names: Vec<String> = Vec::new();
        for name in input_order {
            slots.insert(name.clone(), slot_names.len() as u32);
            slot_names.push(name.clone());
        }
        let input_count = slot_names.len();
        for (name, _) in &ob.defines {
            slots.entry(name.clone()).or_insert_with(|| {
                slot_names.push(name.clone());
                (slot_names.len() - 1) as u32
            });
        }
        let named_slots = slot_names.len();
        let mut compiler = Compiler {
            slots,
            slot_names,
            binders: Vec::new(),
        };
        let steps = schedule(ob)
            .into_iter()
            .map(|stage| match stage {
                Stage::Define(i) => {
                    let (name, term) = &ob.defines[i];
                    let slot = compiler.slots[name.as_str()];
                    Step::Define(slot, compiler.compile_term(term))
                }
                Stage::Hypothesis(i) => Step::Check(compiler.compile_term(&ob.hypotheses[i])),
            })
            .collect();
        let goal = compiler.compile_term(&ob.goal);

        CompiledObligation {
            input_count,
            steps,
            goal,
            slot_names: compiler.slot_names,
            named_slots,
        }
    }

    /// Number of input slots (the prefix of the slot layout the enumerator
    /// fills).
    pub fn input_count(&self) -> usize {
        self.input_count
    }
}

struct Compiler {
    slots: HashMap<String, u32>,
    slot_names: Vec<String>,
    /// Stack of active quantifier binders (name → slot), innermost last.
    binders: Vec<(String, u32)>,
}

impl Compiler {
    fn fresh_binder_slot(&mut self, name: &str) -> u32 {
        let slot = self.slot_names.len() as u32;
        self.slot_names.push(format!("__q{slot}:{name}"));
        slot
    }

    fn resolve(&self, name: &str) -> Option<u32> {
        if let Some(&(_, slot)) = self.binders.iter().rev().find(|(n, _)| n == name) {
            return Some(slot);
        }
        self.slots.get(name).copied()
    }

    fn compile_term(&mut self, term: &Term) -> CTerm {
        use Term as T;
        let b = |c: &mut Compiler, t: &Term| Box::new(c.compile_term(t));
        match term {
            T::Var(v) => match self.resolve(&v.name) {
                Some(slot) => CTerm::Slot(slot),
                // Defensive: an unbound name becomes a slot that is never
                // filled, which evaluates to an unbound-variable error.
                None => {
                    let slot = self.slot_names.len() as u32;
                    self.slot_names.push(v.name.clone());
                    self.slots.insert(v.name.clone(), slot);
                    CTerm::Slot(slot)
                }
            },
            T::BoolLit(x) => CTerm::BoolLit(*x),
            T::IntLit(i) => CTerm::IntLit(*i),
            T::Null => CTerm::Null,
            T::EmptySet => CTerm::EmptySet,
            T::EmptyMap => CTerm::EmptyMap,
            T::EmptySeq => CTerm::EmptySeq,
            T::Not(a) => CTerm::Not(b(self, a)),
            T::Neg(a) => CTerm::Neg(b(self, a)),
            T::Card(a) => CTerm::Card(b(self, a)),
            T::MapSize(a) => CTerm::MapSize(b(self, a)),
            T::SeqLen(a) => CTerm::SeqLen(b(self, a)),
            T::And(cs) => CTerm::And(cs.iter().map(|c| self.compile_term(c)).collect()),
            T::Or(cs) => CTerm::Or(cs.iter().map(|c| self.compile_term(c)).collect()),
            T::Implies(x, y) => CTerm::Implies(b(self, x), b(self, y)),
            T::Iff(x, y) => CTerm::Iff(b(self, x), b(self, y)),
            T::Eq(x, y) => CTerm::Eq(b(self, x), b(self, y)),
            T::Add(x, y) => CTerm::Add(b(self, x), b(self, y)),
            T::Sub(x, y) => CTerm::Sub(b(self, x), b(self, y)),
            T::Lt(x, y) => CTerm::Lt(b(self, x), b(self, y)),
            T::Le(x, y) => CTerm::Le(b(self, x), b(self, y)),
            T::SetAdd(x, y) => CTerm::SetAdd(b(self, x), b(self, y)),
            T::SetRemove(x, y) => CTerm::SetRemove(b(self, x), b(self, y)),
            T::Member(x, y) => CTerm::Member(b(self, x), b(self, y)),
            T::MapPut(x, y, z) => CTerm::MapPut(b(self, x), b(self, y), b(self, z)),
            T::MapRemove(x, y) => CTerm::MapRemove(b(self, x), b(self, y)),
            T::MapGet(x, y) => CTerm::MapGet(b(self, x), b(self, y)),
            T::MapHasKey(x, y) => CTerm::MapHasKey(b(self, x), b(self, y)),
            T::SeqInsertAt(x, y, z) => CTerm::SeqInsertAt(b(self, x), b(self, y), b(self, z)),
            T::SeqRemoveAt(x, y) => CTerm::SeqRemoveAt(b(self, x), b(self, y)),
            T::SeqSetAt(x, y, z) => CTerm::SeqSetAt(b(self, x), b(self, y), b(self, z)),
            T::SeqAt(x, y) => CTerm::SeqAt(b(self, x), b(self, y)),
            T::SeqIndexOf(x, y) => CTerm::SeqIndexOf(b(self, x), b(self, y)),
            T::SeqLastIndexOf(x, y) => CTerm::SeqLastIndexOf(b(self, x), b(self, y)),
            T::SeqContains(x, y) => CTerm::SeqContains(b(self, x), b(self, y)),
            T::Ite(x, y, z) => CTerm::Ite(b(self, x), b(self, y), b(self, z)),
            T::ForallInt { var, lo, hi, body } | T::ExistsInt { var, lo, hi, body } => {
                let lo = b(self, lo);
                let hi = b(self, hi);
                let slot = self.fresh_binder_slot(var);
                self.binders.push((var.clone(), slot));
                let body = b(self, body);
                self.binders.pop();
                CTerm::Quantifier {
                    universal: matches!(term, T::ForallInt { .. }),
                    slot,
                    lo,
                    hi,
                    body,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semcommute_logic::build::*;

    #[test]
    fn hypotheses_run_right_after_their_last_define() {
        let ob = Obligation::new("sched")
            .define("r1", member(var_elem("v"), var_set("s")))
            .define("s1", set_add(var_set("s"), var_elem("v")))
            .assume(lt(var_int("i"), int(2)))
            .assume(var_bool("r1"))
            .assume(member(var_elem("v"), var_set("s1")))
            .goal(var_bool("r1"));
        assert_eq!(
            schedule(&ob),
            [
                Stage::Hypothesis(0),
                Stage::Define(0),
                Stage::Hypothesis(1),
                Stage::Define(1),
                Stage::Hypothesis(2),
            ]
        );
        // The compiled steps follow the schedule.
        let order = ["i", "s", "v"].map(String::from);
        let compiled = CompiledObligation::compile(&ob, &order);
        let defines: Vec<bool> = compiled
            .steps
            .iter()
            .map(|step| matches!(step, Step::Define(..)))
            .collect();
        assert_eq!(defines, [false, true, false, true, false]);
    }

    #[test]
    fn a_hypothesis_on_a_later_define_holds_back_the_ones_behind_it() {
        let ob = Obligation::new("held")
            .define("a", int(1))
            .define("b", int(2))
            .assume(eq(var_int("b"), int(2)))
            .assume(eq(var_int("x"), int(0)));
        assert_eq!(
            schedule(&ob),
            [
                Stage::Define(0),
                Stage::Define(1),
                Stage::Hypothesis(0),
                Stage::Hypothesis(1),
            ]
        );
    }

    #[test]
    fn quantifier_binders_get_private_slots() {
        // exists i in [0, len(q)). q[i] = v — with a nested shadowing binder.
        let ob = Obligation::new("q").goal(exists_int(
            "i",
            int(0),
            seq_len(var_seq("q")),
            and2(
                eq(seq_at(var_seq("q"), var_int("i")), var_elem("v")),
                forall_int("i", int(0), int(2), le(int(0), var_int("i"))),
            ),
        ));
        let compiled = CompiledObligation::compile(&ob, &["q".to_string(), "v".to_string()]);
        assert_eq!(compiled.named_slots, 2);
        let CTerm::Quantifier {
            slot: outer, body, ..
        } = &compiled.goal
        else {
            panic!("goal is a quantifier");
        };
        let CTerm::And(parts) = body.as_ref() else {
            panic!("body is a conjunction");
        };
        let CTerm::Quantifier { slot: inner, .. } = &parts[1] else {
            panic!("second conjunct is a quantifier");
        };
        assert_ne!(outer, inner, "the shadowing binder gets its own slot");
        assert!(*outer as usize >= compiled.named_slots && *inner as usize >= compiled.named_slots);
        assert_eq!(compiled.slot_names.len(), 4);
    }
}
