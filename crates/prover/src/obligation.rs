//! Proof obligations.

use std::collections::{BTreeMap, HashMap};
use std::fmt;

use semcommute_logic::{build, free_vars, Sort, Term};

/// A proof obligation: prove `goal` from `hypotheses`, where some variables
/// are *defined* as functions of earlier variables.
///
/// Obligations are produced by symbolically executing the generated
/// commutativity / inverse testing methods. Each operation call contributes a
/// group of *definitions* (its result and post-state expressed as terms over
/// the pre-state and arguments) and possibly hypotheses (assumed
/// preconditions, the assumed commutativity condition); the final `assert`
/// contributes the goal.
///
/// Keeping definitions separate from general hypotheses is what makes the
/// finite-model prover practical: only the *input* variables (the initial
/// abstract state and the operation arguments) need to be enumerated; defined
/// variables are computed by evaluation, exactly as the testing method would
/// compute them when run.
#[derive(Debug, Clone, PartialEq)]
pub struct Obligation {
    /// A short name identifying the obligation (testing method name plus the
    /// assertion label).
    pub name: String,
    /// Ordered functional definitions `(variable, term)`. Each term may refer
    /// to input variables and to previously defined variables only.
    pub defines: Vec<(String, Term)>,
    /// Hypotheses that may be assumed.
    pub hypotheses: Vec<Term>,
    /// The goal to prove.
    pub goal: Term,
}

impl Obligation {
    /// Creates an empty obligation with the given name and a trivially true
    /// goal. Use the builder methods to populate it.
    pub fn new(name: impl Into<String>) -> Obligation {
        Obligation {
            name: name.into(),
            defines: Vec::new(),
            hypotheses: Vec::new(),
            goal: build::tru(),
        }
    }

    /// Adds a functional definition `var := term`.
    pub fn define(mut self, var: impl Into<String>, term: Term) -> Obligation {
        self.defines.push((var.into(), term));
        self
    }

    /// Adds a hypothesis.
    pub fn assume(mut self, hypothesis: Term) -> Obligation {
        self.hypotheses.push(hypothesis);
        self
    }

    /// Sets the goal.
    pub fn goal(mut self, goal: Term) -> Obligation {
        self.goal = goal;
        self
    }

    /// Returns the *input* variables of the obligation: free variables of the
    /// definitions, hypotheses, and goal that are not themselves defined.
    pub fn input_vars(&self) -> BTreeMap<String, Sort> {
        let mut all: BTreeMap<String, Sort> = BTreeMap::new();
        for (_, t) in &self.defines {
            all.extend(free_vars(t));
        }
        for h in &self.hypotheses {
            all.extend(free_vars(h));
        }
        all.extend(free_vars(&self.goal));
        for (name, _) in &self.defines {
            all.remove(name);
        }
        all
    }

    /// Returns all variables (inputs and defined) with their sorts.
    pub fn all_vars(&self) -> BTreeMap<String, Sort> {
        let mut all = self.input_vars();
        for (name, t) in &self.defines {
            // The sort of a defined variable is the sort of its definition;
            // fall back to Bool (and let sort checking fail later) if the
            // definition is ill-sorted.
            let sort = semcommute_logic::sort_of(t).unwrap_or(Sort::Bool);
            all.insert(name.clone(), sort);
        }
        all
    }

    /// Checks that the definitions are well-formed: no variable is defined
    /// twice, and no definition refers to a variable defined later.
    pub fn validate(&self) -> Result<(), String> {
        let mut defined: Vec<&str> = Vec::new();
        for (name, term) in &self.defines {
            if defined.contains(&name.as_str()) {
                return Err(format!("variable `{name}` is defined twice"));
            }
            for (fv, _) in free_vars(term) {
                if fv == *name {
                    return Err(format!("definition of `{name}` refers to itself"));
                }
                // Referring to a *later* defined variable is an error.
                if !defined.contains(&fv.as_str())
                    && self.defines.iter().any(|(n, _)| *n == fv)
                    && self
                        .defines
                        .iter()
                        .position(|(n, _)| *n == fv)
                        .expect("position exists")
                        > defined.len()
                {
                    return Err(format!(
                        "definition of `{name}` refers to `{fv}`, which is defined later"
                    ));
                }
            }
            defined.push(name);
        }
        Ok(())
    }
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
/// hypotheses checked — the single definition both evaluators follow: the
/// bytecode lowering (`Program::lower`) and the reference
/// [`crate::FiniteModelProver::replay`].
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
            let latest = free_vars(h)
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

impl fmt::Display for Obligation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "obligation {} {{", self.name)?;
        for (n, t) in &self.defines {
            writeln!(f, "  let {n} = {t}")?;
        }
        for h in &self.hypotheses {
            writeln!(f, "  assume {h}")?;
        }
        writeln!(f, "  prove {}", self.goal)?;
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semcommute_logic::build::*;

    fn sample() -> Obligation {
        Obligation::new("sample")
            .define("r", member(var_elem("v"), var_set("s")))
            .define("s1", set_add(var_set("s"), var_elem("v")))
            .assume(neq(var_elem("v"), null()))
            .goal(member(var_elem("v"), var_set("s1")))
    }

    #[test]
    fn input_vars_exclude_defined() {
        let ob = sample();
        let inputs = ob.input_vars();
        assert!(inputs.contains_key("v"));
        assert!(inputs.contains_key("s"));
        assert!(!inputs.contains_key("r"));
        assert!(!inputs.contains_key("s1"));
    }

    #[test]
    fn all_vars_include_defined_with_sorts() {
        let all = sample().all_vars();
        assert_eq!(all["r"], Sort::Bool);
        assert_eq!(all["s1"], Sort::Set);
        assert_eq!(all["v"], Sort::Elem);
    }

    #[test]
    fn validate_accepts_well_formed() {
        assert!(sample().validate().is_ok());
    }

    #[test]
    fn validate_rejects_duplicate_definition() {
        let ob = Obligation::new("dup")
            .define("x", int(1))
            .define("x", int(2));
        assert!(ob.validate().is_err());
    }

    #[test]
    fn validate_rejects_self_reference() {
        let ob = Obligation::new("selfref").define("x", add(var_int("x"), int(1)));
        assert!(ob.validate().is_err());
    }

    #[test]
    fn validate_rejects_forward_reference() {
        let ob = Obligation::new("fwd")
            .define("a", var_int("b"))
            .define("b", int(1));
        assert!(ob.validate().is_err());
    }

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
    fn display_shows_structure() {
        let s = sample().to_string();
        assert!(s.contains("let r ="));
        assert!(s.contains("assume"));
        assert!(s.contains("prove"));
    }
}
