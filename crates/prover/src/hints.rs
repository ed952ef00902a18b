//! Proof hints: the `note`, `assuming`, and `pickWitness` commands.
//!
//! The paper reports that 57 of the 1530 generated commutativity testing
//! methods (all on ArrayList) do not verify automatically and need a total of
//! 201 Jahob proof language commands (Table 5.9): `note` (prove an
//! intermediate lemma and make it available), `assuming` (prove `A ⟹ B` by
//! assuming `A`), and `pickWitness` (skolemize an existential hypothesis so
//! that later reasoning can refer to the witness).
//!
//! This module reproduces those commands. A hint either produces a *side
//! obligation* (whose validity must be established separately) and augments
//! the hypotheses of the main obligation, or — for `pickWitness` — introduces
//! a fresh witness constant constrained by the body of an existential
//! hypothesis.

use std::collections::BTreeMap;
use std::fmt;

use semcommute_logic::{build, substitute, Term};

use crate::obligation::Obligation;

/// A proof-language command attached to a testing method.
#[derive(Debug, Clone, PartialEq)]
pub enum Hint {
    /// `note F`: prove `F` from the current hypotheses, then add it to the
    /// hypotheses of the main obligation.
    Note(Term),
    /// `assuming A { … } yields C`: prove `C` under the extra hypothesis `A`,
    /// then add `A → C` to the hypotheses of the main obligation.
    Assuming {
        /// The case assumption `A`.
        hypothesis: Term,
        /// The conclusion `C` proved under `A`.
        conclusion: Term,
    },
    /// `pickWitness w for EX x ∈ [lo, hi). body`: introduce a fresh constant
    /// `w` with `lo ≤ w < hi` and `body[x := w]` as new hypotheses. The
    /// existential must already be among the hypotheses (possibly added by an
    /// earlier `note` / `assuming`).
    PickWitness {
        /// The name of the fresh witness constant.
        witness: String,
        /// The existential hypothesis being skolemized.
        existential: Term,
    },
}

impl Hint {
    /// A short label used in reports (matches the command names of Table 5.9).
    pub fn command_name(&self) -> &'static str {
        match self {
            Hint::Note(_) => "note",
            Hint::Assuming { .. } => "assuming",
            Hint::PickWitness { .. } => "pickWitness",
        }
    }
}

impl fmt::Display for Hint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Hint::Note(t) => write!(f, "note \"{t}\""),
            Hint::Assuming {
                hypothesis,
                conclusion,
            } => write!(f, "assuming \"{hypothesis}\" ==> \"{conclusion}\""),
            Hint::PickWitness {
                witness,
                existential,
            } => write!(f, "pickWitness {witness} for \"{existential}\""),
        }
    }
}

/// An error applying hints to an obligation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HintError {
    /// `pickWitness` referred to a formula that is not an existential.
    NotAnExistential(String),
    /// `pickWitness` referred to an existential that is not among the current
    /// hypotheses.
    MissingExistential(String),
    /// The witness name is already used by the obligation.
    WitnessNameClash(String),
}

impl fmt::Display for HintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HintError::NotAnExistential(s) => {
                write!(f, "pickWitness target is not an existential: {s}")
            }
            HintError::MissingExistential(s) => {
                write!(f, "pickWitness target is not among the hypotheses: {s}")
            }
            HintError::WitnessNameClash(s) => write!(f, "witness name `{s}` is already in use"),
        }
    }
}

impl std::error::Error for HintError {}

/// The result of applying hints: side obligations to discharge, plus the
/// augmented main obligation.
#[derive(Debug, Clone, PartialEq)]
pub struct HintedObligations {
    /// Obligations introduced by `note` / `assuming` commands, in order.
    pub side_obligations: Vec<Obligation>,
    /// The main obligation with the hint conclusions available as hypotheses.
    pub main: Obligation,
}

/// Applies a sequence of hints to an obligation.
///
/// # Errors
///
/// Returns a [`HintError`] if a `pickWitness` hint is malformed (its target is
/// not an existential hypothesis) or clashes with an existing variable name.
pub fn apply_hints(ob: &Obligation, hints: &[Hint]) -> Result<HintedObligations, HintError> {
    let mut main = ob.clone();
    let mut side = Vec::new();
    for (i, hint) in hints.iter().enumerate() {
        match hint {
            Hint::Note(f) => {
                let side_ob = Obligation {
                    name: format!("{}::note_{}", ob.name, i),
                    defines: main.defines.clone(),
                    hypotheses: main.hypotheses.clone(),
                    goal: f.clone(),
                };
                side.push(side_ob);
                main.hypotheses.push(f.clone());
            }
            Hint::Assuming {
                hypothesis,
                conclusion,
            } => {
                let mut hyps = main.hypotheses.clone();
                hyps.push(hypothesis.clone());
                let side_ob = Obligation {
                    name: format!("{}::assuming_{}", ob.name, i),
                    defines: main.defines.clone(),
                    hypotheses: hyps,
                    goal: conclusion.clone(),
                };
                side.push(side_ob);
                main.hypotheses
                    .push(build::implies(hypothesis.clone(), conclusion.clone()));
            }
            Hint::PickWitness {
                witness,
                existential,
            } => {
                let (var, lo, hi, body) = match existential {
                    Term::ExistsInt { var, lo, hi, body } => (var, lo, hi, body),
                    other => return Err(HintError::NotAnExistential(other.to_string())),
                };
                if !main.hypotheses.contains(existential) {
                    return Err(HintError::MissingExistential(existential.to_string()));
                }
                if main.all_vars().contains_key(witness) {
                    return Err(HintError::WitnessNameClash(witness.clone()));
                }
                let w = build::var_int(witness);
                let mut subst = BTreeMap::new();
                subst.insert(var.clone(), w.clone());
                main.hypotheses.push(build::le((**lo).clone(), w.clone()));
                main.hypotheses.push(build::lt(w.clone(), (**hi).clone()));
                main.hypotheses.push(substitute(body, &subst));
            }
        }
    }
    Ok(HintedObligations {
        side_obligations: side,
        main,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::finite::FiniteModelProver;
    use crate::scope::Scope;
    use semcommute_logic::build::*;

    fn prover() -> FiniteModelProver {
        FiniteModelProver::new(Scope::small())
    }

    #[test]
    fn note_creates_side_obligation_and_augments_main() {
        let ob = Obligation::new("t")
            .define("s1", set_add(var_set("s"), var_elem("v")))
            .goal(member(var_elem("v"), var_set("s1")));
        let lemma = member(var_elem("v"), var_set("s1"));
        let hinted = apply_hints(&ob, &[Hint::Note(lemma.clone())]).unwrap();
        assert_eq!(hinted.side_obligations.len(), 1);
        assert_eq!(hinted.side_obligations[0].goal, lemma);
        assert!(hinted.main.hypotheses.contains(&lemma));
        // Side obligation and augmented main are both valid.
        assert!(prover().prove(&hinted.side_obligations[0]).is_valid());
        assert!(prover().prove(&hinted.main).is_valid());

        // A bogus note (v is always in s): its side obligation has a
        // counter-model, which is how a wrong hint fails its method.
        let bogus = apply_hints(&ob, &[Hint::Note(member(var_elem("v"), var_set("s")))]).unwrap();
        assert!(prover()
            .prove(&bogus.side_obligations[0])
            .is_counterexample());
    }

    #[test]
    fn assuming_adds_implication() {
        let ob = Obligation::new("t").goal(tru());
        let hinted = apply_hints(
            &ob,
            &[Hint::Assuming {
                hypothesis: member(var_elem("v"), var_set("s")),
                conclusion: gt(card(var_set("s")), int(0)),
            }],
        )
        .unwrap();
        assert_eq!(hinted.side_obligations.len(), 1);
        assert!(prover().prove(&hinted.side_obligations[0]).is_valid());
        assert!(matches!(
            hinted.main.hypotheses.last().unwrap(),
            Term::Implies(_, _)
        ));
    }

    #[test]
    fn pick_witness_skolemizes_existential() {
        let existential = exists_int(
            "i",
            int(0),
            seq_len(var_seq("q")),
            eq(seq_at(var_seq("q"), var_int("i")), var_elem("v")),
        );
        let ob = Obligation::new("t")
            .assume(existential.clone())
            .goal(seq_contains(var_seq("q"), var_elem("v")));
        let hinted = apply_hints(
            &ob,
            &[Hint::PickWitness {
                witness: "w".into(),
                existential,
            }],
        )
        .unwrap();
        assert!(hinted.side_obligations.is_empty());
        // The witness constraints are now available; the goal follows.
        assert!(prover().prove(&hinted.main).is_valid());
        assert!(hinted
            .main
            .hypotheses
            .iter()
            .any(|h| matches!(h, Term::Le(_, _))));
    }

    #[test]
    fn pick_witness_requires_existential_hypothesis() {
        let ob = Obligation::new("t").goal(tru());
        let err = apply_hints(
            &ob,
            &[Hint::PickWitness {
                witness: "w".into(),
                existential: exists_int("i", int(0), int(3), tru()),
            }],
        )
        .unwrap_err();
        assert!(matches!(err, HintError::MissingExistential(_)));

        let err2 = apply_hints(
            &ob,
            &[Hint::PickWitness {
                witness: "w".into(),
                existential: tru(),
            }],
        )
        .unwrap_err();
        assert!(matches!(err2, HintError::NotAnExistential(_)));
    }

    #[test]
    fn witness_name_clash_is_rejected() {
        let existential = exists_int("i", int(0), int(3), eq(var_int("i"), var_int("x")));
        let ob = Obligation::new("t").assume(existential.clone()).goal(tru());
        let err = apply_hints(
            &ob,
            &[Hint::PickWitness {
                witness: "x".into(),
                existential,
            }],
        )
        .unwrap_err();
        assert!(matches!(err, HintError::WitnessNameClash(_)));
    }

    #[test]
    fn command_names_match_table_5_9() {
        assert_eq!(Hint::Note(tru()).command_name(), "note");
        assert_eq!(
            Hint::Assuming {
                hypothesis: tru(),
                conclusion: tru()
            }
            .command_name(),
            "assuming"
        );
        assert_eq!(
            Hint::PickWitness {
                witness: "w".into(),
                existential: tru()
            }
            .command_name(),
            "pickWitness"
        );
    }

    #[test]
    fn hints_display_like_jahob_commands() {
        let h = Hint::Note(member(var_elem("v"), var_set("s")));
        assert_eq!(h.to_string(), "note \"v : s\"");
    }
}
