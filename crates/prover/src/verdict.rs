//! Verdicts produced by the provers.

use std::fmt;

use semcommute_logic::Model;

use crate::stats::ProofStats;

/// The outcome of attempting to prove an [`crate::Obligation`].
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// No counter-model within the scope. From the finite-model prover this
    /// is a bounded claim for every fragment, sets and maps included: the
    /// [`crate::Scope`] bounds the universe, the collection sizes, the
    /// sequence lengths and the integers, so `card(s) <= 4` is `Valid` at
    /// [`crate::Scope::standard`]. Only structural verdicts (the obligation
    /// simplifies to `true`) are unbounded.
    Valid {
        /// Statistics about the proof attempt.
        stats: ProofStats,
    },
    /// A counter-model was found: under this assignment to the input
    /// variables all hypotheses hold but the goal is false.
    CounterModel {
        /// The counter-model (input variables plus the computed defined
        /// variables, so that reports show the full execution).
        model: Model,
        /// Statistics about the proof attempt.
        stats: ProofStats,
    },
    /// The prover could not decide the obligation (budget exceeded or an
    /// evaluation error such as an ill-sorted term).
    Unknown {
        /// Why the obligation could not be decided.
        reason: String,
        /// Statistics about the proof attempt.
        stats: ProofStats,
    },
}

impl Verdict {
    /// Returns `true` if the obligation was proved valid.
    pub fn is_valid(&self) -> bool {
        matches!(self, Verdict::Valid { .. })
    }

    /// Returns `true` if a counter-model was found.
    pub fn is_counterexample(&self) -> bool {
        matches!(self, Verdict::CounterModel { .. })
    }

    /// Returns `true` if the prover could not decide the obligation.
    pub fn is_unknown(&self) -> bool {
        matches!(self, Verdict::Unknown { .. })
    }

    /// Returns the counter-model, if any.
    pub fn counter_model(&self) -> Option<&Model> {
        match self {
            Verdict::CounterModel { model, .. } => Some(model),
            _ => None,
        }
    }

    /// Returns the statistics of the proof attempt.
    pub fn stats(&self) -> &ProofStats {
        match self {
            Verdict::Valid { stats }
            | Verdict::CounterModel { stats, .. }
            | Verdict::Unknown { stats, .. } => stats,
        }
    }

    /// Returns a mutable reference to the statistics of the proof attempt.
    pub fn stats_mut(&mut self) -> &mut ProofStats {
        match self {
            Verdict::Valid { stats }
            | Verdict::CounterModel { stats, .. }
            | Verdict::Unknown { stats, .. } => stats,
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Valid { stats } => write!(f, "valid [{stats}]"),
            Verdict::CounterModel { model, stats } => {
                write!(f, "counterexample [{stats}]\n{model}")
            }
            Verdict::Unknown { reason, stats } => write!(f, "unknown: {reason} [{stats}]"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semcommute_logic::Value;

    #[test]
    fn predicates_match_variants() {
        let v = Verdict::Valid {
            stats: ProofStats::none(),
        };
        assert!(v.is_valid() && !v.is_counterexample() && !v.is_unknown());
        let c = Verdict::CounterModel {
            model: Model::new(),
            stats: ProofStats::none(),
        };
        assert!(c.is_counterexample() && c.counter_model().is_some());
        let u = Verdict::Unknown {
            reason: "budget".into(),
            stats: ProofStats::none(),
        };
        assert!(u.is_unknown());
        assert!(v.counter_model().is_none());
    }

    #[test]
    fn display_includes_reason_and_model() {
        let mut model = Model::new();
        model.insert("x", Value::Int(3));
        let c = Verdict::CounterModel {
            model,
            stats: ProofStats::none(),
        };
        let s = c.to_string();
        assert!(s.contains("counterexample"));
        assert!(s.contains("x = 3"));
        let u = Verdict::Unknown {
            reason: "budget exceeded".into(),
            stats: ProofStats::none(),
        };
        assert!(u.to_string().contains("budget exceeded"));
    }

    #[test]
    fn stats_mut_allows_updating() {
        let mut v = Verdict::Valid {
            stats: ProofStats::none(),
        };
        v.stats_mut().models_checked = 7;
        assert_eq!(v.stats().models_checked, 7);
    }
}
