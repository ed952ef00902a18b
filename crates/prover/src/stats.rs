//! Proof statistics and prover identification.

use std::fmt;
use std::time::Duration;

/// Which back-end produced a verdict.
///
/// The paper's verifier dispatches obligations to a portfolio of reasoning
/// systems (first-order provers, SMT solvers, MONA, BAPA); our portfolio has a
/// structural prover and a finite-model prover, plus the proof-hint machinery.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ProverChoice {
    /// No prover has produced the verdict (e.g. the obligation was rejected
    /// before any back-end ran).
    None,
    /// The structural (inline + normalize + simplify) prover.
    Structural,
    /// The finite-model (relevant-universe enumeration) prover.
    FiniteModel,
}

impl fmt::Display for ProverChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ProverChoice::None => "none",
            ProverChoice::Structural => "structural",
            ProverChoice::FiniteModel => "finite-model",
        };
        f.write_str(s)
    }
}

/// Statistics about a proof attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProofStats {
    /// Number of candidate models examined by the finite-model prover
    /// (zero when the structural prover decided the obligation).
    pub models_checked: u64,
    /// Number of candidate models the finite-model prover skipped as
    /// non-canonical under the orbit reduction (zero with the reduction
    /// off): isomorphic renamings of anonymous padding elements whose
    /// canonical representative was checked instead. For a fully enumerated
    /// space, `models_checked + orbits_pruned` equals the unreduced
    /// enumeration size.
    pub orbits_pruned: u64,
    /// Wall-clock time spent on the obligation.
    pub elapsed: Duration,
    /// Which back-end produced the verdict.
    pub prover: ProverChoice,
    /// Number of obligations answered from the portfolio's dedup cache
    /// (a previously proved obligation with the same canonical form).
    pub cache_hits: u64,
    /// Number of candidate blocks executed by the batched bytecode evaluator
    /// (zero for a structural verdict). Each block evaluates up to 256
    /// candidate models column-wise.
    pub batches: u64,
    /// Number of candidate lanes the batched evaluator re-ran through the
    /// per-candidate scalar path (collection-valued registers, mixed-sort
    /// columns, or error recovery). Always at most `256 * batches`.
    pub batch_fallbacks: u64,
    /// Total bytecode instructions executed across all active lanes, summed
    /// over blocks. Divided by `models_checked` this gives the effective
    /// instructions-per-candidate figure reported by the perf harness.
    pub instrs_executed: u64,
    /// Evaluation errors encountered along the way that did *not* decide the
    /// verdict. A range-split model search stops at the deciding event with
    /// the minimum enumeration position, but subranges racing to the right
    /// of it may have observed errors first; those are retained here so a
    /// verdict that raced past failures still reports them. For a split
    /// search the counters in this struct are the *sums* over all
    /// subranges (`finalize` merges them); `merge` further accumulates
    /// across obligations.
    pub errors: Vec<String>,
}

impl ProofStats {
    /// Statistics for a structurally decided obligation.
    pub fn structural(elapsed: Duration) -> ProofStats {
        ProofStats {
            models_checked: 0,
            orbits_pruned: 0,
            elapsed,
            prover: ProverChoice::Structural,
            cache_hits: 0,
            batches: 0,
            batch_fallbacks: 0,
            instrs_executed: 0,
            errors: Vec::new(),
        }
    }

    /// Statistics for a finite-model decided obligation.
    pub fn finite(models_checked: u64, elapsed: Duration) -> ProofStats {
        ProofStats {
            models_checked,
            orbits_pruned: 0,
            elapsed,
            prover: ProverChoice::FiniteModel,
            cache_hits: 0,
            batches: 0,
            batch_fallbacks: 0,
            instrs_executed: 0,
            errors: Vec::new(),
        }
    }

    /// Empty statistics (no prover ran).
    pub fn none() -> ProofStats {
        ProofStats {
            models_checked: 0,
            orbits_pruned: 0,
            elapsed: Duration::ZERO,
            prover: ProverChoice::None,
            cache_hits: 0,
            batches: 0,
            batch_fallbacks: 0,
            instrs_executed: 0,
            errors: Vec::new(),
        }
    }

    /// Returns a copy carrying the given non-fatal evaluation errors.
    pub fn with_errors(mut self, errors: Vec<String>) -> ProofStats {
        self.errors = errors;
        self
    }

    /// Returns a copy with the given orbit-reduction pruning count.
    pub fn with_orbits_pruned(mut self, orbits_pruned: u64) -> ProofStats {
        self.orbits_pruned = orbits_pruned;
        self
    }

    /// Returns a copy with the given batched-bytecode execution counters.
    pub fn with_batch_counters(
        mut self,
        batches: u64,
        batch_fallbacks: u64,
        instrs_executed: u64,
    ) -> ProofStats {
        self.batches = batches;
        self.batch_fallbacks = batch_fallbacks;
        self.instrs_executed = instrs_executed;
        self
    }

    /// Merges another set of statistics into this one (summing counters and
    /// times, concatenating errors, keeping the "stronger" prover label).
    pub fn merge(&mut self, other: &ProofStats) {
        self.models_checked += other.models_checked;
        self.orbits_pruned += other.orbits_pruned;
        self.elapsed += other.elapsed;
        self.cache_hits += other.cache_hits;
        self.batches += other.batches;
        self.batch_fallbacks += other.batch_fallbacks;
        self.instrs_executed += other.instrs_executed;
        self.errors.extend(other.errors.iter().cloned());
        if other.prover > self.prover {
            self.prover = other.prover;
        }
    }
}

impl Default for ProofStats {
    fn default() -> Self {
        ProofStats::none()
    }
}

impl fmt::Display for ProofStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} models, {:.3}s)",
            self.prover,
            self.models_checked,
            self.elapsed.as_secs_f64()
        )?;
        if self.orbits_pruned > 0 {
            write!(f, " [{} orbit-pruned]", self.orbits_pruned)?;
        }
        if !self.errors.is_empty() {
            write!(f, " [{} non-fatal error(s)]", self.errors.len())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_prover() {
        assert_eq!(
            ProofStats::structural(Duration::ZERO).prover,
            ProverChoice::Structural
        );
        assert_eq!(ProofStats::finite(5, Duration::ZERO).models_checked, 5);
        assert_eq!(ProofStats::none().prover, ProverChoice::None);
        assert_eq!(ProofStats::default(), ProofStats::none());
    }

    #[test]
    fn merge_sums_counters() {
        let mut a = ProofStats::structural(Duration::from_millis(10));
        let b = ProofStats::finite(100, Duration::from_millis(20)).with_orbits_pruned(7);
        a.merge(&b);
        assert_eq!(a.models_checked, 100);
        assert_eq!(a.orbits_pruned, 7);
        assert_eq!(a.elapsed, Duration::from_millis(30));
        assert_eq!(a.prover, ProverChoice::FiniteModel);
        a.merge(&ProofStats::finite(1, Duration::ZERO).with_orbits_pruned(3));
        assert_eq!(a.orbits_pruned, 10);
        a.merge(&ProofStats::finite(0, Duration::ZERO).with_batch_counters(2, 5, 900));
        a.merge(&ProofStats::finite(0, Duration::ZERO).with_batch_counters(1, 0, 100));
        assert_eq!(
            (a.batches, a.batch_fallbacks, a.instrs_executed),
            (3, 5, 1000)
        );
    }

    #[test]
    fn display_mentions_pruning_only_when_present() {
        assert!(!ProofStats::finite(1, Duration::ZERO)
            .to_string()
            .contains("orbit-pruned"));
        assert!(ProofStats::finite(1, Duration::ZERO)
            .with_orbits_pruned(4)
            .to_string()
            .contains("4 orbit-pruned"));
    }

    #[test]
    fn display_mentions_prover_and_counts() {
        let s = ProofStats::finite(42, Duration::from_millis(1)).to_string();
        assert!(s.contains("finite-model"));
        assert!(s.contains("42"));
    }

    #[test]
    fn merge_concatenates_errors_and_display_counts_them() {
        let mut a =
            ProofStats::finite(1, Duration::ZERO).with_errors(vec!["worker 1 failed".into()]);
        let b = ProofStats::finite(2, Duration::ZERO).with_errors(vec!["worker 3 failed".into()]);
        a.merge(&b);
        assert_eq!(a.errors.len(), 2);
        assert!(a.to_string().contains("2 non-fatal error(s)"));
    }
}
