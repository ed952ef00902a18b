//! Scope (bound) configuration for the finite-model prover.

use std::sync::OnceLock;

/// The process-wide default for [`Scope::orbit`]: `true` (orbit-canonical
/// enumeration) unless the `SEMCOMMUTE_ORBIT` environment variable is set to
/// `off`, `0`, or `false` when first consulted.
///
/// The env override exists for the CI oracle leg: running the *whole* test
/// suite with the unreduced enumerator as the default is the cheapest way to
/// re-validate every scope-dependent test against the enumeration the orbit
/// reduction is proved equivalent to. Tests that pin exact
/// `models_checked` / `orbits_pruned` counts set the flag explicitly via
/// [`Scope::with_orbit`] instead of relying on this default.
pub fn default_orbit() -> bool {
    static DEFAULT: OnceLock<bool> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        !matches!(
            std::env::var("SEMCOMMUTE_ORBIT").ok().as_deref(),
            Some("off" | "0" | "false")
        )
    })
}

/// The 128-bit mixing step shared by [`Scope::fingerprint`] and the
/// portfolio's canonical obligation keys (an FNV-style multiply-xor fold);
/// keeping one definition guarantees the two stay in lockstep.
pub(crate) fn mix128(h: u128, x: u128) -> u128 {
    (h ^ x).wrapping_mul(0x0000_0000_0100_0000_0000_0000_0000_013B) ^ (h >> 61)
}

/// Bounds for the finite-model search.
///
/// The search universe is the obligation's named element variables plus a
/// small number of anonymous "padding" elements, with collections holding
/// at most a few entries. The scope records those paddings, plus the
/// sequence-length and integer bounds. Every bound can decide a verdict: a
/// goal whose counter-models all need more (`card(s) <= 4` needs a
/// five-element set) comes back valid, so a finite-model `Valid` means "no
/// counter-model within this scope".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scope {
    /// Number of anonymous elements added to the universe beyond the named
    /// element variables of the obligation.
    pub elem_padding: usize,
    /// Maximum number of entries enumerated for set- and map-valued input
    /// variables (named elements always fit; this bounds anonymous content).
    pub max_collection_entries: usize,
    /// Maximum length enumerated for sequence-valued input variables.
    pub max_seq_len: usize,
    /// Inclusive lower bound for integer-valued input variables that are not
    /// recognizable as sequence indices.
    pub int_min: i64,
    /// Inclusive upper bound for integer-valued input variables.
    pub int_max: i64,
    /// Upper bound on the number of candidate models examined before the
    /// prover gives up with an `Unknown` verdict. Guards against accidental
    /// combinatorial explosions; the driver reports when it is hit.
    pub max_models: u64,
    /// Whether the input space is enumerated orbit-canonically: under each
    /// partition pattern the anonymous padding elements are interchangeable,
    /// so collection-valued candidate tuples are emitted only in the
    /// lex-least form under permutations of the padding block (see
    /// `prover::orbit`). `false` selects the unreduced enumerator — the
    /// oracle the differential soundness harness compares against.
    ///
    /// Candidate *positions* (the indices the scheduler's splittable range
    /// tasks and the minimum-position early-exit guard are defined over)
    /// always count the **unreduced** enumeration, in both modes — which is
    /// why split granularity and thread count never enter this fingerprint:
    /// they cannot change any verdict.
    pub orbit: bool,
}

impl Scope {
    /// The default verification scope used by the catalog driver.
    pub fn standard() -> Scope {
        Scope {
            elem_padding: 2,
            max_collection_entries: 4,
            max_seq_len: 4,
            int_min: -2,
            int_max: 5,
            max_models: 50_000_000,
            orbit: default_orbit(),
        }
    }

    /// A small scope for fast unit tests and counterexample demos.
    pub fn small() -> Scope {
        Scope {
            elem_padding: 1,
            max_collection_entries: 3,
            max_seq_len: 3,
            int_min: -1,
            int_max: 4,
            max_models: 5_000_000,
            orbit: default_orbit(),
        }
    }

    /// A scope tuned for sequence-heavy (ArrayList) obligations: same element
    /// padding as [`Scope::standard`] but integer bounds wide enough to cover
    /// every index position of a maximal sequence plus one out-of-range value
    /// on each side.
    pub fn sequences(max_seq_len: usize) -> Scope {
        Scope {
            elem_padding: 2,
            max_collection_entries: max_seq_len,
            max_seq_len,
            int_min: -1,
            int_max: max_seq_len as i64 + 1,
            max_models: 200_000_000,
            orbit: default_orbit(),
        }
    }

    /// Returns a copy with a different model budget.
    pub fn with_max_models(mut self, max_models: u64) -> Scope {
        self.max_models = max_models;
        self
    }

    /// Returns a copy with orbit-canonical enumeration switched on or off.
    pub fn with_orbit(mut self, orbit: bool) -> Scope {
        self.orbit = orbit;
        self
    }

    /// A 128-bit fingerprint of every bound in the scope.
    ///
    /// A finite-model verdict is only meaningful relative to the scope it was
    /// searched under, so the portfolio mixes this fingerprint into the
    /// canonical cache key of every obligation. That makes one
    /// verdict cache safely shareable between portfolios with different
    /// scopes (the global obligation scheduler proves all four interfaces,
    /// under two different scopes, against a single cache).
    pub fn fingerprint(&self) -> u128 {
        let mut h: u128 = 0x6A09_E667_F3BC_C908_B2FB_1366_EA95_7D3E;
        h = mix128(h, self.elem_padding as u128);
        h = mix128(h, self.max_collection_entries as u128);
        h = mix128(h, self.max_seq_len as u128);
        h = mix128(h, self.int_min as u128);
        h = mix128(h, self.int_max as u128);
        h = mix128(h, self.max_models as u128);
        // Orbit-reduced and unreduced searches check different candidate
        // sets, so their verdicts can legitimately differ on obligations
        // with input-dependent evaluation errors (an error at a pruned,
        // non-canonical candidate). The enumerator choice is therefore part
        // of the fingerprint, and cached verdicts never cross the two modes.
        h = mix128(h, self.orbit as u128);
        h
    }
}

impl Default for Scope {
    fn default() -> Self {
        Scope::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_standard() {
        assert_eq!(Scope::default(), Scope::standard());
    }

    #[test]
    fn small_is_smaller_than_standard() {
        let s = Scope::small();
        let d = Scope::standard();
        assert!(s.elem_padding <= d.elem_padding);
        assert!(s.max_collection_entries <= d.max_collection_entries);
        assert!(s.max_seq_len <= d.max_seq_len);
        assert!(s.max_models <= d.max_models);
    }

    #[test]
    fn sequences_scope_covers_all_indices() {
        let s = Scope::sequences(5);
        assert_eq!(s.max_seq_len, 5);
        assert!(s.int_min <= -1);
        assert!(s.int_max >= 6);
    }

    #[test]
    fn builders_adjust_fields() {
        let s = Scope::small().with_max_models(10);
        assert_eq!(s.max_models, 10);
    }

    #[test]
    fn fingerprint_distinguishes_scopes() {
        assert_eq!(Scope::small().fingerprint(), Scope::small().fingerprint());
        assert_ne!(
            Scope::small().fingerprint(),
            Scope::standard().fingerprint()
        );
        assert_ne!(
            Scope::small().fingerprint(),
            Scope::small().with_max_models(1).fingerprint()
        );
        assert_ne!(
            Scope::sequences(3).fingerprint(),
            Scope::sequences(4).fingerprint()
        );
    }

    #[test]
    fn fingerprint_distinguishes_orbit_modes() {
        let on = Scope::small().with_orbit(true);
        let off = Scope::small().with_orbit(false);
        assert_ne!(on.fingerprint(), off.fingerprint());
        assert_eq!(on.with_orbit(false), off);
    }
}
