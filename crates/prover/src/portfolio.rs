//! The prover portfolio: structural prover first, finite-model prover second,
//! with a sharded obligation dedup cache in front of both.
//!
//! This mirrors the paper's "integrated reasoning" architecture, in which an
//! obligation is dispatched to a collection of cooperating reasoning systems
//! and the first conclusive answer wins.
//!
//! The catalog's generated testing methods produce many obligations that are
//! canonically identical (the same formula modulo already-performed
//! simplification). The portfolio therefore keys every verdict by the
//! 128-bit structural hash of the *simplified* obligation (definitions,
//! hypotheses, goal), mixed with the scope, and answers repeats from the
//! cache. The cache is sharded by `key % N_SHARDS` ([`VerdictCache`]) and
//! shared between clones of the portfolio — the verification scheduler
//! runs one portfolio clone per worker, so a verdict computed on any worker
//! is reused by all of them without funnelling every lookup through a
//! single lock.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};

use semcommute_logic::{simplify, structural_hash};

use crate::finite::{FiniteModelProver, ModelSearch};
use crate::obligation::Obligation;
use crate::scope::Scope;
use crate::stats::ProofStats;
use crate::structural::prove_structural;
use crate::verdict::Verdict;

/// Number of shards in a [`VerdictCache`]. Sixteen keeps the per-shard lock
/// essentially uncontended for the worker counts the scheduler runs with
/// (the canonical hash is uniform, so shard collisions between concurrent
/// workers are rare) while staying cheap to aggregate over.
pub const N_SHARDS: usize = 16;

/// A sharded map from canonical obligation keys to verdicts.
///
/// Shard `i` holds the keys with `key % N_SHARDS == i`, each behind its own
/// mutex, so concurrent workers publishing and consuming verdicts only
/// contend when their obligations actually land in the same shard. Clones
/// share the underlying shards.
#[derive(Debug, Clone, Default)]
pub struct VerdictCache {
    shards: Arc<[Mutex<HashMap<u128, Verdict>>; N_SHARDS]>,
}

impl VerdictCache {
    /// Creates an empty cache.
    pub fn new() -> VerdictCache {
        VerdictCache::default()
    }

    fn shard(&self, key: u128) -> &Mutex<HashMap<u128, Verdict>> {
        &self.shards[(key % N_SHARDS as u128) as usize]
    }

    /// Looks up the verdict cached under `key`.
    pub fn get(&self, key: u128) -> Option<Verdict> {
        self.shard(key)
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .get(&key)
            .cloned()
    }

    /// Publishes a verdict under `key` (first writer wins; canonically equal
    /// obligations have equal verdicts, so racing writers are harmless).
    pub fn insert(&self, key: u128, verdict: Verdict) {
        self.shard(key)
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .entry(key)
            .or_insert(verdict);
    }

    /// Number of verdicts currently held, summed over all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|p| p.into_inner()).len())
            .sum()
    }

    /// `true` when no verdict is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The combined prover: structural reasoning first, exhaustive finite-model
/// search second, with a canonical-hash verdict cache in front of both.
///
/// Clones share the verdict cache, so one `Portfolio` per worker thread is
/// the intended usage pattern (see [`crate::queue`]).
///
/// # Example
///
/// ```
/// use semcommute_logic::build::*;
/// use semcommute_prover::{Obligation, Portfolio};
///
/// // r = (v in s), s' = s Un {v}  |-  v in s'
/// let ob = Obligation::new("add_establishes_membership")
///     .define("r", member(var_elem("v"), var_set("s")))
///     .define("s_post", set_add(var_set("s"), var_elem("v")))
///     .goal(member(var_elem("v"), var_set("s_post")));
///
/// let portfolio = Portfolio::standard();
/// assert!(portfolio.prove(&ob).is_valid());
///
/// // A canonically identical obligation is answered from the cache.
/// let verdict = portfolio.prove(&ob);
/// assert!(verdict.is_valid());
/// assert_eq!(verdict.stats().cache_hits, 1);
/// ```
#[derive(Debug, Clone)]
pub struct Portfolio {
    scope: Scope,
    /// Canonical obligation key → verdict, sharded, shared across clones.
    cache: VerdictCache,
}

/// The outcome of [`Portfolio::start_keyed`]: either a verdict that needed
/// no model search, or a prepared [`ModelSearch`] the caller drives — whole
/// ([`ModelSearch::run`]) or split into range tasks
/// ([`ModelSearch::run_range`]).
#[derive(Debug)]
pub enum Started {
    /// The shared verdict cache already held the answer (returned with
    /// zeroed work counters and `cache_hits = 1`, as [`Portfolio::prove`]
    /// reports a hit). Not re-published.
    Cached(Verdict),
    /// Decided without a model search (structural proof, malformed
    /// obligation, or a space over budget). The caller publishes via
    /// [`Portfolio::publish_keyed`].
    Decided(Verdict),
    /// A finite-model search is required; the caller runs it and publishes
    /// the finalized verdict via [`Portfolio::publish_keyed`]. Boxed: a
    /// prepared search (lowered bytecode program, enumeration tables) is an
    /// order of magnitude larger than a verdict,
    /// and this variant is the rare one — most obligations are answered by
    /// the cache or the structural prover.
    Search(Box<ModelSearch>),
}

impl Default for Portfolio {
    fn default() -> Self {
        Portfolio::standard()
    }
}

impl Portfolio {
    /// Creates a portfolio with the given scope.
    pub fn new(scope: Scope) -> Portfolio {
        Portfolio {
            scope,
            cache: VerdictCache::new(),
        }
    }

    /// Creates a portfolio with the standard scope.
    pub fn standard() -> Portfolio {
        Portfolio::new(Scope::standard())
    }

    /// Creates a portfolio with the small (test) scope.
    pub fn small() -> Portfolio {
        Portfolio::new(Scope::small())
    }

    /// The scope used by the finite-model back-end.
    pub fn scope(&self) -> &Scope {
        &self.scope
    }

    /// Replaces the scope. Cached verdicts stay usable: the scope is part of
    /// every canonical key, so verdicts computed under the old scope can
    /// never answer obligations proved under the new one.
    pub fn with_scope(mut self, scope: Scope) -> Portfolio {
        self.scope = scope;
        self
    }

    /// The portfolio's dedup cache (shared with clones).
    pub fn cache(&self) -> &VerdictCache {
        &self.cache
    }

    /// Number of verdicts currently held by the dedup cache.
    pub fn cached_verdicts(&self) -> usize {
        self.cache.len()
    }

    /// The canonical cache key of an obligation: the scope fingerprint mixed
    /// with a hash of each definition's name and the structural hash of
    /// each simplified definition, hypothesis, and goal. None of the hashes
    /// is seeded per process or per thread, so a key computed by the
    /// scheduler on one worker addresses the same verdict everywhere.
    /// Thread count and split granularity are deliberately *not* part of the
    /// key: the range-split model search reports exactly the sequential
    /// scan's verdict (the minimum-position deciding event), so verdicts are
    /// shareable across every scheduling configuration.
    pub fn canonical_key(&self, ob: &Obligation) -> u128 {
        use crate::scope::mix128 as mix;
        let mut key: u128 = 0x9E37_79B9_7F4A_7C15_F39C_C060_5CED_C834;
        key = mix(key, self.scope.fingerprint());
        for (name, term) in &ob.defines {
            let mut name_hash = DefaultHasher::new();
            name.hash(&mut name_hash);
            key = mix(key, u128::from(name_hash.finish()));
            key = mix(key, structural_hash(&simplify(term)));
        }
        for part in ob.hypotheses.iter().chain([&ob.goal]) {
            key = mix(key, structural_hash(&simplify(part)));
        }
        key
    }

    /// Attempts to prove an obligation.
    ///
    /// Canonically identical obligations are answered from the shared dedup
    /// cache; the cached verdict is returned with zeroed work counters and
    /// `cache_hits = 1` so accumulated statistics stay meaningful.
    pub fn prove(&self, ob: &Obligation) -> Verdict {
        self.prove_keyed(self.canonical_key(ob), ob)
    }

    /// Attempts to prove an obligation whose canonical key the caller has
    /// already computed (the obligation scheduler keys every obligation once
    /// while deduplicating the work queue, so re-hashing here would be
    /// wasted work). `key` must come from [`Portfolio::canonical_key`] on a
    /// portfolio with the same scope.
    pub fn prove_keyed(&self, key: u128, ob: &Obligation) -> Verdict {
        match self.start_keyed(key, ob) {
            Started::Cached(verdict) => verdict,
            Started::Decided(verdict) => {
                self.publish_keyed(key, &verdict);
                verdict
            }
            Started::Search(search) => {
                let verdict = search.run();
                self.publish_keyed(key, &verdict);
                verdict
            }
        }
    }

    /// Starts proving a keyed obligation without committing to running a
    /// required model search on the calling thread: consults the shared
    /// cache and the structural prover, prepares the finite-model search
    /// otherwise. This is the scheduler's entry point for making one large
    /// obligation *splittable* — on [`Started::Search`] it turns the
    /// returned [`ModelSearch`] into stealable range tasks instead of
    /// calling [`ModelSearch::run`]. Callers must publish non-cached
    /// verdicts via [`Portfolio::publish_keyed`];
    /// [`Portfolio::prove_keyed`] is the run-it-here composition of the two.
    pub fn start_keyed(&self, key: u128, ob: &Obligation) -> Started {
        if let Some(verdict) = self.cache.get(key) {
            let mut hit = verdict;
            let prover = hit.stats().prover;
            *hit.stats_mut() = ProofStats {
                prover,
                cache_hits: 1,
                ..ProofStats::none()
            };
            return Started::Cached(hit);
        }
        if let Some(stats) = prove_structural(ob) {
            return Started::Decided(Verdict::Valid { stats });
        }
        match FiniteModelProver::new(self.scope.clone()).begin(ob) {
            Err(verdict) => Started::Decided(verdict),
            Ok(search) => Started::Search(Box::new(search)),
        }
    }

    /// Publishes a verdict computed for [`Started::Decided`] or
    /// [`Started::Search`] into the shared dedup cache (first writer wins).
    pub fn publish_keyed(&self, key: u128, verdict: &Verdict) {
        self.cache.insert(key, verdict.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::ProverChoice;
    use semcommute_logic::build::*;

    fn add_add_obligation() -> Obligation {
        Obligation::new("add_add")
            .define(
                "s1",
                set_add(set_add(var_set("s"), var_elem("v1")), var_elem("v2")),
            )
            .define(
                "s2",
                set_add(set_add(var_set("s"), var_elem("v2")), var_elem("v1")),
            )
            .goal(eq(var_set("s1"), var_set("s2")))
    }

    #[test]
    fn structural_obligations_avoid_model_search() {
        let verdict = Portfolio::small().prove(&add_add_obligation());
        assert!(verdict.is_valid());
        assert_eq!(verdict.stats().prover, ProverChoice::Structural);
        assert_eq!(verdict.stats().models_checked, 0);
    }

    #[test]
    fn finite_model_alone_still_valid_but_slower() {
        let verdict = FiniteModelProver::new(Scope::small()).prove(&add_add_obligation());
        assert!(verdict.is_valid());
        assert_eq!(verdict.stats().prover, ProverChoice::FiniteModel);
        assert!(verdict.stats().models_checked > 0);
    }

    #[test]
    fn structural_only_reports_unknown_when_undecided() {
        let ob = Obligation::new("needs_models").goal(member(var_elem("v"), var_set("s")));
        assert!(prove_structural(&ob).is_none());
    }

    #[test]
    fn counterexamples_pass_through() {
        let ob = Obligation::new("bogus").goal(member(var_elem("v"), var_set("s")));
        let verdict = Portfolio::small().prove(&ob);
        assert!(verdict.is_counterexample());
    }

    #[test]
    fn with_scope_changes_budget() {
        let p = Portfolio::small().with_scope(Scope::small().with_max_models(1));
        let ob = Obligation::new("budget").goal(eq(var_map("m"), var_map("n")));
        assert!(p.prove(&ob).is_unknown());
    }

    #[test]
    fn canonically_identical_obligations_hit_the_cache() {
        let p = Portfolio::small();
        let first = p.prove(&add_add_obligation());
        assert!(first.is_valid());
        assert_eq!(first.stats().cache_hits, 0);
        // Same obligation under a different name: same canonical form.
        let mut renamed = add_add_obligation();
        renamed.name = "another_name".to_string();
        let second = p.prove(&renamed);
        assert!(second.is_valid());
        assert_eq!(second.stats().cache_hits, 1);
        assert_eq!(second.stats().models_checked, 0);
        assert_eq!(p.cached_verdicts(), 1);
        // Clones share the cache.
        let clone = p.clone();
        let third = clone.prove(&add_add_obligation());
        assert_eq!(third.stats().cache_hits, 1);
    }

    #[test]
    fn cache_distinguishes_different_obligations() {
        let p = Portfolio::small();
        let valid = p.prove(&add_add_obligation());
        let bogus = p.prove(&Obligation::new("bogus").goal(member(var_elem("v"), var_set("s"))));
        assert!(valid.is_valid());
        assert!(bogus.is_counterexample());
        assert_eq!(p.cached_verdicts(), 2);
    }

    #[test]
    fn canonical_key_depends_on_scope() {
        let ob = add_add_obligation();
        let small = Portfolio::small();
        assert_eq!(small.canonical_key(&ob), small.canonical_key(&ob));
        assert_ne!(
            small.canonical_key(&ob),
            Portfolio::standard().canonical_key(&ob)
        );
        // ... so one shared cache can safely serve differently-scoped
        // portfolios: a tiny-budget Unknown never answers the real scope.
        let real = Portfolio::small();
        let starved = real.clone().with_scope(Scope::small().with_max_models(1));
        let ob = Obligation::new("m").goal(eq(var_map("m"), var_map("n")));
        assert!(starved.prove(&ob).is_unknown());
        assert!(real.prove(&ob).is_counterexample());
        assert_eq!(real.cached_verdicts(), 2);
    }

    #[test]
    fn shared_cache_is_shared_and_sharded() {
        let a = Portfolio::small();
        assert!(a.cache().is_empty());
        let b = a.clone();
        let first = a.prove(&add_add_obligation());
        assert_eq!(first.stats().cache_hits, 0);
        let second = b.prove(&add_add_obligation());
        assert_eq!(second.stats().cache_hits, 1);
        // Distinct obligations spread over the shards but stay countable.
        for i in 0..8 {
            let ob = Obligation::new("n").goal(eq(var_int("x"), int(i)));
            b.prove(&ob);
        }
        assert_eq!(a.cache().len(), 9);
    }

    #[test]
    fn prove_keyed_skips_rehashing_but_matches_prove() {
        let p = Portfolio::small();
        let ob = add_add_obligation();
        let key = p.canonical_key(&ob);
        let keyed = p.prove_keyed(key, &ob);
        assert!(keyed.is_valid());
        assert_eq!(p.prove(&ob).stats().cache_hits, 1);
    }
}
