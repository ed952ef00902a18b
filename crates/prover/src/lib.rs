//! Proof obligations and decision procedures for the `semcommute` verifier.
//!
//! This crate plays the role of Jahob's "integrated reasoning" back-end in the
//! original paper: the commutativity / inverse testing methods are symbolically
//! executed (by `semcommute-core`) into [`Obligation`]s, and this crate decides
//! them. Two cooperating provers are provided, mirroring the paper's portfolio
//! of reasoning systems:
//!
//! * a **structural prover** ([`structural`]) that inlines the functional
//!   definitions produced by symbolic execution, normalizes set/sequence update
//!   chains, and simplifies — it discharges the obligations that are valid for
//!   purely algebraic reasons (a large part of the catalog), and
//! * a **finite-model prover** ([`finite`]) that exhaustively searches for a
//!   counter-model over a *relevant universe* derived from the obligation
//!   ([`scope`], [`space`]). A counter-model it finds is real; its "valid"
//!   means no counter-model within the scope, for every fragment (the
//!   universe, collection sizes, sequence lengths and integers are all
//!   bounded), while the structural prover's verdicts are unbounded. The
//!   sequence length is an explicit, reported scope parameter (the analog of
//!   the paper's observation that ArrayList obligations need extra help). The
//!   search space is doubly
//!   symmetry-reduced: element variables are assigned partition patterns, and
//!   collection-valued inputs are enumerated orbit-canonically under
//!   permutations of the anonymous padding elements ([`orbit`]). Each
//!   searched obligation is lowered once, straight from its terms, to a flat
//!   register program ([`bytecode`]) that evaluates blocks of candidates at
//!   a time; `logic::eval` stays the reference it is tested against
//!   ([`FiniteModelProver::replay`]).
//!
//! The [`portfolio`] module combines the two (structural first, then
//! finite-model) behind a sharded canonical-hash verdict cache, [`queue`]
//! drains batches of obligations with work-stealing workers addressing that
//! cache, and [`hints`] implements the three Jahob proof-language commands
//! the paper uses for the 57 hard ArrayList methods: `note`, `assuming`, and
//! `pickWitness`.
//!
//! # Example
//!
//! ```
//! use semcommute_logic::build::*;
//! use semcommute_prover::{Obligation, Portfolio};
//!
//! // hypotheses: r = (v2 in s),  s' = s Un {v2}
//! // goal:       v2 in s'
//! let ob = Obligation::new("add_establishes_membership")
//!     .define("r", member(var_elem("v2"), var_set("s")))
//!     .define("s_post", set_add(var_set("s"), var_elem("v2")))
//!     .goal(member(var_elem("v2"), var_set("s_post")));
//! let verdict = Portfolio::default().prove(&ob);
//! assert!(verdict.is_valid());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bytecode;
pub mod finite;
pub mod hints;
pub mod obligation;
pub mod orbit;
pub mod portfolio;
pub mod queue;
pub mod scope;
pub mod space;
pub mod stats;
pub mod structural;
pub mod verdict;

pub use bytecode::Program;
pub use finite::{FiniteModelProver, ModelSearch, Replayer, SearchOutcome, SearchShared};
pub use hints::{apply_hints, Hint};
pub use obligation::Obligation;
pub use portfolio::{Portfolio, Started, VerdictCache};
pub use queue::{ExitGuard, QueueReport, QueueRun, ScheduledObligation};
pub use scope::Scope;
pub use space::InputSpace;
pub use stats::ProofStats;
pub use stats::ProverChoice;
pub use verdict::Verdict;
