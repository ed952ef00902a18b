//! `semcommute` — verification of semantic commutativity conditions and
//! inverse operations on linked data structures.
//!
//! This crate is the facade of the workspace reproducing the PLDI 2011 paper
//! "Verification of Semantic Commutativity Conditions and Inverse Operations
//! on Linked Data Structures". It re-exports the member crates:
//!
//! * [`logic`] — the specification logic (terms, values, evaluation),
//! * [`prover`] — proof obligations, the prover portfolio with its verdict
//!   cache, and the obligation scheduler,
//! * [`spec`] — abstract states and the four interface specifications,
//! * [`structures`] — the six concrete linked data structures,
//! * [`core`] — commutativity conditions, testing methods, verification,
//!   and inverse operations (the paper's contribution),
//! * [`runtime`] — the speculative-execution runtime that consumes the
//!   verified conditions and inverses.
//!
//! # Quick start
//!
//! Verify that `contains(v1)` and `add(v2)` commute exactly when
//! `v1 ≠ v2 ∨ v1 ∈ s`:
//!
//! ```
//! use semcommute::core::{interface_catalog, verify_condition, ConditionKind};
//! use semcommute::prover::{Portfolio, Scope};
//! use semcommute::spec::InterfaceId;
//!
//! let condition = interface_catalog(InterfaceId::Set)
//!     .into_iter()
//!     .find(|c| {
//!         c.first.op == "contains" && c.second.op == "add" && c.kind == ConditionKind::Between
//!     })
//!     .unwrap();
//! let report = verify_condition(&condition, &Portfolio::new(Scope::small()), 40);
//! assert!(report.verified());
//! ```

#![forbid(unsafe_code)]

pub use semcommute_core as core;
pub use semcommute_logic as logic;
pub use semcommute_prover as prover;
pub use semcommute_runtime as runtime;
pub use semcommute_spec as spec;
pub use semcommute_structures as structures;
