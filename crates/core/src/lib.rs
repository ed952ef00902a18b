//! Verification of semantic commutativity conditions and inverse operations —
//! the core of the `semcommute` reproduction.
//!
//! This crate implements the contribution of the paper ("Verification of
//! Semantic Commutativity Conditions and Inverse Operations on Linked Data
//! Structures", PLDI 2011):
//!
//! * **Operation variants** ([`variant`]) — every state-updating operation
//!   that returns a value exists in a *recorded* and a *discarded* variant,
//!   exactly as in the paper's counting (6 operations for the set interface,
//!   7 for the map interface, 9 for ArrayList, 2 for Accumulator).
//! * **Commutativity conditions** ([`condition`], [`catalog`]) — the full
//!   catalog of 765 developer-specified conditions (before / between / after,
//!   for every ordered pair of operation variants of every interface),
//!   expressed as formulas over the abstract state, the operation arguments,
//!   and the return values.
//! * **Testing methods** ([`method`], [`template`], [`render`]) — the
//!   automatically generated soundness and completeness commutativity testing
//!   methods (Figures 2-2, 3-1) and inverse testing methods (Figures 2-3,
//!   2-4, 3-2), together with a Jahob/Java-like renderer used to reproduce
//!   the paper's figures.
//! * **Verification** ([`vcgen`], [`verify`]) — symbolic execution of the
//!   testing methods into proof obligations and a driver that discharges them
//!   with the `semcommute-prover` portfolio, reproducing the counts and
//!   timing shape of Tables 5.8 and 5.9.
//! * **Inverse operations** ([`inverse`]) — the Table 5.10 inverse catalog,
//!   its verification, and the executable form used by speculative systems to
//!   roll back operations.
//! * **Proof hints** ([`hints`]) — the `note` / `assuming` / `pickWitness`
//!   commands attached to the hard ArrayList methods (Table 5.9).
//! * **Runtime forms** ([`runtime_form`]) — the set and map between
//!   conditions with each first-operation state query replaced by the
//!   recorded result `r1`, every rewrite paired with a verified equivalence
//!   obligation; the form the speculative runtime's gatekeeper evaluates.
//! * **Dynamic checking** ([`concrete`], [`report`]) — evaluation of the
//!   conditions at run time against concrete data structure states, and the
//!   concrete-syntax rendering used in the right-hand columns of Tables
//!   5.1–5.7.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod concrete;
pub mod condition;
pub mod hints;
pub mod inverse;
pub mod kind;
pub mod method;
pub mod render;
pub mod report;
pub mod runtime_form;
pub mod template;
pub mod variant;
pub mod vcgen;
pub mod verify;

pub use catalog::{full_catalog, interface_catalog};
pub use condition::{names, CommutativityCondition};
pub use inverse::{inverse_catalog, InverseOperation};
pub use kind::ConditionKind;
pub use method::{CallStmt, PreMode, Stmt, TestingMethod};
pub use variant::{interface_variants, OpVariant};
pub use verify::{
    verify_catalog, verify_condition, verify_interface, CatalogReport, ConditionReport,
    InterfaceReport,
};
