//! Specification logic for the `semcommute` verification system.
//!
//! This crate provides the typed first-order specification language in which
//! data structure interfaces, commutativity conditions, and inverse operations
//! are expressed. It plays the role of the Jahob specification language in the
//! original paper ("Verification of Semantic Commutativity Conditions and
//! Inverse Operations on Linked Data Structures", PLDI 2011): operation
//! preconditions and postconditions, the 765 commutativity conditions, and the
//! proof obligations generated from the testing-method templates are all terms
//! of this logic.
//!
//! The logic is first order and multi-sorted. Sorts ([`Sort`]) cover the
//! abstract states of every data structure in the paper:
//!
//! * `Bool`, `Int` — booleans and mathematical integers,
//! * `Elem` — opaque object identities (with a distinguished `null`),
//! * `Set` — finite sets of non-null elements (ListSet / HashSet contents),
//! * `Map` — finite partial maps from elements to elements (AssociationList /
//!   HashTable contents),
//! * `Seq` — finite sequences of elements (ArrayList contents).
//!
//! Terms ([`Term`]) include the update and query algebra used by the
//! specifications (`s ∪ {v}`, `s \ {v}`, `v ∈ s`, `|s|`, `m[k := v]`,
//! `m.get(k)`, `insert_at`, `index_of`, …), boolean connectives, linear integer
//! arithmetic, polymorphic equality, and bounded integer quantifiers (used by
//! the ArrayList `index_of` / `last_index_of` specifications).
//!
//! Concrete semantics are given by [`Value`] and [`eval::eval`]: a [`Model`]
//! assigns values to free variables and a term evaluates to a value. The
//! prover crate decides validity of obligations by searching for
//! counter-models with this evaluator.
//!
//! # Example
//!
//! ```
//! use semcommute_logic::{build::*, Model, Value, ElemId, eval};
//!
//! // v1 != v2  |  v1 in s     (the between condition for contains(v1)/add(v2))
//! let cond = or2(
//!     not(eq(var_elem("v1"), var_elem("v2"))),
//!     member(var_elem("v1"), var_set("s")),
//! );
//! let mut m = Model::new();
//! m.insert("v1", Value::elem(1));
//! m.insert("v2", Value::elem(2));
//! m.insert("s", Value::set_of([ElemId(7)]));
//! assert_eq!(eval::eval_bool(&cond, &m).unwrap(), true);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod build;
pub mod eval;
pub mod model;
pub mod pretty;
pub mod pvalue;
pub mod simplify;
pub mod sort;
pub mod subst;
pub mod term;
pub mod ty;
pub mod value;

pub use eval::{eval, eval_bool, EvalError};
pub use model::Model;
pub use pvalue::{PMap, PSeq, PSet};
pub use simplify::simplify;
pub use sort::Sort;
pub use subst::{free_vars, rename_vars, substitute};
pub use term::{structural_hash, Term, Var};
pub use ty::{sort_of, SortError};
pub use value::{ElemId, Value, NULL_ELEM};

/// A no-op stand-in for the retired thread-local term arena: terms are plain
/// trees, so there is nothing to reset. Kept for the benchmark harness's
/// `with_arena(|arena| arena.clear())` calls, `perfbench/src/verify.rs:133, :386`.
#[doc(hidden)]
pub fn with_arena<R>(f: impl FnOnce(&mut RetiredArena) -> R) -> R {
    f(&mut RetiredArena)
}
#[doc(hidden)]
pub struct RetiredArena;
impl RetiredArena {
    /// Does nothing.
    pub fn clear(&mut self) {}
}
