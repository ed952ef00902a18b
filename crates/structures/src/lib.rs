//! Concrete linked data structure implementations for `semcommute`.
//!
//! The paper verifies commutativity conditions and inverse operations against
//! the *abstract* state of fully verified linked data structure
//! implementations (Jahob-verified Java classes). This crate provides the
//! corresponding Rust implementations of all six structures evaluated in the
//! paper:
//!
//! | Interface   | Implementations                      | Representation |
//! |-------------|--------------------------------------|----------------|
//! | Accumulator | [`Accumulator`]                      | integer counter |
//! | Set         | [`ListSet`], [`HashSet`]             | singly-linked list; separately chained hash table |
//! | Map         | [`AssociationList`], [`HashTable`]   | singly-linked list of pairs; separately chained hash table |
//! | ArrayList   | [`ArrayList`]                        | growable array |
//!
//! Each implementation exposes:
//!
//! * the operations of its interface with the paper's semantics (including
//!   the return values the inverse operations rely on),
//! * an **abstraction function** ([`Abstraction::abstract_state`]) mapping the
//!   concrete representation to the abstract state used by the specifications
//!   and commutativity conditions, and
//! * a **representation invariant** check ([`Abstraction::check_invariants`]).
//!
//! In the paper the correspondence between implementation and specification is
//! established by full functional verification in Jahob. Here the
//! correspondence is established by exhaustive property-based conformance
//! testing against the executable abstract semantics of `semcommute-spec`
//! (see `tests/` in this crate and the workspace integration tests).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accumulator;
pub mod array_list;
pub mod assoc_list;
pub mod conformance;
pub mod hash_set;
pub mod hash_table;
pub mod list_set;
pub mod traits;

pub use accumulator::Accumulator;
pub use array_list::ArrayList;
pub use assoc_list::AssociationList;
pub use hash_set::HashSet;
pub use hash_table::HashTable;
pub use list_set::ListSet;
pub use traits::{Abstraction, ListInterface, MapInterface, SetInterface};
