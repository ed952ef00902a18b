//! Speculative-execution runtime built on the verified commutativity
//! conditions and inverse operations.
//!
//! Chapter 1 of the paper motivates the verified artifacts with optimistic
//! parallel systems (Galois-style irregular parallelism, transaction
//! monitors): such systems
//!
//! 1. dynamically detect whether a speculatively executed operation
//!    *semantically commutes* with the operations other in-flight
//!    transactions have already executed (using **between** commutativity
//!    conditions), and
//! 2. roll back the operations of an aborted transaction with **inverse
//!    operations**, which restore the abstract state without saving and
//!    restoring the whole structure.
//!
//! This crate implements that client system:
//!
//! * [`AnyStructure`] — a uniform handle over the six concrete data
//!   structures (dispatching operation names to the trait implementations and
//!   exposing the abstraction function and the projection of the abstract
//!   state onto given keys), wrapped by [`TrackedStructure`] to count state
//!   changes and, for sequences, maintain an O(1)-snapshottable persistent
//!   mirror of the abstract state,
//! * [`LogEntry`] — executed operations (arguments, recorded return
//!   values, sequence pre-state projections), kept per live transaction in an
//!   in-flight log split, like a set or map structure, into key stripes:
//!   each stripe's log shares its part of the structure's mutex, so
//!   admission, apply and logging happen at one instant,
//! * [`gatekeeper`] — the dynamic commutativity check driven by the verified
//!   between conditions, in their verified runtime forms, each compiled once
//!   per runtime to a flat register program (the one admission evaluator),
//! * [`SpeculativeRuntime`] / [`Transaction`] — optimistic transactions with
//!   commutativity-based conflict detection and inverse-based rollback,
//! * [`CoarseLockRuntime`] — the baseline that serializes whole transactions
//!   with one lock,
//! * [`rollback`] — inverse-based rollback (the paper's efficiency claim for
//!   inverse operations; the snapshot comparison's last readings are in
//!   `docs/PERF.md`) and rebuilding a structure from an abstract state,
//! * [`contention`] — the adaptive fallback: sliding-window abort accounting
//!   that degrades a hot structure to a coarse mutex section (and probes its
//!   way back) when the abort rate says speculation is losing, plus bounded
//!   jittered retry backoff, and
//! * [`fault`] — deterministic fault injection ([`FaultPlan`]) so the
//!   degradation, poisoning, and backoff recovery paths are drivable on
//!   demand in tests and benchmarks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod contention;
pub mod executor;
pub mod fault;
pub mod gatekeeper;
pub mod log;
pub mod rollback;
pub mod structure;

pub use baseline::CoarseLockRuntime;
pub use contention::{BackoffOptions, ContentionState, FallbackOptions, Mode, ModeGate};
pub use executor::{
    RetryReport, RuntimeOptions, RuntimeStats, SpeculativeRuntime, Transaction, TxnError,
};
pub use fault::{FaultKind, FaultPlan, FiredFault};
pub use gatekeeper::{AdmissionError, CommutativityGatekeeper, Conflict, PairCheck};
pub use log::LogEntry;
pub use rollback::InverseRollback;
pub use structure::{AnyStructure, TrackedStructure};
