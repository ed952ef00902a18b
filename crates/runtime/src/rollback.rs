//! Rolling back speculative operations with verified inverse operations.
//!
//! Section 1.3 of the paper argues that executing verified inverse operations
//! "can be substantially more efficient than alternate approaches (such as
//! pessimistically saving the data structure state before operations execute,
//! then restoring the state)". [`InverseRollback`] undoes a transaction's
//! logged operations, newest first, by invoking the verified inverse of each,
//! so its cost follows the number of operations to undo rather than the size
//! of the structure. The snapshot comparator that measured that claim is
//! retired; its last readings are in `docs/PERF.md` ("Retired comparators").
//!
//! [`rebuild`] builds a fresh structure holding a given abstract state; the
//! schedule tests and the benchmark start their serial replay oracle with it.

use std::collections::HashMap;

use semcommute_core::{inverse_catalog, InverseOperation};
use semcommute_logic::Value;
use semcommute_spec::{AbstractState, InterfaceId};

use crate::log::LogEntry;
use crate::structure::AnyStructure;

/// Inverse-operation-based rollback for one interface.
#[derive(Debug, Clone)]
pub struct InverseRollback {
    inverses: HashMap<String, InverseOperation>,
}

impl InverseRollback {
    /// Builds the rollback helper from the verified inverse catalog
    /// (Table 5.10).
    pub fn new(interface: InterfaceId) -> InverseRollback {
        let inverses = inverse_catalog()
            .into_iter()
            .filter(|inv| inv.interface == interface)
            .map(|inv| (inv.op.clone(), inv))
            .collect();
        InverseRollback { inverses }
    }

    /// The concrete call that undoes one logged operation, or `None` if there
    /// is nothing to undo: an observer, or an update that changed nothing
    /// (e.g. `add` returned false).
    pub fn inverse_call(&self, entry: &LogEntry) -> Option<(String, Vec<Value>)> {
        self.inverses
            .get(&entry.op)?
            .concrete_call(&entry.args, entry.result.as_ref())
    }

    /// Undoes the given log entries (a single transaction's operations),
    /// newest first, by applying inverse operations to the structure.
    ///
    /// # Errors
    ///
    /// Returns a message if an inverse call is rejected by the structure —
    /// which cannot happen for entries produced by the speculative runtime
    /// (the inverse preconditions are verified).
    pub fn undo(&self, structure: &mut AnyStructure, entries: &[LogEntry]) -> Result<(), String> {
        for entry in entries.iter().rev() {
            let Some((op, args)) = self.inverse_call(entry) else {
                continue;
            };
            structure
                .apply(&op, &args)
                .map_err(|e| format!("rolling back `{}` with `{op}`: {e}", entry.op))?;
        }
        Ok(())
    }
}

/// Rebuilds a concrete structure of the given kind holding the given abstract
/// state.
///
/// # Errors
///
/// Returns a message if `name` is not a known structure or the state cannot
/// be replayed onto a fresh instance (e.g. a set containing `null`, which no
/// `add` call can produce). States captured from a live structure are
/// well-formed by construction; a malformed one indicates a corrupted or
/// hand-crafted log, which must surface as an `Evaluation`-class error for
/// the caller to handle — not a panic.
pub fn rebuild(name: &str, state: &AbstractState) -> Result<AnyStructure, String> {
    let mut structure = AnyStructure::by_name(name)
        .ok_or_else(|| format!("rebuild: unknown structure name `{name}`"))?;
    let mut replay = |op: &str, args: &[Value]| {
        structure
            .apply(op, args)
            .map(|_| ())
            .map_err(|e| format!("rebuild of `{name}`: replaying `{op}` failed: {e}"))
    };
    match state {
        AbstractState::Counter(c) => {
            replay("increase", &[Value::Int(*c)])?;
        }
        AbstractState::Set(elems) => {
            for &e in elems {
                replay("add", &[Value::Elem(e)])?;
            }
        }
        AbstractState::Map(pairs) => {
            for (&k, &v) in pairs {
                replay("put", &[Value::Elem(k), Value::Elem(v)])?;
            }
        }
        AbstractState::List(items) => {
            for (i, &e) in items.iter().enumerate() {
                replay("addAt", &[Value::Int(i as i64), Value::Elem(e)])?;
            }
        }
    }
    Ok(structure)
}

#[cfg(test)]
mod tests {
    use super::*;
    use semcommute_logic::Value;

    fn logged(op: &str, args: Vec<Value>, result: Option<Value>) -> LogEntry {
        LogEntry {
            txn: 1,
            op: op.to_string(),
            args,
            result,
            // Inverses read arguments and results only — never the pre-state.
            pre_state: None,
        }
    }

    #[test]
    fn inverse_rollback_restores_the_abstract_state() {
        let mut s = AnyStructure::by_name("HashSet").unwrap();
        s.apply("add", &[Value::elem(1)]).unwrap();
        let before = s.abstract_state();

        // Execute two operations and log them.
        let r1 = s.apply("add", &[Value::elem(2)]).unwrap();
        let r2 = s.apply("remove", &[Value::elem(1)]).unwrap();
        let entries = vec![
            logged("add", vec![Value::elem(2)], r1),
            logged("remove", vec![Value::elem(1)], r2),
        ];

        let rollback = InverseRollback::new(InterfaceId::Set);
        rollback.undo(&mut s, &entries).unwrap();
        assert_eq!(s.abstract_state(), before);
        assert!(s.check_invariants().is_ok());
    }

    #[test]
    fn inverse_rollback_skips_noop_updates_and_observers() {
        let mut s = AnyStructure::by_name("ListSet").unwrap();
        s.apply("add", &[Value::elem(4)]).unwrap();
        let before = s.abstract_state();
        // Adding an element that is already present returns false: nothing to
        // undo. A contains observation also needs no undo.
        let r = s.apply("add", &[Value::elem(4)]).unwrap();
        let rc = s.apply("contains", &[Value::elem(4)]).unwrap();
        let entries = vec![
            logged("add", vec![Value::elem(4)], r),
            logged("contains", vec![Value::elem(4)], rc),
        ];
        InverseRollback::new(InterfaceId::Set)
            .undo(&mut s, &entries)
            .unwrap();
        assert_eq!(s.abstract_state(), before);
    }

    #[test]
    fn inverse_rollback_handles_maps_and_lists() {
        // Map: put over an existing key must restore the old value.
        let mut m = AnyStructure::by_name("HashTable").unwrap();
        m.apply("put", &[Value::elem(1), Value::elem(10)]).unwrap();
        let before = m.abstract_state();
        let r = m.apply("put", &[Value::elem(1), Value::elem(20)]).unwrap();
        InverseRollback::new(InterfaceId::Map)
            .undo(
                &mut m,
                &[logged("put", vec![Value::elem(1), Value::elem(20)], r)],
            )
            .unwrap();
        assert_eq!(m.abstract_state(), before);

        // List: removeAt must be undone by re-inserting the removed element.
        let mut l = AnyStructure::by_name("ArrayList").unwrap();
        for (i, e) in [5u32, 6, 7].iter().enumerate() {
            l.apply("addAt", &[Value::Int(i as i64), Value::elem(*e)])
                .unwrap();
        }
        let before = l.abstract_state();
        let r = l.apply("removeAt", &[Value::Int(1)]).unwrap();
        InverseRollback::new(InterfaceId::List)
            .undo(&mut l, &[logged("removeAt", vec![Value::Int(1)], r)])
            .unwrap();
        assert_eq!(l.abstract_state(), before);
    }

    #[test]
    fn rebuild_round_trips_every_structure() {
        for name in [
            "HashSet",
            "ListSet",
            "HashTable",
            "AssociationList",
            "ArrayList",
            "Accumulator",
        ] {
            let mut s = AnyStructure::by_name(name).unwrap();
            match s.interface() {
                InterfaceId::Set => {
                    s.apply("add", &[Value::elem(1)]).unwrap();
                    s.apply("add", &[Value::elem(2)]).unwrap();
                }
                InterfaceId::Map => {
                    s.apply("put", &[Value::elem(1), Value::elem(9)]).unwrap();
                }
                InterfaceId::List => {
                    s.apply("addAt", &[Value::Int(0), Value::elem(3)]).unwrap();
                }
                InterfaceId::Accumulator => {
                    s.apply("increase", &[Value::Int(7)]).unwrap();
                }
            }
            let state = s.abstract_state();
            let rebuilt = rebuild(name, &state).unwrap();
            assert_eq!(rebuilt.abstract_state(), state, "{name}");
            assert!(rebuilt.check_invariants().is_ok(), "{name}");
        }
    }

    #[test]
    fn rebuild_surfaces_malformed_states_as_errors() {
        use semcommute_logic::{ElemId, NULL_ELEM};

        // An unknown structure name is an error, not a panic.
        let err = rebuild("NoSuchStructure", &AbstractState::Counter(0)).unwrap_err();
        assert!(err.contains("unknown structure name"), "{err}");

        // A set containing `null` cannot be produced by any `add` call — a
        // log claiming it is malformed. Replay reports which op rejected it.
        let bad = AbstractState::Set([NULL_ELEM].into_iter().collect());
        let err = rebuild("HashSet", &bad).unwrap_err();
        assert!(err.contains("replaying `add` failed"), "{err}");

        // Same for a map binding `null`.
        let bad = AbstractState::Map([(NULL_ELEM, ElemId(1))].into_iter().collect());
        let err = rebuild("HashTable", &bad).unwrap_err();
        assert!(err.contains("replaying `put` failed"), "{err}");

        // A well-formed state still round-trips.
        let good = AbstractState::Set([1, 2, 3].into_iter().map(ElemId).collect());
        let rebuilt = rebuild("HashSet", &good).unwrap();
        assert_eq!(rebuilt.abstract_state(), good);
    }
}
