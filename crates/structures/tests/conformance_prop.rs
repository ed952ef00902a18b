//! Property-based conformance of every concrete data structure against the
//! executable abstract specification — the substitution this reproduction
//! makes for Jahob's full functional verification of the implementations
//! (see the crate documentation). Random operation traces are run in
//! lockstep on the concrete structure and on the abstract semantics; return
//! values, the abstraction function, and the representation invariant are
//! checked after every step.

use proptest::prelude::*;

use semcommute_structures::conformance::{
    run_list_trace, run_map_trace, run_set_trace, ListOp, MapOp, SetOp,
};
use semcommute_structures::{ArrayList, AssociationList, HashSet, HashTable, ListSet};

fn set_op() -> impl Strategy<Value = SetOp> {
    prop_oneof![
        (0u8..12).prop_map(SetOp::Add),
        (0u8..12).prop_map(SetOp::Contains),
        (0u8..12).prop_map(SetOp::Remove),
        Just(SetOp::Size),
    ]
}

fn map_op() -> impl Strategy<Value = MapOp> {
    prop_oneof![
        (0u8..10, 0u8..10).prop_map(|(k, v)| MapOp::Put(k, v)),
        (0u8..10).prop_map(MapOp::Get),
        (0u8..10).prop_map(MapOp::Remove),
        (0u8..10).prop_map(MapOp::ContainsKey),
        Just(MapOp::Size),
    ]
}

fn list_op() -> impl Strategy<Value = ListOp> {
    prop_oneof![
        (0u8..16, 0u8..6).prop_map(|(i, v)| ListOp::AddAt(i, v)),
        (0u8..16).prop_map(ListOp::Get),
        (0u8..6).prop_map(ListOp::IndexOf),
        (0u8..6).prop_map(ListOp::LastIndexOf),
        (0u8..16).prop_map(ListOp::RemoveAt),
        (0u8..16, 0u8..6).prop_map(|(i, v)| ListOp::Set(i, v)),
        Just(ListOp::Size),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn list_set_conforms(trace in proptest::collection::vec(set_op(), 0..60)) {
        run_set_trace(&mut ListSet::new(), &trace).map_err(TestCaseError::fail)?;
    }

    #[test]
    fn hash_set_conforms(trace in proptest::collection::vec(set_op(), 0..120)) {
        run_set_trace(&mut HashSet::new(), &trace).map_err(TestCaseError::fail)?;
    }

    #[test]
    fn association_list_conforms(trace in proptest::collection::vec(map_op(), 0..60)) {
        run_map_trace(&mut AssociationList::new(), &trace).map_err(TestCaseError::fail)?;
    }

    #[test]
    fn hash_table_conforms(trace in proptest::collection::vec(map_op(), 0..120)) {
        run_map_trace(&mut HashTable::new(), &trace).map_err(TestCaseError::fail)?;
    }

    #[test]
    fn array_list_conforms(trace in proptest::collection::vec(list_op(), 0..80)) {
        run_list_trace(&mut ArrayList::new(), &trace).map_err(TestCaseError::fail)?;
    }

    /// The two set implementations expose the same abstract behaviour: the
    /// same trace leaves them with the same abstract state.
    #[test]
    fn set_implementations_agree(trace in proptest::collection::vec(set_op(), 0..60)) {
        use semcommute_structures::Abstraction;
        let mut list_set = ListSet::new();
        let mut hash_set = HashSet::new();
        run_set_trace(&mut list_set, &trace).map_err(TestCaseError::fail)?;
        run_set_trace(&mut hash_set, &trace).map_err(TestCaseError::fail)?;
        prop_assert_eq!(list_set.abstract_state(), hash_set.abstract_state());
    }

    /// Likewise for the two map implementations.
    #[test]
    fn map_implementations_agree(trace in proptest::collection::vec(map_op(), 0..60)) {
        use semcommute_structures::Abstraction;
        let mut assoc = AssociationList::new();
        let mut table = HashTable::new();
        run_map_trace(&mut assoc, &trace).map_err(TestCaseError::fail)?;
        run_map_trace(&mut table, &trace).map_err(TestCaseError::fail)?;
        prop_assert_eq!(assoc.abstract_state(), table.abstract_state());
    }
}
