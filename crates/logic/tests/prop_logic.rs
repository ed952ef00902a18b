//! Property-based tests of the specification logic: simplification is
//! semantics-preserving and idempotent, substitution agrees with extending
//! the model, and evaluation agrees with the obvious set/map/sequence
//! algebra.

use std::collections::BTreeMap;

use proptest::prelude::*;

use semcommute_logic::build::*;
use semcommute_logic::subst::subst_map;
use semcommute_logic::{
    eval, eval_bool, free_vars, simplify, substitute, ElemId, Model, Term, Value,
};

/// A strategy for small boolean formulas over three boolean variables, two
/// element variables, and one set variable.
fn formula(depth: u32) -> BoxedStrategy<Term> {
    let leaf = prop_oneof![
        Just(tru()),
        Just(fls()),
        Just(var_bool("p")),
        Just(var_bool("q")),
        Just(member(var_elem("x"), var_set("s"))),
        Just(member(var_elem("y"), var_set("s"))),
        Just(eq(var_elem("x"), var_elem("y"))),
        Just(eq(card(var_set("s")), int(1))),
        Just(lt(card(var_set("s")), int(2))),
    ]
    .boxed();
    if depth == 0 {
        return leaf;
    }
    let inner = formula(depth - 1);
    prop_oneof![
        leaf,
        inner.clone().prop_map(not),
        (formula(depth - 1), formula(depth - 1)).prop_map(|(a, b)| and2(a, b)),
        (formula(depth - 1), formula(depth - 1)).prop_map(|(a, b)| or2(a, b)),
        (formula(depth - 1), formula(depth - 1)).prop_map(|(a, b)| implies(a, b)),
        (formula(depth - 1), formula(depth - 1)).prop_map(|(a, b)| iff(a, b)),
        (inner.clone(), formula(depth - 1), formula(depth - 1)).prop_map(|(c, t, e)| ite(c, t, e)),
    ]
    .boxed()
}

/// Small boolean formulas over booleans, elements, a set, and a sequence —
/// wide enough to cover every connective, a few container atoms, and a
/// quantifier binder.
fn wide_formula(depth: u32) -> BoxedStrategy<Term> {
    let leaf = prop_oneof![
        Just(tru()),
        Just(fls()),
        Just(var_bool("p")),
        Just(var_bool("q")),
        Just(member(var_elem("x"), var_set("s"))),
        Just(member(var_elem("y"), set_add(var_set("s"), var_elem("x")))),
        Just(eq(var_elem("x"), var_elem("y"))),
        Just(le(card(var_set("s")), int(2))),
        Just(lt(seq_len(var_seq("w")), int(3))),
        Just(seq_contains(var_seq("w"), var_elem("x"))),
        Just(exists_int(
            "i",
            int(0),
            seq_len(var_seq("w")),
            eq(seq_at(var_seq("w"), var_int("i")), var_elem("x"))
        )),
    ]
    .boxed();
    if depth == 0 {
        return leaf;
    }
    let inner = wide_formula(depth - 1);
    prop_oneof![
        leaf,
        inner.clone().prop_map(not),
        (wide_formula(depth - 1), wide_formula(depth - 1)).prop_map(|(a, b)| and2(a, b)),
        (wide_formula(depth - 1), wide_formula(depth - 1)).prop_map(|(a, b)| or2(a, b)),
        (wide_formula(depth - 1), wide_formula(depth - 1)).prop_map(|(a, b)| implies(a, b)),
        (wide_formula(depth - 1), wide_formula(depth - 1)).prop_map(|(a, b)| iff(a, b)),
        (
            inner.clone(),
            wide_formula(depth - 1),
            wide_formula(depth - 1)
        )
            .prop_map(|(c, t, e)| ite(c, t, e)),
    ]
    .boxed()
}

prop_compose! {
    fn wide_model()(
        p in proptest::bool::ANY,
        q in proptest::bool::ANY,
        x in 1u32..4,
        y in 1u32..4,
        s in proptest::collection::btree_set(1u32..4, 0..3),
        w in proptest::collection::vec(1u32..4, 0..4),
    ) -> Model {
        Model::from_bindings([
            ("p", Value::Bool(p)),
            ("q", Value::Bool(q)),
            ("x", Value::elem(x)),
            ("y", Value::elem(y)),
            ("s", Value::Set(s.into_iter().map(ElemId).collect())),
            ("w", Value::Seq(w.into_iter().map(ElemId).collect())),
        ])
    }
}

prop_compose! {
    fn model()(
        p in proptest::bool::ANY,
        q in proptest::bool::ANY,
        x in 1u32..4,
        y in 1u32..4,
        s in proptest::collection::btree_set(1u32..4, 0..3),
    ) -> Model {
        Model::from_bindings([
            ("p", Value::Bool(p)),
            ("q", Value::Bool(q)),
            ("x", Value::elem(x)),
            ("y", Value::elem(y)),
            ("s", Value::Set(s.into_iter().map(ElemId).collect())),
        ])
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn simplification_preserves_evaluation(t in formula(3), m in model()) {
        let original = eval_bool(&t, &m).unwrap();
        let simplified = eval_bool(&simplify(&t), &m).unwrap();
        prop_assert_eq!(original, simplified, "simplify changed the meaning of {}", t);
    }

    #[test]
    fn set_add_then_remove_is_remove(
        s in proptest::collection::btree_set(1u32..6, 0..5),
        v in 1u32..6,
        m_extra in 1u32..6,
    ) {
        // ((s ∪ {v}) \ {v}) = s \ {v}, and membership of any other element is
        // unchanged — the algebraic facts the set specifications rely on.
        let model = Model::from_bindings([
            ("s", Value::Set(s.into_iter().map(ElemId).collect())),
            ("v", Value::elem(v)),
            ("w", Value::elem(m_extra)),
        ]);
        let lhs = set_remove(set_add(var_set("s"), var_elem("v")), var_elem("v"));
        let rhs = set_remove(var_set("s"), var_elem("v"));
        prop_assert_eq!(eval(&lhs, &model).unwrap(), eval(&rhs, &model).unwrap());
        if m_extra != v {
            let unchanged = iff(
                member(var_elem("w"), lhs),
                member(var_elem("w"), var_set("s")),
            );
            prop_assert!(eval_bool(&unchanged, &model).unwrap());
        }
    }

    #[test]
    fn sequence_insert_then_remove_is_identity(
        items in proptest::collection::vec(1u32..5, 0..6),
        i in 0usize..7,
        v in 1u32..5,
    ) {
        // removeAt(insertAt(q, i, v), i) = q whenever i ≤ len(q).
        prop_assume!(i <= items.len());
        let model = Model::from_bindings([
            ("q", Value::Seq(items.iter().copied().map(ElemId).collect())),
            ("v", Value::elem(v)),
        ]);
        let round_trip = seq_remove_at(
            seq_insert_at(var_seq("q"), int(i as i64), var_elem("v")),
            int(i as i64),
        );
        prop_assert_eq!(
            eval(&round_trip, &model).unwrap(),
            eval(&var_seq("q"), &model).unwrap()
        );
    }

    #[test]
    fn map_put_get_retrieves_the_value(
        pairs in proptest::collection::btree_map(1u32..5, 10u32..15, 0..4),
        k in 1u32..5,
        v in 10u32..15,
    ) {
        let model = Model::from_bindings([
            ("m", Value::Map(pairs.into_iter().map(|(a, b)| (ElemId(a), ElemId(b))).collect())),
            ("k", Value::elem(k)),
            ("v", Value::elem(v)),
        ]);
        let got = map_get(map_put(var_map("m"), var_elem("k"), var_elem("v")), var_elem("k"));
        prop_assert_eq!(eval(&got, &model).unwrap(), Value::elem(v));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Simplification is idempotent on its own output.
    #[test]
    fn simplification_is_idempotent(t in wide_formula(3)) {
        let simplified = simplify(&t);
        prop_assert_eq!(simplify(&simplified), simplified);
    }

    /// Substitution behaves like textual replacement: composing substitution
    /// with evaluation equals evaluating under the extended model.
    #[test]
    fn substitute_agrees_with_model_extension(t in wide_formula(3), m in wide_model()) {
        // Replace x by y and p by a formula.
        let subst = subst_map([
            ("x", var_elem("y")),
            ("p", member(var_elem("y"), var_set("s"))),
        ]);
        let replaced = substitute(&t, &subst);
        // Reference: evaluate the substituted values first, then bind them.
        let x_val = m.get("y").unwrap().clone();
        let p_val = eval_bool(&member(var_elem("y"), var_set("s")), &m).unwrap();
        let mut extended = m.clone();
        extended.insert("x", x_val);
        extended.insert("p", Value::Bool(p_val));
        prop_assert_eq!(
            eval_bool(&replaced, &m).unwrap(),
            eval_bool(&t, &extended).unwrap(),
            "substitution changed the meaning of {}", t
        );
    }

    /// The free variables of a substituted term never include substituted
    /// names (all our binders use distinct bound names).
    #[test]
    fn substitution_eliminates_the_domain(t in wide_formula(3)) {
        let subst: BTreeMap<String, Term> = subst_map([("p", tru()), ("x", var_elem("y"))]);
        let replaced = substitute(&t, &subst);
        let fv = free_vars(&replaced);
        prop_assert!(!fv.contains_key("p"), "p still free in {}", replaced);
        prop_assert!(!fv.contains_key("x"), "x still free in {}", replaced);
    }
}
