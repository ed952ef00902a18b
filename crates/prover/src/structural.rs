//! The structural prover: inlining, normalization, and simplification.
//!
//! Many generated obligations are valid for purely algebraic reasons — for
//! example, the soundness of `add(v1)` / `add(v2)` commutativity reduces to
//! `(s ∪ {v1}) ∪ {v2} = (s ∪ {v2}) ∪ {v1}`, which holds independently of the
//! data structure state. The structural prover decides such obligations
//! without any model enumeration by:
//!
//! 1. inlining the functional definitions into the hypotheses and the goal,
//! 2. normalizing commutative update chains (`SetAdd` / `SetRemove` runs are
//!    sorted, since element insertions commute with insertions and removals
//!    with removals), and
//! 3. running the shared simplifier and checking whether the resulting
//!    implication is literally `true`.
//!
//! The structural prover is sound but deliberately incomplete; anything it
//! cannot discharge falls through to the finite-model prover.

use std::collections::BTreeMap;
use std::time::Instant;

use semcommute_logic::simplify::simplify_owned;
use semcommute_logic::{build, substitute, Term};

use crate::obligation::Obligation;
use crate::stats::ProofStats;

/// Attempts to prove the obligation structurally.
///
/// Returns `Some(stats)` if the obligation was proved, `None` if this prover
/// cannot decide it (which says nothing about validity).
pub fn prove_structural(ob: &Obligation) -> Option<ProofStats> {
    let start = Instant::now();
    simplify_owned(inline_and_normalize(ob))
        .is_true()
        .then(|| ProofStats::structural(start.elapsed()))
}

/// Inlines the obligation's definitions into its hypotheses and goal,
/// normalizes update chains, and returns the single implication formula to be
/// proved.
fn inline_and_normalize(ob: &Obligation) -> Term {
    let mut inlined: BTreeMap<String, Term> = BTreeMap::new();
    for (name, term) in &ob.defines {
        let expanded = normalize(substitute(term, &inlined));
        inlined.insert(name.clone(), expanded);
    }
    let hyps: Vec<Term> = ob
        .hypotheses
        .iter()
        .map(|h| normalize(substitute(h, &inlined)))
        .collect();
    let goal = normalize(substitute(&ob.goal, &inlined));
    build::implies(build::and(hyps), goal)
}

/// Normalizes a term by sorting maximal runs of `SetAdd` operations and of
/// `SetRemove` operations by their element term.
///
/// `(s ∪ {a}) ∪ {b}` and `(s ∪ {b}) ∪ {a}` denote the same set for every `a`,
/// `b`, and `s`, so sorting the run is semantics-preserving; the same holds
/// for runs of removals. Runs are *not* merged across an add/remove boundary
/// (removal of an element does not commute with its own insertion). Takes
/// the term by value and rewrites it in place, so a sub-term outside every
/// run is not rebuilt.
pub fn normalize(mut term: Term) -> Term {
    term.for_each_child_mut(&mut |child| {
        *child = normalize(std::mem::replace(child, Term::Null));
    });
    match term {
        Term::SetAdd(_, _) => sort_run(term, RunKind::Add),
        Term::SetRemove(_, _) => sort_run(term, RunKind::Remove),
        other => other,
    }
}

#[derive(PartialEq, Clone, Copy)]
enum RunKind {
    Add,
    Remove,
}

fn sort_run(term: Term, kind: RunKind) -> Term {
    // Collect the maximal run of same-kind updates.
    let mut elems = Vec::new();
    let mut base = term;
    loop {
        match (base, kind) {
            (Term::SetAdd(s, v), RunKind::Add) | (Term::SetRemove(s, v), RunKind::Remove) => {
                elems.push(*v);
                base = *s;
            }
            (other, _) => {
                base = other;
                break;
            }
        }
    }
    // Idempotence: duplicate adds (or removes) of the same element collapse.
    elems.sort();
    elems.dedup();
    let mut rebuilt = base;
    for v in elems {
        rebuilt = match kind {
            RunKind::Add => build::set_add(rebuilt, v),
            RunKind::Remove => build::set_remove(rebuilt, v),
        };
    }
    rebuilt
}

#[cfg(test)]
mod tests {
    use super::*;
    use semcommute_logic::build::*;
    use semcommute_logic::{eval, Model, Value};

    #[test]
    fn add_add_commutativity_is_structural() {
        // s1 = (s Un {v1}) Un {v2},  s2 = (s Un {v2}) Un {v1},  goal s1 = s2
        let ob = Obligation::new("add_add")
            .define(
                "s1",
                set_add(set_add(var_set("s"), var_elem("v1")), var_elem("v2")),
            )
            .define(
                "s2",
                set_add(set_add(var_set("s"), var_elem("v2")), var_elem("v1")),
            )
            .goal(eq(var_set("s1"), var_set("s2")));
        assert!(prove_structural(&ob).is_some());
    }

    #[test]
    fn remove_remove_commutativity_is_structural() {
        let ob = Obligation::new("remove_remove")
            .define(
                "s1",
                set_remove(set_remove(var_set("s"), var_elem("v1")), var_elem("v2")),
            )
            .define(
                "s2",
                set_remove(set_remove(var_set("s"), var_elem("v2")), var_elem("v1")),
            )
            .goal(eq(var_set("s1"), var_set("s2")));
        assert!(prove_structural(&ob).is_some());
    }

    #[test]
    fn add_remove_is_not_structural() {
        // (s Un {v1}) - {v2} vs (s - {v2}) Un {v1}: only equal when v1 != v2
        // or other conditions hold — the structural prover must not claim it.
        let ob = Obligation::new("add_remove")
            .define(
                "s1",
                set_remove(set_add(var_set("s"), var_elem("v1")), var_elem("v2")),
            )
            .define(
                "s2",
                set_add(set_remove(var_set("s"), var_elem("v2")), var_elem("v1")),
            )
            .goal(eq(var_set("s1"), var_set("s2")));
        assert!(prove_structural(&ob).is_none());
    }

    #[test]
    fn normalization_is_semantics_preserving() {
        let t = set_remove(
            set_add(set_add(var_set("s"), var_elem("b")), var_elem("a")),
            var_elem("c"),
        );
        let n = normalize(t.clone());
        let model = Model::from_bindings([
            ("s", Value::set_of([semcommute_logic::ElemId(5)])),
            ("a", Value::elem(1)),
            ("b", Value::elem(2)),
            ("c", Value::elem(2)),
        ]);
        assert_eq!(eval(&t, &model).unwrap(), eval(&n, &model).unwrap());
    }

    #[test]
    fn normalization_is_order_insensitive() {
        let ab = set_add(set_add(var_set("s"), var_elem("a")), var_elem("b"));
        let ba = set_add(set_add(var_set("s"), var_elem("b")), var_elem("a"));
        assert_eq!(normalize(ab), normalize(ba));
        let ab = set_remove(set_remove(var_set("s"), var_elem("a")), var_elem("b"));
        let ba = set_remove(set_remove(var_set("s"), var_elem("b")), var_elem("a"));
        assert_eq!(normalize(ab), normalize(ba));
    }

    #[test]
    fn duplicate_adds_collapse() {
        let t = set_add(set_add(var_set("s"), var_elem("a")), var_elem("a"));
        let n = normalize(t);
        assert_eq!(n, set_add(var_set("s"), var_elem("a")));
    }

    #[test]
    fn hypotheses_are_used_by_simplification() {
        // trivially true goal under a false hypothesis
        let ob = Obligation::new("vacuous")
            .assume(fls())
            .goal(eq(var_set("x"), var_set("y")));
        assert!(prove_structural(&ob).is_some());
    }

    #[test]
    fn inline_uses_earlier_definitions() {
        let ob = Obligation::new("chain")
            .define("a", set_add(var_set("s"), var_elem("v")))
            .define("b", set_add(var_set("a"), var_elem("w")))
            .define(
                "c",
                set_add(set_add(var_set("s"), var_elem("w")), var_elem("v")),
            )
            .goal(eq(var_set("b"), var_set("c")));
        assert!(prove_structural(&ob).is_some());
    }
}
