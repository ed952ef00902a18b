//! Structural simplification of terms.
//!
//! The simplifier performs sound, semantics-preserving rewriting: constant
//! folding, boolean identities, flattening of nested conjunctions and
//! disjunctions, syntactic-equality reasoning, and a few container-algebra
//! identities. The prover uses it both as a fast first pass (many generated
//! obligations become literally `true`) and to shrink obligations before
//! finite-model search.
//!
//! The rules rewrite an owned term in place, bottom-up: the children first,
//! then the root until no rule fires. A subtree no rule touches stays where
//! it is and is never cloned.
//!
//! Soundness is checked by property tests comparing evaluation of the original
//! and the simplified term under random models.

use crate::term::Term;

/// Simplifies `term` bottom-up until a fixed point is reached.
pub fn simplify(term: &Term) -> Term {
    simplify_owned(term.clone())
}

/// [`simplify`] on an owned term: the rewriting reuses its nodes, so a
/// caller that already owns the formula (the prover's structural pass) does
/// not pay for a copy.
pub fn simplify_owned(mut term: Term) -> Term {
    simplify_in_place(&mut term);
    term
}

fn simplify_in_place(term: &mut Term) {
    term.for_each_child_mut(&mut simplify_in_place);
    let root = std::mem::replace(term, Term::Null);
    *term = rewrite_fix(root);
}

/// Applies root rewrite steps until none fires (bounded defensively).
fn rewrite_fix(mut term: Term) -> Term {
    for _ in 0..128 {
        match rewrite_step(term) {
            Ok(next) => term = next,
            Err(same) => return same,
        }
    }
    term
}

/// One root rewrite step; the children are already simplified. Returns the
/// rewritten term, or the term itself when no rule fires.
fn rewrite_step(term: Term) -> Result<Term, Term> {
    use Term::*;
    Ok(match term {
        Not(a) => match *a {
            BoolLit(b) => BoolLit(!b),
            Not(inner) => *inner,
            _ => return Err(Not(a)),
        },
        And(cs) => return junction(cs, true),
        Or(cs) => return junction(cs, false),
        Implies(a, b) => {
            if a.is_false() || b.is_true() || a == b {
                BoolLit(true)
            } else if a.is_true() {
                *b
            } else if b.is_false() {
                rewrite_fix(Not(a))
            } else {
                return Err(Implies(a, b));
            }
        }
        Iff(a, b) => {
            if a == b {
                BoolLit(true)
            } else if a.is_true() {
                *b
            } else if b.is_true() {
                *a
            } else if a.is_false() {
                rewrite_fix(Not(b))
            } else if b.is_false() {
                rewrite_fix(Not(a))
            } else {
                return Err(Iff(a, b));
            }
        }
        Ite(c, x, y) => {
            if c.is_true() || x == y {
                *x
            } else if c.is_false() {
                *y
            } else {
                return Err(Ite(c, x, y));
            }
        }
        Eq(a, b) => match (&*a, &*b) {
            _ if a == b => BoolLit(true),
            (IntLit(x), IntLit(y)) => BoolLit(x == y),
            (BoolLit(x), BoolLit(y)) => BoolLit(x == y),
            (BoolLit(true), _) => *b,
            (_, BoolLit(true)) => *a,
            (BoolLit(false), _) => rewrite_fix(Not(b)),
            (_, BoolLit(false)) => rewrite_fix(Not(a)),
            _ => return Err(Eq(a, b)),
        },
        Add(a, b) => match (&*a, &*b) {
            (IntLit(x), IntLit(y)) => IntLit(x.wrapping_add(*y)),
            (IntLit(0), _) => *b,
            (_, IntLit(0)) => *a,
            _ => return Err(Add(a, b)),
        },
        Sub(a, b) => match (&*a, &*b) {
            (IntLit(x), IntLit(y)) => IntLit(x.wrapping_sub(*y)),
            (_, IntLit(0)) => *a,
            _ if a == b => IntLit(0),
            _ => return Err(Sub(a, b)),
        },
        Neg(a) => match *a {
            IntLit(x) => IntLit(x.wrapping_neg()),
            _ => return Err(Neg(a)),
        },
        Lt(a, b) => match (&*a, &*b) {
            (IntLit(x), IntLit(y)) => BoolLit(x < y),
            _ if a == b => BoolLit(false),
            _ => return Err(Lt(a, b)),
        },
        Le(a, b) => match (&*a, &*b) {
            (IntLit(x), IntLit(y)) => BoolLit(x <= y),
            _ if a == b => BoolLit(true),
            _ => return Err(Le(a, b)),
        },
        Member(v, s) => match &*s {
            EmptySet => BoolLit(false),
            // v ∈ (s ∪ {v}) — syntactic match only.
            SetAdd(_, added) if *added == v => BoolLit(true),
            _ => return Err(Member(v, s)),
        },
        MapHasKey(m, k) => match &*m {
            EmptyMap => BoolLit(false),
            MapPut(_, key, _) if *key == k => BoolLit(true),
            _ => return Err(MapHasKey(m, k)),
        },
        MapGet(m, k) => match *m {
            EmptyMap => Null,
            MapPut(_, key, value) if key == k => *value,
            _ => return Err(MapGet(m, k)),
        },
        Card(s) if *s == EmptySet => IntLit(0),
        MapSize(m) if *m == EmptyMap => IntLit(0),
        SeqLen(s) if *s == EmptySeq => IntLit(0),
        SeqContains(s, _) if *s == EmptySeq => BoolLit(false),
        other => return Err(other),
    })
}

/// The `And` (`conj`) or `Or` rule: drops the neutral literal, short-cuts
/// on the absorbing one, flattens nested runs of the same connective,
/// collapses adjacent duplicates and a complementary pair, and unwraps a
/// single operand.
fn junction(cs: Vec<Term>, conj: bool) -> Result<Term, Term> {
    let rebuild = |cs| if conj { Term::And(cs) } else { Term::Or(cs) };
    let mut flat = Vec::with_capacity(cs.len());
    let mut changed = false;
    for c in cs {
        match c {
            Term::BoolLit(b) if b == conj => changed = true,
            Term::BoolLit(_) => return Ok(Term::BoolLit(!conj)),
            Term::And(inner) if conj => {
                changed = true;
                flat.extend(inner);
            }
            Term::Or(inner) if !conj => {
                changed = true;
                flat.extend(inner);
            }
            c => flat.push(c),
        }
    }
    let before = flat.len();
    flat.dedup();
    changed |= flat.len() != before;
    if has_complementary_pair(&flat) {
        return Ok(Term::BoolLit(!conj));
    }
    match flat.len() {
        0 => Ok(Term::BoolLit(conj)),
        1 => Ok(flat.pop().expect("one operand")),
        _ if changed => Ok(rebuild(flat)),
        _ => Err(rebuild(flat)),
    }
}

fn has_complementary_pair(terms: &[Term]) -> bool {
    let negates = |a: &Term, b: &Term| matches!(a, Term::Not(inner) if **inner == *b);
    terms.iter().enumerate().any(|(i, a)| {
        terms[i + 1..]
            .iter()
            .any(|b| negates(a, b) || negates(b, a))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::*;

    #[test]
    fn boolean_identities() {
        assert!(simplify(&and2(tru(), tru())).is_true());
        assert!(simplify(&and2(tru(), fls())).is_false());
        assert!(simplify(&or2(fls(), fls())).is_false());
        assert!(simplify(&not(not(tru()))).is_true());
        assert!(simplify(&implies(fls(), var_bool("p"))).is_true());
        assert_eq!(simplify(&implies(tru(), var_bool("p"))), var_bool("p"));
        assert!(simplify(&iff(var_bool("p"), var_bool("p"))).is_true());
        assert!(simplify(&and2(var_bool("p"), not(var_bool("p")))).is_false());
        assert!(simplify(&or2(var_bool("p"), not(var_bool("p")))).is_true());
    }

    #[test]
    fn nested_and_or_flatten() {
        let t = and2(
            and2(var_bool("a"), var_bool("b")),
            and2(tru(), var_bool("c")),
        );
        match simplify(&t) {
            Term::And(cs) => assert_eq!(cs.len(), 3),
            other => panic!("expected flattened conjunction, got {other:?}"),
        }
    }

    #[test]
    fn equality_and_arithmetic_folding() {
        assert!(simplify(&eq(var_set("s"), var_set("s"))).is_true());
        assert_eq!(simplify(&eq(int(2), int(3))), fls());
        assert_eq!(simplify(&add(int(2), int(3))), int(5));
        assert_eq!(simplify(&sub(var_int("x"), int(0))), var_int("x"));
        assert_eq!(simplify(&add(int(0), var_int("x"))), var_int("x"));
        assert!(simplify(&le(var_int("x"), var_int("x"))).is_true());
        assert!(simplify(&lt(var_int("x"), var_int("x"))).is_false());
    }

    #[test]
    fn container_identities() {
        assert!(simplify(&member(var_elem("v"), empty_set())).is_false());
        assert!(simplify(&member(var_elem("v"), set_add(var_set("s"), var_elem("v")))).is_true());
        assert_eq!(simplify(&card(empty_set())), int(0));
        assert_eq!(
            simplify(&map_get(
                map_put(var_map("m"), var_elem("k"), var_elem("v")),
                var_elem("k")
            )),
            var_elem("v")
        );
        assert!(simplify(&map_has_key(empty_map(), var_elem("k"))).is_false());
        assert_eq!(simplify(&map_get(empty_map(), var_elem("k"))), null());
        assert_eq!(simplify(&seq_len(empty_seq())), int(0));
        assert!(simplify(&seq_contains(empty_seq(), var_elem("v"))).is_false());
    }

    #[test]
    fn ite_simplification() {
        assert_eq!(simplify(&ite(tru(), int(1), int(2))), int(1));
        assert_eq!(simplify(&ite(fls(), int(1), int(2))), int(2));
        assert_eq!(
            simplify(&ite(var_bool("c"), var_int("x"), var_int("x"))),
            var_int("x")
        );
    }

    #[test]
    fn simplification_reaches_fixed_point() {
        let t = implies(and2(tru(), var_bool("p")), or2(var_bool("p"), fls()));
        assert!(simplify(&t).is_true());
    }
}
