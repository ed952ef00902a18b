//! Free variables, renaming, and capture-avoiding substitution.

use std::collections::BTreeMap;

use crate::sort::Sort;
use crate::term::{Term, Var};

/// Returns the free variables of `term` together with their sorts, in name
/// order.
///
/// Bound quantifier variables are not reported (the quantifier bounds are
/// evaluated outside the binder and are therefore free).
pub fn free_vars(term: &Term) -> BTreeMap<String, Sort> {
    let mut acc = BTreeMap::new();
    collect_free(term, &mut Vec::new(), &mut acc);
    acc
}

fn collect_free<'a>(term: &'a Term, bound: &mut Vec<&'a str>, acc: &mut BTreeMap<String, Sort>) {
    match term {
        Term::Var(v) => {
            if !bound.contains(&v.name.as_str()) && !acc.contains_key(&v.name) {
                acc.insert(v.name.clone(), v.sort);
            }
        }
        Term::ForallInt { var, lo, hi, body } | Term::ExistsInt { var, lo, hi, body } => {
            collect_free(lo, bound, acc);
            collect_free(hi, bound, acc);
            bound.push(var);
            collect_free(body, bound, acc);
            bound.pop();
        }
        other => other.for_each_child(&mut |c| collect_free(c, bound, acc)),
    }
}

/// Substitutes terms for free variables.
///
/// Every free occurrence of a variable named `n` with `subst[n]` defined is
/// replaced by `subst[n]`. Quantifier-bound variables shadow entries of the
/// substitution. The substitution is *not* capture-avoiding in general, but
/// the only binders in the logic are integer quantifier variables, which by
/// convention are fresh names (`__q0`, `__q1`, …) distinct from all
/// specification variables; [`rename_vars`] can be used first when this
/// convention does not hold.
pub fn substitute(term: &Term, subst: &BTreeMap<String, Term>) -> Term {
    if subst.is_empty() {
        return term.clone();
    }
    replace_free(term, &mut Vec::new(), &|v| subst.get(&v.name).cloned())
}

/// Renames free variables according to `renaming` (old name → new name).
///
/// The sort of each variable is preserved. This is how operation
/// specifications (written in terms of formal parameter and state names) are
/// instantiated with the actual names used by a testing method.
pub fn rename_vars(term: &Term, renaming: &BTreeMap<String, String>) -> Term {
    replace_free(term, &mut Vec::new(), &|v| {
        renaming
            .get(&v.name)
            .map(|name| Term::var(name.clone(), v.sort))
    })
}

/// Rebuilds `term`, replacing every free occurrence of a variable `v` with
/// `f(v)` where that is `Some`. A quantifier's bounds lie outside its binder,
/// its body inside: `bound` holds the binders around the current sub-term.
fn replace_free(term: &Term, bound: &mut Vec<String>, f: &impl Fn(&Var) -> Option<Term>) -> Term {
    match term {
        Term::Var(v) if !bound.contains(&v.name) => f(v).unwrap_or_else(|| term.clone()),
        Term::ForallInt { var, lo, hi, body } | Term::ExistsInt { var, lo, hi, body } => {
            let (lo, hi) = (replace_free(lo, bound, f), replace_free(hi, bound, f));
            bound.push(var.clone());
            let body = replace_free(body, bound, f);
            bound.pop();
            let (var, lo, hi, body) = (var.clone(), Box::new(lo), Box::new(hi), Box::new(body));
            match term {
                Term::ForallInt { .. } => Term::ForallInt { var, lo, hi, body },
                _ => Term::ExistsInt { var, lo, hi, body },
            }
        }
        other => other.map_children(|c| replace_free(c, bound, f)),
    }
}

/// Builds a substitution map from `(name, term)` pairs.
pub fn subst_map<I, S>(pairs: I) -> BTreeMap<String, Term>
where
    I: IntoIterator<Item = (S, Term)>,
    S: Into<String>,
{
    pairs.into_iter().map(|(k, v)| (k.into(), v)).collect()
}

/// Builds a renaming map from `(old, new)` pairs.
pub fn rename_map<I, A, B>(pairs: I) -> BTreeMap<String, String>
where
    I: IntoIterator<Item = (A, B)>,
    A: Into<String>,
    B: Into<String>,
{
    pairs
        .into_iter()
        .map(|(k, v)| (k.into(), v.into()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::*;

    #[test]
    fn free_vars_reports_names_and_sorts() {
        let t = and2(
            member(var_elem("v1"), var_set("s")),
            lt(var_int("i"), card(var_set("s"))),
        );
        let fv = free_vars(&t);
        assert_eq!(fv.len(), 3);
        assert_eq!(fv["v1"], Sort::Elem);
        assert_eq!(fv["s"], Sort::Set);
        assert_eq!(fv["i"], Sort::Int);
    }

    #[test]
    fn bound_variables_are_not_free() {
        let t = exists_int(
            "i",
            int(0),
            seq_len(var_seq("q")),
            eq(seq_at(var_seq("q"), var_int("i")), var_elem("v")),
        );
        let fv = free_vars(&t);
        assert!(fv.contains_key("q"));
        assert!(fv.contains_key("v"));
        assert!(!fv.contains_key("i"));
    }

    #[test]
    fn substitute_replaces_free_occurrences_only() {
        let t = exists_int("i", int(0), var_int("n"), eq(var_int("i"), var_int("x")));
        let s = subst_map([("x", int(7)), ("i", int(99)), ("n", int(3))]);
        let t2 = substitute(&t, &s);
        // the bound i is untouched, x and n are replaced
        match &t2 {
            Term::ExistsInt { hi, body, .. } => {
                assert_eq!(**hi, int(3));
                assert_eq!(**body, eq(var_int("i"), int(7)));
            }
            _ => panic!("expected quantifier"),
        }
    }

    #[test]
    fn rename_preserves_sorts() {
        let t = member(var_elem("v"), var_set("s"));
        let r = rename_map([("v", "v1"), ("s", "sa_contents")]);
        let t2 = rename_vars(&t, &r);
        let fv = free_vars(&t2);
        assert_eq!(fv["v1"], Sort::Elem);
        assert_eq!(fv["sa_contents"], Sort::Set);
        assert!(!fv.contains_key("v"));
    }

    #[test]
    fn rename_respects_binder_shadowing() {
        let t = forall_int("i", int(0), int(3), eq(var_int("i"), var_int("j")));
        let r = rename_map([("i", "k"), ("j", "j2")]);
        let t2 = rename_vars(&t, &r);
        match &t2 {
            Term::ForallInt { var, body, .. } => {
                assert_eq!(var, "i");
                assert_eq!(**body, eq(var_int("i"), var_int("j2")));
            }
            _ => panic!("expected quantifier"),
        }
    }
}
