//! Evaluation of terms under a model.
//!
//! The evaluator defines the concrete semantics of the specification logic.
//! It is *total* on well-sorted terms whose free variables are bound by the
//! model: partial operations are totalized as documented on [`Term`], so the
//! finite-model prover can evaluate arbitrary sub-formulas without guards.

use std::fmt;

use crate::model::Model;
use crate::pvalue::{PMap, PSeq, PSet};
use crate::sort::Sort;
use crate::term::Term;
use crate::value::{ElemId, Value, NULL_ELEM};

/// Maximum width of a bounded quantifier range before evaluation refuses to
/// enumerate it. Obligations only quantify over sequence indices, so in
/// practice ranges are tiny; the limit guards against malformed inputs.
pub const MAX_QUANTIFIER_RANGE: i64 = 65_536;

/// An error produced while evaluating a term.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// A free variable was not bound by the model.
    UnboundVariable(String),
    /// An operand had an unexpected sort (e.g. `Card` of an integer).
    SortMismatch {
        /// Human-readable description of the operation being evaluated.
        context: &'static str,
        /// The sort that was expected.
        expected: Sort,
        /// The sort of the value actually found.
        found: Sort,
    },
    /// The two sides of an equality (or branches of an `Ite`) had different sorts.
    IncomparableSorts(Sort, Sort),
    /// A bounded quantifier range exceeded [`MAX_QUANTIFIER_RANGE`].
    QuantifierRangeTooLarge(i64),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UnboundVariable(name) => write!(f, "unbound variable `{name}`"),
            EvalError::SortMismatch {
                context,
                expected,
                found,
            } => write!(f, "{context}: expected {expected}, found {found}"),
            EvalError::IncomparableSorts(a, b) => {
                write!(f, "cannot compare values of sorts {a} and {b}")
            }
            EvalError::QuantifierRangeTooLarge(n) => {
                write!(f, "quantifier range of width {n} is too large to enumerate")
            }
        }
    }
}

impl std::error::Error for EvalError {}

type Result<T> = std::result::Result<T, EvalError>;

fn expect_bool(v: Value, context: &'static str) -> Result<bool> {
    match v {
        Value::Bool(b) => Ok(b),
        other => Err(EvalError::SortMismatch {
            context,
            expected: Sort::Bool,
            found: other.sort(),
        }),
    }
}

fn expect_int(v: Value, context: &'static str) -> Result<i64> {
    match v {
        Value::Int(i) => Ok(i),
        other => Err(EvalError::SortMismatch {
            context,
            expected: Sort::Int,
            found: other.sort(),
        }),
    }
}

fn expect_elem(v: Value, context: &'static str) -> Result<ElemId> {
    match v {
        Value::Elem(e) => Ok(e),
        other => Err(EvalError::SortMismatch {
            context,
            expected: Sort::Elem,
            found: other.sort(),
        }),
    }
}

fn expect_set(v: Value, context: &'static str) -> Result<PSet> {
    match v {
        Value::Set(s) => Ok(s),
        other => Err(EvalError::SortMismatch {
            context,
            expected: Sort::Set,
            found: other.sort(),
        }),
    }
}

fn expect_map(v: Value, context: &'static str) -> Result<PMap> {
    match v {
        Value::Map(m) => Ok(m),
        other => Err(EvalError::SortMismatch {
            context,
            expected: Sort::Map,
            found: other.sort(),
        }),
    }
}

fn expect_seq(v: Value, context: &'static str) -> Result<PSeq> {
    match v {
        Value::Seq(s) => Ok(s),
        other => Err(EvalError::SortMismatch {
            context,
            expected: Sort::Seq,
            found: other.sort(),
        }),
    }
}

/// Evaluates `term` under `model`, producing a [`Value`].
///
/// # Errors
///
/// Returns an [`EvalError`] if a free variable is unbound, an operand has the
/// wrong sort, or a bounded quantifier range is unreasonably large.
pub fn eval(term: &Term, model: &Model) -> Result<Value> {
    use Term::*;
    Ok(match term {
        Var(v) => model
            .get(&v.name)
            .cloned()
            .ok_or_else(|| EvalError::UnboundVariable(v.name.clone()))?,
        BoolLit(b) => Value::Bool(*b),
        IntLit(i) => Value::Int(*i),
        Null => Value::Elem(NULL_ELEM),

        Not(a) => Value::Bool(!expect_bool(eval(a, model)?, "not")?),
        And(cs) => {
            let mut acc = true;
            for c in cs {
                acc &= expect_bool(eval(c, model)?, "and")?;
            }
            Value::Bool(acc)
        }
        Or(cs) => {
            let mut acc = false;
            for c in cs {
                acc |= expect_bool(eval(c, model)?, "or")?;
            }
            Value::Bool(acc)
        }
        Implies(a, b) => {
            let a = expect_bool(eval(a, model)?, "implies")?;
            let b = expect_bool(eval(b, model)?, "implies")?;
            Value::Bool(!a || b)
        }
        Iff(a, b) => {
            let a = expect_bool(eval(a, model)?, "iff")?;
            let b = expect_bool(eval(b, model)?, "iff")?;
            Value::Bool(a == b)
        }
        Ite(c, t, e) => {
            let c = expect_bool(eval(c, model)?, "ite condition")?;
            let tv = eval(t, model)?;
            let ev = eval(e, model)?;
            if tv.sort() != ev.sort() {
                return Err(EvalError::IncomparableSorts(tv.sort(), ev.sort()));
            }
            if c {
                tv
            } else {
                ev
            }
        }
        Eq(a, b) => {
            let av = eval(a, model)?;
            let bv = eval(b, model)?;
            if av.sort() != bv.sort() {
                return Err(EvalError::IncomparableSorts(av.sort(), bv.sort()));
            }
            Value::Bool(av == bv)
        }

        Add(a, b) => Value::Int(
            expect_int(eval(a, model)?, "add")?.wrapping_add(expect_int(eval(b, model)?, "add")?),
        ),
        Sub(a, b) => Value::Int(
            expect_int(eval(a, model)?, "sub")?.wrapping_sub(expect_int(eval(b, model)?, "sub")?),
        ),
        Neg(a) => Value::Int(expect_int(eval(a, model)?, "neg")?.wrapping_neg()),
        Lt(a, b) => {
            Value::Bool(expect_int(eval(a, model)?, "lt")? < expect_int(eval(b, model)?, "lt")?)
        }
        Le(a, b) => {
            Value::Bool(expect_int(eval(a, model)?, "le")? <= expect_int(eval(b, model)?, "le")?)
        }

        EmptySet => Value::Set(PSet::new()),
        SetAdd(s, v) => {
            let mut s = expect_set(eval(s, model)?, "set add")?;
            s.insert(expect_elem(eval(v, model)?, "set add")?);
            Value::Set(s)
        }
        SetRemove(s, v) => {
            let mut s = expect_set(eval(s, model)?, "set remove")?;
            s.remove(&expect_elem(eval(v, model)?, "set remove")?);
            Value::Set(s)
        }
        Member(v, s) => {
            let v = expect_elem(eval(v, model)?, "member")?;
            let s = expect_set(eval(s, model)?, "member")?;
            Value::Bool(s.contains(&v))
        }
        Card(s) => Value::Int(expect_set(eval(s, model)?, "card")?.len() as i64),

        EmptyMap => Value::Map(PMap::new()),
        MapPut(m, k, v) => {
            let mut m = expect_map(eval(m, model)?, "map put")?;
            let k = expect_elem(eval(k, model)?, "map put key")?;
            let v = expect_elem(eval(v, model)?, "map put value")?;
            m.insert(k, v);
            Value::Map(m)
        }
        MapRemove(m, k) => {
            let mut m = expect_map(eval(m, model)?, "map remove")?;
            let k = expect_elem(eval(k, model)?, "map remove key")?;
            m.remove(&k);
            Value::Map(m)
        }
        MapGet(m, k) => {
            let m = expect_map(eval(m, model)?, "map get")?;
            let k = expect_elem(eval(k, model)?, "map get key")?;
            Value::Elem(m.get(&k).copied().unwrap_or(NULL_ELEM))
        }
        MapHasKey(m, k) => {
            let m = expect_map(eval(m, model)?, "map has-key")?;
            let k = expect_elem(eval(k, model)?, "map has-key key")?;
            Value::Bool(m.contains_key(&k))
        }
        MapSize(m) => Value::Int(expect_map(eval(m, model)?, "map size")?.len() as i64),

        EmptySeq => Value::Seq(PSeq::new()),
        SeqInsertAt(s, i, v) => {
            let mut s = expect_seq(eval(s, model)?, "seq insert-at")?;
            let i = expect_int(eval(i, model)?, "seq insert-at index")?;
            let v = expect_elem(eval(v, model)?, "seq insert-at value")?;
            let idx = i.clamp(0, s.len() as i64) as usize;
            s.insert(idx, v);
            Value::Seq(s)
        }
        SeqRemoveAt(s, i) => {
            let mut s = expect_seq(eval(s, model)?, "seq remove-at")?;
            let i = expect_int(eval(i, model)?, "seq remove-at index")?;
            if i >= 0 && (i as usize) < s.len() {
                s.remove(i as usize);
            }
            Value::Seq(s)
        }
        SeqSetAt(s, i, v) => {
            let mut s = expect_seq(eval(s, model)?, "seq set-at")?;
            let i = expect_int(eval(i, model)?, "seq set-at index")?;
            let v = expect_elem(eval(v, model)?, "seq set-at value")?;
            if i >= 0 && (i as usize) < s.len() {
                s.set(i as usize, v);
            }
            Value::Seq(s)
        }
        SeqAt(s, i) => {
            let s = expect_seq(eval(s, model)?, "seq at")?;
            let i = expect_int(eval(i, model)?, "seq at index")?;
            let e = if i >= 0 && (i as usize) < s.len() {
                s[i as usize]
            } else {
                NULL_ELEM
            };
            Value::Elem(e)
        }
        SeqLen(s) => Value::Int(expect_seq(eval(s, model)?, "seq len")?.len() as i64),
        SeqIndexOf(s, v) => {
            let s = expect_seq(eval(s, model)?, "seq index-of")?;
            let v = expect_elem(eval(v, model)?, "seq index-of value")?;
            Value::Int(s.iter().position(|&e| e == v).map_or(-1, |i| i as i64))
        }
        SeqLastIndexOf(s, v) => {
            let s = expect_seq(eval(s, model)?, "seq last-index-of")?;
            let v = expect_elem(eval(v, model)?, "seq last-index-of value")?;
            Value::Int(s.iter().rposition(|&e| e == v).map_or(-1, |i| i as i64))
        }
        SeqContains(s, v) => {
            let s = expect_seq(eval(s, model)?, "seq contains")?;
            let v = expect_elem(eval(v, model)?, "seq contains value")?;
            Value::Bool(s.contains(&v))
        }

        ForallInt { var, lo, hi, body } => {
            Value::Bool(eval_quantifier(var, lo, hi, body, model, true)?)
        }
        ExistsInt { var, lo, hi, body } => {
            Value::Bool(eval_quantifier(var, lo, hi, body, model, false)?)
        }
    })
}

fn eval_quantifier(
    var: &str,
    lo: &Term,
    hi: &Term,
    body: &Term,
    model: &Model,
    universal: bool,
) -> Result<bool> {
    let lo = expect_int(eval(lo, model)?, "quantifier lower bound")?;
    let hi = expect_int(eval(hi, model)?, "quantifier upper bound")?;
    // Saturating: a range wider than `i64` reports the largest width
    // instead of wrapping below the guard.
    let width = hi.saturating_sub(lo);
    if width > MAX_QUANTIFIER_RANGE {
        return Err(EvalError::QuantifierRangeTooLarge(width));
    }
    let mut inner = model.clone();
    for i in lo..hi {
        inner.insert(var, Value::Int(i));
        let b = expect_bool(eval(body, &inner)?, "quantifier body")?;
        if universal && !b {
            return Ok(false);
        }
        if !universal && b {
            return Ok(true);
        }
    }
    Ok(universal)
}

/// Evaluates a boolean term under a model.
///
/// # Errors
///
/// Returns an error if evaluation fails or the term is not boolean.
pub fn eval_bool(term: &Term, model: &Model) -> Result<bool> {
    expect_bool(eval(term, model)?, "formula")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::*;

    fn m() -> Model {
        Model::from_bindings([
            ("v1", Value::elem(1)),
            ("v2", Value::elem(2)),
            ("s", Value::set_of([ElemId(1), ElemId(3)])),
            ("mp", Value::map_of([(ElemId(1), ElemId(10))])),
            ("q", Value::seq_of([ElemId(5), ElemId(6), ElemId(5)])),
            ("i", Value::Int(1)),
        ])
    }

    #[test]
    fn boolean_connectives() {
        let m = m();
        assert!(eval_bool(&and2(tru(), not(fls())), &m).unwrap());
        assert!(!eval_bool(&and2(tru(), fls()), &m).unwrap());
        assert!(eval_bool(&or2(fls(), tru()), &m).unwrap());
        assert!(eval_bool(&implies(fls(), fls()), &m).unwrap());
        assert!(!eval_bool(&implies(tru(), fls()), &m).unwrap());
        assert!(eval_bool(&iff(fls(), fls()), &m).unwrap());
        assert!(eval_bool(&and([]), &m).unwrap());
        assert!(!eval_bool(&or([]), &m).unwrap());
    }

    #[test]
    fn integer_arithmetic_and_comparison() {
        let m = m();
        assert_eq!(eval(&add(int(2), int(3)), &m).unwrap(), Value::Int(5));
        assert_eq!(eval(&sub(int(2), int(3)), &m).unwrap(), Value::Int(-1));
        assert_eq!(eval(&neg(int(2)), &m).unwrap(), Value::Int(-2));
        assert!(eval_bool(&lt(int(1), int(2)), &m).unwrap());
        assert!(!eval_bool(&lt(int(2), int(2)), &m).unwrap());
        assert!(eval_bool(&le(int(2), int(2)), &m).unwrap());
        assert!(eval_bool(&gt(int(3), int(2)), &m).unwrap());
        assert!(eval_bool(&ge(int(2), int(2)), &m).unwrap());
    }

    #[test]
    fn set_operations() {
        let m = m();
        assert!(eval_bool(&member(var_elem("v1"), var_set("s")), &m).unwrap());
        assert!(!eval_bool(&member(var_elem("v2"), var_set("s")), &m).unwrap());
        assert_eq!(eval(&card(var_set("s")), &m).unwrap(), Value::Int(2));
        // adding an existing element does not grow the set
        assert_eq!(
            eval(&card(set_add(var_set("s"), var_elem("v1"))), &m).unwrap(),
            Value::Int(2)
        );
        assert_eq!(
            eval(&card(set_add(var_set("s"), var_elem("v2"))), &m).unwrap(),
            Value::Int(3)
        );
        assert_eq!(
            eval(&card(set_remove(var_set("s"), var_elem("v1"))), &m).unwrap(),
            Value::Int(1)
        );
        assert!(eval_bool(&eq(empty_set(), empty_set()), &m).unwrap());
    }

    #[test]
    fn map_operations() {
        let m = m();
        assert!(eval_bool(&map_has_key(var_map("mp"), var_elem("v1")), &m).unwrap());
        assert!(!eval_bool(&map_has_key(var_map("mp"), var_elem("v2")), &m).unwrap());
        assert_eq!(
            eval(&map_get(var_map("mp"), var_elem("v1")), &m).unwrap(),
            Value::elem(10)
        );
        assert_eq!(
            eval(&map_get(var_map("mp"), var_elem("v2")), &m).unwrap(),
            Value::null()
        );
        assert_eq!(
            eval(
                &map_size(map_put(var_map("mp"), var_elem("v2"), var_elem("v1"))),
                &m
            )
            .unwrap(),
            Value::Int(2)
        );
        assert_eq!(
            eval(&map_size(map_remove(var_map("mp"), var_elem("v1"))), &m).unwrap(),
            Value::Int(0)
        );
        // overwriting a key keeps the size
        assert_eq!(
            eval(
                &map_size(map_put(var_map("mp"), var_elem("v1"), var_elem("v2"))),
                &m
            )
            .unwrap(),
            Value::Int(1)
        );
    }

    #[test]
    fn seq_operations() {
        let m = m();
        let q = var_seq("q");
        assert_eq!(eval(&seq_len(q.clone()), &m).unwrap(), Value::Int(3));
        assert_eq!(
            eval(&seq_at(q.clone(), int(0)), &m).unwrap(),
            Value::elem(5)
        );
        assert_eq!(eval(&seq_at(q.clone(), int(5)), &m).unwrap(), Value::null());
        assert_eq!(
            eval(&seq_at(q.clone(), int(-1)), &m).unwrap(),
            Value::null()
        );
        assert_eq!(
            eval(&seq_index_of(q.clone(), var_elem("v1")), &m).unwrap(),
            Value::Int(-1)
        );
        assert_eq!(
            eval(
                &seq_index_of(q.clone(), Term::var("e5", Sort::Elem)),
                &Model::from_bindings([
                    ("q", Value::seq_of([ElemId(5), ElemId(6), ElemId(5)])),
                    ("e5", Value::elem(5)),
                ])
            )
            .unwrap(),
            Value::Int(0)
        );
        assert_eq!(
            eval(&seq_last_index_of(q.clone(), seq_at(q.clone(), int(0))), &m).unwrap(),
            Value::Int(2)
        );
        assert!(eval_bool(&seq_contains(q.clone(), seq_at(q.clone(), int(1))), &m).unwrap());

        // insert / remove / set
        assert_eq!(
            eval(
                &seq_len(seq_insert_at(q.clone(), int(1), var_elem("v1"))),
                &m
            )
            .unwrap(),
            Value::Int(4)
        );
        assert_eq!(
            eval(
                &seq_at(seq_insert_at(q.clone(), int(1), var_elem("v1")), int(1)),
                &m
            )
            .unwrap(),
            Value::elem(1)
        );
        // clamp: inserting far out of range appends
        assert_eq!(
            eval(
                &seq_at(seq_insert_at(q.clone(), int(99), var_elem("v1")), int(3)),
                &m
            )
            .unwrap(),
            Value::elem(1)
        );
        assert_eq!(
            eval(&seq_len(seq_remove_at(q.clone(), int(0))), &m).unwrap(),
            Value::Int(2)
        );
        // out of range remove is a no-op
        assert_eq!(
            eval(&seq_len(seq_remove_at(q.clone(), int(7))), &m).unwrap(),
            Value::Int(3)
        );
        assert_eq!(
            eval(
                &seq_at(seq_set_at(q.clone(), int(2), var_elem("v2")), int(2)),
                &m
            )
            .unwrap(),
            Value::elem(2)
        );
    }

    #[test]
    fn ite_and_eq() {
        let m = m();
        assert_eq!(
            eval(&ite(tru(), int(1), int(2)), &m).unwrap(),
            Value::Int(1)
        );
        assert_eq!(
            eval(&ite(fls(), int(1), int(2)), &m).unwrap(),
            Value::Int(2)
        );
        assert!(eval_bool(&eq(null(), null()), &m).unwrap());
        assert!(!eval_bool(&eq(var_elem("v1"), null()), &m).unwrap());
        assert!(matches!(
            eval(&eq(int(1), tru()), &m),
            Err(EvalError::IncomparableSorts(_, _))
        ));
    }

    #[test]
    fn quantifiers_over_indices() {
        let m = m();
        // every element of q equals o5 or o6
        let q = var_seq("q");
        let body = or2(
            eq(seq_at(q.clone(), var_int("i")), seq_at(q.clone(), int(0))),
            eq(seq_at(q.clone(), var_int("i")), seq_at(q.clone(), int(1))),
        );
        let all = forall_int("i", int(0), seq_len(q.clone()), body.clone());
        assert!(eval_bool(&all, &m).unwrap());
        // there exists an index whose element equals element 1 (o6)
        let ex = exists_int(
            "i",
            int(0),
            seq_len(q.clone()),
            eq(seq_at(q.clone(), var_int("i")), seq_at(q.clone(), int(1))),
        );
        assert!(eval_bool(&ex, &m).unwrap());
        // empty range: forall true, exists false
        assert!(eval_bool(&forall_int("i", int(3), int(3), fls()), &m).unwrap());
        assert!(!eval_bool(&exists_int("i", int(3), int(3), tru()), &m).unwrap());
    }

    #[test]
    fn errors_are_reported() {
        let m = m();
        assert!(matches!(
            eval(&var_bool("missing"), &m),
            Err(EvalError::UnboundVariable(_))
        ));
        assert!(matches!(
            eval(&card(var_elem("v1")), &m),
            Err(EvalError::SortMismatch { .. })
        ));
        assert!(matches!(
            eval(&exists_int("i", int(0), int(1_000_000), tru()), &m),
            Err(EvalError::QuantifierRangeTooLarge(_))
        ));
        // Widths past `i64` saturate instead of wrapping below the guard.
        assert_eq!(
            eval(&forall_int("i", int(i64::MIN), int(1), tru()), &m),
            Err(EvalError::QuantifierRangeTooLarge(i64::MAX))
        );
        assert_eq!(
            eval(&forall_int("i", int(i64::MAX), int(i64::MIN), fls()), &m),
            Ok(Value::Bool(true))
        );
        let err = EvalError::UnboundVariable("x".into());
        assert!(err.to_string().contains("x"));
    }

    use crate::sort::Sort;
    use crate::value::ElemId;
}
