//! Concrete values of the specification logic.

use std::fmt;

use crate::pvalue::{PMap, PSeq, PSet};
use crate::sort::Sort;

/// An opaque object identity.
///
/// Elements are the universe over which the abstract sets, maps, and sequences
/// range. The distinguished [`NULL_ELEM`] plays the role of Java's `null` in
/// the paper's specifications (operation preconditions typically require
/// arguments to be non-null; `get` and `put` return `null` to signal an absent
/// mapping).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ElemId(pub u32);

/// The distinguished `null` object identity.
pub const NULL_ELEM: ElemId = ElemId(u32::MAX);

impl ElemId {
    /// Returns `true` if this is the `null` object.
    pub fn is_null(self) -> bool {
        self == NULL_ELEM
    }
}

impl fmt::Display for ElemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_null() {
            write!(f, "null")
        } else {
            write!(f, "o{}", self.0)
        }
    }
}

/// A concrete value of the specification logic.
///
/// Values are what terms evaluate to under a [`crate::Model`]. Collection
/// values are backed by ordered containers so that `Value` has a total order
/// and a deterministic `Debug`/`Display` representation, which keeps
/// counterexample reporting and test output stable.
///
/// Collection payloads are one-pointer shared handles, so a `Value` is two
/// words and cloning a collection value is an O(1) reference-count
/// increment. Every payload is one flat array: sorted for sets and maps
/// ([`PSet`] / [`PMap`]), in position order for sequences ([`PSeq`]). An
/// update copies a shared array once and edits an unshared one in place.
/// Equality, ordering, hashing, and iteration are structural
/// and identical to the eager `BTreeSet` / `BTreeMap` / `Vec`
/// representation; the accessors [`Value::as_set`] / [`Value::as_map`] /
/// [`Value::as_seq`] hand out borrowed views of the handles, whose read API
/// (`contains`, `get`, `len`, `iter`, indexing, …) mirrors the eager types'.
///
/// # Example
///
/// ```
/// use semcommute_logic::{ElemId, Value};
///
/// let s = Value::set_of([ElemId(1), ElemId(2)]);
/// let cheap = s.clone(); // O(1): shares the backing set
/// assert_eq!(s, cheap);
/// assert!(s.as_set().unwrap().contains(&ElemId(1)));
/// assert_eq!(s.to_string(), "{o1, o2}");
///
/// // Updates go through the copy-on-write handle: the clone is unaffected.
/// let mut grown = s.clone();
/// if let Value::Set(set) = &mut grown {
///     set.insert(ElemId(3));
/// }
/// assert_eq!(s.as_set().unwrap().len(), 2);
/// assert_eq!(grown.as_set().unwrap().len(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Value {
    /// A boolean.
    Bool(bool),
    /// An integer.
    Int(i64),
    /// An object identity (possibly `null`).
    Elem(ElemId),
    /// A finite set of objects — abstract state of the set data structures.
    Set(PSet),
    /// A finite partial map — abstract state of the map data structures.
    Map(PMap),
    /// A finite sequence — abstract state of `ArrayList`.
    Seq(PSeq),
}

impl Value {
    /// The sort of this value.
    pub fn sort(&self) -> Sort {
        match self {
            Value::Bool(_) => Sort::Bool,
            Value::Int(_) => Sort::Int,
            Value::Elem(_) => Sort::Elem,
            Value::Set(_) => Sort::Set,
            Value::Map(_) => Sort::Map,
            Value::Seq(_) => Sort::Seq,
        }
    }

    /// Convenience constructor for a non-null element value.
    pub fn elem(id: u32) -> Value {
        Value::Elem(ElemId(id))
    }

    /// The `null` element value.
    pub fn null() -> Value {
        Value::Elem(NULL_ELEM)
    }

    /// Convenience constructor for a set value.
    pub fn set_of<I: IntoIterator<Item = ElemId>>(items: I) -> Value {
        Value::Set(items.into_iter().collect())
    }

    /// Convenience constructor for a map value.
    pub fn map_of<I: IntoIterator<Item = (ElemId, ElemId)>>(items: I) -> Value {
        Value::Map(items.into_iter().collect())
    }

    /// Convenience constructor for a sequence value.
    pub fn seq_of<I: IntoIterator<Item = ElemId>>(items: I) -> Value {
        Value::Seq(items.into_iter().collect())
    }

    /// Returns the image of this value under an element relabeling `f`:
    /// element values map to `f(e)`, collections relabel element-wise (map
    /// keys and values together), and booleans/integers are untouched.
    ///
    /// When `f` is a *permutation* of (non-null) element identities this is
    /// the action the logic cannot observe: no term distinguishes a model
    /// from its consistently relabeled image, which is what makes the
    /// prover's orbit-canonical enumeration sound. `f` is never applied to
    /// [`NULL_ELEM`] — `null` is a logical constant, not an identity.
    pub fn map_elems(&self, f: impl Fn(ElemId) -> ElemId) -> Value {
        let f = |e: ElemId| if e.is_null() { e } else { f(e) };
        match self {
            Value::Bool(_) | Value::Int(_) => self.clone(),
            Value::Elem(e) => Value::Elem(f(*e)),
            Value::Set(s) => Value::Set(s.map_elems(f)),
            Value::Map(m) => Value::Map(m.map_elems(f)),
            Value::Seq(q) => Value::Seq(q.map_elems(f)),
        }
    }

    /// Returns the boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns the integer payload, if this is an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Returns the element payload, if this is an element.
    pub fn as_elem(&self) -> Option<ElemId> {
        match self {
            Value::Elem(e) => Some(*e),
            _ => None,
        }
    }

    /// Returns a borrowed view of the set payload, if this is a set.
    pub fn as_set(&self) -> Option<&PSet> {
        match self {
            Value::Set(s) => Some(s),
            _ => None,
        }
    }

    /// Returns a borrowed view of the map payload, if this is a map.
    pub fn as_map(&self) -> Option<&PMap> {
        match self {
            Value::Map(m) => Some(m),
            _ => None,
        }
    }

    /// Returns a borrowed view of the sequence payload, if this is a
    /// sequence.
    pub fn as_seq(&self) -> Option<&PSeq> {
        match self {
            Value::Seq(s) => Some(s),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Elem(e) => write!(f, "{e}"),
            Value::Set(s) => {
                write!(f, "{{")?;
                for (i, e) in s.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, "}}")
            }
            Value::Map(m) => {
                write!(f, "{{")?;
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{k} -> {v}")?;
                }
                write!(f, "}}")
            }
            Value::Seq(s) => {
                write!(f, "[")?;
                for (i, e) in s.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, "]")
            }
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<ElemId> for Value {
    fn from(e: ElemId) -> Self {
        Value::Elem(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_is_null() {
        assert!(NULL_ELEM.is_null());
        assert!(!ElemId(0).is_null());
        assert_eq!(Value::null(), Value::Elem(NULL_ELEM));
    }

    #[test]
    fn sorts_of_values() {
        assert_eq!(Value::Bool(true).sort(), Sort::Bool);
        assert_eq!(Value::Int(3).sort(), Sort::Int);
        assert_eq!(Value::elem(1).sort(), Sort::Elem);
        assert_eq!(Value::set_of([ElemId(1)]).sort(), Sort::Set);
        assert_eq!(Value::map_of([(ElemId(1), ElemId(2))]).sort(), Sort::Map);
        assert_eq!(Value::seq_of([ElemId(1)]).sort(), Sort::Seq);
    }

    #[test]
    fn map_elems_acts_on_every_shape_and_fixes_null() {
        let bump = |e: ElemId| ElemId(e.0 + 10);
        assert_eq!(Value::Bool(true).map_elems(bump), Value::Bool(true));
        assert_eq!(Value::Int(-3).map_elems(bump), Value::Int(-3));
        assert_eq!(Value::elem(1).map_elems(bump), Value::elem(11));
        assert_eq!(Value::null().map_elems(bump), Value::null());
        assert_eq!(
            Value::set_of([ElemId(1), ElemId(2)]).map_elems(bump),
            Value::set_of([ElemId(11), ElemId(12)])
        );
        assert_eq!(
            Value::map_of([(ElemId(1), ElemId(2))]).map_elems(bump),
            Value::map_of([(ElemId(11), ElemId(12))])
        );
        assert_eq!(
            Value::seq_of([ElemId(2), NULL_ELEM]).map_elems(bump),
            Value::seq_of([ElemId(12), NULL_ELEM])
        );
    }

    #[test]
    fn display_is_readable() {
        assert_eq!(
            Value::set_of([ElemId(1), ElemId(2)]).to_string(),
            "{o1, o2}"
        );
        assert_eq!(
            Value::map_of([(ElemId(1), ElemId(2))]).to_string(),
            "{o1 -> o2}"
        );
        assert_eq!(
            Value::seq_of([ElemId(3), NULL_ELEM]).to_string(),
            "[o3, null]"
        );
        assert_eq!(Value::null().to_string(), "null");
    }

    #[test]
    fn accessors_match_variants() {
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::Int(7).as_int(), Some(7));
        assert_eq!(Value::elem(4).as_elem(), Some(ElemId(4)));
        assert!(Value::Bool(true).as_int().is_none());
        assert!(Value::set_of([]).as_set().is_some());
        assert!(Value::map_of([]).as_map().is_some());
        assert!(Value::seq_of([]).as_seq().is_some());
    }

    /// Every register and lane of the prover's bytecode is a `Value`: a
    /// fat collection pointer (`Arc<[ElemId]>`) would grow it to 24 bytes.
    #[test]
    fn values_stay_two_words() {
        use std::mem::size_of;
        assert_eq!(size_of::<Value>(), 16);
        assert_eq!(size_of::<PSet>(), 8);
        assert_eq!(size_of::<PMap>(), 8);
        assert_eq!(size_of::<PSeq>(), 8);
    }

    #[test]
    fn set_deduplicates_and_orders() {
        let v = Value::set_of([ElemId(2), ElemId(1), ElemId(2)]);
        assert_eq!(v.as_set().unwrap().len(), 2);
        assert_eq!(v.to_string(), "{o1, o2}");
    }
}
