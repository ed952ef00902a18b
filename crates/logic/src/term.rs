//! Terms of the specification logic.

use std::hash::{Hash, Hasher};

use crate::sort::Sort;

/// A typed variable of the specification logic.
///
/// Variables carry their sort so that terms are self-describing; the sort
/// checker ([`crate::ty::sort_of`]) only verifies that all occurrences of the
/// same name agree.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var {
    /// The variable name (e.g. `"v1"`, `"sa_contents"`).
    pub name: String,
    /// The sort of the variable.
    pub sort: Sort,
}

impl Var {
    /// Creates a new variable with the given name and sort.
    pub fn new(name: impl Into<String>, sort: Sort) -> Var {
        Var {
            name: name.into(),
            sort,
        }
    }
}

/// A term of the specification logic.
///
/// Terms cover boolean connectives, linear integer arithmetic, polymorphic
/// equality, and the query/update algebra of the three abstract container
/// sorts (sets, maps, sequences). Partial operations are *totalized* so that
/// every term evaluates to a value under every model (see [`crate::eval()`]):
///
/// * `MapGet` returns `null` for absent keys,
/// * `SeqAt` returns `null` for out-of-range indices,
/// * `SeqIndexOf` / `SeqLastIndexOf` return `-1` when the element is absent,
/// * `SeqInsertAt` clamps the index into `[0, len]`, and `SeqRemoveAt` /
///   `SeqSetAt` leave the sequence unchanged for out-of-range indices.
///
/// Proof obligations always carry the operation preconditions as hypotheses,
/// so these totalizations never influence a verdict about specified behaviour;
/// they only make the evaluator total, which the finite-model prover relies
/// on.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Term {
    /// A variable occurrence.
    Var(Var),
    /// A boolean literal.
    BoolLit(bool),
    /// An integer literal.
    IntLit(i64),
    /// The `null` object literal.
    Null,

    /// Logical negation.
    Not(Box<Term>),
    /// N-ary conjunction. `And(vec![])` is `true`.
    And(Vec<Term>),
    /// N-ary disjunction. `Or(vec![])` is `false`.
    Or(Vec<Term>),
    /// Implication.
    Implies(Box<Term>, Box<Term>),
    /// Bi-implication.
    Iff(Box<Term>, Box<Term>),
    /// If-then-else over terms of any (equal) sort.
    Ite(Box<Term>, Box<Term>, Box<Term>),
    /// Polymorphic equality between two terms of the same sort.
    Eq(Box<Term>, Box<Term>),

    /// Integer addition.
    Add(Box<Term>, Box<Term>),
    /// Integer subtraction.
    Sub(Box<Term>, Box<Term>),
    /// Integer negation.
    Neg(Box<Term>),
    /// Strict less-than on integers.
    Lt(Box<Term>, Box<Term>),
    /// Less-than-or-equal on integers.
    Le(Box<Term>, Box<Term>),

    /// The empty set.
    EmptySet,
    /// `set ∪ {elem}`.
    SetAdd(Box<Term>, Box<Term>),
    /// `set \ {elem}`.
    SetRemove(Box<Term>, Box<Term>),
    /// `elem ∈ set`.
    Member(Box<Term>, Box<Term>),
    /// `|set|`.
    Card(Box<Term>),

    /// The empty map.
    EmptyMap,
    /// `map[key := value]`.
    MapPut(Box<Term>, Box<Term>, Box<Term>),
    /// `map` with `key` unmapped.
    MapRemove(Box<Term>, Box<Term>),
    /// The value `map` associates with `key`, or `null` if `key` is unmapped.
    MapGet(Box<Term>, Box<Term>),
    /// `true` iff `key` is mapped by `map`.
    MapHasKey(Box<Term>, Box<Term>),
    /// The number of mapped keys.
    MapSize(Box<Term>),

    /// The empty sequence.
    EmptySeq,
    /// `seq` with `elem` inserted at `idx` (everything at `idx` and above
    /// shifted up by one).
    SeqInsertAt(Box<Term>, Box<Term>, Box<Term>),
    /// `seq` with the element at `idx` removed (everything above shifted
    /// down by one).
    SeqRemoveAt(Box<Term>, Box<Term>),
    /// `seq` with the element at `idx` replaced by `elem`.
    SeqSetAt(Box<Term>, Box<Term>, Box<Term>),
    /// The element of `seq` at `idx`, or `null` when out of range.
    SeqAt(Box<Term>, Box<Term>),
    /// The length of `seq`.
    SeqLen(Box<Term>),
    /// The index of the first occurrence of `elem` in `seq`, or `-1`.
    SeqIndexOf(Box<Term>, Box<Term>),
    /// The index of the last occurrence of `elem` in `seq`, or `-1`.
    SeqLastIndexOf(Box<Term>, Box<Term>),
    /// `true` iff `elem` occurs in `seq`.
    SeqContains(Box<Term>, Box<Term>),

    /// Bounded universal quantification over integers:
    /// `∀ var. lo ≤ var < hi → body`.
    ForallInt {
        /// The bound variable name (sort `Int`).
        var: String,
        /// Inclusive lower bound.
        lo: Box<Term>,
        /// Exclusive upper bound.
        hi: Box<Term>,
        /// The body, in which `var` may occur free.
        body: Box<Term>,
    },
    /// Bounded existential quantification over integers:
    /// `∃ var. lo ≤ var < hi ∧ body`.
    ExistsInt {
        /// The bound variable name (sort `Int`).
        var: String,
        /// Inclusive lower bound.
        lo: Box<Term>,
        /// Exclusive upper bound.
        hi: Box<Term>,
        /// The body, in which `var` may occur free.
        body: Box<Term>,
    },
}

impl Term {
    /// Creates a variable term.
    pub fn var(name: impl Into<String>, sort: Sort) -> Term {
        Term::Var(Var::new(name, sort))
    }

    /// Returns `true` if this term is the literal `true`.
    pub fn is_true(&self) -> bool {
        matches!(self, Term::BoolLit(true)) || matches!(self, Term::And(cs) if cs.is_empty())
    }

    /// Returns `true` if this term is the literal `false`.
    pub fn is_false(&self) -> bool {
        matches!(self, Term::BoolLit(false)) || matches!(self, Term::Or(cs) if cs.is_empty())
    }

    /// Returns references to the immediate sub-terms of this term.
    ///
    /// Quantifier bounds and bodies are included; the bound variable itself is
    /// not a sub-term.
    pub fn children(&self) -> Vec<&Term> {
        use Term::*;
        match self {
            Var(_) | BoolLit(_) | IntLit(_) | Null | EmptySet | EmptyMap | EmptySeq => vec![],
            Not(a) | Neg(a) | Card(a) | MapSize(a) | SeqLen(a) => vec![a],
            And(cs) | Or(cs) => cs.iter().collect(),
            Implies(a, b)
            | Iff(a, b)
            | Eq(a, b)
            | Add(a, b)
            | Sub(a, b)
            | Lt(a, b)
            | Le(a, b)
            | SetAdd(a, b)
            | SetRemove(a, b)
            | Member(a, b)
            | MapRemove(a, b)
            | MapGet(a, b)
            | MapHasKey(a, b)
            | SeqRemoveAt(a, b)
            | SeqAt(a, b)
            | SeqIndexOf(a, b)
            | SeqLastIndexOf(a, b)
            | SeqContains(a, b) => vec![a, b],
            Ite(a, b, c) | MapPut(a, b, c) | SeqInsertAt(a, b, c) | SeqSetAt(a, b, c) => {
                vec![a, b, c]
            }
            ForallInt { lo, hi, body, .. } | ExistsInt { lo, hi, body, .. } => vec![lo, hi, body],
        }
    }

    /// Calls `f` on every immediate sub-term, in the same order as
    /// [`Term::children`], without allocating.
    ///
    /// Quantifier bounds and bodies are included; the bound variable itself is
    /// not a sub-term.
    pub fn for_each_child<'a>(&'a self, f: &mut impl FnMut(&'a Term)) {
        use Term::*;
        match self {
            Var(_) | BoolLit(_) | IntLit(_) | Null | EmptySet | EmptyMap | EmptySeq => {}
            Not(a) | Neg(a) | Card(a) | MapSize(a) | SeqLen(a) => f(a),
            And(cs) | Or(cs) => cs.iter().for_each(f),
            Implies(a, b)
            | Iff(a, b)
            | Eq(a, b)
            | Add(a, b)
            | Sub(a, b)
            | Lt(a, b)
            | Le(a, b)
            | SetAdd(a, b)
            | SetRemove(a, b)
            | Member(a, b)
            | MapRemove(a, b)
            | MapGet(a, b)
            | MapHasKey(a, b)
            | SeqRemoveAt(a, b)
            | SeqAt(a, b)
            | SeqIndexOf(a, b)
            | SeqLastIndexOf(a, b)
            | SeqContains(a, b) => {
                f(a);
                f(b);
            }
            Ite(a, b, c) | MapPut(a, b, c) | SeqInsertAt(a, b, c) | SeqSetAt(a, b, c) => {
                f(a);
                f(b);
                f(c);
            }
            ForallInt { lo, hi, body, .. } | ExistsInt { lo, hi, body, .. } => {
                f(lo);
                f(hi);
                f(body);
            }
        }
    }

    /// Calls `f` on every immediate sub-term, mutably, in the same order as
    /// [`Term::for_each_child`]: the in-place rewriting passes use it to
    /// leave a subtree no rule touches where it is.
    pub(crate) fn for_each_child_mut(&mut self, f: &mut impl FnMut(&mut Term)) {
        use Term::*;
        match self {
            Var(_) | BoolLit(_) | IntLit(_) | Null | EmptySet | EmptyMap | EmptySeq => {}
            Not(a) | Neg(a) | Card(a) | MapSize(a) | SeqLen(a) => f(a),
            And(cs) | Or(cs) => cs.iter_mut().for_each(f),
            Implies(a, b)
            | Iff(a, b)
            | Eq(a, b)
            | Add(a, b)
            | Sub(a, b)
            | Lt(a, b)
            | Le(a, b)
            | SetAdd(a, b)
            | SetRemove(a, b)
            | Member(a, b)
            | MapRemove(a, b)
            | MapGet(a, b)
            | MapHasKey(a, b)
            | SeqRemoveAt(a, b)
            | SeqAt(a, b)
            | SeqIndexOf(a, b)
            | SeqLastIndexOf(a, b)
            | SeqContains(a, b) => {
                f(a);
                f(b);
            }
            Ite(a, b, c) | MapPut(a, b, c) | SeqInsertAt(a, b, c) | SeqSetAt(a, b, c) => {
                f(a);
                f(b);
                f(c);
            }
            ForallInt { lo, hi, body, .. } | ExistsInt { lo, hi, body, .. } => {
                f(lo);
                f(hi);
                f(body);
            }
        }
    }

    /// Rebuilds this term, applying `f` to every immediate sub-term.
    ///
    /// The structure (variant, bound variable names) is preserved. This is the
    /// workhorse used by substitution, normalization, and simplification to
    /// avoid repeating the full variant match.
    pub fn map_children(&self, mut f: impl FnMut(&Term) -> Term) -> Term {
        use Term::*;
        let b = |t: &Term, f: &mut dyn FnMut(&Term) -> Term| Box::new(f(t));
        match self {
            Var(_) | BoolLit(_) | IntLit(_) | Null | EmptySet | EmptyMap | EmptySeq => self.clone(),
            Not(a) => Not(b(a, &mut f)),
            Neg(a) => Neg(b(a, &mut f)),
            Card(a) => Card(b(a, &mut f)),
            MapSize(a) => MapSize(b(a, &mut f)),
            SeqLen(a) => SeqLen(b(a, &mut f)),
            And(cs) => And(cs.iter().map(&mut f).collect()),
            Or(cs) => Or(cs.iter().map(&mut f).collect()),
            Implies(x, y) => Implies(b(x, &mut f), b(y, &mut f)),
            Iff(x, y) => Iff(b(x, &mut f), b(y, &mut f)),
            Eq(x, y) => Eq(b(x, &mut f), b(y, &mut f)),
            Add(x, y) => Add(b(x, &mut f), b(y, &mut f)),
            Sub(x, y) => Sub(b(x, &mut f), b(y, &mut f)),
            Lt(x, y) => Lt(b(x, &mut f), b(y, &mut f)),
            Le(x, y) => Le(b(x, &mut f), b(y, &mut f)),
            SetAdd(x, y) => SetAdd(b(x, &mut f), b(y, &mut f)),
            SetRemove(x, y) => SetRemove(b(x, &mut f), b(y, &mut f)),
            Member(x, y) => Member(b(x, &mut f), b(y, &mut f)),
            MapRemove(x, y) => MapRemove(b(x, &mut f), b(y, &mut f)),
            MapGet(x, y) => MapGet(b(x, &mut f), b(y, &mut f)),
            MapHasKey(x, y) => MapHasKey(b(x, &mut f), b(y, &mut f)),
            SeqRemoveAt(x, y) => SeqRemoveAt(b(x, &mut f), b(y, &mut f)),
            SeqAt(x, y) => SeqAt(b(x, &mut f), b(y, &mut f)),
            SeqIndexOf(x, y) => SeqIndexOf(b(x, &mut f), b(y, &mut f)),
            SeqLastIndexOf(x, y) => SeqLastIndexOf(b(x, &mut f), b(y, &mut f)),
            SeqContains(x, y) => SeqContains(b(x, &mut f), b(y, &mut f)),
            Ite(x, y, z) => Ite(b(x, &mut f), b(y, &mut f), b(z, &mut f)),
            MapPut(x, y, z) => MapPut(b(x, &mut f), b(y, &mut f), b(z, &mut f)),
            SeqInsertAt(x, y, z) => SeqInsertAt(b(x, &mut f), b(y, &mut f), b(z, &mut f)),
            SeqSetAt(x, y, z) => SeqSetAt(b(x, &mut f), b(y, &mut f), b(z, &mut f)),
            ForallInt { var, lo, hi, body } => ForallInt {
                var: var.clone(),
                lo: b(lo, &mut f),
                hi: b(hi, &mut f),
                body: b(body, &mut f),
            },
            ExistsInt { var, lo, hi, body } => ExistsInt {
                var: var.clone(),
                lo: b(lo, &mut f),
                hi: b(hi, &mut f),
                body: b(body, &mut f),
            },
        }
    }

    /// Returns the number of nodes in this term (a rough size/complexity
    /// measure, used in reports and to order prover work).
    ///
    /// The traversal is iterative with a single explicit stack, so counting a
    /// term never allocates a per-node `Vec` (unlike [`Term::children`]) and
    /// cannot overflow the call stack on deep terms.
    pub fn size(&self) -> usize {
        let mut count = 0usize;
        let mut stack: Vec<&Term> = vec![self];
        while let Some(t) = stack.pop() {
            count += 1;
            t.for_each_child(&mut |c| stack.push(c));
        }
        count
    }

    /// Returns the name of the bound variable if this term is a quantifier.
    pub fn binder(&self) -> Option<&str> {
        match self {
            Term::ForallInt { var, .. } | Term::ExistsInt { var, .. } => Some(var),
            _ => None,
        }
    }
}

/// A 128-bit hash of the term's structure: equal terms hash equally on every
/// thread and in every process (there is no seed), so the prover's
/// cross-thread obligation dedup cache can use it as a key. The derived
/// [`Hash`] walk, an unambiguous encoding of the tree, is fed word by word
/// into two independently mixed 64-bit lanes.
pub fn structural_hash(term: &Term) -> u128 {
    let mut lanes = Lanes(0x517C_C1B7_2722_0A95, 0x2545_F491_4F6C_DD1D);
    term.hash(&mut lanes);
    u128::from(lanes.0) | (u128::from(lanes.1) << 64)
}

struct Lanes(u64, u64);

impl Hasher for Lanes {
    fn write(&mut self, bytes: &[u8]) {
        self.write_usize(bytes.len());
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, x: u8) {
        self.write_u64(u64::from(x));
    }

    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0 ^ x)
            .wrapping_mul(0x0000_0100_0000_01B3)
            .rotate_left(23);
        self.1 = (self.1 ^ x.rotate_left(17))
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(29);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::*;

    #[test]
    fn true_false_recognition() {
        assert!(Term::BoolLit(true).is_true());
        assert!(Term::And(vec![]).is_true());
        assert!(Term::BoolLit(false).is_false());
        assert!(Term::Or(vec![]).is_false());
        assert!(!Term::BoolLit(true).is_false());
    }

    #[test]
    fn children_and_map_children_round_trip() {
        let t = and2(
            eq(var_elem("v1"), var_elem("v2")),
            member(var_elem("v1"), set_add(var_set("s"), var_elem("v2"))),
        );
        assert_eq!(t.children().len(), 2);
        let copy = t.map_children(|c| c.clone());
        assert_eq!(copy, t);
    }

    #[test]
    fn size_counts_nodes() {
        let v = var_elem("v");
        assert_eq!(v.size(), 1);
        let t = eq(v.clone(), v);
        assert_eq!(t.size(), 3);
    }

    #[test]
    fn binder_only_on_quantifiers() {
        let q = exists_int("i", int(0), seq_len(var_seq("s")), tru());
        assert_eq!(q.binder(), Some("i"));
        assert_eq!(tru().binder(), None);
    }

    #[test]
    fn structural_hash_is_thread_independent_and_separates_terms() {
        let samples = || {
            vec![
                iff(
                    member(var_elem("x"), set_add(var_set("s"), var_elem("y"))),
                    var_bool("r"),
                ),
                iff(
                    member(var_elem("y"), set_add(var_set("s"), var_elem("x"))),
                    var_bool("r"),
                ),
                var_bool("r"),
                var_int("r"),
                and(vec![]),
                or(vec![]),
                tru(),
                forall_int("i", int(0), int(3), var_bool("p")),
                exists_int("i", int(0), int(3), var_bool("p")),
                exists_int("j", int(0), int(3), var_bool("p")),
            ]
        };
        let here: Vec<u128> = samples().iter().map(structural_hash).collect();
        let there = std::thread::spawn(move || -> Vec<u128> {
            samples().iter().map(structural_hash).collect()
        })
        .join()
        .unwrap();
        assert_eq!(here, there, "equal terms hash equally on every thread");
        let mut distinct = here.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(
            distinct.len(),
            here.len(),
            "distinct samples, distinct hashes"
        );
    }

    #[test]
    fn map_children_preserves_quantifier_binder() {
        let q = forall_int("i", int(0), int(5), eq(var_int("i"), int(3)));
        let q2 = q.map_children(|c| c.clone());
        assert_eq!(q, q2);
        assert_eq!(q2.binder(), Some("i"));
    }
}
