//! A uniform handle over the six concrete data structures, and the tracked
//! wrapper the speculative runtime applies operations through: a version
//! counter for every structure, and a persistent mirror of the abstract
//! state for sequences only (see [`TrackedStructure`]).

use std::cell::OnceCell;
use std::fmt;

use semcommute_logic::{ElemId, Value, NULL_ELEM};
use semcommute_spec::{AbstractState, InterfaceId};
use semcommute_structures::{
    Abstraction, Accumulator, ArrayList, AssociationList, HashSet, HashTable, ListInterface,
    ListSet, MapInterface, SetInterface,
};

/// One of the six concrete data structures, together with name-based
/// operation dispatch.
///
/// The speculative runtime manipulates data structures through this handle:
/// operations are invoked by interface name (`"add"`, `"put"`, `"removeAt"`,
/// …) with logical [`Value`] arguments, return their result as a logical
/// value (using `null` for absent map values), and the abstraction function
/// is available for the commutativity gatekeeper.
#[derive(Debug, Clone)]
pub enum AnyStructure {
    /// An [`Accumulator`].
    Accumulator(Accumulator),
    /// A [`ListSet`].
    ListSet(ListSet),
    /// A [`HashSet`].
    HashSet(HashSet),
    /// An [`AssociationList`].
    AssociationList(AssociationList),
    /// A [`HashTable`].
    HashTable(HashTable),
    /// An [`ArrayList`].
    ArrayList(ArrayList),
}

/// An error dispatching an operation to a concrete structure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DispatchError {
    /// The operation is not part of the structure's interface.
    UnknownOperation(String),
    /// An argument had the wrong shape (e.g. an integer where an element was
    /// expected, or a null element).
    BadArgument {
        /// The operation being invoked.
        op: String,
        /// A description of the problem.
        reason: String,
    },
}

impl fmt::Display for DispatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DispatchError::UnknownOperation(op) => write!(f, "unknown operation `{op}`"),
            DispatchError::BadArgument { op, reason } => {
                write!(f, "bad argument to `{op}`: {reason}")
            }
        }
    }
}

impl std::error::Error for DispatchError {}

fn elem_arg(op: &str, args: &[Value], index: usize) -> Result<ElemId, DispatchError> {
    match args.get(index) {
        Some(Value::Elem(e)) if !e.is_null() => Ok(*e),
        Some(Value::Elem(_)) => Err(DispatchError::BadArgument {
            op: op.to_string(),
            reason: format!("argument {index} must not be null"),
        }),
        other => Err(DispatchError::BadArgument {
            op: op.to_string(),
            reason: format!("argument {index} must be an element, got {other:?}"),
        }),
    }
}

fn int_arg(op: &str, args: &[Value], index: usize) -> Result<i64, DispatchError> {
    match args.get(index) {
        Some(Value::Int(i)) => Ok(*i),
        other => Err(DispatchError::BadArgument {
            op: op.to_string(),
            reason: format!("argument {index} must be an integer, got {other:?}"),
        }),
    }
}

fn index_arg(
    op: &str,
    args: &[Value],
    index: usize,
    len: usize,
    inclusive: bool,
) -> Result<usize, DispatchError> {
    let raw = int_arg(op, args, index)?;
    let bound = if inclusive {
        len as i64
    } else {
        len as i64 - 1
    };
    if raw < 0 || raw > bound {
        return Err(DispatchError::BadArgument {
            op: op.to_string(),
            reason: format!("index {raw} out of range (size {len})"),
        });
    }
    Ok(raw as usize)
}

fn opt_elem(value: Option<ElemId>) -> Option<Value> {
    Some(Value::Elem(value.unwrap_or(NULL_ELEM)))
}

impl AnyStructure {
    /// Creates an empty structure of the given concrete kind, by name.
    /// Accepted names: `Accumulator`, `ListSet`, `HashSet`, `AssociationList`,
    /// `HashTable`, `ArrayList`.
    pub fn by_name(name: &str) -> Option<AnyStructure> {
        Some(match name {
            "Accumulator" => AnyStructure::Accumulator(Accumulator::new()),
            "ListSet" => AnyStructure::ListSet(ListSet::new()),
            "HashSet" => AnyStructure::HashSet(HashSet::new()),
            "AssociationList" => AnyStructure::AssociationList(AssociationList::new()),
            "HashTable" => AnyStructure::HashTable(HashTable::new()),
            "ArrayList" => AnyStructure::ArrayList(ArrayList::new()),
            _ => return None,
        })
    }

    /// The interface this structure implements.
    pub fn interface(&self) -> InterfaceId {
        match self {
            AnyStructure::Accumulator(_) => InterfaceId::Accumulator,
            AnyStructure::ListSet(_) | AnyStructure::HashSet(_) => InterfaceId::Set,
            AnyStructure::AssociationList(_) | AnyStructure::HashTable(_) => InterfaceId::Map,
            AnyStructure::ArrayList(_) => InterfaceId::List,
        }
    }

    /// The concrete structure's name.
    pub fn name(&self) -> &'static str {
        match self {
            AnyStructure::Accumulator(_) => "Accumulator",
            AnyStructure::ListSet(_) => "ListSet",
            AnyStructure::HashSet(_) => "HashSet",
            AnyStructure::AssociationList(_) => "AssociationList",
            AnyStructure::HashTable(_) => "HashTable",
            AnyStructure::ArrayList(_) => "ArrayList",
        }
    }

    /// The abstraction function.
    pub fn abstract_state(&self) -> AbstractState {
        match self {
            AnyStructure::Accumulator(s) => s.abstract_state(),
            AnyStructure::ListSet(s) => s.abstract_state(),
            AnyStructure::HashSet(s) => s.abstract_state(),
            AnyStructure::AssociationList(s) => s.abstract_state(),
            AnyStructure::HashTable(s) => s.abstract_state(),
            AnyStructure::ArrayList(s) => s.abstract_state(),
        }
    }

    /// Checks the representation invariant of the underlying structure.
    ///
    /// # Errors
    ///
    /// Returns the first violation found, as a human-readable message.
    pub fn check_invariants(&self) -> Result<(), String> {
        match self {
            AnyStructure::Accumulator(s) => s.check_invariants(),
            AnyStructure::ListSet(s) => s.check_invariants(),
            AnyStructure::HashSet(s) => s.check_invariants(),
            AnyStructure::AssociationList(s) => s.check_invariants(),
            AnyStructure::HashTable(s) => s.check_invariants(),
            AnyStructure::ArrayList(s) => s.check_invariants(),
        }
    }

    /// Invokes an interface operation by name.
    ///
    /// Operations whose precondition is violated (out-of-range index, null
    /// argument) return a [`DispatchError`] rather than panicking, so the
    /// speculative runtime can treat them as application errors.
    ///
    /// # Errors
    ///
    /// Returns [`DispatchError`] for unknown operations or ill-formed
    /// arguments.
    pub fn apply(&mut self, op: &str, args: &[Value]) -> Result<Option<Value>, DispatchError> {
        self.dispatch(op, args).map(|(result, _)| result)
    }

    /// [`apply`](AnyStructure::apply), also reporting whether the operation
    /// changed the abstract state, read off its result: `add` and `remove`
    /// on a set return whether they changed it; a map `put` changed it
    /// unless the previous value is the new one, a map `remove` if the key
    /// was mapped; `increase` unless the amount is zero; every sequence
    /// update counts (a `set` that rewrites the same element too).
    ///
    /// Forced inline into both callers: left to the compiler, it stayed an
    /// out-of-line call from [`TrackedStructure::apply`], which then cost
    /// about 10 ns per operation more than the plain apply on
    /// `set_read_mostly`'s script (`docs/PERF.md`).
    #[inline(always)]
    fn dispatch(&mut self, op: &str, args: &[Value]) -> Dispatched {
        let unknown = || DispatchError::UnknownOperation(op.to_string());
        match self {
            AnyStructure::Accumulator(s) => match op {
                "increase" => {
                    let amount = int_arg(op, args, 0)?;
                    s.increase(amount);
                    Ok((None, amount != 0))
                }
                "read" => Ok((Some(Value::Int(s.read())), false)),
                _ => Err(unknown()),
            },
            AnyStructure::ListSet(s) => apply_set(s, op, args),
            AnyStructure::HashSet(s) => apply_set(s, op, args),
            AnyStructure::AssociationList(s) => apply_map(s, op, args),
            AnyStructure::HashTable(s) => apply_map(s, op, args),
            AnyStructure::ArrayList(s) => apply_list(s, op, args),
        }
    }
}

/// A dispatched operation's result, and whether it changed the abstract
/// state.
type Dispatched = Result<(Option<Value>, bool), DispatchError>;

/// The element count behind `size`: a part of a split hash table takes it
/// on the first call and keeps it (see [`HashSet::count`]).
trait Count {
    fn count(&mut self) -> usize;
}

impl Count for ListSet {
    fn count(&mut self) -> usize {
        self.size()
    }
}

impl Count for HashSet {
    fn count(&mut self) -> usize {
        HashSet::count(self)
    }
}

impl Count for AssociationList {
    fn count(&mut self) -> usize {
        self.size()
    }
}

impl Count for HashTable {
    fn count(&mut self) -> usize {
        HashTable::count(self)
    }
}

fn apply_set<S: SetInterface + Count>(s: &mut S, op: &str, args: &[Value]) -> Dispatched {
    match op {
        "add" => {
            let added = s.add(elem_arg(op, args, 0)?);
            Ok((Some(Value::Bool(added)), added))
        }
        "contains" => Ok((Some(Value::Bool(s.contains(elem_arg(op, args, 0)?))), false)),
        "remove" => {
            let removed = s.remove(elem_arg(op, args, 0)?);
            Ok((Some(Value::Bool(removed)), removed))
        }
        "size" => Ok((Some(Value::Int(s.count() as i64)), false)),
        _ => Err(DispatchError::UnknownOperation(op.to_string())),
    }
}

fn apply_map<M: MapInterface + Count>(m: &mut M, op: &str, args: &[Value]) -> Dispatched {
    match op {
        "containsKey" => Ok((
            Some(Value::Bool(m.contains_key(elem_arg(op, args, 0)?))),
            false,
        )),
        "get" => Ok((opt_elem(m.get(elem_arg(op, args, 0)?)), false)),
        "put" => {
            let value = elem_arg(op, args, 1)?;
            let previous = m.put(elem_arg(op, args, 0)?, value);
            Ok((opt_elem(previous), previous != Some(value)))
        }
        "remove" => {
            let previous = m.remove(elem_arg(op, args, 0)?);
            Ok((opt_elem(previous), previous.is_some()))
        }
        "size" => Ok((Some(Value::Int(m.count() as i64)), false)),
        _ => Err(DispatchError::UnknownOperation(op.to_string())),
    }
}

fn apply_list<L: ListInterface>(l: &mut L, op: &str, args: &[Value]) -> Dispatched {
    let len = l.size();
    match op {
        "addAt" => {
            let i = index_arg(op, args, 0, len, true)?;
            l.add_at(i, elem_arg(op, args, 1)?);
            Ok((None, true))
        }
        "get" => {
            let i = index_arg(op, args, 0, len, false)?;
            Ok((Some(Value::Elem(l.get(i))), false))
        }
        "indexOf" => Ok((
            Some(Value::Int(
                l.index_of(elem_arg(op, args, 0)?).map_or(-1, |i| i as i64),
            )),
            false,
        )),
        "lastIndexOf" => Ok((
            Some(Value::Int(
                l.last_index_of(elem_arg(op, args, 0)?)
                    .map_or(-1, |i| i as i64),
            )),
            false,
        )),
        "removeAt" => {
            let i = index_arg(op, args, 0, len, false)?;
            Ok((Some(Value::Elem(l.remove_at(i))), true))
        }
        "set" => {
            let i = index_arg(op, args, 0, len, false)?;
            Ok((Some(Value::Elem(l.set(i, elem_arg(op, args, 1)?))), true))
        }
        "size" => Ok((Some(Value::Int(l.size() as i64)), false)),
        _ => Err(DispatchError::UnknownOperation(op.to_string())),
    }
}

impl AnyStructure {
    /// Splits a set or map into `1 << bits` structures of its kind by key
    /// [stripe](semcommute_structures::stripe), part `i` holding the keys of
    /// stripe `i` (a hash table moves whole bucket chains, a list relinks
    /// its nodes); an Accumulator or ArrayList stays whole, as one part.
    pub(crate) fn split(self, bits: u32) -> Vec<AnyStructure> {
        match self {
            AnyStructure::ListSet(s) => s
                .split(bits)
                .into_iter()
                .map(AnyStructure::ListSet)
                .collect(),
            AnyStructure::HashSet(s) => s
                .split(bits)
                .into_iter()
                .map(AnyStructure::HashSet)
                .collect(),
            AnyStructure::AssociationList(m) => m
                .split(bits)
                .into_iter()
                .map(AnyStructure::AssociationList)
                .collect(),
            AnyStructure::HashTable(m) => m
                .split(bits)
                .into_iter()
                .map(AnyStructure::HashTable)
                .collect(),
            whole @ (AnyStructure::Accumulator(_) | AnyStructure::ArrayList(_)) => vec![whole],
        }
    }

    /// Every key the structure holds: a set's elements, a map's domain;
    /// none for an Accumulator or ArrayList.
    pub(crate) fn keys(&self) -> Vec<ElemId> {
        match self {
            AnyStructure::ListSet(s) => s.iter().collect(),
            AnyStructure::HashSet(s) => s.iter().collect(),
            AnyStructure::AssociationList(m) => m.iter().map(|(k, _)| k).collect(),
            AnyStructure::HashTable(m) => m.iter().map(|(k, _)| k).collect(),
            AnyStructure::Accumulator(_) | AnyStructure::ArrayList(_) => Vec::new(),
        }
    }

    /// The abstract state restricted to `keys`, answered by the concrete
    /// `contains` / `get` — never a walk of the structure. For a set, the
    /// keys it contains; for a map, the keys it maps, with their values.
    /// Keys that are not elements, or are `null`, are never members and are
    /// skipped. `None` for a sequence or an accumulator, whose state is not
    /// keyed.
    pub fn project<'a>(&self, keys: impl IntoIterator<Item = &'a Value>) -> Option<Value> {
        let keys = keys.into_iter().filter_map(|key| match key {
            Value::Elem(e) if !e.is_null() => Some(*e),
            _ => None,
        });
        Some(match self {
            AnyStructure::ListSet(s) => Value::set_of(keys.filter(|&k| s.contains(k))),
            AnyStructure::HashSet(s) => Value::set_of(keys.filter(|&k| s.contains(k))),
            AnyStructure::AssociationList(m) => {
                Value::map_of(keys.filter_map(|k| Some((k, m.get(k)?))))
            }
            AnyStructure::HashTable(m) => Value::map_of(keys.filter_map(|k| Some((k, m.get(k)?)))),
            AnyStructure::Accumulator(_) | AnyStructure::ArrayList(_) => return None,
        })
    }
}

/// A concrete structure with a version counter, and for sequences an
/// incrementally-maintained mirror of its abstract state.
///
/// The speculative runtime's gatekeeper evaluates between conditions against
/// the abstract state a logged operation saw. Over sequences, conditions
/// read positions, so the state must be at hand as a logical value:
/// recomputing it through the abstraction function
/// ([`AnyStructure::abstract_state`]) walks the whole structure — O(size)
/// per logged operation. For an `ArrayList`, `TrackedStructure` instead keeps
/// the abstract state as a logical [`Value`] (a `PSeq` payload, one
/// copy-on-write array) and updates it in step with every dispatched
/// operation. Taking a snapshot for a log entry is an O(1) handle clone
/// ([`state_value`](TrackedStructure::state_value)); the first mirror update
/// after a logged pre-state copies the array once, the same O(size) that the
/// concrete `ArrayList`'s shift already pays, and later updates edit the
/// mirror in place until the next snapshot. Set and map
/// conditions read the state only at keys, which the concrete structure
/// answers ([`AnyStructure::project`]), so sets, maps and the accumulator
/// keep no mirror: [`apply`](TrackedStructure::apply) is the concrete apply
/// plus a version bump read off the result.
///
/// [`state_value`](TrackedStructure::state_value) equals
/// `inner().abstract_state().to_value()` after every successful
/// [`apply`](TrackedStructure::apply) for every structure (failed dispatches
/// change neither the structure nor the version); the runtime's tests pin
/// this.
#[derive(Debug, Clone)]
pub struct TrackedStructure {
    inner: AnyStructure,
    /// The abstract state as a logical value. For a sequence, the mirror:
    /// always present, updated by every apply. Otherwise materialised
    /// through the abstraction function by the first
    /// [`state_value`](TrackedStructure::state_value) after a change, and
    /// dropped by the next change.
    state: OnceCell<Value>,
    /// Successful operations that changed the abstract state so far.
    version: u64,
}

impl TrackedStructure {
    /// Wraps a structure. Only a sequence computes its mirror through the
    /// abstraction function (the only full walk this type makes for it);
    /// every other structure is wrapped as is.
    pub fn new(inner: AnyStructure) -> TrackedStructure {
        let state = OnceCell::new();
        if let AnyStructure::ArrayList(_) = inner {
            let _ = state.set(inner.abstract_state().to_value());
        }
        TrackedStructure {
            inner,
            state,
            version: 0,
        }
    }

    /// The wrapped concrete structure.
    pub fn inner(&self) -> &AnyStructure {
        &self.inner
    }

    /// The wrapped structure's name (e.g. `"HashSet"`), for diagnostics that
    /// must not pay a lock acquisition — retry reports capture it at runtime
    /// construction.
    pub fn name(&self) -> &'static str {
        self.inner.name()
    }

    /// The abstract state as a logical value. For a sequence this borrows
    /// the mirror, and cloning the returned reference is O(1) — the payload
    /// is a shared copy-on-write handle. For any other structure the first call after
    /// a change walks the structure through the abstraction function; the
    /// runtime never calls it on its admission path.
    pub fn state_value(&self) -> &Value {
        self.state
            .get_or_init(|| self.inner.abstract_state().to_value())
    }

    /// How many applied operations have changed the abstract state so far.
    /// Equal versions mean an unchanged state; an operation that leaves the
    /// state as it was (`add` of a present element, say) does not count.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Invokes an interface operation by name, keeping the mirror (for a
    /// sequence) and the version in step.
    ///
    /// # Errors
    ///
    /// Returns [`DispatchError`] for unknown operations or ill-formed
    /// arguments; the structure and the version are unchanged in that case.
    pub fn apply(&mut self, op: &str, args: &[Value]) -> Result<Option<Value>, DispatchError> {
        let (result, changed) = self.inner.dispatch(op, args)?;
        if changed {
            self.version += 1;
            if let AnyStructure::ArrayList(_) = self.inner {
                let mirror = self.state.get_mut().expect("a sequence keeps its mirror");
                apply_to_mirror(mirror, op, args);
            } else if self.state.get().is_some() {
                self.state = OnceCell::new();
            }
        }
        Ok(result)
    }
}

/// Applies a sequence operation's effect to a sequence state value alone,
/// the way [`TrackedStructure::apply`] updates its mirror, with no concrete
/// structure behind it. Admission uses it to roll a copy of the live state
/// back past a transaction's logged operations. Returns `false`, leaving
/// `state` unchanged, if a list index is out of range; the argument shapes
/// are those of a dispatched operation or of its verified inverse.
pub(crate) fn apply_to_state(state: &mut Value, op: &str, args: &[Value]) -> bool {
    if let (Value::Seq(seq), Some(Value::Int(index))) = (&*state, args.first()) {
        let len = seq.len() as i64;
        let in_range = match op {
            "addAt" => (0..=len).contains(index),
            "removeAt" | "set" => (0..len).contains(index),
            _ => true,
        };
        if !in_range {
            return false;
        }
    }
    apply_to_mirror(state, op, args);
    true
}

/// Applies a sequence update's effect to a mirror value whose argument
/// shapes (and list indices) are known to be valid; observers leave it as
/// it is.
fn apply_to_mirror(mirror: &mut Value, op: &str, args: &[Value]) {
    fn elem(args: &[Value], index: usize) -> ElemId {
        match &args[index] {
            Value::Elem(e) => *e,
            other => unreachable!("dispatch validated argument {index}, got {other:?}"),
        }
    }
    fn int(args: &[Value], index: usize) -> usize {
        match &args[index] {
            Value::Int(i) => *i as usize,
            other => unreachable!("dispatch validated argument {index}, got {other:?}"),
        }
    }
    let Value::Seq(seq) = mirror else {
        unreachable!("only sequences keep a mirror, got {mirror:?}")
    };
    match op {
        "addAt" => seq.insert(int(args, 0), elem(args, 1)),
        "removeAt" => {
            seq.remove(int(args, 0));
        }
        "set" => {
            seq.set(int(args, 0), elem(args, 1));
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semcommute_spec::apply_op;

    #[test]
    fn by_name_covers_all_structures() {
        for name in [
            "Accumulator",
            "ListSet",
            "HashSet",
            "AssociationList",
            "HashTable",
            "ArrayList",
        ] {
            let s = AnyStructure::by_name(name).unwrap();
            assert_eq!(s.name(), name);
            assert!(s.check_invariants().is_ok());
        }
        assert!(AnyStructure::by_name("TreeSet").is_none());
    }

    #[test]
    #[allow(clippy::type_complexity)]
    fn dispatch_matches_abstract_semantics() {
        // Drive each structure through a short trace and check the return
        // values and abstraction against the executable specification.
        let traces: Vec<(&str, Vec<(&str, Vec<Value>)>)> = vec![
            (
                "HashSet",
                vec![
                    ("add", vec![Value::elem(1)]),
                    ("add", vec![Value::elem(1)]),
                    ("contains", vec![Value::elem(1)]),
                    ("remove", vec![Value::elem(2)]),
                    ("size", vec![]),
                ],
            ),
            (
                "AssociationList",
                vec![
                    ("put", vec![Value::elem(1), Value::elem(10)]),
                    ("put", vec![Value::elem(1), Value::elem(11)]),
                    ("get", vec![Value::elem(2)]),
                    ("remove", vec![Value::elem(1)]),
                    ("size", vec![]),
                ],
            ),
            (
                "ArrayList",
                vec![
                    ("addAt", vec![Value::Int(0), Value::elem(5)]),
                    ("addAt", vec![Value::Int(1), Value::elem(6)]),
                    ("set", vec![Value::Int(0), Value::elem(7)]),
                    ("indexOf", vec![Value::elem(6)]),
                    ("removeAt", vec![Value::Int(0)]),
                ],
            ),
            (
                "Accumulator",
                vec![
                    ("increase", vec![Value::Int(5)]),
                    ("increase", vec![Value::Int(-2)]),
                    ("read", vec![]),
                ],
            ),
        ];
        for (name, trace) in traces {
            let mut concrete = AnyStructure::by_name(name).unwrap();
            let iface = semcommute_spec::interface_by_id(concrete.interface());
            let mut abstract_state = concrete.abstract_state();
            for (op, args) in trace {
                let got = concrete.apply(op, &args).unwrap();
                let (next, expected) = apply_op(&iface, &abstract_state, op, &args).unwrap();
                assert_eq!(got, expected, "{name}.{op} return value");
                abstract_state = next;
                assert_eq!(
                    concrete.abstract_state(),
                    abstract_state,
                    "{name}.{op} state"
                );
                assert!(concrete.check_invariants().is_ok());
            }
        }
    }

    #[test]
    fn bad_arguments_are_reported_not_panicking() {
        let mut l = AnyStructure::by_name("ArrayList").unwrap();
        assert!(matches!(
            l.apply("get", &[Value::Int(0)]),
            Err(DispatchError::BadArgument { .. })
        ));
        assert!(matches!(
            l.apply("addAt", &[Value::Int(3), Value::elem(1)]),
            Err(DispatchError::BadArgument { .. })
        ));
        let mut s = AnyStructure::by_name("HashSet").unwrap();
        assert!(matches!(
            s.apply("add", &[Value::null()]),
            Err(DispatchError::BadArgument { .. })
        ));
        assert!(matches!(
            s.apply("push", &[]),
            Err(DispatchError::UnknownOperation(_))
        ));
        let err = s.apply("add", &[Value::Int(3)]).unwrap_err();
        assert!(err.to_string().contains("must be an element"));
    }

    #[test]
    fn out_of_range_list_indices_are_op_errors_not_panics() {
        // `ArrayList`'s `ListInterface` methods `assert!`/`expect` on their
        // bounds; this pins that no index arriving through the op surface
        // can reach those panics — `index_arg` rejects it first.
        let mut l = AnyStructure::by_name("ArrayList").unwrap();
        for (i, e) in [4u32, 5, 6].iter().enumerate() {
            l.apply("addAt", &[Value::Int(i as i64), Value::elem(*e)])
                .unwrap();
        }
        let before = l.abstract_state();
        // First index past the valid range for each op (`addAt` admits
        // `len` itself), plus a negative index for each.
        let attempts: &[(&str, Vec<Value>)] = &[
            ("get", vec![Value::Int(3)]),
            ("get", vec![Value::Int(-1)]),
            ("removeAt", vec![Value::Int(3)]),
            ("removeAt", vec![Value::Int(-2)]),
            ("set", vec![Value::Int(3), Value::elem(9)]),
            ("set", vec![Value::Int(-1), Value::elem(9)]),
            ("addAt", vec![Value::Int(4), Value::elem(9)]),
            ("addAt", vec![Value::Int(-1), Value::elem(9)]),
            ("get", vec![Value::Int(i64::MAX)]),
            ("addAt", vec![Value::Int(i64::MIN), Value::elem(9)]),
        ];
        for (op, args) in attempts {
            let err = l.apply(op, args).unwrap_err();
            assert!(
                matches!(&err, DispatchError::BadArgument { .. }),
                "{op}{args:?}: {err}"
            );
            assert!(err.to_string().contains("out of range"), "{op}: {err}");
        }
        // Rejected dispatches leave the structure untouched.
        assert_eq!(l.abstract_state(), before);
        assert!(l.check_invariants().is_ok());
    }

    #[test]
    fn tracked_state_stays_equal_to_the_abstraction_function() {
        // Drive every structure through a mixed trace (including no-op
        // updates and failing dispatches) and check `state_value` — the
        // mirror for the sequence, the materialised abstraction for the
        // rest — and the version against the ground-truth abstraction after
        // every step.
        type Trace<'a> = (&'a str, &'a [(&'a str, &'a [Value])]);
        let traces: &[Trace] = &[
            (
                "HashSet",
                &[
                    ("add", &[Value::elem(1)]),
                    ("add", &[Value::elem(1)]),
                    ("remove", &[Value::elem(2)]),
                    ("remove", &[Value::elem(1)]),
                    ("contains", &[Value::elem(1)]),
                    ("add", &[Value::null()]), // dispatch error: no change
                ],
            ),
            (
                "HashTable",
                &[
                    ("put", &[Value::elem(1), Value::elem(10)]),
                    ("put", &[Value::elem(1), Value::elem(11)]),
                    ("remove", &[Value::elem(2)]),
                    ("remove", &[Value::elem(1)]),
                    ("put", &[Value::elem(3), Value::elem(30)]),
                    ("put", &[Value::elem(3), Value::elem(30)]), // same value: no change
                    ("size", &[]),
                ],
            ),
            (
                "ArrayList",
                &[
                    ("addAt", &[Value::Int(0), Value::elem(5)]),
                    ("addAt", &[Value::Int(1), Value::elem(6)]),
                    ("set", &[Value::Int(0), Value::elem(7)]),
                    ("removeAt", &[Value::Int(1)]),
                    ("removeAt", &[Value::Int(5)]), // dispatch error: no change
                    ("get", &[Value::Int(0)]),
                ],
            ),
            (
                "Accumulator",
                &[
                    ("increase", &[Value::Int(5)]),
                    ("increase", &[Value::Int(0)]), // no change
                    ("increase", &[Value::Int(-9)]),
                    ("read", &[]),
                ],
            ),
        ];
        for (name, trace) in traces {
            let mut tracked = TrackedStructure::new(AnyStructure::by_name(name).unwrap());
            for (op, args) in *trace {
                let before = tracked.state_value().clone();
                let version = tracked.version();
                let applied = tracked.apply(op, args).is_ok();
                assert_eq!(
                    *tracked.state_value(),
                    tracked.inner().abstract_state().to_value(),
                    "{name}.{op} state drifted"
                );
                // The version counts exactly the operations that changed the
                // state (no trace step rewrites an element with itself).
                assert_eq!(
                    tracked.version() != version,
                    *tracked.state_value() != before,
                    "{name}.{op} version"
                );
                // The sequence's state-only form lands on the same value.
                if applied && *name == "ArrayList" {
                    let mut copy = before.clone();
                    assert!(apply_to_state(&mut copy, op, args), "{name}.{op}");
                    assert_eq!(copy, *tracked.state_value(), "{name}.{op} state-only apply");
                }
            }
        }
    }

    /// Only the sequence keeps a mirror; the other structures are wrapped
    /// without a walk and materialise their state only when asked.
    #[test]
    fn only_sequences_keep_a_mirror() {
        for name in [
            "Accumulator",
            "ListSet",
            "HashSet",
            "AssociationList",
            "HashTable",
        ] {
            let tracked = TrackedStructure::new(AnyStructure::by_name(name).unwrap());
            assert!(tracked.state.get().is_none(), "{name}");
        }
        let list = TrackedStructure::new(AnyStructure::by_name("ArrayList").unwrap());
        assert!(matches!(list.state.get(), Some(Value::Seq(_))));
    }

    #[test]
    fn projections_answer_membership_and_lookup_at_the_keys() {
        let mut set = AnyStructure::by_name("HashSet").unwrap();
        let mut map = AnyStructure::by_name("HashTable").unwrap();
        for k in [1, 2, 3] {
            set.apply("add", &[Value::elem(k)]).unwrap();
            map.apply("put", &[Value::elem(k), Value::elem(10 * k)])
                .unwrap();
        }
        let keys = [Value::elem(2), Value::elem(7), Value::null(), Value::Int(1)];
        assert_eq!(
            set.project(&keys),
            Some(Value::set_of([semcommute_logic::ElemId(2)]))
        );
        assert_eq!(
            map.project(&keys),
            Some(Value::map_of([(
                semcommute_logic::ElemId(2),
                semcommute_logic::ElemId(20)
            )]))
        );
        assert_eq!(
            AnyStructure::by_name("ArrayList").unwrap().project(&keys),
            None
        );
    }

    #[test]
    fn state_only_apply_refuses_out_of_range_list_indices() {
        let mut state = TrackedStructure::new(AnyStructure::by_name("ArrayList").unwrap())
            .state_value()
            .clone();
        assert!(apply_to_state(
            &mut state,
            "addAt",
            &[Value::Int(0), Value::elem(1)]
        ));
        let one = state.clone();
        for (op, args) in [
            ("addAt", vec![Value::Int(2), Value::elem(2)]),
            ("addAt", vec![Value::Int(-1), Value::elem(2)]),
            ("removeAt", vec![Value::Int(1)]),
            ("set", vec![Value::Int(1), Value::elem(2)]),
        ] {
            assert!(!apply_to_state(&mut state, op, &args), "{op} {args:?}");
            assert_eq!(state, one, "{op} {args:?} changed the state");
        }
        assert!(apply_to_state(&mut state, "removeAt", &[Value::Int(0)]));
    }
}
