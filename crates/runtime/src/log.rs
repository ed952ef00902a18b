//! Operation logs: what a transaction has executed so far.

use semcommute_logic::Value;

/// One executed operation, as recorded by the speculative runtime.
///
/// The entry carries everything the verified artifacts need later:
///
/// * the *between* commutativity conditions may reference the operation's
///   arguments, its recorded return value, and (for some sequence pairs)
///   the abstract state before it executed, and
/// * the inverse operation may need the arguments and the return value to
///   undo the effect (Table 5.10) — inverses never read the pre-state.
///
/// `pre_state` is a **projection**: it is populated only when some between
/// condition whose *first* operation is `op` reads the initial state `s1`
/// other than at keys (see
/// [`CommutativityGatekeeper::requires_pre_state`](crate::CommutativityGatekeeper::requires_pre_state),
/// decided once per operation when the gatekeeper is built). That happens
/// over sequences only. The gatekeeper's set and map conditions are
/// runtime forms that test the recorded return value `r1` where the catalog
/// reads `s1` — that is the point of recording it — and the `size`-first
/// pairs that still read `s1` read it at the live structure, at the
/// incoming key; so no set or map entry carries a pre-state. A sequence
/// pre-state is captured as a persistent [`Value`] handle (a `PSeq`
/// payload), which clones in O(1) from the runtime's
/// incrementally-maintained mirror: recording an entry never walks the
/// structure.
#[derive(Debug, Clone, PartialEq)]
pub struct LogEntry {
    /// The transaction that executed the operation.
    pub txn: u64,
    /// The operation name.
    pub op: String,
    /// The arguments.
    pub args: Vec<Value>,
    /// The recorded return value (`None` for void operations).
    pub result: Option<Value>,
    /// The abstract state immediately before the operation executed, as a
    /// logical value — recorded only for sequence operations whose between
    /// conditions read `s1` (`None` otherwise).
    pub pre_state: Option<Value>,
}
