//! Operation logs: what a transaction has executed so far.

use semcommute_logic::Value;

/// One executed operation, as recorded by the speculative runtime.
///
/// The entry carries everything the verified artifacts need later:
///
/// * the *between* commutativity conditions may reference the operation's
///   arguments, its recorded return value, and (for a handful of pairs) the
///   abstract state before it executed, and
/// * the inverse operation may need the arguments and the return value to
///   undo the effect (Table 5.10) — inverses never read the pre-state.
///
/// `pre_state` is a **projection**: it is populated only when some between
/// condition whose *first* operation is `op` actually reads the initial
/// state `s1` (see
/// [`CommutativityGatekeeper::requires_pre_state`](crate::CommutativityGatekeeper::requires_pre_state)
/// — under the compiled admission backend "reads" is derived from the
/// compiled program's actual `s1` slot reads, under the interpreter from a
/// syntactic free-variable scan; the two agree across the catalog).
/// Most recorded-variant between conditions test the recorded return value
/// `r1` instead — that is the point of recording it — so most entries carry
/// `None` here and cost nothing to record. When the state *is* needed it is
/// captured as a persistent [`Value`] handle (`PSet`/`PMap`/`PSeq` payloads),
/// which clones in O(1) from the runtime's incrementally-maintained mirror:
/// recording an entry never walks the structure.
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
    /// logical value — recorded only for operations whose between conditions
    /// read `s1` (`None` otherwise).
    pub pre_state: Option<Value>,
}

/// An append-ordered log of operations tagged with their transactions.
///
/// The runtime keeps its in-flight log per transaction, next to the
/// structure behind the structure mutex (see the
/// [executor's concurrency protocol](crate::executor)), so this type is no
/// longer the runtime's shared hot-path structure; it remains the convenient
/// flat shape for unit tests, benchmarks, and
/// [`CommutativityGatekeeper::admit`](crate::CommutativityGatekeeper::admit),
/// which all want "a few transactions' entries in execution order" without
/// standing up a whole runtime.
#[derive(Debug, Clone, Default)]
pub struct OperationLog {
    entries: Vec<LogEntry>,
}

impl OperationLog {
    /// Creates an empty log.
    pub fn new() -> OperationLog {
        OperationLog::default()
    }

    /// Appends an entry.
    pub fn record(&mut self, entry: LogEntry) {
        self.entries.push(entry);
    }

    /// All entries, oldest first.
    pub fn entries(&self) -> &[LogEntry] {
        &self.entries
    }

    /// Entries executed by transactions other than `txn`, oldest first.
    pub fn entries_of_others(&self, txn: u64) -> impl Iterator<Item = &LogEntry> {
        self.entries.iter().filter(move |e| e.txn != txn)
    }

    /// Entries executed by `txn`, oldest first.
    pub fn entries_of(&self, txn: u64) -> impl Iterator<Item = &LogEntry> {
        self.entries.iter().filter(move |e| e.txn == txn)
    }

    /// Removes (and returns) all entries of `txn` — used both on commit (the
    /// entries no longer constrain others) and on abort (the entries must be
    /// undone, newest first).
    pub fn remove_transaction(&mut self, txn: u64) -> Vec<LogEntry> {
        let mut removed = Vec::new();
        self.entries.retain(|e| {
            if e.txn == txn {
                removed.push(e.clone());
                false
            } else {
                true
            }
        });
        removed
    }

    /// The number of logged operations.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(txn: u64, op: &str) -> LogEntry {
        LogEntry {
            txn,
            op: op.to_string(),
            args: vec![Value::elem(1)],
            result: Some(Value::Bool(true)),
            pre_state: None,
        }
    }

    #[test]
    fn record_and_filter_by_transaction() {
        let mut log = OperationLog::new();
        assert!(log.is_empty());
        log.record(entry(1, "add"));
        log.record(entry(2, "remove"));
        log.record(entry(1, "contains"));
        assert_eq!(log.len(), 3);
        assert_eq!(log.entries_of(1).count(), 2);
        assert_eq!(log.entries_of_others(1).count(), 1);
        assert_eq!(log.entries_of_others(1).next().unwrap().op, "remove");
    }

    #[test]
    fn remove_transaction_extracts_in_order() {
        let mut log = OperationLog::new();
        log.record(entry(1, "add"));
        log.record(entry(2, "remove"));
        log.record(entry(1, "size"));
        let removed = log.remove_transaction(1);
        assert_eq!(removed.len(), 2);
        assert_eq!(removed[0].op, "add");
        assert_eq!(removed[1].op, "size");
        assert_eq!(log.len(), 1);
        assert_eq!(log.entries()[0].txn, 2);
    }
}
