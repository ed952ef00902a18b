//! The proof-hint catalog for the hard ArrayList testing methods (Table 5.9).
//!
//! The paper reports that 57 of the 1530 generated commutativity testing
//! methods — all on ArrayList, all involving the index-shifting operations
//! together with `indexOf` / `lastIndexOf` or the completeness of
//! update/update pairs — do not verify automatically and require 201 Jahob
//! proof-language commands (128 `note`, 51 `assuming`, 22 `pickWitness`).
//!
//! This module attaches the analogous proof guidance to the same classes of
//! methods. Every hint is a *true* lemma (its side obligation is verified
//! like any other obligation):
//!
//! * membership-preservation notes (`addAt` never removes an element;
//!   `removeAt` never adds one) — the contraposition lemmas the paper
//!   describes for the `indexOf` combinations,
//! * `assuming` commands that identify the case the provers need help with
//!   (the element is absent from the intermediate state / the query hits the
//!   removed position), and
//! * length-accounting notes for the completeness methods of update/update
//!   pairs, which identify how many elements each final state holds.
//!
//! With our finite-model back-end the hints are not *required* for the
//! verification to go through (the enumeration covers the relevant sequences
//! directly); they are attached to reproduce the structure and accounting of
//! Table 5.9 and are verified together with the methods that carry them.
//! The `semcommute-bench` binary `table_5_9` prints the command counts.

use semcommute_logic::build::*;
use semcommute_logic::Term;
use semcommute_prover::Hint;
use semcommute_spec::InterfaceId;

use crate::condition::CommutativityCondition;
use crate::kind::ConditionKind;

/// State-variable names inside generated methods (kept in sync with
/// `crate::template`).
const SA1: &str = "sa_1";
const SB1: &str = "sb_1";
const SA2: &str = "sa_2";
const SB2: &str = "sb_2";

fn is_shift_op(op: &str) -> bool {
    matches!(op, "addAt" | "removeAt")
}

fn is_index_query(op: &str) -> bool {
    matches!(op, "indexOf" | "lastIndexOf")
}

fn is_update(op: &str) -> bool {
    matches!(op, "addAt" | "removeAt" | "set")
}

fn length_delta(op: &str) -> i64 {
    match op {
        "addAt" => 1,
        "removeAt" => -1,
        _ => 0,
    }
}

/// The proof hints attached to the testing method generated for `cond`
/// (soundness or completeness). Returns an empty vector for methods that
/// verify without guidance — everything except the hard ArrayList classes.
pub fn hints_for(cond: &CommutativityCondition, soundness: bool) -> Vec<Hint> {
    if cond.interface != InterfaceId::List || cond.kind == ConditionKind::Before {
        return Vec::new();
    }
    let first = cond.first.op.as_str();
    let second = cond.second.op.as_str();

    if soundness && is_shift_op(first) && is_index_query(second) {
        // Soundness of addAt/removeAt followed by indexOf/lastIndexOf: the
        // query argument is v2, the intermediate state is sa_1, and (for
        // addAt) the freshly inserted element is v1.
        let mut hints = shift_then_query_hints(first, "v2", SA1);
        if first == "addAt" {
            hints.extend(witness_for_inserted_element("v1", SA1));
        }
        return hints;
    }
    if soundness && is_index_query(first) && is_shift_op(second) {
        // Soundness of indexOf/lastIndexOf followed by addAt/removeAt: in the
        // reverse order the shift runs first, producing sb_1; the query
        // argument is v1, the shift index is i2, and (for addAt) the freshly
        // inserted element is v2.
        let mut hints = query_then_shift_hints(second, "v1", "i2", SB1);
        if second == "addAt" {
            hints.extend(witness_for_inserted_element("v2", SB1));
        }
        return hints;
    }
    if !soundness && cond.kind == ConditionKind::After && is_update(first) && is_update(second) {
        // Completeness of update/update pairs: length accounting identifies
        // the final states, and the i1 = i2 case is singled out.
        return update_update_completeness_hints(cond, first, second);
    }
    if !soundness
        && cond.kind == ConditionKind::After
        && is_shift_op(first)
        && is_index_query(second)
    {
        return shift_then_query_hints(first, "v2", SA1);
    }
    Vec::new()
}

/// A `note` introducing the existential fact that the element just inserted
/// by `addAt` occurs somewhere in the post-insertion state, followed by a
/// `pickWitness` naming its position — the witness-manipulation pattern the
/// paper uses for the shifted-position case analyses.
fn witness_for_inserted_element(value_arg: &str, state: &str) -> Vec<Hint> {
    let existential = exists_int(
        "j",
        int(0),
        seq_len(var_seq(state)),
        eq(seq_at(var_seq(state), var_int("j")), var_elem(value_arg)),
    );
    vec![
        Hint::Note(existential.clone()),
        Hint::PickWitness {
            witness: format!("w_{value_arg}"),
            existential,
        },
    ]
}

/// Hints for a shift operation (`addAt` / `removeAt`) followed by an index
/// query over `value_arg`, with the intermediate state named `mid_state`.
fn shift_then_query_hints(shift_op: &str, value_arg: &str, mid_state: &str) -> Vec<Hint> {
    let v = || var_elem(value_arg);
    let s1 = || var_seq("s1");
    let mid = || var_seq(mid_state);
    match shift_op {
        "addAt" => vec![
            // Insertion preserves membership.
            Hint::Note(implies(seq_contains(s1(), v()), seq_contains(mid(), v()))),
            // If the element is absent from the intermediate state it was
            // already absent initially (the contraposition the paper proves).
            Hint::Assuming {
                hypothesis: lt(seq_index_of(mid(), v()), int(0)),
                conclusion: lt(seq_index_of(s1(), v()), int(0)),
            },
        ],
        _ => vec![
            // Removal never introduces elements.
            Hint::Note(implies(
                not(seq_contains(s1(), v())),
                not(seq_contains(mid(), v())),
            )),
            // If the first occurrence is exactly the removed position, the
            // element really is stored there (identifies the case and the
            // position, as in the paper's adjacent-copies analysis).
            Hint::Assuming {
                hypothesis: eq(seq_index_of(s1(), v()), var_int("i1")),
                conclusion: implies(
                    ge(seq_index_of(s1(), v()), int(0)),
                    eq(seq_at(s1(), var_int("i1")), v()),
                ),
            },
        ],
    }
}

/// Hints for an index query followed by a shift operation: the reverse order
/// applies the shift first, producing `shifted_state`.
fn query_then_shift_hints(
    shift_op: &str,
    value_arg: &str,
    index_arg: &str,
    shifted_state: &str,
) -> Vec<Hint> {
    let v = || var_elem(value_arg);
    let s1 = || var_seq("s1");
    let shifted = || var_seq(shifted_state);
    match shift_op {
        "addAt" => vec![
            Hint::Note(implies(
                seq_contains(s1(), v()),
                seq_contains(shifted(), v()),
            )),
            Hint::Assuming {
                hypothesis: lt(seq_index_of(shifted(), v()), int(0)),
                conclusion: lt(seq_index_of(s1(), v()), int(0)),
            },
        ],
        _ => vec![
            Hint::Note(implies(
                not(seq_contains(s1(), v())),
                not(seq_contains(shifted(), v())),
            )),
            Hint::Assuming {
                hypothesis: eq(seq_index_of(s1(), v()), var_int(index_arg)),
                conclusion: implies(
                    ge(seq_index_of(s1(), v()), int(0)),
                    eq(seq_at(s1(), var_int(index_arg)), v()),
                ),
            },
        ],
    }
}

/// Length-accounting hints for the completeness methods of update/update
/// ArrayList pairs.
fn update_update_completeness_hints(
    cond: &CommutativityCondition,
    first: &str,
    second: &str,
) -> Vec<Hint> {
    let s1_len = || seq_len(var_seq("s1"));
    let total = length_delta(first) + length_delta(second);
    let first_updates = first != "size";
    let second_updates = second != "size";
    let sa_final = if second_updates {
        SA2
    } else if first_updates {
        SA1
    } else {
        "s1"
    };
    let sb_final = if first_updates {
        SB2
    } else if second_updates {
        SB1
    } else {
        "s1"
    };
    let len_of = |state: &str, delta: i64| -> Term {
        eq(seq_len(var_seq(state)), add(s1_len(), int(delta)))
    };
    let mut hints = vec![
        Hint::Note(len_of(sa_final, total)),
        Hint::Note(len_of(sb_final, total)),
    ];
    if cond.first.op != "set" || cond.second.op != "set" {
        // Identify the equal-index case explicitly, as the paper's assuming
        // commands do for the hard completeness methods.
        let mid_delta = length_delta(first);
        let mid_state = if first_updates { SA1 } else { "s1" };
        hints.push(Hint::Assuming {
            hypothesis: eq(var_int("i1"), var_int("i2")),
            conclusion: len_of(mid_state, mid_delta),
        });
    }
    hints
}

/// Summary of the hint catalog: how many methods carry hints and how many
/// commands of each kind they use (the data behind our Table 5.9 analog).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HintSummary {
    /// Number of testing methods that carry at least one hint.
    pub hinted_methods: usize,
    /// Number of `note` commands.
    pub note: usize,
    /// Number of `assuming` commands.
    pub assuming: usize,
    /// Number of `pickWitness` commands.
    pub pick_witness: usize,
}

impl HintSummary {
    /// Total number of proof-language commands.
    pub fn total(&self) -> usize {
        self.note + self.assuming + self.pick_witness
    }
}

/// Computes the hint summary over the full catalog.
pub fn hint_summary() -> HintSummary {
    let mut summary = HintSummary::default();
    for cond in crate::catalog::full_catalog() {
        for soundness in [true, false] {
            let hints = hints_for(&cond, soundness);
            if hints.is_empty() {
                continue;
            }
            summary.hinted_methods += 1;
            for h in &hints {
                match h {
                    Hint::Note(_) => summary.note += 1,
                    Hint::Assuming { .. } => summary.assuming += 1,
                    Hint::PickWitness { .. } => summary.pick_witness += 1,
                }
            }
        }
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::interface_catalog;
    use crate::variant::OpVariant;

    fn cond(first: OpVariant, second: OpVariant, kind: ConditionKind) -> CommutativityCondition {
        interface_catalog(InterfaceId::List)
            .into_iter()
            .find(|c| c.first == first && c.second == second && c.kind == kind)
            .expect("condition exists")
    }

    #[test]
    fn only_hard_array_list_methods_carry_hints() {
        // Set-interface methods never carry hints.
        for c in interface_catalog(InterfaceId::Set) {
            assert!(hints_for(&c, true).is_empty());
            assert!(hints_for(&c, false).is_empty());
        }
        // Before-kind ArrayList methods never carry hints (they verified as
        // generated in the paper as well — the hard ones are between/after).
        let c = cond(
            OpVariant::recorded("addAt"),
            OpVariant::recorded("indexOf"),
            ConditionKind::Before,
        );
        assert!(hints_for(&c, true).is_empty());
    }

    #[test]
    fn soundness_of_add_at_index_of_gets_note_assuming_and_witness() {
        let c = cond(
            OpVariant::recorded("addAt"),
            OpVariant::recorded("indexOf"),
            ConditionKind::Between,
        );
        let hints = hints_for(&c, true);
        assert_eq!(hints.len(), 4);
        assert_eq!(hints[0].command_name(), "note");
        assert_eq!(hints[1].command_name(), "assuming");
        assert_eq!(hints[2].command_name(), "note");
        assert_eq!(hints[3].command_name(), "pickWitness");
        // removeAt-first methods use the contraposition lemmas instead of the
        // witness pattern.
        let c = cond(
            OpVariant::recorded("removeAt"),
            OpVariant::recorded("lastIndexOf"),
            ConditionKind::After,
        );
        let hints = hints_for(&c, true);
        assert!(hints.iter().all(|h| h.command_name() != "pickWitness"));
    }

    #[test]
    fn completeness_of_update_pairs_gets_length_notes() {
        let c = cond(
            OpVariant::discarded("removeAt"),
            OpVariant::discarded("removeAt"),
            ConditionKind::After,
        );
        let hints = hints_for(&c, false);
        assert!(hints.len() >= 2);
        assert!(hints.iter().filter(|h| h.command_name() == "note").count() >= 2);
    }

    #[test]
    fn summary_counts_hinted_methods_and_commands() {
        let summary = hint_summary();
        assert!(summary.hinted_methods > 40, "{summary:?}");
        assert!(summary.note > 0);
        assert!(summary.assuming > 0);
        assert_eq!(
            summary.total(),
            summary.note + summary.assuming + summary.pick_witness
        );
    }

    #[test]
    fn hinted_methods_still_verify() {
        use crate::template::soundness_method;
        use crate::vcgen::generate_obligations;
        use semcommute_prover::{Portfolio, Scope};
        let c = cond(
            OpVariant::recorded("addAt"),
            OpVariant::recorded("indexOf"),
            ConditionKind::Between,
        );
        let m = soundness_method(&c, 11);
        assert!(!m.hints.is_empty());
        let obs = generate_obligations(&m).unwrap();
        // Hints add side obligations beyond the two preconditions + assert.
        assert!(obs.len() > 3);
        let prover = Portfolio::new(Scope::sequences(3));
        for ob in &obs {
            let verdict = prover.prove(ob);
            assert!(verdict.is_valid(), "{}: {verdict}", ob.name);
        }
    }
}
