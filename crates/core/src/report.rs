//! Table-formatted reports reproducing the paper's evaluation tables.
//!
//! Each function renders one of Tables 5.1–5.10 as plain text; the
//! `semcommute-bench` binaries `table_5_1` … `table_5_10` print them
//! (`cargo run --release -p semcommute-bench --bin table_5_8`).

use std::fmt::Write as _;

use semcommute_spec::{interface_by_id, InterfaceId};

use crate::catalog::interface_catalog;
use crate::concrete::render_concrete;
use crate::condition::CommutativityCondition;
use crate::hints::HintSummary;
use crate::inverse::inverse_catalog;
use crate::kind::ConditionKind;
use crate::verify::InterfaceReport;

/// Renders a commutativity-condition table (the format of Tables 5.1–5.7):
/// one row per ordered pair of operation variants, showing the abstract and
/// the concrete (dynamically checkable) form of the condition of the given
/// kind.
pub fn condition_table(interface: InterfaceId, kind: ConditionKind) -> String {
    let iface = interface_by_id(interface);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} commutativity conditions on {} ({})",
        capitalize(kind.tag()),
        interface,
        iface.id.implementations().join(" and ")
    );
    let _ = writeln!(out, "{:-<110}", "");
    let _ = writeln!(
        out,
        "{:<22} {:<22} | {:<40} | concrete condition",
        "first", "second", "abstract condition"
    );
    let _ = writeln!(out, "{:-<110}", "");
    for cond in interface_catalog(interface)
        .into_iter()
        .filter(|c| c.kind == kind)
    {
        let first_spec = iface.op(&cond.first.op).expect("op exists");
        let second_spec = iface.op(&cond.second.op).expect("op exists");
        let _ = writeln!(
            out,
            "{:<22} {:<22} | {:<40} | {}",
            cond.first.table_form(first_spec, "s1", "r1"),
            cond.second.table_form(second_spec, "s2", "r2"),
            cond.formula.to_string(),
            render_concrete(&cond.formula)
        );
    }
    out
}

/// Renders a selection of rows from a condition table (used by the table
/// binaries to show the same representative pairs as the paper's tables).
pub fn condition_rows(
    interface: InterfaceId,
    kind: ConditionKind,
    pairs: &[(&str, &str)],
) -> Vec<CommutativityCondition> {
    interface_catalog(interface)
        .into_iter()
        .filter(|c| {
            c.kind == kind
                && pairs
                    .iter()
                    .any(|(f, s)| *f == c.first.label() && *s == c.second.label())
        })
        .collect()
}

/// Renders the verification-time table (Table 5.8): one row per data
/// structure with the time taken to verify all of its generated testing
/// methods.
pub fn verification_time_table(reports: &[InterfaceReport]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Commutativity testing method verification times");
    let _ = writeln!(out, "{:-<78}", "");
    let _ = writeln!(
        out,
        "{:<18} {:>12} {:>10} {:>10} {:>12} {:>10}",
        "Data structure", "conditions", "methods", "verified", "time (s)", "hinted"
    );
    let _ = writeln!(out, "{:-<78}", "");
    for report in reports {
        for name in report.interface.implementations() {
            let _ = writeln!(
                out,
                "{:<18} {:>12} {:>10} {:>10} {:>12.2} {:>10}",
                name,
                report.total(),
                report.method_count(),
                report.verified_count(),
                report.elapsed.as_secs_f64(),
                report.hinted_method_count()
            );
        }
    }
    let total_conditions: usize = reports
        .iter()
        .map(|r| r.total() * r.interface.implementations().len())
        .sum();
    let _ = writeln!(out, "{:-<78}", "");
    let _ = writeln!(
        out,
        "Total conditions across data structures: {total_conditions}"
    );
    out
}

/// Renders the proof-command table (Table 5.9): how many `note`, `assuming`,
/// and `pickWitness` commands the hard ArrayList methods carry.
pub fn hint_table(summary: &HintSummary) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Proof language commands for the hard ArrayList commutativity testing methods"
    );
    let _ = writeln!(out, "{:-<60}", "");
    let _ = writeln!(out, "{:<20} {:>10}", "Command", "Count");
    let _ = writeln!(out, "{:-<60}", "");
    let _ = writeln!(out, "{:<20} {:>10}", "note", summary.note);
    let _ = writeln!(out, "{:<20} {:>10}", "assuming", summary.assuming);
    let _ = writeln!(out, "{:<20} {:>10}", "pickWitness", summary.pick_witness);
    let _ = writeln!(out, "{:<20} {:>10}", "Total", summary.total());
    let _ = writeln!(
        out,
        "(attached to {} testing methods)",
        summary.hinted_methods
    );
    out
}

/// Renders the inverse-operation table (Table 5.10).
pub fn inverse_table() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Inverse operations");
    let _ = writeln!(out, "{:-<88}", "");
    let _ = writeln!(
        out,
        "{:<18} {:<28} Inverse operation",
        "Data structure", "Operation"
    );
    let _ = writeln!(out, "{:-<88}", "");
    for inverse in inverse_catalog() {
        let (forward, backward) = inverse.table_row();
        let _ = writeln!(
            out,
            "{:<18} {:<28} {}",
            inverse.interface.implementations().join("/"),
            forward,
            backward
        );
    }
    out
}

fn capitalize(s: &str) -> String {
    let mut chars = s.chars();
    match chars.next() {
        Some(first) => first.to_uppercase().collect::<String>() + chars.as_str(),
        None => String::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn condition_table_lists_every_pair_of_the_kind() {
        let table = condition_table(InterfaceId::Set, ConditionKind::Before);
        // 36 pairs plus four header/separator lines.
        assert_eq!(table.lines().count(), 36 + 4);
        assert!(table.contains("Before commutativity conditions"));
        assert!(table.contains("ListSet and HashSet"));
        assert!(table.contains("s1.contains(v1) = true") || table.contains("v1 : s1"));
    }

    #[test]
    fn condition_rows_select_requested_pairs() {
        let rows = condition_rows(
            InterfaceId::Set,
            ConditionKind::Between,
            &[("contains", "add_"), ("contains", "remove_")],
        );
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn inverse_table_has_eight_rows() {
        let table = inverse_table();
        assert_eq!(table.lines().count(), 8 + 4);
        assert!(table.contains("if r ~= null then s2.put(k, r) else s2.remove(k)"));
    }

    #[test]
    fn hint_table_reports_counts() {
        let summary = crate::hints::hint_summary();
        let table = hint_table(&summary);
        assert!(table.contains("note"));
        assert!(table.contains("assuming"));
        assert!(table.contains("pickWitness"));
    }

    #[test]
    fn verification_time_table_lists_each_data_structure() {
        use crate::verify::{verify_interface, VerifyOptions};
        let report = verify_interface(InterfaceId::Accumulator, &VerifyOptions::quick(12));
        let table = verification_time_table(&[report]);
        assert!(table.contains("Accumulator"));
        assert!(table.contains("Total conditions"));
    }
}
