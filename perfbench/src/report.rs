//! Metric definitions and the benchmark's JSON output.
//!
//! Every workload reports every metric: end-to-end metrics from untraced runs
//! (`--trace 0`) and per-layer metrics from traced runs (`--trace 1`). A layer
//! a workload does not exercise reports 0 — the prover does no work on the
//! runtime workloads and the runtime none on `verify_catalog`.

use std::collections::BTreeMap;

use crate::stats::{median, summarize};
use crate::trace::SpanTotal;

/// A metric's name and unit, as listed in `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// The metric name.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// End-to-end metrics, reported by untraced runs. See `README.md` in this
/// directory for what each one measures on each workload.
pub const END_TO_END: &[MetricDef] = &[
    m("ops_per_s", "ops/s"),
    m("ops_per_s_t1", "ops/s"),
    m("mean_us", "us"),
    m("p95_us", "us"),
    m("setup_s", "s"),
    m("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by traced runs.
pub const PER_LAYER: &[MetricDef] = &[
    // Verifier pipeline, from the traced walk at threads=1.
    m("core.template.s", "s"),
    m("core.vcgen.s", "s"),
    m("core.vcgen.obligations", "count"),
    m("prover.portfolio.key_s", "s"),
    m("prover.portfolio.cache_hit_ratio", "ratio"),
    m("prover.structural.s", "s"),
    m("prover.structural.decided_ratio", "ratio"),
    m("prover.finite.prepare_s", "s"),
    m("prover.finite.search_s", "s"),
    m("prover.space.enumerate_s", "s"),
    m("prover.finite.eval_s", "s"),
    m("prover.finite.models_checked", "count"),
    m("prover.orbit.pruned", "count"),
    m("prover.finite.ns_per_candidate", "ns"),
    m("prover.bytecode.fallback_ratio", "ratio"),
    m("prover.bytecode.instrs_per_candidate", "count"),
    m("prover.finite.max_obligation_s", "s"),
    m("core.verify.accumulator.busy_s", "s"),
    m("core.verify.set.busy_s", "s"),
    m("core.verify.map.busy_s", "s"),
    m("core.verify.list.busy_s", "s"),
    m("core.inverse.s", "s"),
    // Obligation scheduler, from the threads=nproc run.
    m("prover.queue.utilization", "ratio"),
    m("prover.queue.steals", "count"),
    m("prover.queue.splits", "count"),
    m("prover.queue.max_obligation_wall_s", "s"),
    m("prover.queue.dedup_ratio", "ratio"),
    // Speculative runtime, from the traced run at nproc workers.
    m("runtime.executor.execute_p50_us", "us"),
    m("runtime.executor.execute_p99_us", "us"),
    m("runtime.executor.commit_p50_us", "us"),
    m("runtime.executor.abort_p50_us", "us"),
    m("runtime.executor.retry_s", "s"),
    m("runtime.executor.abort_ratio", "ratio"),
    m("runtime.executor.useful_op_ratio", "ratio"),
    m("runtime.contention.degraded_share", "ratio"),
    m("runtime.contention.mode_switches", "count"),
    m("runtime.txn_p50_us", "us"),
    m("runtime.txn_p99_us", "us"),
    m("runtime.txn_p999_us", "us"),
    m("runtime.txn_max_us", "us"),
    // Runtime layer probes.
    m("runtime.gatekeeper.check_ns", "ns"),
    m("runtime.gatekeeper.check_at_ns", "ns"),
    m("runtime.structure.apply_ns", "ns"),
    m("runtime.structure.tracked_apply_ns", "ns"),
    m("runtime.rollback.undo_ns", "ns"),
    m("runtime.baseline.ops_per_s", "ops/s"),
    m("runtime.baseline.ops_per_s_t1", "ops/s"),
    // Traced over untraced time, minus one.
    m("trace.overhead_ratio", "ratio"),
];

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Checked units of work: verdicts for the verifier, transactions for
    /// the runtime.
    pub attempted: u64,
    /// Units whose output disagreed with the reference, or that failed.
    pub failed: u64,
    /// The first few failure diagnostics.
    pub errors: Vec<String>,
    /// Repetition samples per metric; the reported value is their median.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// Span totals of the traced run, if any.
    pub spans: BTreeMap<&'static str, SpanTotal>,
    /// Free-form facts about the run (sizes, sample counts, trace file).
    pub notes: BTreeMap<&'static str, String>,
}

impl Outcome {
    /// Records one sample of a metric.
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    /// Counts a failure with its diagnostic (only the first few are kept).
    pub fn fail(&mut self, count: u64, error: impl Into<String>) {
        self.failed += count;
        if self.errors.len() < 8 {
            self.errors.push(error.into());
        }
    }

    /// Folds another partial outcome's counts and errors into this one.
    pub fn absorb_failures(&mut self, failed: u64, errors: Vec<String>) {
        self.failed += failed;
        for e in errors {
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
    }

    /// The reported value of a metric: the median of its samples, or 0 when
    /// the workload does not exercise it.
    pub fn value(&self, name: &str) -> f64 {
        self.samples.get(name).map_or(0.0, |v| median(v))
    }
}

/// Escapes a string for a JSON string literal.
pub fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A JSON number with all its digits; non-finite values become 0.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The metric set a run reports.
pub fn metric_set(trace: bool) -> &'static [MetricDef] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// The final result line: `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(outcome: &Outcome, trace: bool) -> String {
    let metrics: Vec<String> = metric_set(trace)
        .iter()
        .map(|d| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name,
                num(outcome.value(d.name)),
                d.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

/// The detailed report line: provenance, notes, the median, quartiles and
/// raw samples of every reported metric, span totals and failure
/// diagnostics.
pub fn report_line(
    outcome: &Outcome,
    trace: bool,
    header: &[(&str, String)],
    provenance: &[(&str, String)],
) -> String {
    let fields = |pairs: &[(&str, String)]| -> String {
        pairs
            .iter()
            .map(|(k, v)| format!("\"{}\": \"{}\"", esc(k), esc(v)))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let notes: Vec<(&str, String)> = outcome.notes.iter().map(|(k, v)| (*k, v.clone())).collect();
    let metrics: Vec<String> = metric_set(trace)
        .iter()
        .map(|d| {
            let s = outcome
                .samples
                .get(d.name)
                .map_or_else(|| summarize(&[]), |v| summarize(v));
            let samples: Vec<String> = outcome
                .samples
                .get(d.name)
                .map_or_else(Vec::new, |v| v.iter().map(|x| num(*x)).collect());
            format!(
                "\"{}\": {{\"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}, \"unit\": \"{}\", \"samples\": [{}]}}",
                d.name,
                num(s.median),
                num(s.q1),
                num(s.q3),
                s.n,
                d.unit,
                samples.join(", ")
            )
        })
        .collect();
    let spans: Vec<String> = outcome
        .spans
        .iter()
        .map(|(name, t)| {
            format!(
                "\"{name}\": {{\"count\": {}, \"total_s\": {}, \"self_s\": {}, \"max_s\": {}}}",
                t.count,
                num(t.total_s),
                num(t.self_s),
                num(t.max_s)
            )
        })
        .collect();
    let errors: Vec<String> = outcome
        .errors
        .iter()
        .map(|e| format!("\"{}\"", esc(e)))
        .collect();
    format!(
        "{{\"report\": {{{}, \"provenance\": {{{}}}, \"notes\": {{{}}}, \"metrics\": {{{}}}, \"spans\": {{{}}}, \"errors\": [{}]}}}}",
        fields(header),
        fields(provenance),
        fields(&notes),
        metrics.join(", "),
        spans.join(", "),
        errors.join(", ")
    )
}

/// A human-readable table of the reported metrics, for standard error.
pub fn table(outcome: &Outcome, trace: bool) -> String {
    let mut out = String::new();
    for d in metric_set(trace) {
        let s = outcome
            .samples
            .get(d.name)
            .map_or_else(|| summarize(&[]), |v| summarize(v));
        out.push_str(&format!(
            "  {:<40} {:>16.6} {:<6} q1 {:>14.6}  q3 {:>14.6}  n {}\n",
            d.name, s.median, d.unit, s.q1, s.q3, s.n
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut outcome = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        outcome.push("ops_per_s", 2.0);
        outcome.push("ops_per_s", 4.0);
        outcome.push("ops_per_s", 3.0);
        let line = result_line(&outcome, false);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {")
        );
        assert!(line.contains("\"ops_per_s\": {\"value\": 3, \"unit\": \"ops/s\"}"));
        for d in END_TO_END {
            assert!(line.contains(&format!("\"{}\":", d.name)), "{line}");
        }
        outcome.fail(1, "planted");
        assert!(result_line(&outcome, false).starts_with("{\"correct\": false"));
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }

    #[test]
    fn escapes_quotes_and_controls() {
        assert_eq!(esc("a\"b\\c\n"), "a\\\"b\\\\c\\u000a");
        assert_eq!(num(f64::NAN), "0");
        assert_eq!(num(1.25), "1.25");
    }
}
