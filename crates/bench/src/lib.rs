//! Shared helpers for the `semcommute` benchmark harness.
//!
//! The `table_5_*` binaries in `src/bin/` regenerate the paper's evaluation
//! tables (run them with `cargo run -p semcommute-bench --release --bin
//! table_5_8`); the Criterion benches in `benches/` measure prover, runtime,
//! and data structure performance, including the ablations called out in
//! `DESIGN.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod seed_runtime;

use semcommute_core::report;
use semcommute_core::verify::{CatalogReport, InterfaceReport, VerifyOptions};

/// Prints a table header in a consistent style.
pub fn banner(title: &str) {
    println!("{}", "=".repeat(title.len()));
    println!("{title}");
    println!("{}", "=".repeat(title.len()));
}

/// Parses an `--orbit` flag value: `on` enables the orbit-canonical
/// enumerator, `off` selects the unreduced oracle enumerator.
pub fn parse_orbit(value: &str) -> Option<bool> {
    match value {
        "on" => Some(true),
        "off" => Some(false),
        _ => None,
    }
}

/// Parses the common command-line options of the table binaries: an optional
/// per-interface condition limit, `--seq-len N`, `--threads N`,
/// `--split-threshold N` (unreduced-space size above which a model search is
/// split into stealable range tasks), and `--orbit {on,off}`
/// (orbit-canonical vs. unreduced enumeration).
pub fn parse_options() -> VerifyOptions {
    let mut options = VerifyOptions::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seq-len" => {
                options.seq_len = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--seq-len needs a number");
            }
            "--threads" => {
                options.threads = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--threads needs a number");
            }
            "--split-threshold" => {
                options.split_threshold = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--split-threshold needs a number");
            }
            "--orbit" => {
                options.orbit = args
                    .next()
                    .as_deref()
                    .and_then(parse_orbit)
                    .expect("--orbit needs `on` or `off`");
            }
            other => options.limit = Some(other.parse().expect("numeric limit expected")),
        }
    }
    options
}

/// Runs the full verification (as `table_5_8` needs) and returns the
/// per-interface reports. With `options.threads > 1` all interfaces'
/// obligations share one work-stealing scheduler (see
/// [`semcommute_core::verify::verify_catalog`]).
pub fn run_full_verification(options: &VerifyOptions) -> Vec<InterfaceReport> {
    semcommute_core::verify::verify_all(options)
}

/// Runs the full verification and returns the catalog report, including the
/// obligation scheduler's counters and the measured wall-clock.
pub fn run_catalog_verification(options: &VerifyOptions) -> CatalogReport {
    semcommute_core::verify::verify_catalog(options)
}

/// Prints the verification-time table from a set of reports.
pub fn print_verification_table(reports: &[InterfaceReport]) {
    println!("{}", report::verification_time_table(reports));
}

/// Renders a machine-readable performance report as JSON (hand-rolled — the
/// workspace is offline and carries no serde). One object per interface with
/// busy time, throughput, and prover-work counters, plus run metadata and
/// the obligation scheduler's counters, so future changes can track the perf
/// trajectory in committed `BENCH_*.json` files.
///
/// Per-interface times are reported as `busy_s`: the summed proof time of
/// the interface's obligations. In a scheduled run (`options.threads > 1`)
/// interfaces interleave on the same workers, so their busy times **overlap
/// in wall-clock and sum to more than `total.wall_s`** — earlier snapshots
/// labeled this field `wall_s`, which made one interface look slower than
/// the whole run. The only wall-clock figure is `total.wall_s`, the
/// measured span of the run; the `scheduler` section's
/// `max_obligation_wall_s` / `p99_obligation_wall_s` skew metrics and the
/// `splits` / `subranges` counters show how evenly that span was filled.
pub fn perf_report_json(catalog: &CatalogReport, options: &VerifyOptions) -> String {
    fn esc(s: &str) -> String {
        s.replace('\\', "\\\\").replace('"', "\\\"")
    }
    let reports = &catalog.interfaces;
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"options\": {{\"threads\": {}, \"split_threshold\": {}, \"seq_len\": {}, \"limit\": {}, \"orbit\": {}}},\n",
        options.threads,
        options.split_threshold,
        options.seq_len,
        options
            .limit
            .map_or("null".to_string(), |l| l.to_string()),
        options.orbit,
    ));
    out.push_str("  \"interfaces\": [\n");
    for (i, r) in reports.iter().enumerate() {
        let busy = r.elapsed.as_secs_f64();
        let methods = r.method_count();
        let throughput = if busy > 0.0 {
            methods as f64 / busy
        } else {
            0.0
        };
        out.push_str(&format!(
            "    {{\"interface\": \"{}\", \"conditions\": {}, \"methods\": {}, \"verified\": {}, \
             \"busy_s\": {:.6}, \"obligations_per_busy_sec\": {:.2}, \"models_checked\": {}, \
             \"orbits_pruned\": {}, \"cache_hits\": {}}}{}\n",
            esc(&r.interface.to_string()),
            r.total(),
            methods,
            r.verified_count(),
            busy,
            throughput,
            r.models_checked(),
            r.orbits_pruned(),
            r.cache_hits(),
            if i + 1 < reports.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    if let Some(s) = &catalog.scheduler {
        out.push_str(&format!(
            "  \"scheduler\": {{\"submitted\": {}, \"unique\": {}, \"proved\": {}, \
             \"cache_hits\": {}, \"skipped\": {}, \"steals\": {}, \"stolen_tasks\": {}, \
             \"splits\": {}, \"subranges\": {}, \"max_obligation_wall_s\": {:.6}, \
             \"p99_obligation_wall_s\": {:.6}, \"errors\": {}}},\n",
            s.submitted,
            s.unique,
            s.proved,
            s.cache_hits,
            s.skipped,
            s.steals,
            s.stolen_tasks,
            s.splits,
            s.subranges,
            s.max_obligation_wall.as_secs_f64(),
            s.p99_obligation_wall.as_secs_f64(),
            s.errors.len(),
        ));
    }
    let total_wall = catalog.elapsed.as_secs_f64();
    let total_methods: usize = reports.iter().map(|r| r.method_count()).sum();
    let models = catalog.models_checked();
    out.push_str(&format!(
        "  \"total\": {{\"methods\": {}, \"wall_s\": {:.6}, \"obligations_per_sec\": {:.2}, \
         \"models_checked\": {}, \"orbits_pruned\": {}, \"batches\": {}, \
         \"batch_fallbacks\": {}, \"instrs_per_candidate\": {:.2}}}\n",
        total_methods,
        total_wall,
        if total_wall > 0.0 {
            total_methods as f64 / total_wall
        } else {
            0.0
        },
        models,
        catalog.orbits_pruned(),
        catalog.batches(),
        catalog.batch_fallbacks(),
        if models > 0 {
            catalog.instrs_executed() as f64 / models as f64
        } else {
            0.0
        }
    ));
    out.push('}');
    out
}

/// Renders several catalog runs (e.g. the same build measured at different
/// scheduler thread counts) as one JSON document: `{"runs": [<report>, …]}`
/// with each entry in the [`perf_report_json`] shape. `BENCH_pr3.json` and
/// later snapshots use this so one committed file carries the sequential and
/// the scheduled measurement of the same build.
pub fn perf_report_json_runs(runs: &[(VerifyOptions, CatalogReport)]) -> String {
    let mut out = String::from("{\n\"runs\": [\n");
    for (i, (options, catalog)) in runs.iter().enumerate() {
        out.push_str(&perf_report_json(catalog, options));
        out.push_str(if i + 1 < runs.len() { ",\n" } else { "\n" });
    }
    out.push_str("]\n}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_verification_produces_reports_for_every_interface() {
        let reports = run_full_verification(&VerifyOptions::quick(3));
        assert_eq!(reports.len(), 4);
        for r in &reports {
            assert_eq!(r.verified_count(), r.total());
        }
    }

    #[test]
    fn perf_report_json_is_well_formed() {
        let options = VerifyOptions::quick(2);
        let catalog = run_catalog_verification(&options);
        assert!(catalog.scheduler.is_some(), "quick options are scheduled");
        let json = perf_report_json(&catalog, &options);
        assert!(json.starts_with('{') && json.ends_with('}'));
        for key in [
            "\"options\"",
            "\"orbit\"",
            "\"split_threshold\"",
            "\"interfaces\"",
            "\"busy_s\"",
            "\"obligations_per_busy_sec\"",
            "\"models_checked\"",
            "\"orbits_pruned\"",
            "\"cache_hits\"",
            "\"scheduler\"",
            "\"submitted\"",
            "\"splits\"",
            "\"subranges\"",
            "\"max_obligation_wall_s\"",
            "\"p99_obligation_wall_s\"",
            "\"total\"",
            "\"wall_s\"",
            "\"batches\"",
            "\"batch_fallbacks\"",
            "\"instrs_per_candidate\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        // Braces and brackets balance (cheap well-formedness check).
        let balance = |open: char, close: char| {
            json.chars().filter(|&c| c == open).count()
                == json.chars().filter(|&c| c == close).count()
        };
        assert!(balance('{', '}') && balance('[', ']'));
    }

    #[test]
    fn multi_run_report_wraps_each_run() {
        let options = VerifyOptions::quick(1);
        let catalog = run_catalog_verification(&options);
        let json = perf_report_json_runs(&[
            (options.clone(), catalog.clone()),
            (options.clone(), catalog),
        ]);
        assert!(json.contains("\"runs\""));
        assert_eq!(json.matches("\"interfaces\"").count(), 2);
        let balance = |open: char, close: char| {
            json.chars().filter(|&c| c == open).count()
                == json.chars().filter(|&c| c == close).count()
        };
        assert!(balance('{', '}') && balance('[', ']'));
    }

    #[test]
    fn sequential_catalog_report_has_no_scheduler_section() {
        let options = VerifyOptions {
            threads: 1,
            ..VerifyOptions::quick(2)
        };
        let catalog = run_catalog_verification(&options);
        assert!(catalog.scheduler.is_none());
        assert!(!perf_report_json(&catalog, &options).contains("\"scheduler\""));
    }
}
