//! Shared helpers for the `semcommute` benchmark harness.
//!
//! The `table_5_*` binaries in `src/bin/` regenerate the paper's evaluation
//! tables (run them with `cargo run -p semcommute-bench --release --bin
//! table_5_8`). The `runtime_perf` binary holds the runtime's contention
//! acceptance bar. Performance of both halves, end to end and per layer, is
//! measured by the separate `perfbench` package.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use semcommute_core::verify::VerifyOptions;

/// Prints a table header in a consistent style.
pub fn banner(title: &str) {
    println!("{}", "=".repeat(title.len()));
    println!("{title}");
    println!("{}", "=".repeat(title.len()));
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
                options.orbit = match args.next().as_deref() {
                    Some("on") => true,
                    Some("off") => false,
                    _ => panic!("--orbit needs `on` or `off`"),
                };
            }
            other => options.limit = Some(other.parse().expect("numeric limit expected")),
        }
    }
    options
}

#[cfg(test)]
mod tests {
    use super::*;
    use semcommute_core::verify::verify_catalog;

    #[test]
    fn quick_verification_produces_reports_for_every_interface() {
        let reports = verify_catalog(&VerifyOptions::quick(3)).interfaces;
        assert_eq!(reports.len(), 4);
        for r in &reports {
            assert_eq!(r.verified_count(), r.total());
        }
    }

    #[test]
    fn catalog_runs_are_scheduled_at_every_width() {
        let scheduled = verify_catalog(&VerifyOptions::quick(2));
        assert!(scheduled.scheduler.is_some(), "quick options are scheduled");
        let one_worker = verify_catalog(&VerifyOptions {
            threads: 1,
            ..VerifyOptions::quick(2)
        });
        assert!(
            one_worker.scheduler.is_some(),
            "threads = 1 is scheduled too"
        );
    }
}
