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

/// Parses the common command-line options of the table binaries (the
/// arguments after the program name): an optional per-interface condition
/// limit, `--seq-len N`, `--threads N`, `--split-threshold N`
/// (unreduced-space size above which a model search is split into range
/// tasks), and `--orbit {on,off}` (orbit-canonical vs. unreduced
/// enumeration).
///
/// # Errors
///
/// Returns what is wrong with the first malformed argument: a missing or
/// non-numeric value, an `--orbit` value other than `on` or `off`, or an
/// argument that is neither a flag nor a limit.
pub fn parse_args(mut args: impl Iterator<Item = String>) -> Result<VerifyOptions, String> {
    fn number<T: std::str::FromStr>(flag: &str, value: Option<String>) -> Result<T, String> {
        let value = value.ok_or_else(|| format!("{flag} needs a number"))?;
        value
            .parse()
            .map_err(|_| format!("{flag} needs a number, got `{value}`"))
    }
    let mut options = VerifyOptions::default();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seq-len" => options.seq_len = number("--seq-len", args.next())?,
            "--threads" => options.threads = number("--threads", args.next())?,
            "--split-threshold" => {
                options.split_threshold = number("--split-threshold", args.next())?
            }
            "--orbit" => {
                options.orbit = match args.next().as_deref() {
                    Some("on") => true,
                    Some("off") => false,
                    other => {
                        return Err(format!(
                            "--orbit needs `on` or `off`, got {}",
                            other.map_or("nothing".to_string(), |v| format!("`{v}`"))
                        ))
                    }
                }
            }
            other => {
                let limit = other
                    .parse()
                    .map_err(|_| format!("unrecognized argument `{other}`"))?;
                options.limit = Some(limit);
            }
        }
    }
    Ok(options)
}

#[cfg(test)]
mod tests {
    use super::*;
    use semcommute_core::verify::verify_catalog;

    fn parse(args: &[&str]) -> Result<VerifyOptions, String> {
        parse_args(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn parse_args_reads_every_flag() {
        let options = parse(&[
            "12",
            "--threads",
            "4",
            "--split-threshold",
            "4096",
            "--seq-len",
            "3",
            "--orbit",
            "off",
        ])
        .expect("valid flags");
        assert_eq!(options.limit, Some(12));
        assert_eq!(options.threads, 4);
        assert_eq!(options.split_threshold, 4096);
        assert_eq!(options.seq_len, 3);
        assert!(!options.orbit);
    }

    #[test]
    fn parse_args_rejects_a_non_numeric_thread_count() {
        assert_eq!(
            parse(&["--threads", "x"]).err().as_deref(),
            Some("--threads needs a number, got `x`")
        );
        assert_eq!(
            parse(&["--threads"]).err().as_deref(),
            Some("--threads needs a number")
        );
    }

    #[test]
    fn parse_args_rejects_an_unknown_orbit_value() {
        assert_eq!(
            parse(&["--orbit", "maybe"]).err().as_deref(),
            Some("--orbit needs `on` or `off`, got `maybe`")
        );
    }

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
