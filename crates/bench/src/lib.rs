//! Shared helpers for the `semcommute` benchmark harness.
//!
//! The `table_5_*` binaries in `src/bin/` regenerate the paper's evaluation
//! tables (run them with `cargo run -p semcommute-bench --release --bin
//! table_5_8`). The `runtime_perf` binary holds the runtime's contention
//! acceptance bar. Performance of both halves, end to end and per layer, is
//! measured by the separate `perfbench` package.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Prints a table header in a consistent style.
pub fn banner(title: &str) {
    println!("{}", "=".repeat(title.len()));
    println!("{title}");
    println!("{}", "=".repeat(title.len()));
}

#[cfg(test)]
mod tests {
    use semcommute_core::verify::{verify_catalog, VerifyOptions};

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
