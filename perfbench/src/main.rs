//! Benchmark entry point.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload verify_catalog|set_read_mostly|list_positional|all \
//!     --seed N --seconds N --trace 0|1 [--quick]
//! ```
//!
//! Prints a detailed report line (provenance, medians and quartiles, span
//! totals) and, as the last line of standard output, the result object
//! `{"correct", "attempted", "failed", "metrics"}`. Exits 1 if any output
//! disagreed with its reference, 2 on bad arguments or a set
//! `SEMCOMMUTE_*` variable. `--workload all` runs every workload, each in a
//! fresh process.

use std::process::{exit, Command};

use semcommute_perfbench::{knob_settings, provenance, report, run, RunArgs, Workload, USAGE};

fn main() {
    let args = RunArgs::parse(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        exit(2);
    });
    let knobs = knob_settings();
    if !knobs.is_empty() {
        eprintln!(
            "error: refusing to measure with {knobs:?} set: every SEMCOMMUTE_* variable changes \
             the program under test; unset them to run at the defaults"
        );
        exit(2);
    }
    let Some(workload) = args.workload else {
        exit(run_each(&args));
    };
    let outcome = run(workload, &args);
    let header = [
        ("workload", workload.name().to_string()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("quick", args.quick.to_string()),
    ];
    eprintln!(
        "{} (seed {}, {} s, trace {}): attempted {}, failed {}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        outcome.attempted,
        outcome.failed
    );
    eprint!("{}", report::table(&outcome, args.trace));
    for e in &outcome.errors {
        eprintln!("  failure: {e}");
    }
    println!(
        "{}",
        report::report_line(&outcome, args.trace, &header, &provenance())
    );
    println!("{}", report::result_line(&outcome, args.trace));
    exit(if outcome.failed == 0 && outcome.attempted > 0 {
        0
    } else {
        1
    });
}

/// Runs every workload in a fresh process of this executable, with the same
/// arguments; returns the exit code.
fn run_each(args: &RunArgs) -> i32 {
    let exe = std::env::current_exe().unwrap_or_else(|e| {
        eprintln!("error: cannot locate the benchmark executable: {e}");
        exit(2);
    });
    let mut code = 0;
    for workload in Workload::ALL {
        let mut command = Command::new(&exe);
        command.args([
            "--workload",
            workload.name(),
            "--seed",
            &args.seed.to_string(),
            "--seconds",
            &args.seconds.to_string(),
            "--trace",
            if args.trace { "1" } else { "0" },
        ]);
        if args.quick {
            command.arg("--quick");
        }
        match command.status() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("{}: exited with {status}", workload.name());
                code = 1;
            }
            Err(e) => {
                eprintln!("{}: could not start: {e}", workload.name());
                code = 1;
            }
        }
    }
    code
}
