//! Machine-readable performance snapshot of the verification pipeline.
//!
//! Runs the catalog verification (all four interfaces) and prints a JSON
//! report — wall-clock, obligations/sec, models checked, and dedup-cache
//! hits per interface — to stdout. With `--out FILE` the report is also
//! written to `FILE` (conventionally `BENCH_<label>.json` at the repo root),
//! so successive changes leave a comparable perf trail in version control.
//!
//! ```text
//! cargo run --release -p semcommute-bench --bin perf_json -- [limit] \
//!     [--seq-len N] [--threads N] [--threads-list N,M,...] \
//!     [--split-threshold N] [--orbit on|off|both] [--out FILE]
//! ```
//!
//! `--threads-list 1,4` runs the catalog once per listed scheduler width and
//! emits one `{"runs": [...]}` document containing every measurement — the
//! shape of the committed `BENCH_pr3.json` snapshot. `--orbit both` crosses
//! the listed widths with the orbit-canonical and the unreduced enumerator,
//! which is how `BENCH_pr4.json` records the reduction's effect at both
//! widths in one document.

use std::path::Path;

use semcommute_bench::{
    parse_orbit, perf_report_json, perf_report_json_runs, run_catalog_verification,
};
use semcommute_core::verify::VerifyOptions;

const USAGE: &str = "\
usage: perf_json [LIMIT] [--seq-len N] [--threads N | --threads-list N,M,...]
                 [--split-threshold N] [--orbit on|off|both] [--out FILE]

  LIMIT               verify only the first LIMIT conditions per interface
  --seq-len N         ArrayList sequence scope (default 4)
  --threads N         work-stealing scheduler width for a single run
  --threads-list N,M  one run per width, emitted as one {\"runs\": [...]} doc
  --split-threshold N unreduced-space size above which one obligation's
                      model search splits into stealable range tasks
  --orbit on|off|both orbit-canonical vs. unreduced enumeration (`both`
                      measures every width under each, in one doc)
  --out FILE          also write the JSON report to FILE";

fn fail(message: &str) -> ! {
    eprintln!("error: {message}\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let mut options = VerifyOptions::default();
    let mut out_path: Option<String> = None;
    let mut threads_list: Option<Vec<usize>> = None;
    let mut threads_flag_set = false;
    let mut orbit_both = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--orbit" => match args.next().as_deref() {
                Some("both") => orbit_both = true,
                Some(value) => match parse_orbit(value) {
                    Some(orbit) => {
                        // Last one wins, like every other repeated flag.
                        options.orbit = orbit;
                        orbit_both = false;
                    }
                    None => fail("--orbit needs `on`, `off`, or `both`"),
                },
                None => fail("--orbit needs `on`, `off`, or `both`"),
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            "--seq-len" => {
                options.seq_len = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| fail("--seq-len needs a number"));
            }
            "--threads" => {
                options.threads = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| fail("--threads needs a number"));
                threads_flag_set = true;
            }
            "--threads-list" => {
                let list = args
                    .next()
                    .unwrap_or_else(|| fail("--threads-list needs a comma-separated list"));
                let parsed: Option<Vec<usize>> =
                    list.split(',').map(|v| v.trim().parse().ok()).collect();
                match parsed {
                    Some(values) if !values.is_empty() => threads_list = Some(values),
                    _ => fail("--threads-list needs a comma-separated list of numbers"),
                }
            }
            "--split-threshold" => {
                options.split_threshold = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| fail("--split-threshold needs a number"));
            }
            "--out" => {
                out_path = Some(args.next().unwrap_or_else(|| fail("--out needs a path")));
            }
            other => {
                options.limit = Some(other.parse().unwrap_or_else(|_| {
                    fail(&format!(
                        "unrecognized argument `{other}` (expected a numeric limit)"
                    ))
                }));
            }
        }
    }

    if threads_list.is_some() && threads_flag_set {
        fail("--threads and --threads-list are mutually exclusive");
    }

    // Reject an unwritable --out before spending minutes on the measurement.
    if let Some(path) = &out_path {
        let parent = Path::new(path).parent().unwrap_or_else(|| Path::new(""));
        if !parent.as_os_str().is_empty() && !parent.is_dir() {
            fail(&format!(
                "--out {path}: parent directory `{}` does not exist",
                parent.display()
            ));
        }
        // Probe that the path itself is writable (read-only directory, path
        // is a directory, permissions): create-or-append touches the file
        // without truncating whatever snapshot is already there. A file the
        // probe itself created is removed again so an interrupted run never
        // leaves a zero-byte snapshot behind.
        let existed = Path::new(path).exists();
        match std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
        {
            Err(e) => fail(&format!("--out {path} is not writable: {e}")),
            Ok(_) => {
                if !existed {
                    let _ = std::fs::remove_file(path);
                }
            }
        }
    }

    let orbit_modes: Vec<bool> = if orbit_both {
        vec![true, false]
    } else {
        vec![options.orbit]
    };
    let json = if threads_list.is_some() || orbit_both {
        let widths = threads_list.unwrap_or_else(|| vec![options.threads]);
        let mut runs = Vec::new();
        for &orbit in &orbit_modes {
            for &threads in &widths {
                let run_options = VerifyOptions {
                    threads,
                    orbit,
                    ..options.clone()
                };
                // Reset this thread's term arena between runs so a later
                // run's keying is not warmed by an earlier run — each
                // measurement matches what a standalone cold-process
                // `--threads N` run would see. (Keying happens on the
                // workers, but the sequential baseline keys here.)
                semcommute_logic::with_arena(|arena| arena.clear());
                let catalog = run_catalog_verification(&run_options);
                runs.push((run_options, catalog));
            }
        }
        perf_report_json_runs(&runs)
    } else {
        let catalog = run_catalog_verification(&options);
        perf_report_json(&catalog, &options)
    };
    println!("{json}");
    if let Some(path) = out_path {
        if let Err(e) = std::fs::write(&path, format!("{json}\n")) {
            fail(&format!("writing {path} failed: {e}"));
        }
        eprintln!("wrote {path}");
    }
}
