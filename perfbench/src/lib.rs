//! One benchmark for both halves of semcommute: catalog verification time
//! and speculative-runtime throughput and latency, with outside-in
//! per-layer tracing. See `README.md` in this directory.

pub mod report;
pub mod runtime;
pub mod stats;
pub mod trace;
pub mod verify;

use std::path::PathBuf;

use report::Outcome;
use runtime::{Mix, RuntimeConfig};
use verify::VerifyConfig;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The full condition catalog plus the inverse operations.
    VerifyCatalog,
    /// A read-mostly `HashSet` under the speculative runtime.
    SetReadMostly,
    /// Positional reads and writes on an `ArrayList`.
    ListPositional,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 3] = [
        Workload::VerifyCatalog,
        Workload::SetReadMostly,
        Workload::ListPositional,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::VerifyCatalog => "verify_catalog",
            Workload::SetReadMostly => "set_read_mostly",
            Workload::ListPositional => "list_positional",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Parsed command-line arguments of one workload run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// The workload; `None` runs every workload, each in its own process.
    pub workload: Option<Workload>,
    /// Seed of every generated input.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
    /// Small sizes that finish in seconds, for tests.
    pub quick: bool,
}

/// Command-line usage.
pub const USAGE: &str = "\
usage: perfbench --workload verify_catalog|set_read_mostly|list_positional|all
                 [--seed N] [--seconds N] [--trace 0|1] [--quick]";

impl RunArgs {
    /// Parses `--workload W --seed N --seconds N --trace 0|1 [--quick]`.
    pub fn parse(mut args: impl Iterator<Item = String>) -> Result<RunArgs, String> {
        let mut workload = None;
        let mut seed = 1;
        let mut seconds = 10.0;
        let mut trace = false;
        let mut quick = false;
        while let Some(arg) = args.next() {
            let mut value = |flag: &str| args.next().ok_or(format!("{flag} needs a value"));
            match arg.as_str() {
                "--workload" => {
                    let name = value("--workload")?;
                    workload = Some(if name == "all" {
                        None
                    } else {
                        Some(Workload::parse(&name).ok_or(format!("unknown workload `{name}`"))?)
                    });
                }
                "--seed" => {
                    seed = value("--seed")?
                        .parse()
                        .map_err(|_| "--seed needs a whole number".to_string())?;
                }
                "--seconds" => {
                    seconds = value("--seconds")?
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or("--seconds needs a positive number")?;
                }
                "--trace" => {
                    trace = match value("--trace")?.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace needs 0 or 1".to_string()),
                    };
                }
                "--quick" => quick = true,
                other => return Err(format!("unrecognized argument `{other}`")),
            }
        }
        Ok(RunArgs {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
            quick,
        })
    }

    /// Where a traced run writes its spans.
    pub fn trace_path(&self) -> PathBuf {
        let name = self.workload.map_or("all", Workload::name);
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{name}-seed{}.jsonl", self.seed))
    }
}

/// Whether another repetition of `last_s` seconds still fits a budget of
/// `seconds` counted from `started`; the first `min_reps` always run.
pub(crate) fn another(
    reps: usize,
    min_reps: usize,
    started: std::time::Instant,
    last_s: f64,
    seconds: f64,
) -> bool {
    reps < min_reps || started.elapsed().as_secs_f64() + last_s <= seconds
}

/// The parallel width: the host's available parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Every set `SEMCOMMUTE_*` environment variable. Each of them changes the
/// program being measured, so the benchmark refuses to run under any.
pub fn knob_settings() -> Vec<(String, String)> {
    let mut knobs: Vec<(String, String)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("SEMCOMMUTE_"))
        .collect();
    knobs.sort();
    knobs
}

fn proc_field(file: &str, key: &str) -> Option<String> {
    std::fs::read_to_string(file)
        .ok()?
        .lines()
        .find_map(|line| {
            let (k, v) = line.split_once(':')?;
            (k.trim() == key).then(|| v.trim().to_string())
        })
}

/// The process's peak resident set (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let kb: f64 = proc_field("/proc/self/status", "VmHWM")?
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// The commit the benchmark was built from, read from the checkout's
/// `.git` directory (`unknown` outside a git checkout).
fn git_commit() -> String {
    let git = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: PathBuf| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(git.join("HEAD")) {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(reference) => read(git.join(reference)).unwrap_or(head),
            None => head,
        },
        None => "unknown".to_string(),
    }
}

/// Host and build facts recorded with every run.
pub fn provenance() -> Vec<(&'static str, String)> {
    let knobs = knob_settings()
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>()
        .join(" ");
    vec![
        ("nproc", nproc().to_string()),
        (
            "cpu_model",
            proc_field("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".to_string()),
        ),
        (
            "memory",
            proc_field("/proc/meminfo", "MemTotal").unwrap_or_else(|| "unknown".to_string()),
        ),
        ("rustc", env!("PERFBENCH_RUSTC_VERSION").to_string()),
        ("git_commit", git_commit()),
        ("semcommute_env", knobs),
    ]
}

/// Runs one workload in this process.
pub fn run(workload: Workload, args: &RunArgs) -> Outcome {
    let nproc = nproc();
    let mut outcome = match workload {
        Workload::VerifyCatalog => {
            let cfg = if args.quick {
                VerifyConfig::quick()
            } else {
                VerifyConfig::full()
            };
            verify::run(&cfg, args, nproc)
        }
        Workload::SetReadMostly | Workload::ListPositional => {
            let mix = if workload == Workload::SetReadMostly {
                Mix::SetReadMostly
            } else {
                Mix::ListPositional
            };
            let cfg = if args.quick {
                RuntimeConfig::quick(mix)
            } else {
                RuntimeConfig::full(mix)
            };
            runtime::run(&cfg, args, nproc)
        }
    };
    if !args.trace {
        match peak_rss_mb() {
            Some(mb) => outcome.push("peak_rss_mb", mb),
            None => outcome.fail(1, "VmHWM unavailable in /proc/self/status"),
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<RunArgs, String> {
        RunArgs::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let args = parse(&[
            "--workload",
            "set_read_mostly",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(args.workload, Some(Workload::SetReadMostly));
        assert_eq!(
            (args.seed, args.seconds, args.trace, args.quick),
            (7, 10.0, true, false)
        );
        assert_eq!(parse(&["--workload", "all"]).unwrap().workload, None);
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--seed", "1"]).is_err());
        assert!(parse(&["--workload", "verify_catalog", "--trace", "2"]).is_err());
    }
}
