//! End-to-end checks of the benchmark executable in quick mode.

use std::process::Command;

use semcommute_perfbench::report::{END_TO_END, PER_LAYER};

fn bench(args: &[&str]) -> Command {
    let mut command = Command::new(env!("CARGO_BIN_EXE_semcommute-perfbench"));
    command.args(args);
    for (key, _) in std::env::vars().filter(|(k, _)| k.starts_with("SEMCOMMUTE_")) {
        command.env_remove(key);
    }
    command
}

#[test]
fn every_workload_reports_every_metric_in_quick_mode() {
    for workload in ["verify_catalog", "set_read_mostly", "list_positional"] {
        for (trace, metrics) in [("0", END_TO_END), ("1", PER_LAYER)] {
            let out = bench(&[
                "--workload",
                workload,
                "--seed",
                "5",
                "--seconds",
                "1",
                "--trace",
                trace,
                "--quick",
            ])
            .output()
            .expect("benchmark runs");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{workload}/{trace}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            let last = stdout.lines().last().expect("a result line");
            assert!(
                last.starts_with("{\"correct\": true, \"attempted\": "),
                "{workload}/{trace}: {last}"
            );
            for m in metrics {
                let entry = format!("\"{}\": {{\"value\": ", m.name);
                assert!(last.contains(&entry), "{workload}/{trace}: no {}", m.name);
            }
            if trace == "0" {
                // End-to-end metrics are never 0.
                assert!(!last.contains("\"value\": 0,"), "{workload}: {last}");
            }
        }
    }
}

#[test]
fn refuses_to_measure_with_a_knob_set() {
    let out = bench(&["--workload", "set_read_mostly", "--seconds", "1", "--quick"])
        .env("SEMCOMMUTE_ORBIT", "off")
        .output()
        .expect("benchmark runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    assert!(String::from_utf8_lossy(&out.stderr).contains("SEMCOMMUTE_ORBIT"));
}

#[test]
fn benchmark_json_lists_exactly_these_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for m in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("{{\"name\": \"{}\", \"unit\": \"{}\",", m.name, m.unit);
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    let listed = json.matches("{\"name\": ").count();
    let workloads = json.matches("\"why\": ").count();
    assert_eq!(listed, END_TO_END.len() + PER_LAYER.len() + workloads);
}
