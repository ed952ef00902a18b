//! Verify the full commutativity-condition catalog and the inverse-operation
//! catalog, reproducing the paper's headline counts: 765 commutativity
//! conditions (1530 generated testing methods) and 8 inverse testing methods,
//! all verified. The equivalence obligations of the runtime forms (the set
//! and map between conditions the speculative runtime evaluates, with `r1`
//! in place of the first operation's queries on `s1`) are verified and
//! counted on their own line, and so are the 25 stripe-license obligations
//! (every ordered pair of keyed set and map operations commutes when the
//! keys differ, which lets the runtime admit a keyed operation against its
//! key stripe alone).
//!
//! Run with `cargo run --release --example verify_catalog`. Pass a number to
//! limit how many conditions per interface are verified (useful for a quick
//! look), `--seq-len N` to change the ArrayList sequence scope,
//! `--threads N` to size the obligation scheduler (`1` runs
//! the same scheduler at one worker, in catalog order), `--orbit off` to enumerate
//! candidate models unreduced (the oracle the differential soundness
//! harness compares the default orbit-canonical enumeration against).

use std::time::Instant;

use semcommute::core::runtime_form::{runtime_rewrites, stripe_license};
use semcommute::core::verify::{verify_catalog, VerifyOptions};
use semcommute::core::{inverse_catalog, report};
use semcommute::prover::Portfolio;
use semcommute::spec::InterfaceId;

const USAGE: &str = "\
usage: verify_catalog [LIMIT] [--seq-len N] [--threads N]
                      [--split-threshold N] [--orbit on|off]

  LIMIT               verify only the first LIMIT conditions per interface
  --seq-len N         ArrayList sequence scope (default 4)
  --threads N         obligation scheduler width (1 = one worker)
  --split-threshold N unreduced-space size above which one obligation's
                      model search splits into range tasks
  --orbit on|off      orbit-canonical (default) vs. unreduced enumeration";

/// Parses a required numeric option value; on a missing or non-numeric value
/// prints what was wrong plus the usage text and exits with status 2 (instead
/// of panicking with a backtrace).
fn numeric_option(flag: &str, value: Option<String>) -> usize {
    match value {
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("error: {flag} needs a number, got `{v}`\n{USAGE}");
            std::process::exit(2);
        }),
        None => {
            eprintln!("error: {flag} needs a number\n{USAGE}");
            std::process::exit(2);
        }
    }
}

fn main() {
    let mut options = VerifyOptions::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            "--seq-len" => options.seq_len = numeric_option("--seq-len", args.next()),
            "--threads" => options.threads = numeric_option("--threads", args.next()),
            "--split-threshold" => {
                options.split_threshold = numeric_option("--split-threshold", args.next()) as u64
            }
            "--orbit" => match args.next().as_deref() {
                Some("on") => options.orbit = true,
                Some("off") => options.orbit = false,
                other => {
                    eprintln!(
                        "error: --orbit needs `on` or `off`, got {}\n{USAGE}",
                        other.map_or("nothing".to_string(), |v| format!("`{v}`"))
                    );
                    std::process::exit(2);
                }
            },
            other => match other.parse() {
                Ok(limit) => options.limit = Some(limit),
                Err(_) => {
                    eprintln!("error: unrecognized argument `{other}`\n{USAGE}");
                    std::process::exit(2);
                }
            },
        }
    }

    println!("Verifying the commutativity-condition catalog");
    println!(
        "(threads: {}, ArrayList sequence scope: {}, limit: {:?}, orbit: {})\n",
        options.threads,
        options.seq_len,
        options.limit,
        if options.orbit { "on" } else { "off" },
    );

    let start = Instant::now();
    let catalog = verify_catalog(&options);
    let mut paper_conditions = 0usize;
    let mut paper_verified = 0usize;
    for report in &catalog.interfaces {
        let implementations = report.interface.implementations().len();
        paper_conditions += report.total() * implementations;
        paper_verified += report.verified_count() * implementations;
        println!(
            "{:<12} {:>4} conditions  {:>4} methods  {:>4} verified  {:>8.2}s",
            report.interface.to_string(),
            report.total(),
            report.method_count(),
            report.verified_count(),
            report.elapsed.as_secs_f64()
        );
        for failure in report.failures() {
            println!("  FAILED {}", failure.condition.id());
            if let Some(model) = failure.soundness.counter_model() {
                println!("    soundness counterexample:\n{model}");
            }
            if let Some(model) = failure.completeness.counter_model() {
                println!("    completeness counterexample:\n{model}");
            }
        }
    }
    println!(
        "\nmodels checked: {} ({} pruned as non-canonical orbit members)",
        catalog.models_checked(),
        catalog.orbits_pruned()
    );
    println!(
        "bytecode batches: {} ({} fallback lanes, {} instructions executed)",
        catalog.batches(),
        catalog.batch_fallbacks(),
        catalog.instrs_executed()
    );
    let reports = catalog.interfaces;

    if let Some(s) = &catalog.scheduler {
        println!(
            "\nscheduler: {} obligations ({} unique), {} proved, {} dedup hits, {} skipped",
            s.submitted, s.unique, s.proved, s.cache_hits, s.skipped
        );
        println!(
            "           {} splits into {} subranges ({} split-off ranges run by another \
             worker); obligation wall max {:.3}s, p99 {:.3}s",
            s.splits,
            s.subranges,
            s.steals,
            s.max_obligation_wall.as_secs_f64(),
            s.p99_obligation_wall.as_secs_f64()
        );
        for error in &s.errors {
            println!("  non-fatal error: {error}");
        }
    }

    println!();
    println!("{}", report::verification_time_table(&reports));
    println!(
        "Conditions counted per data structure (paper counts 765): {paper_verified}/{paper_conditions} verified"
    );

    println!("\nVerifying the inverse-operation catalog (Table 5.10)");
    let mut inverse_ok = 0;
    for inverse in inverse_catalog() {
        let scope = semcommute::core::verify::scope_for(inverse.interface, options.seq_len)
            .with_orbit(options.orbit);
        let verdict = semcommute::core::inverse::verify_inverse(&inverse, &Portfolio::new(scope));
        println!(
            "  {:<60} {}",
            inverse.to_string(),
            if verdict.is_valid() {
                "verified"
            } else {
                "FAILED"
            }
        );
        if verdict.is_valid() {
            inverse_ok += 1;
        }
    }
    println!("{inverse_ok}/8 inverse testing methods verified");

    println!("\nVerifying the runtime forms (set and map between conditions, r1 for s1)");
    let (mut rewrites, mut rewrites_ok) = (0, 0);
    for interface in InterfaceId::ALL {
        let scope = semcommute::core::verify::scope_for(interface, options.seq_len)
            .with_orbit(options.orbit);
        let prover = Portfolio::new(scope);
        for rewrite in runtime_rewrites(interface) {
            rewrites += 1;
            let verdict = prover.prove(&rewrite.obligation());
            println!(
                "  {:<36} {:<44} {}",
                rewrite.paper.id(),
                rewrite.runtime.formula.to_string(),
                if verdict.is_valid() {
                    "equivalent"
                } else {
                    "FAILED"
                }
            );
            if let Some(model) = verdict.counter_model() {
                println!("    counterexample:\n{model}");
            }
            if verdict.is_valid() {
                rewrites_ok += 1;
            }
        }
    }
    println!("{rewrites_ok}/{rewrites} runtime-form equivalence obligations verified");

    println!("\nVerifying the stripe license (keyed set and map pairs commute on different keys)");
    let (mut licenses, mut licenses_ok) = (0, 0);
    for interface in InterfaceId::ALL {
        let scope = semcommute::core::verify::scope_for(interface, options.seq_len)
            .with_orbit(options.orbit);
        let prover = Portfolio::new(scope);
        for license in stripe_license(interface) {
            licenses += 1;
            let verdict = prover.prove(&license.obligation());
            println!(
                "  {:<36} {:<44} {}",
                license.runtime.id(),
                license.runtime.formula.to_string(),
                if verdict.is_valid() {
                    "licensed"
                } else {
                    "FAILED"
                }
            );
            if let Some(model) = verdict.counter_model() {
                println!("    counterexample:\n{model}");
            }
            if verdict.is_valid() {
                licenses_ok += 1;
            }
        }
    }
    println!("{licenses_ok}/{licenses} stripe-license obligations verified");
    println!("\nTotal time: {:.2}s", start.elapsed().as_secs_f64());
}
