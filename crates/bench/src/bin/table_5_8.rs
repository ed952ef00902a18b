//! Table 5.8: commutativity testing method verification times.
//!
//! Generates and verifies all 1530 testing methods (soundness and
//! completeness for each of the 765 conditions, counted per data structure)
//! and prints the per-structure verification time (busy time: the summed
//! proof time of each structure's obligations). Accepts an optional
//! per-interface condition limit, `--seq-len N`, and `--threads N` (the
//! obligation scheduler's width; `--threads 1` runs the same scheduler at
//! one worker). A malformed argument prints what is wrong and the usage text
//! and exits with status 2.

use semcommute_bench::{banner, parse_args};
use semcommute_core::report::verification_time_table;
use semcommute_core::verify::verify_catalog;

const USAGE: &str = "\
usage: table_5_8 [LIMIT] [--seq-len N] [--threads N] [--split-threshold N]
                 [--orbit on|off]";

fn main() {
    let options = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        std::process::exit(2);
    });
    banner("Table 5.8 — Commutativity Testing Method Verification Times");
    println!(
        "threads: {}, ArrayList sequence scope: {}, limit: {:?}\n",
        options.threads, options.seq_len, options.limit
    );
    let reports = verify_catalog(&options).interfaces;
    println!("{}", verification_time_table(&reports));
    let failing: usize = reports.iter().map(|r| r.failures().len()).sum();
    println!("unverified conditions: {failing}");
    let (structural, finite): (usize, usize) = reports.iter().fold((0, 0), |acc, r| {
        let (s, f) = r.prover_breakdown();
        (acc.0 + s, acc.1 + f)
    });
    println!("methods decided structurally: {structural}, via finite-model search: {finite}");
}
