//! Chaos matrix — the CI entry point for the fault-injection harness.
//!
//! Runs the deterministic chaos workload ([`w5_sim::run_chaos`]) for a
//! matrix of seeds, each seed **twice**, and fails (exit 1) if:
//!
//! * any run reports an invariant violation (noninterference, sentinel in
//!   a denial/degradation body, a sentinel in the ledger), or
//! * the two runs of any seed disagree — different ledger digests, fault
//!   tallies or response counts mean the fault schedule did not replay
//!   bit-identically, and every bug the harness finds would be
//!   unreproducible.
//!
//! Seeds come from the command line (`chaos_matrix 1 2 3`) or default to
//! a fixed list so CI runs are comparable across commits.

use w5_sim::{run_chaos, ChaosSpec};

const DEFAULT_SEEDS: [u64; 6] = [1, 7, 42, 1007, 20070824, 0x5735];

fn main() {
    let args: Vec<u64> = std::env::args()
        .skip(1)
        .map(|a| a.parse().unwrap_or_else(|_| panic!("bad seed: {a}")))
        .collect();
    let seeds: Vec<u64> = if args.is_empty() { DEFAULT_SEEDS.to_vec() } else { args };

    let mut failed = false;
    println!("chaos matrix: {} seeds, each run twice", seeds.len());
    println!("{:>10}  {:>16}  {:>9}  {:>9}  {:>9}  {:>8}  replay", "seed", "digest", "delivered", "blocked", "degraded", "faults");
    for &seed in &seeds {
        let spec = ChaosSpec::new(seed);
        let first = run_chaos(&spec);
        let second = run_chaos(&spec);
        let replay = if first == second { "ok" } else { "MISMATCH" };
        println!(
            "{:>10}  {:>16x}  {:>9}  {:>9}  {:>9}  {:>8}  {replay}",
            seed,
            first.digest,
            first.delivered,
            first.blocked,
            first.degraded,
            first.faults.total_injected(),
        );
        if first != second {
            failed = true;
            eprintln!(
                "seed {seed}: replay mismatch (digest {:x} vs {:x})",
                first.digest, second.digest
            );
        }
        for v in first.violations.iter().chain(second.violations.iter()) {
            failed = true;
            eprintln!("seed {seed}: VIOLATION: {v}");
        }
    }
    if failed {
        eprintln!("chaos matrix FAILED");
        std::process::exit(1);
    }
    println!("chaos matrix passed");
}
