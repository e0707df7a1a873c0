//! Evaluation harness: regenerates every table and figure of the
//! reconstructed evaluation and hosts the kernel smoke benchmark CI gates on.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p qkd-bench --bin harness -- all
//! cargo run --release -p qkd-bench --bin harness -- table1 fig5
//! cargo run --release -p qkd-bench --bin harness -- --smoke
//! ```

use qkd_bench::experiments;

const USAGE: &str = "usage: harness [--smoke] [EXPERIMENTS...]

Flags:
  --smoke        kernel smoke benchmark, one JSON document on stdout
                 (qkd-bench-smoke/v1): ldpc_decode_16k must run on the
                 circulant-lane kernel (and, with AVX2, above its floor);
                 with PCLMULQDQ present, toeplitz_clmul_64k and
                 verify_tag_16k must run above theirs
  --help, -h     print this help and exit

Experiments (aligned text tables):
  all            every table and figure below, in order
  table1         per-stage CPU throughput breakdown
  table2         LDPC decode throughput by device and block size: cpu row
                 measured, accelerator rows modeled
  table3         reconciliation efficiency: Cascade vs rate-adaptive LDPC
  fig1           secret-key rate vs fibre distance
  fig2           end-to-end throughput vs block size: cpu row measured,
                 accelerator rows modeled from the same stage times
  fig3           Toeplitz privacy-amplification throughput: naive/clmul rows
                 measured, sim-gpu row modeled
  fig4           placement table: calibrated decode + hash cost per
                 placement and block size, and the scheduler's pick
  fig5           LDPC offload latency crossover
  fig6           Cascade interactivity cost vs channel RTT
  fig7           finite-key secret fraction vs block size

Unknown flags or experiment names exit with status 2.";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("{USAGE}");
        std::process::exit(2);
    }
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return;
    }

    // Reject anything unrecognised before running a single experiment, so a
    // typo cannot silently produce a partial (or empty) run.
    const KNOWN: &[&str] = &[
        "--smoke", "smoke", "all", "table1", "table2", "table3", "fig1", "fig2", "fig3", "fig4",
        "fig5", "fig6", "fig7",
    ];
    for arg in &args {
        if !KNOWN.contains(&arg.as_str()) {
            eprintln!("unknown flag or experiment `{arg}`\n\n{USAGE}");
            std::process::exit(2);
        }
    }

    // Both `--smoke` and the bare `smoke` spelling are accepted.
    if args.iter().any(|a| a == "--smoke" || a == "smoke") {
        experiments::smoke();
    }

    for arg in &args {
        match arg.as_str() {
            "all" => experiments::run_all(),
            "table1" => experiments::table1(),
            "table2" => experiments::table2(),
            "table3" => experiments::table3(),
            "fig1" => experiments::fig1(),
            "fig2" => experiments::fig2(),
            "fig3" => experiments::fig3(),
            "fig4" => experiments::fig4(),
            "fig5" => experiments::fig5(),
            "fig6" => experiments::fig6(),
            "fig7" => experiments::fig7(),
            // `--smoke` was handled above.
            _ => {}
        }
    }
}
