//! Evaluation harness: regenerates every table and figure of the
//! reconstructed evaluation and hosts the machine-readable smoke benchmarks
//! CI archives.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p qkd-bench --bin harness -- all
//! cargo run --release -p qkd-bench --bin harness -- table1 fig5
//! cargo run --release -p qkd-bench --bin harness -- --smoke
//! cargo run --release -p qkd-bench --bin harness -- --smoke --fleet
//! cargo run --release -p qkd-bench --bin harness -- --smoke --api
//! cargo run --release -p qkd-bench --bin harness -- --smoke --journal
//! cargo run --release -p qkd-bench --bin harness -- --smoke --obs-overhead
//! ```

use qkd_bench::experiments;

const USAGE: &str = "usage: harness [FLAGS] [EXPERIMENTS...]

Flags (each prints one JSON document to stdout):
  --smoke        quick kernel smoke benchmark; with PCLMULQDQ present it
                 asserts floors on its two Toeplitz rows; also reports one
                 engine batch at width 1 and width nproc (qkd-bench-smoke/v1)
  --fleet        multi-link fleet over a shared pool: FIFO-vs-WFQ policy
                 cells, host vs placed-modeled stage time and a
                 links x workers grid              (qkd-bench-fleet/v3)
  --api          ETSI 014 delivery: keep-alive vs per-request connection
                 sweep, 64-4096 concurrent SAEs   (qkd-bench-api/v2)
  --journal      journaled vs in-memory store: deposit/redeem
                 throughput and recovery check    (qkd-bench-journal/v1)
  --obs-overhead telemetry on/off decode-throughput gate  (qkd-bench-obs/v1)
  --help, -h     print this help and exit

`--fleet`, `--api`, `--journal` and `--obs-overhead` run their
benchmark whether or not `--smoke` is present; `--smoke` alone runs the kernel
smoke benchmark.

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
        "--smoke",
        "smoke",
        "--fleet",
        "fleet",
        "--api",
        "api",
        "--journal",
        "journal",
        "--obs-overhead",
        "obs-overhead",
        "all",
        "table1",
        "table2",
        "table3",
        "fig1",
        "fig2",
        "fig3",
        "fig4",
        "fig5",
        "fig6",
        "fig7",
    ];
    for arg in &args {
        if !KNOWN.contains(&arg.as_str()) {
            eprintln!("unknown flag or experiment `{arg}`\n\n{USAGE}");
            std::process::exit(2);
        }
    }

    // Both `--smoke` and the bare `smoke` spelling are accepted, as before.
    let has = |name: &str| args.iter().any(|a| a.trim_start_matches("--") == name);
    let smoke = has("smoke");
    let fleet = has("fleet");
    let api = has("api");
    let journal = has("journal");
    let obs_overhead = has("obs-overhead");

    if fleet {
        experiments::smoke_fleet();
    }
    if api {
        experiments::smoke_api();
    }
    if journal {
        experiments::smoke_journal();
    }
    if obs_overhead {
        experiments::smoke_obs_overhead();
    }
    if smoke && !fleet && !api && !journal && !obs_overhead {
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
            // Flags were handled above.
            _ => {}
        }
    }
}
