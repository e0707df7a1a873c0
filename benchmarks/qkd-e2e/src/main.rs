//! `qkd-e2e`: the repository's end-to-end benchmark. Detection events go in,
//! redeemed key bits come out over TCP with the journal on, and a traced run
//! says which layer the time went to. See `benchmarks/README.md`.
//!
//! ```text
//! qkd-e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run, result on the last line
//! qkd-e2e all [--seed <n>] [--seconds <s>] [--runs <n>] [--write-baseline]
//! qkd-e2e compare <result.json>
//! ```

mod compare;
mod layers;
mod report;
mod run;
mod stats;
mod trace;
mod workload;

use std::process::ExitCode;

use qkd_api::Json;

use crate::report::{Layers, Metrics};
use crate::run::{Failure, RunConfig};
use crate::trace::SpanLog;

/// Seed used when none is given. Claims are checked on [`HELD_OUT_SEED`],
/// which nobody tunes against.
pub const DEFAULT_SEED: u64 = 20_221_107;
pub const HELD_OUT_SEED: u64 = 7_100_833;

/// Seconds of load before the window opens: caches fill, connections dial,
/// the placement calibrator warms.
const WARMUP_S: f64 = 1.0;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// What one run reports.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Human-readable context printed above the result line.
    pub notes: String,
    /// Traced runs: per link, which replayed blocks produced key (`.`) and
    /// which aborted (`x`).
    pub replay_pattern: Vec<String>,
}

/// Runs one workload once, untraced (end-to-end metrics) or traced
/// (per-layer metrics, spans written to `out/trace-<workload>.jsonl`).
pub fn measure(workload: &str, seed: u64, seconds: f64, traced: bool) -> Result<Outcome, Failure> {
    let workload = workload::by_name(workload).ok_or_else(|| {
        let known: Vec<_> = workload::workloads().iter().map(|w| w.name).collect();
        format!("unknown workload `{workload}`; known: {}", known.join(", "))
    })?;
    let config = RunConfig {
        workload,
        seed,
        window_s: seconds,
        warmup_s: WARMUP_S.min(seconds),
        traced,
        // The traced run reports no `setup_s`, so it sets up once.
        setup_reps: if traced { 1 } else { SETUP_REPS },
    };
    let (mut log, specs, rings) = run::run(&config)?;
    let (attempted, failed) = report::attempts(&log.load);
    let mut notes = format!(
        "workload {} seed {seed} window {seconds} s warm-up {} s nproc {} journal_fs {} set-ups {:?}\n",
        config.workload.name,
        config.warmup_s,
        run::nproc(),
        log.journal_fs,
        log.setups.iter().map(|s| s.total_s).collect::<Vec<_>>(),
    );
    notes.push_str(&format!(
        "delivered kbit/s per slice: {:?}\n",
        report::delivered(&log.load)
            .rates()
            .iter()
            .map(|r| (r / 1e3).round())
            .collect::<Vec<_>>()
    ));
    if !traced {
        return Ok(Outcome {
            attempted,
            failed,
            metrics: report::end_to_end(&log)?,
            notes,
            replay_pattern: Vec::new(),
        });
    }

    // After the window: stage replay and the layer-direct passes, on the
    // main thread, with the load threads gone.
    let mut main_log = SpanLog::new(true, log.load.origin, 1 << 10);
    let replay = layers::replay(&config.workload, &specs, &rings, &mut main_log)?;
    let scratch = run::scratch_dir("direct");
    let direct = (|| {
        let store = layers::store_pass(
            &config.workload,
            &specs[0],
            &rings[0],
            Some(&scratch.join("store")),
            &mut main_log,
        )?;
        let store_memory =
            layers::store_pass(&config.workload, &specs[0], &rings[0], None, &mut main_log)?;
        let rounds = &log.load.intake.rounds;
        let blocks_ok: u64 = rounds.iter().map(|r| r.blocks_ok).sum();
        let secret: u64 = rounds.iter().map(|r| r.secret_bits).sum();
        let exchanges: u64 = log.load.clients.iter().map(|c| c.exchanges_run).sum();
        let journal = layers::journal_pass(
            &config.workload,
            &scratch.join("journal"),
            seed,
            blocks_ok,
            exchanges,
            (secret / blocks_ok.max(1)) as usize,
            &mut main_log,
        )?;
        Ok::<_, Failure>((store, store_memory, journal))
    })();
    let _ = std::fs::remove_dir_all(&scratch);
    let (store, store_memory, journal) = direct?;

    let mut spans = std::mem::take(&mut log.load.intake.spans);
    for client in &mut log.load.clients {
        spans.append(&mut client.spans);
    }
    spans.append(&mut main_log.spans);
    let layers = Layers {
        replay,
        store,
        store_memory,
        journal,
        spans,
    };
    let metrics = report::per_layer(&config.workload, &log, &layers);
    let out = run::out_dir();
    let trace_path = out.join(format!("trace-{}.jsonl", config.workload.name));
    std::fs::create_dir_all(&out)
        .and_then(|()| std::fs::write(&trace_path, trace::to_jsonl(&layers.spans)))
        .map_err(|e| format!("write {}: {e}", trace_path.display()))?;
    notes.push_str(&report::honest_table(
        config.workload.name,
        &metrics,
        &layers.spans,
    ));
    let replay_pattern: Vec<String> = layers
        .replay
        .ok_pattern
        .iter()
        .map(|link| link.iter().map(|&ok| if ok { '.' } else { 'x' }).collect())
        .collect();
    notes.push_str(&format!(
        "replayed blocks per link (x = no key): {}\ntrace: {}\n",
        replay_pattern.join(" "),
        trace_path.display()
    ));
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        notes,
        replay_pattern,
    })
}

/// Reads `--name value` flags into `(name, value)` pairs.
fn flags(args: &[String]) -> Result<Vec<(String, String)>, Failure> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let name = arg
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{arg}`"))?;
        if name == "write-baseline" {
            out.push((name.to_string(), String::new()));
            continue;
        }
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        out.push((name.to_string(), value.clone()));
    }
    Ok(out)
}

fn flag<T: std::str::FromStr>(
    flags: &[(String, String)],
    name: &str,
) -> Result<Option<T>, Failure> {
    flags
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| {
            v.parse::<T>()
                .map_err(|_| format!("--{name}: cannot read `{v}`"))
        })
        .transpose()
}

const USAGE: &str = "usage: qkd-e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>\n       qkd-e2e all [--seed <n>] [--seconds <s>] [--runs <n>] [--write-baseline]\n       qkd-e2e compare <result.json>";

fn dispatch(args: &[String]) -> Result<ExitCode, Failure> {
    match args.first().map(String::as_str) {
        Some("all") => {
            let flags = flags(&args[1..])?;
            let doc = compare::run_all(
                flag(&flags, "seed")?.unwrap_or(DEFAULT_SEED),
                flag(&flags, "seconds")?,
                flag(&flags, "runs")?.unwrap_or(1),
                flags.iter().any(|(n, _)| n == "write-baseline"),
            )?;
            println!("{}", doc.encode());
            Ok(ExitCode::SUCCESS)
        }
        Some("compare") => {
            let path = args.get(1).ok_or("compare needs a result file")?;
            let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
            let result = Json::parse(&text).map_err(|e| format!("parse {path}: {e}"))?;
            let (table, regressed) = compare::compare(&result)?;
            print!("{table}");
            Ok(if regressed {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            })
        }
        Some(_) => {
            let flags = flags(args)?;
            let workload: String = flag(&flags, "workload")?.ok_or("--workload is required")?;
            let traced = flag::<u8>(&flags, "trace")?.unwrap_or(0) != 0;
            let seconds: f64 = flag(&flags, "seconds")?.ok_or("--seconds is required")?;
            if seconds.is_nan() || seconds < 1.0 {
                return Err("--seconds must be at least 1".into());
            }
            let seed = flag(&flags, "seed")?.unwrap_or(DEFAULT_SEED);
            let outcome = measure(&workload, seed, seconds, traced)?;
            print!("{}", outcome.notes);
            println!(
                "{}",
                report::result_line(outcome.attempted, outcome.failed, &outcome.metrics)
            );
            Ok(ExitCode::SUCCESS)
        }
        None => Err(USAGE.into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(failure) => {
            // A broken gate or an invalid run prints no metrics.
            eprintln!("qkd-e2e: {failure}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One second of a workload, end to end through the correctness gate
    /// (ledger, bit-identical keys, restart from the journal).
    fn smoke(name: &str) {
        let config = RunConfig {
            workload: workload::by_name(name).expect("a known workload"),
            seed: DEFAULT_SEED,
            window_s: 1.0,
            warmup_s: 0.25,
            traced: false,
            setup_reps: 1,
        };
        let (log, ..) = run::run(&config).expect("the run passes the correctness gate");
        let (attempted, failed) = report::attempts(&log.load);
        let exchanges: u64 = log.load.clients.iter().map(|c| c.exchanges_run).sum();
        assert!(exchanges > 0, "{name}: no exchange completed");
        assert!(attempted >= 3 * exchanges);
        assert_eq!(failed, 0, "{name}: failed operations");
        assert_eq!(log.recovery.exchange_frames, 2 * exchanges);
        assert!(!log.load.intake.rounds.is_empty());
    }

    #[test]
    fn smoke_metro_bulk() {
        smoke("metro-bulk");
    }

    #[test]
    fn smoke_backbone_small() {
        smoke("backbone-small");
    }

    #[test]
    fn smoke_sae_storm() {
        smoke("sae-storm");
    }

    #[test]
    fn smoke_fleet_paced() {
        smoke("fleet-paced");
    }

    #[test]
    fn a_seed_fixes_the_abort_pattern_and_the_journal_frames() {
        let value = |outcome: &Outcome, name: &str| {
            outcome
                .metrics
                .iter()
                .find_map(|(n, v)| (*n == name).then_some(*v))
                .expect("a declared per-layer metric")
        };
        let first = measure("backbone-small", HELD_OUT_SEED, 1.0, true).expect("traced run");
        let again = measure("backbone-small", HELD_OUT_SEED, 1.0, true).expect("traced run");
        assert_eq!(first.replay_pattern.len(), 4);
        assert!(first.replay_pattern.iter().all(|link| link.len() == 64));
        assert_eq!(first.replay_pattern, again.replay_pattern);
        assert_eq!(value(&first, "journal.frames_per_exchange"), 2.0);
        assert_eq!(value(&again, "journal.frames_per_exchange"), 2.0);
        assert_eq!(
            value(&first, "core.verify_fail_share"),
            value(&again, "core.verify_fail_share")
        );
        // Every declared per-layer metric is reported, in order.
        let names: Vec<&str> = first.metrics.iter().map(|m| m.0).collect();
        assert_eq!(
            names,
            report::PER_LAYER.iter().map(|m| m.0).collect::<Vec<_>>()
        );
        // Unknown workloads are refused by name.
        assert!(measure("nope", 1, 1.0, false).is_err_and(|e| e.contains("metro-bulk")));
    }
}
