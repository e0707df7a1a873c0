//! `all`: every workload in its own process, untraced then traced, gathered
//! into one document. `compare`: that document against the committed
//! baselines under the bounds of `BENCHMARK.json`.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;

use qkd_api::Json;

use crate::run::{fs_type, journal_root, nproc, out_dir, Failure};
use crate::stats::{median, quartile_spread};
use crate::workload::workloads;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn baseline_path(workload: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../baseline")
        .join(format!("{workload}.json"))
}

fn benchmark_json() -> Result<Json, Failure> {
    let path = repo_root().join("BENCHMARK.json");
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("parse {}: {e}", path.display()))
}

fn git_sha() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(repo_root())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// Runs this executable once for one workload and returns the `metrics`
/// object of its result line. Its own process, so that set-up time and peak
/// memory are the workload's own.
fn child_metrics(workload: &str, seed: u64, seconds: f64, traced: bool) -> Result<Json, Failure> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if traced { "1" } else { "0" },
        ])
        .output()
        .map_err(|e| format!("run {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!(
            "{workload} (trace {}) failed: {}",
            traced as u8,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    let (notes, line) = stdout
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", stdout.trim_end()));
    if traced {
        eprintln!("{notes}");
    }
    let doc = Json::parse(line).map_err(|e| format!("{workload}: result line: {e}"))?;
    doc.get("metrics")
        .cloned()
        .ok_or_else(|| format!("{workload}: result line has no metrics"))
}

fn value_of(metrics: &Json, name: &str) -> Option<f64> {
    metrics.get(name)?.get("value")?.as_f64()
}

/// `{name: {"median", "spread", "unit", "values"}}` over several runs'
/// `metrics` objects.
fn summarise(runs: &[Json]) -> Json {
    let Some(Json::Obj(first)) = runs.first() else {
        return Json::Obj(Vec::new());
    };
    Json::Obj(
        first
            .iter()
            .map(|(name, metric)| {
                let values: Vec<f64> = runs.iter().filter_map(|r| value_of(r, name)).collect();
                let mut fields = vec![
                    ("median".to_string(), Json::Num(median(&values))),
                    (
                        "unit".to_string(),
                        metric.get("unit").cloned().unwrap_or(Json::Null),
                    ),
                    (
                        "values".to_string(),
                        Json::Arr(values.iter().map(|&v| Json::Num(v)).collect()),
                    ),
                ];
                if let Some(spread) = quartile_spread(&values) {
                    fields.insert(1, ("spread".to_string(), Json::Num(spread)));
                }
                (name.clone(), Json::Obj(fields))
            })
            .collect(),
    )
}

/// Runs every workload `runs` times untraced and once traced, each in its
/// own process, and returns (and writes to `out/`) one document with every
/// metric by name. Only measured numbers appear in it.
pub fn run_all(
    seed: u64,
    seconds: Option<f64>,
    runs: usize,
    write_baseline: bool,
) -> Result<Json, Failure> {
    let runs = runs.max(1);
    let seconds = match seconds {
        Some(seconds) => seconds,
        None => benchmark_json()?
            .get("run_seconds")
            .and_then(Json::as_f64)
            .ok_or("BENCHMARK.json has no run_seconds")?,
    };
    let context = vec![
        ("schema".to_string(), Json::str("qkd-e2e/v1")),
        ("git_sha".to_string(), Json::str(git_sha())),
        ("nproc".to_string(), Json::num(nproc() as u64)),
        ("seed".to_string(), Json::num(seed)),
        ("window_s".to_string(), Json::Num(seconds)),
        ("runs".to_string(), Json::num(runs as u64)),
        (
            "journal_fs".to_string(),
            Json::str(fs_type(&journal_root())),
        ),
    ];
    let mut per_workload = Vec::new();
    for workload in workloads() {
        let mut untraced = Vec::with_capacity(runs);
        for run in 0..runs {
            eprintln!("{}: untraced run {} of {runs}", workload.name, run + 1);
            untraced.push(child_metrics(workload.name, seed, seconds, false)?);
        }
        eprintln!("{}: traced run", workload.name);
        let traced = child_metrics(workload.name, seed, seconds, true)?;
        let end_to_end = summarise(&untraced);
        let mut per_layer = summarise(std::slice::from_ref(&traced));
        // Tracing overhead: what the traced run delivered against the
        // untraced median.
        let delivered = end_to_end
            .get("delivered_secret_bps")
            .and_then(|m| m.get("median"))
            .and_then(Json::as_f64);
        let traced_rate = value_of(&traced, "bench.exchanges")
            .map(|n| n * workload.exchange_bits() as f64 / seconds);
        if let (Some(untraced), Some(traced), Json::Obj(fields)) =
            (delivered, traced_rate, &mut per_layer)
        {
            fields.push((
                "bench.trace_overhead_share".to_string(),
                Json::Obj(vec![
                    ("median".to_string(), Json::Num(1.0 - traced / untraced)),
                    ("unit".to_string(), Json::str("share")),
                ]),
            ));
        }
        if write_baseline {
            let mut doc = context.clone();
            doc.push(("workload".to_string(), Json::str(workload.name)));
            doc.push(("end_to_end".to_string(), end_to_end.clone()));
            let path = baseline_path(workload.name);
            std::fs::create_dir_all(path.parent().unwrap_or(Path::new(".")))
                .and_then(|()| std::fs::write(&path, doc_text(&Json::Obj(doc))))
                .map_err(|e| format!("write {}: {e}", path.display()))?;
        }
        per_workload.push((
            workload.name.to_string(),
            Json::Obj(vec![
                ("end_to_end".to_string(), end_to_end),
                ("per_layer".to_string(), per_layer),
            ]),
        ));
    }
    let mut doc = context;
    doc.push(("workloads".to_string(), Json::Obj(per_workload)));
    let doc = Json::Obj(doc);
    let path = out_dir().join(format!("result-seed{seed}.json"));
    std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, doc_text(&doc)))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!("result written to {}", path.display());
    Ok(doc)
}

/// The encoder writes one line; break it after each metric so that a
/// committed baseline diffs line by line.
fn doc_text(doc: &Json) -> String {
    doc.encode().replace("},\"", "},\n\"") + "\n"
}

/// How one metric of one workload compares with its baseline.
#[derive(Debug, PartialEq)]
pub enum Verdict {
    Ok,
    Regression,
    /// The baseline's own five runs spread wider than the bound: a
    /// difference of that size cannot be told from noise.
    Unresolved,
}

/// Judges `new` against a baseline `median` whose runs spread by `spread`,
/// under `bound` (share of the baseline median) in direction `better`.
pub fn judge(better: &str, bound: f64, baseline: f64, spread: f64, new: f64) -> (f64, Verdict) {
    let worse_by = if better == "lower" {
        (new - baseline) / baseline
    } else {
        (baseline - new) / baseline
    };
    let verdict = if spread > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regression
    } else {
        Verdict::Ok
    };
    (worse_by, verdict)
}

/// Compares an `all` document with the committed baselines. Returns the
/// table and whether any metric regressed.
pub fn compare(result: &Json) -> Result<(String, bool), Failure> {
    let benchmark = benchmark_json()?;
    let declared = benchmark
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end")?;
    let mut table = format!(
        "{:<16}{:<26}{:>14}{:>14}{:>9}{:>8}  verdict\n",
        "workload", "metric", "baseline", "result", "worse %", "bound %"
    );
    let mut regressed = false;
    for workload in workloads() {
        let path = baseline_path(workload.name);
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let baseline = Json::parse(&text).map_err(|e| format!("parse {}: {e}", path.display()))?;
        for metric in declared {
            let field = |key: &str| metric.get(key).and_then(Json::as_str).unwrap_or_default();
            let (name, better) = (field("name"), field("better"));
            let bound = metric.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let summary =
                |doc: &Json, key: &str| doc.get("end_to_end")?.get(name)?.get(key)?.as_f64();
            let new = result
                .get("workloads")
                .and_then(|w| w.get(workload.name))
                .and_then(|w| summary(w, "median"))
                .ok_or_else(|| format!("result has no {name} for {}", workload.name))?;
            let base = summary(&baseline, "median")
                .ok_or_else(|| format!("{} has no {name}", path.display()))?;
            let spread = summary(&baseline, "spread").unwrap_or(0.0);
            let (worse_by, verdict) = judge(better, bound, base, spread, new);
            regressed |= verdict == Verdict::Regression;
            let _ = writeln!(
                table,
                "{:<16}{name:<26}{base:>14.4}{new:>14.4}{:>9.2}{:>8.1}  {}",
                workload.name,
                100.0 * worse_by,
                100.0 * bound,
                match verdict {
                    Verdict::Ok => "ok".to_string(),
                    Verdict::Regression => "REGRESSION".to_string(),
                    Verdict::Unresolved =>
                        format!("unresolved (baseline spread {:.1} %)", 100.0 * spread),
                }
            );
        }
    }
    Ok((table, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_apply_in_the_metric_direction() {
        // Lower is better: 12 % slower breaks a 10 % bound, 8 % does not.
        assert_eq!(
            judge("lower", 0.10, 100.0, 0.02, 112.0).1,
            Verdict::Regression
        );
        assert_eq!(judge("lower", 0.10, 100.0, 0.02, 108.0).1, Verdict::Ok);
        assert_eq!(judge("lower", 0.10, 100.0, 0.02, 50.0).1, Verdict::Ok);
        // Higher is better: a drop is worse, a rise is not.
        let (worse_by, verdict) = judge("higher", 0.10, 200.0, 0.02, 170.0);
        assert!((worse_by - 0.15).abs() < 1e-12);
        assert_eq!(verdict, Verdict::Regression);
        assert_eq!(judge("higher", 0.10, 200.0, 0.02, 260.0).1, Verdict::Ok);
        // A baseline noisier than the bound resolves nothing either way.
        assert_eq!(
            judge("lower", 0.10, 100.0, 0.30, 150.0).1,
            Verdict::Unresolved
        );
    }

    #[test]
    fn run_summaries_carry_median_spread_and_every_value() {
        let run = |v: f64| {
            Json::parse(&format!(
                "{{\"setup_s\": {{\"value\": {v}, \"unit\": \"s\"}}}}"
            ))
            .unwrap()
        };
        let summary = summarise(&[run(1.0), run(2.0), run(3.0), run(4.0), run(5.0)]);
        let setup = summary.get("setup_s").unwrap();
        assert_eq!(setup.get("median").and_then(Json::as_f64), Some(3.0));
        assert_eq!(setup.get("spread").and_then(Json::as_f64), Some(1.0));
        assert_eq!(
            setup
                .get("values")
                .and_then(Json::as_array)
                .map(<[Json]>::len),
            Some(5)
        );
        // One run has no spread to report.
        let single = summarise(&[run(1.0)]);
        assert!(single.get("setup_s").unwrap().get("spread").is_none());
        assert!(Json::parse(&doc_text(&summary)).is_ok());
    }
}
