//! Turns what a run recorded into the named metrics of `BENCHMARK.json`,
//! the "honest table" and the result line.

use std::fmt::Write as _;

use crate::layers::{JournalCost, Replay, StoreCost};
use crate::run::{peak_rss_mib, setup_s, LoadLog, RunLog, SLICES};
use crate::stats::{highest_percentile, median, overlap, percentile, Slices};
use crate::trace::{totals_by_kind, Span};
use crate::workload::Workload;

/// The end-to-end metrics `(name, unit)`, in the order `BENCHMARK.json`
/// lists them; their directions and bounds live there.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("delivered_secret_bps", "bit/s"),
    ("sifted_in_bps", "bit/s"),
    ("exchange_latency_p90_ms", "ms"),
    ("epoch_latency_p50_ms", "ms"),
    ("secret_yield", "share"),
    ("peak_rss_mib", "MiB"),
];

/// The per-layer metrics `(name, unit, better)`, prefix = crate.
pub const PER_LAYER: [(&str, &str, &str); 77] = [
    ("simulator.gen_events_per_s", "1/s", "higher"),
    ("sifting.sift_ns_per_event", "ns", "lower"),
    ("sifting.sift_ratio", "share", "higher"),
    ("sifting.estimate_us_per_block", "us", "lower"),
    ("sifting.estimate_abort_share", "share", "lower"),
    ("ldpc.library_build_s", "s", "lower"),
    ("ldpc.reconcile_us_per_block", "us", "lower"),
    ("ldpc.reconcile_sifted_mbps", "Mbit/s", "higher"),
    ("ldpc.attempts_per_block", "count", "lower"),
    ("ldpc.iterations_per_block", "count", "lower"),
    ("ldpc.fail_share", "share", "lower"),
    ("ldpc.efficiency_f", "ratio", "lower"),
    ("core.verify_us_per_block", "us", "lower"),
    ("core.verify_fail_share", "share", "lower"),
    ("core.engine_us_per_block", "us", "lower"),
    ("core.engine_glue_share", "share", "lower"),
    ("core.block_abort_share", "share", "lower"),
    ("privacy.amplify_us_per_block", "us", "lower"),
    ("privacy.amplify_sifted_mbps", "Mbit/s", "higher"),
    ("privacy.secret_fraction", "share", "higher"),
    ("privacy.insufficient_share", "share", "lower"),
    ("auth.sign_verify_us_per_block", "us", "lower"),
    ("auth.pool_bits_per_block", "bit", "lower"),
    ("manager.submit_us_per_epoch", "us", "lower"),
    ("manager.run_share", "share", "lower"),
    ("manager.worker_utilisation", "share", "higher"),
    ("manager.blocks_per_s", "1/s", "higher"),
    ("manager.epoch_p95_ms", "ms", "lower"),
    ("manager.backlog_max_epochs", "count", "lower"),
    ("manager.backlog_end_epochs", "count", "lower"),
    ("manager.intake_lag_p95_ms", "ms", "lower"),
    ("manager.wake_late_p95_ms", "ms", "lower"),
    ("manager.admission_rejects", "count", "lower"),
    ("manager.fairness_weighted", "ratio", "higher"),
    ("store.status_us", "us", "lower"),
    ("store.reserve_us", "us", "lower"),
    ("store.redeem_us", "us", "lower"),
    ("store.journaled_over_memory", "ratio", "lower"),
    ("journal.append_us_per_frame", "us", "lower"),
    ("journal.fsyncs_per_1k_frames", "count", "lower"),
    ("journal.frames_per_exchange", "count", "lower"),
    ("journal.bytes_per_key_byte", "ratio", "lower"),
    ("journal.segments", "count", "lower"),
    ("journal.replay_us_per_frame", "us", "lower"),
    ("journal.recovery_s", "s", "lower"),
    ("api.status_p50_us", "us", "lower"),
    ("api.status_p99_us", "us", "lower"),
    ("api.enc_p50_us", "us", "lower"),
    ("api.enc_p99_us", "us", "lower"),
    ("api.dec_p50_us", "us", "lower"),
    ("api.dec_p99_us", "us", "lower"),
    ("api.exchange_p50_ms", "ms", "lower"),
    ("api.exchange_p99_ms", "ms", "lower"),
    ("api.exchange_self_us", "us", "lower"),
    ("api.requests_per_s", "1/s", "higher"),
    ("api.http_overhead_us", "us", "lower"),
    ("api.non_2xx", "count", "lower"),
    ("api.request_fail_share", "share", "lower"),
    ("api.connections_accepted", "count", "lower"),
    ("api.client_backoffs", "count", "lower"),
    ("obs.stage_s.estimation", "s", "lower"),
    ("obs.stage_s.reconciliation", "s", "lower"),
    ("obs.stage_s.verification", "s", "lower"),
    ("obs.stage_s.privacy_amplification", "s", "lower"),
    ("obs.stage_s.authentication", "s", "lower"),
    ("obs.stage_disagreement", "share", "lower"),
    ("obs.http_request_s", "s", "lower"),
    ("obs.journal_fsync_s", "s", "lower"),
    ("bench.cpu_s", "s", "lower"),
    ("bench.secret_bits_per_cpu_s", "bit/s", "higher"),
    ("bench.slice_spread", "share", "lower"),
    ("bench.exchanges", "count", "higher"),
    ("bench.epochs", "count", "higher"),
    ("bench.replayed_blocks", "count", "higher"),
    ("bench.spans", "count", "higher"),
    ("bench.exchange_percentile", "ratio", "higher"),
    ("bench.epoch_percentile", "ratio", "higher"),
];

/// Named values, in the order they were measured.
pub type Metrics = Vec<(&'static str, f64)>;

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .copied()
        .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
        .find_map(|(n, unit)| (n == name).then_some(unit))
        .unwrap_or("count")
}

/// Samples `(at_s, value)` that completed inside the window.
fn within(samples: &[(f64, f64)], window: (f64, f64)) -> Vec<f64> {
    samples
        .iter()
        .filter(|(at, _)| (window.0..window.1).contains(at))
        .map(|&(_, v)| v)
        .collect()
}

/// What the intake rounds did inside the window, work prorated over each
/// round's interval.
struct WindowWork {
    sifted: Slices,
    secret: f64,
    blocks_ok: f64,
    blocks_failed: f64,
    busy_s: f64,
    run_s: f64,
}

fn window_work(load: &LoadLog) -> WindowWork {
    let (from, to) = load.window;
    let span = to - from;
    let mut work = WindowWork {
        sifted: Slices::new(from, span, SLICES),
        secret: 0.0,
        blocks_ok: 0.0,
        blocks_failed: 0.0,
        busy_s: 0.0,
        run_s: 0.0,
    };
    for round in &load.intake.rounds {
        work.sifted
            .add_over(round.start_s, round.end_s, round.sifted_bits as f64);
        let inside = overlap(round.start_s, round.end_s, from, to);
        let share = inside / (round.end_s - round.start_s);
        work.secret += round.secret_bits as f64 * share;
        work.blocks_ok += round.blocks_ok as f64 * share;
        work.blocks_failed += round.blocks_failed as f64 * share;
        work.busy_s += round.busy_s * share;
        work.run_s += inside;
    }
    work
}

fn merged<'a>(
    load: &'a LoadLog,
    pick: impl Fn(&'a crate::run::ClientLog) -> &'a [f64],
) -> Vec<f64> {
    load.clients
        .iter()
        .flat_map(|c| pick(c).iter().copied())
        .collect()
}

/// Verified delivered bits of all clients, per slice of the window.
pub fn delivered(load: &LoadLog) -> Slices {
    let mut all = Slices::new(load.window.0, load.window.1 - load.window.0, SLICES);
    for client in &load.clients {
        all.merge(&client.delivered_bits);
    }
    all
}

/// `(attempted, failed)`: requests sent plus epochs offered, and those that
/// were answered non-2xx, errored, came back mismatched or were refused
/// admission.
pub fn attempts(load: &LoadLog) -> (u64, u64) {
    let sum = |pick: fn(&crate::run::ClientLog) -> u64| load.clients.iter().map(pick).sum::<u64>();
    (
        sum(|c| c.requests_sent) + load.intake.epochs_offered,
        sum(|c| c.requests_failed) + sum(|c| c.mismatched_keys) + load.intake.admission_rejects,
    )
}

/// The end-to-end metrics of a run. A latency percentile that has too few
/// samples behind it makes the run invalid rather than reporting a guess.
pub fn end_to_end(log: &RunLog) -> Result<Metrics, String> {
    let load = &log.load;
    let work = window_work(load);
    let exchange_ms = merged(load, |c| &c.exchange_ms);
    let epoch_ms = within(&load.intake.epoch_latency, load.window);
    let p90 = percentile(&exchange_ms, 0.90).ok_or_else(|| {
        format!(
            "{} exchanges in the window are too few for a p90",
            exchange_ms.len()
        )
    })?;
    let p50 = percentile(&epoch_ms, 0.50).ok_or_else(|| {
        format!(
            "{} epochs in the window are too few for a p50",
            epoch_ms.len()
        )
    })?;
    Ok(vec![
        ("setup_s", setup_s(&log.setups)),
        ("delivered_secret_bps", delivered(load).median_rate()),
        ("sifted_in_bps", work.sifted.median_rate()),
        ("exchange_latency_p90_ms", p90),
        ("epoch_latency_p50_ms", p50),
        ("secret_yield", work.secret / work.sifted.total().max(1.0)),
        ("peak_rss_mib", peak_rss_mib()),
    ])
}

/// What the traced run measured after the window.
pub struct Layers {
    pub replay: Replay,
    pub store: StoreCost,
    pub store_memory: StoreCost,
    pub journal: JournalCost,
    pub spans: Vec<Span>,
}

fn counter(snapshot: &qkd_obs::Snapshot, name: &str) -> f64 {
    snapshot
        .counters
        .iter()
        .filter(|c| c.name == name)
        .map(|c| c.value as f64)
        .sum()
}

/// `(sum, count)` of a histogram family, optionally one `stage` of it.
fn histogram(snapshot: &qkd_obs::Snapshot, name: &str, stage: Option<&str>) -> (f64, f64) {
    snapshot
        .histograms
        .iter()
        .filter(|h| h.name == name)
        .filter(|h| stage.is_none_or(|s| h.labels.iter().any(|(k, v)| *k == "stage" && v == s)))
        .fold((0.0, 0.0), |(sum, count), h| {
            (sum + h.sum, count + h.count as f64)
        })
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// The per-layer metrics of a traced run.
pub fn per_layer(workload: &Workload, log: &RunLog, layers: &Layers) -> Metrics {
    let load = &log.load;
    let window_s = load.window.1 - load.window.0;
    let work = window_work(load);
    let r = &layers.replay;
    let us = |d: std::time::Duration, n: u64| ratio(d.as_secs_f64() * 1e6, n as f64);
    let obs = |f: &dyn Fn(&qkd_obs::Snapshot) -> f64| f(&load.obs_after) - f(&load.obs_before);

    let exchange_ms = merged(load, |c| &c.exchange_ms);
    let epoch_ms = within(&load.intake.epoch_latency, load.window);
    let status_us = merged(load, |c| &c.status_us);
    let enc_us = merged(load, |c| &c.enc_us);
    let dec_us = merged(load, |c| &c.dec_us);
    let lag_ms = within(&load.intake.intake_lag, load.window);
    // Tails the sample count cannot support read as the highest supported
    // percentile; `bench.*_percentile` says which that was.
    let tail = |samples: &[f64], q: f64| {
        let q = highest_percentile(samples.len()).map_or(0.5, |top| top.min(q));
        percentile(samples, q).unwrap_or_else(|| median(samples))
    };
    let (attempted, failed) = attempts(load);
    let requests_in_window = load
        .clients
        .iter()
        .map(|c| c.requests_in_window)
        .sum::<u64>() as f64;
    let non_2xx = load.clients.iter().map(|c| c.requests_failed).sum::<u64>() as f64;

    let frames = obs(&|s| counter(s, "qkd_journal_frames_appended_total"));
    let fsyncs = obs(&|s| histogram(s, "qkd_journal_fsync_seconds", None).1);
    let stage_s = |stage: &str| obs(&|s| histogram(s, "qkd_engine_stage_seconds", Some(stage)).0);
    let delivered = delivered(load);
    let exchanges = exchange_ms.len() as f64;
    // Whole run, warm-up included: what the journal holds is not windowed.
    let exchanges_run = load.clients.iter().map(|c| c.exchanges_run).sum::<u64>() as f64;
    let exchange_bytes = workload.exchange_bits() as f64 / 8.0;

    // Cross-check: the program's own stage sums per block against the
    // replay's, over the four distillation stages both time.
    let blocks = work.blocks_ok + work.blocks_failed;
    let program_per_block = ratio(
        [
            "estimation",
            "reconciliation",
            "verification",
            "privacy_amplification",
        ]
        .iter()
        .map(|s| stage_s(s))
        .sum::<f64>(),
        blocks,
    );
    // The replay covers every link equally, the window in proportion to
    // the blocks each link's feed brings.
    let shares: Vec<f64> = workload
        .links
        .iter()
        .map(|l| l.epoch_blocks as f64 / l.pace.map_or(1.0, |p| p.period.as_secs_f64()))
        .collect();
    let replay_per_block = ratio(
        r.link_distil
            .iter()
            .zip(&shares)
            .map(|(&(blocks, time), share)| share * ratio(time.as_secs_f64(), blocks as f64))
            .sum(),
        shares.iter().sum(),
    );
    let kinds = totals_by_kind(&layers.spans);
    let exchange_self_us = kinds
        .get(&("bench", "exchange"))
        .map_or(0.0, |k| ratio(k.self_ns as f64 / 1e3, k.spans as f64));

    vec![
        (
            "simulator.gen_events_per_s",
            ratio(log.gen_events as f64, log.gen_s),
        ),
        (
            "sifting.sift_ns_per_event",
            ratio(r.sift.as_secs_f64() * 1e9, r.events as f64),
        ),
        (
            "sifting.sift_ratio",
            ratio(r.sifted_bits as f64, r.events as f64),
        ),
        ("sifting.estimate_us_per_block", us(r.estimate, r.blocks)),
        (
            "sifting.estimate_abort_share",
            ratio(r.estimate_aborts as f64, r.blocks as f64),
        ),
        (
            "ldpc.library_build_s",
            median(&log.setups.iter().map(|s| s.library_s).collect::<Vec<_>>()),
        ),
        ("ldpc.reconcile_us_per_block", us(r.reconcile, r.reconciled)),
        (
            "ldpc.reconcile_sifted_mbps",
            ratio(r.reconcile_bits as f64 / 1e6, r.reconcile.as_secs_f64()),
        ),
        (
            "ldpc.attempts_per_block",
            ratio(r.attempts as f64, (r.reconciled - r.ldpc_failures) as f64),
        ),
        (
            "ldpc.iterations_per_block",
            ratio(r.iterations as f64, (r.reconciled - r.ldpc_failures) as f64),
        ),
        (
            "ldpc.fail_share",
            ratio(r.ldpc_failures as f64, r.reconciled as f64),
        ),
        (
            "ldpc.efficiency_f",
            ratio(r.efficiency_sum, r.efficiency_blocks as f64),
        ),
        (
            "core.verify_us_per_block",
            us(r.verify, r.reconciled - r.ldpc_failures),
        ),
        (
            "core.verify_fail_share",
            ratio(
                r.verify_failures as f64,
                (r.reconciled - r.ldpc_failures) as f64,
            ),
        ),
        ("core.engine_us_per_block", us(r.engine, r.blocks)),
        (
            "core.engine_glue_share",
            1.0 - ratio(r.stage_sum().as_secs_f64(), r.engine.as_secs_f64()),
        ),
        ("core.block_abort_share", ratio(work.blocks_failed, blocks)),
        ("privacy.amplify_us_per_block", us(r.amplify, r.amplified)),
        (
            "privacy.amplify_sifted_mbps",
            ratio(r.amplify_bits as f64 / 1e6, r.amplify.as_secs_f64()),
        ),
        (
            "privacy.secret_fraction",
            ratio(r.secret_bits as f64, r.sifted_bits as f64),
        ),
        (
            "privacy.insufficient_share",
            ratio(r.insufficient as f64, r.amplified as f64),
        ),
        (
            "auth.sign_verify_us_per_block",
            us(r.auth, r.amplified - r.insufficient),
        ),
        (
            "auth.pool_bits_per_block",
            ratio(
                r.auth_pool_bits as f64,
                (r.amplified - r.insufficient) as f64,
            ),
        ),
        (
            "manager.submit_us_per_epoch",
            median(&load.intake.submit_us),
        ),
        ("manager.run_share", work.run_s / window_s),
        (
            "manager.worker_utilisation",
            ratio(work.busy_s, crate::run::nproc() as f64 * work.run_s),
        ),
        ("manager.blocks_per_s", blocks / window_s),
        ("manager.epoch_p95_ms", tail(&epoch_ms, 0.95)),
        (
            "manager.backlog_max_epochs",
            load.intake.backlog_max_epochs as f64,
        ),
        (
            "manager.backlog_end_epochs",
            load.intake.backlog_end_epochs as f64,
        ),
        ("manager.intake_lag_p95_ms", tail(&lag_ms, 0.95)),
        (
            "manager.wake_late_p95_ms",
            tail(&load.intake.wake_late_ms, 0.95),
        ),
        (
            "manager.admission_rejects",
            load.intake.admission_rejects as f64,
        ),
        ("manager.fairness_weighted", load.fairness_weighted),
        ("store.status_us", layers.store.status_us),
        ("store.reserve_us", layers.store.reserve_us),
        ("store.redeem_us", layers.store.redeem_us),
        (
            "store.journaled_over_memory",
            ratio(
                layers.store.reserve_us + layers.store.redeem_us,
                layers.store_memory.reserve_us + layers.store_memory.redeem_us,
            ),
        ),
        (
            "journal.append_us_per_frame",
            layers.journal.append_us_per_frame,
        ),
        ("journal.fsyncs_per_1k_frames", ratio(fsyncs * 1e3, frames)),
        (
            "journal.frames_per_exchange",
            ratio(log.recovery.exchange_frames as f64, exchanges_run),
        ),
        (
            "journal.bytes_per_key_byte",
            ratio(log.recovery.bytes as f64, exchanges_run * exchange_bytes),
        ),
        ("journal.segments", log.recovery.segments as f64),
        (
            "journal.replay_us_per_frame",
            layers.journal.replay_us_per_frame,
        ),
        ("journal.recovery_s", log.recovery.recovery_s),
        ("api.status_p50_us", median(&status_us)),
        ("api.status_p99_us", tail(&status_us, 0.99)),
        ("api.enc_p50_us", median(&enc_us)),
        ("api.enc_p99_us", tail(&enc_us, 0.99)),
        ("api.dec_p50_us", median(&dec_us)),
        ("api.dec_p99_us", tail(&dec_us, 0.99)),
        ("api.exchange_p50_ms", median(&exchange_ms)),
        ("api.exchange_p99_ms", tail(&exchange_ms, 0.99)),
        ("api.exchange_self_us", exchange_self_us),
        ("api.requests_per_s", requests_in_window / window_s),
        (
            "api.http_overhead_us",
            median(&enc_us) + median(&dec_us) - layers.store.reserve_us - layers.store.redeem_us,
        ),
        ("api.non_2xx", non_2xx),
        (
            "api.request_fail_share",
            ratio(failed as f64, attempted as f64),
        ),
        ("api.connections_accepted", load.server_connections as f64),
        (
            "api.client_backoffs",
            load.clients.iter().map(|c| c.backoffs).sum::<u64>() as f64,
        ),
        ("obs.stage_s.estimation", stage_s("estimation")),
        ("obs.stage_s.reconciliation", stage_s("reconciliation")),
        ("obs.stage_s.verification", stage_s("verification")),
        (
            "obs.stage_s.privacy_amplification",
            stage_s("privacy_amplification"),
        ),
        ("obs.stage_s.authentication", stage_s("authentication")),
        (
            "obs.stage_disagreement",
            (ratio(program_per_block, replay_per_block) - 1.0).abs(),
        ),
        (
            "obs.http_request_s",
            obs(&|s| histogram(s, "qkd_http_request_seconds", None).0),
        ),
        (
            "obs.journal_fsync_s",
            obs(&|s| histogram(s, "qkd_journal_fsync_seconds", None).0),
        ),
        ("bench.cpu_s", load.cpu_s),
        (
            "bench.secret_bits_per_cpu_s",
            ratio(delivered.total(), load.cpu_s),
        ),
        (
            "bench.slice_spread",
            crate::stats::quartile_spread(&delivered.rates()).unwrap_or(0.0),
        ),
        ("bench.exchanges", exchanges),
        ("bench.epochs", epoch_ms.len() as f64),
        ("bench.replayed_blocks", r.blocks as f64),
        ("bench.spans", layers.spans.len() as f64),
        (
            "bench.exchange_percentile",
            highest_percentile(exchange_ms.len()).unwrap_or(0.0),
        ),
        (
            "bench.epoch_percentile",
            highest_percentile(epoch_ms.len()).unwrap_or(0.0),
        ),
    ]
    .into_iter()
    .map(|(name, value)| (name, if value.is_finite() { value } else { 0.0 }))
    .collect()
}

/// The result line of the driver contract: one JSON object with exactly
/// `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        attempted.max(1)
    );
    for (i, (name, value)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            unit_of(name)
        );
    }
    out.push_str("}}");
    out
}

fn get(metrics: &Metrics, name: &str) -> f64 {
    metrics
        .iter()
        .find_map(|(n, v)| (*n == name).then_some(*v))
        .unwrap_or(0.0)
}

/// The honest table of a traced run: where a block's time and an exchange's
/// time go, outside timings beside the program's own, and span self times.
pub fn honest_table(workload: &str, layer: &Metrics, spans: &[Span]) -> String {
    let mut out = String::new();
    let m = |name: &str| get(layer, name);
    let engine = m("core.engine_us_per_block");
    let _ = writeln!(
        out,
        "== {workload}: stage budget per block (replay through public functions) =="
    );
    let stages = [
        ("estimate", m("sifting.estimate_us_per_block")),
        ("ldpc reconcile", m("ldpc.reconcile_us_per_block")),
        ("verify", m("core.verify_us_per_block")),
        ("privacy amplification", m("privacy.amplify_us_per_block")),
        ("auth sign+verify", m("auth.sign_verify_us_per_block")),
    ];
    let covered = engine * (1.0 - m("core.engine_glue_share"));
    let sift = covered - stages.iter().map(|s| s.1).sum::<f64>();
    for (name, value) in std::iter::once(("sift", sift)).chain(stages) {
        let _ = writeln!(
            out,
            "  {name:<24}{value:>12.1} us {:>6.1} %",
            100.0 * ratio(value, engine)
        );
    }
    let _ = writeln!(
        out,
        "  {:<24}{covered:>12.1} us {:>6.1} %  of process_detections {engine:.1} us (glue {:.1} %)",
        "sum of stages",
        100.0 * ratio(covered, engine),
        100.0 * m("core.engine_glue_share"),
    );
    let _ = writeln!(
        out,
        "  program's own qkd-obs stage sums differ from the replay by {:.1} %{}",
        100.0 * m("obs.stage_disagreement"),
        if m("obs.stage_disagreement") > 0.20 {
            "  ** over 20 % **"
        } else {
            ""
        },
    );
    let _ = writeln!(out, "== {workload}: exchange budget ==");
    for (name, metric) in [
        (
            "exchange p50 (enc sent → dec verified)",
            "api.exchange_p50_ms",
        ),
        ("status p50", "api.status_p50_us"),
        ("enc_keys p50", "api.enc_p50_us"),
        ("dec_keys p50", "api.dec_p50_us"),
        ("store.status", "store.status_us"),
        ("store.reserve_keys (journaled)", "store.reserve_us"),
        ("store.get_keys_by_id (journaled)", "store.redeem_us"),
        ("journal append per frame", "journal.append_us_per_frame"),
        ("http overhead (enc+dec − store)", "api.http_overhead_us"),
        ("client self time per exchange", "api.exchange_self_us"),
    ] {
        let _ = writeln!(out, "  {name:<40}{:>12.3} {}", m(metric), unit_of(metric));
    }
    let _ = writeln!(
        out,
        "== {workload}: spans by kind (self = total − children) =="
    );
    for ((layer, name), kind) in totals_by_kind(spans) {
        let _ = writeln!(
            out,
            "  {layer:<13}{name:<20}{:>9} spans {:>12.3} ms total {:>12.3} ms self",
            kind.spans,
            kind.total_ns as f64 / 1e6,
            kind.self_ns as f64 / 1e6,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use qkd_api::Json;

    #[test]
    fn result_line_parses_back_with_every_digit() {
        let metrics: Metrics = vec![
            ("setup_s", 4.812345678901),
            ("delivered_secret_bps", 351234.5),
        ];
        let line = result_line(0, 0, &metrics);
        let doc = Json::parse(&line).expect("the result line is JSON");
        let Json::Obj(fields) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("attempted").and_then(Json::as_u64), Some(1));
        let setup = doc.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(
            setup.get("value").and_then(Json::as_f64),
            Some(4.812345678901)
        );
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
        let rate = doc
            .get("metrics")
            .and_then(|m| m.get("delivered_secret_bps"))
            .unwrap();
        assert_eq!(rate.get("unit").and_then(Json::as_str), Some("bit/s"));
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics_and_workloads() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |key: &str, field: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .map(|m| m.get(field).and_then(Json::as_str).unwrap().to_string())
                .collect()
        };
        assert_eq!(
            names("end_to_end", "name"),
            END_TO_END.iter().map(|m| m.0).collect::<Vec<_>>()
        );
        assert_eq!(
            names("end_to_end", "unit"),
            END_TO_END.iter().map(|m| m.1).collect::<Vec<_>>()
        );
        assert_eq!(
            names("per_layer", "name"),
            PER_LAYER.iter().map(|m| m.0).collect::<Vec<_>>()
        );
        assert_eq!(
            names("per_layer", "unit"),
            PER_LAYER.iter().map(|m| m.1).collect::<Vec<_>>()
        );
        assert_eq!(
            names("per_layer", "better"),
            PER_LAYER.iter().map(|m| m.2).collect::<Vec<_>>()
        );
        let workloads = crate::workload::workloads();
        assert_eq!(
            names("workloads", "name"),
            workloads.iter().map(|w| w.name).collect::<Vec<_>>()
        );
        assert_eq!(
            names("workloads", "why"),
            workloads.iter().map(|w| w.why).collect::<Vec<_>>()
        );
    }
}
