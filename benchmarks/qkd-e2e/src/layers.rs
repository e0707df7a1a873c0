//! What the traced run adds after the window: a stage-by-stage replay of the
//! first blocks of every link through the layers' public functions, and
//! direct passes over the store and the journal, whose costs the HTTP path
//! hides inside `enc_keys`/`dec_keys`.

use std::path::Path;
use std::time::{Duration, Instant};

use qkd_auth::{AuthConfig, Authenticator, KeyPool};
use qkd_core::verify_keys;
use qkd_journal::{Journal, Record};
use qkd_ldpc::{LdpcReconciler, ReconcilerScratch};
use qkd_manager::{FleetConfig, KeyId, LinkManager, LinkSpec};
use qkd_privacy::PrivacyAmplifier;
use qkd_sifting::{estimate_qber, sift, SiftingConfig};
use qkd_types::rng::{derive_block_rng, derive_rng};
use qkd_types::{BitVec, BlockId, DetectionEvent, QkdError, SecretBuf};

use crate::run::{journal_config, nproc, Failure};
use crate::stats::median;
use crate::trace::SpanLog;
use crate::workload::Workload;

/// Sums of the stage replay over every link. Each stage's time is divided
/// by the blocks that reached it.
#[derive(Debug, Default, Clone)]
pub struct Replay {
    pub events: u64,
    pub sifted_bits: u64,
    pub sift: Duration,
    pub blocks: u64,
    pub estimate: Duration,
    pub estimate_aborts: u64,
    pub reconciled: u64,
    pub reconcile: Duration,
    pub reconcile_bits: u64,
    pub attempts: u64,
    pub iterations: u64,
    pub ldpc_failures: u64,
    pub efficiency_sum: f64,
    pub efficiency_blocks: u64,
    pub verify: Duration,
    pub verify_failures: u64,
    pub amplified: u64,
    pub amplify: Duration,
    pub amplify_bits: u64,
    pub secret_bits: u64,
    pub insufficient: u64,
    pub auth: Duration,
    pub auth_pool_bits: u64,
    /// `process_detections` over the same events on a fresh engine.
    pub engine: Duration,
    /// Per link, which replayed blocks produced key. Repeats for a seed.
    pub ok_pattern: Vec<Vec<bool>>,
    /// Per link, blocks replayed and the time of their four distillation
    /// stages (estimate, reconcile, verify, amplify).
    pub link_distil: Vec<(u64, Duration)>,
}

impl Replay {
    /// Sum of the replayed stage times.
    pub fn stage_sum(&self) -> Duration {
        self.sift + self.estimate + self.reconcile + self.verify + self.amplify + self.auth
    }
}

/// Replays the first `replay_blocks` blocks of one link: `sift`, then per
/// block `estimate_qber` → `reconcile_with_scratch` → `verify_keys` →
/// `amplify` → `sign`/`verify`, each drawing from the RNG stream the engine
/// derives for that block, so the replay meets the aborts the engine meets.
fn replay_link(
    spec: &LinkSpec,
    epochs: &[Vec<DetectionEvent>],
    log: &mut SpanLog,
    out: &mut Replay,
) -> Result<(), Failure> {
    let config = spec.engine_config();
    let reconciler = LdpcReconciler::new(config.ldpc.clone()).map_err(|e| e.to_string())?;
    let amplifier = PrivacyAmplifier::new(config.finite_key, config.toeplitz_strategy);
    let pool = KeyPool::with_random_key(1 << 20, spec.seed ^ 0xA07);
    let authenticator = Authenticator::new(AuthConfig::default(), pool.clone());
    let mut scratch = ReconcilerScratch::new();
    let mut pattern = Vec::new();
    let mut block_index = 0u64;
    let distil = |r: &Replay| r.estimate + r.reconcile + r.verify + r.amplify;
    let distil_before = distil(out);

    for events in epochs {
        let sift_start = Instant::now();
        let sifted = sift(events, &SiftingConfig::default());
        let sift_end = Instant::now();
        log.leaf(0, 0, "sifting", "sift", sift_start, sift_end);
        out.sift += sift_end - sift_start;
        out.events += events.len() as u64;
        out.sifted_bits += sifted.len() as u64;

        for first in (0..sifted.len()).step_by(spec.block_bits) {
            let alice = sifted.alice_bits.slice(first, first + spec.block_bits);
            let bob = sifted.bob_bits.slice(first, first + spec.block_bits);
            let block = BlockId::new(0, block_index);
            block_index += 1;
            out.blocks += 1;
            let mut rng = derive_block_rng(spec.seed, "post-processor/block", block.as_u64());
            let block_span = log.next_id();
            let block_start = Instant::now();
            let stage = |log: &mut SpanLog, layer, name, from: Instant| {
                let now = Instant::now();
                log.leaf(block_span, block_span, layer, name, from, now);
                now - from
            };
            let produced = 'block: {
                let t = Instant::now();
                let estimate = estimate_qber(&alice, &bob, &config.sampling, &mut rng);
                out.estimate += stage(log, "sifting", "estimate_qber", t);
                let estimate = match estimate {
                    Ok(estimate) => estimate,
                    Err(QkdError::QberAboveThreshold { .. }) => {
                        out.estimate_aborts += 1;
                        break 'block false;
                    }
                    Err(e) => return Err(format!("replayed estimate: {e}")),
                };
                let (alice, bob) = (&estimate.alice_remaining, &estimate.bob_remaining);

                let t = Instant::now();
                let reconciled = reconciler.reconcile_with_scratch(
                    alice,
                    bob,
                    estimate.reconciliation_qber().max(1e-4),
                    &mut scratch,
                );
                out.reconcile += stage(log, "ldpc", "reconcile", t);
                out.reconciled += 1;
                out.reconcile_bits += alice.len() as u64;
                let reconciled = match reconciled {
                    Ok(reconciled) => reconciled,
                    Err(QkdError::ReconciliationFailed { .. }) => {
                        out.ldpc_failures += 1;
                        break 'block false;
                    }
                    Err(e) => return Err(format!("replayed reconcile: {e}")),
                };
                if reconciled.corrected != *alice {
                    return Err(format!(
                        "replayed block {block_index}: corrected key differs from Alice's"
                    ));
                }
                out.attempts += reconciled.attempts as u64;
                out.iterations += reconciled.iterations as u64;
                if let Some(f) = reconciled.efficiency(alice.len()) {
                    out.efficiency_sum += f;
                    out.efficiency_blocks += 1;
                }

                let t = Instant::now();
                let verified =
                    verify_keys(alice, &reconciled.corrected, &config.verification, &mut rng)
                        .map_err(|e| format!("replayed verify: {e}"))?;
                out.verify += stage(log, "core", "verify_keys", t);
                if !verified.matched {
                    out.verify_failures += 1;
                    break 'block false;
                }

                // The engine's phase-error bound: measured error rate plus a
                // block-level statistical deviation.
                let t = Instant::now();
                let n = alice.len().max(1) as f64;
                let deviation = ((1.0 / config.finite_key.epsilon_pe).ln() / (2.0 * n)).sqrt();
                let phase_error =
                    (reconciled.corrected_errors as f64 / n + deviation).clamp(1e-4, 0.5);
                let amplified = amplifier.amplify(
                    alice,
                    phase_error,
                    reconciled.leaked_bits,
                    verified.disclosed_bits,
                    &mut rng,
                );
                out.amplify += stage(log, "privacy", "amplify", t);
                out.amplified += 1;
                out.amplify_bits += alice.len() as u64;
                let secret_bits = match amplified {
                    Ok(key) => key.bits.len() as u64,
                    Err(QkdError::InsufficientKeyMaterial { .. }) => {
                        out.insufficient += 1;
                        break 'block false;
                    }
                    Err(e) => return Err(format!("replayed amplify: {e}")),
                };

                // One authenticated message per round trip, plus one.
                let t = Instant::now();
                for message in 0..5 {
                    let transcript = format!("block {} message {message}", block.as_u64());
                    let tag = authenticator
                        .sign(transcript.as_bytes())
                        .map_err(|e| format!("replayed sign: {e}"))?;
                    if !authenticator
                        .verify(transcript.as_bytes(), &tag)
                        .map_err(|e| format!("replayed tag check: {e}"))?
                    {
                        return Err("replayed tag does not verify".into());
                    }
                }
                out.auth += stage(log, "auth", "sign_verify", t);
                out.secret_bits += secret_bits;
                true
            };
            log.record(
                block_span,
                block_span,
                0,
                "bench",
                "replayed_block",
                block_start,
                Instant::now(),
                1,
            );
            pattern.push(produced);
        }
    }
    out.auth_pool_bits += pool.stats().consumed as u64;

    // The engine over the same events, for the glue the stages do not cover.
    let mut engine = spec.solo_processor().map_err(|e| e.to_string())?;
    for events in epochs {
        let start = Instant::now();
        engine
            .process_detections(events)
            .map_err(|e| format!("engine over replayed events: {e}"))?;
        let end = Instant::now();
        log.leaf(0, 0, "core", "process_detections", start, end);
        out.engine += end - start;
    }
    let produced = pattern.iter().filter(|&&ok| ok).count();
    if engine.summary().blocks_ok != produced {
        return Err(format!(
            "replay produced key from {produced} blocks, the engine from {}",
            engine.summary().blocks_ok
        ));
    }
    out.link_distil
        .push((pattern.len() as u64, distil(out) - distil_before));
    out.ok_pattern.push(pattern);
    Ok(())
}

/// Replays every link of the workload.
pub fn replay(
    workload: &Workload,
    specs: &[LinkSpec],
    rings: &[Vec<Vec<DetectionEvent>>],
    log: &mut SpanLog,
) -> Result<Replay, Failure> {
    let mut out = Replay::default();
    for ((plan, spec), ring) in workload.links.iter().zip(specs).zip(rings) {
        let epochs = workload
            .replay_blocks
            .div_ceil(plan.epoch_blocks)
            .min(ring.len());
        replay_link(spec, &ring[..epochs], log, &mut out)?;
    }
    Ok(out)
}

/// Median cost of the three store operations an exchange makes, in µs.
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreCost {
    pub status_us: f64,
    pub reserve_us: f64,
    pub redeem_us: f64,
}

/// Times `status` / `reserve_keys` / `get_keys_by_id` at the workload's key
/// sizes on a one-link fleet, journaled when `dir` is given. The store is
/// filled through the engine (deposits are not public), one backlog's worth.
pub fn store_pass(
    workload: &Workload,
    spec: &LinkSpec,
    ring: &[Vec<DetectionEvent>],
    dir: Option<&Path>,
    log: &mut SpanLog,
) -> Result<StoreCost, Failure> {
    let config = FleetConfig::default().with_workers(nproc());
    let mut fleet = match dir {
        Some(dir) => LinkManager::open_durable_with(config, dir, journal_config()),
        None => LinkManager::new(config),
    }
    .map_err(|e| format!("store pass fleet: {e}"))?;
    let link = fleet.add_link(spec.clone()).map_err(|e| e.to_string())?;
    for events in ring.iter().take(config.max_backlog) {
        fleet
            .submit_events(link, events.clone())
            .map_err(|e| e.to_string())?;
    }
    fleet.run().map_err(|e| e.to_string())?;
    let store = fleet.store();
    let available = store
        .status(link)
        .map_err(|e| e.to_string())?
        .available_bits;
    let rounds = (available / workload.exchange_bits() as u64).min(200);
    if rounds < 20 {
        return Err(format!("store pass: only {available} bits to reserve from"));
    }
    let layer = if dir.is_some() {
        "store"
    } else {
        "store_memory"
    };
    let (mut status_us, mut reserve_us, mut redeem_us) = (Vec::new(), Vec::new(), Vec::new());
    let us = |from: Instant, to: Instant| (to - from).as_secs_f64() * 1e6;
    for _ in 0..rounds {
        let t0 = Instant::now();
        std::hint::black_box(store.status(link).map_err(|e| e.to_string())?);
        let t1 = Instant::now();
        let keys = store
            .reserve_keys(
                link,
                workload.keys_per_exchange,
                workload.key_bits,
                Some("sae-s0"),
                Some(Duration::from_secs(60)),
            )
            .map_err(|e| format!("store pass reserve: {e}"))?;
        let t2 = Instant::now();
        let ids: Vec<KeyId> = keys.iter().map(|k| k.id).collect();
        let picked = store
            .get_keys_by_id(&ids, Some("sae-s0"))
            .map_err(|e| format!("store pass redeem: {e}"))?;
        let t3 = Instant::now();
        if keys.iter().zip(&picked).any(|(a, b)| a.bits != b.bits) {
            return Err("store pass: redeemed key differs from the reserved one".into());
        }
        log.leaf(0, 0, layer, "status", t0, t1);
        log.leaf(0, 0, layer, "reserve_keys", t1, t2);
        log.leaf(0, 0, layer, "get_keys_by_id", t2, t3);
        status_us.push(us(t0, t1));
        reserve_us.push(us(t1, t2));
        redeem_us.push(us(t2, t3));
    }
    Ok(StoreCost {
        status_us: median(&status_us),
        reserve_us: median(&reserve_us),
        redeem_us: median(&redeem_us),
    })
}

/// Cost of the journal alone, fed the workload's record mix.
#[derive(Debug, Clone, Copy, Default)]
pub struct JournalCost {
    pub append_us_per_frame: f64,
    pub replay_us_per_frame: f64,
}

/// Feeds a fresh journal `deposits` deposit frames of `secret_bits` each,
/// interleaved with `exchanges` reserve/redeem pairs, via `submit` +
/// `commit`, then replays it and checks every record came back.
pub fn journal_pass(
    workload: &Workload,
    dir: &Path,
    seed: u64,
    deposits: u64,
    exchanges: u64,
    secret_bits: usize,
    log: &mut SpanLog,
) -> Result<JournalCost, Failure> {
    let journal = Journal::open(dir, journal_config()).map_err(|e| format!("journal pass: {e}"))?;
    let mut rng = derive_rng(seed, "qkd-e2e/journal-pass");
    let (deposits, exchanges) = (deposits.max(1), exchanges.max(1));
    // About 2 000 frames in the window's proportions.
    let scale = 2000.0 / (deposits + 2 * exchanges) as f64;
    let deposits = ((deposits as f64 * scale).round() as u64).max(1);
    let exchanges = ((exchanges as f64 * scale).round() as u64).max(1);
    let mut records = Vec::with_capacity((deposits + 2 * exchanges) as usize);
    let (mut deposited, mut exchanged) = (0u64, 0u64);
    while deposited < deposits || exchanged < exchanges {
        // Keep the two kinds in step with their ratio.
        if deposited * exchanges <= exchanged * deposits && deposited < deposits {
            records.push(Record::Deposit {
                link: 0,
                at_ms: deposited,
                epsilon: 1e-10,
                bits: SecretBuf::from_bits(BitVec::random(&mut rng, secret_bits.max(1))),
            });
            deposited += 1;
        } else {
            let serials: Vec<(u64, u64)> = (0..workload.keys_per_exchange as u64)
                .map(|k| (0, exchanged * workload.keys_per_exchange as u64 + k))
                .collect();
            records.push(Record::Reserve {
                link: 0,
                at_ms: exchanged,
                count: workload.keys_per_exchange as u64,
                size_bits: workload.key_bits as u64,
                claim: Some("sae-s0".into()),
                expires_at_ms: Some(exchanged + 60_000),
            });
            records.push(Record::Redeem {
                at_ms: exchanged,
                ids: serials,
            });
            exchanged += 1;
        }
    }
    let start = Instant::now();
    for record in &records {
        let ticket = journal
            .submit(record)
            .map_err(|e| format!("journal submit: {e}"))?;
        journal
            .commit(ticket)
            .map_err(|e| format!("journal commit: {e}"))?;
    }
    let appended = Instant::now();
    let id = log.next_id();
    log.record(
        id,
        0,
        0,
        "journal",
        "submit_commit",
        start,
        appended,
        records.len() as u64,
    );
    drop(journal);
    let replayed = qkd_journal::replay(dir).map_err(|e| format!("journal replay: {e}"))?;
    let end = Instant::now();
    let id = log.next_id();
    log.record(
        id,
        0,
        0,
        "journal",
        "replay",
        appended,
        end,
        records.len() as u64,
    );
    if replayed.records.len() != records.len() {
        return Err(format!(
            "journal pass wrote {} records, replay returned {}",
            records.len(),
            replayed.records.len()
        ));
    }
    let frames = records.len() as f64;
    Ok(JournalCost {
        append_us_per_frame: (appended - start).as_secs_f64() * 1e6 / frames,
        replay_us_per_frame: (end - appended).as_secs_f64() * 1e6 / frames,
    })
}
