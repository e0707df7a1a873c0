//! The block processor and session engine.
//!
//! Distillation of one block is split into five stage functions
//! (estimation → reconciliation → verification → privacy amplification →
//! authentication) over a [`BlockInFlight`] item that owns everything its
//! block needs: the bits, a private RNG stream derived from the session seed
//! and the block id, the intermediate stage products, and a session-summary
//! delta. There is one batch body (`PostProcessor::distil`, behind every
//! public entry point): it runs the first four stages — which touch only the
//! item and the reconciliation scratch they are handed — over as many
//! contiguous chunks of the batch as the caller lent scratches (inline on
//! the caller for one, scoped threads beyond that), then authenticates and
//! merges every block on the calling thread in block order. Because every
//! block draws from its own
//! deterministic RNG and the only shared state (the authentication key pool,
//! the session summary) is touched in block order, keys, accounting and pool
//! position are identical at every width, under every outcome.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

use qkd_auth::{AuthConfig, Authenticator, KeyPool};
use qkd_cascade::CascadeReconciler;
use qkd_ldpc::{LdpcReconciler, ReconcilerScratch};
use qkd_privacy::PrivacyAmplifier;
use qkd_sifting::{estimate_qber, sift, SiftingConfig};
use qkd_types::frame::StageLabel;
use qkd_types::key::binary_entropy;
use qkd_types::rng::derive_block_rng;
use qkd_types::{BitVec, BlockId, DetectionEvent, QkdError, Result, SecretBuf, SecretKey};

use crate::channel::ChannelUsage;
use crate::config::{PostProcessingConfig, ReconciliationMethod};
use crate::metrics::SessionSummary;
use crate::verification::verify_keys;

/// Registry handles for the engine-level families. The engine has no link
/// identity (links live in `qkd-manager`), so these are process-global and
/// resolved once; per-link attribution happens at the manager/store layer.
struct EngineObs {
    stage_estimation: qkd_obs::Histogram,
    stage_reconciliation: qkd_obs::Histogram,
    stage_verification: qkd_obs::Histogram,
    stage_amplification: qkd_obs::Histogram,
    stage_authentication: qkd_obs::Histogram,
    blocks_ok: qkd_obs::Counter,
    blocks_failed: qkd_obs::Counter,
    qber_observed: qkd_obs::Gauge,
    qber_reconciliation: qkd_obs::Gauge,
    phase_error: qkd_obs::Gauge,
}

fn engine_obs() -> &'static EngineObs {
    static OBS: std::sync::OnceLock<EngineObs> = std::sync::OnceLock::new();
    OBS.get_or_init(|| {
        let obs = qkd_obs::registry();
        let stage = |name| obs.histogram("qkd_engine_stage_seconds", &[("stage", name)]);
        EngineObs {
            stage_estimation: stage("estimation"),
            stage_reconciliation: stage("reconciliation"),
            stage_verification: stage("verification"),
            stage_amplification: stage("privacy_amplification"),
            stage_authentication: stage("authentication"),
            blocks_ok: obs.counter("qkd_engine_blocks_total", &[("outcome", "ok")]),
            blocks_failed: obs.counter("qkd_engine_blocks_total", &[("outcome", "failed")]),
            qber_observed: obs.gauge("qkd_engine_qber", &[("kind", "observed")]),
            qber_reconciliation: obs.gauge("qkd_engine_qber", &[("kind", "reconciliation")]),
            phase_error: obs.gauge("qkd_engine_qber", &[("kind", "phase_error_bound")]),
        }
    })
}

/// Everything the engine reports about one distilled block.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BlockResult {
    /// Block identity.
    pub block: BlockId,
    /// The distilled secret key (identical at Alice and Bob).
    pub secret_key: SecretKey,
    /// QBER used for reconciliation (estimated or externally supplied).
    pub qber: f64,
    /// Upper bound on the QBER used for privacy amplification.
    pub qber_upper: f64,
    /// Reconciliation method used.
    pub method: ReconciliationMethod,
    /// Bits disclosed by estimation sampling.
    pub estimation_disclosed: usize,
    /// Bits disclosed by reconciliation.
    pub reconciliation_leak: usize,
    /// Bits disclosed by verification.
    pub verification_leak: usize,
    /// Errors corrected.
    pub corrected_errors: usize,
    /// Per-stage processing times, measured on the host.
    pub stage_times: Vec<(StageLabel, Duration)>,
    /// Classical-channel usage of this block.
    pub channel_usage: ChannelUsage,
    /// Authentication key bits consumed for this block's messages.
    pub auth_bits_consumed: usize,
}

impl BlockResult {
    /// Total host-measured processing time across stages.
    pub fn total_time(&self) -> Duration {
        self.stage_times.iter().map(|(_, d)| *d).sum()
    }

    /// Time of one stage, if present.
    pub fn stage_time(&self, stage: StageLabel) -> Option<Duration> {
        self.stage_times
            .iter()
            .find(|(s, _)| *s == stage)
            .map(|(_, d)| *d)
    }
}

/// Returns `true` when `process_detections` would propagate this error to the
/// caller instead of counting the block as failed and moving on.
fn is_batch_fatal(e: &QkdError) -> bool {
    !(e.is_security_abort()
        || matches!(
            e,
            QkdError::ReconciliationFailed { .. } | QkdError::InsufficientKeyMaterial { .. }
        ))
}

/// One key block moving through the five distillation stages.
///
/// The item owns everything its block needs — bits, a private RNG stream,
/// intermediate products, and a [`SessionSummary`] delta — so the first four
/// stages of different blocks can run on different threads without sharing
/// mutable state. The deliberate exception is the authentication key pool,
/// which all blocks draw from in block order at the final stage.
struct BlockInFlight {
    block: BlockId,
    method: ReconciliationMethod,
    rng: StdRng,
    alice: BitVec,
    bob: BitVec,
    qber: f64,
    rec_qber: f64,
    est_disclosed: usize,
    corrected: BitVec,
    rec_leak: usize,
    corrected_errors: usize,
    verification_leak: usize,
    phase_error: f64,
    secret_bits: BitVec,
    secret_epsilon: f64,
    auth_bits: usize,
    stage_times: Vec<(StageLabel, Duration)>,
    channel_usage: ChannelUsage,
    delta: SessionSummary,
    failure: Option<QkdError>,
    /// The failure (if any) is one the batch propagates to its caller,
    /// aborting the batch.
    fatal: bool,
}

impl BlockInFlight {
    fn new(
        block: BlockId,
        method: ReconciliationMethod,
        alice: BitVec,
        bob: BitVec,
        rng: StdRng,
    ) -> Self {
        let delta = SessionSummary {
            sifted_bits_in: alice.len() as u64,
            ..SessionSummary::default()
        };
        Self {
            block,
            method,
            rng,
            alice,
            bob,
            qber: 0.0,
            rec_qber: 0.0,
            est_disclosed: 0,
            corrected: BitVec::new(),
            rec_leak: 0,
            corrected_errors: 0,
            verification_leak: 0,
            phase_error: 0.0,
            secret_bits: BitVec::new(),
            secret_epsilon: 0.0,
            auth_bits: 0,
            stage_times: Vec::new(),
            channel_usage: ChannelUsage::default(),
            delta,
            failure: None,
            fatal: false,
        }
    }

    /// Marks the block failed. `counted` says whether the failure
    /// increments `blocks_failed` (threshold aborts, reconciliation /
    /// amplification / authentication failures) or propagates uncounted
    /// (configuration errors).
    fn fail(&mut self, e: QkdError, counted: bool) {
        if counted {
            self.delta.blocks_failed += 1;
        }
        self.fatal = is_batch_fatal(&e);
        self.failure = Some(e);
    }

    /// `true` when a stage should pass the item through untouched.
    fn done(&self) -> bool {
        self.failure.is_some()
    }

    /// Consumes the item into the block result (or its failure) plus the
    /// summary delta to merge into the session.
    fn finish(self) -> (Result<BlockResult>, SessionSummary) {
        let delta = self.delta;
        match self.failure {
            Some(e) => (Err(e), delta),
            None => (
                Ok(BlockResult {
                    block: self.block,
                    secret_key: SecretKey {
                        block: self.block,
                        bits: self.secret_bits.into(),
                        epsilon: self.secret_epsilon,
                    },
                    qber: self.qber,
                    qber_upper: self.phase_error,
                    method: self.method,
                    estimation_disclosed: self.est_disclosed,
                    reconciliation_leak: self.rec_leak,
                    verification_leak: self.verification_leak,
                    corrected_errors: self.corrected_errors,
                    stage_times: self.stage_times,
                    channel_usage: self.channel_usage,
                    auth_bits_consumed: self.auth_bits,
                }),
                delta,
            ),
        }
    }
}

/// Everything a distillation stage needs. Shared by reference with the
/// scoped threads of a batch wider than one; only [`StageContext::authenticate`]
/// touches state that outlives the item (the key pool behind the
/// authenticator), and it runs on the calling thread alone.
struct StageContext {
    config: PostProcessingConfig,
    ldpc: LdpcReconciler,
    cascade: CascadeReconciler,
    amplifier: PrivacyAmplifier,
    authenticator: Authenticator,
}

impl StageContext {
    /// Stage 1 — parameter estimation (QBER sampling).
    fn estimate(&self, item: &mut BlockInFlight) {
        if item.done() {
            return;
        }
        let est_start = Instant::now();
        if self.config.trust_external_qber {
            // Micro-benchmark path: derive the working QBER from ground truth.
            let qber = item.alice.error_rate(&item.bob).max(1e-4);
            item.qber = qber;
            item.rec_qber = qber;
            item.est_disclosed = 0;
        } else {
            match estimate_qber(&item.alice, &item.bob, &self.config.sampling, &mut item.rng) {
                Ok(est) => {
                    item.channel_usage.add(ChannelUsage {
                        round_trips: 1,
                        messages: 2,
                        payload_bits: est.sample_size * 2,
                    });
                    // Rate selection works from a sampling-confidence bound,
                    // not the raw point estimate: an underestimating sample
                    // would otherwise pick too high a rate and leak an extra
                    // syndrome on the failed first attempt.
                    item.rec_qber = est.reconciliation_qber().max(1e-4);
                    item.qber = est.observed_qber.max(1e-4);
                    item.est_disclosed = est.sample_size;
                    item.alice = est.alice_remaining;
                    item.bob = est.bob_remaining;
                }
                Err(e) => {
                    // A threshold abort is a failed block; other errors (bad
                    // configuration, mismatched inputs) are not.
                    let counted = matches!(e, QkdError::QberAboveThreshold { .. });
                    item.fail(e, counted);
                    return;
                }
            }
        }
        let est_host = est_start.elapsed();
        item.stage_times.push((StageLabel::Estimation, est_host));
        let obs = engine_obs();
        obs.stage_estimation.observe_duration(est_host);
        obs.qber_observed.set(item.qber);
        obs.qber_reconciliation.set(item.rec_qber);
    }

    /// Stage 2 — information reconciliation (LDPC or Cascade). The caller
    /// provides the long-lived LDPC scratch: the engine lends its own, fleet
    /// workers carry one across the links they service.
    fn reconcile(&self, item: &mut BlockInFlight, scratch: &mut ReconcilerScratch) {
        if item.done() {
            return;
        }
        let rec_start = Instant::now();
        let outcome = match self.config.reconciliation {
            ReconciliationMethod::Ldpc => self
                .ldpc
                .reconcile_with_scratch(&item.alice, &item.bob, item.rec_qber, scratch)
                .map(|out| {
                    let usage = ChannelUsage {
                        round_trips: 1,
                        messages: out.messages,
                        payload_bits: out.leaked_bits,
                    };
                    (out.corrected, out.leaked_bits, out.corrected_errors, usage)
                }),
            ReconciliationMethod::Cascade => self
                .cascade
                .reconcile(&item.alice, &item.bob, item.rec_qber, &mut item.rng)
                .map(|out| {
                    let usage = ChannelUsage {
                        round_trips: out.round_trips,
                        messages: out.messages,
                        payload_bits: out.leaked_bits * 2,
                    };
                    (out.corrected, out.leaked_bits, out.corrected_errors, usage)
                }),
        };
        match outcome {
            Ok((corrected, leak, errors, usage)) => {
                item.corrected = corrected;
                item.rec_leak = leak;
                item.corrected_errors = errors;
                item.channel_usage.add(usage);
                let rec_host = rec_start.elapsed();
                engine_obs().stage_reconciliation.observe_duration(rec_host);
                item.stage_times
                    .push((StageLabel::Reconciliation, rec_host));
            }
            Err(e) => item.fail(e, true),
        }
    }

    /// Stage 3 — error verification.
    fn verify(&self, item: &mut BlockInFlight) {
        if item.done() {
            return;
        }
        let ver_start = Instant::now();
        match verify_keys(
            &item.alice,
            &item.corrected,
            &self.config.verification,
            &mut item.rng,
        ) {
            Ok(verification) => {
                item.channel_usage.add(ChannelUsage {
                    round_trips: 1,
                    messages: 2,
                    payload_bits: verification.disclosed_bits * 2 + 256,
                });
                if !verification.matched {
                    item.fail(
                        QkdError::VerificationFailed {
                            block: item.block.as_u64(),
                        },
                        true,
                    );
                    return;
                }
                item.verification_leak = verification.disclosed_bits;
                let ver_host = ver_start.elapsed();
                engine_obs().stage_verification.observe_duration(ver_host);
                item.stage_times.push((StageLabel::Verification, ver_host));
            }
            Err(e) => item.fail(e, false),
        }
    }

    /// Stage 4 — privacy amplification.
    fn amplify(&self, item: &mut BlockInFlight) {
        if item.done() {
            return;
        }
        let pa_start = Instant::now();
        // Phase-error bound: the exact bit-error rate confirmed by
        // reconciliation/verification plus a block-level statistical deviation
        // (errors sampled over the whole block, not just the disclosed
        // sample).
        let measured_qber = item.corrected_errors as f64 / item.alice.len().max(1) as f64;
        let deviation = ((1.0 / self.config.finite_key.epsilon_pe).ln()
            / (2.0 * item.alice.len().max(1) as f64))
            .sqrt();
        item.phase_error = (measured_qber + deviation).clamp(1e-4, 0.5);
        match self.amplifier.amplify(
            &item.alice,
            item.phase_error,
            item.rec_leak,
            item.verification_leak,
            &mut item.rng,
        ) {
            Ok(amplified) => {
                item.channel_usage.add(ChannelUsage {
                    round_trips: 1,
                    messages: 1,
                    payload_bits: 256,
                });
                item.secret_bits = amplified.bits;
                item.secret_epsilon = amplified.epsilon;
                let pa_host = pa_start.elapsed();
                let obs = engine_obs();
                obs.stage_amplification.observe_duration(pa_host);
                obs.phase_error.set(item.phase_error);
                item.stage_times
                    .push((StageLabel::PrivacyAmplification, pa_host));
            }
            Err(e) => item.fail(e, true),
        }
    }

    /// Stages 1–4 over one chunk of a batch, on one scratch.
    fn distil_chunk(&self, items: &mut [BlockInFlight], scratch: &mut ReconcilerScratch) {
        for item in items {
            self.estimate(item);
            self.reconcile(item, scratch);
            self.verify(item);
            self.amplify(item);
        }
    }

    /// Stage 5 — authentication of the block's classical messages, plus the
    /// success book-keeping into the item's summary delta.
    fn authenticate(&self, item: &mut BlockInFlight) {
        if item.done() {
            return;
        }
        let auth_start = Instant::now();
        // Each sequential round trip carries one authenticated message per
        // direction; sign a transcript record for each outgoing message.
        let outgoing_messages = item.channel_usage.round_trips + 1;
        let mut auth_bits = 0usize;
        for m in 0..outgoing_messages {
            let transcript = format!("block {} message {m}", item.block.as_u64());
            match self.authenticator.sign(transcript.as_bytes()) {
                Ok(tag) => auth_bits += tag.bits.len(),
                Err(e) => {
                    item.fail(e, true);
                    return;
                }
            }
        }
        item.auth_bits = auth_bits;
        let auth_host = auth_start.elapsed();
        engine_obs()
            .stage_authentication
            .observe_duration(auth_host);
        item.stage_times
            .push((StageLabel::Authentication, auth_host));

        item.delta.blocks_ok += 1;
        item.delta.secret_bits_out += item.secret_bits.len() as u64;
        item.delta.disclosed_bits +=
            (item.est_disclosed + item.rec_leak + item.verification_leak) as u64;
        item.delta.auth_bits_consumed += auth_bits as u64;
        item.delta.processing_time += item.stage_times.iter().map(|(_, d)| *d).sum::<Duration>();
        item.delta.channel_usage.add(item.channel_usage);
    }
}

/// A batch of sifted bits framed into engine-sized blocks.
struct FramedBatch {
    blocks: Vec<(BitVec, BitVec)>,
    /// Per-block share of the sifting time, divided over the blocks actually
    /// attempted (successful or failed).
    sift_share: Duration,
}

/// The end-to-end post-processing engine for one QKD session.
///
/// The engine is stateful: it numbers blocks, accumulates a
/// [`SessionSummary`], carries partial-block sifted remainders between
/// detection batches, and consumes authentication key from its pool as blocks
/// flow through.
pub struct PostProcessor {
    stages: StageContext,
    auth_pool: KeyPool,
    master_seed: u64,
    next_block: u64,
    summary: SessionSummary,
    carry: Option<(BitVec, BitVec)>,
    /// Long-lived reconciliation scratch the engine lends itself when the
    /// caller brings none; reused across every block and rate-ladder attempt
    /// of the session.
    scratch: ReconcilerScratch,
}

impl std::fmt::Debug for PostProcessor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PostProcessor")
            .field("block_size", &self.stages.config.block_size)
            .field("reconciliation", &self.stages.config.reconciliation)
            .field(
                "blocks_processed",
                &(self.summary.blocks_ok + self.summary.blocks_failed),
            )
            .finish()
    }
}

impl PostProcessor {
    /// Builds an engine from a configuration and a session seed.
    ///
    /// # Errors
    ///
    /// Returns [`QkdError::InvalidParameter`] when the configuration is
    /// invalid (LDPC code construction failures surface here too).
    pub fn new(config: PostProcessingConfig, seed: u64) -> Result<Self> {
        config.validate()?;
        let ldpc = LdpcReconciler::new(config.ldpc.clone())?;
        let cascade = CascadeReconciler::new(config.cascade.clone());
        let amplifier = PrivacyAmplifier::new(config.finite_key, config.toeplitz_strategy);
        let auth_pool = KeyPool::with_random_key(config.auth_pool_bits, seed ^ 0xA07);
        let authenticator = Authenticator::new(AuthConfig::default(), auth_pool.clone());
        Ok(Self {
            stages: StageContext {
                config,
                ldpc,
                cascade,
                amplifier,
                authenticator,
            },
            auth_pool,
            master_seed: seed,
            next_block: 0,
            summary: SessionSummary::default(),
            carry: None,
            scratch: ReconcilerScratch::new(),
        })
    }

    /// The configuration in use.
    pub fn config(&self) -> &PostProcessingConfig {
        &self.stages.config
    }

    /// The running session summary.
    pub fn summary(&self) -> &SessionSummary {
        &self.summary
    }

    /// Remaining authentication key bits.
    pub fn auth_key_remaining(&self) -> usize {
        self.auth_pool.remaining()
    }

    /// Sifted bits buffered as a partial-block remainder, waiting for the
    /// next detection batch.
    pub fn pending_remainder_bits(&self) -> usize {
        self.carry.as_ref().map_or(0, |(a, _)| a.len())
    }

    /// Drops the buffered partial-block remainder (e.g. at session end),
    /// counting it into [`SessionSummary::discarded_bits`] so the key-material
    /// ledger stays balanced. Returns the number of bits discarded.
    pub fn discard_remainder(&mut self) -> usize {
        match self.carry.take() {
            Some((a, _)) => {
                self.summary.discarded_bits += a.len() as u64;
                self.summary.carried_bits = 0;
                a.len()
            }
            None => 0,
        }
    }

    /// Assigns the next block id and derives the block's private RNG stream
    /// from the session seed — a function of the seed and the id alone, which
    /// is what makes the output independent of which thread runs the block.
    fn new_block_item(&mut self, alice: BitVec, bob: BitVec) -> BlockInFlight {
        let block = BlockId::new(0, self.next_block);
        self.next_block += 1;
        let rng = derive_block_rng(self.master_seed, "post-processor/block", block.as_u64());
        BlockInFlight::new(block, self.stages.config.reconciliation, alice, bob, rng)
    }

    /// Sifts a detection batch, prepends the remainder carried over from the
    /// previous batch, frames full blocks, and stores the new remainder for
    /// the next batch. Sifting time is charged to the session here (failed
    /// blocks no longer lose their share) and divided over the blocks
    /// attempted for per-result attribution.
    fn frame_blocks(&mut self, events: &[DetectionEvent]) -> FramedBatch {
        let sift_start = Instant::now();
        let sifted = sift(events, &SiftingConfig::default());
        let sift_time = sift_start.elapsed();

        let (mut alice, mut bob) = self.carry.take().unwrap_or_default();
        alice.extend_from(&sifted.alice_bits);
        bob.extend_from(&sifted.bob_bits);

        let n = self.stages.config.block_size;
        let full = alice.len() / n;
        let mut blocks = Vec::with_capacity(full);
        for i in 0..full {
            blocks.push((
                alice.slice(i * n, (i + 1) * n),
                bob.slice(i * n, (i + 1) * n),
            ));
        }
        let remainder = alice.len() - full * n;
        if remainder > 0 {
            self.carry = Some((
                alice.slice(full * n, alice.len()),
                bob.slice(full * n, bob.len()),
            ));
        }
        self.summary.carried_bits = remainder as u64;

        self.summary.processing_time += sift_time;
        let sift_share = if full == 0 {
            Duration::ZERO
        } else {
            sift_time / full as u32
        };
        FramedBatch { blocks, sift_share }
    }

    /// The one batch body. Numbers the blocks, runs stages 1–4 over
    /// `min(scratches.len(), blocks)` contiguous chunks — inline on the
    /// caller for one chunk, else on scoped threads with the caller taking
    /// the first — and then, on the calling thread in block order,
    /// authenticates each block and merges it into the session.
    ///
    /// Returns one result per block attempted. A batch-fatal error is the
    /// last entry: the pass stops there, the block counter rolls back to the
    /// block after it, and the blocks behind it — computed speculatively at
    /// widths above one, but never authenticated or merged — are written off
    /// as [`SessionSummary::discarded_bits`]. The session therefore ends up in
    /// the same state at every width.
    fn distil(
        &mut self,
        blocks: Vec<(BitVec, BitVec)>,
        scratches: &mut [ReconcilerScratch],
    ) -> Vec<Result<BlockResult>> {
        let mut items: Vec<BlockInFlight> = blocks
            .into_iter()
            .map(|(alice, bob)| self.new_block_item(alice, bob))
            .collect();
        let stages = &self.stages;
        // One chunk per scratch (both callers hand in at least one), never
        // more chunks than blocks; `chunks_mut` wants a positive size even
        // for an empty batch.
        let per_chunk = items.len().div_ceil(scratches.len().max(1)).max(1);
        let mut chunks = items.chunks_mut(per_chunk).zip(scratches.iter_mut());
        let own = chunks.next();
        std::thread::scope(|s| {
            for (chunk, scratch) in chunks {
                s.spawn(move || stages.distil_chunk(chunk, scratch));
            }
            if let Some((chunk, scratch)) = own {
                stages.distil_chunk(chunk, scratch);
            }
        });

        let obs = engine_obs();
        let mut results = Vec::with_capacity(items.len());
        let mut items = items.into_iter();
        for mut item in items.by_ref() {
            self.stages.authenticate(&mut item);
            let (sequence, fatal) = (item.block.sequence, item.fatal);
            let (result, delta) = item.finish();
            self.summary.merge(&delta);
            obs.blocks_ok.add(delta.blocks_ok as u64);
            obs.blocks_failed.add(delta.blocks_failed as u64);
            results.push(result);
            if fatal {
                self.next_block = sequence + 1;
                break;
            }
        }
        for unattempted in items {
            self.summary.discarded_bits += unattempted.delta.sifted_bits_in;
            // Key distilled speculatively and never delivered.
            drop(SecretBuf::from(unattempted.secret_bits));
        }
        results
    }

    /// Processes a batch of detection events end to end: sifting, block
    /// framing, and per-block distillation. Returns the per-block results
    /// (failed blocks are recorded in the summary and skipped). Sifted bits
    /// left over after framing are buffered and prepended to the next batch
    /// (see [`PostProcessor::pending_remainder_bits`]).
    ///
    /// # Errors
    ///
    /// Propagates only batch-fatal failures (configuration errors,
    /// [`QkdError::AuthKeyExhausted`]); per-block aborts are counted, not
    /// returned. A fatal error drops the batch: results of earlier blocks are
    /// discarded after being charged to the summary, and the sifted bits of
    /// the blocks behind the fatal one go to
    /// [`SessionSummary::discarded_bits`].
    pub fn process_detections(&mut self, events: &[DetectionEvent]) -> Result<Vec<BlockResult>> {
        let mut scratch = std::mem::take(&mut self.scratch);
        let result =
            self.process_detections_with_scratch(events, std::slice::from_mut(&mut scratch));
        self.scratch = scratch;
        result
    }

    /// Processes a batch like [`PostProcessor::process_detections`], drawing
    /// reconciliation working memory from caller-owned scratches. The number
    /// lent is the batch's width: with one, every stage runs on the calling
    /// thread (what a fleet worker does, holding a single scratch across all
    /// the links it serves); with `n`, stages 1–4 of the batch's blocks fan
    /// out over up to `n` threads while authentication and the session
    /// ledger stay on the caller, in block order. Keys, accounting, pool
    /// position and block numbering are identical at every width.
    ///
    /// # Errors
    ///
    /// [`QkdError::InvalidParameter`] when `scratches` is empty (nothing is
    /// consumed); otherwise see [`PostProcessor::process_detections`].
    pub fn process_detections_with_scratch(
        &mut self,
        events: &[DetectionEvent],
        scratches: &mut [ReconcilerScratch],
    ) -> Result<Vec<BlockResult>> {
        if scratches.is_empty() {
            return Err(QkdError::invalid_parameter(
                "scratches",
                "a batch needs at least one reconciliation scratch",
            ));
        }
        let batch = self.frame_blocks(events);
        let mut results = Vec::with_capacity(batch.blocks.len());
        for result in self.distil(batch.blocks, scratches) {
            match result {
                Ok(mut r) => {
                    // Attribute a proportional share of the sifting time.
                    r.stage_times
                        .insert(0, (StageLabel::Sifting, batch.sift_share));
                    results.push(r);
                }
                // Per-block aborts were already counted in `blocks_failed`;
                // skip the block and move on.
                Err(e) if !is_batch_fatal(&e) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(results)
    }

    /// Distils one sifted block (QBER estimation included): a batch of one.
    ///
    /// # Errors
    ///
    /// * [`QkdError::QberAboveThreshold`] when estimation aborts the block.
    /// * [`QkdError::ReconciliationFailed`] / [`QkdError::VerificationFailed`]
    ///   when error correction fails.
    /// * [`QkdError::InsufficientKeyMaterial`] when nothing can be extracted.
    /// * [`QkdError::AuthKeyExhausted`] when the authentication pool runs dry.
    pub fn process_sifted_block(&mut self, alice: &BitVec, bob: &BitVec) -> Result<BlockResult> {
        if alice.len() != bob.len() {
            return Err(QkdError::DimensionMismatch {
                context: "post-processing block",
                expected: alice.len(),
                actual: bob.len(),
            });
        }
        let mut scratch = std::mem::take(&mut self.scratch);
        let result = self
            .distil(
                vec![(alice.clone(), bob.clone())],
                std::slice::from_mut(&mut scratch),
            )
            .pop();
        self.scratch = scratch;
        result.unwrap_or(Err(QkdError::PipelineStalled { stage: "engine" }))
    }

    /// Theoretical secret fraction for this configuration at a given QBER
    /// (used by experiments to compare measured output against expectation).
    pub fn expected_secret_fraction(&self, qber: f64) -> f64 {
        let f = 1.2;
        (1.0 - binary_entropy(qber) - f * binary_entropy(qber)).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qkd_simulator::{
        detection_events, CorrelatedKeySource, LinkConfig, LinkSimulator, WorkloadPreset,
    };

    fn engine(block: usize) -> PostProcessor {
        PostProcessor::new(PostProcessingConfig::for_block_size(block), 11).unwrap()
    }

    /// Correlated random bits with roughly `qber` disagreement.
    fn correlated_bits(len: usize, qber: f64, seed: u64) -> (BitVec, BitVec) {
        let blk = CorrelatedKeySource::new(len, qber.max(1e-4), seed)
            .unwrap()
            .next_block();
        (blk.alice, blk.bob)
    }

    #[test]
    fn distils_secret_key_from_metro_workload() {
        let mut proc = engine(8192);
        let mut src = CorrelatedKeySource::from_preset(WorkloadPreset::Metro, 8192, 1).unwrap();
        let blk = src.next_block();
        let result = proc.process_sifted_block(&blk.alice, &blk.bob).unwrap();
        assert!(
            result.secret_key.len() > 2000,
            "got {} secret bits",
            result.secret_key.len()
        );
        assert!(result.secret_key.len() < 8192);
        assert!(result.corrected_errors > 0);
        assert!(result.reconciliation_leak > 0);
        assert_eq!(result.method, ReconciliationMethod::Ldpc);
        assert!(result.total_time() > Duration::ZERO);
        assert!(proc.summary().secret_fraction() > 0.2);
    }

    #[test]
    fn cascade_and_ldpc_agree_on_the_distilled_key_length_scale() {
        let mut ldpc = engine(8192);
        let mut cascade = PostProcessor::new(
            PostProcessingConfig::for_block_size(8192)
                .with_reconciliation(ReconciliationMethod::Cascade),
            11,
        )
        .unwrap();
        let mut src = CorrelatedKeySource::from_preset(WorkloadPreset::Backbone, 8192, 2).unwrap();
        let blk = src.next_block();
        let r_ldpc = ldpc.process_sifted_block(&blk.alice, &blk.bob).unwrap();
        let r_cascade = cascade.process_sifted_block(&blk.alice, &blk.bob).unwrap();
        // Cascade interacts far more.
        assert!(r_cascade.channel_usage.round_trips > 5 * r_ldpc.channel_usage.round_trips);
        // Both must produce key; at these small blocks Cascade's fine-grained
        // leakage beats the coarse LDPC rate ladder, but not by more than the
        // rate granularity allows.
        let a = r_ldpc.secret_key.len() as f64;
        let b = r_cascade.secret_key.len() as f64;
        assert!(a > 0.0 && b > 0.0);
        assert!((a / b) < 4.0 && (b / a) < 4.0, "ldpc {a} vs cascade {b}");
    }

    #[test]
    fn high_qber_block_aborts() {
        let mut proc = engine(4096);
        let mut src = CorrelatedKeySource::new(4096, 0.18, 3).unwrap();
        let blk = src.next_block();
        let err = proc.process_sifted_block(&blk.alice, &blk.bob).unwrap_err();
        assert!(err.is_security_abort());
        assert_eq!(proc.summary().blocks_ok, 0);
        // The abort is counted exactly once, whether the block came in
        // directly or through `process_detections`.
        assert_eq!(proc.summary().blocks_failed, 1);
    }

    #[test]
    fn mismatched_block_lengths_rejected() {
        let mut proc = engine(4096);
        let a = BitVec::zeros(4096);
        let b = BitVec::zeros(4095);
        assert!(matches!(
            proc.process_sifted_block(&a, &b),
            Err(QkdError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn session_summary_accumulates_over_blocks() {
        let mut proc = engine(4096);
        let mut src = CorrelatedKeySource::from_preset(WorkloadPreset::Metro, 4096, 5).unwrap();
        for _ in 0..3 {
            let blk = src.next_block();
            proc.process_sifted_block(&blk.alice, &blk.bob).unwrap();
        }
        let s = proc.summary();
        assert_eq!(s.blocks_ok, 3);
        assert_eq!(s.sifted_bits_in, 3 * 4096);
        assert!(s.secret_bits_out > 0);
        assert!(s.auth_bits_consumed > 0);
        assert!(s.channel_usage.messages > 0);
        assert!(s.compute_throughput_bps() > 0.0);
    }

    #[test]
    fn end_to_end_from_simulated_detections() {
        let mut sim = LinkSimulator::new(LinkConfig::metro_25km(), 3);
        let batch = sim.run_until_sifted(30_000, 200_000, 50_000_000).unwrap();
        let mut config = PostProcessingConfig::for_block_size(8192);
        // Larger sample keeps the Hoeffding bound well below the abort
        // threshold for the ~1% metro QBER.
        config.sampling.sample_fraction = 0.15;
        let mut proc = PostProcessor::new(config, 9).unwrap();
        let results = proc.process_detections(&batch.events).unwrap();
        assert!(
            !results.is_empty(),
            "at least one full block should have been distilled"
        );
        for r in &results {
            assert!(!r.secret_key.is_empty());
            assert!(r.qber < 0.05, "metro QBER should be small, got {}", r.qber);
        }
        assert_eq!(proc.summary().blocks_ok, results.len());
    }

    #[test]
    fn auth_exhaustion_is_reported() {
        let mut config = PostProcessingConfig::for_block_size(4096);
        config.auth_pool_bits = 1024 + 128; // hash key + a handful of tags
        let mut proc = PostProcessor::new(config, 13).unwrap();
        let mut src = CorrelatedKeySource::from_preset(WorkloadPreset::Metro, 4096, 9).unwrap();
        let mut saw_exhaustion = false;
        for _ in 0..6 {
            let blk = src.next_block();
            match proc.process_sifted_block(&blk.alice, &blk.bob) {
                Ok(_) => {}
                Err(QkdError::AuthKeyExhausted { .. }) => {
                    saw_exhaustion = true;
                    break;
                }
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(
            saw_exhaustion,
            "a 1 kbit pool cannot authenticate many blocks"
        );
    }

    #[test]
    fn trailing_remainder_is_carried_into_the_next_batch() {
        let mut config = PostProcessingConfig::for_block_size(4096);
        config.sampling.sample_fraction = 0.2;
        let mut proc = PostProcessor::new(config, 17).unwrap();

        // 1.5 blocks: one full block distils, 512 bits must be buffered.
        let (alice, bob) = correlated_bits(6144, 0.01, 1);
        let results = proc
            .process_detections(&detection_events(&alice, &bob))
            .unwrap();
        assert_eq!(results.len(), 1);
        assert_eq!(proc.pending_remainder_bits(), 2048);
        assert_eq!(proc.summary().carried_bits, 2048);
        assert_eq!(proc.summary().sifted_bits_in, 4096);

        // The next batch of 2048 bits completes the buffered remainder into a
        // second full block, leaving nothing behind.
        let (alice2, bob2) = correlated_bits(2048, 0.01, 2);
        let results = proc
            .process_detections(&detection_events(&alice2, &bob2))
            .unwrap();
        assert_eq!(results.len(), 1);
        assert_eq!(proc.pending_remainder_bits(), 0);
        assert_eq!(proc.summary().carried_bits, 0);
        assert_eq!(proc.summary().sifted_bits_in, 8192);
        assert_eq!(proc.summary().blocks_ok, 2);
        assert_eq!(proc.summary().discarded_bits, 0);
    }

    #[test]
    fn discarding_the_remainder_balances_the_ledger() {
        let mut config = PostProcessingConfig::for_block_size(4096);
        config.sampling.sample_fraction = 0.2;
        let mut proc = PostProcessor::new(config, 19).unwrap();
        let (alice, bob) = correlated_bits(5300, 0.01, 3);
        proc.process_detections(&detection_events(&alice, &bob))
            .unwrap();
        assert_eq!(proc.pending_remainder_bits(), 1204);
        assert_eq!(proc.discard_remainder(), 1204);
        assert_eq!(proc.pending_remainder_bits(), 0);
        assert_eq!(proc.summary().carried_bits, 0);
        assert_eq!(proc.summary().discarded_bits, 1204);
        // Every sifted bit is now accounted for: consumed by blocks or
        // explicitly discarded.
        assert_eq!(
            proc.summary().sifted_bits_in + proc.summary().discarded_bits,
            5300
        );
        assert_eq!(proc.discard_remainder(), 0);
    }

    #[test]
    fn sifting_time_is_charged_to_the_session_even_for_failed_blocks() {
        // Regression: the sifting share of failed blocks used to vanish from
        // `summary.processing_time` (and successful blocks' shares were never
        // added at all). The session must now hold at least the full sifting
        // time plus each successful block's stage times, so it can never be
        // smaller than the per-result totals.
        let mut config = PostProcessingConfig::for_block_size(4096);
        config.sampling.sample_fraction = 0.2;
        let mut proc = PostProcessor::new(config, 23).unwrap();

        // Block 0 is clean; block 1 is garbage (~50% QBER) and aborts.
        let (a0, b0) = correlated_bits(4096, 0.01, 4);
        let mut rng = qkd_types::rng::derive_rng(5, "engine-test-noise");
        let a1 = BitVec::random(&mut rng, 4096);
        let b1 = BitVec::random(&mut rng, 4096);
        let mut alice = a0.clone();
        alice.extend_from(&a1);
        let mut bob = b0.clone();
        bob.extend_from(&b1);

        let results = proc
            .process_detections(&detection_events(&alice, &bob))
            .unwrap();
        assert_eq!(results.len(), 1);
        assert_eq!(proc.summary().blocks_failed, 1);
        let per_result: Duration = results.iter().map(BlockResult::total_time).sum();
        assert!(
            proc.summary().processing_time >= per_result,
            "session time {:?} must cover the per-result totals {:?}",
            proc.summary().processing_time,
            per_result
        );
    }

    /// What a caller can observe of an engine after one batch, measured
    /// times aside.
    #[derive(Debug, PartialEq)]
    struct Observed {
        outcome: Result<Vec<BlockResult>>,
        accounting: crate::SessionAccounting,
        auth_key_remaining: usize,
        pending_remainder_bits: usize,
        next_block: u64,
    }

    /// Runs `batches` through a fresh engine, lending `width` scratches.
    fn observe(
        config: &PostProcessingConfig,
        batches: &[Vec<DetectionEvent>],
        width: usize,
    ) -> Vec<Observed> {
        let mut proc = PostProcessor::new(config.clone(), 29).unwrap();
        let mut scratches: Vec<ReconcilerScratch> =
            (0..width).map(|_| ReconcilerScratch::new()).collect();
        batches
            .iter()
            .map(|events| {
                let mut outcome = proc.process_detections_with_scratch(events, &mut scratches);
                for r in outcome.iter_mut().flatten() {
                    r.stage_times.clear();
                }
                Observed {
                    outcome,
                    accounting: proc.summary().accounting(),
                    auth_key_remaining: proc.auth_key_remaining(),
                    pending_remainder_bits: proc.pending_remainder_bits(),
                    next_block: proc.next_block,
                }
            })
            .collect()
    }

    fn sampled_config(block: usize) -> PostProcessingConfig {
        let mut config = PostProcessingConfig::for_block_size(block);
        config.sampling.sample_fraction = 0.2;
        config
    }

    #[test]
    fn every_width_is_in_lockstep_with_width_one() {
        for block in [2048usize, 4096, 8192] {
            // Six blocks and a remainder; blocks 1 and 4 are noise and abort
            // at estimation. A second batch shows where numbering resumes.
            let mut rng = qkd_types::rng::derive_rng(block as u64, "engine-test-noise");
            let (mut alice, mut bob) = (BitVec::new(), BitVec::new());
            for i in 0..6u64 {
                let (a, b) = if i == 1 || i == 4 {
                    (
                        BitVec::random(&mut rng, block),
                        BitVec::random(&mut rng, block),
                    )
                } else {
                    correlated_bits(block, 0.012, 60 + i)
                };
                alice.extend_from(&a);
                bob.extend_from(&b);
            }
            let (a_rest, b_rest) = correlated_bits(200, 0.012, 6);
            alice.extend_from(&a_rest);
            bob.extend_from(&b_rest);
            let (a2, b2) = correlated_bits(2 * block, 0.012, 7);
            let batches = [detection_events(&alice, &bob), detection_events(&a2, &b2)];

            let config = sampled_config(block);
            let reference = observe(&config, &batches, 1);
            let first = &reference[0];
            assert_eq!(first.accounting.blocks_failed, 2, "block {block}");
            assert!(first.accounting.blocks_ok >= 3, "block {block}");
            assert_eq!(first.next_block, 6);
            let resumed = reference[1].outcome.as_ref().unwrap();
            assert_eq!(resumed[0].block, BlockId::new(0, 6));

            for width in 2..=8 {
                assert_eq!(
                    observe(&config, &batches, width),
                    reference,
                    "block {block}, width {width}"
                );
            }
        }
    }

    #[test]
    fn pool_exhaustion_at_every_block_position_is_in_lockstep_at_every_width() {
        for block in [2048usize, 4096, 8192] {
            // A one-block batch, then the five-block batch the pool dies in.
            let (a1, b1) = correlated_bits(block, 0.01, 8);
            let (a2, b2) = correlated_bits(5 * block + 100, 0.01, 9);
            let batches = [detection_events(&a1, &b1), detection_events(&a2, &b2)];

            // What each block draws from a pool that never runs dry.
            let mut config = sampled_config(block);
            let honest = observe(&config, &batches, 1);
            let draws: Vec<usize> = honest
                .iter()
                .flat_map(|o| o.outcome.as_ref().unwrap())
                .map(|r| r.auth_bits_consumed)
                .collect();
            assert_eq!(draws.len(), 6, "block {block}: every block must distil");
            let hash_key =
                config.auth_pool_bits - honest[1].auth_key_remaining - draws.iter().sum::<usize>();

            for position in 0..5usize {
                // Enough for the first batch and `position` blocks of the
                // second, then half a block's tags.
                let covered: usize = draws.iter().take(1 + position).sum();
                config.auth_pool_bits = hash_key + covered + draws[1 + position] / 2;
                let reference = observe(&config, &batches, 1);
                let dry = &reference[1];
                assert!(
                    matches!(dry.outcome, Err(QkdError::AuthKeyExhausted { .. })),
                    "block {block}, position {position}: {:?}",
                    dry.outcome
                );
                assert_eq!(dry.accounting.blocks_ok, 1 + position);
                assert_eq!(dry.next_block, 2 + position as u64);
                // Every sifted bit offered is consumed, carried or written off.
                assert_eq!(
                    dry.accounting.sifted_bits_in
                        + dry.accounting.carried_bits
                        + dry.accounting.discarded_bits,
                    (6 * block + 100) as u64
                );
                for width in 2..=8 {
                    assert_eq!(
                        observe(&config, &batches, width),
                        reference,
                        "block {block}, position {position}, width {width}"
                    );
                }
            }
        }
    }

    #[test]
    fn sharded_fatal_abort_keeps_the_key_ledger_balanced() {
        // Blocks behind the fatal one were distilled on another thread, but
        // never signed: every bit the pool gave out is a counted tag, the
        // hash key, or the fatal block's partial draw.
        let pool_bits = 1536usize;
        let mut config = sampled_config(4096);
        config.auth_pool_bits = pool_bits;
        let mut proc = PostProcessor::new(config, 31).unwrap();
        let (alice, bob) = correlated_bits(6 * 4096, 0.01, 7);
        let mut scratches = [ReconcilerScratch::new(), ReconcilerScratch::new()];
        let err = proc
            .process_detections_with_scratch(&detection_events(&alice, &bob), &mut scratches)
            .unwrap_err();
        assert!(matches!(err, QkdError::AuthKeyExhausted { .. }));
        let consumed = pool_bits - proc.auth_key_remaining();
        let counted = proc.summary().auth_bits_consumed as usize;
        assert!(
            consumed >= counted + 128,
            "consumed {consumed} must cover hash key + counted {counted}"
        );
        assert!(
            consumed - counted - 128 < 5 * 128,
            "pool draws beyond one partial block: consumed {consumed}, counted {counted}"
        );
    }

    #[test]
    fn sifted_bits_stay_on_the_ledger_when_a_batch_aborts() {
        // Regression: blocks framed behind a batch-fatal one used to vanish —
        // cut out of the carry, never attempted, counted nowhere.
        let mut config = sampled_config(4096);
        config.auth_pool_bits = 1536; // dry after a couple of blocks
        let mut proc = PostProcessor::new(config, 31).unwrap();
        let (alice, bob) = correlated_bits(6 * 4096 + 300, 0.01, 7);
        let err = proc
            .process_detections(&detection_events(&alice, &bob))
            .unwrap_err();
        assert!(matches!(err, QkdError::AuthKeyExhausted { .. }));
        let s = proc.summary();
        assert!(s.discarded_bits > 0 && s.discarded_bits % 4096 == 0);
        assert_eq!(s.carried_bits, 300);
        assert_eq!(
            s.sifted_bits_in + s.carried_bits + s.discarded_bits,
            6 * 4096 + 300
        );
        // The engine numbers the next batch from the block after the fatal one.
        assert_eq!(proc.next_block, (s.blocks_ok + s.blocks_failed) as u64);
    }

    #[test]
    fn a_batch_without_a_scratch_is_refused_before_anything_is_consumed() {
        let mut proc = PostProcessor::new(sampled_config(4096), 37).unwrap();
        let (alice, bob) = correlated_bits(4096 + 10, 0.01, 10);
        let events = detection_events(&alice, &bob);
        assert!(matches!(
            proc.process_detections_with_scratch(&events, &mut []),
            Err(QkdError::InvalidParameter { .. })
        ));
        assert_eq!(
            proc.summary().accounting(),
            SessionSummary::default().accounting()
        );
        assert_eq!(proc.pending_remainder_bits(), 0);
        assert_eq!(proc.process_detections(&events).unwrap().len(), 1);
    }
}
