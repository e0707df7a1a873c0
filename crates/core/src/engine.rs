//! The block processor and session engine.
//!
//! Distillation of one block is split into five stage functions
//! (estimation → reconciliation → verification → privacy amplification →
//! authentication) over a [`BlockInFlight`] item that owns everything its
//! block needs: the bits, a private RNG stream derived from the session seed
//! and the block id, the intermediate stage products, and a session-summary
//! delta. The sequential path ([`PostProcessor::process_sifted_block`]) runs
//! the five stages in order on one thread; the pipelined path
//! ([`PostProcessor::process_detections_pipelined`]) runs each stage on its
//! own worker thread via [`qkd_hetero::Pipeline`] and overlaps blocks across
//! stages. Because the stages are the same code and every block draws from
//! its own deterministic RNG, both paths produce bit-identical keys and equal
//! accounting.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

use qkd_auth::{AuthConfig, Authenticator, KeyPool};
use qkd_cascade::CascadeReconciler;
use qkd_hetero::{Pipeline, ThroughputReport};
use qkd_ldpc::{LdpcReconciler, ReconcilerScratch};
use qkd_privacy::PrivacyAmplifier;
use qkd_sifting::{estimate_qber, sift, SiftingConfig};
use qkd_types::frame::StageLabel;
use qkd_types::key::binary_entropy;
use qkd_types::rng::derive_block_rng;
use qkd_types::{BitVec, BlockId, DetectionEvent, QkdError, Result, SecretKey};

use crate::channel::ChannelUsage;
use crate::config::{PipelineOptions, PostProcessingConfig, ReconciliationMethod};
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

/// Output of the pipelined batch path: per-block results in block order plus
/// stage-level throughput of the run.
#[derive(Debug, Clone)]
pub struct PipelinedBatch {
    /// Per-block results, ordered by block id (failed blocks are counted in
    /// the session summary and omitted, exactly like the sequential path).
    pub results: Vec<BlockResult>,
    /// Per-stage busy/blocked time, utilisation and bit throughput of the
    /// pipeline run.
    pub throughput: ThroughputReport,
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
/// intermediate products, and a [`SessionSummary`] delta — so the stages can
/// run on different threads without sharing mutable state. The deliberate
/// exception is the authentication key pool, which all blocks draw from in
/// delivery order at the final stage.
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
    /// The failure (if any) is one the sequential batch loop would propagate,
    /// aborting the batch.
    fatal: bool,
    /// The block never ran: an earlier block failed fatally, so the
    /// sequential path would not have attempted it. Contributes nothing to
    /// the session.
    skipped: bool,
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
            skipped: false,
        }
    }

    /// Marks the block failed. `counted` mirrors which sequential failures
    /// increment `blocks_failed` (threshold aborts, reconciliation /
    /// amplification / authentication failures) and which propagate
    /// uncounted (configuration errors).
    fn fail(&mut self, e: QkdError, counted: bool) {
        if counted {
            self.delta.blocks_failed += 1;
            engine_obs().blocks_failed.inc();
        }
        self.fatal = is_batch_fatal(&e);
        self.failure = Some(e);
    }

    /// `true` when a stage should pass the item through untouched.
    fn done(&self) -> bool {
        self.failure.is_some() || self.skipped
    }

    /// Payload size used for pipeline bit accounting: sifted bits on the way
    /// in, secret bits on the way out, nothing for dead blocks.
    fn payload_bits(&self) -> usize {
        if self.skipped || self.failure.is_some() {
            0
        } else if !self.secret_bits.is_empty() {
            self.secret_bits.len()
        } else {
            self.alice.len()
        }
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

/// Everything a distillation stage needs, cheaply cloneable into the stage
/// worker threads of the pipelined path. The authenticator clone shares the
/// engine's key pool and sequence counter.
#[derive(Clone)]
struct StageContext {
    config: Arc<PostProcessingConfig>,
    ldpc: Arc<LdpcReconciler>,
    cascade: Arc<CascadeReconciler>,
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
    /// provides the long-lived LDPC scratch: the sequential path passes the
    /// engine's, each pipelined shard's reconciliation worker owns one, and
    /// fleet workers carry one across the links they service.
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

        engine_obs().blocks_ok.inc();
        item.delta.blocks_ok += 1;
        item.delta.secret_bits_out += item.secret_bits.len() as u64;
        item.delta.disclosed_bits +=
            (item.est_disclosed + item.rec_leak + item.verification_leak) as u64;
        item.delta.auth_bits_consumed += auth_bits as u64;
        item.delta.processing_time += item.stage_times.iter().map(|(_, d)| *d).sum::<Duration>();
        item.delta.channel_usage.add(item.channel_usage);
    }
}

/// Runs one shard's items through a five-stage pipeline, one worker thread
/// per stage. The authentication stage doubles as the batch-fatal gate: once
/// a block fails with an error the sequential path would propagate, every
/// later block in the shard is marked skipped so it touches neither the key
/// pool nor the session summary — exactly the blocks a sequential run would
/// never have attempted.
fn run_shard(
    ctx: StageContext,
    items: Vec<BlockInFlight>,
    capacity: usize,
) -> Result<(Vec<BlockInFlight>, ThroughputReport)> {
    let est = ctx.clone();
    let rec = ctx.clone();
    let ver = ctx.clone();
    let amp = ctx.clone();
    let mut poisoned = false;
    let pipeline = Pipeline::new(capacity)
        .with_bit_counter(BlockInFlight::payload_bits)
        .add_fn("estimation", move |mut item: BlockInFlight| {
            est.estimate(&mut item);
            Ok(item)
        })
        .add_fn("reconciliation", {
            // The shard's reconciliation worker owns one scratch for its
            // whole lifetime: every block it decodes reuses the same arena.
            let mut scratch = ReconcilerScratch::new();
            move |mut item: BlockInFlight| {
                rec.reconcile(&mut item, &mut scratch);
                Ok(item)
            }
        })
        .add_fn("verification", move |mut item: BlockInFlight| {
            ver.verify(&mut item);
            Ok(item)
        })
        .add_fn("privacy-amplification", move |mut item: BlockInFlight| {
            amp.amplify(&mut item);
            Ok(item)
        })
        .add_fn("authentication", move |mut item: BlockInFlight| {
            if poisoned {
                item.skipped = true;
            } else {
                ctx.authenticate(&mut item);
                if item.fatal {
                    poisoned = true;
                }
            }
            Ok(item)
        });
    let report = pipeline.run(items)?;
    Ok((report.items, report.throughput))
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
    config: Arc<PostProcessingConfig>,
    ldpc: Arc<LdpcReconciler>,
    cascade: Arc<CascadeReconciler>,
    amplifier: PrivacyAmplifier,
    authenticator: Authenticator,
    auth_pool: KeyPool,
    master_seed: u64,
    next_block: u64,
    summary: SessionSummary,
    carry: Option<(BitVec, BitVec)>,
    /// Long-lived reconciliation scratch for the sequential path; reused
    /// across every block and rate-ladder attempt of the session.
    scratch: ReconcilerScratch,
}

impl std::fmt::Debug for PostProcessor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PostProcessor")
            .field("block_size", &self.config.block_size)
            .field("reconciliation", &self.config.reconciliation)
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
            config: Arc::new(config),
            ldpc: Arc::new(ldpc),
            cascade: Arc::new(cascade),
            amplifier,
            authenticator,
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
        &self.config
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

    fn stage_context(&self) -> StageContext {
        StageContext {
            config: Arc::clone(&self.config),
            ldpc: Arc::clone(&self.ldpc),
            cascade: Arc::clone(&self.cascade),
            amplifier: self.amplifier,
            authenticator: self.authenticator.clone(),
        }
    }

    /// Assigns the next block id and derives the block's private RNG stream
    /// from the session seed — the same derivation regardless of which path
    /// processes the block, which is what makes sequential and pipelined
    /// outputs bit-identical.
    fn new_block_item(&mut self, alice: BitVec, bob: BitVec) -> BlockInFlight {
        let block = BlockId::new(0, self.next_block);
        self.next_block += 1;
        let rng = derive_block_rng(self.master_seed, "post-processor/block", block.as_u64());
        BlockInFlight::new(block, self.config.reconciliation, alice, bob, rng)
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

        let n = self.config.block_size;
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

    /// Processes a batch of detection events end to end: sifting, block
    /// framing, and per-block distillation. Returns the per-block results
    /// (failed blocks are recorded in the summary and skipped). Sifted bits
    /// left over after framing are buffered and prepended to the next batch
    /// (see [`PostProcessor::pending_remainder_bits`]).
    ///
    /// # Errors
    ///
    /// Propagates only configuration-level failures; per-block aborts are
    /// counted, not returned.
    pub fn process_detections(&mut self, events: &[DetectionEvent]) -> Result<Vec<BlockResult>> {
        let mut scratch = std::mem::take(&mut self.scratch);
        let result = self.process_detections_with_scratch(events, &mut scratch);
        self.scratch = scratch;
        result
    }

    /// Processes a batch like [`PostProcessor::process_detections`], drawing
    /// reconciliation working memory from a caller-owned scratch. Callers
    /// that drive many engines from one thread — e.g. fleet workers serving
    /// links round-robin — hold a single scratch across all of them instead
    /// of warming one per engine.
    ///
    /// # Errors
    ///
    /// See [`PostProcessor::process_detections`].
    pub fn process_detections_with_scratch(
        &mut self,
        events: &[DetectionEvent],
        scratch: &mut ReconcilerScratch,
    ) -> Result<Vec<BlockResult>> {
        let batch = self.frame_blocks(events);
        let mut results = Vec::new();
        for (alice, bob) in batch.blocks {
            match self.process_owned_block_with(alice, bob, scratch) {
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

    /// Processes a batch of detection events like
    /// [`PostProcessor::process_detections`], but overlaps the five
    /// distillation stages across blocks on dedicated worker threads
    /// ([`qkd_hetero::Pipeline`]) with bounded back-pressure, optionally
    /// sharded into several parallel pipelines.
    ///
    /// Results and session accounting are bit-identical to the sequential
    /// path: every block draws from its own RNG stream derived from the
    /// session seed and block id, and summary deltas are accumulated
    /// commutatively in block order.
    ///
    /// # Errors
    ///
    /// * [`QkdError::InvalidParameter`] when `options` are invalid.
    /// * The same batch-fatal errors the sequential path propagates (e.g.
    ///   [`QkdError::AuthKeyExhausted`]). At `shards = 1` the abort is in
    ///   lockstep with the sequential path: blocks after the fatal one never
    ///   run and are not charged. With `shards > 1`, blocks in other shards
    ///   may already have completed past the fatal block; their results are
    ///   discarded but their resource use (auth key, summary counters) is
    ///   still charged, keeping the key ledger balanced.
    /// * [`QkdError::PipelineStalled`] when a stage worker panics.
    pub fn process_detections_pipelined(
        &mut self,
        events: &[DetectionEvent],
        options: &PipelineOptions,
    ) -> Result<PipelinedBatch> {
        options.validate()?;
        let batch = self.frame_blocks(events);
        let run_start = Instant::now();
        let ctx = self.stage_context();

        let mut items = Vec::with_capacity(batch.blocks.len());
        for (alice, bob) in batch.blocks {
            items.push(self.new_block_item(alice, bob));
        }

        // Round-robin blocks across shards; order within a shard is block
        // order, so each shard's auth-pool draws happen in block order too.
        let shards = options.shards.clamp(1, items.len().max(1));
        let mut shard_items: Vec<Vec<BlockInFlight>> = (0..shards).map(|_| Vec::new()).collect();
        for (i, item) in items.into_iter().enumerate() {
            shard_items[i % shards].push(item);
        }

        let capacity = options.channel_capacity;
        let handles: Vec<_> = shard_items
            .into_iter()
            .map(|shard| {
                let ctx = ctx.clone();
                std::thread::spawn(move || run_shard(ctx, shard, capacity))
            })
            .collect();

        let mut throughput = ThroughputReport::default();
        let mut processed: Vec<BlockInFlight> = Vec::new();
        let mut first_error: Option<QkdError> = None;
        for handle in handles {
            match handle.join() {
                Ok(Ok((items, report))) => {
                    throughput.merge(&report);
                    processed.extend(items);
                }
                Ok(Err(e)) => first_error = first_error.or(Some(e)),
                Err(_) => {
                    first_error =
                        first_error.or(Some(QkdError::PipelineStalled { stage: "shard" }));
                }
            }
        }
        if let Some(e) = first_error {
            return Err(e);
        }
        throughput.makespan = run_start.elapsed();

        // Collect in block order, mirroring the sequential loop. Every block
        // that actually ran is charged to the session — with shards > 1,
        // blocks in other shards may have completed (and consumed
        // authentication key) after the first fatal block, and dropping their
        // deltas would unbalance the key ledger. Their results are still
        // discarded, like the sequential path discards everything on a fatal.
        processed.sort_by_key(|item| item.block.sequence);
        let mut results = Vec::new();
        let mut fatal: Option<(u64, QkdError)> = None;
        let mut ran_after_fatal = false;
        for item in processed {
            if item.skipped {
                continue;
            }
            if fatal.is_some() {
                ran_after_fatal = true;
            }
            let sequence = item.block.sequence;
            let (result, delta) = item.finish();
            self.summary.merge(&delta);
            match result {
                Ok(mut r) if fatal.is_none() => {
                    r.stage_times
                        .insert(0, (StageLabel::Sifting, batch.sift_share));
                    results.push(r);
                }
                Ok(_) => {}
                Err(e) if !is_batch_fatal(&e) => {}
                Err(e) => {
                    if fatal.is_none() {
                        fatal = Some((sequence, e));
                    }
                }
            }
        }
        if let Some((sequence, e)) = fatal {
            if !ran_after_fatal {
                // Nothing ran past the fatal block (always the case at
                // shards = 1, where the poison gate skips everything later):
                // roll the block counter back so the next batch numbers
                // blocks exactly as the sequential path would. When later
                // blocks did run, they hold their ids and the counter stays
                // where framing left it.
                self.next_block = sequence + 1;
            }
            return Err(e);
        }
        Ok(PipelinedBatch {
            results,
            throughput,
        })
    }

    /// Distils one sifted block (QBER estimation included).
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
        self.process_owned_block(alice.clone(), bob.clone())
    }

    /// The sequential distillation path over owned, equal-length halves (the
    /// batch loop hands its framed blocks straight in without re-cloning),
    /// reusing the engine's own reconciliation scratch.
    fn process_owned_block(&mut self, alice: BitVec, bob: BitVec) -> Result<BlockResult> {
        let mut scratch = std::mem::take(&mut self.scratch);
        let result = self.process_owned_block_with(alice, bob, &mut scratch);
        self.scratch = scratch;
        result
    }

    /// Sequential distillation with caller-provided reconciliation scratch.
    fn process_owned_block_with(
        &mut self,
        alice: BitVec,
        bob: BitVec,
        scratch: &mut ReconcilerScratch,
    ) -> Result<BlockResult> {
        let ctx = self.stage_context();
        let mut item = self.new_block_item(alice, bob);
        ctx.estimate(&mut item);
        ctx.reconcile(&mut item, scratch);
        ctx.verify(&mut item);
        ctx.amplify(&mut item);
        ctx.authenticate(&mut item);
        let (result, delta) = item.finish();
        self.summary.merge(&delta);
        result
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

    #[test]
    fn pipelined_path_matches_sequential_bit_for_bit() {
        let mk = || {
            let mut config = PostProcessingConfig::for_block_size(4096);
            config.sampling.sample_fraction = 0.2;
            PostProcessor::new(config, 29).unwrap()
        };
        let (alice, bob) = correlated_bits(3 * 4096 + 200, 0.012, 6);
        let events = detection_events(&alice, &bob);

        let mut seq = mk();
        let seq_results = seq.process_detections(&events).unwrap();

        for shards in [1usize, 2] {
            let mut pipe = mk();
            let options = PipelineOptions {
                channel_capacity: 2,
                shards,
            };
            let batch = pipe
                .process_detections_pipelined(&events, &options)
                .unwrap();
            assert_eq!(batch.results.len(), seq_results.len());
            for (s, p) in seq_results.iter().zip(&batch.results) {
                assert_eq!(s.block, p.block);
                assert_eq!(
                    s.secret_key.bits, p.secret_key.bits,
                    "keys must be bit-identical"
                );
                assert_eq!(s.qber, p.qber);
                assert_eq!(s.reconciliation_leak, p.reconciliation_leak);
                assert_eq!(s.verification_leak, p.verification_leak);
                assert_eq!(s.estimation_disclosed, p.estimation_disclosed);
                assert_eq!(s.corrected_errors, p.corrected_errors);
                assert_eq!(s.auth_bits_consumed, p.auth_bits_consumed);
                assert_eq!(s.channel_usage, p.channel_usage);
            }
            assert_eq!(seq.summary().accounting(), pipe.summary().accounting());
            assert_eq!(seq.pending_remainder_bits(), pipe.pending_remainder_bits());
            assert_eq!(seq.auth_key_remaining(), pipe.auth_key_remaining());
            // The throughput report is fully populated.
            assert_eq!(batch.throughput.items, 3);
            assert_eq!(batch.throughput.input_bits, 3 * 4096);
            assert!(batch.throughput.output_bits > 0);
            assert_eq!(batch.throughput.stages.len(), 5);
            assert!(batch.throughput.stages["reconciliation"].host_time > Duration::ZERO);
        }
    }

    #[test]
    fn sharded_fatal_abort_keeps_the_key_ledger_balanced() {
        // With shards > 1, blocks in another shard can complete after the
        // fatal block; their results are discarded but their auth-key use
        // must still be charged so the pool ledger balances.
        let pool_bits = 1536usize;
        let mut config = PostProcessingConfig::for_block_size(4096);
        config.sampling.sample_fraction = 0.2;
        config.auth_pool_bits = pool_bits;
        let mut pipe = PostProcessor::new(config, 31).unwrap();
        let (alice, bob) = correlated_bits(6 * 4096, 0.01, 7);
        let events = detection_events(&alice, &bob);
        let options = PipelineOptions {
            channel_capacity: 2,
            shards: 2,
        };
        let err = pipe
            .process_detections_pipelined(&events, &options)
            .unwrap_err();
        assert!(matches!(err, QkdError::AuthKeyExhausted { .. }));
        // Pool consumption = 128-bit hash key + every counted tag + partial
        // draws of the failing blocks (fewer than one block's 5-message
        // budget per shard).
        let consumed = pool_bits - pipe.auth_key_remaining();
        let counted = pipe.summary().auth_bits_consumed as usize;
        assert!(
            consumed >= counted + 128,
            "consumed {consumed} must cover hash key + counted {counted}"
        );
        assert!(
            consumed - counted - 128 <= 2 * 5 * 128,
            "untracked pool draws beyond partial failing blocks: consumed {consumed}, counted {counted}"
        );
    }

    #[test]
    fn pipelined_fatal_error_drains_cleanly_and_matches_sequential() {
        let mk = || {
            let mut config = PostProcessingConfig::for_block_size(4096);
            config.sampling.sample_fraction = 0.2;
            config.auth_pool_bits = 1536; // exhausts after a couple of blocks
            PostProcessor::new(config, 31).unwrap()
        };
        let (alice, bob) = correlated_bits(6 * 4096, 0.01, 7);
        let events = detection_events(&alice, &bob);

        let mut seq = mk();
        let seq_err = seq.process_detections(&events).unwrap_err();
        assert!(matches!(seq_err, QkdError::AuthKeyExhausted { .. }));

        // shards = 1 keeps auth-pool draws in block order, so the pipelined
        // run must abort on the same block with the same pool state — and it
        // must drain rather than deadlock.
        let mut pipe = mk();
        let pipe_err = pipe
            .process_detections_pipelined(&events, &PipelineOptions::default())
            .unwrap_err();
        assert_eq!(seq_err, pipe_err);
        assert_eq!(seq.summary().accounting(), pipe.summary().accounting());
        assert_eq!(seq.auth_key_remaining(), pipe.auth_key_remaining());

        // Both engines keep working identically after the failed batch.
        let (a2, b2) = correlated_bits(4096, 0.01, 8);
        let ev2 = detection_events(&a2, &b2);
        let r_seq = seq.process_detections(&ev2);
        let r_pipe = pipe.process_detections_pipelined(&ev2, &PipelineOptions::default());
        match (r_seq, r_pipe) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.len(), b.results.len());
            }
            (Err(a), Err(b)) => assert_eq!(a, b),
            (a, b) => panic!("paths diverged after fatal batch: {a:?} vs {b:?}"),
        }
        assert_eq!(seq.summary().accounting(), pipe.summary().accounting());
    }
}
