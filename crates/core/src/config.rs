//! Engine configuration.

use serde::{Deserialize, Serialize};

use qkd_ldpc::ReconcilerConfig;
use qkd_privacy::{FiniteKeyParams, ToeplitzStrategy};
use qkd_sifting::SamplingConfig;
use qkd_types::{QkdError, Result};

use crate::channel::ChannelModel;
use crate::verification::VerificationConfig;

/// Which information-reconciliation protocol a session uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ReconciliationMethod {
    /// One-way rate-adaptive LDPC syndrome coding (the accelerated path).
    Ldpc,
    /// Interactive Cascade (baseline).
    Cascade,
}

/// Options for the pipelined batch path
/// ([`crate::PostProcessor::process_detections_pipelined`]).
///
/// Blocks are round-robined across `shards` independent stage pipelines; each
/// pipeline runs the five distillation stages on their own worker threads
/// connected by bounded channels of depth `channel_capacity` (back-pressure:
/// a fast stage blocks rather than buffering unboundedly ahead of a slow
/// one).
///
/// Secret keys and session accounting are bit-identical to the sequential
/// path for any option values, because every block draws from its own RNG
/// stream derived from the session seed and block id. The only state shared
/// between in-flight blocks is the authentication key pool; with `shards > 1`
/// its *draw order* follows pipeline completion order rather than block
/// order, so a batch aborted mid-way by pool exhaustion can leave the pool
/// cursor at a slightly different position than a sequential run of the same
/// batch. Use `shards = 1` when strict lockstep with the sequential path
/// under exhaustion matters more than throughput.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PipelineOptions {
    /// Bounded depth of each inter-stage channel. Must be positive.
    pub channel_capacity: usize,
    /// Number of parallel stage pipelines blocks are distributed across.
    /// Must be positive.
    pub shards: usize,
}

impl Default for PipelineOptions {
    fn default() -> Self {
        Self {
            channel_capacity: 4,
            shards: 1,
        }
    }
}

impl PipelineOptions {
    /// Options tuned for throughput on the current host: one pipeline shard
    /// per two available cores (capped at 4), so the five stage threads of
    /// each shard have cores to overlap on.
    pub fn saturating() -> Self {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        Self {
            channel_capacity: 4,
            shards: cores.div_ceil(2).min(4),
        }
    }

    /// Sets the shard count, keeping everything else.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Options autoscaled from queue pressure: one shard as the baseline,
    /// one more per four backlogged batches, never exceeding the spare cores
    /// actually available to host the extra stage threads (and the same
    /// cap of 4 as [`PipelineOptions::saturating`]). With an empty backlog
    /// or no spare cores this is exactly the sequential-equivalent default.
    pub fn for_backlog(backlog: usize, spare_cores: usize) -> Self {
        let wanted = 1 + backlog / 4;
        Self {
            channel_capacity: 4,
            shards: wanted.clamp(1, spare_cores.clamp(1, 4)),
        }
    }

    /// Validates the options.
    ///
    /// # Errors
    ///
    /// Returns [`QkdError::InvalidParameter`] when a field is zero.
    pub fn validate(&self) -> Result<()> {
        if self.channel_capacity == 0 {
            return Err(QkdError::invalid_parameter(
                "channel_capacity",
                "inter-stage channels need a positive bound",
            ));
        }
        if self.shards == 0 {
            return Err(QkdError::invalid_parameter(
                "shards",
                "at least one pipeline shard is required",
            ));
        }
        Ok(())
    }
}

/// Full configuration of the post-processing engine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PostProcessingConfig {
    /// Sifted-key block size in bits.
    pub block_size: usize,
    /// Reconciliation protocol.
    pub reconciliation: ReconciliationMethod,
    /// QBER-estimation sampling settings.
    pub sampling: SamplingConfig,
    /// LDPC reconciler settings (used when `reconciliation == Ldpc`).
    pub ldpc: ReconcilerConfig,
    /// Cascade settings (used when `reconciliation == Cascade`).
    pub cascade: qkd_cascade::CascadeConfig,
    /// Error-verification settings.
    pub verification: VerificationConfig,
    /// Finite-key security parameters.
    pub finite_key: FiniteKeyParams,
    /// Toeplitz evaluation strategy for privacy amplification.
    pub toeplitz_strategy: ToeplitzStrategy,
    /// Classical channel model.
    pub channel: ChannelModel,
    /// Bits of pre-shared authentication key available at session start.
    pub auth_pool_bits: usize,
    /// Skip QBER estimation sampling and trust the provided estimate
    /// (used by micro-benchmarks; real sessions must sample).
    pub trust_external_qber: bool,
}

impl PostProcessingConfig {
    /// Sensible defaults for the given block size.
    pub fn for_block_size(block_size: usize) -> Self {
        Self {
            block_size,
            reconciliation: ReconciliationMethod::Ldpc,
            sampling: SamplingConfig::default(),
            ldpc: ReconcilerConfig::for_block_size(block_size),
            cascade: qkd_cascade::CascadeConfig::default(),
            verification: VerificationConfig::default(),
            finite_key: FiniteKeyParams::default(),
            toeplitz_strategy: ToeplitzStrategy::Clmul,
            channel: ChannelModel::metro(),
            auth_pool_bits: 1 << 20,
            trust_external_qber: false,
        }
    }

    /// Switches the reconciliation method, keeping everything else.
    pub fn with_reconciliation(mut self, method: ReconciliationMethod) -> Self {
        self.reconciliation = method;
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`QkdError::InvalidParameter`] when any component configuration
    /// is invalid or the block size disagrees with the LDPC reconciler.
    pub fn validate(&self) -> Result<()> {
        if self.block_size < 64 {
            return Err(QkdError::invalid_parameter(
                "block_size",
                "must be at least 64 bits",
            ));
        }
        if self.ldpc.block_size != self.block_size {
            return Err(QkdError::invalid_parameter(
                "ldpc.block_size",
                "must equal the engine block size",
            ));
        }
        if self.auth_pool_bits < 1024 {
            return Err(QkdError::invalid_parameter(
                "auth_pool_bits",
                "authentication needs at least 1024 bits of pre-shared key",
            ));
        }
        self.sampling.validate()?;
        self.ldpc.validate()?;
        self.cascade.validate()?;
        self.finite_key.validate()?;
        self.channel.validate()?;
        self.verification.validate()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        PostProcessingConfig::for_block_size(4096)
            .validate()
            .unwrap();
        PostProcessingConfig::for_block_size(65_536)
            .with_reconciliation(ReconciliationMethod::Cascade)
            .validate()
            .unwrap();
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut c = PostProcessingConfig::for_block_size(4096);
        c.block_size = 32;
        assert!(c.validate().is_err());

        let mut c = PostProcessingConfig::for_block_size(4096);
        c.ldpc.block_size = 8192;
        assert!(c.validate().is_err());

        let mut c = PostProcessingConfig::for_block_size(4096);
        c.auth_pool_bits = 100;
        assert!(c.validate().is_err());

        let mut c = PostProcessingConfig::for_block_size(4096);
        c.sampling.sample_fraction = 2.0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn pipeline_options_validate() {
        PipelineOptions::default().validate().unwrap();
        PipelineOptions::saturating().validate().unwrap();
        assert!(PipelineOptions {
            channel_capacity: 0,
            shards: 1
        }
        .validate()
        .is_err());
        assert!(PipelineOptions::default()
            .with_shards(0)
            .validate()
            .is_err());
    }
}
