//! Engine configuration.

use serde::{Deserialize, Serialize};

use qkd_ldpc::ReconcilerConfig;
use qkd_privacy::{FiniteKeyParams, ToeplitzStrategy};
use qkd_sifting::SamplingConfig;
use qkd_types::{QkdError, Result};

use crate::verification::VerificationConfig;

/// Which information-reconciliation protocol a session uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ReconciliationMethod {
    /// One-way rate-adaptive LDPC syndrome coding (the accelerated path).
    Ldpc,
    /// Interactive Cascade (baseline).
    Cascade,
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

        for value in [f64::NAN, f64::INFINITY] {
            let mut c = PostProcessingConfig::for_block_size(4096);
            c.ldpc.decoder.llr_clamp = value;
            assert!(c.validate().is_err(), "llr_clamp {value}");

            let mut c = PostProcessingConfig::for_block_size(4096);
            c.ldpc.efficiency_target = value;
            assert!(c.validate().is_err(), "efficiency_target {value}");
        }
    }
}
