//! Per-link specifications and fleet-level tuning knobs.

use serde::{Deserialize, Serialize};

use qkd_core::{PostProcessingConfig, PostProcessor};
use qkd_simulator::{CorrelatedKeySource, FleetLinkSpec, WorkloadPreset};
use qkd_types::{QkdError, Result};

/// Everything that defines one managed link: channel quality, block size and
/// the single seed from which both the link's sifted-bit stream and its
/// engine randomness derive.
///
/// The seed is the determinism anchor of the fleet invariant: a
/// [`LinkSpec::solo_processor`] fed by [`LinkSpec::key_source`] replays
/// exactly what the fleet does for this link, bit for bit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinkSpec {
    /// Human-readable label (preset name, site id, …).
    pub label: String,
    /// Target channel QBER of the link.
    pub qber: f64,
    /// Sifted-key block size in bits.
    pub block_bits: usize,
    /// Master seed for key material and engine randomness.
    pub seed: u64,
    /// Fraction of each block disclosed for QBER estimation.
    pub sample_fraction: f64,
    /// Pre-shared authentication key available to the link's session.
    pub auth_pool_bits: usize,
    /// Weighted-fair-queueing weight: a link with weight 2.0 is entitled to
    /// twice the pool service of a weight-1.0 link while both are
    /// backlogged. Must be finite and positive.
    pub weight: f64,
}

impl LinkSpec {
    /// A spec with the workspace's standard engine tuning.
    pub fn new(label: impl Into<String>, qber: f64, block_bits: usize, seed: u64) -> Self {
        Self {
            label: label.into(),
            qber,
            block_bits,
            seed,
            sample_fraction: 0.15,
            auth_pool_bits: 1 << 20,
            weight: 1.0,
        }
    }

    /// Sets the WFQ scheduling weight, keeping everything else.
    pub fn with_weight(mut self, weight: f64) -> Self {
        self.weight = weight;
        self
    }

    /// A spec from a named workload preset.
    pub fn from_preset(preset: WorkloadPreset, block_bits: usize, seed: u64) -> Self {
        Self::new(preset.label(), preset.qber(), block_bits, seed)
    }

    /// A spec from one link of a [`qkd_simulator::FleetWorkload`].
    pub fn from_fleet(spec: &FleetLinkSpec) -> Self {
        Self::from_preset(spec.preset, spec.block_bits, spec.seed)
    }

    /// The post-processing configuration the fleet runs this link with.
    pub fn engine_config(&self) -> PostProcessingConfig {
        let mut config = PostProcessingConfig::for_block_size(self.block_bits);
        config.sampling.sample_fraction = self.sample_fraction;
        config.auth_pool_bits = self.auth_pool_bits;
        config
    }

    /// A standalone engine identical to the one the fleet drives for this
    /// link — used to verify the fleet determinism invariant.
    ///
    /// # Errors
    ///
    /// Returns [`QkdError::InvalidParameter`] when the derived engine
    /// configuration is invalid.
    pub fn solo_processor(&self) -> Result<PostProcessor> {
        PostProcessor::new(self.engine_config(), self.seed)
    }

    /// The correlated sifted-bit source the fleet feeds this link from.
    ///
    /// # Errors
    ///
    /// Returns [`QkdError::InvalidParameter`] for a zero block size or an
    /// out-of-range QBER.
    pub fn key_source(&self) -> Result<CorrelatedKeySource> {
        CorrelatedKeySource::new(self.block_bits, self.qber, self.seed)
    }

    /// Validates the spec.
    ///
    /// # Errors
    ///
    /// Returns [`QkdError::InvalidParameter`] for out-of-domain fields.
    pub fn validate(&self) -> Result<()> {
        if !(0.0..0.5).contains(&self.qber) {
            return Err(QkdError::invalid_parameter("qber", "must lie in [0, 0.5)"));
        }
        if !self.weight.is_finite() || self.weight <= 0.0 {
            return Err(QkdError::invalid_parameter(
                "weight",
                "scheduling weight must be finite and positive",
            ));
        }
        self.engine_config().validate()
    }
}

/// What admission control does with an arrival when a link's backlog is
/// already at the cap.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum AdmissionPolicy {
    /// Reject the new batch wholesale (the arrival never touches the link's
    /// key stream, so a later submission sees the same bits).
    #[default]
    Reject,
    /// Shed the *oldest* queued batch to make room and accept the new one —
    /// freshest-key-first service for consumers that prefer recency over
    /// completeness. The shed batch's raw key is lost (its bits were already
    /// drawn from the stream); drops are counted per link in
    /// [`crate::report::LinkReport::batches_dropped`].
    DropOldest,
}

/// Fleet-level tuning: how many workers share the pool, how deep each link's
/// batch backlog may grow, what to do with arrivals past the cap, and how
/// many batches one drain may dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FleetConfig {
    /// Worker threads in the shared pool — the whole fleet's compute budget
    /// and the only bound on distillation threads: each worker distils one
    /// link batch at a time on its own reconciliation scratch.
    pub workers: usize,
    /// Maximum batches a single link may have queued; submissions beyond the
    /// cap are handled per [`FleetConfig::admission`].
    pub max_backlog: usize,
    /// Backlog-overflow policy.
    pub admission: AdmissionPolicy,
    /// Optional dispatch budget for one [`crate::LinkManager::run`]: the pool
    /// stops after this many batches even if backlogs remain, leaving the
    /// rest queued for the next drain. `None` (the default) drains
    /// everything. A finite budget makes service shares under contention
    /// observable: a full drain eventually serves every batch whatever the
    /// order.
    pub batch_budget: Option<usize>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        Self {
            workers: (cores / 2).clamp(1, 8),
            max_backlog: 8,
            admission: AdmissionPolicy::Reject,
            batch_budget: None,
        }
    }
}

impl FleetConfig {
    /// Sets the worker count, keeping everything else.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the per-link backlog cap, keeping everything else.
    pub fn with_max_backlog(mut self, max_backlog: usize) -> Self {
        self.max_backlog = max_backlog;
        self
    }

    /// Sets the backlog-overflow policy, keeping everything else.
    pub fn with_admission(mut self, admission: AdmissionPolicy) -> Self {
        self.admission = admission;
        self
    }

    /// Sets the per-run dispatch budget, keeping everything else.
    pub fn with_batch_budget(mut self, budget: Option<usize>) -> Self {
        self.batch_budget = budget;
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`QkdError::InvalidParameter`] when a field is zero.
    pub fn validate(&self) -> Result<()> {
        if self.workers == 0 {
            return Err(QkdError::invalid_parameter(
                "workers",
                "the shared pool needs at least one worker",
            ));
        }
        if self.max_backlog == 0 {
            return Err(QkdError::invalid_parameter(
                "max_backlog",
                "links need room for at least one queued batch",
            ));
        }
        if self.batch_budget == Some(0) {
            return Err(QkdError::invalid_parameter(
                "batch_budget",
                "a dispatch budget must admit at least one batch (use None to drain fully)",
            ));
        }
        Ok(())
    }
}

/// Outcome of submitting an epoch of raw key to a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Admission {
    /// The batch was queued; `backlog` batches are now pending on the link.
    Accepted {
        /// Batches queued on the link after this submission.
        backlog: usize,
    },
    /// The batch was queued under [`AdmissionPolicy::DropOldest`] after
    /// shedding `dropped` queued batches to make room.
    AcceptedAfterDrop {
        /// Batches queued on the link after this submission.
        backlog: usize,
        /// Queued batches shed to admit this one.
        dropped: u64,
    },
    /// The link's backlog is full; the batch was dropped without touching the
    /// link's key stream (a later identical submission sees the same bits).
    RejectedBacklog {
        /// Batches currently queued on the link.
        backlog: usize,
        /// The configured backlog cap.
        limit: usize,
    },
    /// The link aborted fatally in an earlier batch and accepts no new work.
    RejectedFailed,
}

impl Admission {
    /// Returns `true` when the batch was queued.
    pub fn accepted(&self) -> bool {
        matches!(
            self,
            Admission::Accepted { .. } | Admission::AcceptedAfterDrop { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_from_preset_carries_qber_and_label() {
        let spec = LinkSpec::from_preset(WorkloadPreset::Backbone, 4096, 9);
        assert_eq!(spec.label, "backbone");
        assert_eq!(spec.qber, 0.025);
        spec.validate().unwrap();
        assert_eq!(spec.engine_config().block_size, 4096);
        assert!(spec.solo_processor().is_ok());
        assert_eq!(spec.key_source().unwrap().qber(), 0.025);
    }

    #[test]
    fn invalid_specs_and_configs_rejected() {
        let mut spec = LinkSpec::new("bad", 0.6, 4096, 1);
        assert!(spec.validate().is_err());
        spec.qber = 0.01;
        spec.block_bits = 32; // below the engine minimum
        assert!(spec.validate().is_err());

        FleetConfig::default().validate().unwrap();
        assert!(FleetConfig::default().with_workers(0).validate().is_err());
        assert!(FleetConfig::default()
            .with_max_backlog(0)
            .validate()
            .is_err());
    }

    #[test]
    fn admission_classification() {
        assert!(Admission::Accepted { backlog: 1 }.accepted());
        assert!(Admission::AcceptedAfterDrop {
            backlog: 1,
            dropped: 1
        }
        .accepted());
        assert!(!Admission::RejectedBacklog {
            backlog: 8,
            limit: 8
        }
        .accepted());
        assert!(!Admission::RejectedFailed.accepted());
    }

    #[test]
    fn scheduling_knobs_validate() {
        let spec = LinkSpec::new("weighted", 0.01, 4096, 7).with_weight(4.0);
        spec.validate().unwrap();
        assert_eq!(spec.weight, 4.0);
        assert!(spec.clone().with_weight(0.0).validate().is_err());
        assert!(spec.with_weight(f64::NAN).validate().is_err());

        let config = FleetConfig::default();
        assert_eq!(config.batch_budget, None);
        config.with_batch_budget(Some(16)).validate().unwrap();
        assert!(config.with_batch_budget(Some(0)).validate().is_err());
    }

    #[test]
    fn admission_policy_defaults_to_reject() {
        assert_eq!(FleetConfig::default().admission, AdmissionPolicy::Reject);
        let config = FleetConfig::default().with_admission(AdmissionPolicy::DropOldest);
        assert_eq!(config.admission, AdmissionPolicy::DropOldest);
        config.validate().unwrap();
    }
}
