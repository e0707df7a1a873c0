//! End-to-end QKD post-processing engine.
//!
//! This crate ties the substrates together into the system the paper
//! evaluates: a [`PostProcessor`] that takes sifted (or raw) key material and
//! drives it through estimation, reconciliation (LDPC or Cascade),
//! verification, privacy amplification and authentication, while accounting
//! every disclosed bit, every classical-channel round trip and every consumed
//! authentication key bit.
//!
//! * [`config`] — engine configuration (block size, reconciliation method,
//!   security parameters);
//! * [`channel`] — classical-channel model (RTT, bandwidth, traffic counters)
//!   used to convert protocol interactivity into time;
//! * [`verification`] — post-reconciliation error verification;
//! * [`engine`] — the block processor and session accounting: one batch
//!   body whose width is the number of reconciliation scratches the caller
//!   lends (blocks fan out, authentication stays in block order, results
//!   are bit-identical at every width);
//! * [`metrics`] — session summaries and secret-key-rate computation.
//!
//! # Example
//!
//! ```
//! use qkd_core::{PostProcessingConfig, PostProcessor};
//! use qkd_simulator::{CorrelatedKeySource, WorkloadPreset};
//!
//! let config = PostProcessingConfig::for_block_size(4096);
//! let mut processor = PostProcessor::new(config, 7).unwrap();
//! let mut source = CorrelatedKeySource::from_preset(WorkloadPreset::Metro, 4096, 1).unwrap();
//! let block = source.next_block();
//! let result = processor.process_sifted_block(&block.alice, &block.bob).unwrap();
//! assert!(result.secret_key.len() > 0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod channel;
pub mod config;
pub mod engine;
pub mod metrics;
pub mod verification;

pub use channel::{ChannelModel, ChannelUsage};
pub use config::{PostProcessingConfig, ReconciliationMethod};
pub use engine::{BlockResult, PostProcessor};
pub use metrics::{SessionAccounting, SessionSummary};
pub use verification::{verify_keys, VerificationConfig, VerificationOutcome};

// Re-exported so callers that drive engines from their own worker threads
// (e.g. the fleet manager) can hold a long-lived reconciliation scratch
// without depending on `qkd-ldpc` directly.
pub use qkd_ldpc::ReconcilerScratch;
