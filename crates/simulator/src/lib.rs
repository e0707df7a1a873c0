//! Decoy-state BB84 source, channel and detector simulator.
//!
//! The authors' evaluation consumed raw key streams from a physical QKD
//! testbed. This crate is the substitute substrate: it simulates the optical
//! layer of a decoy-state BB84 link — weak coherent pulse source, lossy
//! fibre, imperfect threshold detectors — and emits
//! [`qkd_types::DetectionEvent`] streams plus ground-truth statistics, so the
//! post-processing stack is exercised on workloads whose loss and QBER match
//! real fibre spans from 0 to 200 km.
//!
//! Two interfaces are provided:
//!
//! * [`LinkSimulator`] — pulse-by-pulse Monte-Carlo simulation of the link,
//!   faithful to the detection statistics (used for end-to-end experiments and
//!   secret-key-rate curves);
//! * [`workload::CorrelatedKeySource`] — a fast generator of already-sifted
//!   correlated bit blocks with a target error rate (used by micro-benchmarks
//!   that only need reconciliation/PA inputs at scale).
//!
//! # Example
//!
//! ```
//! use qkd_simulator::{LinkConfig, LinkSimulator};
//!
//! let config = LinkConfig::metro_25km();
//! let mut sim = LinkSimulator::new(config, 7);
//! let batch = sim.run_pulses(200_000);
//! assert!(batch.events.len() > 100);
//! let qber = batch.sifted_qber();
//! assert!(qber < 0.1, "metro link QBER should be small, got {qber}");
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod channel;
pub mod detector;
pub mod link;
pub mod source;
pub mod stats;
pub mod theory;
pub mod workload;

pub use channel::ChannelConfig;
pub use detector::DetectorConfig;
pub use link::{DetectionBatch, LinkConfig, LinkSimulator};
pub use source::SourceConfig;
pub use stats::GroundTruth;
pub use theory::DecoyStateTheory;
pub use workload::{
    detection_events, CorrelatedBlock, CorrelatedKeySource, EpochArrival, FleetLinkSpec,
    FleetWorkload, WorkloadPreset,
};
