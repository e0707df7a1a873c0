//! Umbrella crate for the QKD post-processing reproduction.
//!
//! Re-exports every workspace crate under one name so examples, integration
//! tests and downstream users can depend on a single `qkd` crate:
//!
//! * [`types`] — bit strings, key containers, framing, GF(2) helpers;
//! * [`simulator`] — decoy-state BB84 link simulator and workload generators;
//! * [`sifting`] — basis sifting, QBER estimation, decoy-state bounds;
//! * [`cascade`] — interactive Cascade reconciliation (baseline);
//! * [`ldpc`] — rate-adaptive LDPC syndrome reconciliation;
//! * [`privacy`] — Toeplitz privacy amplification and finite-key analysis;
//! * [`auth`] — Wegman–Carter authentication and key-consumption ledger;
//! * [`hetero`] — heterogeneous devices, cost models, calibration, placement;
//! * [`core`] — the end-to-end post-processing engine;
//! * [`manager`] — the fleet key-manager service: many links over a shared
//!   worker pool, with a key-store delivery API;
//! * [`journal`] — the store's durability tier: append-only checksummed
//!   write-ahead log, group-commit fsync, compaction and crash recovery;
//! * [`api`] — the ETSI GS QKD 014-shaped networked key-delivery front-end
//!   (HTTP server, SAE registry, client).
//!
//! # Quickstart
//!
//! ```
//! use qkd::core::{PostProcessingConfig, PostProcessor};
//! use qkd::simulator::{CorrelatedKeySource, WorkloadPreset};
//!
//! let mut processor = PostProcessor::new(PostProcessingConfig::for_block_size(4096), 1).unwrap();
//! let mut source = CorrelatedKeySource::from_preset(WorkloadPreset::Metro, 4096, 2).unwrap();
//! let block = source.next_block();
//! let result = processor.process_sifted_block(&block.alice, &block.bob).unwrap();
//! println!("distilled {} secret bits", result.secret_key.len());
//! ```

#![warn(missing_docs)]

pub use qkd_api as api;
pub use qkd_auth as auth;
pub use qkd_cascade as cascade;
pub use qkd_core as core;
pub use qkd_hetero as hetero;
pub use qkd_journal as journal;
pub use qkd_ldpc as ldpc;
pub use qkd_manager as manager;
pub use qkd_privacy as privacy;
pub use qkd_sifting as sifting;
pub use qkd_simulator as simulator;
pub use qkd_types as types;
