//! Fleet key-manager service: many QKD links over one shared worker pool,
//! delivering secret key through a consumable store.
//!
//! The engine crate (`qkd-core`) distils one session as fast as the hardware
//! allows; this crate turns that into the multi-tenant facility industrial
//! deployments actually run — several links of different channel quality
//! sharing one post-processing installation and depositing finished key into
//! a store that applications drain:
//!
//! * [`LinkManager`] — owns N concurrent links (each a full
//!   [`qkd_core::PostProcessor`] fed by its own
//!   [`qkd_simulator::CorrelatedKeySource`]), drives them over a shared,
//!   bounded worker pool in weighted-fair order, accounts each batch's modeled
//!   time on the backend the online-calibrated cost models predict cheapest
//!   ([`qkd_hetero::decide_placement`]) next to the host time the engine
//!   measured, and applies per-link backlog admission control to bursty
//!   epoch arrivals. The pool's `workers` is the one bound on distillation
//!   threads: a worker serves one link batch at a time, so the fleet's
//!   parallelism is across links;
//! * [`KeyStore`] — ETSI GS QKD 014-shaped delivery: `status(link)` and
//!   `get_key(link, n_bits)` with [`KeyId`]-tagged keys, strict
//!   deliver-at-most-once draining and a ledger reconciled bit-for-bit
//!   against the engines' [`qkd_core::SessionSummary`] accounting;
//! * [`FleetReport`] / [`FleetLedger`] — fleet observability: per-link and
//!   merged session summaries, merged stage throughput, aggregate output
//!   rate and Jain fairness indices.
//!
//! **Determinism across tenancy.** A link processed inside a fleet yields
//! *bit-identical* keys to the same spec replayed on a solo engine with the
//! same seed, regardless of worker count, neighbour links or arrival order —
//! see the invariant discussion on [`manager`].
//!
//! # Example
//!
//! ```
//! use qkd_manager::{FleetConfig, LinkManager, LinkSpec};
//! use qkd_simulator::WorkloadPreset;
//!
//! let mut fleet = LinkManager::new(FleetConfig::default().with_workers(2)).unwrap();
//! let metro = fleet
//!     .add_link(LinkSpec::from_preset(WorkloadPreset::Metro, 4096, 1))
//!     .unwrap();
//! fleet.submit_epoch(metro, 2).unwrap();
//! let report = fleet.run().unwrap();
//! assert!(report.total_secret_bits() > 0);
//!
//! let status = fleet.store().status(metro).unwrap();
//! let key = fleet.store().get_key(metro, 128).unwrap();
//! assert_eq!(key.len(), 128);
//! assert!(status.balances());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod manager;
pub mod report;
mod sched;
pub mod spec;
pub mod store;

pub use manager::LinkManager;
pub use report::{jain_index, FleetLedger, FleetReport, LinkLedger, LinkReport};
pub use spec::{Admission, AdmissionPolicy, FleetConfig, LinkSpec};
pub use store::{DeliveredKey, KeyId, KeyStatus, KeyStore, RecoveredBudget};
