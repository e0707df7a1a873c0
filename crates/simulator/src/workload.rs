//! Fast correlated-key workload generation for benchmarks.
//!
//! The Monte-Carlo [`crate::LinkSimulator`] is faithful but slow when a
//! benchmark only needs "a pair of 1 Mbit sifted keys differing in 2% of
//! positions". [`CorrelatedKeySource`] produces exactly that: Alice's block is
//! uniform, Bob's block is Alice's with i.i.d. bit flips at the target QBER,
//! which is the post-sifting error model of a depolarising BB84 channel.

use rand::Rng;
use serde::{Deserialize, Serialize};

use qkd_types::rng::derive_block_rng;
use qkd_types::{Basis, BitValue, BitVec, BlockId, DetectionEvent, PulseClass, QkdError, Result};

/// Expands a correlated bit pair into an all-signal, bases-matched detection
/// stream, so sifting retains exactly these bits. This bridges the fast
/// workload generators to the engine's detection-batch entry points — used by
/// benchmarks and the batch-width equivalence tests.
///
/// # Panics
///
/// Panics if the two bit strings differ in length.
pub fn detection_events(alice: &BitVec, bob: &BitVec) -> Vec<DetectionEvent> {
    assert_eq!(
        alice.len(),
        bob.len(),
        "correlated halves must have equal length"
    );
    (0..alice.len())
        .map(|i| DetectionEvent {
            pulse_index: i as u64,
            pulse_class: PulseClass::Signal,
            alice_basis: Basis::Rectilinear,
            alice_bit: BitValue::from_bool(alice.get(i)),
            bob_basis: Basis::Rectilinear,
            bob_bit: BitValue::from_bool(bob.get(i)),
            dark_count: false,
            double_click: false,
        })
        .collect()
}

/// Named workload presets mirroring the link distances used in the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WorkloadPreset {
    /// Short metro link: QBER ≈ 1%, high raw rate.
    Metro,
    /// Regional backbone: QBER ≈ 2.5%.
    Backbone,
    /// Long haul: QBER ≈ 4.5%.
    LongHaul,
    /// Stressed link near the abort threshold: QBER ≈ 8%.
    Stressed,
}

impl WorkloadPreset {
    /// All presets in increasing-QBER order.
    pub const ALL: [WorkloadPreset; 4] = [
        WorkloadPreset::Metro,
        WorkloadPreset::Backbone,
        WorkloadPreset::LongHaul,
        WorkloadPreset::Stressed,
    ];

    /// The target QBER of the preset.
    pub fn qber(self) -> f64 {
        match self {
            WorkloadPreset::Metro => 0.01,
            WorkloadPreset::Backbone => 0.025,
            WorkloadPreset::LongHaul => 0.045,
            WorkloadPreset::Stressed => 0.08,
        }
    }

    /// A short human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            WorkloadPreset::Metro => "metro",
            WorkloadPreset::Backbone => "backbone",
            WorkloadPreset::LongHaul => "long-haul",
            WorkloadPreset::Stressed => "stressed",
        }
    }
}

/// A pair of correlated sifted-key blocks (Alice's and Bob's view).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CorrelatedBlock {
    /// Block identity.
    pub id: BlockId,
    /// Alice's sifted bits.
    pub alice: BitVec,
    /// Bob's sifted bits (Alice's with channel errors applied).
    pub bob: BitVec,
    /// Number of flipped positions (ground truth).
    pub true_errors: usize,
    /// The QBER the block was generated at.
    pub target_qber: f64,
}

impl CorrelatedBlock {
    /// Block length in bits.
    pub fn len(&self) -> usize {
        self.alice.len()
    }

    /// Returns `true` when the block is empty.
    pub fn is_empty(&self) -> bool {
        self.alice.is_empty()
    }

    /// The realised error rate of the block.
    pub fn actual_qber(&self) -> f64 {
        if self.alice.is_empty() {
            0.0
        } else {
            self.true_errors as f64 / self.alice.len() as f64
        }
    }
}

/// Generator of correlated sifted-key blocks at a fixed target QBER.
#[derive(Debug, Clone)]
pub struct CorrelatedKeySource {
    block_bits: usize,
    qber: f64,
    seed: u64,
    next_sequence: u64,
    epoch: u64,
}

impl CorrelatedKeySource {
    /// Creates a source of `block_bits`-bit blocks at `qber`.
    ///
    /// # Errors
    ///
    /// Returns [`QkdError::InvalidParameter`] when `block_bits` is zero or
    /// `qber` is outside `[0, 0.5)`.
    pub fn new(block_bits: usize, qber: f64, seed: u64) -> Result<Self> {
        if block_bits == 0 {
            return Err(QkdError::invalid_parameter(
                "block_bits",
                "must be positive",
            ));
        }
        if !(0.0..0.5).contains(&qber) {
            return Err(QkdError::invalid_parameter("qber", "must lie in [0, 0.5)"));
        }
        Ok(Self {
            block_bits,
            qber,
            seed,
            next_sequence: 0,
            epoch: 0,
        })
    }

    /// Creates a source from a named preset.
    ///
    /// # Errors
    ///
    /// Returns [`QkdError::InvalidParameter`] when `block_bits` is zero.
    pub fn from_preset(preset: WorkloadPreset, block_bits: usize, seed: u64) -> Result<Self> {
        Self::new(block_bits, preset.qber(), seed)
    }

    /// The block size in bits.
    pub fn block_bits(&self) -> usize {
        self.block_bits
    }

    /// The target QBER.
    pub fn qber(&self) -> f64 {
        self.qber
    }

    /// Advances to the next epoch (resets the sequence counter).
    pub fn next_epoch(&mut self) {
        self.epoch += 1;
        self.next_sequence = 0;
    }

    /// Generates the next correlated block.
    pub fn next_block(&mut self) -> CorrelatedBlock {
        let id = BlockId::new(self.epoch, self.next_sequence);
        self.next_sequence += 1;
        let mut rng = derive_block_rng(self.seed, "correlated-key", id.as_u64());
        let alice = BitVec::random(&mut rng, self.block_bits);
        let mut bob = alice.clone();
        let mut true_errors = 0usize;
        for i in 0..self.block_bits {
            if rng.gen_bool(self.qber) {
                bob.flip(i);
                true_errors += 1;
            }
        }
        CorrelatedBlock {
            id,
            alice,
            bob,
            true_errors,
            target_qber: self.qber,
        }
    }

    /// Generates `count` blocks.
    pub fn blocks(&mut self, count: usize) -> Vec<CorrelatedBlock> {
        (0..count).map(|_| self.next_block()).collect()
    }
}

/// One link of a [`FleetWorkload`]: a named channel quality plus the block
/// size and the seed every generator for this link derives from. The seed is
/// the whole identity of the link's key stream — a solo
/// [`CorrelatedKeySource`] built from the same spec reproduces the exact bits
/// a fleet run feeds this link.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FleetLinkSpec {
    /// Index of the link within the fleet.
    pub link: usize,
    /// Channel-quality preset of the link.
    pub preset: WorkloadPreset,
    /// Sifted-key block size in bits.
    pub block_bits: usize,
    /// Master seed of the link (key material and engine randomness).
    pub seed: u64,
}

impl FleetLinkSpec {
    /// A correlated key source reproducing this link's sifted-bit stream.
    ///
    /// # Errors
    ///
    /// Returns [`QkdError::InvalidParameter`] when `block_bits` is zero.
    pub fn key_source(&self) -> Result<CorrelatedKeySource> {
        CorrelatedKeySource::new(self.block_bits, self.preset.qber(), self.seed)
    }
}

/// One epoch's worth of raw-key arrival on one link: `blocks` full sifted
/// blocks became available for post-processing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EpochArrival {
    /// Epoch index (arrival order is epoch-major, link-minor).
    pub epoch: usize,
    /// Link the raw key arrived on.
    pub link: usize,
    /// Number of full blocks that arrived (zero models an idle epoch).
    pub blocks: usize,
}

/// A multi-link workload: a fleet of QKD links with mixed channel qualities
/// plus a deterministic, bursty epoch-arrival process.
///
/// This is the traffic model behind the fleet key-manager service: several
/// links of different QBER deposit raw key in epochs, with per-epoch volumes
/// that swing between idle and burst so schedulers and admission control have
/// something to push against. Everything is derived from one seed, so a fleet
/// run and a per-link solo replay see identical bits.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetWorkload {
    specs: Vec<FleetLinkSpec>,
    seed: u64,
}

impl FleetWorkload {
    /// A fleet of `links` links cycling through every [`WorkloadPreset`] in
    /// increasing-QBER order (metro, backbone, long-haul, stressed, metro, …),
    /// all at the same block size. Per-link seeds are derived from `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`QkdError::InvalidParameter`] when `links` or `block_bits` is
    /// zero.
    pub fn mixed(links: usize, block_bits: usize, seed: u64) -> Result<Self> {
        if links == 0 {
            return Err(QkdError::invalid_parameter(
                "links",
                "a fleet needs at least one link",
            ));
        }
        if block_bits == 0 {
            return Err(QkdError::invalid_parameter(
                "block_bits",
                "must be positive",
            ));
        }
        let specs = (0..links)
            .map(|link| FleetLinkSpec {
                link,
                preset: WorkloadPreset::ALL[link % WorkloadPreset::ALL.len()],
                block_bits,
                seed: derive_block_rng(seed, "fleet-link", link as u64).gen(),
            })
            .collect();
        Ok(Self { specs, seed })
    }

    /// A fleet where every link uses the same preset.
    ///
    /// # Errors
    ///
    /// Returns [`QkdError::InvalidParameter`] when `links` or `block_bits` is
    /// zero.
    pub fn uniform(
        preset: WorkloadPreset,
        links: usize,
        block_bits: usize,
        seed: u64,
    ) -> Result<Self> {
        let mut workload = Self::mixed(links, block_bits, seed)?;
        for spec in &mut workload.specs {
            spec.preset = preset;
        }
        Ok(workload)
    }

    /// The per-link specs, indexed by link id.
    pub fn specs(&self) -> &[FleetLinkSpec] {
        &self.specs
    }

    /// Number of links in the fleet.
    pub fn num_links(&self) -> usize {
        self.specs.len()
    }

    /// A deterministic bursty arrival schedule: for each of `epochs` epochs
    /// and each link, the link is idle (~20% of epochs), delivers a regular
    /// batch of `1..=mean_blocks` blocks (~65%), or bursts with
    /// `mean_blocks+1..=3*mean_blocks` blocks (~15%). Arrivals are ordered
    /// epoch-major then link-minor — the order a fleet manager should submit
    /// them in.
    ///
    /// The schedule depends only on the workload seed and the shape
    /// parameters, so repeated calls (and solo replays) agree.
    pub fn bursty_arrivals(&self, epochs: usize, mean_blocks: usize) -> Vec<EpochArrival> {
        let mean = mean_blocks.max(1);
        let mut rng = crate::workload::derive_arrival_rng(self.seed);
        let mut arrivals = Vec::with_capacity(epochs * self.specs.len());
        for epoch in 0..epochs {
            for link in 0..self.specs.len() {
                let draw: f64 = rng.gen_range(0.0..1.0);
                let blocks = if draw < 0.20 {
                    0
                } else if draw < 0.85 {
                    rng.gen_range(1..=mean)
                } else {
                    rng.gen_range(mean + 1..=3 * mean)
                };
                arrivals.push(EpochArrival {
                    epoch,
                    link,
                    blocks,
                });
            }
        }
        arrivals
    }
}

/// RNG stream of the fleet arrival process (separate from any key stream).
fn derive_arrival_rng(seed: u64) -> rand::rngs::StdRng {
    qkd_types::rng::derive_rng(seed, "fleet-arrivals")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detection_events_round_trip_through_sifting_unchanged() {
        let mut src = CorrelatedKeySource::new(512, 0.05, 3).unwrap();
        let blk = src.next_block();
        let events = detection_events(&blk.alice, &blk.bob);
        assert_eq!(events.len(), 512);
        for (i, ev) in events.iter().enumerate() {
            assert!(ev.bases_match());
            assert_eq!(ev.pulse_class, PulseClass::Signal);
            assert_eq!(ev.alice_bit.to_bool(), blk.alice.get(i));
            assert_eq!(ev.bob_bit.to_bool(), blk.bob.get(i));
            assert!(!ev.dark_count && !ev.double_click);
        }
    }

    #[test]
    fn presets_are_ordered_by_qber() {
        let qbers: Vec<f64> = WorkloadPreset::ALL.iter().map(|p| p.qber()).collect();
        for w in qbers.windows(2) {
            assert!(w[0] < w[1]);
        }
        assert_eq!(WorkloadPreset::Metro.label(), "metro");
    }

    #[test]
    fn rejects_invalid_parameters() {
        assert!(CorrelatedKeySource::new(0, 0.02, 1).is_err());
        assert!(CorrelatedKeySource::new(1024, 0.5, 1).is_err());
        assert!(CorrelatedKeySource::new(1024, -0.1, 1).is_err());
    }

    #[test]
    fn block_error_rate_is_near_target() {
        let mut src = CorrelatedKeySource::new(100_000, 0.03, 7).unwrap();
        let blk = src.next_block();
        assert_eq!(blk.len(), 100_000);
        assert_eq!(blk.alice.hamming_distance(&blk.bob), blk.true_errors);
        assert!(
            (blk.actual_qber() - 0.03).abs() < 0.005,
            "qber {}",
            blk.actual_qber()
        );
    }

    #[test]
    fn zero_qber_blocks_are_identical() {
        let mut src = CorrelatedKeySource::new(4096, 0.0, 3).unwrap();
        let blk = src.next_block();
        assert_eq!(blk.alice, blk.bob);
        assert_eq!(blk.true_errors, 0);
    }

    #[test]
    fn blocks_are_deterministic_per_seed_and_id() {
        let mut a = CorrelatedKeySource::new(2048, 0.02, 11).unwrap();
        let mut b = CorrelatedKeySource::new(2048, 0.02, 11).unwrap();
        assert_eq!(a.next_block(), b.next_block());
        assert_eq!(a.next_block().id, BlockId::new(0, 1));
        let mut c = CorrelatedKeySource::new(2048, 0.02, 12).unwrap();
        assert_ne!(b.next_block().alice, c.next_block().alice);
    }

    #[test]
    fn epochs_reset_sequence_numbers() {
        let mut src = CorrelatedKeySource::new(64, 0.01, 1).unwrap();
        let _ = src.next_block();
        src.next_epoch();
        let blk = src.next_block();
        assert_eq!(blk.id, BlockId::new(1, 0));
    }

    #[test]
    fn fleet_workload_cycles_presets_and_derives_distinct_seeds() {
        let fleet = FleetWorkload::mixed(6, 2048, 7).unwrap();
        assert_eq!(fleet.num_links(), 6);
        assert_eq!(fleet.specs()[0].preset, WorkloadPreset::Metro);
        assert_eq!(fleet.specs()[3].preset, WorkloadPreset::Stressed);
        assert_eq!(fleet.specs()[4].preset, WorkloadPreset::Metro);
        let seeds: std::collections::HashSet<u64> = fleet.specs().iter().map(|s| s.seed).collect();
        assert_eq!(seeds.len(), 6, "per-link seeds must be distinct");
        for (i, spec) in fleet.specs().iter().enumerate() {
            assert_eq!(spec.link, i);
            assert_eq!(spec.block_bits, 2048);
        }
        let uniform = FleetWorkload::uniform(WorkloadPreset::Backbone, 3, 2048, 7).unwrap();
        assert!(uniform
            .specs()
            .iter()
            .all(|s| s.preset == WorkloadPreset::Backbone));
        assert!(FleetWorkload::mixed(0, 2048, 7).is_err());
        assert!(FleetWorkload::mixed(2, 0, 7).is_err());
    }

    #[test]
    fn fleet_link_spec_reproduces_the_key_stream() {
        let fleet = FleetWorkload::mixed(2, 1024, 11).unwrap();
        let spec = fleet.specs()[1];
        let a = spec.key_source().unwrap().next_block();
        let b = spec.key_source().unwrap().next_block();
        assert_eq!(a, b);
        assert_eq!(a.target_qber, spec.preset.qber());
    }

    #[test]
    fn bursty_arrivals_are_deterministic_ordered_and_bursty() {
        let fleet = FleetWorkload::mixed(4, 1024, 13).unwrap();
        let a = fleet.bursty_arrivals(50, 2);
        let b = fleet.bursty_arrivals(50, 2);
        assert_eq!(a, b, "arrival schedule must be reproducible");
        assert_eq!(a.len(), 200);
        // Epoch-major, link-minor ordering.
        for (i, arr) in a.iter().enumerate() {
            assert_eq!(arr.epoch, i / 4);
            assert_eq!(arr.link, i % 4);
            assert!(arr.blocks <= 6, "burst cap is 3x the mean");
        }
        // Over 200 draws all three regimes should appear.
        assert!(a.iter().any(|x| x.blocks == 0), "some epochs are idle");
        assert!(
            a.iter().any(|x| x.blocks > 2),
            "some epochs burst past the mean"
        );
        assert!(a.iter().any(|x| (1..=2).contains(&x.blocks)));
    }

    #[test]
    fn generates_requested_number_of_blocks() {
        let mut src = CorrelatedKeySource::from_preset(WorkloadPreset::Backbone, 512, 5).unwrap();
        let blocks = src.blocks(10);
        assert_eq!(blocks.len(), 10);
        assert!(blocks
            .iter()
            .all(|b| b.target_qber == WorkloadPreset::Backbone.qber()));
    }
}
