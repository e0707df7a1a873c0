//! Online calibration of the static device cost models against measured
//! stage throughput.
//!
//! The static profiles ([`DeviceKind::cost_model`]) describe *relative*
//! device behaviour — crossover structure, launch overheads, link bandwidth —
//! but their absolute constants never match a live host exactly. The
//! calibrator closes that gap from the fleet's own [`ThroughputReport`]s: for
//! each kernel kind it accumulates measured host seconds, logical items and
//! input bits, fits a measured-over-predicted scale factor against the CPU
//! profile, and applies that scale to *every* device's prediction. The
//! assumption — the published relative speedups hold while the absolute
//! constants drift with the host — is exactly the paper's, and it means one
//! cheap scalar per kernel kind turns the static profiles into live ones.
//!
//! Placement code asks [`CostCalibrator::predict`] for the calibrated cost of
//! a stage on a candidate device's model and picks the cheapest; with no
//! samples yet the scale is 1.0 and decisions fall back to the static
//! profiles, so cold-start behaviour is well defined.

use std::collections::HashMap;
use std::time::Duration;

use crate::cost::CostModel;
use crate::device::DeviceKind;
use crate::kernel::KernelKind;
use crate::profiler::{StageMetrics, ThroughputReport};

/// Pipeline stage names (as recorded in [`ThroughputReport`]s) that map onto
/// a dominating kernel kind for calibration purposes. Estimation and
/// verification stages have no kernel analogue and are skipped.
const STAGE_KERNELS: &[(&str, KernelKind)] = &[
    ("sifting", KernelKind::Sift),
    ("reconciliation", KernelKind::LdpcDecode),
    ("privacy-amplification", KernelKind::ToeplitzHash),
    ("authentication", KernelKind::PolyMac),
];

/// The kernel kind that dominates a named pipeline stage, or `None` for
/// stages with no kernel analogue (estimation, verification). Callers that
/// observe block by block — e.g. a fleet folding each distilled block's
/// measured stage times into the calibrator — use this to map stage labels
/// onto kinds the same way [`CostCalibrator::observe_report`] does.
#[must_use]
pub fn kernel_for_stage(stage: &str) -> Option<KernelKind> {
    STAGE_KERNELS
        .iter()
        .find(|(name, _)| *name == stage)
        .map(|&(_, kind)| kind)
}

/// Observed totals for one kernel kind.
#[derive(Debug, Clone, Copy, Default)]
struct Observed {
    /// Total measured host seconds.
    host_secs: f64,
    /// Logical items (blocks) those seconds covered.
    items: u64,
    /// Input bits those items carried.
    bits_in: u64,
}

/// Fits measured stage times against the CPU profile and scales every
/// device's predictions accordingly.
#[derive(Debug, Clone, Default)]
pub struct CostCalibrator {
    observed: HashMap<KernelKind, Observed>,
}

impl CostCalibrator {
    /// Minimum items per kernel kind before the fitted scale replaces the
    /// neutral 1.0 (a single block's timing is too noisy to steer placement).
    pub const MIN_SAMPLES: u64 = 4;

    /// Scale clamp bounds: measurement noise and model mismatch may be
    /// large, but a three-orders-of-magnitude correction means the model is
    /// wrong in structure, not constants, and should not be extrapolated.
    const SCALE_BOUNDS: (f64, f64) = (0.02, 50.0);

    /// A calibrator with no observations yet (every scale neutral).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one stage's accumulated metrics into the kind's observed
    /// totals. No-op when the metrics carry no items or no busy time.
    pub fn observe(&mut self, kind: KernelKind, metrics: &StageMetrics) {
        if metrics.items == 0 {
            return;
        }
        let host = metrics.host_time.as_secs_f64();
        if host <= 0.0 {
            return;
        }
        let o = self.observed.entry(kind).or_default();
        o.host_secs += host;
        o.items += metrics.items;
        o.bits_in += metrics.bits_in;
    }

    /// Folds every kernel-backed stage of a [`ThroughputReport`] into the
    /// calibrator (sifting, reconciliation, privacy amplification and
    /// authentication; estimation and verification have no kernel analogue).
    pub fn observe_report(&mut self, report: &ThroughputReport) {
        for &(stage, kind) in STAGE_KERNELS {
            if let Some(metrics) = report.stages.get(stage) {
                self.observe(kind, metrics);
            }
        }
    }

    /// Number of items observed for a kind.
    #[must_use]
    pub fn samples(&self, kind: KernelKind) -> u64 {
        self.observed.get(&kind).map_or(0, |o| o.items)
    }

    /// Measured-over-predicted scale for a kind: mean measured seconds per
    /// item divided by the CPU profile's prediction at the mean block size.
    /// Neutral (1.0) until [`Self::MIN_SAMPLES`] items have been observed;
    /// clamped so a structurally-wrong fit cannot run away.
    #[must_use]
    pub fn scale(&self, kind: KernelKind) -> f64 {
        let Some(o) = self.observed.get(&kind) else {
            return 1.0;
        };
        if o.items < Self::MIN_SAMPLES {
            return 1.0;
        }
        let measured = o.host_secs / o.items as f64;
        let mean_bits = (o.bits_in / o.items) as usize;
        let predicted = DeviceKind::Cpu
            .cost_model()
            .predict(kind, mean_bits)
            .as_secs_f64();
        if predicted <= 0.0 {
            return 1.0;
        }
        (measured / predicted).clamp(Self::SCALE_BOUNDS.0, Self::SCALE_BOUNDS.1)
    }

    /// Calibrated prediction of one `kind` invocation over `block_bits` bits
    /// on the device described by `model`: the static prediction times the
    /// fitted host scale, so relative device speedups are preserved while
    /// absolute costs track the live host.
    #[must_use]
    pub fn predict(&self, model: &CostModel, kind: KernelKind, block_bits: usize) -> Duration {
        let raw = model.predict(kind, block_bits);
        Duration::from_secs_f64(raw.as_secs_f64() * self.scale(kind))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(items: u64, host: Duration, bits: u64) -> StageMetrics {
        let mut m = StageMetrics::default();
        m.record_batch(host, host, bits as usize, bits as usize / 2, items);
        m
    }

    #[test]
    fn cold_start_is_neutral() {
        let cal = CostCalibrator::new();
        assert_eq!(cal.scale(KernelKind::LdpcDecode), 1.0);
        let gpu = DeviceKind::SimGpu.cost_model();
        assert_eq!(
            cal.predict(&gpu, KernelKind::LdpcDecode, 8192),
            gpu.predict(KernelKind::LdpcDecode, 8192)
        );
    }

    #[test]
    fn below_min_samples_stays_neutral() {
        let mut cal = CostCalibrator::new();
        cal.observe(
            KernelKind::LdpcDecode,
            &metrics(
                CostCalibrator::MIN_SAMPLES - 1,
                Duration::from_millis(50),
                8192 * 3,
            ),
        );
        assert_eq!(cal.scale(KernelKind::LdpcDecode), 1.0);
    }

    #[test]
    fn scale_tracks_measured_over_predicted() {
        let mut cal = CostCalibrator::new();
        let bits = 8192u64;
        let baseline = DeviceKind::Cpu
            .cost_model()
            .predict(KernelKind::LdpcDecode, bits as usize)
            .as_secs_f64();
        // The host measures 3× the static CPU prediction per item.
        let items = 10u64;
        let host = Duration::from_secs_f64(baseline * 3.0 * items as f64);
        cal.observe(KernelKind::LdpcDecode, &metrics(items, host, bits * items));
        let scale = cal.scale(KernelKind::LdpcDecode);
        assert!((scale - 3.0).abs() < 1e-6, "scale {scale}");
        // The GPU prediction is scaled by the same factor, so the relative
        // CPU/GPU speedup is preserved.
        let gpu = DeviceKind::SimGpu.cost_model();
        let gpu_static = gpu
            .predict(KernelKind::LdpcDecode, bits as usize)
            .as_secs_f64();
        let gpu_cal = cal
            .predict(&gpu, KernelKind::LdpcDecode, bits as usize)
            .as_secs_f64();
        assert!((gpu_cal / gpu_static - 3.0).abs() < 1e-6);
    }

    #[test]
    fn scale_is_clamped_against_runaway_fits() {
        let mut cal = CostCalibrator::new();
        cal.observe(
            KernelKind::PolyMac,
            &metrics(100, Duration::from_secs(3600), 100 * 4096),
        );
        assert!(cal.scale(KernelKind::PolyMac) <= 50.0);
    }

    /// Calibrated nanoseconds of every kernel kind on every device class at
    /// four block sizes: one row per (device, kind) in declaration order,
    /// one column per entry of `PINNED_BITS`.
    fn pricing_table(cal: &CostCalibrator) -> Vec<[u128; 4]> {
        const PINNED_BITS: [usize; 4] = [4096, 16_384, 65_536, 262_144];
        let kinds = [
            KernelKind::Sift,
            KernelKind::LdpcDecode,
            KernelKind::ToeplitzHash,
            KernelKind::PolyMac,
        ];
        let mut rows = Vec::new();
        for device in [DeviceKind::Cpu, DeviceKind::SimGpu, DeviceKind::SimFpga] {
            for kind in kinds {
                rows.push(
                    PINNED_BITS
                        .map(|bits| cal.predict(&device.cost_model(), kind, bits).as_nanos()),
                );
            }
        }
        rows
    }

    #[test]
    fn calibrated_pricing_is_pinned() {
        let cold: Vec<[u128; 4]> = vec![
            // cpu: sift, ldpc-decode, toeplitz, poly-mac
            [2248, 8392, 32968, 131272],
            [1229000, 4915400, 19661000, 78643400],
            [10440, 164040, 2621640, 41943240],
            [1053, 1053, 1053, 1053],
            // sim-gpu
            [15184, 15737, 17949, 26796],
            [35562, 97248, 343991, 1330963],
            [16106, 31712, 278455, 4214547],
            [15594, 15840, 16823, 20755],
            // sim-fpga
            [1414, 3258, 10630, 40122],
            [99309, 394835, 1576941, 6305363],
            [2541, 26195, 397293, 6305363],
            [1133, 1747, 4205, 14035],
        ];
        let mut warm_fit = CostCalibrator::new();
        for (kind, total) in [
            (KernelKind::Sift, Duration::from_micros(160)),
            (KernelKind::LdpcDecode, Duration::from_millis(20)),
            (KernelKind::ToeplitzHash, Duration::from_millis(4)),
            (KernelKind::PolyMac, Duration::from_micros(40)),
        ] {
            warm_fit.observe(kind, &metrics(8, total, 8 * 16_384));
        }
        let warm: Vec<[u128; 4]> = vec![
            [5357, 20000, 78570, 312850],
            [625076, 2500000, 9999695, 39998474],
            [31822, 500000, 7990856, 127844550],
            [5000, 5000, 5000, 5000],
            [36187, 37505, 42776, 63861],
            [18087, 49461, 174956, 676935],
            [49092, 96659, 848741, 12846095],
            [74046, 75214, 79881, 98552],
            [3370, 7765, 25334, 95620],
            [50509, 200815, 802041, 3206943],
            [7745, 79843, 1210964, 19218980],
            [5380, 8295, 19967, 66643],
        ];
        assert_eq!(pricing_table(&CostCalibrator::new()), cold);
        assert_eq!(pricing_table(&warm_fit), warm);
    }

    #[test]
    fn observe_report_maps_stage_names_onto_kernels() {
        let mut report = ThroughputReport::default();
        report.record_stage(
            "reconciliation",
            metrics(8, Duration::from_millis(40), 8 * 8192),
        );
        report.record_stage("estimation", metrics(8, Duration::from_millis(5), 8 * 8192));
        let mut cal = CostCalibrator::new();
        cal.observe_report(&report);
        assert_eq!(cal.samples(KernelKind::LdpcDecode), 8);
        // Estimation has no kernel analogue and must not contaminate others.
        assert_eq!(cal.samples(KernelKind::Sift), 0);
        assert_eq!(cal.samples(KernelKind::PolyMac), 0);
    }
}
