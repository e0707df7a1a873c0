//! Kernel placement: where a link's offloadable kernels would be cheapest,
//! and what they would cost there.
//!
//! The engine always executes on the host and reports host-measured stage
//! times. Placement is accounting over those measurements: the
//! online-calibrated cost models ([`CostCalibrator`]) price the two kernels
//! an accelerator could take — the LDPC decode and the Toeplitz privacy
//! amplification — on every device class, [`decide_placement`] picks the
//! cheapest split, and [`modeled_time`] turns one measured stage time into
//! the time the stage would have taken under that split. Both read the same
//! calibrated prediction, so the decision and the ledger cannot disagree.

use std::time::Duration;

use serde::{Deserialize, Serialize};

use crate::calibrate::CostCalibrator;
use crate::cost::CostModel;
use crate::device::DeviceKind;
use crate::kernel::KernelKind;

/// Where a link's offloadable kernels are placed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LinkPlacement {
    /// All stages on the host CPU.
    Cpu,
    /// Whole link (decode and privacy amplification) on the given
    /// accelerator.
    Whole(DeviceKind),
    /// Only the LDPC decode stage on the given accelerator (the paper's
    /// "decoder on the device, everything else on the host" split).
    DecodeOnly(DeviceKind),
}

impl LinkPlacement {
    /// Short label for reports and metrics (`cpu`, `whole:sim-gpu`,
    /// `decode:sim-fpga`, …).
    pub fn label(&self) -> String {
        match self {
            LinkPlacement::Cpu => "cpu".to_string(),
            LinkPlacement::Whole(d) => format!("whole:{}", d.name()),
            LinkPlacement::DecodeOnly(d) => format!("decode:{}", d.name()),
        }
    }

    /// The device this placement runs `kind` on. Only the decode and the
    /// hash ever leave the host.
    fn device_for(&self, kind: KernelKind) -> DeviceKind {
        match (self, kind) {
            (LinkPlacement::Whole(d), KernelKind::LdpcDecode | KernelKind::ToeplitzHash)
            | (LinkPlacement::DecodeOnly(d), KernelKind::LdpcDecode) => *d,
            _ => DeviceKind::Cpu,
        }
    }
}

/// Picks the cheapest placement for a link's offloadable kernels.
///
/// The comparison covers the LDPC decode and the Toeplitz hash: host for
/// both, a whole-link accelerator for both, or the decode alone offloaded
/// with the hash left on the host. Predictions come from the calibrated
/// models, so the absolute costs track the live host once the calibrator has
/// samples. Ties keep the simpler option (host first, decode-only before
/// whole-link).
pub fn decide_placement(calibrator: &CostCalibrator, block_bits: usize) -> LinkPlacement {
    let cost = |model: &CostModel, kind| calibrator.predict(model, kind, block_bits).as_secs_f64();
    let cpu = DeviceKind::Cpu.cost_model();
    let decode_cpu = cost(&cpu, KernelKind::LdpcDecode);
    let hash_cpu = cost(&cpu, KernelKind::ToeplitzHash);
    let mut best = (LinkPlacement::Cpu, decode_cpu + hash_cpu);
    for device in [DeviceKind::SimGpu, DeviceKind::SimFpga] {
        let model = device.cost_model();
        let decode = cost(&model, KernelKind::LdpcDecode);
        let hash = cost(&model, KernelKind::ToeplitzHash);
        for (candidate, total) in [
            (LinkPlacement::DecodeOnly(device), decode + hash_cpu),
            (LinkPlacement::Whole(device), decode + hash),
        ] {
            if total < best.1 {
                best = (candidate, total);
            }
        }
    }
    best.0
}

/// Modeled time of one `kind` invocation over `block_bits` bits that took
/// `host` on the host, had it run where `placement` puts it: the measured
/// time for kernels left on the CPU, the calibrated prediction
/// [`decide_placement`] compared for kernels on an accelerator.
pub fn modeled_time(
    calibrator: &CostCalibrator,
    placement: LinkPlacement,
    kind: KernelKind,
    block_bits: usize,
    host: Duration,
) -> Duration {
    match placement.device_for(kind) {
        DeviceKind::Cpu => host,
        device => calibrator.predict(&device.cost_model(), kind, block_bits),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler::StageMetrics;

    #[test]
    fn cost_model_places_large_blocks_on_the_gpu() {
        let cal = CostCalibrator::new();
        let p = decide_placement(&cal, 8192);
        assert_eq!(p, LinkPlacement::Whole(DeviceKind::SimGpu));
        assert_eq!(p.label(), "whole:sim-gpu");
    }

    #[test]
    fn calibration_scales_cannot_invert_same_kind_comparisons() {
        // The calibrator multiplies every device's prediction of a kind by
        // the same fitted scale, so whichever device wins the decode
        // statically keeps winning after calibration.
        let mut cal = CostCalibrator::new();
        let mut m = StageMetrics::default();
        m.record_batch(
            Duration::from_millis(400),
            Duration::from_millis(400),
            8 * 8192,
            8 * 8192,
            8,
        );
        cal.observe(KernelKind::LdpcDecode, &m);
        assert!(cal.scale(KernelKind::LdpcDecode) > 1.0);
        assert_eq!(
            decide_placement(&cal, 8192),
            LinkPlacement::Whole(DeviceKind::SimGpu)
        );
    }

    #[test]
    fn modeled_time_is_the_decisions_prediction_for_offloaded_kernels_only() {
        let cal = CostCalibrator::new();
        let host = Duration::from_millis(3);
        let gpu = DeviceKind::SimGpu.cost_model();
        let decode_only = LinkPlacement::DecodeOnly(DeviceKind::SimGpu);
        assert_eq!(
            modeled_time(&cal, decode_only, KernelKind::LdpcDecode, 8192, host),
            cal.predict(&gpu, KernelKind::LdpcDecode, 8192)
        );
        assert_eq!(
            modeled_time(&cal, decode_only, KernelKind::ToeplitzHash, 8192, host),
            host
        );
        let whole = LinkPlacement::Whole(DeviceKind::SimGpu);
        assert_eq!(
            modeled_time(&cal, whole, KernelKind::ToeplitzHash, 8192, host),
            cal.predict(&gpu, KernelKind::ToeplitzHash, 8192)
        );
        // Sifting and authentication never leave the host.
        assert_eq!(
            modeled_time(&cal, whole, KernelKind::Sift, 8192, host),
            host
        );
        for kind in KernelKind::ALL {
            assert_eq!(
                modeled_time(&cal, LinkPlacement::Cpu, kind, 8192, host),
                host
            );
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Whatever the block size and however the host measured the
            /// decode and the hash, the decision costs no more than any
            /// placement the fleet could pick, priced the way the ledger
            /// prices it: host-side kernels at the calibrated CPU
            /// prediction, offloaded ones through `modeled_time`.
            /// `decode` and `hash` are (items, µs per item, bits per item).
            #[test]
            fn decision_is_the_cheapest_candidate_under_modeled_time(
                block_bits in 64usize..(1 << 22),
                decode in (CostCalibrator::MIN_SAMPLES..64, 1u64..100_000, 64u64..(1 << 22)),
                hash in (CostCalibrator::MIN_SAMPLES..64, 1u64..100_000, 64u64..(1 << 22)),
            ) {
                let mut cal = CostCalibrator::new();
                for (kind, (items, micros, bits)) in [
                    (KernelKind::LdpcDecode, decode),
                    (KernelKind::ToeplitzHash, hash),
                ] {
                    let host = Duration::from_micros(micros * items);
                    let mut m = StageMetrics::default();
                    m.record_batch(host, host, (bits * items) as usize, 0, items);
                    cal.observe(kind, &m);
                }
                let cpu = DeviceKind::Cpu.cost_model();
                let cost = |placement| -> Duration {
                    [KernelKind::LdpcDecode, KernelKind::ToeplitzHash]
                        .into_iter()
                        .map(|kind| {
                            let host = cal.predict(&cpu, kind, block_bits);
                            modeled_time(&cal, placement, kind, block_bits, host)
                        })
                        .sum()
                };
                let decision = decide_placement(&cal, block_bits);
                for candidate in [
                    LinkPlacement::Cpu,
                    LinkPlacement::DecodeOnly(DeviceKind::SimGpu),
                    LinkPlacement::DecodeOnly(DeviceKind::SimFpga),
                    LinkPlacement::Whole(DeviceKind::SimGpu),
                    LinkPlacement::Whole(DeviceKind::SimFpga),
                ] {
                    prop_assert!(
                        cost(decision) <= cost(candidate),
                        "{} beats the decision {}",
                        candidate.label(),
                        decision.label()
                    );
                }
            }
        }
    }
}
