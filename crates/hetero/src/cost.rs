//! Analytic device cost models.
//!
//! A cost model predicts the latency of one kernel launch on a device as
//!
//! ```text
//! T = launch_overhead
//!   + input_bits  / h2d_bandwidth
//!   + output_bits / d2h_bandwidth
//!   + work_units  / kernel_throughput(kind)
//! ```
//!
//! The constants for the simulated GPU and FPGA are drawn from published
//! figures for PCIe-attached accelerators running LDPC decoding and Toeplitz
//! hashing; their absolute values matter less than the *structure* (large
//! fixed overhead + very high asymptotic throughput for the GPU, negligible
//! overhead + deterministic line-rate for the FPGA), which is what produces
//! the crossovers the evaluation reproduces.

use std::collections::HashMap;
use std::time::Duration;

use serde::{Deserialize, Serialize};

use crate::kernel::{KernelKind, KernelTask};

/// Analytic latency model of a device.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Fixed per-launch overhead (kernel launch, DMA setup, PCIe round trip).
    pub launch_overhead: Duration,
    /// Host→device bandwidth in bits per second.
    pub h2d_bits_per_sec: f64,
    /// Device→host bandwidth in bits per second.
    pub d2h_bits_per_sec: f64,
    /// Sustained work-unit throughput per kernel kind (work units per second).
    pub kernel_throughput: HashMap<KernelKindKey, f64>,
    /// Fraction of the launch overhead charged per task when tasks are
    /// batched (1.0 = no batching benefit, 1/B for batches of B).
    pub batching_discount: f64,
}

/// Hashable/serialisable key for [`KernelKind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, PartialOrd, Ord)]
pub enum KernelKindKey {
    /// Sifting.
    Sift,
    /// Syndrome computation.
    Syndrome,
    /// LDPC decoding.
    LdpcDecode,
    /// Toeplitz hashing.
    ToeplitzHash,
    /// Polynomial MAC.
    PolyMac,
}

impl From<KernelKind> for KernelKindKey {
    fn from(k: KernelKind) -> Self {
        match k {
            KernelKind::Sift => KernelKindKey::Sift,
            KernelKind::Syndrome => KernelKindKey::Syndrome,
            KernelKind::LdpcDecode => KernelKindKey::LdpcDecode,
            KernelKind::ToeplitzHash => KernelKindKey::ToeplitzHash,
            KernelKind::PolyMac => KernelKindKey::PolyMac,
        }
    }
}

impl CostModel {
    /// Cost model of a discrete GPU attached over PCIe 3.0 x16.
    ///
    /// Characteristics: ~15 µs launch + transfer setup, ~100 Gbit/s effective
    /// transfer, very high parallel throughput on data-parallel kernels.
    pub fn sim_gpu() -> Self {
        let mut kernel_throughput = HashMap::new();
        kernel_throughput.insert(KernelKindKey::Sift, 4.0e10);
        kernel_throughput.insert(KernelKindKey::Syndrome, 2.0e10);
        kernel_throughput.insert(KernelKindKey::LdpcDecode, 1.2e10);
        kernel_throughput.insert(KernelKindKey::ToeplitzHash, 6.0e9);
        kernel_throughput.insert(KernelKindKey::PolyMac, 5.0e8);
        Self {
            launch_overhead: Duration::from_micros(15),
            h2d_bits_per_sec: 1.0e11,
            d2h_bits_per_sec: 1.0e11,
            kernel_throughput,
            batching_discount: 1.0,
        }
    }

    /// Cost model of an FPGA streaming implementation (line-rate pipeline,
    /// negligible launch cost, deterministic latency).
    pub fn sim_fpga() -> Self {
        let mut kernel_throughput = HashMap::new();
        kernel_throughput.insert(KernelKindKey::Sift, 1.0e10);
        kernel_throughput.insert(KernelKindKey::Syndrome, 8.0e9);
        kernel_throughput.insert(KernelKindKey::LdpcDecode, 2.5e9);
        kernel_throughput.insert(KernelKindKey::ToeplitzHash, 4.0e9);
        kernel_throughput.insert(KernelKindKey::PolyMac, 2.0e9);
        Self {
            launch_overhead: Duration::from_nanos(800),
            h2d_bits_per_sec: 4.0e10,
            d2h_bits_per_sec: 4.0e10,
            kernel_throughput,
            batching_discount: 1.0,
        }
    }

    /// Cost model of one CPU core running the reference kernels (the
    /// baseline calibration fits against; the [`crate::CpuDevice`] reports
    /// measured time when it actually executes).
    pub fn cpu_core() -> Self {
        let mut kernel_throughput = HashMap::new();
        kernel_throughput.insert(KernelKindKey::Sift, 2.0e9);
        kernel_throughput.insert(KernelKindKey::Syndrome, 1.5e9);
        kernel_throughput.insert(KernelKindKey::LdpcDecode, 2.0e8);
        kernel_throughput.insert(KernelKindKey::ToeplitzHash, 6.0e8);
        kernel_throughput.insert(KernelKindKey::PolyMac, 3.0e8);
        Self {
            launch_overhead: Duration::from_nanos(200),
            h2d_bits_per_sec: f64::INFINITY,
            d2h_bits_per_sec: f64::INFINITY,
            kernel_throughput,
            batching_discount: 1.0,
        }
    }

    /// Applies a batching factor: the launch overhead is amortised across
    /// `batch` tasks submitted together.
    pub fn with_batching(mut self, batch: usize) -> Self {
        self.batching_discount = 1.0 / batch.max(1) as f64;
        self
    }

    /// Predicted latency of one task under this model.
    pub fn predict(&self, task: &KernelTask) -> Duration {
        self.predict_raw(
            task.kind(),
            task.input_bits(),
            task.output_bits(),
            task.work_units(),
        )
    }

    /// Predicted latency from raw workload descriptors (used by placement,
    /// which prices a stage without materialising its task).
    pub fn predict_raw(
        &self,
        kind: KernelKind,
        input_bits: usize,
        output_bits: usize,
        work_units: f64,
    ) -> Duration {
        let launch = self.launch_overhead.as_secs_f64() * self.batching_discount;
        let h2d = if self.h2d_bits_per_sec.is_finite() {
            input_bits as f64 / self.h2d_bits_per_sec
        } else {
            0.0
        };
        let d2h = if self.d2h_bits_per_sec.is_finite() {
            output_bits as f64 / self.d2h_bits_per_sec
        } else {
            0.0
        };
        let throughput = self
            .kernel_throughput
            .get(&kind.into())
            .copied()
            .unwrap_or(1.0e8);
        let compute = work_units / throughput;
        Duration::from_secs_f64(launch + h2d + d2h + compute)
    }
}

/// Abstract work units of one planned kernel invocation over a block of
/// `block_bits` bits — the planning-time analogue of
/// [`crate::KernelTask::work_units`], which cost calibration and placement
/// price a stage by.
pub fn planned_work_units(kind: KernelKind, block_bits: usize) -> f64 {
    let bits = block_bits as f64;
    match kind {
        KernelKind::Sift => bits,
        KernelKind::Syndrome => bits * 3.0,
        // ~3 edges/bit × ~20 decoder iterations.
        KernelKind::LdpcDecode => bits * 3.0 * 20.0,
        // Word-packed Toeplitz: (rows/64) × (cols/64) word multiplies.
        KernelKind::ToeplitzHash => (bits / 64.0) * (bits * 1.5 / 64.0),
        // Fixed-size polynomial MAC over the tag field.
        KernelKind::PolyMac => 256.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qkd_types::BitVec;

    fn sift_task(bits: usize) -> KernelTask {
        KernelTask::Sift {
            bits: BitVec::zeros(bits),
            keep: BitVec::ones(bits),
        }
    }

    #[test]
    fn gpu_is_launch_dominated_for_small_tasks() {
        let gpu = CostModel::sim_gpu();
        let small = gpu.predict(&sift_task(64));
        // A tiny task still pays the full launch overhead.
        assert!(small >= gpu.launch_overhead);
        assert!(small < gpu.launch_overhead * 2);
    }

    #[test]
    fn gpu_beats_cpu_only_at_large_sizes() {
        let gpu = CostModel::sim_gpu();
        let cpu = CostModel::cpu_core();
        let small_gpu = gpu.predict(&sift_task(1024));
        let small_cpu = cpu.predict(&sift_task(1024));
        assert!(small_cpu < small_gpu, "CPU should win tiny blocks");
        let large_gpu = gpu.predict(&sift_task(1 << 24));
        let large_cpu = cpu.predict(&sift_task(1 << 24));
        assert!(large_gpu < large_cpu, "GPU should win huge blocks");
    }

    #[test]
    fn fpga_latency_is_nearly_linear_in_block_size() {
        let fpga = CostModel::sim_fpga();
        let t1 = fpga.predict(&sift_task(1 << 16)).as_secs_f64();
        let t2 = fpga.predict(&sift_task(1 << 17)).as_secs_f64();
        let ratio = t2 / t1;
        assert!(
            (ratio - 2.0).abs() < 0.3,
            "streaming device should scale linearly, ratio {ratio}"
        );
    }

    #[test]
    fn batching_amortises_launch_overhead() {
        let gpu = CostModel::sim_gpu();
        let batched = CostModel::sim_gpu().with_batching(16);
        let t_single = gpu.predict(&sift_task(64));
        let t_batched = batched.predict(&sift_task(64));
        assert!(t_batched < t_single);
        assert!(t_batched.as_secs_f64() < t_single.as_secs_f64() / 4.0);
    }

    #[test]
    fn unknown_kernel_kind_gets_a_fallback_throughput() {
        let mut model = CostModel::sim_gpu();
        model.kernel_throughput.clear();
        let t = model.predict(&sift_task(1024));
        assert!(t > Duration::ZERO);
    }

    #[test]
    fn predict_raw_matches_predict() {
        let model = CostModel::sim_fpga();
        let task = sift_task(4096);
        let a = model.predict(&task);
        let b = model.predict_raw(
            task.kind(),
            task.input_bits(),
            task.output_bits(),
            task.work_units(),
        );
        assert_eq!(a, b);
    }
}
