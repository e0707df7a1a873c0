//! Analytic device cost models.
//!
//! A cost model prices one kernel invocation over a block of `b` bits as
//!
//! ```text
//! T = launch_overhead
//!   + b / link_bandwidth              (block to the device)
//!   + b / link_bandwidth              (result back to the host)
//!   + work_units(kind, b) / throughput(kind)
//! ```
//!
//! Nothing here executes a kernel: the host runs every stage, and these
//! prices are what [`crate::calibrate`] scales to the live host and
//! [`crate::placement`] compares. The constants for the simulated GPU and
//! FPGA are drawn from published figures for PCIe-attached accelerators
//! running LDPC decoding and Toeplitz hashing; their absolute values matter
//! less than the *structure* (large fixed overhead + very high asymptotic
//! throughput for the GPU, negligible overhead + deterministic line-rate for
//! the FPGA), which is what produces the crossovers the evaluation
//! reproduces.

use std::time::Duration;

use crate::kernel::KernelKind;

/// Analytic latency model of one device class, obtained from
/// [`crate::DeviceKind::cost_model`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Fixed per-launch overhead (kernel launch, DMA setup, PCIe round trip).
    launch_overhead: Duration,
    /// Host↔device bandwidth each way in bits per second; infinite on the
    /// host, where nothing crosses a link.
    link_bits_per_sec: f64,
    // Sustained work units per second of each kernel kind.
    sift: f64,
    ldpc_decode: f64,
    toeplitz_hash: f64,
    poly_mac: f64,
}

impl CostModel {
    /// One CPU core running the reference kernels: the baseline calibration
    /// fits the host's measured stage times against.
    pub(crate) const CPU_CORE: CostModel = CostModel {
        launch_overhead: Duration::from_nanos(200),
        link_bits_per_sec: f64::INFINITY,
        sift: 2.0e9,
        ldpc_decode: 2.0e8,
        toeplitz_hash: 6.0e8,
        poly_mac: 3.0e8,
    };

    /// A discrete GPU attached over PCIe 3.0 x16: ~15 µs launch + transfer
    /// setup, ~100 Gbit/s effective transfer, very high parallel throughput
    /// on data-parallel kernels.
    pub(crate) const SIM_GPU: CostModel = CostModel {
        launch_overhead: Duration::from_micros(15),
        link_bits_per_sec: 1.0e11,
        sift: 4.0e10,
        ldpc_decode: 1.2e10,
        toeplitz_hash: 6.0e9,
        poly_mac: 5.0e8,
    };

    /// An FPGA streaming implementation: line-rate pipeline, negligible
    /// launch cost, deterministic latency.
    pub(crate) const SIM_FPGA: CostModel = CostModel {
        launch_overhead: Duration::from_nanos(800),
        link_bits_per_sec: 4.0e10,
        sift: 1.0e10,
        ldpc_decode: 2.5e9,
        toeplitz_hash: 4.0e9,
        poly_mac: 2.0e9,
    };

    fn throughput(&self, kind: KernelKind) -> f64 {
        match kind {
            KernelKind::Sift => self.sift,
            KernelKind::LdpcDecode => self.ldpc_decode,
            KernelKind::ToeplitzHash => self.toeplitz_hash,
            KernelKind::PolyMac => self.poly_mac,
        }
    }

    /// Predicted latency of one `kind` invocation over a block of
    /// `block_bits` bits on this device.
    pub fn predict(&self, kind: KernelKind, block_bits: usize) -> Duration {
        // The block crosses the link once each way.
        let transfer = block_bits as f64 / self.link_bits_per_sec;
        let compute = work_units(kind, block_bits) / self.throughput(kind);
        Duration::from_secs_f64(self.launch_overhead.as_secs_f64() + transfer + transfer + compute)
    }
}

/// Abstract work units of one kernel invocation over a block of
/// `block_bits` bits: edge updates for LDPC, word products for hashing,
/// bits for streaming kernels.
fn work_units(kind: KernelKind, block_bits: usize) -> f64 {
    let bits = block_bits as f64;
    match kind {
        KernelKind::Sift => bits,
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

    #[test]
    fn gpu_is_launch_dominated_for_small_tasks() {
        let gpu = CostModel::SIM_GPU;
        let small = gpu.predict(KernelKind::Sift, 64);
        // A tiny block still pays the full launch overhead.
        assert!(small >= gpu.launch_overhead);
        assert!(small < gpu.launch_overhead * 2);
    }

    #[test]
    fn gpu_beats_cpu_only_at_large_sizes() {
        let (gpu, cpu) = (CostModel::SIM_GPU, CostModel::CPU_CORE);
        let small = 1024;
        assert!(
            cpu.predict(KernelKind::Sift, small) < gpu.predict(KernelKind::Sift, small),
            "CPU should win tiny blocks"
        );
        let large = 1 << 24;
        assert!(
            gpu.predict(KernelKind::Sift, large) < cpu.predict(KernelKind::Sift, large),
            "GPU should win huge blocks"
        );
    }

    #[test]
    fn fpga_latency_is_nearly_linear_in_block_size() {
        let fpga = CostModel::SIM_FPGA;
        let t1 = fpga.predict(KernelKind::Sift, 1 << 16).as_secs_f64();
        let t2 = fpga.predict(KernelKind::Sift, 1 << 17).as_secs_f64();
        let ratio = t2 / t1;
        assert!(
            (ratio - 2.0).abs() < 0.3,
            "streaming device should scale linearly, ratio {ratio}"
        );
    }
}
