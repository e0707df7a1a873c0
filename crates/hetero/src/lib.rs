//! Heterogeneous execution framework for QKD post-processing kernels.
//!
//! The paper's thesis is that the post-processing stages have very different
//! compute profiles — LDPC decoding is iteration-bound and massively data
//! parallel, Toeplitz privacy amplification is a large binary convolution,
//! authentication is tiny — so a production system maps each kernel onto the
//! device where it runs best (multicore CPU, GPU, FPGA) and pipelines blocks
//! across devices.
//!
//! No physical accelerator is available in this reproduction, so the
//! framework pairs *bit-exact functional execution* on the CPU with
//! *analytic cost models* of the accelerators:
//!
//! * [`CpuDevice`] — executes kernels with the substrate crates and reports
//!   measured wall-clock time (optionally divided across worker threads for
//!   batch kernels);
//! * [`SimGpu`] — same functional result, but the reported latency follows a
//!   launch + PCIe-transfer + bandwidth model with a batching discount,
//!   reproducing the characteristic "slow at small blocks, dominant at large
//!   blocks" crossover;
//! * [`SimFpga`] — streaming model with deterministic per-bit latency and a
//!   fixed pipeline fill cost, reproducing line-rate behaviour independent of
//!   block size.
//!
//! On top of the devices sit [`placement`] — the single owner of "where
//! would this kernel be cheapest, and what would it cost there": the
//! online-[`calibrate`]d cost models decide a link's CPU / decode-only /
//! whole-link split and convert host-measured stage time into modeled time
//! with the same prediction. Measured and modeled time stay separate columns
//! ([`StageMetrics::host_time`] / [`StageMetrics::modeled_time`]); nothing
//! here changes what the engine executes.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod calibrate;
pub mod cost;
pub mod device;
pub mod kernel;
pub mod placement;
pub mod profiler;

pub use calibrate::{kernel_for_stage, CostCalibrator};
pub use cost::{planned_work_units, CostModel};
pub use device::{CpuDevice, Device, DeviceKind, SimFpga, SimGpu};
pub use kernel::{KernelKind, KernelResult, KernelTask};
pub use placement::{decide_placement, modeled_time, LinkPlacement};
pub use profiler::{StageMetrics, ThroughputReport};
