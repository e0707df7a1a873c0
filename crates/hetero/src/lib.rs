//! Cost models and placement for QKD post-processing kernels.
//!
//! The paper's thesis is that the post-processing stages have very different
//! compute profiles — LDPC decoding is iteration-bound and massively data
//! parallel, Toeplitz privacy amplification is a large binary convolution,
//! authentication is tiny — so a production system maps each kernel onto the
//! device where it runs best (multicore CPU, GPU, FPGA).
//!
//! No physical accelerator is available in this reproduction, and this crate
//! executes nothing: the engine runs every stage on the host and measures
//! it. What this crate does is *price* a kernel — a (kernel kind, block
//! bits) pair — on each device class:
//!
//! * [`DeviceKind`] names the classes and hands out their static
//!   [`CostModel`]s: the host CPU, a simulated GPU (launch + PCIe transfer +
//!   bandwidth, "slow at small blocks, dominant at large blocks") and a
//!   simulated FPGA (negligible launch, line-rate streaming);
//! * [`CostModel::predict`] is the one pricing function;
//! * [`calibrate`] scales those prices to the live host from measured stage
//!   times;
//! * [`placement`] is the single owner of "where would this kernel be
//!   cheapest, and what would it cost there": [`decide_placement`] picks a
//!   link's CPU / decode-only / whole-link split and [`modeled_time`]
//!   converts a host-measured stage time into modeled time with the same
//!   calibrated prediction.
//!
//! Measured and modeled time stay separate columns
//! ([`StageMetrics::host_time`] / [`StageMetrics::modeled_time`]).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod calibrate;
pub mod cost;
pub mod device;
pub mod kernel;
pub mod placement;
pub mod profiler;

pub use calibrate::{kernel_for_stage, CostCalibrator};
pub use cost::CostModel;
pub use device::DeviceKind;
pub use kernel::KernelKind;
pub use placement::{decide_placement, modeled_time, LinkPlacement};
pub use profiler::{StageMetrics, ThroughputReport};
