//! The device classes placement chooses between.

use serde::{Deserialize, Serialize};

use crate::cost::CostModel;

/// The class of device a kernel can be priced on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DeviceKind {
    /// Host CPU (the only device that executes anything).
    Cpu,
    /// Simulated discrete GPU.
    SimGpu,
    /// Simulated FPGA streaming engine.
    SimFpga,
}

impl DeviceKind {
    /// Short label used in reports.
    pub fn name(self) -> &'static str {
        match self {
            DeviceKind::Cpu => "cpu",
            DeviceKind::SimGpu => "sim-gpu",
            DeviceKind::SimFpga => "sim-fpga",
        }
    }

    /// The static cost profile of this device class.
    pub fn cost_model(self) -> CostModel {
        match self {
            DeviceKind::Cpu => CostModel::CPU_CORE,
            DeviceKind::SimGpu => CostModel::SIM_GPU,
            DeviceKind::SimFpga => CostModel::SIM_FPGA,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_kind_names() {
        assert_eq!(DeviceKind::Cpu.name(), "cpu");
        assert_eq!(DeviceKind::SimGpu.name(), "sim-gpu");
        assert_eq!(DeviceKind::SimFpga.name(), "sim-fpga");
    }
}
