//! Backend comparison: the same reconciliation + privacy-amplification
//! workload on the CPU, the simulated GPU and the simulated FPGA.
//!
//! This is the "heterogeneous computing perspective" in miniature: identical
//! functional results, very different latency profiles, and a crossover point
//! that moves with block size.
//!
//! Run with `cargo run --release --example backend_comparison`.

use std::sync::Arc;

use qkd::hetero::{CpuDevice, Device, KernelTask, SimFpga, SimGpu};
use qkd::ldpc::{DecoderConfig, ParityCheckMatrix, SyndromeDecoder};
use qkd::privacy::{ToeplitzHash, ToeplitzStrategy};
use qkd::types::rng::derive_rng;
use qkd::types::{BitVec, QkdError};

fn main() -> Result<(), QkdError> {
    let devices: Vec<Box<dyn Device>> = vec![
        Box::new(CpuDevice::single_core()),
        Box::new(SimGpu::new()),
        Box::new(SimFpga::new()),
    ];

    println!("LDPC syndrome decoding, rate 1/2, QBER 3%");
    println!(
        "{:>10} {:>12} {:>14} {:>14}",
        "block", "device", "modeled (us)", "Mbit/s"
    );
    for &block_bits in &[4096usize, 16_384, 65_536] {
        let matrix = Arc::new(ParityCheckMatrix::for_rate(block_bits, 0.5, 9)?);
        let decoder = Arc::new(SyndromeDecoder::new(&matrix, DecoderConfig::default())?);
        let mut rng = derive_rng(77, "backend-example");
        let truth = BitVec::random_with_density(&mut rng, block_bits, 0.03);
        let task = KernelTask::LdpcDecode {
            target_syndrome: matrix.syndrome(&truth),
            qber: 0.03,
            decoder,
            llr_overrides: Vec::new(),
        };
        for device in &devices {
            let result = device.execute(&task)?;
            println!(
                "{:>10} {:>12} {:>14.1} {:>14.1}",
                block_bits,
                device.name(),
                result.modeled_time.as_secs_f64() * 1e6,
                result.modeled_throughput_bps(block_bits) / 1e6
            );
        }
    }

    println!("\nToeplitz privacy amplification (compress to 50%)");
    println!(
        "{:>10} {:>12} {:>14} {:>14}",
        "block", "device", "modeled (us)", "Mbit/s"
    );
    for &block_bits in &[16_384usize, 65_536, 262_144] {
        let mut rng = derive_rng(78, "backend-example");
        let input = BitVec::random(&mut rng, block_bits);
        let hash = Arc::new(ToeplitzHash::random(block_bits, block_bits / 2, &mut rng)?);
        let task = KernelTask::ToeplitzHash {
            input,
            hash,
            strategy: ToeplitzStrategy::Clmul,
        };
        for device in &devices {
            let result = device.execute(&task)?;
            println!(
                "{:>10} {:>12} {:>14.1} {:>14.1}",
                block_bits,
                device.name(),
                result.modeled_time.as_secs_f64() * 1e6,
                result.modeled_throughput_bps(block_bits) / 1e6
            );
        }
    }

    println!("\nSmall blocks favour the CPU (accelerator launch overhead dominates);\nlarge blocks favour the accelerators — the crossover is the paper's core argument.");
    Ok(())
}
