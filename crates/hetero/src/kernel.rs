//! Offloadable kernels and their workloads.

use std::time::Duration;

use serde::{Deserialize, Serialize};

use qkd_types::BitVec;

/// The kinds of kernel the heterogeneous runtime can place on a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum KernelKind {
    /// Basis sifting / stream compaction.
    Sift,
    /// Sparse syndrome computation (`H x`).
    Syndrome,
    /// Belief-propagation LDPC syndrome decoding.
    LdpcDecode,
    /// Toeplitz-hash privacy amplification.
    ToeplitzHash,
    /// Polynomial MAC over GF(2¹²⁸).
    PolyMac,
}

impl KernelKind {
    /// All kernel kinds.
    pub const ALL: [KernelKind; 5] = [
        KernelKind::Sift,
        KernelKind::Syndrome,
        KernelKind::LdpcDecode,
        KernelKind::ToeplitzHash,
        KernelKind::PolyMac,
    ];

    /// Short label used in reports.
    pub fn name(self) -> &'static str {
        match self {
            KernelKind::Sift => "sift",
            KernelKind::Syndrome => "syndrome",
            KernelKind::LdpcDecode => "ldpc-decode",
            KernelKind::ToeplitzHash => "toeplitz",
            KernelKind::PolyMac => "poly-mac",
        }
    }
}

/// A concrete kernel invocation: the kind plus its input data.
///
/// Tasks carry everything a device needs to produce the functional result so
/// that execution is self-contained (the device owns no protocol state).
#[derive(Debug, Clone)]
pub enum KernelTask {
    /// Compact `bits` by keeping the positions flagged in `keep`.
    Sift {
        /// Input bits.
        bits: BitVec,
        /// Keep-mask, same length as `bits`.
        keep: BitVec,
    },
    /// Compute the syndrome of `word` under the decoder's matrix.
    Syndrome {
        /// Codeword to compute the syndrome of.
        word: BitVec,
        /// Shared decoder (carries the parity-check matrix).
        decoder: std::sync::Arc<qkd_ldpc::SyndromeDecoder>,
        /// The matrix itself (kept alongside the decoder for syndrome calls).
        matrix: std::sync::Arc<qkd_ldpc::ParityCheckMatrix>,
    },
    /// Decode an error pattern for `target_syndrome` at `qber`.
    LdpcDecode {
        /// Target syndrome (`s_A ⊕ s_B`).
        target_syndrome: BitVec,
        /// Channel error probability prior.
        qber: f64,
        /// Shared decoder.
        decoder: std::sync::Arc<qkd_ldpc::SyndromeDecoder>,
        /// Per-variable LLR overrides (shortened/punctured positions).
        llr_overrides: Vec<(usize, f64)>,
    },
    /// Apply a Toeplitz hash to `input`.
    ToeplitzHash {
        /// Input key material.
        input: BitVec,
        /// The hash instance (seed + dimensions).
        hash: std::sync::Arc<qkd_privacy::ToeplitzHash>,
        /// Evaluation strategy for the CPU path.
        strategy: qkd_privacy::ToeplitzStrategy,
    },
    /// Authenticate a message with a shared authenticator.
    PolyMac {
        /// Message bytes to authenticate.
        message: Vec<u8>,
        /// Shared authenticator (holds the hash key and OTP pool).
        authenticator: std::sync::Arc<qkd_auth::Authenticator>,
    },
}

impl KernelTask {
    /// The kind of this task.
    pub fn kind(&self) -> KernelKind {
        match self {
            KernelTask::Sift { .. } => KernelKind::Sift,
            KernelTask::Syndrome { .. } => KernelKind::Syndrome,
            KernelTask::LdpcDecode { .. } => KernelKind::LdpcDecode,
            KernelTask::ToeplitzHash { .. } => KernelKind::ToeplitzHash,
            KernelTask::PolyMac { .. } => KernelKind::PolyMac,
        }
    }

    /// Input payload size in bits (what has to cross the host→device link).
    pub fn input_bits(&self) -> usize {
        match self {
            KernelTask::Sift { bits, keep } => bits.len() + keep.len(),
            KernelTask::Syndrome { word, .. } => word.len(),
            KernelTask::LdpcDecode {
                target_syndrome,
                decoder,
                ..
            } => target_syndrome.len() + decoder.block_len(),
            KernelTask::ToeplitzHash { input, hash, .. } => input.len() + hash.seed().len(),
            KernelTask::PolyMac { message, .. } => message.len() * 8,
        }
    }

    /// An abstract "work units" figure the cost models scale by:
    /// edge-updates for LDPC, bit-products for hashing, bits for streaming
    /// kernels.
    pub fn work_units(&self) -> f64 {
        match self {
            KernelTask::Sift { bits, .. } => bits.len() as f64,
            KernelTask::Syndrome { word, matrix, .. } => {
                // One XOR per nonzero entry.
                let _ = word;
                matrix.num_edges() as f64
            }
            KernelTask::LdpcDecode { decoder, .. } => {
                // Edges × a nominal 20 iterations (cost models refine this).
                (decoder.block_len() as f64) * 3.0 * 20.0
            }
            KernelTask::ToeplitzHash { input, hash, .. } => {
                // Word-level convolution work.
                (input.len() as f64 / 64.0) * (hash.seed().len() as f64 / 64.0)
            }
            KernelTask::PolyMac { message, .. } => (message.len() as f64 / 16.0).max(1.0),
        }
    }

    /// Output payload size in bits (device→host).
    pub fn output_bits(&self) -> usize {
        match self {
            KernelTask::Sift { keep, .. } => keep.count_ones(),
            KernelTask::Syndrome { decoder, .. } => decoder.syndrome_len(),
            KernelTask::LdpcDecode { decoder, .. } => decoder.block_len(),
            KernelTask::ToeplitzHash { hash, .. } => hash.output_len(),
            KernelTask::PolyMac { .. } => 128,
        }
    }
}

/// Functional output of a kernel.
#[derive(Debug, Clone)]
pub enum KernelOutput {
    /// Compacted bits.
    Bits(BitVec),
    /// Decode outcome (error pattern + convergence data).
    Decode(qkd_ldpc::DecodeOutcome),
    /// Authentication tag.
    Tag(qkd_auth::Tag),
}

impl KernelOutput {
    /// Extracts the bit payload, if this output carries one.
    pub fn as_bits(&self) -> Option<&BitVec> {
        match self {
            KernelOutput::Bits(b) => Some(b),
            KernelOutput::Decode(d) => Some(&d.error_pattern),
            KernelOutput::Tag(t) => Some(&t.bits),
        }
    }
}

/// Result of executing a kernel on a device.
#[derive(Debug, Clone)]
pub struct KernelResult {
    /// Functional output (bit-exact regardless of device).
    pub output: KernelOutput,
    /// Latency predicted/measured by the device, including transfers.
    pub modeled_time: Duration,
    /// Wall-clock time the host actually spent (for simulated accelerators
    /// this is the CPU emulation time, not the modeled latency).
    pub host_time: Duration,
    /// Device that produced the result.
    pub device_name: String,
}

impl KernelResult {
    /// Modeled throughput in input-bits per second.
    pub fn modeled_throughput_bps(&self, input_bits: usize) -> f64 {
        let secs = self.modeled_time.as_secs_f64();
        if secs <= 0.0 {
            f64::INFINITY
        } else {
            input_bits as f64 / secs
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qkd_types::rng::derive_rng;

    #[test]
    fn kernel_kind_names_are_distinct() {
        let names: std::collections::HashSet<&str> =
            KernelKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), KernelKind::ALL.len());
    }

    #[test]
    fn sift_task_accounting() {
        let mut rng = derive_rng(1, "kernel-test");
        let bits = BitVec::random(&mut rng, 1000);
        let keep = BitVec::random_with_density(&mut rng, 1000, 0.5);
        let kept = keep.count_ones();
        let task = KernelTask::Sift { bits, keep };
        assert_eq!(task.kind(), KernelKind::Sift);
        assert_eq!(task.input_bits(), 2000);
        assert_eq!(task.output_bits(), kept);
        assert!(task.work_units() > 0.0);
    }

    #[test]
    fn toeplitz_task_accounting() {
        let mut rng = derive_rng(2, "kernel-test");
        let input = BitVec::random(&mut rng, 4096);
        let hash =
            std::sync::Arc::new(qkd_privacy::ToeplitzHash::random(4096, 2048, &mut rng).unwrap());
        let task = KernelTask::ToeplitzHash {
            input,
            hash,
            strategy: qkd_privacy::ToeplitzStrategy::Clmul,
        };
        assert_eq!(task.kind(), KernelKind::ToeplitzHash);
        assert_eq!(task.output_bits(), 2048);
        assert!(task.input_bits() > 4096);
    }

    #[test]
    fn result_throughput_is_finite_for_positive_time() {
        let r = KernelResult {
            output: KernelOutput::Bits(BitVec::zeros(8)),
            modeled_time: Duration::from_micros(10),
            host_time: Duration::from_micros(12),
            device_name: "cpu".into(),
        };
        let tput = r.modeled_throughput_bps(1_000_000);
        assert!((tput - 1e11).abs() / 1e11 < 1e-9);
        assert!(r.output.as_bits().is_some());
    }
}
