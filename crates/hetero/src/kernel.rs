//! The kernels an accelerator could take from the host.

use serde::{Deserialize, Serialize};

/// The kinds of kernel the cost models price.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum KernelKind {
    /// Basis sifting / stream compaction.
    Sift,
    /// Belief-propagation LDPC syndrome decoding.
    LdpcDecode,
    /// Toeplitz-hash privacy amplification.
    ToeplitzHash,
    /// Polynomial MAC over GF(2¹²⁸).
    PolyMac,
}

impl KernelKind {
    /// All kernel kinds.
    pub const ALL: [KernelKind; 4] = [
        KernelKind::Sift,
        KernelKind::LdpcDecode,
        KernelKind::ToeplitzHash,
        KernelKind::PolyMac,
    ];
}
