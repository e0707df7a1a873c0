//! Rate-adaptive LDPC syndrome reconciliation.
//!
//! LDPC coding is the one-way alternative to Cascade and the kernel the paper
//! offloads to accelerators: Alice sends the syndrome of her sifted block
//! under a sparse parity-check matrix, Bob runs belief-propagation syndrome
//! decoding to recover the error pattern, and a single message (plus one
//! verification exchange) reconciles the block regardless of the channel
//! round-trip time.
//!
//! The crate provides:
//!
//! * [`matrix`] — sparse parity-check matrices, every one quasi-cyclic at
//!   circulant 64 and stored as its base matrix (one `u32` per circulant:
//!   base column and shift), with rotate-XOR syndromes;
//! * [`decoder`] — the belief-propagation syndrome decoder: normalised
//!   min-sum on the layered schedule, run as a circulant-lane sweep (AVX2 or
//!   portable) that updates a whole 64-check layer in lockstep;
//! * [`reconciler`] — the rate-adaptive reconciliation protocol with a code
//!   library, shortening-based fine rate adaptation and leakage accounting.
//!
//! # Example
//!
//! ```
//! use qkd_ldpc::{LdpcReconciler, ReconcilerConfig};
//! use qkd_types::BitVec;
//! use rand::rngs::StdRng;
//! use rand::{Rng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(5);
//! let alice = BitVec::random(&mut rng, 4096);
//! let mut bob = alice.clone();
//! for i in 0..4096 {
//!     if rng.gen_bool(0.02) { bob.flip(i); }
//! }
//! let reconciler = LdpcReconciler::new(ReconcilerConfig::for_block_size(4096)).unwrap();
//! let outcome = reconciler.reconcile(&alice, &bob, 0.02).unwrap();
//! assert_eq!(outcome.corrected, alice);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod decoder;
pub mod matrix;
pub mod reconciler;
#[cfg(target_arch = "x86_64")]
mod simd;

pub use decoder::{DecodeOutcome, DecoderConfig, DecoderScratch, SyndromeDecoder};
pub use matrix::ParityCheckMatrix;
pub use reconciler::{
    CodeLibrary, LdpcOutcome, LdpcReconciler, ReconcilerConfig, ReconcilerScratch,
};
