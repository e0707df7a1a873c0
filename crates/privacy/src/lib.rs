//! Toeplitz-hash privacy amplification and finite-key analysis.
//!
//! Privacy amplification compresses the reconciled key with a randomly chosen
//! universal₂ hash so that Eve's information about the output is negligible
//! (leftover hash lemma). The Toeplitz family is the standard choice because a
//! single `n + m − 1`-bit seed defines the whole matrix and the product can be
//! evaluated as a binary convolution — exactly the kernel GPUs and FPGAs
//! accelerate in the paper's pipeline, and on a CPU the job of its
//! carry-less-multiply unit.
//!
//! The crate provides:
//!
//! * [`toeplitz`] — two bit-exact evaluation strategies for the same hash:
//!   the one the engine runs (carry-less-multiply convolution on `PCLMULQDQ`
//!   where the host has it, computing only the product words the output is
//!   read from) and the bit-wise reference kept as the test oracle;
//! * [`finite_key`] — the composable finite-key secret-length formula and the
//!   asymptotic rate;
//! * [`amplifier`] — the [`amplifier::PrivacyAmplifier`] that ties seed
//!   generation, length computation and hashing together.
//!
//! # Example
//!
//! ```
//! use qkd_privacy::{FiniteKeyParams, PrivacyAmplifier, ToeplitzStrategy};
//! use qkd_types::BitVec;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let reconciled = BitVec::random(&mut rng, 10_000);
//! let pa = PrivacyAmplifier::new(FiniteKeyParams::default(), ToeplitzStrategy::Clmul);
//! let secret = pa.amplify(&reconciled, 0.02, 1_200, 64, &mut rng).unwrap();
//! assert!(secret.bits.len() > 0);
//! assert!(secret.bits.len() < reconciled.len());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod amplifier;
pub mod finite_key;
pub mod toeplitz;

pub use amplifier::PrivacyAmplifier;
pub use finite_key::{asymptotic_secret_fraction, FiniteKeyParams, SecretLength};
pub use toeplitz::{ToeplitzHash, ToeplitzStrategy};
