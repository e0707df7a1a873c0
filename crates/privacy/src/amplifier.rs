//! The privacy-amplification stage: length computation + Toeplitz hashing.

use rand::Rng;
use serde::{Deserialize, Serialize};

use qkd_types::{BitVec, QkdError, Result};

use crate::finite_key::{secret_length, FiniteKeyParams, SecretLength};
use crate::toeplitz::{ToeplitzHash, ToeplitzStrategy};

/// Output of privacy amplification on one block.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AmplifiedKey {
    /// The secret bits.
    pub bits: BitVec,
    /// The length computation that determined the output size.
    pub length: SecretLength,
    /// Composable security parameter of the output key.
    pub epsilon: f64,
    /// The seed length that had to be exchanged (authenticated but public).
    pub seed_bits: usize,
}

/// Privacy amplifier combining the finite-key length rule with Toeplitz
/// hashing.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PrivacyAmplifier {
    params: FiniteKeyParams,
    strategy: ToeplitzStrategy,
}

impl PrivacyAmplifier {
    /// Creates an amplifier with the given security parameters and hashing
    /// strategy.
    pub fn new(params: FiniteKeyParams, strategy: ToeplitzStrategy) -> Self {
        Self { params, strategy }
    }

    /// The security parameters in use.
    pub fn params(&self) -> &FiniteKeyParams {
        &self.params
    }

    /// The hashing strategy in use.
    pub fn strategy(&self) -> ToeplitzStrategy {
        self.strategy
    }

    /// Computes the extractable length for a block without hashing it.
    ///
    /// # Errors
    ///
    /// See [`secret_length`].
    pub fn secret_length(
        &self,
        reconciled_len: usize,
        phase_error: f64,
        leak_ec: usize,
        leak_verify: usize,
    ) -> Result<SecretLength> {
        secret_length(
            reconciled_len,
            phase_error,
            leak_ec,
            leak_verify,
            &self.params,
        )
    }

    /// Amplifies a reconciled key: computes the secret length, draws a random
    /// Toeplitz seed from `rng`, and hashes.
    ///
    /// # Errors
    ///
    /// * [`QkdError::InsufficientKeyMaterial`] when the finite-key bound is
    ///   non-positive (nothing can be extracted).
    /// * Propagates parameter errors from [`secret_length`] and
    ///   [`ToeplitzHash`].
    pub fn amplify<R: Rng + ?Sized>(
        &self,
        reconciled: &BitVec,
        phase_error: f64,
        leak_ec: usize,
        leak_verify: usize,
        rng: &mut R,
    ) -> Result<AmplifiedKey> {
        let length = self.secret_length(reconciled.len(), phase_error, leak_ec, leak_verify)?;
        if length.secret_bits == 0 {
            return Err(QkdError::InsufficientKeyMaterial {
                available: reconciled.len(),
                required_overhead: leak_ec
                    + leak_verify
                    + self.params.security_overhead_bits().ceil() as usize,
            });
        }
        let hash = ToeplitzHash::random(reconciled.len(), length.secret_bits, rng)?;
        let bits = hash.hash(reconciled, self.strategy)?;
        Ok(AmplifiedKey {
            bits,
            length,
            epsilon: self.params.total_epsilon(),
            seed_bits: hash.seed().len(),
        })
    }

    /// Amplifies with an explicit, pre-agreed hash instance (used when Alice
    /// and Bob must apply the *same* seed, which is the normal protocol flow:
    /// one side draws the seed, authenticates it, and both apply it).
    ///
    /// # Errors
    ///
    /// Propagates dimension errors from [`ToeplitzHash::hash`].
    pub fn amplify_with(&self, reconciled: &BitVec, hash: &ToeplitzHash) -> Result<BitVec> {
        hash.hash(reconciled, self.strategy)
    }
}

impl Default for PrivacyAmplifier {
    fn default() -> Self {
        Self::new(FiniteKeyParams::default(), ToeplitzStrategy::Clmul)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qkd_types::rng::derive_rng;

    #[test]
    fn amplify_produces_shorter_key_with_expected_length() {
        let mut rng = derive_rng(1, "pa-test");
        let reconciled = BitVec::random(&mut rng, 50_000);
        let pa = PrivacyAmplifier::default();
        let out = pa.amplify(&reconciled, 0.02, 8_000, 64, &mut rng).unwrap();
        assert_eq!(out.bits.len(), out.length.secret_bits);
        assert!(out.bits.len() < reconciled.len());
        assert!(
            out.bits.len() > 25_000,
            "2% QBER with modest leakage should keep >50%"
        );
        assert_eq!(out.seed_bits, 50_000 + out.bits.len() - 1);
        assert!((out.epsilon - pa.params().total_epsilon()).abs() < 1e-30);
    }

    #[test]
    fn both_parties_get_identical_keys_with_shared_seed() {
        let mut rng = derive_rng(2, "pa-test");
        let alice = BitVec::random(&mut rng, 20_000);
        let bob = alice.clone(); // post-verification they are equal
        let pa = PrivacyAmplifier::default();
        let len = pa.secret_length(20_000, 0.03, 5_000, 64).unwrap();
        let hash = ToeplitzHash::random(20_000, len.secret_bits, &mut rng).unwrap();
        let ka = pa.amplify_with(&alice, &hash).unwrap();
        let kb = pa.amplify_with(&bob, &hash).unwrap();
        assert_eq!(ka, kb);
    }

    #[test]
    fn residual_error_propagates_to_different_keys() {
        // If verification missed an error, PA output diverges completely —
        // this is why verification happens before PA.
        let mut rng = derive_rng(3, "pa-test");
        let alice = BitVec::random(&mut rng, 10_000);
        let mut bob = alice.clone();
        bob.flip(1234);
        let pa = PrivacyAmplifier::default();
        let len = pa.secret_length(10_000, 0.02, 2_000, 64).unwrap();
        let hash = ToeplitzHash::random(10_000, len.secret_bits, &mut rng).unwrap();
        let ka = pa.amplify_with(&alice, &hash).unwrap();
        let kb = pa.amplify_with(&bob, &hash).unwrap();
        assert_ne!(ka, kb);
        // Roughly half the bits differ.
        let dist = ka.hamming_distance(&kb) as f64 / ka.len() as f64;
        assert!((dist - 0.5).abs() < 0.1, "distance fraction {dist}");
    }

    #[test]
    fn insufficient_material_is_an_error() {
        let mut rng = derive_rng(4, "pa-test");
        let reconciled = BitVec::random(&mut rng, 1_000);
        let pa = PrivacyAmplifier::default();
        let err = pa
            .amplify(&reconciled, 0.05, 900, 64, &mut rng)
            .unwrap_err();
        assert!(matches!(err, QkdError::InsufficientKeyMaterial { .. }));
    }

    #[test]
    fn strategies_produce_identical_secret_keys() {
        let mut rng = derive_rng(5, "pa-test");
        let reconciled = BitVec::random(&mut rng, 8_192);
        let len = PrivacyAmplifier::default()
            .secret_length(8_192, 0.02, 1_500, 64)
            .unwrap();
        let hash = ToeplitzHash::random(8_192, len.secret_bits, &mut rng).unwrap();
        let [naive, clmul] = [ToeplitzStrategy::Naive, ToeplitzStrategy::Clmul].map(|s| {
            PrivacyAmplifier::new(FiniteKeyParams::default(), s)
                .amplify_with(&reconciled, &hash)
                .unwrap()
        });
        assert_eq!(naive, clmul);
    }
}
