//! Deterministic randomness helpers.
//!
//! Everything in the workspace that needs randomness accepts an `impl Rng`, so
//! simulations and tests are reproducible from a single seed. This module
//! provides the small utilities for deriving independent per-component streams
//! from one master seed, which keeps experiments repeatable even when the
//! pipeline runs stages concurrently on different devices.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Derives a child RNG from a master seed and a component label.
///
/// The derivation is a simple split-mix over the label hash, which is enough
/// to decorrelate streams for simulation purposes (this is *not* a
/// cryptographic KDF and is never used for key material in the security
/// model — real deployments draw hashing seeds from a QRNG).
///
/// # Example
///
/// ```
/// use qkd_types::rng::derive_rng;
/// use rand::Rng;
///
/// let mut a = derive_rng(42, "channel");
/// let mut b = derive_rng(42, "channel");
/// let mut c = derive_rng(42, "detector");
/// let xa: u64 = a.gen();
/// assert_eq!(xa, b.gen::<u64>());
/// assert_ne!(xa, c.gen::<u64>());
/// ```
pub fn derive_rng(master_seed: u64, label: &str) -> StdRng {
    let mut h = master_seed ^ 0x9E37_79B9_7F4A_7C15;
    for byte in label.bytes() {
        h ^= u64::from(byte);
        h = splitmix64(h);
    }
    StdRng::seed_from_u64(splitmix64(h))
}

/// Derives the seed of a numbered block's RNG within a component.
///
/// This is the value-level form of [`derive_block_rng`]: callers that need to
/// ship a seed across threads (e.g. a batch whose blocks are distilled
/// concurrently) derive the `u64` once and reconstruct the RNG wherever the
/// block is processed. Executions that derive from the same
/// `(master_seed, label, block)` triple therefore draw identical random
/// streams whichever thread runs the block, which is what makes their
/// outputs bit-identical.
pub fn block_seed(master_seed: u64, label: &str, block: u64) -> u64 {
    let mut h = master_seed ^ 0x9E37_79B9_7F4A_7C15;
    for byte in label.bytes() {
        h ^= u64::from(byte);
        h = splitmix64(h);
    }
    h ^= block.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    splitmix64(h)
}

/// Derives a child RNG for a numbered block within a component.
pub fn derive_block_rng(master_seed: u64, label: &str, block: u64) -> StdRng {
    StdRng::seed_from_u64(block_seed(master_seed, label, block))
}

/// One round of the SplitMix64 mixing function.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Samples `k` distinct indices from `0..n` without replacement (partial
/// Fisher–Yates), returned in ascending order.
///
/// Used for QBER-estimation sampling and for choosing punctured/shortened
/// positions in rate-adaptive LDPC.
///
/// # Panics
///
/// Panics if `k > n`.
pub fn sample_indices<R: Rng + ?Sized>(rng: &mut R, n: usize, k: usize) -> Vec<usize> {
    assert!(
        k <= n,
        "cannot sample {k} distinct indices from a population of {n}"
    );
    // Partial Fisher–Yates over an index array; O(n) memory but O(k) swaps.
    let mut idx: Vec<usize> = (0..n).collect();
    for i in 0..k {
        let j = rng.gen_range(i..n);
        idx.swap(i, j);
    }
    let mut out = idx[..k].to_vec();
    out.sort_unstable();
    out
}

/// Draws a random permutation of `0..n`.
pub fn random_permutation<R: Rng + ?Sized>(rng: &mut R, n: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        idx.swap(i, j);
    }
    idx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_rng_is_deterministic_and_label_sensitive() {
        let mut a = derive_rng(1, "x");
        let mut b = derive_rng(1, "x");
        let mut c = derive_rng(1, "y");
        let mut d = derive_rng(2, "x");
        let va: u64 = a.gen();
        assert_eq!(va, b.gen::<u64>());
        assert_ne!(va, c.gen::<u64>());
        assert_ne!(va, d.gen::<u64>());
    }

    #[test]
    fn derive_block_rng_varies_with_block() {
        let mut a = derive_block_rng(1, "ldpc", 0);
        let mut b = derive_block_rng(1, "ldpc", 1);
        assert_ne!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn block_seed_matches_derive_block_rng() {
        let mut direct = derive_block_rng(9, "engine", 4);
        let mut via_seed = StdRng::seed_from_u64(block_seed(9, "engine", 4));
        assert_eq!(direct.gen::<u64>(), via_seed.gen::<u64>());
        assert_ne!(block_seed(9, "engine", 4), block_seed(9, "engine", 5));
        assert_ne!(block_seed(9, "engine", 4), block_seed(10, "engine", 4));
    }

    #[test]
    fn sample_indices_distinct_sorted_in_range() {
        let mut rng = derive_rng(3, "sample");
        let s = sample_indices(&mut rng, 1000, 100);
        assert_eq!(s.len(), 100);
        for w in s.windows(2) {
            assert!(w[0] < w[1], "indices must be strictly increasing");
        }
        assert!(*s.last().unwrap() < 1000);
    }

    #[test]
    fn sample_indices_full_population() {
        let mut rng = derive_rng(4, "sample");
        let s = sample_indices(&mut rng, 10, 10);
        assert_eq!(s, (0..10).collect::<Vec<_>>());
        assert!(sample_indices(&mut rng, 5, 0).is_empty());
    }

    #[test]
    #[should_panic(expected = "cannot sample")]
    fn sample_more_than_population_panics() {
        let mut rng = derive_rng(5, "sample");
        sample_indices(&mut rng, 3, 4);
    }

    #[test]
    fn random_permutation_is_a_permutation() {
        let mut rng = derive_rng(6, "perm");
        let p = random_permutation(&mut rng, 100);
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }
}
