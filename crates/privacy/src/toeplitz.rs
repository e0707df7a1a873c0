//! Toeplitz universal hashing.
//!
//! A Toeplitz matrix `T` of size `m × n` is defined by a seed of `n + m − 1`
//! bits `t`, with `T[j][i] = t[j + (n − 1 − i)]`. The hash of an input `x` is
//! `y = T x` over GF(2). Equivalently, `y` is a window of the binary
//! convolution (carry-less product) of `x` with `t`: `y[j] = (x·t)[n − 1 + j]`.
//!
//! The engine runs [`ToeplitzStrategy::Clmul`]: a word-blocked polynomial
//! product on the CPU's carry-less-multiply unit ([`qkd_types::gf2::clmul_row`],
//! `PCLMULQDQ` where the host has it), restricted to the word diagonals that
//! reach the `m` product bits the hash returns — three diagonals for a 64-bit
//! verification tag, whatever the input length. [`ToeplitzStrategy::Naive`]
//! computes the same function bit by bit from the definition; it is the
//! differential oracle and the baseline of the Figure 3 sweep.

use serde::{Deserialize, Serialize};

use qkd_types::gf2::clmul_row;
use qkd_types::{BitVec, QkdError, Result, SecretBuf};

#[cfg(test)]
thread_local! {
    /// 64×64 multiplies issued by `hash_clmul` on this thread (test-only:
    /// the windowing tests assert the count, nothing reads it in production).
    static WORD_MULTIPLIES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Evaluation strategy for the Toeplitz hash.
///
/// Both strategies compute exactly the same function; they differ only in
/// cost, which is what the Figure 3 benchmark sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ToeplitzStrategy {
    /// Bit-by-bit reference implementation, `O(n · m)` bit operations.
    Naive,
    /// Carry-less-multiply convolution: the window of the GF(2) polynomial
    /// product `input · seed` that holds the output, `O(n·m/64²)` word
    /// multiplies on the carry-less-multiply unit.
    Clmul,
}

/// A Toeplitz hash instance: output length plus seed.
///
/// The seed is disclosed to the peer during privacy amplification, but it is
/// still keyed material while a session runs — it rides in a [`SecretBuf`]
/// (zeroized on drop) and the `Debug` form redacts it.
#[derive(Clone, PartialEq)]
pub struct ToeplitzHash {
    input_len: usize,
    output_len: usize,
    /// Seed bits, length `input_len + output_len - 1` (zeroized on drop).
    seed: SecretBuf,
}

impl std::fmt::Debug for ToeplitzHash {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ToeplitzHash")
            .field("input_len", &self.input_len)
            .field("output_len", &self.output_len)
            .field("seed", &self.seed)
            .finish()
    }
}

impl ToeplitzHash {
    /// Creates a hash instance from an explicit seed.
    ///
    /// # Errors
    ///
    /// Returns [`QkdError::DimensionMismatch`] when the seed length is not
    /// `input_len + output_len - 1`, and [`QkdError::InvalidParameter`] when a
    /// length is zero or the output is longer than the input.
    pub fn new(input_len: usize, output_len: usize, seed: BitVec) -> Result<Self> {
        if input_len == 0 || output_len == 0 {
            return Err(QkdError::invalid_parameter(
                "input_len/output_len",
                "must be positive",
            ));
        }
        if output_len > input_len {
            return Err(QkdError::invalid_parameter(
                "output_len",
                "privacy amplification cannot expand the key",
            ));
        }
        let expected = input_len + output_len - 1;
        if seed.len() != expected {
            return Err(QkdError::DimensionMismatch {
                context: "toeplitz seed",
                expected,
                actual: seed.len(),
            });
        }
        Ok(Self {
            input_len,
            output_len,
            seed: seed.into(),
        })
    }

    /// Draws a random seed and creates the hash instance.
    ///
    /// # Errors
    ///
    /// See [`ToeplitzHash::new`].
    pub fn random<R: rand::Rng + ?Sized>(
        input_len: usize,
        output_len: usize,
        rng: &mut R,
    ) -> Result<Self> {
        if input_len == 0 || output_len == 0 || output_len > input_len {
            return Err(QkdError::invalid_parameter(
                "input_len/output_len",
                "must be positive with output_len <= input_len",
            ));
        }
        let seed = BitVec::random(rng, input_len + output_len - 1);
        Self::new(input_len, output_len, seed)
    }

    /// Input length the hash expects.
    pub fn input_len(&self) -> usize {
        self.input_len
    }

    /// Output length the hash produces.
    pub fn output_len(&self) -> usize {
        self.output_len
    }

    /// The seed defining the Toeplitz matrix.
    pub fn seed(&self) -> &BitVec {
        self.seed.expose()
    }

    /// Matrix entry `T[row][col]` (mostly useful for tests).
    pub fn entry(&self, row: usize, col: usize) -> bool {
        self.seed.get(row + (self.input_len - 1 - col))
    }

    /// Evaluates the hash with the chosen strategy.
    ///
    /// # Errors
    ///
    /// Returns [`QkdError::DimensionMismatch`] when `input` has the wrong
    /// length.
    pub fn hash(&self, input: &BitVec, strategy: ToeplitzStrategy) -> Result<BitVec> {
        if input.len() != self.input_len {
            return Err(QkdError::DimensionMismatch {
                context: "toeplitz input",
                expected: self.input_len,
                actual: input.len(),
            });
        }
        Ok(match strategy {
            ToeplitzStrategy::Naive => self.hash_naive(input),
            ToeplitzStrategy::Clmul => self.hash_clmul(input),
        })
    }

    fn hash_naive(&self, input: &BitVec) -> BitVec {
        let mut out = BitVec::zeros(self.output_len);
        for row in 0..self.output_len {
            let mut acc = false;
            for col in 0..self.input_len {
                if self.entry(row, col) && input.get(col) {
                    acc = !acc;
                }
            }
            out.set(row, acc);
        }
        out
    }

    fn hash_clmul(&self, input: &BitVec) -> BitVec {
        // y[j] = sum_i x[i] · t[(j + n − 1) − i]  =  (x * t)[j + n − 1],
        // a plain carry-less convolution of which only bits n−1 .. n−1+m are
        // returned, i.e. product words lo_w ..= hi_w. The word pair (i, j)
        // lands in product words i+j (low half) and i+j+1 (high half), so
        // only the diagonals lo_w−1 ≤ i+j ≤ hi_w contribute: a contiguous
        // seed-word range per input word.
        let n = self.input_len;
        let m = self.output_len;
        let a = input.as_words();
        let b = self.seed.as_words();
        let lo_w = (n - 1) / 64;
        // Also the last seed word: the seed has n + m − 1 bits.
        let hi_w = (n + m - 2) / 64;
        // The buffer covers product words base ..= hi_w + 1; its first and
        // last word only catch the halves of the edge diagonals that fall
        // outside the window. It holds the amplified key: wiped on drop.
        let base = lo_w.saturating_sub(1);
        let mut prod = SecretBuf::from_bits(BitVec::zeros((hi_w + 2 - base) * 64));
        let window = prod.expose_mut().as_words_mut();
        for (i, &aw) in a.iter().enumerate() {
            let j_lo = base.saturating_sub(i);
            // Both ranges are in bounds by construction (i ≤ lo_w ≤ hi_w and
            // j_lo + i ≥ base); an empty fallback multiplies nothing.
            let row = b.get(j_lo..=hi_w - i).unwrap_or_default();
            let acc = window.get_mut(i + j_lo - base..).unwrap_or_default();
            #[cfg(test)]
            WORD_MULTIPLIES.with(|count| count.set(count.get() + row.len()));
            clmul_row(aw, row, acc);
        }
        let start = n - 1 - base * 64;
        prod.slice(start, start + m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qkd_types::rng::derive_rng;

    fn instance(n: usize, m: usize, seed: u64) -> (ToeplitzHash, BitVec) {
        let mut rng = derive_rng(seed, "toeplitz-test");
        let h = ToeplitzHash::random(n, m, &mut rng).unwrap();
        let x = BitVec::random(&mut rng, n);
        (h, x)
    }

    #[test]
    fn strategies_agree() {
        for &(n, m) in &[(64, 16), (200, 77), (1024, 512), (1000, 999), (130, 1)] {
            let (h, x) = instance(n, m, n as u64 * 31 + m as u64);
            let naive = h.hash(&x, ToeplitzStrategy::Naive).unwrap();
            let clmul = h.hash(&x, ToeplitzStrategy::Clmul).unwrap();
            assert_eq!(naive, clmul, "clmul mismatch at ({n}, {m})");
        }
    }

    /// Hashes with `Clmul`, returning the output and the word multiplies spent.
    fn counted_clmul(h: &ToeplitzHash, x: &BitVec) -> (BitVec, usize) {
        WORD_MULTIPLIES.with(|count| count.set(0));
        let out = h.hash(x, ToeplitzStrategy::Clmul).unwrap();
        (out, WORD_MULTIPLIES.with(|count| count.get()))
    }

    #[test]
    fn engine_shapes_agree_with_naive_and_multiply_only_the_window() {
        // The three shapes the engine runs: a verification tag and a
        // privacy-amplified key at 16 384 bits, a tag at 4 096. The bound is
        // the point of the windowing: the full product would take
        // (n/64)·((n+m)/64) multiplies — 65 792 for the first row.
        for &(n, m, max_multiplies) in &[
            (16_384usize, 64usize, 3 * (16_384 / 64) + 4),
            (16_384, 7_980, 33_000),
            (4_096, 64, 3 * (4_096 / 64) + 4),
        ] {
            let (h, x) = instance(n, m, (n + m) as u64);
            let (clmul, multiplies) = counted_clmul(&h, &x);
            assert_eq!(
                clmul,
                h.hash(&x, ToeplitzStrategy::Naive).unwrap(),
                "clmul mismatch at ({n}, {m})"
            );
            assert!(
                multiplies <= max_multiplies,
                "({n}, {m}) took {multiplies} word multiplies, window allows {max_multiplies}"
            );
        }
    }

    #[test]
    fn hash_is_linear() {
        let (h, x) = instance(256, 100, 3);
        let mut rng = derive_rng(4, "toeplitz-test");
        let y = BitVec::random(&mut rng, 256);
        let hx = h.hash(&x, ToeplitzStrategy::Clmul).unwrap();
        let hy = h.hash(&y, ToeplitzStrategy::Clmul).unwrap();
        let hxy = h.hash(&(&x ^ &y), ToeplitzStrategy::Clmul).unwrap();
        assert_eq!(hxy, &hx ^ &hy);
        let zero = h
            .hash(&BitVec::zeros(256), ToeplitzStrategy::Naive)
            .unwrap();
        assert_eq!(zero.count_ones(), 0);
    }

    #[test]
    fn matrix_entries_are_toeplitz() {
        let (h, _) = instance(50, 20, 5);
        for row in 1..20 {
            for col in 1..50 {
                assert_eq!(
                    h.entry(row, col),
                    h.entry(row - 1, col - 1),
                    "({row},{col})"
                );
            }
        }
    }

    #[test]
    fn different_seeds_give_different_hashes() {
        let mut rng = derive_rng(6, "toeplitz-test");
        let x = BitVec::random(&mut rng, 512);
        let h1 = ToeplitzHash::random(512, 128, &mut rng).unwrap();
        let h2 = ToeplitzHash::random(512, 128, &mut rng).unwrap();
        assert_ne!(
            h1.hash(&x, ToeplitzStrategy::Clmul).unwrap(),
            h2.hash(&x, ToeplitzStrategy::Clmul).unwrap()
        );
    }

    #[test]
    fn output_distribution_is_balanced() {
        // Universal hashing of a random input should give ~50% ones.
        let (h, x) = instance(4096, 2048, 7);
        let y = h.hash(&x, ToeplitzStrategy::Clmul).unwrap();
        let frac = y.count_ones() as f64 / 2048.0;
        assert!((frac - 0.5).abs() < 0.08, "ones fraction {frac}");
    }

    #[test]
    fn collision_behaviour_is_universal_like() {
        // For a fixed pair x != y, Pr over seeds that hashes collide should be
        // ~2^-m; with m = 8 and 2000 trials we expect about 8 collisions.
        let mut rng = derive_rng(8, "toeplitz-test");
        let x = BitVec::random(&mut rng, 64);
        let mut y = x.clone();
        y.flip(10);
        let mut collisions = 0;
        let trials = 2000;
        for _ in 0..trials {
            let h = ToeplitzHash::random(64, 8, &mut rng).unwrap();
            if h.hash(&x, ToeplitzStrategy::Clmul).unwrap()
                == h.hash(&y, ToeplitzStrategy::Clmul).unwrap()
            {
                collisions += 1;
            }
        }
        let rate = collisions as f64 / trials as f64;
        assert!(rate < 0.02, "collision rate {rate} far above 2^-8");
    }

    #[test]
    fn invalid_dimensions_rejected() {
        let mut rng = derive_rng(9, "toeplitz-test");
        assert!(ToeplitzHash::random(0, 1, &mut rng).is_err());
        assert!(ToeplitzHash::random(10, 0, &mut rng).is_err());
        assert!(ToeplitzHash::random(10, 11, &mut rng).is_err());
        assert!(ToeplitzHash::new(10, 5, BitVec::zeros(13)).is_err());
        let h = ToeplitzHash::random(100, 10, &mut rng).unwrap();
        assert!(matches!(
            h.hash(&BitVec::zeros(99), ToeplitzStrategy::Naive),
            Err(QkdError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn seed_accessors() {
        let mut rng = derive_rng(10, "toeplitz-test");
        let h = ToeplitzHash::random(100, 40, &mut rng).unwrap();
        assert_eq!(h.input_len(), 100);
        assert_eq!(h.output_len(), 40);
        assert_eq!(h.seed().len(), 139);
    }
}
