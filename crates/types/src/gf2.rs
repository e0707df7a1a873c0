//! GF(2) and GF(2^n) arithmetic helpers.
//!
//! Three building blocks live here:
//!
//! * carry-less multiplication ([`clmul64`] and the slice-level
//!   [`clmul_row`]), the primitive behind both Toeplitz hashing and
//!   polynomial MACs. On x86_64 hosts with `PCLMULQDQ` (detected at run time)
//!   it is one instruction per 64×64 product; everywhere else a branch-free
//!   shift/mask loop computes the same thing;
//! * [`Gf2_128`], the finite field GF(2^128) with the GCM reduction polynomial,
//!   used by the Wegman–Carter authenticator;
//! * [`BitMatrix`], a dense GF(2) matrix used for small linear-algebra tasks
//!   (random universal hash matrices, rank computations in tests).

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::bits::BitVec;

/// Carry-less (polynomial) multiplication of two 64-bit operands, returning
/// the full 128-bit product as `(low, high)`.
///
/// Runs on the CPU's carry-less-multiply unit (`PCLMULQDQ`) when the host has
/// one, otherwise in 64 branch-free shift/mask steps. Neither path branches on
/// an operand: in [`Gf2_128`] multiplication one of them is the MAC hash key.
pub fn clmul64(a: u64, b: u64) -> (u64, u64) {
    #[cfg(target_arch = "x86_64")]
    if let Some(product) = pclmul::clmul64(a, b) {
        return product;
    }
    clmul64_portable(a, b)
}

/// Multiplies every word of `b` by `a` and accumulates the products into
/// `acc` at the matching word offsets: `acc[j] ^= lo(a·b[j])` and
/// `acc[j + 1] ^= hi(a·b[j])`. One row of a word-blocked polynomial product —
/// the inner loop of the Toeplitz hash.
///
/// # Panics
///
/// Panics if `acc` is not longer than `b`.
pub fn clmul_row(a: u64, b: &[u64], acc: &mut [u64]) {
    assert!(
        acc.len() > b.len(),
        "accumulator must hold one word more than the multiplicand"
    );
    #[cfg(target_arch = "x86_64")]
    if pclmul::clmul_row(a, b, acc) {
        return;
    }
    clmul_row_portable(a, b, acc);
}

fn clmul64_portable(a: u64, b: u64) -> (u64, u64) {
    let mut lo = 0u64;
    let mut hi = 0u64;
    for i in 0..64 {
        // All-ones when bit `i` of `b` is set: a select, not a branch.
        let mask = ((b >> i) & 1).wrapping_neg();
        lo ^= (a << i) & mask;
        // `a >> (64 - i)` without the out-of-range shift at `i = 0`.
        hi ^= ((a >> 1) >> (63 - i)) & mask;
    }
    (lo, hi)
}

fn clmul_row_portable(a: u64, b: &[u64], acc: &mut [u64]) {
    let mut carry = 0u64;
    for (&bw, out) in b.iter().zip(acc.iter_mut()) {
        let (lo, hi) = clmul64_portable(a, bw);
        *out ^= lo ^ carry;
        carry = hi;
    }
    acc[b.len()] ^= carry;
}

/// The `PCLMULQDQ` bodies behind [`clmul64`] and [`clmul_row`], and the run
/// time feature test that guards them. The safe wrappers report whether the
/// hardware path ran; the caller falls back to the portable form otherwise.
#[cfg(target_arch = "x86_64")]
mod pclmul {
    #![allow(unsafe_code)]
    #![deny(unsafe_op_in_unsafe_fn)]

    use std::arch::x86_64::{
        __m128i, _mm_clmulepi64_si128, _mm_cvtsi128_si64, _mm_cvtsi64_si128, _mm_unpackhi_epi64,
    };

    pub(super) fn clmul64(a: u64, b: u64) -> Option<(u64, u64)> {
        if !std::arch::is_x86_feature_detected!("pclmulqdq") {
            return None;
        }
        // SAFETY: the feature test above proved `pclmulqdq` is available.
        Some(unsafe { mul(a, b) })
    }

    pub(super) fn clmul_row(a: u64, b: &[u64], acc: &mut [u64]) -> bool {
        if !std::arch::is_x86_feature_detected!("pclmulqdq") {
            return false;
        }
        // SAFETY: the feature test above proved `pclmulqdq` is available;
        // the kernel itself only touches memory through checked iterators
        // and one checked index.
        unsafe { row(a, b, acc) };
        true
    }

    /// Splits a 128-bit product into `(low, high)` words.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn split(p: __m128i) -> (u64, u64) {
        (
            _mm_cvtsi128_si64(p) as u64,
            _mm_cvtsi128_si64(_mm_unpackhi_epi64(p, p)) as u64,
        )
    }

    /// # Safety
    ///
    /// The host CPU must support `pclmulqdq`.
    #[target_feature(enable = "pclmulqdq")]
    unsafe fn mul(a: u64, b: u64) -> (u64, u64) {
        split(_mm_clmulepi64_si128(
            _mm_cvtsi64_si128(a as i64),
            _mm_cvtsi64_si128(b as i64),
            0,
        ))
    }

    /// The feature test is hoisted out of this loop by [`clmul_row`], and the
    /// body is compiled with the feature on so the intrinsic inlines.
    ///
    /// # Safety
    ///
    /// The host CPU must support `pclmulqdq`. `acc` must be longer than `b`
    /// (checked by the public wrapper; a violation panics, it is not UB).
    #[target_feature(enable = "pclmulqdq")]
    unsafe fn row(a: u64, b: &[u64], acc: &mut [u64]) {
        let a = _mm_cvtsi64_si128(a as i64);
        let mut carry = 0u64;
        for (&bw, out) in b.iter().zip(acc.iter_mut()) {
            let (lo, hi) = split(_mm_clmulepi64_si128(a, _mm_cvtsi64_si128(bw as i64), 0));
            *out ^= lo ^ carry;
            carry = hi;
        }
        acc[b.len()] ^= carry;
    }
}

/// An element of GF(2^128) using the GCM polynomial
/// `x^128 + x^7 + x^2 + x + 1`.
///
/// The representation is little-endian in the polynomial sense: bit 0 of
/// `lo` is the coefficient of `x^0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct Gf2_128 {
    /// Coefficients of x^0 .. x^63.
    pub lo: u64,
    /// Coefficients of x^64 .. x^127.
    pub hi: u64,
}

impl Gf2_128 {
    /// The additive identity.
    pub const ZERO: Gf2_128 = Gf2_128 { lo: 0, hi: 0 };
    /// The multiplicative identity.
    pub const ONE: Gf2_128 = Gf2_128 { lo: 1, hi: 0 };

    /// Builds an element from 16 little-endian bytes.
    pub fn from_bytes(bytes: &[u8; 16]) -> Self {
        let lo = u64::from_le_bytes(bytes[0..8].try_into().expect("slice length checked"));
        let hi = u64::from_le_bytes(bytes[8..16].try_into().expect("slice length checked"));
        Self { lo, hi }
    }

    /// Serialises the element to 16 little-endian bytes.
    pub fn to_bytes(self) -> [u8; 16] {
        let mut out = [0u8; 16];
        out[0..8].copy_from_slice(&self.lo.to_le_bytes());
        out[8..16].copy_from_slice(&self.hi.to_le_bytes());
        out
    }

    /// Draws a uniformly random element.
    pub fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        Self {
            lo: rng.gen(),
            hi: rng.gen(),
        }
    }

    /// Exponentiation by squaring.
    pub fn pow(self, mut exp: u64) -> Gf2_128 {
        let mut base = self;
        let mut acc = Gf2_128::ONE;
        while exp > 0 {
            if exp & 1 == 1 {
                acc = acc * base;
            }
            base = base * base;
            exp >>= 1;
        }
        acc
    }

    /// Returns `true` if this is the zero element.
    pub fn is_zero(self) -> bool {
        self.lo == 0 && self.hi == 0
    }
}

/// Field addition (XOR).
impl std::ops::Add for Gf2_128 {
    type Output = Gf2_128;

    fn add(self, other: Gf2_128) -> Gf2_128 {
        Gf2_128 {
            lo: self.lo ^ other.lo,
            hi: self.hi ^ other.hi,
        }
    }
}

/// Field multiplication modulo the GCM polynomial.
impl std::ops::Mul for Gf2_128 {
    type Output = Gf2_128;

    fn mul(self, other: Gf2_128) -> Gf2_128 {
        mul_gcm(self, other, clmul64)
    }
}

/// Field multiplication over a given 64×64 carry-less multiply. Production
/// code passes [`clmul64`]; the tests run the known answers through the
/// portable form as well.
fn mul_gcm(x: Gf2_128, y: Gf2_128, clmul: impl Fn(u64, u64) -> (u64, u64)) -> Gf2_128 {
    // Schoolbook product of 128x128 -> 256 bits using four 64x64 clmuls
    // (Karatsuba is unnecessary at this size for clarity).
    let (ll_lo, ll_hi) = clmul(x.lo, y.lo);
    let (lh_lo, lh_hi) = clmul(x.lo, y.hi);
    let (hl_lo, hl_hi) = clmul(x.hi, y.lo);
    let (hh_lo, hh_hi) = clmul(x.hi, y.hi);

    // 256-bit product in four 64-bit limbs d0..d3 (low to high).
    let d0 = ll_lo;
    let d1 = ll_hi ^ lh_lo ^ hl_lo;
    let d2 = lh_hi ^ hl_hi ^ hh_lo;
    let d3 = hh_hi;

    reduce_gcm([d0, d1, d2, d3], clmul)
}

/// Reduces a 256-bit polynomial (limbs low→high) modulo
/// `x^128 + x^7 + x^2 + x + 1`, using `x^128 ≡ r(x) = 0x87`.
fn reduce_gcm([d0, d1, d2, d3]: [u64; 4], clmul: impl Fn(u64, u64) -> (u64, u64)) -> Gf2_128 {
    let mut lo = d0;
    let mut hi = d1;

    // d2 · x^128 ≡ d2(x) · r(x), a polynomial of degree ≤ 70.
    let (a_lo, a_hi) = clmul(d2, 0x87);
    lo ^= a_lo;
    hi ^= a_hi;

    // d3 · x^192 ≡ d3(x) · r(x) · x^64; the part that overflows past x^127
    // (degree ≤ 13 after the fold) is reduced once more.
    let (b_lo, b_hi) = clmul(d3, 0x87);
    hi ^= b_lo;
    let (c_lo, c_hi) = clmul(b_hi, 0x87);
    debug_assert_eq!(
        c_hi, 0,
        "double fold of a degree-7 overflow cannot overflow again"
    );
    lo ^= c_lo;

    Gf2_128 { lo, hi }
}

/// A dense GF(2) matrix stored row-major as packed 64-bit words.
///
/// Intended for moderate sizes (up to a few thousand rows/columns): random
/// universal-hash matrices, rank checks in tests, and reference
/// implementations that the optimised kernels are validated against.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BitMatrix {
    rows: usize,
    cols: usize,
    row_data: Vec<BitVec>,
}

impl BitMatrix {
    /// Creates an all-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            row_data: vec![BitVec::zeros(cols); rows],
        }
    }

    /// Creates the identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, true);
        }
        m
    }

    /// Creates a uniformly random matrix.
    pub fn random<R: Rng + ?Sized>(rng: &mut R, rows: usize, cols: usize) -> Self {
        let row_data = (0..rows).map(|_| BitVec::random(rng, cols)).collect();
        Self {
            rows,
            cols,
            row_data,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns entry `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn get(&self, r: usize, c: usize) -> bool {
        assert!(r < self.rows, "row {r} out of range");
        self.row_data[r].get(c)
    }

    /// Sets entry `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn set(&mut self, r: usize, c: usize, v: bool) {
        assert!(r < self.rows, "row {r} out of range");
        self.row_data[r].set(c, v);
    }

    /// Returns row `r` as a [`BitVec`].
    pub fn row(&self, r: usize) -> &BitVec {
        &self.row_data[r]
    }

    /// Matrix–vector product over GF(2): `y = M x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols()`.
    pub fn mul_vec(&self, x: &BitVec) -> BitVec {
        assert_eq!(x.len(), self.cols, "vector length must equal column count");
        let mut y = BitVec::zeros(self.rows);
        for (r, row) in self.row_data.iter().enumerate() {
            let mut acc = 0u64;
            for (a, b) in row.as_words().iter().zip(x.as_words()) {
                acc ^= a & b;
            }
            if acc.count_ones() % 2 == 1 {
                y.set(r, true);
            }
        }
        y
    }

    /// Rank of the matrix over GF(2), computed by Gaussian elimination on a
    /// copy.
    pub fn rank(&self) -> usize {
        let mut rows: Vec<BitVec> = self.row_data.clone();
        let mut rank = 0;
        let mut pivot_col = 0;
        while pivot_col < self.cols && rank < rows.len() {
            if let Some(pivot_row) = (rank..rows.len()).find(|&r| rows[r].get(pivot_col)) {
                rows.swap(rank, pivot_row);
                let pivot = rows[rank].clone();
                for (r, row) in rows.iter_mut().enumerate() {
                    if r != rank && row.get(pivot_col) {
                        row.xor_assign(&pivot);
                    }
                }
                rank += 1;
            }
            pivot_col += 1;
        }
        rank
    }

    /// XORs row `src` into row `dst`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range or the two are equal.
    pub fn xor_rows(&mut self, dst: usize, src: usize) {
        assert!(dst != src, "cannot xor a row into itself");
        assert!(dst < self.rows && src < self.rows, "row index out of range");
        let src_row = self.row_data[src].clone();
        self.row_data[dst].xor_assign(&src_row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn clmul_small_cases() {
        assert_eq!(clmul64(0, 12345), (0, 0));
        assert_eq!(clmul64(1, 0xDEAD), (0xDEAD, 0));
        // x * x = x^2
        assert_eq!(clmul64(2, 2), (4, 0));
        // (x^63) * x = x^64 -> carries into hi
        assert_eq!(clmul64(1 << 63, 2), (0, 1));
        // (x+1)(x+1) = x^2 + 1 over GF(2)
        assert_eq!(clmul64(3, 3), (5, 0));
    }

    #[test]
    fn clmul_is_commutative() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            let a: u64 = rng.gen();
            let b: u64 = rng.gen();
            assert_eq!(clmul64(a, b), clmul64(b, a));
        }
    }

    /// Operands that exercise every carry position: zero, one, all ones, a
    /// lone top bit, plus random words.
    fn operands() -> Vec<u64> {
        let mut rng = StdRng::seed_from_u64(9);
        let mut v = vec![0, 1, u64::MAX, 1 << 63];
        v.extend((0..28).map(|_| rng.gen::<u64>()));
        v
    }

    #[test]
    fn portable_clmul_matches_the_bitwise_definition() {
        for &a in &operands() {
            for &b in &operands() {
                let mut wide = 0u128;
                for i in 0..64 {
                    if (b >> i) & 1 == 1 {
                        wide ^= (a as u128) << i;
                    }
                }
                assert_eq!(
                    clmul64_portable(a, b),
                    (wide as u64, (wide >> 64) as u64),
                    "{a:#x} * {b:#x}"
                );
            }
        }
    }

    #[test]
    fn dispatched_clmul_matches_the_portable_form() {
        // On a host with `pclmulqdq` the left side is the hardware path, so
        // both bodies run in one test binary without any switch.
        let ops = operands();
        for &a in &ops {
            for &b in &ops {
                assert_eq!(clmul64(a, b), clmul64_portable(a, b), "{a:#x} * {b:#x}");
            }
            for len in [0, 1, 2, 7, ops.len()] {
                // A non-zero accumulator: the kernel must xor, not store.
                let mut fast: Vec<u64> = (0..=len)
                    .map(|k| ops[k % ops.len()].rotate_left(7))
                    .collect();
                let mut slow = fast.clone();
                clmul_row(a, &ops[..len], &mut fast);
                clmul_row_portable(a, &ops[..len], &mut slow);
                assert_eq!(fast, slow, "row of {len} words by {a:#x}");
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn hardware_path_is_taken_where_the_cpu_has_it() {
        let detected = std::arch::is_x86_feature_detected!("pclmulqdq");
        assert_eq!(pclmul::clmul64(3, 3).is_some(), detected);
        let mut acc = [0u64; 2];
        assert_eq!(pclmul::clmul_row(3, &[3], &mut acc), detected);
        if detected {
            assert_eq!(acc, [5, 0]);
        }
    }

    #[test]
    fn clmul_row_is_a_row_of_the_schoolbook_product() {
        let ops = operands();
        let a = ops[5];
        let mut acc = vec![0u64; ops.len() + 1];
        clmul_row(a, &ops, &mut acc);
        let mut expected = vec![0u64; ops.len() + 1];
        for (j, &b) in ops.iter().enumerate() {
            let (lo, hi) = clmul64(a, b);
            expected[j] ^= lo;
            expected[j + 1] ^= hi;
        }
        assert_eq!(acc, expected);
    }

    #[test]
    #[should_panic(expected = "one word more")]
    fn clmul_row_rejects_a_short_accumulator() {
        clmul_row(1, &[1, 2], &mut [0, 0]);
    }

    /// A GCM-spec block (bit 0 of the first byte is the coefficient of
    /// `x^0`) in this module's little-endian polynomial representation.
    fn gcm_block(block: u128) -> Gf2_128 {
        Gf2_128::from_bytes(&block.to_be_bytes().map(u8::reverse_bits))
    }

    /// Every known answer, through the dispatched and the portable multiply.
    fn both_multipliers(check: impl Fn(&dyn Fn(Gf2_128, Gf2_128) -> Gf2_128)) {
        check(&|x, y| x * y);
        check(&|x, y| mul_gcm(x, y, clmul64_portable));
    }

    #[test]
    fn gf128_known_answers() {
        both_multipliers(|mul| {
            // GCM specification (McGrew & Viega), test case 2: X1 = C · H and
            // GHASH(H, {}, C) = (X1 + len) · H.
            let h = gcm_block(0x66e94bd4ef8a2c3b884cfa59ca342b2e);
            let c = gcm_block(0x0388dace60b6a392f328c2b971b2fe78);
            let x1 = mul(c, h);
            assert_eq!(x1, gcm_block(0x5e2ec746917062882c85b0685353deb7));
            assert_eq!(
                mul(x1 + gcm_block(0x80), h),
                gcm_block(0xf38cbb1ad69223dcc3457ae5b6b0f885)
            );
            // x · x⁻¹ = 1 with x⁻¹ = x^127 + x^6 + x + 1.
            let x = Gf2_128 { lo: 2, hi: 0 };
            let x_inv = Gf2_128 {
                lo: 0x43,
                hi: 1 << 63,
            };
            assert_eq!(mul(x, x_inv), Gf2_128::ONE);
            // A random element times its Fermat inverse a^(2^128 − 2).
            let a = Gf2_128::random(&mut StdRng::seed_from_u64(12));
            let (mut inv, mut square) = (Gf2_128::ONE, a);
            for _ in 1..128 {
                square = mul(square, square);
                inv = mul(inv, square);
            }
            assert_eq!(mul(a, inv), Gf2_128::ONE);
        });
    }

    #[test]
    fn reduce_gcm_folds_the_top_coefficient_twice() {
        // x^255 = x^127 · r(x) ≡ x^127 + x^13 + x^6 + x^3 + 1: the only
        // input whose second fold (`b_hi`) is exercised at full degree.
        let expected = Gf2_128 {
            lo: 0x2049,
            hi: 1 << 63,
        };
        assert_eq!(reduce_gcm([0, 0, 0, 1 << 63], clmul64), expected);
        assert_eq!(reduce_gcm([0, 0, 0, 1 << 63], clmul64_portable), expected);
    }

    #[test]
    fn gf128_identity_and_zero() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..20 {
            let a = Gf2_128::random(&mut rng);
            assert_eq!(a * Gf2_128::ONE, a);
            assert_eq!(a * Gf2_128::ZERO, Gf2_128::ZERO);
            assert_eq!(a + a, Gf2_128::ZERO);
            assert_eq!(a + Gf2_128::ZERO, a);
        }
    }

    #[test]
    fn gf128_mul_commutative_and_associative() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..20 {
            let a = Gf2_128::random(&mut rng);
            let b = Gf2_128::random(&mut rng);
            let c = Gf2_128::random(&mut rng);
            assert_eq!(a * b, b * a);
            assert_eq!((a * b) * c, a * (b * c));
            // distributivity
            assert_eq!(a * (b + c), a * b + a * c);
        }
    }

    #[test]
    fn gf128_pow_matches_repeated_mul() {
        let mut rng = StdRng::seed_from_u64(4);
        let a = Gf2_128::random(&mut rng);
        let mut acc = Gf2_128::ONE;
        for e in 0..10u64 {
            assert_eq!(a.pow(e), acc);
            acc = acc * a;
        }
    }

    #[test]
    fn gf128_bytes_roundtrip() {
        let mut rng = StdRng::seed_from_u64(5);
        let a = Gf2_128::random(&mut rng);
        assert_eq!(Gf2_128::from_bytes(&a.to_bytes()), a);
    }

    #[test]
    fn gf128_x_to_128_reduces_to_pentanomial() {
        // x^64 squared = x^128 ≡ x^7 + x^2 + x + 1 = 0x87.
        let x64 = Gf2_128 { lo: 0, hi: 1 };
        assert_eq!(x64 * x64, Gf2_128 { lo: 0x87, hi: 0 });
    }

    #[test]
    fn bitmatrix_identity_mul() {
        let mut rng = StdRng::seed_from_u64(6);
        let m = BitMatrix::identity(50);
        let x = BitVec::random(&mut rng, 50);
        assert_eq!(m.mul_vec(&x), x);
        assert_eq!(m.rank(), 50);
    }

    #[test]
    fn bitmatrix_mul_matches_naive() {
        let mut rng = StdRng::seed_from_u64(7);
        let m = BitMatrix::random(&mut rng, 33, 70);
        let x = BitVec::random(&mut rng, 70);
        let fast = m.mul_vec(&x);
        for r in 0..33 {
            let mut acc = false;
            for c in 0..70 {
                acc ^= m.get(r, c) & x.get(c);
            }
            assert_eq!(fast.get(r), acc, "row {r}");
        }
    }

    #[test]
    fn bitmatrix_rank_of_duplicated_rows() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut m = BitMatrix::random(&mut rng, 10, 40);
        // duplicate row 0 into row 9 -> rank can be at most 9
        let row0 = m.row(0).clone();
        for c in 0..40 {
            m.set(9, c, row0.get(c));
        }
        assert!(m.rank() <= 9);
    }

    #[test]
    fn bitmatrix_xor_rows() {
        let mut m = BitMatrix::zeros(2, 4);
        m.set(0, 1, true);
        m.set(1, 1, true);
        m.set(1, 2, true);
        m.xor_rows(0, 1);
        assert!(!m.get(0, 1));
        assert!(m.get(0, 2));
    }
}
