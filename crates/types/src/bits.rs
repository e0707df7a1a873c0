//! Packed bit strings.
//!
//! [`BitVec`] stores bits in 64-bit words (LSB-first within a word). It is the
//! workhorse container for raw, sifted, reconciled and secret keys as well as
//! for LDPC codewords, syndromes and Toeplitz hash inputs. All hot operations
//! (XOR, Hamming weight/distance, parity) work word-at-a-time.

use std::fmt;
use std::ops::{BitXor, BitXorAssign, Index};

use rand::Rng;
use serde::{Deserialize, Serialize};

/// Number of bits per storage word.
const WORD_BITS: usize = 64;

/// A growable, packed vector of bits.
///
/// Bits are stored LSB-first inside `u64` words. Trailing bits of the final
/// word beyond [`BitVec::len`] are always kept at zero; this invariant lets
/// word-level operations (weight, parity, equality) ignore the tail.
///
/// # Example
///
/// ```
/// use qkd_types::BitVec;
///
/// let a = BitVec::from_bools(&[true, false, true, true]);
/// assert_eq!(a.len(), 4);
/// assert_eq!(a.count_ones(), 3);
/// assert!(a.get(0));
/// assert!(!a.get(1));
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct BitVec {
    words: Vec<u64>,
    len: usize,
}

impl BitVec {
    /// Creates an empty bit vector.
    pub fn new() -> Self {
        Self {
            words: Vec::new(),
            len: 0,
        }
    }

    /// Creates an empty bit vector with capacity for `bits` bits.
    pub fn with_capacity(bits: usize) -> Self {
        Self {
            words: Vec::with_capacity(words_for(bits)),
            len: 0,
        }
    }

    /// Creates a bit vector of `len` zero bits.
    pub fn zeros(len: usize) -> Self {
        Self {
            words: vec![0u64; words_for(len)],
            len,
        }
    }

    /// Creates a bit vector of `len` one bits.
    pub fn ones(len: usize) -> Self {
        let mut v = Self {
            words: vec![u64::MAX; words_for(len)],
            len,
        };
        v.mask_tail();
        v
    }

    /// Creates a bit vector from a slice of booleans.
    pub fn from_bools(bools: &[bool]) -> Self {
        let mut v = Self::with_capacity(bools.len());
        for &b in bools {
            v.push(b);
        }
        v
    }

    /// Creates a bit vector of length `len` from packed little-endian bytes.
    ///
    /// Bit `i` is taken from byte `i / 8`, bit position `i % 8` (LSB first).
    ///
    /// # Panics
    ///
    /// Panics if `bytes` holds fewer than `len` bits.
    pub fn from_bytes(bytes: &[u8], len: usize) -> Self {
        assert!(
            bytes.len() * 8 >= len,
            "byte slice too short for requested bit length"
        );
        let mut words = vec![0u64; words_for(len)];
        for (i, &b) in bytes.iter().enumerate() {
            let word = i / 8;
            if word >= words.len() {
                break;
            }
            words[word] |= (b as u64) << ((i % 8) * 8);
        }
        let mut v = Self { words, len };
        v.mask_tail();
        v
    }

    /// Creates a bit vector of `len` uniformly random bits.
    pub fn random<R: Rng + ?Sized>(rng: &mut R, len: usize) -> Self {
        let mut words = vec![0u64; words_for(len)];
        for w in &mut words {
            *w = rng.gen();
        }
        let mut v = Self { words, len };
        v.mask_tail();
        v
    }

    /// Creates a bit vector where each bit is one with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn random_with_density<R: Rng + ?Sized>(rng: &mut R, len: usize, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability must lie in [0, 1]");
        let mut v = Self::zeros(len);
        for i in 0..len {
            if rng.gen_bool(p) {
                v.set(i, true);
            }
        }
        v
    }

    /// Number of bits stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the vector holds no bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns bit `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    #[inline]
    pub fn get(&self, index: usize) -> bool {
        assert!(
            index < self.len,
            "bit index {index} out of range for length {}",
            self.len
        );
        (self.words[index / WORD_BITS] >> (index % WORD_BITS)) & 1 == 1
    }

    /// Sets bit `index` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    #[inline]
    pub fn set(&mut self, index: usize, value: bool) {
        assert!(
            index < self.len,
            "bit index {index} out of range for length {}",
            self.len
        );
        let mask = 1u64 << (index % WORD_BITS);
        if value {
            self.words[index / WORD_BITS] |= mask;
        } else {
            self.words[index / WORD_BITS] &= !mask;
        }
    }

    /// Flips bit `index`, returning its new value.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    #[inline]
    pub fn flip(&mut self, index: usize) -> bool {
        assert!(
            index < self.len,
            "bit index {index} out of range for length {}",
            self.len
        );
        self.words[index / WORD_BITS] ^= 1u64 << (index % WORD_BITS);
        self.get(index)
    }

    /// Appends a bit.
    pub fn push(&mut self, value: bool) {
        if self.len % WORD_BITS == 0 {
            self.words.push(0);
        }
        self.len += 1;
        if value {
            let idx = self.len - 1;
            self.words[idx / WORD_BITS] |= 1u64 << (idx % WORD_BITS);
        }
    }

    /// Removes and returns the last bit, or `None` when empty.
    pub fn pop(&mut self) -> Option<bool> {
        if self.len == 0 {
            return None;
        }
        let bit = self.get(self.len - 1);
        self.len -= 1;
        self.words.truncate(words_for(self.len));
        self.mask_tail();
        Some(bit)
    }

    /// Truncates the vector to `len` bits. Does nothing if already shorter.
    pub fn truncate(&mut self, len: usize) {
        if len < self.len {
            self.len = len;
            self.words.truncate(words_for(len));
            self.mask_tail();
        }
    }

    /// Resets the vector to `len` zero bits, keeping the allocation.
    ///
    /// Equivalent to `*self = BitVec::zeros(len)` without giving up the
    /// buffer — the reuse primitive for hot paths that recompute into the
    /// same vector (e.g. syndromes across a rate ladder).
    pub fn reset_zeros(&mut self, len: usize) {
        self.words.clear();
        self.words.resize(words_for(len), 0);
        self.len = len;
    }

    /// Appends all bits of `other`.
    ///
    /// Works word-at-a-time: onto a word boundary it is a plain word copy,
    /// otherwise each incoming word tops up the partial last word and starts
    /// the next one (the mirror image of the unaligned arm of
    /// [`BitVec::slice`]).
    pub fn extend_from(&mut self, other: &BitVec) {
        let shift = self.len % WORD_BITS;
        let total_words = words_for(self.len + other.len);
        // Grow once, and never past the final word count: a secret buffer
        // sized for its contents must not reallocate (and leave an unwiped
        // copy behind) because of a transient surplus word.
        self.words.reserve(total_words - self.words.len());
        if shift == 0 {
            self.words.extend_from_slice(&other.words);
        } else {
            // `shift != 0` means a partial last word exists, with its unused
            // high bits at zero.
            for (last, &word) in (self.words.len() - 1..).zip(&other.words) {
                self.words[last] |= word << shift;
                // Only the final spill can fall outside the result, and then
                // it is all zero (`other`'s tail bits are).
                if self.words.len() < total_words {
                    self.words.push(word >> (WORD_BITS - shift));
                }
            }
        }
        self.len += other.len;
        self.mask_tail();
    }

    /// Number of one bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of zero bits.
    pub fn count_zeros(&self) -> usize {
        self.len - self.count_ones()
    }

    /// Parity (XOR of all bits): `true` when the number of ones is odd.
    pub fn parity(&self) -> bool {
        self.words.iter().fold(0u64, |acc, w| acc ^ w).count_ones() % 2 == 1
    }

    /// Parity of the bits in `range` (half-open `[start, end)`).
    ///
    /// # Panics
    ///
    /// Panics if `end > len()` or `start > end`.
    pub fn parity_range(&self, start: usize, end: usize) -> bool {
        assert!(
            start <= end && end <= self.len,
            "invalid parity range {start}..{end}"
        );
        if start == end {
            return false;
        }
        let (sw, sb) = (start / WORD_BITS, start % WORD_BITS);
        let (ew, eb) = ((end - 1) / WORD_BITS, (end - 1) % WORD_BITS + 1);
        let mut acc = 0u64;
        if sw == ew {
            let mask = mask_range(sb, eb);
            acc ^= self.words[sw] & mask;
        } else {
            acc ^= self.words[sw] & mask_range(sb, WORD_BITS);
            for w in &self.words[sw + 1..ew] {
                acc ^= w;
            }
            acc ^= self.words[ew] & mask_range(0, eb);
        }
        acc.count_ones() % 2 == 1
    }

    /// Hamming distance to `other`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn hamming_distance(&self, other: &BitVec) -> usize {
        assert_eq!(
            self.len, other.len,
            "hamming distance requires equal lengths"
        );
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a ^ b).count_ones() as usize)
            .sum()
    }

    /// In-place XOR with `other`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn xor_assign(&mut self, other: &BitVec) {
        assert_eq!(self.len, other.len, "xor requires equal lengths");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a ^= b;
        }
    }

    /// Returns a sub-vector covering bits `[start, end)`.
    ///
    /// Works word-at-a-time: an aligned start is a plain word copy, an
    /// unaligned one a shift-merge of adjacent words.
    ///
    /// # Panics
    ///
    /// Panics if `end > len()` or `start > end`.
    pub fn slice(&self, start: usize, end: usize) -> BitVec {
        assert!(
            start <= end && end <= self.len,
            "invalid slice range {start}..{end}"
        );
        let len = end - start;
        let mut out = BitVec::zeros(len);
        if len == 0 {
            return out;
        }
        let (sw, sb) = (start / WORD_BITS, start % WORD_BITS);
        let out_words = out.words.len();
        if sb == 0 {
            out.words.copy_from_slice(&self.words[sw..sw + out_words]);
        } else {
            for (i, word) in out.words.iter_mut().enumerate() {
                let lo = self.words[sw + i] >> sb;
                let hi = self
                    .words
                    .get(sw + i + 1)
                    .map_or(0, |w| w << (WORD_BITS - sb));
                *word = lo | hi;
            }
        }
        out.mask_tail();
        out
    }

    /// Builds a new vector from the bits at `indices` (in order).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn gather(&self, indices: &[usize]) -> BitVec {
        let mut out = BitVec::zeros(indices.len());
        for (j, &i) in indices.iter().enumerate() {
            if self.get(i) {
                out.set(j, true);
            }
        }
        out
    }

    /// Removes the bits at `indices` (must be sorted ascending, unique) and
    /// returns the remaining bits in order.
    ///
    /// Works run-at-a-time: the bits between two consecutive removed indices
    /// move up to 64 per step (a shift-merge read and a shift-merge write).
    ///
    /// # Panics
    ///
    /// Panics if indices are not strictly increasing or out of range.
    pub fn remove_indices(&self, indices: &[usize]) -> BitVec {
        for w in indices.windows(2) {
            assert!(w[0] < w[1], "indices must be strictly increasing");
        }
        if let Some(&last) = indices.last() {
            assert!(last < self.len, "index {last} out of range");
        }
        let mut out = BitVec::zeros(self.len - indices.len());
        let mut written = 0;
        let mut start = 0;
        for &end in indices.iter().chain(std::iter::once(&self.len)) {
            while start < end {
                let take = (end - start).min(WORD_BITS);
                let (sw, sb) = (start / WORD_BITS, start % WORD_BITS);
                let mut bits = self.words[sw] >> sb;
                if sb + take > WORD_BITS {
                    bits |= self.words[sw + 1] << (WORD_BITS - sb);
                }
                bits &= mask_range(0, take);
                let (ow, ob) = (written / WORD_BITS, written % WORD_BITS);
                out.words[ow] |= bits << ob;
                if ob + take > WORD_BITS {
                    out.words[ow + 1] |= bits >> (WORD_BITS - ob);
                }
                start += take;
                written += take;
            }
            start = end + 1;
        }
        out
    }

    /// Iterator over the bits.
    pub fn iter(&self) -> Iter<'_> {
        Iter { vec: self, pos: 0 }
    }

    /// Returns the positions of all one bits.
    pub fn one_positions(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.count_ones());
        for (wi, &w) in self.words.iter().enumerate() {
            let mut word = w;
            while word != 0 {
                let tz = word.trailing_zeros() as usize;
                out.push(wi * WORD_BITS + tz);
                word &= word - 1;
            }
        }
        out
    }

    /// Converts to a `Vec<bool>`.
    pub fn to_bools(&self) -> Vec<bool> {
        self.iter().collect()
    }

    /// Converts to packed little-endian bytes (bit `i` at byte `i/8`, LSB first).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = vec![0u8; self.len.div_ceil(8)];
        for (i, byte) in out.iter_mut().enumerate() {
            let word = self.words.get(i / 8).copied().unwrap_or(0);
            *byte = (word >> ((i % 8) * 8)) as u8;
        }
        out
    }

    /// Access to the underlying words (tail bits beyond `len` are zero).
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }

    /// Mutable access to the underlying words.
    ///
    /// Callers must keep tail bits beyond `len` at zero; use
    /// [`BitVec::mask_tail`]-equivalent behaviour by never setting them.
    pub fn as_words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Fraction of positions where `self` and `other` differ.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ or the vectors are empty.
    pub fn error_rate(&self, other: &BitVec) -> f64 {
        assert!(!self.is_empty(), "error rate of empty vectors is undefined");
        self.hamming_distance(other) as f64 / self.len as f64
    }

    fn mask_tail(&mut self) {
        let rem = self.len % WORD_BITS;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
        // Drop extra words if any (can happen after truncate).
        let needed = words_for(self.len);
        self.words.truncate(needed);
        while self.words.len() < needed {
            self.words.push(0);
        }
    }
}

/// Mask with ones in bit positions `[start, end)` of a word.
fn mask_range(start: usize, end: usize) -> u64 {
    debug_assert!(start <= end && end <= WORD_BITS);
    if end - start == WORD_BITS {
        u64::MAX
    } else {
        ((1u64 << (end - start)) - 1) << start
    }
}

fn words_for(bits: usize) -> usize {
    bits.div_ceil(WORD_BITS)
}

impl fmt::Debug for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitVec[{}; ", self.len)?;
        let shown = self.len.min(64);
        for i in 0..shown {
            write!(f, "{}", u8::from(self.get(i)))?;
        }
        if self.len > shown {
            write!(f, "…")?;
        }
        write!(f, "]")
    }
}

impl fmt::Display for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.len {
            write!(f, "{}", u8::from(self.get(i)))?;
        }
        Ok(())
    }
}

impl Index<usize> for BitVec {
    type Output = bool;

    fn index(&self, index: usize) -> &bool {
        if self.get(index) {
            &true
        } else {
            &false
        }
    }
}

impl BitXorAssign<&BitVec> for BitVec {
    fn bitxor_assign(&mut self, rhs: &BitVec) {
        self.xor_assign(rhs);
    }
}

impl BitXor<&BitVec> for &BitVec {
    type Output = BitVec;

    fn bitxor(self, rhs: &BitVec) -> BitVec {
        let mut out = self.clone();
        out.xor_assign(rhs);
        out
    }
}

impl FromIterator<bool> for BitVec {
    fn from_iter<T: IntoIterator<Item = bool>>(iter: T) -> Self {
        let mut v = BitVec::new();
        for b in iter {
            v.push(b);
        }
        v
    }
}

impl Extend<bool> for BitVec {
    fn extend<T: IntoIterator<Item = bool>>(&mut self, iter: T) {
        for b in iter {
            self.push(b);
        }
    }
}

impl<'a> IntoIterator for &'a BitVec {
    type Item = bool;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// Iterator over the bits of a [`BitVec`].
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    vec: &'a BitVec,
    pos: usize,
}

impl Iterator for Iter<'_> {
    type Item = bool;

    fn next(&mut self) -> Option<bool> {
        if self.pos < self.vec.len() {
            let b = self.vec.get(self.pos);
            self.pos += 1;
            Some(b)
        } else {
            None
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.vec.len() - self.pos;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for Iter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zeros_and_ones_have_expected_weight() {
        assert_eq!(BitVec::zeros(100).count_ones(), 0);
        assert_eq!(BitVec::ones(100).count_ones(), 100);
        assert_eq!(BitVec::ones(100).count_zeros(), 0);
    }

    #[test]
    fn ones_tail_is_masked() {
        let v = BitVec::ones(70);
        assert_eq!(v.as_words().len(), 2);
        assert_eq!(v.as_words()[1], (1u64 << 6) - 1);
    }

    #[test]
    fn push_pop_roundtrip() {
        let mut v = BitVec::new();
        let pattern = [true, false, true, true, false];
        for &b in &pattern {
            v.push(b);
        }
        assert_eq!(v.len(), 5);
        for &b in pattern.iter().rev() {
            assert_eq!(v.pop(), Some(b));
        }
        assert_eq!(v.pop(), None);
    }

    #[test]
    fn get_set_flip() {
        let mut v = BitVec::zeros(130);
        v.set(0, true);
        v.set(64, true);
        v.set(129, true);
        assert!(v.get(0) && v.get(64) && v.get(129));
        assert!(!v.get(1));
        assert!(!v.flip(0));
        assert!(v.flip(1));
        assert_eq!(v.count_ones(), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        BitVec::zeros(8).get(8);
    }

    #[test]
    fn from_bools_and_back() {
        let bools = vec![true, false, false, true, true, false, true];
        let v = BitVec::from_bools(&bools);
        assert_eq!(v.to_bools(), bools);
    }

    #[test]
    fn bytes_roundtrip() {
        let bytes = [0xAB, 0xCD, 0x01];
        let v = BitVec::from_bytes(&bytes, 24);
        assert_eq!(v.to_bytes(), bytes);
        let v5 = BitVec::from_bytes(&bytes, 5);
        assert_eq!(v5.len(), 5);
        assert_eq!(v5.to_bytes(), [0xAB & 0x1F]);
    }

    #[test]
    fn xor_and_hamming() {
        let a = BitVec::from_bools(&[true, true, false, false]);
        let b = BitVec::from_bools(&[true, false, true, false]);
        assert_eq!(a.hamming_distance(&b), 2);
        let c = &a ^ &b;
        assert_eq!(c.to_bools(), vec![false, true, true, false]);
        let mut d = a.clone();
        d ^= &b;
        assert_eq!(d, c);
    }

    #[test]
    fn parity_matches_count() {
        let mut rng = StdRng::seed_from_u64(7);
        for len in [1, 63, 64, 65, 200] {
            let v = BitVec::random(&mut rng, len);
            assert_eq!(v.parity(), v.count_ones() % 2 == 1);
        }
    }

    #[test]
    fn parity_range_matches_slice_parity() {
        let mut rng = StdRng::seed_from_u64(11);
        let v = BitVec::random(&mut rng, 300);
        for &(s, e) in &[(0, 0), (0, 300), (5, 64), (64, 128), (63, 65), (10, 201)] {
            assert_eq!(
                v.parity_range(s, e),
                v.slice(s, e).parity(),
                "range {s}..{e}"
            );
        }
    }

    #[test]
    fn slice_and_gather() {
        let v = BitVec::from_bools(&[true, false, true, true, false, true]);
        assert_eq!(v.slice(1, 4).to_bools(), vec![false, true, true]);
        assert_eq!(v.gather(&[0, 5, 1]).to_bools(), vec![true, true, false]);
    }

    #[test]
    fn word_wise_slice_matches_bit_by_bit() {
        let mut rng = StdRng::seed_from_u64(29);
        let v = BitVec::random(&mut rng, 517);
        for &(s, e) in &[
            (0usize, 0usize),
            (0, 517),
            (64, 256),
            (63, 65),
            (1, 517),
            (130, 131),
            (65, 449),
            (500, 517),
        ] {
            let fast = v.slice(s, e);
            let slow: BitVec = (s..e).map(|i| v.get(i)).collect();
            assert_eq!(fast, slow, "slice {s}..{e}");
        }
    }

    #[test]
    fn reset_zeros_keeps_capacity_and_clears_bits() {
        let mut v = BitVec::ones(200);
        v.reset_zeros(70);
        assert_eq!(v.len(), 70);
        assert_eq!(v.count_ones(), 0);
        v.set(69, true);
        assert_eq!(v.count_ones(), 1);
        v.reset_zeros(300);
        assert_eq!(v.len(), 300);
        assert_eq!(v.count_ones(), 0);
    }

    #[test]
    fn remove_indices_keeps_order() {
        let v = BitVec::from_bools(&[true, false, true, true, false, true]);
        let out = v.remove_indices(&[1, 4]);
        assert_eq!(out.to_bools(), vec![true, true, true, true]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn remove_indices_rejects_unsorted_indices() {
        BitVec::zeros(100).remove_indices(&[7, 7]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn remove_indices_rejects_an_index_past_the_end() {
        BitVec::zeros(100).remove_indices(&[3, 100]);
    }

    #[test]
    fn extend_from_word_aligned_and_unaligned() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = BitVec::random(&mut rng, 128);
        let b = BitVec::random(&mut rng, 37);
        // aligned
        let mut c = a.clone();
        c.extend_from(&b);
        assert_eq!(c.len(), 165);
        for i in 0..128 {
            assert_eq!(c.get(i), a.get(i));
        }
        for i in 0..37 {
            assert_eq!(c.get(128 + i), b.get(i));
        }
        // unaligned
        let mut d = b.clone();
        d.extend_from(&a);
        assert_eq!(d.len(), 165);
        for i in 0..128 {
            assert_eq!(d.get(37 + i), a.get(i));
        }
    }

    #[test]
    fn extend_from_matches_bit_by_bit_at_every_alignment() {
        let mut rng = StdRng::seed_from_u64(31);
        let lengths = [0usize, 1, 63, 64, 65, 127, 128, 129, 191, 200];
        let mut cases: Vec<(usize, usize)> = lengths
            .iter()
            .flat_map(|&a| lengths.iter().map(move |&b| (a, b)))
            .collect();
        cases.extend((0..200).map(|_| (rng.gen_range(0..400usize), rng.gen_range(0..400usize))));
        for (head, tail) in cases {
            let a = BitVec::random(&mut rng, head);
            let b = BitVec::random(&mut rng, tail);
            let mut fast = a.clone();
            fast.extend_from(&b);
            let slow: BitVec = a.iter().chain(b.iter()).collect();
            assert_eq!(fast, slow, "{head} + {tail} bits");
            assert_eq!(fast.as_words().len(), (head + tail).div_ceil(64));
            // A buffer sized for the result is never reallocated.
            let mut sized = BitVec::with_capacity(head + tail);
            sized.extend_from(&a);
            let storage = sized.as_words().as_ptr();
            sized.extend_from(&b);
            assert_eq!(sized, slow);
            assert!(head == 0 || sized.as_words().as_ptr() == storage);
            // The tail invariant survives: appending again stays exact.
            fast.extend_from(&b);
            let slow: BitVec = slow.iter().chain(b.iter()).collect();
            assert_eq!(fast, slow, "{head} + 2 × {tail} bits");
        }
    }

    #[test]
    fn ones_positions() {
        let v = BitVec::from_bools(&[false, true, false, true, true]);
        assert_eq!(v.one_positions(), vec![1, 3, 4]);
    }

    #[test]
    fn random_with_density_bounds() {
        let mut rng = StdRng::seed_from_u64(42);
        let v = BitVec::random_with_density(&mut rng, 10_000, 0.05);
        let frac = v.count_ones() as f64 / 10_000.0;
        assert!((0.03..0.07).contains(&frac), "frac {frac} not near 0.05");
        assert_eq!(
            BitVec::random_with_density(&mut rng, 100, 0.0).count_ones(),
            0
        );
        assert_eq!(
            BitVec::random_with_density(&mut rng, 100, 1.0).count_ones(),
            100
        );
    }

    #[test]
    fn error_rate_counts_fraction() {
        let a = BitVec::zeros(100);
        let mut b = BitVec::zeros(100);
        for i in 0..5 {
            b.set(i * 10, true);
        }
        assert!((a.error_rate(&b) - 0.05).abs() < 1e-12);
    }

    #[test]
    fn truncate_clears_tail() {
        let mut v = BitVec::ones(100);
        v.truncate(65);
        assert_eq!(v.len(), 65);
        assert_eq!(v.count_ones(), 65);
        v.truncate(10);
        assert_eq!(v.count_ones(), 10);
        // pushing after truncate must not resurrect old bits
        v.push(false);
        assert_eq!(v.count_ones(), 10);
    }

    #[test]
    fn display_and_debug() {
        let v = BitVec::from_bools(&[true, false, true]);
        assert_eq!(v.to_string(), "101");
        assert!(format!("{v:?}").contains("101"));
    }

    #[test]
    fn collect_from_iterator() {
        let v: BitVec = [true, false, true].into_iter().collect();
        assert_eq!(v.len(), 3);
        assert_eq!(v.iter().filter(|&b| b).count(), 2);
    }
}
