//! Belief-propagation syndrome decoder.
//!
//! Reconciliation uses *syndrome decoding*: given Bob's key `y`, Alice's
//! syndrome `s_A = H x`, and Bob's own syndrome `s_B = H y`, Bob decodes the
//! error pattern `e` with `H e = s_A ⊕ s_B` under an i.i.d. bit-flip prior at
//! the estimated QBER, then sets `x = y ⊕ e`.
//!
//! There is one message-passing rule and one schedule: normalised min-sum
//! (scale 0.75) on the layered schedule, where checks are processed in order
//! and every posterior is updated as soon as its check is.
//!
//! # Hot-path layout
//!
//! The decoder is the fleet's hot loop. It reads the Tanner graph straight
//! from the [`ParityCheckMatrix`] it is bound to (one flat `u32` CSR, shared,
//! not copied), keeps the message-passing state in flat arrays, and draws
//! every buffer the iteration loops touch from a caller-owned
//! [`DecoderScratch`] that is reused across iterations, blocks and
//! rate-ladder attempts — after the first decode at a given size, a decode
//! performs **zero heap allocations** inside the iteration loops.
//!
//! Every matrix is quasi-cyclic at circulant 64, its checks layers of 64
//! rows lifted from one base row by cyclic shifts, so the sweep runs a whole
//! layer in lockstep, one *lane* per position inside the circulant: edge `k`
//! of a layer reads its 64 posteriors as one rotated run of
//! `posterior[bc_k·64..]`, the layer's messages are stored `[k][lane]`, its 64
//! target-syndrome signs are one word, hard decisions are a sign-bit pack and
//! the convergence check is the matrix's rotate-XOR syndrome. The 64 checks
//! of a layer are pairwise variable-disjoint (base columns are distinct
//! within a layer), so the layered schedule's sequential semantics cannot be
//! observed inside a layer and the lockstep sweep is **bit-identical** to
//! processing the checks one at a time, in f64, in edge order. The AVX2 form
//! (four lanes a register, no gather, no scatter) lives in `simd.rs` and is
//! chosen once in [`SyndromeDecoder::new`] when the host has AVX2; the
//! portable form below is what other hosts run.
//!
//! Test builds carry `SyndromeDecoder::decode_reference`, an allocating
//! per-check decoder with its own branchy min-sum update and bit-by-bit
//! syndrome checks. It is the equivalence oracle: both forms of the sweep
//! must return its outcome bit for bit.

use serde::{Deserialize, Serialize};

use qkd_types::secret::{zeroize_f64s, zeroize_words};
use qkd_types::{BitVec, QkdError, Result};

use crate::matrix::{ParityCheckMatrix, LANES};

/// Normalisation factor of the min-sum check update: an outgoing message
/// carries the smallest other incoming magnitude scaled by 0.75.
const SCALE: f64 = 0.75;

/// Decoder configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DecoderConfig {
    /// Maximum number of iterations before giving up.
    pub max_iterations: usize,
    /// Magnitude at which LLRs are clamped for numerical stability.
    pub llr_clamp: f64,
}

impl Default for DecoderConfig {
    fn default() -> Self {
        Self {
            max_iterations: 60,
            llr_clamp: 30.0,
        }
    }
}

impl DecoderConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`QkdError::InvalidParameter`] for out-of-domain fields.
    pub fn validate(&self) -> Result<()> {
        if self.max_iterations == 0 {
            return Err(QkdError::invalid_parameter(
                "max_iterations",
                "must be at least 1",
            ));
        }
        // Written so that NaN fails it too.
        if !(self.llr_clamp.is_finite() && self.llr_clamp > 0.0) {
            return Err(QkdError::invalid_parameter(
                "llr_clamp",
                "must be finite and positive",
            ));
        }
        Ok(())
    }
}

/// Result of a decode attempt.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecodeOutcome {
    /// The decoded error pattern (only meaningful when `converged`).
    pub error_pattern: BitVec,
    /// Whether the syndrome constraint was satisfied.
    pub converged: bool,
    /// Iterations actually executed.
    pub iterations: usize,
}

/// Branchless select: `if cond { a } else { b }` computed with a bit mask,
/// keeping the decoder's value-dependent choices out of the branch predictor
/// (the min-scan's data-dependent branches would otherwise dominate the
/// portable sweep).
#[inline(always)]
fn sel(cond: bool, a: f64, b: f64) -> f64 {
    let mask = (cond as u64).wrapping_neg();
    f64::from_bits((a.to_bits() & mask) | (b.to_bits() & !mask))
}

/// Branchless select for indices.
#[inline(always)]
fn sel_idx(cond: bool, a: usize, b: usize) -> usize {
    let mask = (cond as usize).wrapping_neg();
    (a & mask) | (b & !mask)
}

/// Branchless sign flip: `-x` when `cond`, else `x` (exact — toggles the
/// sign bit, which is how multiplying by ±1.0 behaves).
#[inline(always)]
fn flip_if(x: f64, cond: bool) -> f64 {
    f64::from_bits(x.to_bits() ^ ((cond as u64) << 63))
}

/// Branchless `clamp(-limit, limit)`. Equal to `f64::clamp` for every
/// non-NaN input (the decoder's LLRs are always finite).
#[inline(always)]
fn clamp_sym(x: f64, limit: f64) -> f64 {
    x.max(-limit).min(limit)
}

/// Stride of one 64-variable block in the circulant-lane posterior layout:
/// the block is followed by a mirror of its first [`MIRROR`] entries (and one
/// pad entry), so the four lanes a register reads at any in-block offset are
/// contiguous — a rotated run never wraps.
pub(crate) const BLOCK_STRIDE: usize = LANES + 4;

/// Entries of a block repeated behind it (a four-lane read starting at
/// offset 63 ends at 66).
pub(crate) const MIRROR: usize = 3;

/// Caller-owned arena for every buffer the decode iteration loops touch:
/// per-edge messages, per-variable posteriors, a staging buffer for the
/// extrinsic inputs of the layer in flight, and word-packed hard decisions.
///
/// A scratch starts empty and grows to the largest decoder it has served; it
/// can be reused freely across decoders, blocks, rate-ladder attempts and
/// mixed block sizes. Reuse is what makes the decode loops allocation-free.
#[derive(Debug, Clone, Default)]
pub struct DecoderScratch {
    /// Per-edge check-to-variable messages, `[k][lane]` within a layer.
    c2v: Vec<f64>,
    /// Per-variable posterior LLRs, seeded with the channel priors, in
    /// blocks of [`BLOCK_STRIDE`].
    posterior: Vec<f64>,
    /// Extrinsic inputs of the layer in flight.
    inputs: Vec<f64>,
    /// Word-packed hard decisions.
    hard: Vec<u64>,
    /// Word-packed syndrome of the current hard decisions.
    syn: Vec<u64>,
}

impl DecoderScratch {
    /// Creates an empty scratch; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grows every buffer to fit `decoder` (never shrinks, so one scratch
    /// serves a whole rate ladder or a mix of block sizes).
    fn ensure(&mut self, decoder: &SyndromeDecoder) {
        let edges = decoder.matrix.num_edges();
        let n = decoder.matrix.num_vars();
        let posterior = n / LANES * BLOCK_STRIDE;
        let inputs = decoder.max_check_degree * LANES;
        if self.c2v.len() < edges {
            self.c2v.resize(edges, 0.0);
        }
        if self.posterior.len() < posterior {
            self.posterior.resize(posterior, 0.0);
        }
        if self.inputs.len() < inputs {
            self.inputs.resize(inputs, 0.0);
        }
        let words = n / LANES;
        if self.hard.len() < words {
            self.hard.resize(words, 0);
        }
        let syn_words = decoder.matrix.num_checks() / LANES;
        if self.syn.len() < syn_words {
            self.syn.resize(syn_words, 0);
        }
    }

    /// Volatile-overwrites every buffer. Decode state is derived from raw key
    /// material (priors, posteriors, hard decisions), so a scratch that is
    /// about to be dropped or parked should not leave it readable in freed
    /// heap memory.
    pub fn zeroize(&mut self) {
        zeroize_f64s(&mut self.c2v);
        zeroize_f64s(&mut self.posterior);
        zeroize_f64s(&mut self.inputs);
        zeroize_words(&mut self.hard);
        zeroize_words(&mut self.syn);
    }
}

/// Value of the `kernel` label on `qkd_ldpc_kernel_dispatch_total`.
fn kernel_label(avx2: bool) -> &'static str {
    if avx2 {
        "qc-avx2"
    } else {
        "qc-scalar"
    }
}

/// A belief-propagation syndrome decoder bound to one parity-check matrix.
///
/// The decoder shares the matrix's flat check-major Tanner graph instead of
/// copying it. The decoder itself is immutable and shareable; all mutable
/// decode state lives in a [`DecoderScratch`].
#[derive(Debug, Clone)]
pub struct SyndromeDecoder {
    config: DecoderConfig,
    matrix: ParityCheckMatrix,
    /// Whether the sweep runs the AVX2 form (`simd.rs`) or the portable one,
    /// fixed at construction from the host's features.
    avx2: bool,
    max_check_degree: usize,
    /// Iterations-to-converge histogram (`qkd_ldpc_decode_iterations`).
    obs_iterations: qkd_obs::Histogram,
    /// Decode calls by dispatched kernel (`qkd_ldpc_kernel_dispatch_total`,
    /// `kernel` = `qc-avx2` | `qc-scalar`).
    obs_kernel: qkd_obs::Counter,
}

impl SyndromeDecoder {
    /// Builds a decoder for the given matrix.
    ///
    /// # Errors
    ///
    /// Returns [`QkdError::InvalidParameter`] if the configuration is invalid.
    pub fn new(matrix: &ParityCheckMatrix, config: DecoderConfig) -> Result<Self> {
        config.validate()?;
        let max_check_degree = matrix
            .check_offsets()
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize)
            .max()
            .unwrap_or(0);

        // The lockstep sweep assumes every clamped input is finite (both
        // minima of a degree >= 2 check then are). `validate` admits only a
        // finite clamp, so every configuration may take it.
        #[cfg(target_arch = "x86_64")]
        let avx2 = std::arch::is_x86_feature_detected!("avx2");
        #[cfg(not(target_arch = "x86_64"))]
        let avx2 = false;

        // The kernel dispatch is fixed at construction, so the counter label
        // is too: one series per kernel tells operators whether the fleet is
        // actually running the vectorised sweep.
        let obs = qkd_obs::registry();
        Ok(Self {
            config,
            matrix: matrix.clone(),
            avx2,
            max_check_degree,
            obs_iterations: obs.histogram_with(
                "qkd_ldpc_decode_iterations",
                &[],
                &qkd_obs::COUNT_BUCKETS,
            ),
            obs_kernel: obs.counter(
                "qkd_ldpc_kernel_dispatch_total",
                &[("kernel", kernel_label(avx2))],
            ),
        })
    }

    /// The kernel the sweep was dispatched to.
    #[cfg(test)]
    pub(crate) fn kernel(&self) -> &'static str {
        kernel_label(self.avx2)
    }

    /// The decoder configuration.
    pub fn config(&self) -> &DecoderConfig {
        &self.config
    }

    /// Codeword length this decoder expects.
    pub fn block_len(&self) -> usize {
        self.n()
    }

    /// Syndrome length this decoder expects.
    pub fn syndrome_len(&self) -> usize {
        self.m()
    }

    #[inline]
    fn n(&self) -> usize {
        self.matrix.num_vars()
    }

    #[inline]
    fn m(&self) -> usize {
        self.matrix.num_checks()
    }

    #[inline]
    fn edge_var(&self) -> &[u32] {
        self.matrix.edge_var()
    }

    #[inline]
    fn check_offsets(&self) -> &[u32] {
        self.matrix.check_offsets()
    }

    fn validate_inputs(&self, target_syndrome: &BitVec, qber: f64) -> Result<()> {
        if target_syndrome.len() != self.m() {
            return Err(QkdError::DimensionMismatch {
                context: "syndrome decoding",
                expected: self.m(),
                actual: target_syndrome.len(),
            });
        }
        if !(0.0 < qber && qber < 0.5) {
            return Err(QkdError::invalid_parameter(
                "qber",
                "must lie strictly in (0, 0.5)",
            ));
        }
        Ok(())
    }

    fn prior_llr(&self, qber: f64) -> f64 {
        ((1.0 - qber) / qber).ln().min(self.config.llr_clamp)
    }

    /// Decodes an error pattern `e` with `H e = target_syndrome` under an
    /// i.i.d. flip prior `qber`, with optional per-variable LLR overrides.
    ///
    /// `llr_overrides` assigns a fixed prior LLR to selected variables:
    /// shortened (known-zero) positions use a large positive LLR, punctured
    /// (unknown) positions use zero.
    ///
    /// This is the convenience form that allocates a fresh [`DecoderScratch`]
    /// per call; hot paths should hold a scratch and use
    /// [`SyndromeDecoder::decode_with_scratch`].
    ///
    /// # Errors
    ///
    /// * [`QkdError::DimensionMismatch`] when the syndrome length is wrong.
    /// * [`QkdError::InvalidParameter`] when `qber` is outside `(0, 0.5)`.
    pub fn decode(
        &self,
        target_syndrome: &BitVec,
        qber: f64,
        llr_overrides: &[(usize, f64)],
    ) -> Result<DecodeOutcome> {
        let mut scratch = DecoderScratch::new();
        self.decode_with_scratch(target_syndrome, qber, llr_overrides, &mut scratch)
    }

    /// Decodes like [`SyndromeDecoder::decode`], drawing every working buffer
    /// from `scratch`. With a warm scratch the iteration loops perform no
    /// heap allocation at all; the scratch may be shared across decoders,
    /// blocks, rate-ladder attempts and block sizes.
    ///
    /// # Errors
    ///
    /// Same as [`SyndromeDecoder::decode`].
    pub fn decode_with_scratch(
        &self,
        target_syndrome: &BitVec,
        qber: f64,
        llr_overrides: &[(usize, f64)],
        scratch: &mut DecoderScratch,
    ) -> Result<DecodeOutcome> {
        self.validate_inputs(target_syndrome, qber)?;
        scratch.ensure(self);
        let n = self.n();
        let clamp = self.config.llr_clamp;
        let prior = self.prior_llr(qber);
        let overrides = llr_overrides
            .iter()
            .filter(|&&(v, _)| v < n)
            .map(|&(v, llr)| (v, llr.clamp(-clamp, clamp)));
        let posterior = &mut scratch.posterior[..n / LANES * BLOCK_STRIDE];
        posterior.fill(prior);
        for (v, llr) in overrides {
            let at = v / LANES * BLOCK_STRIDE + v % LANES;
            posterior[at] = llr;
            if v % LANES < MIRROR {
                posterior[at + LANES] = llr;
            }
        }
        let outcome = self.decode_layered(target_syndrome, scratch);
        self.obs_kernel.inc();
        self.obs_iterations.observe(outcome.iterations as f64);
        Ok(outcome)
    }

    /// Copies the packed hard decisions into an owned error pattern.
    fn pattern_from_words(&self, hard: &[u64]) -> BitVec {
        let mut pattern = BitVec::zeros(self.n());
        pattern.as_words_mut().copy_from_slice(hard);
        pattern
    }

    /// Layered min-sum, a whole layer in lockstep (see the module docs). The
    /// caller seeded `posterior` in the [`BLOCK_STRIDE`] layout.
    fn decode_layered(&self, target: &BitVec, scratch: &mut DecoderScratch) -> DecodeOutcome {
        let clamp = self.config.llr_clamp;
        let blocks = self.n() / LANES;
        let c2v = &mut scratch.c2v[..self.matrix.num_edges()];
        let posterior = &mut scratch.posterior[..blocks * BLOCK_STRIDE];
        let stash = &mut scratch.inputs[..self.max_check_degree * LANES];
        let hard = &mut scratch.hard[..blocks];
        let syn = &mut scratch.syn[..self.m() / LANES];
        let target_words = target.as_words();

        c2v.fill(0.0);

        for iter in 1..=self.config.max_iterations {
            if self.avx2 {
                #[cfg(target_arch = "x86_64")]
                // SAFETY: `avx2` is only set when AVX2 was detected; the
                // kernels check every bound they rely on.
                unsafe {
                    crate::simd::circulant_layered_sweep(
                        self.check_offsets(),
                        self.edge_var(),
                        target_words,
                        SCALE,
                        clamp,
                        c2v,
                        posterior,
                        stash,
                    );
                    crate::simd::pack_negative(posterior, hard);
                }
            } else {
                self.circulant_layered_sweep(clamp, c2v, posterior, stash, target_words);
                for (word, block) in hard.iter_mut().zip(posterior.chunks_exact(BLOCK_STRIDE)) {
                    *word = block[..LANES]
                        .iter()
                        .enumerate()
                        .fold(0, |w, (lane, &llr)| w | u64::from(llr < 0.0) << lane);
                }
            }
            self.matrix.syndrome_words(hard, syn);
            if syn == target_words {
                return DecodeOutcome {
                    error_pattern: self.pattern_from_words(hard),
                    converged: true,
                    iterations: iter,
                };
            }
        }
        DecodeOutcome {
            error_pattern: self.pattern_from_words(hard),
            converged: false,
            iterations: self.config.max_iterations,
        }
    }

    /// Portable circulant-lane sweep: the min-sum layered update of the 64
    /// checks of a layer at once, lane `i` being check `layer·64 + i`. Every
    /// lane runs one check's operation sequence — clamped extrinsic inputs
    /// and the two-minimum/sign scan in edge order, then the outgoing
    /// messages and posterior updates — with branchless mask selects for the
    /// value-dependent choices; the arithmetic is bit-identical to the
    /// reference. Edge `k` of the layer, with base entry `v_k`, pairs lane `i`
    /// with variable `(i + s_k) mod 64` of block `v_k >> 6` — a rotation of
    /// the block by `s_k = v_k & 63` — and keeps its messages at
    /// `c2v[layer start + k·64 + i]`; `stash` holds the layer's extrinsic
    /// inputs in the same `[k][lane]` order.
    fn circulant_layered_sweep(
        &self,
        clamp: f64,
        c2v: &mut [f64],
        posterior: &mut [f64],
        stash: &mut [f64],
        target_words: &[u64],
    ) {
        let offsets = self.check_offsets();
        let mut rotated = [0.0f64; LANES];
        for (layer, &target) in target_words.iter().enumerate() {
            let start = offsets[layer * LANES] as usize;
            let base = &self.edge_var()[start..offsets[layer * LANES + 1] as usize];
            let msgs = &mut c2v[start..start + base.len() * LANES];
            let mut min1 = [f64::INFINITY; LANES];
            let mut min2 = [f64::INFINITY; LANES];
            let mut min1_idx = [0usize; LANES];
            let mut neg = [false; LANES];
            for (k, &v) in base.iter().enumerate() {
                let block = &posterior[v as usize / LANES * BLOCK_STRIDE..][..LANES];
                let shift = v as usize % LANES;
                rotated[..LANES - shift].copy_from_slice(&block[shift..]);
                rotated[LANES - shift..].copy_from_slice(&block[..shift]);
                let lanes = k * LANES..(k + 1) * LANES;
                for (i, (x, &msg)) in stash[lanes.clone()]
                    .iter_mut()
                    .zip(&msgs[lanes])
                    .enumerate()
                {
                    let val = clamp_sym(rotated[i] - msg, clamp);
                    *x = val;
                    let a = val.abs();
                    let is_new_min = a < min1[i];
                    let runner_up = sel(is_new_min, min1[i], a);
                    min2[i] = sel(runner_up < min2[i], runner_up, min2[i]);
                    min1[i] = sel(is_new_min, a, min1[i]);
                    min1_idx[i] = sel_idx(is_new_min, k, min1_idx[i]);
                    neg[i] ^= val < 0.0;
                }
            }
            // A layer has degree >= 2, so both minima are finite.
            let mut mag1 = [0.0f64; LANES];
            let mut mag2 = [0.0f64; LANES];
            for i in 0..LANES {
                let sign_target = if (target >> i) & 1 == 1 { -1.0 } else { 1.0 };
                let signed_scale = flip_if(sign_target * SCALE, neg[i]);
                mag1[i] = signed_scale * min1[i];
                mag2[i] = signed_scale * min2[i];
            }
            for (k, &v) in base.iter().enumerate() {
                let lanes = k * LANES..(k + 1) * LANES;
                for (i, (msg, &x)) in msgs[lanes.clone()]
                    .iter_mut()
                    .zip(&stash[lanes])
                    .enumerate()
                {
                    let mag = sel(k == min1_idx[i], mag2[i], mag1[i]);
                    let out = flip_if(mag, x < 0.0);
                    *msg = out;
                    rotated[i] = clamp_sym(x + out, clamp);
                }
                let block = &mut posterior[v as usize / LANES * BLOCK_STRIDE..][..BLOCK_STRIDE];
                let shift = v as usize % LANES;
                block[shift..LANES].copy_from_slice(&rotated[..LANES - shift]);
                block[..shift].copy_from_slice(&rotated[LANES - shift..]);
                block.copy_within(..MIRROR, LANES);
            }
        }
    }
}

#[cfg(test)]
impl SyndromeDecoder {
    /// The equivalence oracle: the layered min-sum decoder written plainly —
    /// per-call message buffers, per-check `Vec` construction and cloning,
    /// its own branchy check update, bit-by-bit syndrome checks. It shares
    /// only the flat adjacency with the sweeps it checks, and every one of
    /// them must return its outcome bit for bit.
    fn decode_reference(
        &self,
        target: &BitVec,
        qber: f64,
        llr_overrides: &[(usize, f64)],
    ) -> Result<DecodeOutcome> {
        self.validate_inputs(target, qber)?;
        let clamp = self.config.llr_clamp;
        let mut posterior = vec![self.prior_llr(qber); self.n()];
        for &(v, llr) in llr_overrides {
            if v < self.n() {
                posterior[v] = llr.clamp(-clamp, clamp);
            }
        }
        let mut c2v = vec![0.0f64; self.edge_var().len()];
        let mut hard = BitVec::zeros(self.n());

        for iter in 1..=self.config.max_iterations {
            for c in 0..self.m() {
                let (s, e) = self.check_range(c);
                let sign_target = if target.get(c) { -1.0 } else { 1.0 };
                // Extrinsic inputs: posterior minus this check's previous
                // message.
                let mut buf: Vec<f64> = (s..e)
                    .map(|edge| {
                        (posterior[self.edge_var()[edge] as usize] - c2v[edge]).clamp(-clamp, clamp)
                    })
                    .collect();
                let inputs = buf.clone();
                Self::min_sum_reference(&mut buf, sign_target);
                for (k, edge) in (s..e).enumerate() {
                    posterior[self.edge_var()[edge] as usize] =
                        (inputs[k] + buf[k]).clamp(-clamp, clamp);
                    c2v[edge] = buf[k];
                }
            }
            for (v, &llr) in posterior.iter().enumerate() {
                hard.set(v, llr < 0.0);
            }
            if self.syndrome_ok_reference(&hard, target) {
                return Ok(DecodeOutcome {
                    error_pattern: hard,
                    converged: true,
                    iterations: iter,
                });
            }
        }
        Ok(DecodeOutcome {
            error_pattern: hard,
            converged: false,
            iterations: self.config.max_iterations,
        })
    }

    /// Normalised min-sum update of one check, in place: `values` holds the
    /// incoming messages and receives the outgoing ones; `sign_target` is
    /// `-1.0` when the target syndrome bit is set.
    fn min_sum_reference(values: &mut [f64], sign_target: f64) {
        // Two smallest magnitudes and the overall sign product.
        let mut min1 = f64::INFINITY;
        let mut min2 = f64::INFINITY;
        let mut min1_idx = 0usize;
        let mut sign_prod = sign_target;
        for (i, &v) in values.iter().enumerate() {
            let a = v.abs();
            if a < min1 {
                min2 = min1;
                min1 = a;
                min1_idx = i;
            } else if a < min2 {
                min2 = a;
            }
            if v < 0.0 {
                sign_prod = -sign_prod;
            }
        }
        // Sign product and scale fold into one factor outside the per-edge
        // loop; both signs are exactly ±1, so the result is bit-identical to
        // multiplying them edge by edge.
        let signed_scale = sign_prod * SCALE;
        for (i, v) in values.iter_mut().enumerate() {
            let self_sign = if *v < 0.0 { -1.0 } else { 1.0 };
            let mag = if i == min1_idx { min2 } else { min1 };
            *v = self_sign * signed_scale * if mag.is_finite() { mag } else { 0.0 };
        }
    }

    fn check_range(&self, c: usize) -> (usize, usize) {
        let offsets = self.check_offsets();
        (offsets[c] as usize, offsets[c + 1] as usize)
    }

    /// Bit-by-bit convergence check.
    fn syndrome_ok_reference(&self, e: &BitVec, target: &BitVec) -> bool {
        for c in 0..self.m() {
            let (s, end) = self.check_range(c);
            let mut p = false;
            for edge in s..end {
                p ^= e.get(self.edge_var()[edge] as usize);
            }
            if p != target.get(c) {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reconciler::ReconcilerConfig;
    use qkd_types::key::binary_entropy;
    use qkd_types::rng::derive_rng;
    use rand::Rng;

    fn setup(n: usize, rate: f64, seed: u64) -> ParityCheckMatrix {
        ParityCheckMatrix::for_rate(n, rate, seed).unwrap()
    }

    fn random_error<R: Rng + ?Sized>(rng: &mut R, n: usize, p: f64) -> BitVec {
        BitVec::random_with_density(rng, n, p)
    }

    #[test]
    fn min_sum_layered_decodes_low_qber() {
        let h = setup(4096, 0.5, 99);
        let mut rng = derive_rng(7, "decoder-test");
        let truth = random_error(&mut rng, h.num_vars(), 0.02);
        let dec = SyndromeDecoder::new(&h, DecoderConfig::default()).unwrap();
        let out = dec.decode(&h.syndrome(&truth), 0.02, &[]).unwrap();
        assert!(
            out.converged && out.error_pattern == truth,
            "rate-1/2 code must correct 2% errors"
        );
        assert!(
            out.iterations < 30,
            "should converge quickly, took {}",
            out.iterations
        );
    }

    #[test]
    fn decoder_fails_gracefully_beyond_capacity() {
        // Rate 0.8 code cannot correct 15% errors; decoder must report
        // non-convergence, not wrong answers flagged as success.
        let h = setup(2048, 0.8, 6);
        let mut rng = derive_rng(9, "decoder-test");
        let truth = random_error(&mut rng, h.num_vars(), 0.15);
        let syndrome = h.syndrome(&truth);
        let dec = SyndromeDecoder::new(
            &h,
            DecoderConfig {
                max_iterations: 30,
                ..DecoderConfig::default()
            },
        )
        .unwrap();
        let out = dec.decode(&syndrome, 0.15, &[]).unwrap();
        if out.converged {
            // If it converged it must satisfy the syndrome (a valid coset
            // member), even if not the original pattern.
            assert!(h.syndrome_matches(&out.error_pattern, &syndrome));
        } else {
            assert_eq!(out.iterations, 30);
        }
    }

    #[test]
    fn zero_syndrome_and_tiny_qber_decodes_to_zero() {
        let h = setup(1024, 0.5, 10);
        let dec = SyndromeDecoder::new(&h, DecoderConfig::default()).unwrap();
        let out = dec
            .decode(&BitVec::zeros(h.num_checks()), 0.001, &[])
            .unwrap();
        assert!(out.converged);
        assert_eq!(out.error_pattern.count_ones(), 0);
        assert_eq!(out.iterations, 1);
    }

    #[test]
    fn llr_overrides_pin_shortened_positions() {
        let h = setup(1024, 0.5, 11);
        let mut rng = derive_rng(12, "decoder-test");
        let mut truth = random_error(&mut rng, h.num_vars(), 0.03);
        // Pretend the first 100 variables are shortened to zero.
        for v in 0..100 {
            truth.set(v, false);
        }
        let syndrome = h.syndrome(&truth);
        let overrides: Vec<(usize, f64)> = (0..100).map(|v| (v, 25.0)).collect();
        let dec = SyndromeDecoder::new(&h, DecoderConfig::default()).unwrap();
        let out = dec.decode(&syndrome, 0.03, &overrides).unwrap();
        assert!(out.converged);
        for v in 0..100 {
            assert!(
                !out.error_pattern.get(v),
                "shortened variable {v} must stay zero"
            );
        }
        assert_eq!(out.error_pattern, truth);
    }

    #[test]
    fn dimension_and_parameter_errors() {
        let h = setup(512, 0.5, 13);
        let dec = SyndromeDecoder::new(&h, DecoderConfig::default()).unwrap();
        assert!(matches!(
            dec.decode(&BitVec::zeros(10), 0.02, &[]),
            Err(QkdError::DimensionMismatch { .. })
        ));
        assert!(dec
            .decode(&BitVec::zeros(h.num_checks()), 0.0, &[])
            .is_err());
        assert!(dec
            .decode(&BitVec::zeros(h.num_checks()), 0.5, &[])
            .is_err());
        assert!(matches!(
            dec.decode_reference(&BitVec::zeros(10), 0.02, &[]),
            Err(QkdError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn invalid_configs_rejected() {
        let h = setup(512, 0.5, 14);
        let bad = DecoderConfig {
            max_iterations: 0,
            ..DecoderConfig::default()
        };
        assert!(SyndromeDecoder::new(&h, bad).is_err());
        for llr_clamp in [-1.0, 0.0, f64::NAN, f64::INFINITY] {
            let bad = DecoderConfig {
                llr_clamp,
                ..DecoderConfig::default()
            };
            assert!(SyndromeDecoder::new(&h, bad).is_err(), "{llr_clamp}");
        }
    }

    #[test]
    fn quasi_cyclic_code_decodes_too() {
        let h = ParityCheckMatrix::quasi_cyclic(4096, 2048, 6, 21).unwrap();
        let mut rng = derive_rng(22, "decoder-test");
        let truth = random_error(&mut rng, 4096, 0.02);
        let syndrome = h.syndrome(&truth);
        let dec = SyndromeDecoder::new(&h, DecoderConfig::default()).unwrap();
        let out = dec.decode(&syndrome, 0.02, &[]).unwrap();
        assert!(out.converged);
        assert_eq!(out.error_pattern, truth);
    }

    /// The scratch and reference paths produce bit-identical outcomes,
    /// including with overrides and at a non-converging operating point.
    #[test]
    fn scratch_path_is_bit_identical_to_reference() {
        let h = setup(2048, 0.5, 33);
        let mut rng = derive_rng(34, "decoder-equiv");
        let mut scratch = DecoderScratch::new();
        let config = DecoderConfig {
            max_iterations: 25,
            ..DecoderConfig::default()
        };
        let dec = SyndromeDecoder::new(&h, config).unwrap();
        for &(qber, true_qber) in &[(0.02, 0.02), (0.02, 0.12)] {
            let truth = random_error(&mut rng, h.num_vars(), true_qber);
            let syndrome = h.syndrome(&truth);
            let overrides: Vec<(usize, f64)> = (0..40).map(|v| (v, 25.0)).collect();
            let reference = dec.decode_reference(&syndrome, qber, &overrides).unwrap();
            let optimized = dec
                .decode_with_scratch(&syndrome, qber, &overrides, &mut scratch)
                .unwrap();
            assert_eq!(
                reference, optimized,
                "outcomes diverged at qber {true_qber}"
            );
        }
    }

    /// One scratch serves decoders of different sizes in any order; its
    /// stale contents from a larger code do not leak into a smaller one.
    #[test]
    fn scratch_reuse_across_block_sizes_is_safe() {
        let mut rng = derive_rng(35, "decoder-mixed");
        let mut scratch = DecoderScratch::new();
        for &(n, seed) in &[(1024usize, 1u64), (256, 2), (2048, 3), (512, 4)] {
            let h = setup(n, 0.5, seed);
            let truth = random_error(&mut rng, h.num_vars(), 0.02);
            let dec = SyndromeDecoder::new(&h, DecoderConfig::default()).unwrap();
            let out = decode_on_every_path(&dec, &h.syndrome(&truth), 0.02, &[], &mut scratch);
            assert!(out.converged, "size {n} did not converge");
        }
    }

    /// Decodes on both forms of the sweep — the one `new` dispatched and the
    /// portable one — and on the reference, and demands one outcome (error
    /// pattern, convergence flag, iteration count).
    fn decode_on_every_path(
        dec: &SyndromeDecoder,
        target: &BitVec,
        qber: f64,
        overrides: &[(usize, f64)],
        scratch: &mut DecoderScratch,
    ) -> DecodeOutcome {
        let reference = dec.decode_reference(target, qber, overrides).unwrap();
        for avx2 in [dec.avx2, false] {
            let path = SyndromeDecoder {
                avx2,
                ..dec.clone()
            };
            let out = path
                .decode_with_scratch(target, qber, overrides, scratch)
                .unwrap();
            assert_eq!(out, reference, "{} diverged", path.kernel());
        }
        reference
    }

    /// The inputs bit-identity can break on: a full-length block, a
    /// shortened one (LLR-30 overrides), a non-converging one, and the
    /// all-zero and all-one target words.
    fn exercise_every_path(h: &ParityCheckMatrix, qber: f64, scratch: &mut DecoderScratch) {
        let n = h.num_vars();
        let dec = SyndromeDecoder::new(h, DecoderConfig::default()).unwrap();
        let mut rng = derive_rng(n as u64, "decoder-paths");

        let truth = random_error(&mut rng, n, qber);
        let out = decode_on_every_path(&dec, &h.syndrome(&truth), qber, &[], scratch);
        assert!(
            out.converged && out.error_pattern == truth,
            "n {n} rate {} qber {qber}",
            h.rate()
        );

        let payload = n - n / 10;
        let mut shortened = random_error(&mut rng, n, qber);
        let overrides: Vec<(usize, f64)> = (payload..n).map(|v| (v, 30.0)).collect();
        for &(v, _) in &overrides {
            shortened.set(v, false);
        }
        let out = decode_on_every_path(&dec, &h.syndrome(&shortened), qber, &overrides, scratch);
        assert!(out.converged && out.error_pattern == shortened);

        let noisy = random_error(&mut rng, n, 0.25);
        let out = decode_on_every_path(&dec, &h.syndrome(&noisy), qber, &[], scratch);
        assert!(!out.converged);
        assert_eq!(out.iterations, dec.config.max_iterations);

        let out = decode_on_every_path(&dec, &BitVec::zeros(h.num_checks()), qber, &[], scratch);
        assert!(out.converged && out.error_pattern.count_ones() == 0);
        decode_on_every_path(&dec, &BitVec::ones(h.num_checks()), qber, &[], scratch);
    }

    #[test]
    fn circulant_lane_sweep_is_bit_identical_on_every_library_code() {
        let mut scratch = DecoderScratch::new();
        // An error rate each code corrects: h(q) = (1 - R) / margin, the
        // shorter code given the wider margin.
        for (block, margin) in [(4096, 2.4), (16_384, 1.6)] {
            let library = ReconcilerConfig::for_block_size(block);
            for (i, &rate) in library.rates.iter().enumerate() {
                let h = ParityCheckMatrix::for_rate(block, rate, library.seed + i as u64).unwrap();
                let mut qber = 0.002;
                while binary_entropy(qber + 0.002) * margin <= 1.0 - h.rate() {
                    qber += 0.002;
                }
                exercise_every_path(&h, qber, &mut scratch);
            }
        }
    }

    #[test]
    fn circulant_lane_sweep_is_bit_identical_on_small_layered_codes() {
        use crate::matrix::tests::{layered_rows, random_layers};
        let mut scratch = DecoderScratch::new();
        for (seed, blocks, layers) in [(1u64, 9usize, 3usize), (2, 12, 5), (3, 6, 4)] {
            let h = ParityCheckMatrix::from_rows(
                blocks * LANES,
                layers * LANES,
                &layered_rows(&random_layers(seed, blocks, layers)),
            )
            .unwrap();
            let dec = SyndromeDecoder::new(&h, DecoderConfig::default()).unwrap();
            let mut rng = derive_rng(seed, "small-layered");
            for true_qber in [0.005, 0.03, 0.2] {
                let truth = random_error(&mut rng, h.num_vars(), true_qber);
                let pins: Vec<(usize, f64)> = (0..70).step_by(3).map(|v| (v, -4.0)).collect();
                decode_on_every_path(&dec, &h.syndrome(&truth), 0.02, &pins, &mut scratch);
            }
        }
        let h = ParityCheckMatrix::quasi_cyclic(1024, 256, 8, 6).unwrap();
        exercise_every_path(&h, 0.01, &mut scratch);
    }

    /// Matrices that miss the circulant structure by a hair (one edge
    /// moved, a base column repeated in a layer, a degree-1 layer) have no
    /// fallback sweep: construction refuses them, so no decoder is ever
    /// built on one. The layered matrix they are derived from decodes
    /// identically on every path.
    #[test]
    fn unstructured_matrices_fall_back_and_decode_identically() {
        use crate::matrix::tests::layered_rows;
        let layers = vec![
            vec![(0, 0), (2, 63), (3, 17), (5, 9)],
            vec![(1, 5), (2, 40), (4, 1), (5, 33)],
            vec![(0, 21), (1, 62), (3, 3), (4, 50)],
        ];
        let mut moved = layered_rows(&layers);
        moved[70][1] ^= 1;
        let mut repeated = layers.clone();
        repeated[0][2].0 = 2;
        let mut thin = layers.clone();
        thin[1].truncate(1);
        for rows in [moved, layered_rows(&repeated), layered_rows(&thin)] {
            assert!(matches!(
                ParityCheckMatrix::from_rows(384, 192, &rows),
                Err(QkdError::InvalidParameter { .. })
            ));
        }

        let h = ParityCheckMatrix::from_rows(384, 192, &layered_rows(&layers)).unwrap();
        let dec = SyndromeDecoder::new(&h, DecoderConfig::default()).unwrap();
        assert!(matches!(dec.kernel(), "qc-avx2" | "qc-scalar"));
        let mut scratch = DecoderScratch::new();
        let mut rng = derive_rng(6, "fallback");
        for true_qber in [0.01, 0.1] {
            let truth = random_error(&mut rng, 384, true_qber);
            decode_on_every_path(&dec, &h.syndrome(&truth), 0.02, &[], &mut scratch);
        }
    }

    /// One scratch holds the circulant-block layout of a 16 384-bit code
    /// (256 blocks) and of a 4096-bit code (64 blocks) in turn; neither
    /// leaks into the other.
    #[test]
    fn scratch_reuse_across_structured_and_unstructured_codes_is_safe() {
        let mut scratch = DecoderScratch::new();
        let large = setup(16_384, 0.75, 3);
        let small = setup(4096, 0.75, 4);
        for h in [&large, &small, &large] {
            let dec = SyndromeDecoder::new(h, DecoderConfig::default()).unwrap();
            let mut rng = derive_rng(36, "decoder-mixed");
            let truth = random_error(&mut rng, h.num_vars(), 0.02);
            let out = decode_on_every_path(&dec, &h.syndrome(&truth), 0.02, &[], &mut scratch);
            assert!(out.converged);
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;
        use std::sync::OnceLock;

        /// Quasi-cyclic matrices from 256 to 4096 bits, built once.
        fn matrices() -> &'static [ParityCheckMatrix] {
            static MATRICES: OnceLock<Vec<ParityCheckMatrix>> = OnceLock::new();
            MATRICES.get_or_init(|| {
                let mut all: Vec<ParityCheckMatrix> = [256usize, 512, 1024, 2048, 4096]
                    .iter()
                    .map(|&n| setup(n, 0.5, 700 + n as u64))
                    .collect();
                for n in [1024usize, 2048] {
                    all.push(ParityCheckMatrix::quasi_cyclic(n, n / 2, 6, n as u64).unwrap());
                }
                all
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(8))]

            /// Both forms of the sweep return the reference's outcome (error
            /// pattern, convergence flag, iteration count) under
            /// shortened-style LLR overrides, on codes from 256 to 4096 bits.
            #[test]
            fn scratch_decoder_matches_reference(seed in any::<u64>(), qber in 0.005f64..0.08) {
                let matrices = matrices();
                let h = &matrices[(seed % matrices.len() as u64) as usize];
                let mut rng = derive_rng(seed, "prop-decoder-equiv");
                let truth = random_error(&mut rng, h.num_vars(), qber);
                let overrides: Vec<(usize, f64)> = (0..16).map(|v| (v, 25.0)).collect();
                let dec = SyndromeDecoder::new(h, DecoderConfig::default()).unwrap();
                let mut scratch = DecoderScratch::new();
                decode_on_every_path(&dec, &h.syndrome(&truth), qber, &overrides, &mut scratch);
            }
        }
    }
}
