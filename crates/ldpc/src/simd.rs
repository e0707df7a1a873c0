//! AVX2 kernels for the min-sum layered sweep — the crate's one `unsafe`
//! module. Whether they run is decided once, in `SyndromeDecoder::new`.
//!
//! **Circulant-lane** ([`circulant_layered_sweep`], [`pack_negative`]) serves
//! every matrix: each is quasi-cyclic at circulant 64, its checks layers of
//! 64 rows lifted from one base row by cyclic shifts. The lane is the position
//! inside the circulant: for edge `k` of a layer, the posteriors of four
//! consecutive checks are four consecutive entries of one 64-variable block,
//! so they arrive with one unaligned load (the block layout carries a
//! three-entry mirror behind each block, so a rotated run never wraps), the
//! layer's messages sit `[k][lane]`, and the two minima, the arg-min and the
//! sign parity stay in registers across `k`. No gather, no scatter, no index
//! array. The 64 checks of a layer are pairwise variable-disjoint (base
//! columns are distinct within a layer), so the layered schedule's
//! sequential semantics are unobservable inside a layer.
//!
//! Every lane executes exactly the per-check operation sequence of the
//! portable sweep in `decoder.rs` (same clamps, same two-minimum scan in edge
//! order, same sign parity, same rounding; the minima are taken with
//! `min`/`max`, which on the non-NaN magnitudes seen here select the same
//! values as the portable compare-and-select). Results are bit-identical to
//! the portable sweep — and hence to the retained reference decoder — on
//! every machine; hosts without AVX2 run the portable form.
//!
//! Safety: the only unsafe operations are AVX2 intrinsics. The sweep
//! re-checks, per layer, every bound its unchecked accesses rely on.
//! `unsafe_op_in_unsafe_fn` is denied so each memory-touching operation
//! carries its own `// SAFETY:` justification — register-only intrinsics are
//! safe here because the enclosing function enables the `avx2` target
//! feature.

#![allow(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

use std::arch::x86_64::*;

use crate::decoder::{BLOCK_STRIDE, MIRROR};
use crate::matrix::LANES;

/// One min-sum layered sweep over a circulant-layered matrix, a whole
/// 64-check layer in lockstep: lane `i` of layer `l` is check `l·64 + i`.
///
/// `check_offsets`/`edge_var` are the matrix's check-major CSR; the entries
/// `v_k` of row `l·64` are the layer's table (block `v_k >> 6`, shift
/// `v_k & 63`). `posterior` is laid out in blocks of [`BLOCK_STRIDE`] (64
/// variables, then a mirror of the first [`MIRROR`]), `c2v` holds the layer's
/// messages at `check_offsets[l·64] + k·64 + lane`, `stash` receives the
/// extrinsic inputs of the eight lanes in flight, `target_words[l]` the
/// layer's 64 target-syndrome bits.
///
/// Eight lanes (two registers) run together so the two-minimum chain of one
/// hides behind the other's.
///
/// # Safety
///
/// Caller must ensure AVX2 is available. Every bound the unchecked accesses
/// rely on is asserted here; a matrix that is not circulant-layered yields
/// wrong messages or a panic, never an out-of-bounds access.
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn circulant_layered_sweep(
    check_offsets: &[u32],
    edge_var: &[u32],
    target_words: &[u64],
    scale: f64,
    clamp: f64,
    c2v: &mut [f64],
    posterior: &mut [f64],
    stash: &mut [f64],
) {
    const GROUPS: usize = 2;
    let sign_mask = _mm256_set1_pd(f64::from_bits(1u64 << 63));
    let clamp_lo = _mm256_set1_pd(-clamp);
    let clamp_hi = _mm256_set1_pd(clamp);
    let zero = _mm256_setzero_pd();
    let one = _mm256_set1_epi64x(1);
    // Lane `j` of the group starting at check `i` takes target bit `i + j`
    // to the sign position with a left shift by `63 - j - i`.
    let to_sign = _mm256_set_epi64x(60, 61, 62, 63);
    let blocks = posterior.len() / BLOCK_STRIDE;

    for (layer, &target) in target_words.iter().enumerate() {
        let start = check_offsets[layer * LANES] as usize;
        let base = &edge_var[start..check_offsets[layer * LANES + 1] as usize];
        let msgs = &mut c2v[start..start + base.len() * LANES];
        let vals = &mut stash[..base.len() * 4 * GROUPS];
        assert!(
            base.iter().all(|&v| (v as usize) / LANES < blocks),
            "layer {layer} reaches past the posterior"
        );
        let post = posterior.as_mut_ptr();
        let msgs = msgs.as_mut_ptr();
        let vals = vals.as_mut_ptr();
        let target = _mm256_set1_epi64x(target as i64);

        for first in (0..LANES).step_by(4 * GROUPS) {
            let mut min1 = [_mm256_set1_pd(f64::INFINITY); GROUPS];
            let mut min2 = min1;
            let mut min1_idx = [_mm256_setzero_si256(); GROUPS];
            let mut neg = [zero; GROUPS];

            // Pass 1 — extrinsic inputs and the two-minimum/sign scan.
            let mut k_vec = _mm256_setzero_si256();
            for (k, &v) in base.iter().enumerate() {
                let block = v as usize / LANES * BLOCK_STRIDE;
                let shift = v as usize % LANES;
                for g in 0..GROUPS {
                    let lane = first + 4 * g;
                    let at = block + (lane + shift) % LANES;
                    // SAFETY: `at + 4 <= block + 67 < (blocks - 1) *
                    // BLOCK_STRIDE + BLOCK_STRIDE <= posterior.len()` by the
                    // assert above; `k * LANES + lane + 4 <= base.len() *
                    // LANES`, the length `msgs` was sliced to; `(k * GROUPS
                    // + g) * 4 + 4 <= base.len() * 4 * GROUPS`, the length
                    // `vals` was sliced to. Unaligned loads and stores have
                    // no alignment requirement.
                    let (p, msg) = unsafe {
                        (
                            _mm256_loadu_pd(post.add(at)),
                            _mm256_loadu_pd(msgs.add(k * LANES + lane)),
                        )
                    };
                    let val =
                        _mm256_min_pd(_mm256_max_pd(_mm256_sub_pd(p, msg), clamp_lo), clamp_hi);
                    // SAFETY: see above (`vals` bound).
                    unsafe { _mm256_storeu_pd(vals.add((k * GROUPS + g) * 4), val) };
                    let a = _mm256_andnot_pd(sign_mask, val);
                    let lt1 = _mm256_cmp_pd(a, min1[g], _CMP_LT_OQ);
                    min2[g] = _mm256_min_pd(min2[g], _mm256_max_pd(a, min1[g]));
                    min1[g] = _mm256_min_pd(a, min1[g]);
                    min1_idx[g] = _mm256_blendv_epi8(min1_idx[g], k_vec, _mm256_castpd_si256(lt1));
                    neg[g] = _mm256_xor_pd(neg[g], _mm256_cmp_pd(val, zero, _CMP_LT_OQ));
                }
                k_vec = _mm256_add_epi64(k_vec, one);
            }

            // Per-lane signed scale: ±scale from the target syndrome bit,
            // sign-flipped by the lane's accumulated parity. A layer has
            // degree >= 2, so both minima are finite.
            let mut mag1 = [zero; GROUPS];
            let mut mag2 = [zero; GROUPS];
            for g in 0..GROUPS {
                let lane = _mm256_set1_epi64x((first + 4 * g) as i64);
                let target_sign = _mm256_sllv_epi64(target, _mm256_sub_epi64(to_sign, lane));
                let flips = _mm256_xor_pd(_mm256_castsi256_pd(target_sign), neg[g]);
                let signed_scale =
                    _mm256_xor_pd(_mm256_set1_pd(scale), _mm256_and_pd(flips, sign_mask));
                mag1[g] = _mm256_mul_pd(signed_scale, min1[g]);
                mag2[g] = _mm256_mul_pd(signed_scale, min2[g]);
            }

            // Pass 2 — outgoing messages and posterior updates.
            let mut k_vec = _mm256_setzero_si256();
            for (k, &v) in base.iter().enumerate() {
                let block = v as usize / LANES * BLOCK_STRIDE;
                let shift = v as usize % LANES;
                for g in 0..GROUPS {
                    let lane = first + 4 * g;
                    let at = block + (lane + shift) % LANES;
                    // SAFETY: the slot pass 1 stored for this `(k, g)`.
                    let val = unsafe { _mm256_loadu_pd(vals.add((k * GROUPS + g) * 4)) };
                    let is_min = _mm256_cmpeq_epi64(min1_idx[g], k_vec);
                    let mag = _mm256_blendv_pd(mag1[g], mag2[g], _mm256_castsi256_pd(is_min));
                    let out = _mm256_xor_pd(
                        mag,
                        _mm256_and_pd(_mm256_cmp_pd(val, zero, _CMP_LT_OQ), sign_mask),
                    );
                    let new =
                        _mm256_min_pd(_mm256_max_pd(_mm256_add_pd(val, out), clamp_lo), clamp_hi);
                    // SAFETY: the addresses pass 1 loaded from for this
                    // `(k, g)`. Base columns are distinct within a layer, so
                    // no other lane of the layer reads what this one writes.
                    unsafe {
                        _mm256_storeu_pd(msgs.add(k * LANES + lane), out);
                        _mm256_storeu_pd(post.add(at), new);
                    }
                }
                k_vec = _mm256_add_epi64(k_vec, one);
            }
        }

        // Bring each touched block and its mirror back in step. With `t =
        // shift % 4`, the group that started at in-block offset `60 + t`
        // wrote variables `0..t` into the mirror only, and the group that
        // started at offset `t` wrote variables `t..MIRROR` into the block
        // only.
        for &v in base {
            let block = &mut posterior[v as usize / LANES * BLOCK_STRIDE..][..BLOCK_STRIDE];
            let t = v as usize % 4;
            block.copy_within(LANES..LANES + t, 0);
            block.copy_within(t..MIRROR, LANES + t);
        }
    }
}

/// Packs the hard decisions `posterior < 0` of a [`BLOCK_STRIDE`] layout, one
/// word per block (bit `j` = variable `j` of the block).
///
/// # Safety
///
/// Caller must ensure AVX2 is available.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn pack_negative(posterior: &[f64], hard: &mut [u64]) {
    let zero = _mm256_setzero_pd();
    for (word, block) in hard.iter_mut().zip(posterior.chunks_exact(BLOCK_STRIDE)) {
        *word = 0;
        for (group, four) in block[..LANES].chunks_exact(4).enumerate() {
            // SAFETY: `four` is a slice of exactly four `f64`s (32 readable
            // bytes); the unaligned load has no alignment requirement.
            let llr = unsafe { _mm256_loadu_pd(four.as_ptr()) };
            let negative = _mm256_movemask_pd(_mm256_cmp_pd(llr, zero, _CMP_LT_OQ));
            *word |= (negative as u64) << (4 * group);
        }
    }
}
