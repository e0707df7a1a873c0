//! Sparse parity-check matrices and their construction.

use std::sync::Arc;

use rand::Rng;
use serde::{Deserialize, Serialize};

use qkd_types::rng::derive_rng;
use qkd_types::{BitVec, QkdError, Result};

/// Circulant size of every code: one `u64` word, so a circulant shift is a
/// word rotate and a layer's target-syndrome signs are one word.
pub(crate) const LANES: usize = 64;

/// Smallest block [`ParityCheckMatrix::for_rate`] builds: four base columns,
/// the least row weight its protograph asks for.
const MIN_BLOCK_BITS: usize = 4 * LANES;

/// A sparse binary parity-check matrix, quasi-cyclic at circulant [`LANES`].
///
/// The bipartite Tanner graph is stored once, flat and `u32`-indexed, as a
/// check-major CSR (`check_offsets` / `edge_var`). Decoders index messages by
/// *edge id*, the position of an entry in the check-major edge list. The
/// graph sits behind an [`Arc`], so cloning a matrix — and binding a decoder
/// to it — shares the arrays instead of copying them.
///
/// Every matrix is *circulant-layered*: its checks form layers of [`LANES`]
/// rows lifted from one base row by cyclic shifts, which construction
/// verifies edge by edge. For every layer `l` with base row
/// `edge_var[check_offsets[l·64]..]` of degree `d >= 2`, check `l·64 + i`
/// touches variable `(v_k & !63) | ((v_k + i) & 63)` in position `k`, the
/// base columns `v_k >> 6` being distinct within the layer. The 64 checks of
/// a layer are then pairwise variable-disjoint, and syndrome word `l` is
/// `XOR_k rotate_right(x.words[bc_k], s_k)` over the layer's `(bc, s)` pairs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParityCheckMatrix {
    graph: Arc<Graph>,
}

#[derive(Debug, PartialEq)]
struct Graph {
    n: usize,
    m: usize,
    /// Start of each check's edges in `edge_var` (length `m + 1`).
    check_offsets: Vec<u32>,
    /// Check-major variable indices, one per edge, every entry `< n`.
    edge_var: Vec<u32>,
}

impl ParityCheckMatrix {
    /// Number of variable nodes (codeword length).
    pub fn num_vars(&self) -> usize {
        self.graph.n
    }

    /// Number of check nodes (syndrome length).
    pub fn num_checks(&self) -> usize {
        self.graph.m
    }

    /// Design rate `1 - m/n`.
    pub fn rate(&self) -> f64 {
        1.0 - self.graph.m as f64 / self.graph.n as f64
    }

    /// Total number of edges in the Tanner graph.
    pub fn num_edges(&self) -> usize {
        self.graph.edge_var.len()
    }

    /// Variable neighbours of check `c`, in edge order.
    pub fn check_neighbors(&self, c: usize) -> &[u32] {
        let g = &*self.graph;
        &g.edge_var[g.check_offsets[c] as usize..g.check_offsets[c + 1] as usize]
    }

    /// Check-major CSR offsets (length `num_checks() + 1`).
    pub(crate) fn check_offsets(&self) -> &[u32] {
        &self.graph.check_offsets
    }

    /// Check-major variable indices, one per edge, every entry
    /// `< num_vars()`.
    pub(crate) fn edge_var(&self) -> &[u32] {
        &self.graph.edge_var
    }

    /// Re-runs construction's edge-by-edge layer test on the stored graph.
    #[cfg(test)]
    pub(crate) fn is_circulant_layered(&self) -> bool {
        let g = &*self.graph;
        circulant_layered(g.n, g.m, &g.check_offsets, &g.edge_var)
    }

    /// Computes the syndrome `H x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != num_vars()`.
    pub fn syndrome(&self, x: &BitVec) -> BitVec {
        let mut s = BitVec::zeros(self.graph.m);
        self.syndrome_into(x, &mut s);
        s
    }

    /// Computes the syndrome `H x` into `out`, resizing it to the syndrome
    /// length. Reusing one output buffer across calls (e.g. across the
    /// attempts of a rate ladder) keeps syndrome computation allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != num_vars()`.
    pub fn syndrome_into(&self, x: &BitVec, out: &mut BitVec) {
        assert_eq!(
            x.len(),
            self.graph.n,
            "codeword length must equal the number of variables"
        );
        out.reset_zeros(self.graph.m);
        self.syndrome_words(x.as_words(), out.as_words_mut());
    }

    /// Word-level syndrome: `x` holds the `num_vars()` codeword bits packed,
    /// `out` receives the `num_checks()` syndrome bits packed, one word per
    /// layer.
    ///
    /// # Panics
    ///
    /// Panics if either slice is not exactly the packed length.
    pub(crate) fn syndrome_words(&self, x: &[u64], out: &mut [u64]) {
        let g = &*self.graph;
        assert_eq!(x.len(), g.n / LANES, "packed codeword length");
        assert_eq!(out.len(), g.m / LANES, "packed syndrome length");
        for (layer, word) in out.iter_mut().enumerate() {
            *word = self
                .check_neighbors(layer * LANES)
                .iter()
                .fold(0, |acc, &v| acc ^ x[(v >> 6) as usize].rotate_right(v & 63));
        }
    }

    /// Bit-by-bit syndrome computation: the oracle the packed
    /// implementation is property-tested against.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != num_vars()`.
    #[cfg(test)]
    pub(crate) fn syndrome_reference(&self, x: &BitVec) -> BitVec {
        assert_eq!(
            x.len(),
            self.graph.n,
            "codeword length must equal the number of variables"
        );
        let mut s = BitVec::zeros(self.graph.m);
        for c in 0..self.graph.m {
            let mut p = false;
            for &v in self.check_neighbors(c) {
                p ^= x.get(v as usize);
            }
            if p {
                s.set(c, true);
            }
        }
        s
    }

    /// Returns `true` when `H e` equals `target`.
    ///
    /// # Panics
    ///
    /// Panics if dimensions do not match.
    pub fn syndrome_matches(&self, e: &BitVec, target: &BitVec) -> bool {
        assert_eq!(
            target.len(),
            self.graph.m,
            "target syndrome length must equal the number of checks"
        );
        self.syndrome(e) == *target
    }

    /// Average variable-node degree.
    pub fn avg_var_degree(&self) -> f64 {
        self.num_edges() as f64 / self.graph.n as f64
    }

    /// Average check-node degree.
    pub fn avg_check_degree(&self) -> f64 {
        self.num_edges() as f64 / self.graph.m as f64
    }

    /// Builds a quasi-cyclic matrix at circulant [`LANES`] from a random
    /// protograph.
    ///
    /// The base graph has `m / 64` check rows and `n / 64` variable columns;
    /// each base entry present is lifted to a `64 × 64` cyclic permutation
    /// with a random shift.
    ///
    /// # Errors
    ///
    /// Returns [`QkdError::InvalidParameter`] when the dimensions are
    /// degenerate or not multiples of 64, when `base_row_weight` is zero,
    /// exceeds the base columns or is too sparse to give every base column
    /// degree 2, and when the protograph would not lift to circulant layers.
    pub fn quasi_cyclic(n: usize, m: usize, base_row_weight: usize, seed: u64) -> Result<Self> {
        validate_dims(n, m)?;
        if n % LANES != 0 || m % LANES != 0 {
            return Err(QkdError::invalid_parameter(
                "n/m",
                format!(
                    "must both be multiples of the circulant size {LANES}, got n={n} and m={m}"
                ),
            ));
        }
        let base_cols = n / LANES;
        let base_rows = m / LANES;
        if base_row_weight == 0 || base_row_weight > base_cols {
            return Err(QkdError::invalid_parameter(
                "base_row_weight",
                format!("must lie in 1..={base_cols}"),
            ));
        }
        if base_row_weight * base_rows < base_cols * 2 {
            return Err(QkdError::invalid_parameter(
                "base_row_weight",
                format!(
                    "too sparse: {base_rows} base rows of weight {base_row_weight} cannot give every one of {base_cols} base columns degree >= 2"
                ),
            ));
        }
        let mut rng = derive_rng(seed, "qc-construction");

        // Column-driven base graph: every base column receives a target column
        // weight (total edges / columns, at least 2), each edge going to the
        // currently least-loaded row it is not yet connected to. This keeps
        // both column and row degrees near-regular — weight-1 variable columns
        // would cripple belief propagation. Columns arrive in ascending order,
        // so a row holds `c` exactly when `c` is its last entry.
        let total_edges = base_row_weight * base_rows;
        let col_weight = ((total_edges as f64 / base_cols as f64).round() as usize).max(2);
        let mut base: Vec<Vec<usize>> = vec![Vec::new(); base_rows];
        let mut candidates = Vec::with_capacity(base_rows);
        for c in 0..base_cols {
            for _ in 0..col_weight {
                let open = |row: &Vec<usize>| row.last() != Some(&c);
                let min_load = base.iter().filter(|row| open(row)).map(Vec::len).min();
                candidates.clear();
                candidates.extend(
                    (0..base_rows).filter(|&r| open(&base[r]) && Some(base[r].len()) == min_load),
                );
                if candidates.is_empty() {
                    break;
                }
                let r = candidates[rng.gen_range(0..candidates.len())];
                base[r].push(c);
            }
        }

        // Lift in place: every check of base row `br` has the row's degree,
        // and its `k`-th entry comes from the row's `k`-th base column. The
        // shifts are drawn row by row, column by column.
        let num_edges = base.iter().map(Vec::len).sum::<usize>() * LANES;
        assert!(num_edges < u32::MAX as usize, "graph exceeds u32 indexing");
        let mut check_offsets = Vec::with_capacity(m + 1);
        check_offsets.push(0u32);
        let mut edge_var = vec![0u32; num_edges];
        let mut start = 0;
        for cols in &base {
            let degree = cols.len();
            for (k, &bc) in cols.iter().enumerate() {
                let shift = rng.gen_range(0..LANES);
                for i in 0..LANES {
                    edge_var[start + i * degree + k] = (bc * LANES + (i + shift) % LANES) as u32;
                }
            }
            for _ in 0..LANES {
                start += degree;
                check_offsets.push(start as u32);
            }
        }

        Self::from_layered_csr(n, m, check_offsets, edge_var).ok_or_else(|| {
            QkdError::invalid_parameter(
                "base_row_weight",
                format!("a {base_rows}×{base_cols} protograph left a base row below degree 2"),
            )
        })
    }

    /// Wraps a check-major CSR, or `None` when its checks do not form
    /// circulant layers.
    fn from_layered_csr(
        n: usize,
        m: usize,
        check_offsets: Vec<u32>,
        edge_var: Vec<u32>,
    ) -> Option<Self> {
        circulant_layered(n, m, &check_offsets, &edge_var).then(|| Self {
            graph: Arc::new(Graph {
                n,
                m,
                check_offsets,
                edge_var,
            }),
        })
    }

    /// Builds a matrix from explicit check rows (`rows[c]` lists the
    /// variables of check `c` in edge order), refusing any that are not
    /// circulant layers.
    #[cfg(test)]
    pub(crate) fn from_rows(n: usize, m: usize, rows: &[Vec<usize>]) -> Result<Self> {
        assert_eq!(rows.len(), m, "one row per check");
        let mut check_offsets = vec![0u32];
        let mut edge_var = Vec::new();
        for row in rows {
            edge_var.extend(row.iter().map(|&v| {
                assert!(v < n, "variable {v} out of range for {n} variables");
                v as u32
            }));
            check_offsets.push(edge_var.len() as u32);
        }
        Self::from_layered_csr(n, m, check_offsets, edge_var).ok_or_else(|| {
            QkdError::invalid_parameter("rows", "checks do not form circulant layers")
        })
    }

    /// Builds the quasi-cyclic matrix for the requested design rate: `m` is
    /// `(1 - rate) · n` rounded, then rounded *down* to a multiple of 64 (at
    /// least 64), so the code runs at or above the rate asked for; the base
    /// rows have weight `3 / (1 - rate)`, i.e. variable degree ~3.
    ///
    /// # Errors
    ///
    /// Returns [`QkdError::InvalidParameter`] for degenerate rates, for a
    /// block size under 256 bits or not a multiple of 64, and for a rate
    /// whose protograph is too sparse at this size (the high rates below
    /// 1024 bits).
    pub fn for_rate(n: usize, rate: f64, seed: u64) -> Result<Self> {
        validate_block_size(n)?;
        if !(0.0 < rate && rate < 1.0) {
            return Err(QkdError::invalid_parameter(
                "rate",
                "must lie strictly in (0, 1)",
            ));
        }
        let m = ((1.0 - rate) * n as f64).round() as usize;
        let m = (m - m % LANES).max(LANES);
        let row_weight = ((3.0 / (1.0 - rate)).round() as usize).clamp(4, n / LANES);
        Self::quasi_cyclic(n, m, row_weight, seed)
    }
}

/// Refuses a block size [`ParityCheckMatrix::for_rate`] cannot build exactly:
/// under 256 bits or not a multiple of 64.
///
/// # Errors
///
/// Returns [`QkdError::InvalidParameter`] naming `block_size`.
pub(crate) fn validate_block_size(n: usize) -> Result<()> {
    if n < MIN_BLOCK_BITS || n % LANES != 0 {
        return Err(QkdError::invalid_parameter(
            "block_size",
            format!("must be a multiple of 64 bits and at least {MIN_BLOCK_BITS}, got {n}"),
        ));
    }
    Ok(())
}

/// The edge-by-edge layer test every matrix passes at construction (see
/// [`ParityCheckMatrix`]).
fn circulant_layered(n: usize, m: usize, check_offsets: &[u32], edge_var: &[u32]) -> bool {
    if n % LANES != 0 || m % LANES != 0 {
        return false;
    }
    let row = |c: usize| &edge_var[check_offsets[c] as usize..check_offsets[c + 1] as usize];
    // Layer (+1) that last used each base column.
    let mut used_by = vec![0u32; n / LANES];
    for layer in 0..m / LANES {
        let base = row(layer * LANES);
        if base.len() < 2 {
            return false;
        }
        for &v in base {
            let stamp = &mut used_by[v as usize / LANES];
            if *stamp == layer as u32 + 1 {
                return false;
            }
            *stamp = layer as u32 + 1;
        }
        for i in 1..LANES {
            let lifted = base.iter().map(|&v| (v & !63) | ((v + i as u32) & 63));
            if !row(layer * LANES + i).iter().copied().eq(lifted) {
                return false;
            }
        }
    }
    true
}

fn validate_dims(n: usize, m: usize) -> Result<()> {
    if n == 0 || m == 0 {
        return Err(QkdError::invalid_parameter(
            "n/m",
            "dimensions must be positive",
        ));
    }
    if m >= n {
        return Err(QkdError::invalid_parameter(
            "m",
            format!("number of checks ({m}) must be below the block length ({n})"),
        ));
    }
    Ok(())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use qkd_types::rng::derive_rng;

    /// Check rows of a circulant-layered matrix: `layers[l]` lists the
    /// `(base column, shift)` pairs of layer `l`.
    pub(crate) fn layered_rows(layers: &[Vec<(usize, usize)>]) -> Vec<Vec<usize>> {
        let lift = |layer: &[(usize, usize)], i: usize| {
            layer
                .iter()
                .map(|&(bc, s)| bc * LANES + (i + s) % LANES)
                .collect()
        };
        layers
            .iter()
            .flat_map(|layer| (0..LANES).map(move |i| lift(layer, i)))
            .collect()
    }

    /// A random circulant-layered table over `blocks` base columns whose
    /// first layer carries the extreme shifts 0 and 63.
    pub(crate) fn random_layers(
        seed: u64,
        blocks: usize,
        layers: usize,
    ) -> Vec<Vec<(usize, usize)>> {
        let mut rng = derive_rng(seed, "random-layers");
        let mut table: Vec<Vec<(usize, usize)>> = (0..layers)
            .map(|_| {
                let degree = rng.gen_range(2..=blocks.min(9));
                let mut columns: Vec<usize> = (0..blocks).collect();
                for k in 0..degree {
                    let pick = rng.gen_range(k..blocks);
                    columns.swap(k, pick);
                }
                columns[..degree]
                    .iter()
                    .map(|&bc| (bc, rng.gen_range(0..LANES)))
                    .collect()
            })
            .collect();
        table[0][0].1 = 0;
        table[0][1].1 = LANES - 1;
        table
    }

    fn qc(blocks: usize, layers: &[Vec<(usize, usize)>]) -> Result<ParityCheckMatrix> {
        ParityCheckMatrix::from_rows(blocks * LANES, layers.len() * LANES, &layered_rows(layers))
    }

    fn var_degrees(h: &ParityCheckMatrix) -> Vec<usize> {
        let mut degrees = vec![0; h.num_vars()];
        for &v in h.edge_var() {
            degrees[v as usize] += 1;
        }
        degrees
    }

    fn refused(result: Result<ParityCheckMatrix>) -> bool {
        matches!(result, Err(QkdError::InvalidParameter { .. }))
    }

    #[test]
    fn circulant_layers_are_recognised_edge_by_edge() {
        assert!(ParityCheckMatrix::quasi_cyclic(1024, 256, 8, 3)
            .unwrap()
            .is_circulant_layered());
        assert!(ParityCheckMatrix::for_rate(16_384, 0.85, 1)
            .unwrap()
            .is_circulant_layered());
        let layers = vec![
            vec![(0, 0), (2, 63), (3, 17), (5, 9)],
            vec![(1, 5), (2, 40), (4, 1), (5, 33)],
            vec![(0, 21), (1, 62), (3, 3), (4, 50)],
        ];
        assert!(qc(6, &layers).unwrap().is_circulant_layered());

        // Everything else is refused: one edge moved inside its block, a
        // base column repeated within a layer (its checks share variables),
        // a degree-1 layer, a length that is not whole circulants.
        let mut moved = layered_rows(&layers);
        moved[70][1] ^= 1;
        assert!(refused(ParityCheckMatrix::from_rows(384, 192, &moved)));
        let mut repeated = layers.clone();
        repeated[0][2].0 = 2;
        assert!(refused(qc(6, &repeated)));
        let mut thin = layers.clone();
        thin[1].truncate(1);
        assert!(refused(qc(6, &thin)));
        assert!(refused(ParityCheckMatrix::from_rows(
            400,
            192,
            &layered_rows(&layers)
        )));
    }

    mod properties {
        use super::*;
        use crate::decoder::{DecoderConfig, SyndromeDecoder};
        use crate::reconciler::DEFAULT_RATES;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// The rotate-XOR syndrome equals the bit-by-bit reference over
            /// random layered shapes (shifts 0 and 63 always present) and
            /// over `for_rate` codes from 256 to 4096 bits. The output buffer
            /// starts stale and is reused throughout.
            #[test]
            fn rotate_xor_syndrome_matches_the_reference(
                seed in any::<u64>(),
                blocks in 2usize..12,
                layers in 1usize..6,
                words in 4usize..=64,
            ) {
                let h = qc(blocks, &random_layers(seed, blocks, layers)).unwrap();
                let code = ParityCheckMatrix::for_rate(words * LANES, 0.5, seed).unwrap();
                let mut rng = derive_rng(seed, "rotate-xor");
                let mut out = BitVec::ones(13);
                for h in [&h, &code] {
                    for _ in 0..4 {
                        let x = BitVec::random(&mut rng, h.num_vars());
                        h.syndrome_into(&x, &mut out);
                        prop_assert_eq!(&out, &h.syndrome_reference(&x));
                    }
                }
            }

            /// Every block size from 1024 to 32 768 bits that is a multiple
            /// of 64 gets a circulant-layered code at every default rate:
            /// `n` variables, `m = round((1 - R)·n)` rounded down to a
            /// multiple of 64 (at least 64), every variable in two checks or
            /// more, and a decoder on the circulant-lane sweep.
            #[test]
            fn for_rate_builds_a_layered_code_at_every_size(
                words in 16usize..=512,
                rate_index in 0..DEFAULT_RATES.len(),
                seed in any::<u64>(),
            ) {
                let (n, rate) = (words * LANES, DEFAULT_RATES[rate_index]);
                let h = ParityCheckMatrix::for_rate(n, rate, seed).unwrap();
                prop_assert!(h.is_circulant_layered());
                prop_assert_eq!(h.num_vars(), n);
                let m = ((1.0 - rate) * n as f64).round() as usize;
                prop_assert_eq!(h.num_checks(), (m / LANES * LANES).max(LANES));
                prop_assert!(var_degrees(&h).iter().all(|&d| d >= 2));
                let kernel = SyndromeDecoder::new(&h, DecoderConfig::default()).unwrap().kernel();
                prop_assert!(["qc-avx2", "qc-scalar"].contains(&kernel), "{}", kernel);
            }
        }
    }

    /// Below 1024 bits the half-rate codes still build; the high rates
    /// leave too few base rows to give every column degree 2, and sizes
    /// under 256 bits or off the 64-bit grid have no code at all.
    #[test]
    fn small_and_off_grid_sizes_build_or_are_refused() {
        for n in [256, 512] {
            let h = ParityCheckMatrix::for_rate(n, 0.5, 3).unwrap();
            assert!(h.is_circulant_layered());
            assert_eq!(h.num_checks(), n / 2);
            assert!(var_degrees(&h).iter().all(|&d| d >= 2));
            assert!(refused(ParityCheckMatrix::for_rate(n, 0.85, 3)), "{n}");
        }
        for n in [0, 64, 128, 192, 1000, 20_000] {
            let err = ParityCheckMatrix::for_rate(n, 0.5, 3).unwrap_err();
            assert!(
                matches!(&err, QkdError::InvalidParameter { name, reason }
                    if *name == "block_size" && reason.contains("multiple of 64")),
                "{n}: {err}"
            );
        }
    }

    #[test]
    fn quasi_cyclic_dimensions_and_structure() {
        let h = ParityCheckMatrix::quasi_cyclic(1024, 256, 8, 3).unwrap();
        assert_eq!(h.num_vars(), 1024);
        assert_eq!(h.num_checks(), 256);
        // Every check row has exactly base_row_weight entries.
        for c in 0..256 {
            assert_eq!(h.check_neighbors(c).len(), 8);
        }
        assert!((h.rate() - 0.75).abs() < 1e-9);
        assert!((h.avg_check_degree() - 8.0).abs() < 1e-9);
        assert!((h.avg_var_degree() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn quasi_cyclic_every_variable_is_protected() {
        let h = ParityCheckMatrix::quasi_cyclic(1024, 256, 8, 5).unwrap();
        for (v, &degree) in var_degrees(&h).iter().enumerate() {
            assert!(degree > 0, "variable {v} has no checks");
        }
    }

    #[test]
    fn syndrome_is_linear() {
        let mut rng = derive_rng(9, "matrix-test");
        let h = ParityCheckMatrix::for_rate(256, 0.5, 7).unwrap();
        let a = BitVec::random(&mut rng, 256);
        let b = BitVec::random(&mut rng, 256);
        let sa = h.syndrome(&a);
        let sb = h.syndrome(&b);
        let sum = &a ^ &b;
        assert_eq!(h.syndrome(&sum), &sa ^ &sb);
        assert_eq!(h.syndrome(&BitVec::zeros(256)).count_ones(), 0);
    }

    #[test]
    fn syndrome_matches_helper() {
        let mut rng = derive_rng(10, "matrix-test");
        let h = ParityCheckMatrix::for_rate(256, 0.5, 8).unwrap();
        let x = BitVec::random(&mut rng, 256);
        let s = h.syndrome(&x);
        assert!(h.syndrome_matches(&x, &s));
        let mut y = x.clone();
        y.flip(0);
        assert!(!h.syndrome_matches(&y, &s));
    }

    #[test]
    fn packed_syndrome_matches_the_bitwise_reference() {
        let mut rng = derive_rng(17, "matrix-test");
        for h in [
            ParityCheckMatrix::for_rate(4096, 0.7, 5).unwrap(),
            ParityCheckMatrix::quasi_cyclic(1024, 256, 8, 6).unwrap(),
        ] {
            for _ in 0..8 {
                let x = BitVec::random(&mut rng, h.num_vars());
                assert_eq!(h.syndrome(&x), h.syndrome_reference(&x));
            }
        }
    }

    #[test]
    fn syndrome_into_reuses_the_buffer() {
        let mut rng = derive_rng(18, "matrix-test");
        let small = ParityCheckMatrix::for_rate(256, 0.5, 9).unwrap();
        let large = ParityCheckMatrix::for_rate(1024, 0.5, 9).unwrap();
        let mut out = BitVec::new();
        let x = BitVec::random(&mut rng, 1024);
        large.syndrome_into(&x, &mut out);
        assert_eq!(out, large.syndrome_reference(&x));
        // Shrinking reuse must not leak stale bits from the larger syndrome.
        let y = BitVec::random(&mut rng, 256);
        small.syndrome_into(&y, &mut out);
        assert_eq!(out, small.syndrome_reference(&y));
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(refused(ParityCheckMatrix::quasi_cyclic(0, 0, 3, 1)));
        assert!(refused(ParityCheckMatrix::quasi_cyclic(128, 128, 2, 1)));
        assert!(refused(ParityCheckMatrix::quasi_cyclic(100, 50, 3, 1)));
        assert!(refused(ParityCheckMatrix::quasi_cyclic(128, 64, 0, 1)));
        assert!(refused(ParityCheckMatrix::quasi_cyclic(256, 64, 5, 1)));
        // One base row of weight 3 cannot reach four base columns twice.
        assert!(refused(ParityCheckMatrix::quasi_cyclic(256, 64, 3, 1)));
        assert!(refused(ParityCheckMatrix::for_rate(1024, 0.0, 1)));
        assert!(refused(ParityCheckMatrix::for_rate(1024, 1.0, 1)));
    }

    #[test]
    fn construction_is_deterministic_in_the_seed() {
        let a = ParityCheckMatrix::for_rate(1024, 0.5, 11).unwrap();
        let b = ParityCheckMatrix::for_rate(1024, 0.5, 11).unwrap();
        let c = ParityCheckMatrix::for_rate(1024, 0.5, 12).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
