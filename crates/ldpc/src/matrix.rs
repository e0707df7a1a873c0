//! Sparse parity-check matrices and their construction.

use std::sync::Arc;

use rand::Rng;
use serde::{Deserialize, Serialize};

use qkd_types::rng::derive_rng;
use qkd_types::{BitVec, QkdError, Result};

/// How a parity-check matrix was (or should be) constructed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Construction {
    /// Progressive edge growth: greedy girth-maximising placement. Best
    /// decoding performance, slower to build.
    Peg,
    /// Quasi-cyclic from a random protograph: structured, fast to build,
    /// hardware-friendly (this is what FPGA implementations use).
    QuasiCyclic {
        /// Circulant (lifting) size.
        circulant: usize,
    },
}

/// Circulant size the structured kernels are built for: one `u64` word, so a
/// circulant shift is a word rotate and a layer's target-syndrome signs are
/// one word.
pub(crate) const LANES: usize = 64;

/// A sparse binary parity-check matrix.
///
/// The bipartite Tanner graph is stored once, flat and `u32`-indexed, in both
/// orientations: a check-major CSR (`check_offsets` / `edge_var`) and the
/// variable-major map derived from it (`var_offsets` / `var_check`, filled
/// in edge order). Decoders index messages by *edge id*,
/// the position of an entry in the check-major edge list. The graph sits
/// behind an [`Arc`], so cloning a matrix — and binding a decoder to it —
/// shares the arrays instead of copying them.
///
/// Construction also settles how syndromes are computed. A matrix whose
/// checks form *layers* of [`LANES`] rows lifted from one base row by cyclic
/// shifts (what [`ParityCheckMatrix::quasi_cyclic`] builds at circulant 64)
/// is recognised edge by edge, and its syndrome word `l` is then
/// `XOR_k rotate_right(x.words[bc_k], s_k)` over the layer's `(bc, s)` pairs.
/// Every other matrix gets word-packed parity masks: per check, the 64-bit
/// words its variables fall into and a parity mask per word.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParityCheckMatrix {
    graph: Arc<Graph>,
}

#[derive(Debug, PartialEq)]
struct Graph {
    n: usize,
    m: usize,
    construction: Construction,
    /// Start of each check's edges in `edge_var` (length `m + 1`).
    check_offsets: Vec<u32>,
    /// Check-major variable indices, one per edge, every entry `< n`.
    edge_var: Vec<u32>,
    /// Start of each variable's entries in `var_check` (length `n + 1`).
    var_offsets: Vec<u32>,
    /// Variable-major check ids, in edge order.
    var_check: Vec<u32>,
    /// `None` for a circulant-layered matrix (rotate-XOR syndromes).
    masks: Option<ParityMasks>,
}

/// Word-packed parity masks: check `c` covers entries
/// `offsets[c]..offsets[c + 1]` of (`word`, `bits`).
#[derive(Debug, PartialEq)]
struct ParityMasks {
    word: Vec<u32>,
    bits: Vec<u64>,
    offsets: Vec<u32>,
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

    /// Check neighbours of variable `v`, ascending.
    pub fn var_neighbors(&self, v: usize) -> &[u32] {
        let g = &*self.graph;
        &g.var_check[g.var_offsets[v] as usize..g.var_offsets[v + 1] as usize]
    }

    /// The construction used to build this matrix.
    pub fn construction(&self) -> Construction {
        self.graph.construction
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

    /// Variable-major CSR offsets (length `num_vars() + 1`).
    pub(crate) fn var_offsets(&self) -> &[u32] {
        &self.graph.var_offsets
    }

    /// Variable-major check ids, in edge order.
    pub(crate) fn var_check(&self) -> &[u32] {
        &self.graph.var_check
    }

    /// Whether the checks form circulant layers: `n` and `m` are multiples
    /// of [`LANES`] and, for every layer `l` with base row
    /// `edge_var[check_offsets[l·64]..]` of degree `d >= 2`, check `l·64 + i`
    /// touches variable `(v_k & !63) | ((v_k + i) & 63)` in position `k`, the
    /// base columns `v_k >> 6` being distinct within the layer. The 64 checks
    /// of a layer are then pairwise variable-disjoint.
    pub(crate) fn is_circulant_layered(&self) -> bool {
        self.graph.masks.is_none()
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

    /// Word-level syndrome: `x` holds the `num_vars()` codeword bits packed
    /// (tail bits zero), `out` receives the `num_checks()` syndrome bits
    /// packed (every word overwritten, tail bits zero).
    ///
    /// # Panics
    ///
    /// Panics if either slice is not exactly the packed length.
    pub(crate) fn syndrome_words(&self, x: &[u64], out: &mut [u64]) {
        let g = &*self.graph;
        assert_eq!(x.len(), g.n.div_ceil(64), "packed codeword length");
        assert_eq!(out.len(), g.m.div_ceil(64), "packed syndrome length");
        match &g.masks {
            None => {
                for (layer, word) in out.iter_mut().enumerate() {
                    *word = self
                        .check_neighbors(layer * LANES)
                        .iter()
                        .fold(0, |acc, &v| acc ^ x[(v >> 6) as usize].rotate_right(v & 63));
                }
            }
            Some(masks) => {
                out.fill(0);
                for c in 0..g.m {
                    let (s, e) = (masks.offsets[c] as usize, masks.offsets[c + 1] as usize);
                    // popcount(a) + popcount(b) ≡ popcount(a ^ b) (mod 2), so
                    // the masked words fold with XOR before a single
                    // popcount.
                    let mut acc = 0u64;
                    for k in s..e {
                        acc ^= x[masks.word[k] as usize] & masks.bits[k];
                    }
                    out[c >> 6] |= u64::from(acc.count_ones() & 1) << (c & 63);
                }
            }
        }
    }

    /// Bit-by-bit syndrome computation: the oracle the packed
    /// implementations are property-tested against.
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

    /// Builds a matrix with the progressive-edge-growth (PEG) algorithm.
    ///
    /// Variables are assigned `var_degree` edges each; every edge goes to the
    /// check that is farthest from the variable in the current graph (or, when
    /// unreachable checks exist, the unreachable check of lowest degree),
    /// which greedily maximises girth.
    ///
    /// # Errors
    ///
    /// Returns [`QkdError::InvalidParameter`] when the dimensions are
    /// degenerate (`m >= n`, zero sizes, or a variable degree that exceeds the
    /// number of checks).
    pub fn peg(n: usize, m: usize, var_degree: usize, seed: u64) -> Result<Self> {
        validate_dims(n, m)?;
        if var_degree == 0 || var_degree > m {
            return Err(QkdError::invalid_parameter(
                "var_degree",
                format!("must lie in 1..={m}, got {var_degree}"),
            ));
        }
        let mut rng = derive_rng(seed, "peg-construction");
        let mut check_to_var: Vec<Vec<usize>> = vec![Vec::new(); m];
        let mut var_to_check: Vec<Vec<usize>> = vec![Vec::new(); n];

        for v in 0..n {
            for k in 0..var_degree {
                let target = if k == 0 {
                    // First edge: lowest-degree check (ties broken randomly).
                    lowest_degree_check(&check_to_var, &mut rng, &var_to_check[v])
                } else {
                    // Subsequent edges: BFS from v to find the most distant
                    // checks; among unreachable (or farthest) checks pick the
                    // one with the lowest degree.
                    farthest_check(&check_to_var, &var_to_check, v, &mut rng)
                };
                check_to_var[target].push(v);
                var_to_check[v].push(target);
            }
        }

        Ok(Self::from_rows(n, m, &check_to_var, Construction::Peg))
    }

    /// Builds a quasi-cyclic matrix from a random protograph.
    ///
    /// The base graph has `m / circulant` check rows and `n / circulant`
    /// variable columns; each base entry present is lifted to a `circulant ×
    /// circulant` cyclic permutation with a random shift.
    ///
    /// # Errors
    ///
    /// Returns [`QkdError::InvalidParameter`] when `circulant` does not divide
    /// both dimensions or the dimensions are degenerate.
    pub fn quasi_cyclic(
        n: usize,
        m: usize,
        circulant: usize,
        base_row_weight: usize,
        seed: u64,
    ) -> Result<Self> {
        validate_dims(n, m)?;
        if circulant == 0 || n % circulant != 0 || m % circulant != 0 {
            return Err(QkdError::invalid_parameter(
                "circulant",
                format!("must divide both n={n} and m={m}"),
            ));
        }
        let base_cols = n / circulant;
        let base_rows = m / circulant;
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
        // would cripple belief propagation.
        let total_edges = base_row_weight * base_rows;
        let col_weight = ((total_edges as f64 / base_cols as f64).round() as usize).max(2);
        let mut base: Vec<Vec<usize>> = vec![Vec::new(); base_rows];
        for c in 0..base_cols {
            for _ in 0..col_weight {
                let min_load = base
                    .iter()
                    .filter(|row| !row.contains(&c))
                    .map(|row| row.len())
                    .min()
                    .unwrap_or(0);
                let candidates: Vec<usize> = base
                    .iter()
                    .enumerate()
                    .filter(|(_, row)| !row.contains(&c) && row.len() == min_load)
                    .map(|(r, _)| r)
                    .collect();
                if candidates.is_empty() {
                    break;
                }
                let r = candidates[rng.gen_range(0..candidates.len())];
                base[r].push(c);
            }
        }

        let mut check_to_var: Vec<Vec<usize>> = vec![Vec::new(); m];
        for (br, cols) in base.iter().enumerate() {
            for &bc in cols {
                let shift = rng.gen_range(0..circulant);
                for i in 0..circulant {
                    let check = br * circulant + i;
                    let var = bc * circulant + (i + shift) % circulant;
                    check_to_var[check].push(var);
                }
            }
        }

        Ok(Self::from_rows(
            n,
            m,
            &check_to_var,
            Construction::QuasiCyclic { circulant },
        ))
    }

    /// Finishes a construction from its check rows (`rows[c]` lists the
    /// variables of check `c` in edge order): flattens them into the shared
    /// `u32` CSR, derives the variable-major map, and settles the syndrome
    /// form — rotate-XOR when the rows are circulant layers, word-packed
    /// parity masks otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `rows.len() != m`, a variable index is `>= n`, or the graph
    /// does not fit `u32` indices.
    pub(crate) fn from_rows(
        n: usize,
        m: usize,
        rows: &[Vec<usize>],
        construction: Construction,
    ) -> Self {
        assert_eq!(rows.len(), m, "one row per check");
        let num_edges: usize = rows.iter().map(Vec::len).sum();
        assert!(
            n.max(m).max(num_edges) < u32::MAX as usize,
            "graph exceeds u32 indexing"
        );
        let mut check_offsets = Vec::with_capacity(m + 1);
        let mut edge_var = Vec::with_capacity(num_edges);
        let mut var_offsets = vec![0u32; n + 1];
        check_offsets.push(0u32);
        for row in rows {
            for &v in row {
                assert!(v < n, "variable {v} out of range for {n} variables");
                edge_var.push(v as u32);
                var_offsets[v + 1] += 1;
            }
            check_offsets.push(edge_var.len() as u32);
        }
        for v in 0..n {
            var_offsets[v + 1] += var_offsets[v];
        }

        // Variable-major map, filled in edge order.
        let mut cursor: Vec<u32> = var_offsets[..n].to_vec();
        let mut var_check = vec![0u32; num_edges];
        for c in 0..m {
            for edge in check_offsets[c]..check_offsets[c + 1] {
                let slot = &mut cursor[edge_var[edge as usize] as usize];
                var_check[*slot as usize] = c as u32;
                *slot += 1;
            }
        }

        let masks = if circulant_layered(n, m, &check_offsets, &edge_var) {
            None
        } else {
            Some(ParityMasks::build(&check_offsets, &edge_var))
        };
        Self {
            graph: Arc::new(Graph {
                n,
                m,
                construction,
                check_offsets,
                edge_var,
                var_offsets,
                var_check,
                masks,
            }),
        }
    }

    /// Builds a matrix for the requested design rate using the construction
    /// that suits the block size (quasi-cyclic for large blocks, PEG
    /// otherwise).
    ///
    /// # Errors
    ///
    /// Returns [`QkdError::InvalidParameter`] for degenerate rates.
    pub fn for_rate(n: usize, rate: f64, seed: u64) -> Result<Self> {
        if !(0.0 < rate && rate < 1.0) {
            return Err(QkdError::invalid_parameter(
                "rate",
                "must lie strictly in (0, 1)",
            ));
        }
        let m = ((1.0 - rate) * n as f64).round() as usize;
        let m = m.clamp(1, n - 1);
        if n >= 16_384 {
            // Hardware-friendly structured code for large blocks.
            let circulant = 64;
            let n_pad = n - n % circulant;
            let m_pad = (m - m % circulant).max(circulant);
            // Average check degree ~ var_degree / (1 - rate) with var degree 3.
            let base_cols = n_pad / circulant;
            let row_weight = ((3.0 / (1.0 - rate)).round() as usize).clamp(4, base_cols);
            Self::quasi_cyclic(n_pad, m_pad, circulant, row_weight, seed)
        } else {
            Self::peg(n, m, 3, seed)
        }
    }
}

/// The edge-by-edge test behind [`ParityCheckMatrix::is_circulant_layered`].
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

impl ParityMasks {
    /// Duplicate entries in a row (none in the standard constructions)
    /// cancel in GF(2), so masks are XOR-merged.
    fn build(check_offsets: &[u32], edge_var: &[u32]) -> Self {
        let mut word = Vec::with_capacity(edge_var.len());
        let mut bits = Vec::with_capacity(edge_var.len());
        let mut offsets = Vec::with_capacity(check_offsets.len());
        offsets.push(0u32);
        let mut entries: Vec<(u32, u64)> = Vec::new();
        for range in check_offsets.windows(2) {
            entries.clear();
            entries.extend(
                edge_var[range[0] as usize..range[1] as usize]
                    .iter()
                    .map(|&v| (v >> 6, 1u64 << (v & 63))),
            );
            entries.sort_unstable_by_key(|&(w, _)| w);
            let row_start = word.len();
            for &(w, bit) in &entries {
                if word.len() > row_start && word.last() == Some(&w) {
                    *bits.last_mut().expect("words and bits move together") ^= bit;
                } else {
                    word.push(w);
                    bits.push(bit);
                }
            }
            offsets.push(word.len() as u32);
        }
        word.shrink_to_fit();
        bits.shrink_to_fit();
        Self {
            word,
            bits,
            offsets,
        }
    }
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

fn lowest_degree_check<R: Rng + ?Sized>(
    check_to_var: &[Vec<usize>],
    rng: &mut R,
    exclude: &[usize],
) -> usize {
    let min_deg = check_to_var
        .iter()
        .enumerate()
        .filter(|(c, _)| !exclude.contains(c))
        .map(|(_, v)| v.len())
        .min()
        .unwrap_or(0);
    let candidates: Vec<usize> = check_to_var
        .iter()
        .enumerate()
        .filter(|(c, v)| v.len() == min_deg && !exclude.contains(c))
        .map(|(c, _)| c)
        .collect();
    candidates[rng.gen_range(0..candidates.len())]
}

/// BFS from variable `v` through the current Tanner graph; returns the check
/// to connect next per the PEG rule.
fn farthest_check<R: Rng + ?Sized>(
    check_to_var: &[Vec<usize>],
    var_to_check: &[Vec<usize>],
    v: usize,
    rng: &mut R,
) -> usize {
    let m = check_to_var.len();
    let mut reached = vec![false; m];
    let mut var_seen = vec![false; var_to_check.len()];
    var_seen[v] = true;

    let mut frontier_checks: Vec<usize> = var_to_check[v].clone();
    for &c in &frontier_checks {
        reached[c] = true;
    }
    let mut last_layer = frontier_checks.clone();

    // Expand until no new checks are reached.
    loop {
        let mut next_vars = Vec::new();
        for &c in &frontier_checks {
            for &u in &check_to_var[c] {
                if !var_seen[u] {
                    var_seen[u] = true;
                    next_vars.push(u);
                }
            }
        }
        let mut next_checks = Vec::new();
        for &u in &next_vars {
            for &c in &var_to_check[u] {
                if !reached[c] {
                    reached[c] = true;
                    next_checks.push(c);
                }
            }
        }
        if next_checks.is_empty() {
            break;
        }
        last_layer = next_checks.clone();
        frontier_checks = next_checks;
    }

    let unreachable: Vec<usize> = (0..m).filter(|&c| !reached[c]).collect();
    let pool = if unreachable.is_empty() {
        last_layer
    } else {
        unreachable
    };
    // Lowest degree within the pool, random tie-break.
    let min_deg = pool
        .iter()
        .map(|&c| check_to_var[c].len())
        .min()
        .unwrap_or(0);
    let candidates: Vec<usize> = pool
        .into_iter()
        .filter(|&c| check_to_var[c].len() == min_deg)
        .collect();
    candidates[rng.gen_range(0..candidates.len())]
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

    fn qc(blocks: usize, layers: &[Vec<(usize, usize)>]) -> ParityCheckMatrix {
        ParityCheckMatrix::from_rows(
            blocks * LANES,
            layers.len() * LANES,
            &layered_rows(layers),
            Construction::QuasiCyclic { circulant: LANES },
        )
    }

    #[test]
    fn circulant_layers_are_recognised_edge_by_edge() {
        assert!(ParityCheckMatrix::quasi_cyclic(1024, 256, 64, 8, 3)
            .unwrap()
            .is_circulant_layered());
        assert!(ParityCheckMatrix::for_rate(16_384, 0.85, 1)
            .unwrap()
            .is_circulant_layered());
        let layers = vec![vec![(0, 0), (2, 63), (3, 17)], vec![(1, 5), (2, 40)]];
        assert!(qc(4, &layers).is_circulant_layered());

        // Everything else keeps the parity masks: a PEG graph, a circulant
        // that is not the lane count, one edge moved inside its block, a
        // base column repeated within a layer (its checks share variables),
        // a degree-1 layer.
        assert!(!ParityCheckMatrix::peg(1024, 256, 3, 1)
            .unwrap()
            .is_circulant_layered());
        assert!(!ParityCheckMatrix::quasi_cyclic(1024, 256, 32, 8, 3)
            .unwrap()
            .is_circulant_layered());
        let mut moved = layered_rows(&layers);
        moved[70][1] ^= 1;
        let moved = ParityCheckMatrix::from_rows(256, 128, &moved, Construction::Peg);
        assert!(!moved.is_circulant_layered());
        for broken in [
            vec![vec![(0, 0), (2, 63), (2, 17)], vec![(1, 5), (2, 40)]],
            vec![vec![(0, 0), (2, 63), (3, 17)], vec![(1, 5)]],
        ] {
            let h = qc(4, &broken);
            assert!(!h.is_circulant_layered());
            let x = BitVec::random(&mut derive_rng(4, "matrix-test"), 256);
            assert_eq!(h.syndrome(&x), h.syndrome_reference(&x));
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// The rotate-XOR syndrome of a circulant-layered matrix equals
            /// the bit-by-bit reference over random shapes (shifts 0 and 63
            /// always present), and so does the masked syndrome of a random
            /// PEG matrix whose length is not a whole number of words. The
            /// output buffer starts stale and is reused throughout.
            #[test]
            fn rotate_xor_syndrome_matches_the_reference(
                seed in any::<u64>(),
                blocks in 2usize..12,
                layers in 1usize..6,
            ) {
                let h = qc(blocks, &random_layers(seed, blocks, layers));
                prop_assert!(h.is_circulant_layered());
                let peg = ParityCheckMatrix::peg(blocks * 50 + layers, blocks * 20 + layers, 3, seed)
                    .unwrap();
                let mut rng = derive_rng(seed, "rotate-xor");
                let mut out = BitVec::ones(13);
                for h in [&h, &peg] {
                    for _ in 0..4 {
                        let x = BitVec::random(&mut rng, h.num_vars());
                        h.syndrome_into(&x, &mut out);
                        prop_assert_eq!(&out, &h.syndrome_reference(&x));
                    }
                }
            }
        }
    }

    #[test]
    fn peg_has_requested_degrees() {
        let h = ParityCheckMatrix::peg(1024, 512, 3, 1).unwrap();
        assert_eq!(h.num_vars(), 1024);
        assert_eq!(h.num_checks(), 512);
        assert_eq!(h.num_edges(), 1024 * 3);
        for v in 0..1024 {
            assert_eq!(h.var_neighbors(v).len(), 3, "variable {v}");
        }
        assert!((h.rate() - 0.5).abs() < 1e-9);
        assert!((h.avg_check_degree() - 6.0).abs() < 0.01);
        assert_eq!(h.construction(), Construction::Peg);
    }

    #[test]
    fn peg_has_no_duplicate_edges() {
        let h = ParityCheckMatrix::peg(512, 256, 3, 2).unwrap();
        for v in 0..512 {
            let mut nb = h.var_neighbors(v).to_vec();
            nb.sort_unstable();
            nb.dedup();
            assert_eq!(
                nb.len(),
                h.var_neighbors(v).len(),
                "variable {v} has a repeated edge"
            );
        }
    }

    #[test]
    fn quasi_cyclic_dimensions_and_structure() {
        let h = ParityCheckMatrix::quasi_cyclic(1024, 256, 64, 8, 3).unwrap();
        assert_eq!(h.num_vars(), 1024);
        assert_eq!(h.num_checks(), 256);
        // Every check row has exactly base_row_weight entries.
        for c in 0..256 {
            assert_eq!(h.check_neighbors(c).len(), 8);
        }
        assert!(matches!(
            h.construction(),
            Construction::QuasiCyclic { circulant: 64 }
        ));
    }

    #[test]
    fn quasi_cyclic_every_variable_is_protected() {
        let h = ParityCheckMatrix::quasi_cyclic(1024, 256, 64, 8, 5).unwrap();
        for v in 0..1024 {
            assert!(!h.var_neighbors(v).is_empty(), "variable {v} has no checks");
        }
    }

    #[test]
    fn syndrome_is_linear() {
        let mut rng = derive_rng(9, "matrix-test");
        let h = ParityCheckMatrix::peg(256, 128, 3, 7).unwrap();
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
        let h = ParityCheckMatrix::peg(128, 64, 3, 8).unwrap();
        let x = BitVec::random(&mut rng, 128);
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
            ParityCheckMatrix::peg(300, 130, 3, 5).unwrap(),
            ParityCheckMatrix::quasi_cyclic(1024, 256, 64, 8, 6).unwrap(),
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
        let small = ParityCheckMatrix::peg(128, 64, 3, 9).unwrap();
        let large = ParityCheckMatrix::peg(512, 256, 3, 9).unwrap();
        let mut out = BitVec::new();
        let x = BitVec::random(&mut rng, 512);
        large.syndrome_into(&x, &mut out);
        assert_eq!(out, large.syndrome_reference(&x));
        // Shrinking reuse must not leak stale bits from the larger syndrome.
        let y = BitVec::random(&mut rng, 128);
        small.syndrome_into(&y, &mut out);
        assert_eq!(out, small.syndrome_reference(&y));
    }

    #[test]
    fn for_rate_picks_construction_by_size() {
        let small = ParityCheckMatrix::for_rate(2048, 0.7, 1).unwrap();
        assert_eq!(small.construction(), Construction::Peg);
        assert!((small.rate() - 0.7).abs() < 0.01);
        let large = ParityCheckMatrix::for_rate(32_768, 0.8, 1).unwrap();
        assert!(matches!(
            large.construction(),
            Construction::QuasiCyclic { .. }
        ));
        assert!((large.rate() - 0.8).abs() < 0.02);
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(ParityCheckMatrix::peg(0, 0, 3, 1).is_err());
        assert!(ParityCheckMatrix::peg(100, 100, 3, 1).is_err());
        assert!(ParityCheckMatrix::peg(100, 50, 0, 1).is_err());
        assert!(ParityCheckMatrix::peg(100, 50, 51, 1).is_err());
        assert!(ParityCheckMatrix::quasi_cyclic(100, 50, 7, 3, 1).is_err());
        assert!(ParityCheckMatrix::quasi_cyclic(128, 64, 64, 0, 1).is_err());
        assert!(ParityCheckMatrix::for_rate(1000, 0.0, 1).is_err());
        assert!(ParityCheckMatrix::for_rate(1000, 1.0, 1).is_err());
    }

    #[test]
    fn construction_is_deterministic_in_the_seed() {
        let a = ParityCheckMatrix::peg(256, 128, 3, 11).unwrap();
        let b = ParityCheckMatrix::peg(256, 128, 3, 11).unwrap();
        let c = ParityCheckMatrix::peg(256, 128, 3, 12).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
