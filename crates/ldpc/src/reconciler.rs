//! Rate-adaptive LDPC reconciliation protocol.
//!
//! [`LdpcReconciler`] owns a [`CodeLibrary`] of mother codes at several design
//! rates for one block size. For each block it selects the highest-rate code
//! whose redundancy covers the estimated QBER (with a safety margin), runs
//! syndrome decoding, and falls back to progressively lower rates when the
//! decoder fails to converge — the practical equivalent of blind
//! reconciliation, with every disclosed syndrome counted as leakage.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use serde::{Deserialize, Serialize};

use qkd_types::key::binary_entropy;
use qkd_types::rng::derive_block_rng;
use qkd_types::secret::zeroize_words;
use qkd_types::{BitVec, QkdError, Result};

use crate::decoder::{DecoderConfig, DecoderScratch, SyndromeDecoder};
use crate::matrix::{validate_block_size, ParityCheckMatrix};

/// Default set of mother-code design rates.
///
/// The low-rate tail (0.30/0.40/0.45) exists for stressed links near the
/// abort threshold: at 8% QBER `1 − R` must exceed ~1.35·h(8%) ≈ 0.54, and
/// the 0.30 code keeps decoding feasible up to ~11% — estimates past the
/// sampling bound no longer exhaust the ladder. (It cannot make an 8 kbit
/// stressed block *distillable*: even Shannon-limit reconciliation leaves
/// only ~280 bits there before the finite-key deviation term, so such blocks
/// still fail at privacy amplification, not at decoding.)
///
/// Rates are listed in construction order, not sorted: each code's
/// construction seed is derived from its position in this array, so new
/// rates are appended to keep every existing code — and thus every distilled
/// key — bit-stable.
pub const DEFAULT_RATES: [f64; 9] = [0.4, 0.45, 0.5, 0.6, 0.7, 0.75, 0.8, 0.85, 0.3];

/// A library of mother codes (one per design rate) for a fixed block size,
/// with decoders pre-built for each.
#[derive(Debug, Clone)]
pub struct CodeLibrary {
    block_size: usize,
    entries: Vec<LibraryEntry>,
}

#[derive(Debug, Clone)]
struct LibraryEntry {
    rate: f64,
    matrix: ParityCheckMatrix,
    decoder: SyndromeDecoder,
}

impl CodeLibrary {
    /// Builds a library for `block_size`-bit blocks at the given design rates.
    ///
    /// The codes are independent (code `i` is seeded `seed + i`), so they are
    /// built on up to `available_parallelism` threads, longest (lowest rate)
    /// first; the library is the same whatever the thread count.
    ///
    /// # Errors
    ///
    /// Returns [`QkdError::InvalidParameter`] when `block_size` is one the
    /// quasi-cyclic construction cannot build exactly (under 256 bits or not
    /// a multiple of 64), or a rate is degenerate or too high for the size.
    pub fn new(
        block_size: usize,
        rates: &[f64],
        decoder_config: DecoderConfig,
        seed: u64,
    ) -> Result<Self> {
        if rates.is_empty() {
            return Err(QkdError::invalid_parameter(
                "rates",
                "at least one design rate is required",
            ));
        }
        let build = |i: usize| -> Result<LibraryEntry> {
            let matrix =
                ParityCheckMatrix::for_rate(block_size, rates[i], seed.wrapping_add(i as u64))?;
            let decoder = SyndromeDecoder::new(&matrix, decoder_config)?;
            Ok(LibraryEntry {
                rate: rates[i],
                matrix,
                decoder,
            })
        };
        let mut longest_first: Vec<usize> = (0..rates.len()).collect();
        longest_first.sort_by(|&a, &b| rates[a].total_cmp(&rates[b]));
        let next = AtomicUsize::new(0);
        let workers = std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(rates.len());
        let worker = || {
            let mut done = Vec::new();
            // Relaxed: the counter hands out indices and publishes nothing
            // else.
            while let Some(&i) = longest_first.get(next.fetch_add(1, Ordering::Relaxed)) {
                done.push((i, build(i)));
            }
            done
        };
        // The calling thread is one of the workers.
        let mut done = std::thread::scope(|scope| {
            let others: Vec<_> = (1..workers).map(|_| scope.spawn(worker)).collect();
            let mut done = worker();
            for other in others {
                done.extend(other.join().expect("code construction panicked"));
            }
            done
        });
        // Back in `rates` order, so the error reported is the first one in
        // that order whichever thread met it.
        done.sort_by_key(|&(i, _)| i);
        let mut entries = done
            .into_iter()
            .map(|(_, entry)| entry)
            .collect::<Result<Vec<_>>>()?;
        // Sort descending by rate so "highest feasible rate" is a linear scan.
        entries.sort_by(|a, b| b.rate.partial_cmp(&a.rate).expect("rates are finite"));
        Ok(Self {
            block_size,
            entries,
        })
    }

    /// Builds the default library (rates 0.3–0.85) for `block_size`.
    ///
    /// # Errors
    ///
    /// See [`CodeLibrary::new`].
    pub fn standard(block_size: usize, seed: u64) -> Result<Self> {
        Self::new(block_size, &DEFAULT_RATES, DecoderConfig::default(), seed)
    }

    /// The block size the library was built for.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Available design rates, highest first.
    pub fn rates(&self) -> Vec<f64> {
        self.entries.iter().map(|e| e.rate).collect()
    }

    /// Returns the process-wide shared library for this exact configuration,
    /// building it on first use.
    ///
    /// A library is nine codes and their decoders — milliseconds to build and
    /// megabytes to hold at 16 384 bits — and a pure function of
    /// `(block_size, rates, decoder_config, seed)`. Every
    /// [`crate::LdpcReconciler`] with the same configuration (e.g. a fleet of
    /// engines at one block size) therefore shares one immutable library
    /// instead of rebuilding it per engine.
    ///
    /// # Errors
    ///
    /// See [`CodeLibrary::new`].
    pub fn shared(
        block_size: usize,
        rates: &[f64],
        decoder_config: DecoderConfig,
        seed: u64,
    ) -> Result<Arc<Self>> {
        struct CacheEntry {
            block_size: usize,
            rates: Vec<f64>,
            decoder: DecoderConfig,
            seed: u64,
            library: Arc<CodeLibrary>,
        }
        /// The cache is a bounded LRU so a long-lived process that cycles
        /// through many distinct configurations (per-link seeds, block-size
        /// sweeps) cannot grow memory without bound; engines holding an `Arc`
        /// keep their library alive past eviction.
        const MAX_CACHED: usize = 8;
        static CACHE: OnceLock<Mutex<Vec<CacheEntry>>> = OnceLock::new();
        // The lock is held across construction on purpose: concurrent callers
        // asking for the same library wait for one build instead of racing
        // through several.
        let mut cache = CACHE
            .get_or_init(|| Mutex::new(Vec::new()))
            .lock()
            .expect("code library cache poisoned");
        if let Some(position) = cache.iter().position(|e| {
            e.block_size == block_size
                && e.rates == rates
                && e.decoder == decoder_config
                && e.seed == seed
        }) {
            // Move the hit to the back (most recently used).
            let entry = cache.remove(position);
            let library = Arc::clone(&entry.library);
            cache.push(entry);
            return Ok(library);
        }
        let library = Arc::new(Self::new(block_size, rates, decoder_config, seed)?);
        if cache.len() >= MAX_CACHED {
            cache.remove(0);
        }
        cache.push(CacheEntry {
            block_size,
            rates: rates.to_vec(),
            decoder: decoder_config,
            seed,
            library: Arc::clone(&library),
        });
        Ok(library)
    }

    /// Index of the highest-rate code whose redundancy is at least
    /// `efficiency * h(qber)` per codeword bit, or the lowest-rate code if
    /// none qualifies. Equivalent to
    /// [`CodeLibrary::select_for_payload`] with a full-length payload.
    pub fn select(&self, qber: f64, efficiency: f64) -> usize {
        self.select_for_payload(self.block_size, qber, efficiency)
    }

    /// Shortening-aware rate selection: the index of the highest-rate code
    /// whose syndrome discloses at least `efficiency * h(qber)` bits per
    /// *payload* bit, or the lowest-rate code if none qualifies.
    ///
    /// A shortened block fills `n - payload_bits` positions with agreed
    /// filler, so the `m = (1 - R) · n` syndrome bits only have to cover
    /// `payload_bits` unknowns: the requirement is
    /// `(1 - R) ≥ efficiency · h(q) · payload / n`. Charging the leak over
    /// the code length instead (the old behaviour) overcharged shortened
    /// payloads by `n / payload` (~18% for a typical final partial block) and
    /// pushed them one rung too far down the ladder.
    pub fn select_for_payload(&self, payload_bits: usize, qber: f64, efficiency: f64) -> usize {
        let payload = payload_bits.clamp(1, self.block_size) as f64;
        let needed = efficiency * binary_entropy(qber.max(1e-4)) * payload / self.block_size as f64;
        self.entries
            .iter()
            .position(|e| (1.0 - e.rate) >= needed)
            .unwrap_or(self.entries.len() - 1)
    }
}

/// Configuration of the LDPC reconciler.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReconcilerConfig {
    /// Block size (codeword length) in bits.
    pub block_size: usize,
    /// Design rates of the mother codes.
    pub rates: Vec<f64>,
    /// Efficiency margin used for rate selection (`1.0` = Shannon limit;
    /// practical values 1.1–1.3).
    pub efficiency_target: f64,
    /// Decoder settings shared by all codes in the library.
    pub decoder: DecoderConfig,
    /// Maximum number of progressively lower-rate attempts per block.
    pub max_rate_retries: usize,
    /// Seed for code construction and shortening-position agreement.
    pub seed: u64,
}

impl ReconcilerConfig {
    /// Sensible defaults for the given block size.
    pub fn for_block_size(block_size: usize) -> Self {
        Self {
            block_size,
            rates: DEFAULT_RATES.to_vec(),
            efficiency_target: 1.35,
            decoder: DecoderConfig::default(),
            max_rate_retries: 3,
            seed: 0xC0DE,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`QkdError::InvalidParameter`] for degenerate fields and for a
    /// block size the codes cannot be built at (under 256 bits or not a
    /// multiple of 64).
    pub fn validate(&self) -> Result<()> {
        validate_block_size(self.block_size)?;
        // Written so that NaN fails it too.
        if !(self.efficiency_target.is_finite() && self.efficiency_target >= 1.0) {
            return Err(QkdError::invalid_parameter(
                "efficiency_target",
                "must be finite and >= 1.0 (cannot beat the Shannon limit)",
            ));
        }
        if self.max_rate_retries == 0 {
            return Err(QkdError::invalid_parameter(
                "max_rate_retries",
                "must be at least 1",
            ));
        }
        self.decoder.validate()
    }
}

/// Result of reconciling one block with LDPC syndrome coding.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LdpcOutcome {
    /// Bob's corrected key (equal to Alice's on success).
    pub corrected: BitVec,
    /// Total syndrome bits disclosed across all attempts.
    pub leaked_bits: usize,
    /// Errors corrected in the block.
    pub corrected_errors: usize,
    /// Decoder iterations used by the successful attempt.
    pub iterations: usize,
    /// Design rate of the code that succeeded.
    pub rate_used: f64,
    /// Number of decode attempts (1 = first-choice rate succeeded).
    pub attempts: usize,
    /// One-way messages exchanged (one syndrome per attempt).
    pub messages: usize,
}

impl LdpcOutcome {
    /// Reconciliation efficiency `f = leak / (n · h(qber))` from the corrected
    /// error count.
    pub fn efficiency(&self, n: usize) -> Option<f64> {
        if n == 0 || self.corrected_errors == 0 {
            return None;
        }
        let qber = self.corrected_errors as f64 / n as f64;
        let h = binary_entropy(qber);
        if h <= 0.0 {
            None
        } else {
            Some(self.leaked_bits as f64 / (n as f64 * h))
        }
    }
}

/// Reusable working memory for [`LdpcReconciler::reconcile_with_scratch`]:
/// the decoder arena plus the codeword, syndrome and override buffers the
/// protocol itself needs.
///
/// One scratch serves every attempt of a rate ladder, every block of a
/// session, and reconcilers of different block sizes (buffers only ever
/// grow). Holding one scratch per worker thread removes all per-block setup
/// allocation from the reconciliation hot path.
#[derive(Clone, Default)]
pub struct ReconcilerScratch {
    decoder: DecoderScratch,
    overrides: Vec<(usize, f64)>,
    alice_word: BitVec,
    bob_word: BitVec,
    corrected_word: BitVec,
    syndrome_a: BitVec,
    syndrome_check: BitVec,
    target: BitVec,
}

impl ReconcilerScratch {
    /// Creates an empty scratch; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }

    fn zeroize(&mut self) {
        self.decoder.zeroize();
        for (index, llr) in self.overrides.iter_mut() {
            *index = 0;
            *llr = 0.0;
        }
        for bits in [
            &mut self.alice_word,
            &mut self.bob_word,
            &mut self.corrected_word,
            &mut self.syndrome_a,
            &mut self.syndrome_check,
            &mut self.target,
        ] {
            zeroize_words(bits.as_words_mut());
        }
    }
}

impl std::fmt::Debug for ReconcilerScratch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The scratch is full of key-derived state (words, syndromes, LLRs);
        // print only capacities.
        f.debug_struct("ReconcilerScratch")
            .field("word_bits", &self.alice_word.len())
            .field("syndrome_bits", &self.syndrome_a.len())
            .finish_non_exhaustive()
    }
}

impl Drop for ReconcilerScratch {
    /// Reconciliation scratch holds raw key words and key-derived soft
    /// information between blocks; scrub it before the allocator reuses the
    /// memory.
    fn drop(&mut self) {
        self.zeroize();
    }
}

/// Rate-adaptive LDPC reconciler for fixed-size blocks.
///
/// The code library is shared process-wide between reconcilers with equal
/// configurations (see [`CodeLibrary::shared`]): constructing a second engine
/// at the same block size is cheap, which is what makes multi-link fleets
/// affordable.
///
/// Hot paths should pass their own long-lived [`ReconcilerScratch`] to
/// [`LdpcReconciler::reconcile_with_scratch`]; the plain
/// [`LdpcReconciler::reconcile`] keeps one scratch per reconciler for
/// convenience callers.
#[derive(Debug)]
pub struct LdpcReconciler {
    config: ReconcilerConfig,
    library: Arc<CodeLibrary>,
    /// Per-reconciler scratch for [`LdpcReconciler::reconcile`]. Guarded so
    /// `reconcile` stays callable through a shared reference; a contended
    /// call falls back to a fresh scratch instead of serialising decoders.
    scratch: Mutex<ReconcilerScratch>,
    /// Rate-ladder attempts per reconciled block (`qkd_ldpc_ladder_attempts`).
    obs_attempts: qkd_obs::Histogram,
    /// Syndrome bits disclosed (`qkd_ldpc_syndrome_leaked_bits_total`).
    obs_leaked: qkd_obs::Counter,
    /// Blocks no code in the ladder converged on
    /// (`qkd_ldpc_reconcile_failures_total`).
    obs_failures: qkd_obs::Counter,
}

impl Clone for LdpcReconciler {
    fn clone(&self) -> Self {
        Self {
            config: self.config.clone(),
            library: Arc::clone(&self.library),
            scratch: Mutex::new(ReconcilerScratch::new()),
            obs_attempts: self.obs_attempts.clone(),
            obs_leaked: self.obs_leaked.clone(),
            obs_failures: self.obs_failures.clone(),
        }
    }
}

impl LdpcReconciler {
    /// Builds a reconciler from a configuration, sharing the code library
    /// with any other reconciler of the same configuration.
    ///
    /// # Errors
    ///
    /// Returns [`QkdError::InvalidParameter`] when the configuration is
    /// invalid or code construction fails.
    pub fn new(config: ReconcilerConfig) -> Result<Self> {
        config.validate()?;
        let library = CodeLibrary::shared(
            config.block_size,
            &config.rates,
            config.decoder,
            config.seed,
        )?;
        let obs = qkd_obs::registry();
        Ok(Self {
            config,
            library,
            scratch: Mutex::new(ReconcilerScratch::new()),
            obs_attempts: obs.histogram_with(
                "qkd_ldpc_ladder_attempts",
                &[],
                &qkd_obs::COUNT_BUCKETS,
            ),
            obs_leaked: obs.counter("qkd_ldpc_syndrome_leaked_bits_total", &[]),
            obs_failures: obs.counter("qkd_ldpc_reconcile_failures_total", &[]),
        })
    }

    /// The configuration in use.
    pub fn config(&self) -> &ReconcilerConfig {
        &self.config
    }

    /// The code library in use.
    pub fn library(&self) -> &CodeLibrary {
        self.library.as_ref()
    }

    /// Block size expected by [`LdpcReconciler::reconcile`].
    pub fn block_size(&self) -> usize {
        self.config.block_size
    }

    /// Reconciles `bob` against `alice` (both exactly `block_size` bits, or
    /// shorter — shorter blocks are handled by shortening the code), reusing
    /// the reconciler's own scratch.
    ///
    /// # Errors
    ///
    /// See [`LdpcReconciler::reconcile_with_scratch`].
    pub fn reconcile(
        &self,
        alice: &BitVec,
        bob: &BitVec,
        estimated_qber: f64,
    ) -> Result<LdpcOutcome> {
        match self.scratch.try_lock() {
            Ok(mut scratch) => {
                self.reconcile_with_scratch(alice, bob, estimated_qber, &mut scratch)
            }
            // A panic while the scratch was held only interrupted plain
            // buffer reuse — the buffers are still valid to reuse, so
            // recover them instead of silently allocating forever after.
            Err(std::sync::TryLockError::Poisoned(poisoned)) => {
                let mut scratch = poisoned.into_inner();
                self.reconcile_with_scratch(alice, bob, estimated_qber, &mut scratch)
            }
            // Another thread is reconciling through this same instance; a
            // fresh scratch costs one block's setup, not a serialised decode.
            Err(std::sync::TryLockError::WouldBlock) => self.reconcile_with_scratch(
                alice,
                bob,
                estimated_qber,
                &mut ReconcilerScratch::new(),
            ),
        }
    }

    /// Reconciles like [`LdpcReconciler::reconcile`], drawing every working
    /// buffer — decoder arena, padded codewords, syndromes, LLR overrides —
    /// from a caller-owned scratch that is reused across the attempts of the
    /// rate ladder (and, across calls, over blocks and block sizes).
    ///
    /// # Errors
    ///
    /// * [`QkdError::DimensionMismatch`] when the keys differ in length or
    ///   exceed the block size.
    /// * [`QkdError::InvalidParameter`] when `estimated_qber` is outside
    ///   `(0, 0.5)`.
    /// * [`QkdError::ReconciliationFailed`] when no code in the library
    ///   converges within the retry budget.
    pub fn reconcile_with_scratch(
        &self,
        alice: &BitVec,
        bob: &BitVec,
        estimated_qber: f64,
        scratch: &mut ReconcilerScratch,
    ) -> Result<LdpcOutcome> {
        if alice.len() != bob.len() {
            return Err(QkdError::DimensionMismatch {
                context: "ldpc reconciliation",
                expected: alice.len(),
                actual: bob.len(),
            });
        }
        if alice.len() > self.config.block_size || alice.is_empty() {
            return Err(QkdError::DimensionMismatch {
                context: "ldpc block size",
                expected: self.config.block_size,
                actual: alice.len(),
            });
        }
        if !(0.0 < estimated_qber && estimated_qber < 0.5) {
            return Err(QkdError::invalid_parameter(
                "estimated_qber",
                "must lie strictly in (0, 0.5)",
            ));
        }

        let n = self.config.block_size;
        let payload = alice.len();
        let shortened = n - payload;

        let ReconcilerScratch {
            decoder: decoder_scratch,
            overrides,
            alice_word,
            bob_word,
            corrected_word,
            syndrome_a,
            syndrome_check,
            target,
        } = scratch;

        // Both parties pad their key to the codeword length with agreed
        // pseudo-random filler derived from the shared seed and block length
        // (filler positions are the tail; values are public knowledge).
        overrides.clear();
        alice_word.truncate(0);
        alice_word.extend_from(alice);
        bob_word.truncate(0);
        bob_word.extend_from(bob);
        if shortened > 0 {
            let mut rng = derive_block_rng(self.config.seed, "ldpc-shortening", payload as u64);
            let filler = BitVec::random(&mut rng, shortened);
            alice_word.extend_from(&filler);
            bob_word.extend_from(&filler);
            // Shortened positions get a strong known-value prior. The prior
            // sign encodes the known filler bit: positive LLR means "no error",
            // and since both parties share the filler there is never an error
            // at a shortened position.
            overrides.extend((payload..n).map(|v| (v, 30.0)));
        }

        // Shortening-aware selection: charge the syndrome leak against the
        // payload actually being reconciled, not the padded codeword.
        let start =
            self.library
                .select_for_payload(payload, estimated_qber, self.config.efficiency_target);
        let mut leaked = 0usize;
        let mut attempts = 0usize;
        let max_attempts = self.config.max_rate_retries;

        for entry in self.library.entries.iter().skip(start) {
            if attempts >= max_attempts {
                break;
            }
            attempts += 1;
            entry.matrix.syndrome_into(alice_word, syndrome_a);
            entry.matrix.syndrome_into(bob_word, target);
            target.xor_assign(syndrome_a);
            leaked += entry.matrix.num_checks();
            let decode = entry.decoder.decode_with_scratch(
                target,
                estimated_qber,
                overrides,
                decoder_scratch,
            )?;
            if !decode.converged {
                continue;
            }
            corrected_word.truncate(0);
            corrected_word.extend_from(bob_word);
            corrected_word.xor_assign(&decode.error_pattern);
            // Sanity: syndrome now matches Alice's.
            entry.matrix.syndrome_into(corrected_word, syndrome_check);
            if syndrome_check != syndrome_a {
                continue;
            }
            let corrected = corrected_word.slice(0, payload);
            let corrected_errors = corrected.hamming_distance(bob);
            self.obs_attempts.observe(attempts as f64);
            self.obs_leaked.add(leaked as u64);
            return Ok(LdpcOutcome {
                corrected,
                leaked_bits: leaked,
                corrected_errors,
                iterations: decode.iterations,
                rate_used: entry.rate,
                attempts,
                messages: attempts,
            });
        }

        // Failed ladders still disclosed their syndromes; account the leak
        // and the attempts before reporting the failure.
        self.obs_attempts.observe(attempts as f64);
        self.obs_leaked.add(leaked as u64);
        self.obs_failures.inc();
        Err(QkdError::ReconciliationFailed {
            block: 0,
            iterations: attempts,
            residual_errors: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qkd_types::rng::derive_rng;
    use rand::Rng;

    #[test]
    fn equal_configs_share_one_code_library() {
        let a = LdpcReconciler::new(ReconcilerConfig::for_block_size(1024)).unwrap();
        let b = LdpcReconciler::new(ReconcilerConfig::for_block_size(1024)).unwrap();
        assert!(
            Arc::ptr_eq(&a.library, &b.library),
            "identical configs must reuse the cached library"
        );
        // A different seed is a different library (never silently shared).
        let mut other = ReconcilerConfig::for_block_size(1024);
        other.seed ^= 1;
        let c = LdpcReconciler::new(other).unwrap();
        assert!(!Arc::ptr_eq(&a.library, &c.library));
        assert_eq!(a.library.rates(), c.library.rates());
    }

    fn correlated(n: usize, qber: f64, seed: u64) -> (BitVec, BitVec, usize) {
        let mut rng = derive_rng(seed, "ldpc-recon-test");
        let alice = BitVec::random(&mut rng, n);
        let mut bob = alice.clone();
        let mut errs = 0;
        for i in 0..n {
            if rng.gen_bool(qber) {
                bob.flip(i);
                errs += 1;
            }
        }
        (alice, bob, errs)
    }

    #[test]
    fn library_selects_higher_rates_for_lower_qber() {
        let lib = CodeLibrary::standard(2048, 1).unwrap();
        let low = lib.select(0.01, 1.2);
        let high = lib.select(0.08, 1.2);
        let rates = lib.rates();
        assert!(
            rates[low] > rates[high],
            "low QBER should map to a higher rate"
        );
        assert_eq!(lib.block_size(), 2048);
    }

    #[test]
    fn reconciles_typical_qber_range() {
        let reconciler = LdpcReconciler::new(ReconcilerConfig::for_block_size(4096)).unwrap();
        for &qber in &[0.01, 0.03, 0.05] {
            let (alice, bob, errs) = correlated(4096, qber, 100 + (qber * 1000.0) as u64);
            let out = reconciler.reconcile(&alice, &bob, qber).unwrap();
            assert_eq!(out.corrected, alice, "qber {qber}");
            assert_eq!(out.corrected_errors, errs);
            assert!(out.rate_used >= 0.5);
        }
    }

    #[test]
    fn leakage_and_efficiency_are_sane() {
        let reconciler = LdpcReconciler::new(ReconcilerConfig::for_block_size(4096)).unwrap();
        let (alice, bob, _) = correlated(4096, 0.03, 7);
        let out = reconciler.reconcile(&alice, &bob, 0.03).unwrap();
        let f = out.efficiency(4096).unwrap();
        assert!(f >= 1.0, "cannot beat Shannon, f = {f}");
        assert!(f < 2.0, "efficiency should stay moderate, f = {f}");
        assert_eq!(out.messages, out.attempts);
    }

    #[test]
    fn handles_short_final_block_by_shortening() {
        let reconciler = LdpcReconciler::new(ReconcilerConfig::for_block_size(4096)).unwrap();
        let (alice, bob, _) = correlated(3000, 0.02, 9);
        let out = reconciler.reconcile(&alice, &bob, 0.02).unwrap();
        assert_eq!(out.corrected, alice);
        assert_eq!(out.corrected.len(), 3000);
    }

    #[test]
    fn shortened_payloads_select_a_higher_first_attempt_rate() {
        let lib = CodeLibrary::standard(4096, 1).unwrap();
        let rates = lib.rates();
        // At 5% QBER a full 4096-bit block needs 1 − R ≥ 1.35·h(5%) ≈ 0.387
        // (rate 0.6), but a 3000-bit shortened payload only leaks per payload
        // bit: 0.387 · 3000/4096 ≈ 0.284 clears the rate-0.7 code.
        let full = lib.select(0.05, 1.35);
        let short = lib.select_for_payload(3000, 0.05, 1.35);
        assert!(
            rates[short] > rates[full],
            "shortened payload must pick a higher rate: {} vs {}",
            rates[short],
            rates[full]
        );
        assert!((rates[full] - 0.6).abs() < 1e-12);
        assert!((rates[short] - 0.7).abs() < 1e-12);
        // Full-length selection is unchanged by the payload-aware form.
        assert_eq!(full, lib.select_for_payload(4096, 0.05, 1.35));
        // A shortened block reconciles end-to-end at the higher rate and
        // leaks less than the full-block selection would have.
        let reconciler = LdpcReconciler::new(ReconcilerConfig::for_block_size(4096)).unwrap();
        let (alice, bob, _) = correlated(3000, 0.05, 77);
        let out = reconciler.reconcile(&alice, &bob, 0.05).unwrap();
        assert_eq!(out.corrected, alice);
        assert!(
            out.rate_used >= rates[short] - 1e-12,
            "first attempt should start at the payload-aware rate, used {}",
            out.rate_used
        );
    }

    #[test]
    fn caller_scratch_and_internal_scratch_agree() {
        let reconciler = LdpcReconciler::new(ReconcilerConfig::for_block_size(2048)).unwrap();
        let mut scratch = ReconcilerScratch::new();
        // Mixed payload sizes through one scratch, compared against the
        // internal-scratch entry point.
        for &(len, qber, seed) in &[(2048usize, 0.03, 51u64), (1500, 0.02, 52), (2048, 0.05, 53)] {
            let (alice, bob, _) = correlated(len, qber, seed);
            let with_scratch = reconciler
                .reconcile_with_scratch(&alice, &bob, qber, &mut scratch)
                .unwrap();
            let plain = reconciler.reconcile(&alice, &bob, qber).unwrap();
            assert_eq!(with_scratch, plain, "len {len} qber {qber}");
        }
    }

    #[test]
    fn underestimated_qber_falls_back_to_lower_rate_or_fails_cleanly() {
        let reconciler = LdpcReconciler::new(ReconcilerConfig::for_block_size(2048)).unwrap();
        // True error rate 8%, but the caller claims 2%: the first-choice high
        // rate cannot converge, so either a retry at a lower rate succeeds or
        // the reconciler reports failure — it must never return a wrong key
        // labelled as success.
        let (alice, bob, _) = correlated(2048, 0.08, 11);
        match reconciler.reconcile(&alice, &bob, 0.02) {
            Ok(out) => {
                assert_eq!(out.corrected, alice);
                assert!(out.attempts >= 1);
            }
            Err(QkdError::ReconciliationFailed { .. }) => {}
            Err(other) => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn low_rate_tail_reconciles_where_the_old_ladder_bottomed_out() {
        // 12% QBER at 4 kbit sits past the rate-0.40 code's BP threshold —
        // the pre-extension ladder (which bottomed out at 0.40) exhausted its
        // retries on such blocks. The appended 0.30 mother code converges.
        let (alice, bob, _) = correlated(4096, 0.12, 41);
        let mut old_tail = ReconcilerConfig::for_block_size(4096);
        old_tail.rates = vec![0.4];
        let old = LdpcReconciler::new(old_tail).unwrap();
        assert!(matches!(
            old.reconcile(&alice, &bob, 0.12),
            Err(QkdError::ReconciliationFailed { .. })
        ));

        let new = LdpcReconciler::new(ReconcilerConfig::for_block_size(4096)).unwrap();
        let out = new.reconcile(&alice, &bob, 0.12).unwrap();
        assert_eq!(out.corrected, alice);
        assert!(out.rate_used <= 0.3 + 1e-12, "got rate {}", out.rate_used);

        // The selector reaches the new tail directly for stressed-link
        // estimates (~9.5% after the sampling bound), without burning a
        // doomed higher-rate attempt first.
        let lib = new.library();
        let rates = lib.rates();
        assert!((rates[rates.len() - 1] - 0.3).abs() < 1e-12);
        assert!((rates[lib.select(0.0955, 1.35)] - 0.3).abs() < 1e-12);
    }

    #[test]
    fn dimension_errors() {
        let reconciler = LdpcReconciler::new(ReconcilerConfig::for_block_size(1024)).unwrap();
        let a = BitVec::zeros(1024);
        let b = BitVec::zeros(1000);
        assert!(matches!(
            reconciler.reconcile(&a, &b, 0.02),
            Err(QkdError::DimensionMismatch { .. })
        ));
        let a = BitVec::zeros(2048);
        let b = BitVec::zeros(2048);
        assert!(matches!(
            reconciler.reconcile(&a, &b, 0.02),
            Err(QkdError::DimensionMismatch { .. })
        ));
        let a = BitVec::zeros(1024);
        let b = BitVec::zeros(1024);
        assert!(reconciler.reconcile(&a, &b, 0.0).is_err());
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut cfg = ReconcilerConfig::for_block_size(1024);
        cfg.efficiency_target = 0.9;
        assert!(LdpcReconciler::new(cfg).is_err());
        let mut cfg = ReconcilerConfig::for_block_size(1024);
        cfg.block_size = 32;
        assert!(LdpcReconciler::new(cfg).is_err());
        let mut cfg = ReconcilerConfig::for_block_size(1024);
        cfg.max_rate_retries = 0;
        assert!(LdpcReconciler::new(cfg).is_err());
        assert!(CodeLibrary::new(1024, &[], DecoderConfig::default(), 1).is_err());

        // A NaN or infinite float used to pass validation: a NaN clamp then
        // panicked in the first shortened decode, and a NaN or infinite
        // efficiency target sent every block to the lowest-rate code.
        for value in [f64::NAN, f64::INFINITY] {
            let mut cfg = ReconcilerConfig::for_block_size(1024);
            cfg.decoder.llr_clamp = value;
            assert!(LdpcReconciler::new(cfg).is_err(), "llr_clamp {value}");
            let mut cfg = ReconcilerConfig::for_block_size(1024);
            cfg.efficiency_target = value;
            assert!(
                LdpcReconciler::new(cfg).is_err(),
                "efficiency_target {value}"
            );
        }
    }

    /// Every code is quasi-cyclic at circulant 64 with at least four base
    /// columns. A size off the 64-bit grid used to build a shorter code and
    /// panic on the first syndrome, and one under 256 bits to panic in
    /// construction.
    #[test]
    fn block_sizes_the_constructions_cannot_hit_are_refused() {
        let refused = |err: QkdError| {
            matches!(&err, QkdError::InvalidParameter { name, reason }
                if *name == "block_size" && reason.contains("multiple of 64"))
        };
        for block in [128, 192, 1000, 20_000] {
            let err = LdpcReconciler::new(ReconcilerConfig::for_block_size(block)).unwrap_err();
            assert!(refused(err), "{block}");
            let err = CodeLibrary::new(block, &[0.5], DecoderConfig::default(), 1).unwrap_err();
            assert!(refused(err), "{block}");
        }
        assert!(CodeLibrary::new(20_032, &[0.8], DecoderConfig::default(), 1).is_ok());
        assert!(CodeLibrary::new(256, &[0.5], DecoderConfig::default(), 1).is_ok());
    }

    #[test]
    fn concurrent_build_equals_the_sequential_one() {
        for block in [1024usize, 16_384] {
            let config = ReconcilerConfig::for_block_size(block);
            let library =
                CodeLibrary::new(block, &config.rates, config.decoder, config.seed).unwrap();
            let mut sequential: Vec<(f64, ParityCheckMatrix)> = config
                .rates
                .iter()
                .enumerate()
                .map(|(i, &rate)| {
                    let seed = config.seed + i as u64;
                    (
                        rate,
                        ParityCheckMatrix::for_rate(block, rate, seed).unwrap(),
                    )
                })
                .collect();
            sequential.sort_by(|a, b| b.0.total_cmp(&a.0));
            assert_eq!(library.entries.len(), sequential.len());
            for (entry, (rate, matrix)) in library.entries.iter().zip(&sequential) {
                assert_eq!(entry.rate, *rate);
                assert_eq!(entry.matrix, *matrix, "rate {rate} at {block} bits");
                assert_eq!(entry.decoder.block_len(), block);
            }
        }
    }

    #[test]
    fn higher_qber_uses_lower_rate_and_leaks_more() {
        let reconciler = LdpcReconciler::new(ReconcilerConfig::for_block_size(4096)).unwrap();
        let (a1, b1, _) = correlated(4096, 0.01, 21);
        let (a2, b2, _) = correlated(4096, 0.06, 22);
        let low = reconciler.reconcile(&a1, &b1, 0.01).unwrap();
        let high = reconciler.reconcile(&a2, &b2, 0.06).unwrap();
        assert!(low.rate_used > high.rate_used);
        assert!(low.leaked_bits < high.leaked_bits);
    }
}
