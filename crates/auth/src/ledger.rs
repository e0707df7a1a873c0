//! Authentication key pool and consumption ledger.

use std::sync::Arc;

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use qkd_types::{BitVec, QkdError, Result};

/// Statistics of a key pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct KeyPoolStats {
    /// Total bits ever added to the pool.
    pub total_added: usize,
    /// Bits consumed so far.
    pub consumed: usize,
    /// Bits currently available.
    pub remaining: usize,
    /// Number of draw operations served.
    pub draws: usize,
}

/// A thread-safe pool of symmetric key material used for authentication.
///
/// The pool is cloneable and shared: clones refer to the same underlying
/// storage, mirroring how both the sifting and reconciliation stages of a
/// pipelined implementation draw from one KMS-provided reservoir.
#[derive(Debug, Clone)]
pub struct KeyPool {
    inner: Arc<Mutex<PoolInner>>,
}

#[derive(Debug)]
struct PoolInner {
    /// Key material in memory; the first `cursor` bits are already drawn.
    bits: BitVec,
    cursor: usize,
    /// A simulated pad's generator and the bits it still owes. They follow
    /// `bits` in the stream and are produced a draw at a time.
    pad: Option<(StdRng, usize)>,
    total_added: usize,
    consumed: usize,
    draws: usize,
}

impl PoolInner {
    fn remaining(&self) -> usize {
        self.bits.len() - self.cursor + self.pad.as_ref().map_or(0, |(_, owed)| *owed)
    }

    /// Brings up to `wanted` more pad bits into memory, dropping the drawn
    /// whole words first. Whole words are generated in the order
    /// [`BitVec::random`] draws them (the final one masked the same way), so
    /// the stream is bit-identical to a pad filled up front — and `bits`
    /// stays word-aligned for as long as the pad owes anything.
    fn generate(&mut self, wanted: usize) {
        let Some((rng, owed)) = &mut self.pad else {
            return;
        };
        let take = wanted.min(*owed).next_multiple_of(64).min(*owed);
        let drawn_words = self.cursor / 64 * 64;
        let mut bits = self.bits.slice(drawn_words, self.bits.len());
        bits.extend_from(&BitVec::random(rng, take));
        self.bits = bits;
        self.cursor -= drawn_words;
        *owed -= take;
        if *owed == 0 {
            self.pad = None;
        }
    }
}

impl KeyPool {
    fn from_parts(bits: BitVec, pad: Option<(StdRng, usize)>, total_added: usize) -> Self {
        Self {
            inner: Arc::new(Mutex::new(PoolInner {
                bits,
                cursor: 0,
                pad,
                total_added,
                consumed: 0,
                draws: 0,
            })),
        }
    }

    /// Creates a pool from explicit key material.
    pub fn new(bits: BitVec) -> Self {
        let total = bits.len();
        Self::from_parts(bits, None, total)
    }

    /// Creates a pool of `bits` pseudo-random bits (testing / simulation
    /// convenience; real deployments load QKD or pre-shared key). The pad is
    /// the stream `BitVec::random` would draw from the seeded generator, but
    /// it is generated as it is drawn, not held in memory: a simulated link
    /// with a 2^26-bit pad would otherwise pin 8 MiB it never reads.
    pub fn with_random_key(bits: usize, seed: u64) -> Self {
        let pad = (bits > 0).then(|| (StdRng::seed_from_u64(seed), bits));
        Self::from_parts(BitVec::new(), pad, bits)
    }

    /// Draws `count` bits from the pool, consuming them permanently.
    ///
    /// # Errors
    ///
    /// Returns [`QkdError::AuthKeyExhausted`] when fewer than `count` bits
    /// remain.
    pub fn draw(&self, count: usize) -> Result<BitVec> {
        let mut inner = self.inner.lock();
        let remaining = inner.remaining();
        if count > remaining {
            return Err(QkdError::AuthKeyExhausted {
                requested: count,
                remaining,
            });
        }
        let in_memory = inner.bits.len() - inner.cursor;
        if count > in_memory {
            inner.generate(count - in_memory);
        }
        let out = inner.bits.slice(inner.cursor, inner.cursor + count);
        inner.cursor += count;
        inner.consumed += count;
        inner.draws += 1;
        Ok(out)
    }

    /// Adds freshly distilled key material to the pool (key recycling).
    pub fn replenish(&self, bits: &BitVec) {
        let mut inner = self.inner.lock();
        // Recycled key queues behind whatever a simulated pad still owes.
        inner.generate(usize::MAX);
        inner.bits.extend_from(bits);
        inner.total_added += bits.len();
    }

    /// Remaining bits available for drawing.
    pub fn remaining(&self) -> usize {
        self.inner.lock().remaining()
    }

    /// Snapshot of the pool statistics.
    pub fn stats(&self) -> KeyPoolStats {
        let inner = self.inner.lock();
        KeyPoolStats {
            total_added: inner.total_added,
            consumed: inner.consumed,
            remaining: inner.remaining(),
            draws: inner.draws,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draw_consumes_sequentially_and_uniquely() {
        let pool = KeyPool::with_random_key(256, 1);
        let a = pool.draw(64).unwrap();
        let b = pool.draw(64).unwrap();
        assert_ne!(a, b, "successive draws must return distinct key material");
        assert_eq!(pool.remaining(), 128);
        let stats = pool.stats();
        assert_eq!(stats.consumed, 128);
        assert_eq!(stats.draws, 2);
    }

    #[test]
    fn exhaustion_is_reported() {
        let pool = KeyPool::with_random_key(100, 2);
        assert!(pool.draw(80).is_ok());
        let err = pool.draw(40).unwrap_err();
        assert!(matches!(
            err,
            QkdError::AuthKeyExhausted {
                requested: 40,
                remaining: 20
            }
        ));
    }

    #[test]
    fn replenish_extends_the_pool() {
        let pool = KeyPool::with_random_key(64, 3);
        pool.draw(64).unwrap();
        assert_eq!(pool.remaining(), 0);
        pool.replenish(&BitVec::ones(32));
        assert_eq!(pool.remaining(), 32);
        assert_eq!(pool.stats().total_added, 96);
        assert_eq!(pool.draw(32).unwrap().count_ones(), 32);
    }

    #[test]
    fn simulated_pad_is_bit_identical_to_a_materialised_one() {
        use rand::Rng;
        // Pad lengths on, just past and just short of a word boundary; the
        // reference pool holds the same stream filled up front.
        for (bits, seed) in [(64 * 40, 6u64), (64 * 40 + 1, 7), (64 * 40 + 63, 8), (5, 9)] {
            let lazy = KeyPool::with_random_key(bits, seed);
            let eager = KeyPool::new(BitVec::random(&mut StdRng::seed_from_u64(seed), bits));
            assert_eq!(lazy.stats(), eager.stats());
            let mut rng = StdRng::seed_from_u64(seed ^ 0xa5);
            for step in 0..200 {
                if step == 60 {
                    // Recycled key queues behind the rest of the pad.
                    let recycled = BitVec::random(&mut rng, 77);
                    lazy.replenish(&recycled);
                    eager.replenish(&recycled);
                }
                let count = rng.gen_range(0..200usize);
                match (lazy.draw(count), eager.draw(count)) {
                    (Ok(a), Ok(b)) => assert_eq!(a, b, "draw {step} of {count} bits"),
                    (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string()),
                    (a, b) => panic!("pools disagree at draw {step}: {a:?} vs {b:?}"),
                }
                assert_eq!(lazy.stats(), eager.stats(), "after draw {step}");
                assert_eq!(lazy.remaining(), eager.remaining());
            }
            assert!(eager.remaining() < 200, "the script must reach exhaustion");
        }
    }

    #[test]
    fn simulated_pad_keeps_only_undrawn_words_in_memory() {
        let pool = KeyPool::with_random_key(1 << 26, 10);
        for _ in 0..1000 {
            pool.draw(100).unwrap();
        }
        let inner = pool.inner.lock();
        assert!(inner.bits.len() < 256, "{} bits held", inner.bits.len());
        assert_eq!(inner.remaining(), (1 << 26) - 100_000);
    }

    #[test]
    fn clones_share_state() {
        let pool = KeyPool::with_random_key(128, 4);
        let clone = pool.clone();
        pool.draw(100).unwrap();
        assert_eq!(clone.remaining(), 28);
    }

    #[test]
    fn concurrent_draws_never_overlap() {
        use std::thread;
        let pool = KeyPool::with_random_key(64 * 100, 5);
        let mut handles = Vec::new();
        for _ in 0..10 {
            let p = pool.clone();
            handles.push(thread::spawn(move || {
                let mut drawn = Vec::new();
                for _ in 0..10 {
                    drawn.push(p.draw(64).unwrap());
                }
                drawn
            }));
        }
        let mut all: Vec<BitVec> = Vec::new();
        for h in handles {
            all.extend(h.join().unwrap());
        }
        assert_eq!(all.len(), 100);
        assert_eq!(pool.remaining(), 0);
        // All draws must be pairwise distinct segments (overwhelmingly likely
        // for random key material if no two draws returned the same range).
        for i in 0..all.len() {
            for j in (i + 1)..all.len() {
                assert_ne!(all[i], all[j], "draws {i} and {j} overlap");
            }
        }
    }
}
