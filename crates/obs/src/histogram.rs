//! Log-bucketed histograms with atomic recording and quantile estimation.
//!
//! A histogram is a fixed ladder of bucket upper bounds plus one implicit
//! overflow bucket. `observe` is the hot path: one bucket scan over a small
//! static slice and three relaxed atomic adds — no locking, no allocation,
//! no panics (this module is on the `qkd-lint` panic-freedom list).
//!
//! Quantiles (p50/p90/p99) are estimated from the bucket counts by linear
//! interpolation inside the bucket containing the requested rank, which is
//! exact to within one bucket width — the property tests in `tests/obs.rs`
//! pin this against a sorted-reference implementation.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A log-bucketed histogram handle. Cloning shares the same series.
#[derive(Clone)]
pub struct Histogram {
    core: Arc<HistogramCore>,
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("sum", &self.sum())
            .finish()
    }
}

struct HistogramCore {
    /// Bucket upper bounds, strictly increasing. `counts` has one extra slot
    /// for values above the last bound.
    bounds: &'static [f64],
    counts: Box<[AtomicU64]>,
    count: AtomicU64,
    /// Sum of observed values, stored as f64 bits and updated by CAS.
    sum_bits: AtomicU64,
}

impl Histogram {
    /// A histogram over the given static bucket bounds.
    pub fn new(bounds: &'static [f64]) -> Histogram {
        let counts: Vec<AtomicU64> = (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            core: Arc::new(HistogramCore {
                bounds,
                counts: counts.into_boxed_slice(),
                count: AtomicU64::new(0),
                sum_bits: AtomicU64::new(0f64.to_bits()),
            }),
        }
    }

    /// Records one observation.
    pub fn observe(&self, value: f64) {
        let idx = bucket_index(self.core.bounds, value);
        if let Some(cell) = self.core.counts.get(idx) {
            cell.fetch_add(1, Ordering::Relaxed);
        }
        self.core.count.fetch_add(1, Ordering::Relaxed);
        let _ = self
            .core
            .sum_bits
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                Some((f64::from_bits(bits) + value).to_bits())
            });
    }

    /// Records a [`std::time::Duration`] in seconds.
    pub fn observe_duration(&self, elapsed: std::time::Duration) {
        self.observe(elapsed.as_secs_f64());
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.core.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.core.sum_bits.load(Ordering::Relaxed))
    }

    /// Estimates the `q`-quantile (`0.0 ..= 1.0`) from the current buckets.
    pub fn quantile(&self, q: f64) -> f64 {
        self.snapshot().quantile(q)
    }

    /// A point-in-time copy of the series.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.core.bounds,
            counts: self
                .core
                .counts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            count: self.count(),
            sum: self.sum(),
        }
    }
}

/// Index of the bucket `value` falls into: the first bound `value <= bound`,
/// or `bounds.len()` for the overflow bucket.
fn bucket_index(bounds: &[f64], value: f64) -> usize {
    bounds
        .iter()
        .position(|bound| value <= *bound)
        .unwrap_or(bounds.len())
}

/// An immutable copy of a histogram's buckets, used for exposition and
/// quantile math.
#[derive(Clone, Debug)]
pub struct HistogramSnapshot {
    /// Bucket upper bounds (the overflow bucket has no bound).
    pub bounds: &'static [f64],
    /// Per-bucket observation counts; `counts.len() == bounds.len() + 1`.
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
}

impl HistogramSnapshot {
    /// Estimates the `q`-quantile by linear interpolation inside the bucket
    /// holding the requested rank. Values in the overflow bucket clamp to the
    /// last bound. Returns 0.0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let clamped = q.clamp(0.0, 1.0);
        let rank = ((clamped * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, bucket_count) in self.counts.iter().enumerate() {
            let before = seen;
            seen = seen.saturating_add(*bucket_count);
            if seen < rank || *bucket_count == 0 {
                continue;
            }
            let upper = match self.bounds.get(i) {
                Some(b) => *b,
                // Overflow bucket: no upper bound to interpolate towards.
                None => return self.bounds.last().copied().unwrap_or(0.0),
            };
            let lower = if i == 0 {
                0.0
            } else {
                self.bounds.get(i - 1).copied().unwrap_or(0.0)
            };
            let into_bucket = (rank - before) as f64 / *bucket_count as f64;
            return lower + (upper - lower) * into_bucket;
        }
        self.bounds.last().copied().unwrap_or(0.0)
    }

    /// Cumulative `(upper_bound, count)` pairs in Prometheus `le` order; the
    /// final pair is the `+Inf` bucket carrying the total count.
    pub fn cumulative(&self) -> Vec<(f64, u64)> {
        let mut out = Vec::with_capacity(self.counts.len());
        let mut cum = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            cum = cum.saturating_add(*c);
            let bound = self.bounds.get(i).copied().unwrap_or(f64::INFINITY);
            out.push((bound, cum));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    static BOUNDS: [f64; 4] = [1.0, 2.0, 4.0, 8.0];

    #[test]
    fn observe_fills_the_right_buckets() {
        let h = Histogram::new(&BOUNDS);
        for v in [0.5, 1.0, 1.5, 3.0, 100.0] {
            h.observe(v);
        }
        let snap = h.snapshot();
        // 0.5 and 1.0 land in the first bucket (le="1"), 1.5 in le="2",
        // 3.0 in le="4", 100.0 overflows.
        assert_eq!(snap.counts, vec![2, 1, 1, 0, 1]);
        assert_eq!(snap.count, 5);
        assert!((snap.sum - 106.0).abs() < 1e-9);
    }

    #[test]
    fn quantile_interpolates_and_clamps() {
        let h = Histogram::new(&BOUNDS);
        for _ in 0..10 {
            h.observe(1.5); // bucket (1, 2]
        }
        let p50 = h.quantile(0.5);
        assert!((1.0..=2.0).contains(&p50), "p50 = {p50}");
        h.observe(1e9);
        // The overflow bucket clamps to the last bound.
        assert_eq!(h.quantile(1.0), 8.0);
    }

    #[test]
    fn empty_histogram_quantile_is_zero() {
        let h = Histogram::new(&BOUNDS);
        assert_eq!(h.quantile(0.99), 0.0);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn cumulative_ends_with_total() {
        let h = Histogram::new(&BOUNDS);
        for v in [0.5, 3.0, 99.0] {
            h.observe(v);
        }
        let cum = h.snapshot().cumulative();
        assert_eq!(cum.len(), 5);
        assert_eq!(cum.last().map(|(b, c)| (*b, *c)), Some((f64::INFINITY, 3)));
    }
}
