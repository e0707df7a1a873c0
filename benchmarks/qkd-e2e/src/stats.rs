//! Sample statistics: the percentile rule, slice medians, proration of an
//! interval's work over time slices, and the quartile spread `compare` uses.

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// The percentiles the benchmark ever reports, lowest first.
pub const PERCENTILES: [f64; 4] = [0.50, 0.90, 0.95, 0.99];

/// Nearest-rank index of quantile `q` among `n` sorted samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// The `q`-quantile (nearest rank) of `samples`, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it: a tail read off a handful of
/// samples is noise, so p90/p95/p99 refuse rather than guess.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = rank(sorted.len(), q);
    (sorted.len() - 1 - at >= MIN_BEYOND).then(|| sorted[at])
}

/// The highest of [`PERCENTILES`] that `n` samples can support.
pub fn highest_percentile(n: usize) -> Option<f64> {
    PERCENTILES
        .iter()
        .copied()
        .rfind(|&q| n > 0 && n - 1 - rank(n, q) >= MIN_BEYOND)
}

/// Median of `values` (mean of the middle pair for an even count); 0 for none.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// gives them (the exclusive method), which is what the acceptance rule is
/// written against. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// Distance between the quartiles as a share of the median.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let mid = median(values);
    (mid != 0.0).then(|| (q3 - q1) / mid.abs())
}

/// Length of the part of `[from, to]` that lies inside `[lo, hi]`.
pub fn overlap(from: f64, to: f64, lo: f64, hi: f64) -> f64 {
    (to.min(hi) - from.max(lo)).max(0.0)
}

/// A measurement window cut into equal time slices. Work is credited to the
/// slice it happened in, and a rate is reported as the median slice, so one
/// stalled slice does not move the figure.
#[derive(Debug, Clone)]
pub struct Slices {
    start_s: f64,
    slice_s: f64,
    totals: Vec<f64>,
}

impl Slices {
    /// `count` slices covering `[start_s, start_s + window_s)`.
    pub fn new(start_s: f64, window_s: f64, count: usize) -> Self {
        Self {
            start_s,
            slice_s: window_s / count as f64,
            totals: vec![0.0; count],
        }
    }

    /// Credits `amount` to the slice containing instant `at_s`; instants
    /// outside the window (warm-up, drain) are dropped.
    pub fn add_at(&mut self, at_s: f64, amount: f64) {
        let offset = at_s - self.start_s;
        if offset >= 0.0 {
            if let Some(total) = self.totals.get_mut((offset / self.slice_s) as usize) {
                *total += amount;
            }
        }
    }

    /// Credits `amount` of work done evenly over `[from_s, to_s]` to every
    /// slice in proportion to its overlap. A `run()` that spans a slice
    /// boundary would otherwise land whole in the later slice and the slice
    /// rates would alternate high and low.
    pub fn add_over(&mut self, from_s: f64, to_s: f64, amount: f64) {
        let length = to_s - from_s;
        if length <= 0.0 {
            self.add_at(to_s, amount);
            return;
        }
        for (i, total) in self.totals.iter_mut().enumerate() {
            let lo = self.start_s + i as f64 * self.slice_s;
            *total += amount * overlap(from_s, to_s, lo, lo + self.slice_s) / length;
        }
    }

    /// Adds another thread's slices of the same window.
    pub fn merge(&mut self, other: &Slices) {
        for (total, theirs) in self.totals.iter_mut().zip(&other.totals) {
            *total += theirs;
        }
    }

    /// Everything credited inside the window.
    pub fn total(&self) -> f64 {
        self.totals.iter().sum()
    }

    /// Per-second rate of each slice.
    pub fn rates(&self) -> Vec<f64> {
        self.totals.iter().map(|t| t / self.slice_s).collect()
    }

    /// Median per-second rate over the slices.
    pub fn median_rate(&self) -> f64 {
        median(&self.rates())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn percentiles_refuse_on_too_few_samples() {
        // 20 samples: ten lie beyond the median, nothing higher is reportable.
        assert_eq!(percentile(&ramp(20), 0.50), Some(10.0));
        assert_eq!(percentile(&ramp(19), 0.50), None);
        assert_eq!(percentile(&ramp(20), 0.90), None);
        assert_eq!(highest_percentile(20), Some(0.50));
        // p90 needs 100 samples (rank 90, ten beyond), p99 needs 1000.
        assert_eq!(percentile(&ramp(99), 0.90), None);
        assert_eq!(percentile(&ramp(100), 0.90), Some(90.0));
        assert_eq!(percentile(&ramp(999), 0.99), None);
        assert_eq!(percentile(&ramp(1000), 0.99), Some(990.0));
        assert_eq!(highest_percentile(100), Some(0.90));
        assert_eq!(highest_percentile(199), Some(0.90));
        assert_eq!(highest_percentile(200), Some(0.95));
        assert_eq!(highest_percentile(1000), Some(0.99));
        assert_eq!(highest_percentile(5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_sorts_its_input() {
        let mut samples = ramp(30);
        samples.reverse();
        assert_eq!(percentile(&samples, 0.50), Some(15.0));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let (q1, q3) = quartiles(&ramp(10)).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1..5], n=4) == [1.5, 3.0, 4.5]
        let (q1, q3) = quartiles(&ramp(5)).unwrap();
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 4.5).abs() < 1e-12);
        assert!((quartile_spread(&ramp(5)).unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn slice_median_ignores_one_stalled_slice() {
        let mut slices = Slices::new(2.0, 6.0, 6);
        for (i, amount) in [100.0, 100.0, 0.0, 100.0, 100.0, 100.0].iter().enumerate() {
            slices.add_at(2.0 + i as f64 + 0.5, *amount);
        }
        slices.add_at(1.9, 1e9); // warm-up
        slices.add_at(8.0, 1e9); // after the window
        assert_eq!(slices.median_rate(), 100.0);
        assert_eq!(slices.total(), 500.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn work_over_an_interval_is_prorated() {
        let mut slices = Slices::new(0.0, 4.0, 4);
        // A 4 s interval that starts 2 s early: half of its work falls
        // before the window, a quarter in each of the first two slices.
        slices.add_over(-2.0, 2.0, 400.0);
        assert_eq!(slices.rates(), vec![100.0, 100.0, 0.0, 0.0]);
        slices.add_over(2.5, 3.5, 10.0);
        assert_eq!(slices.rates(), vec![100.0, 100.0, 5.0, 5.0]);
        // A zero-length interval degenerates to a point credit.
        slices.add_over(3.2, 3.2, 1.0);
        assert_eq!(slices.total(), 211.0);
    }
}
