//! Integration tests for `qkd-obs`: histogram percentile math pinned against
//! a sorted-reference implementation (property-based), exact totals under an
//! 8-thread counter hammer and under concurrent histogram recording.

use proptest::prelude::*;
use qkd_obs::{Histogram, MetricsRegistry, SECONDS_BUCKETS};

/// Exact quantile of a sample set: the value at rank `ceil(q * n)` of the
/// sorted samples (the same rank definition the histogram estimator uses).
fn reference_quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty());
    let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
    sorted[rank - 1]
}

/// Bucket index of `value` in `bounds` (mirror of the estimator's rule:
/// first bound with `value <= bound`, else the overflow bucket).
fn bucket_of(bounds: &[f64], value: f64) -> usize {
    bounds
        .iter()
        .position(|b| value <= *b)
        .unwrap_or(bounds.len())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The histogram's quantile estimate must land inside the bucket that
    /// contains the exact (sorted-reference) quantile: log-bucketing loses
    /// sub-bucket precision, never bucket-level precision.
    #[test]
    fn quantile_estimate_stays_in_the_reference_bucket(
        samples in collection::vec(1e-6f64..30.0, 1..200),
        q in 0.01f64..=1.0,
    ) {
        let hist = Histogram::new(&SECONDS_BUCKETS);
        for s in &samples {
            hist.observe(*s);
        }
        let mut sorted = samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let exact = reference_quantile(&sorted, q);
        let est = hist.quantile(q);

        let bucket = bucket_of(&SECONDS_BUCKETS, exact);
        let lower = if bucket == 0 { 0.0 } else { SECONDS_BUCKETS[bucket - 1] };
        let upper = if bucket == SECONDS_BUCKETS.len() {
            f64::INFINITY
        } else {
            SECONDS_BUCKETS[bucket]
        };
        prop_assert!(
            est >= lower - 1e-12 && est <= upper + 1e-12,
            "estimate {est} outside bucket [{lower}, {upper}] holding exact quantile {exact} (q={q})"
        );
    }

    /// count/sum bookkeeping matches the raw samples exactly in count and to
    /// float tolerance in sum.
    #[test]
    fn count_and_sum_track_observations(samples in collection::vec(1e-6f64..30.0, 1..100)) {
        let hist = Histogram::new(&SECONDS_BUCKETS);
        for s in &samples {
            hist.observe(*s);
        }
        prop_assert_eq!(hist.count(), samples.len() as u64);
        let exact: f64 = samples.iter().sum();
        prop_assert!((hist.sum() - exact).abs() < 1e-6 * samples.len() as f64);
    }
}

/// Eight threads hammer one labeled counter family; every increment must
/// survive (the registry hands every thread the same underlying atomic).
#[test]
fn counter_family_is_exact_under_8_thread_contention() {
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 100_000;

    let reg = MetricsRegistry::new();
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let counter = reg.counter("contended_total", &[("family", "shared")]);
            let own = reg.counter(
                "contended_total",
                &[("family", "shared"), ("thread", &t.to_string())],
            );
            std::thread::spawn(move || {
                for _ in 0..PER_THREAD {
                    counter.inc();
                    own.inc();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("worker");
    }

    let shared = reg.counter("contended_total", &[("family", "shared")]);
    assert_eq!(shared.value(), THREADS as u64 * PER_THREAD);
    for t in 0..THREADS {
        let own = reg.counter(
            "contended_total",
            &[("family", "shared"), ("thread", &t.to_string())],
        );
        assert_eq!(own.value(), PER_THREAD, "thread {t} series lost updates");
    }
    // The snapshot sees all nine series of the family.
    let snap = reg.snapshot();
    let series = snap
        .counters
        .iter()
        .filter(|s| s.name == "contended_total")
        .count();
    assert_eq!(series, THREADS + 1);
}

/// Concurrent histogram recording must not lose observations either.
#[test]
fn histogram_is_exact_under_contention() {
    let hist = Histogram::new(&SECONDS_BUCKETS);
    let handles: Vec<_> = (0..8)
        .map(|_| {
            let h = hist.clone();
            std::thread::spawn(move || {
                for i in 0..10_000u32 {
                    h.observe(1e-6 * f64::from(i % 100 + 1));
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("worker");
    }
    assert_eq!(hist.count(), 80_000);
    let total: u64 = hist.snapshot().counts.iter().sum();
    assert_eq!(total, 80_000);
}
