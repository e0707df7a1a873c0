//! Shared helpers for the benchmark harness and Criterion benches.
//!
//! The `harness` binary (`cargo run --release -p qkd-bench --bin harness -- all`)
//! regenerates every table and figure of the reconstructed evaluation; the
//! Criterion benches under `benches/` provide statistically robust timings
//! for the individual kernels.

#![warn(missing_docs)]

pub mod experiments;

use std::time::{Duration, Instant};

/// Measures the wall-clock time of a closure, returning its output and the
/// elapsed time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Formats a throughput in bits/s as Mbit/s with two decimals.
pub fn mbps(bits: f64, time: Duration) -> f64 {
    if time.as_secs_f64() <= 0.0 {
        return 0.0;
    }
    bits / time.as_secs_f64() / 1e6
}

/// Prints a table header and an underline of matching width.
pub fn header(title: &str, columns: &str) {
    println!("\n=== {title} ===");
    println!("{columns}");
    println!("{}", "-".repeat(columns.len().min(100)));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_measures_something() {
        let (v, t) = timed(|| {
            std::thread::sleep(Duration::from_millis(5));
            42
        });
        assert_eq!(v, 42);
        assert!(t >= Duration::from_millis(4));
    }

    #[test]
    fn mbps_handles_zero_time() {
        assert_eq!(mbps(1e6, Duration::ZERO), 0.0);
        assert!((mbps(1e6, Duration::from_secs(1)) - 1.0).abs() < 1e-9);
    }
}
