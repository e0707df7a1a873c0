//! `qkd-obs`: the fleet-wide telemetry layer.
//!
//! A zero-dependency (std-only) metrics and tracing subsystem every other
//! crate in the workspace can adopt without dependency cycles:
//!
//! * a global sharded [`MetricsRegistry`] of atomic [`Counter`]s, [`Gauge`]s
//!   and log-bucketed [`Histogram`]s — handles are cheap `Arc` clones, so a
//!   caller resolves its metrics once and records through plain atomics with
//!   no locking or allocation on the hot path;
//! * labeled families (per-link, per-stage, per-route, per-server) with a
//!   canonical sorted-label identity;
//! * lightweight tracing spans ([`span!`]) that record wall time into
//!   histograms on drop;
//! * an in-memory ring-buffer event log ([`event!`]) with severity levels;
//! * renderers for the Prometheus text exposition format and a JSON snapshot
//!   (see [`expo`]), served by `qkd-api` as `GET /api/v1/metrics`.
//!
//! Telemetry is always on: a record call is the atomic update itself and
//! nothing more.
//!
//! Secret hygiene: key material must never reach a label value or event
//! message. The only key-derived value allowed here is the 32-bit
//! `SecretBuf::fingerprint()`; `qkd-lint`'s `metric-hygiene` rule rejects
//! lines that feed `expose()`/`take_bits()` into a metric or event call.

#![warn(missing_docs)]

pub mod events;
pub mod expo;
pub mod histogram;
pub mod registry;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

pub use events::{EventRecord, Severity};
pub use expo::Snapshot;
pub use histogram::{Histogram, HistogramSnapshot};
pub use registry::{Counter, Gauge, MetricsRegistry};

/// Monotonic source for [`next_instance`] suffixes.
static INSTANCE_IDS: AtomicU64 = AtomicU64::new(0);

/// The process-wide registry.
static REGISTRY: OnceLock<MetricsRegistry> = OnceLock::new();

/// Returns the global metrics registry, creating it on first use.
pub fn registry() -> &'static MetricsRegistry {
    REGISTRY.get_or_init(MetricsRegistry::new)
}

/// Returns a process-unique instance label like `"s0"`, `"s1"`, …
///
/// Tests run many servers/fleets concurrently in one process against the one
/// global registry; scoping their families by an instance label keeps each
/// instance's counters exact. Ports and addresses are reused across tests and
/// must not be used as identities.
pub fn next_instance(prefix: &str) -> String {
    let id = INSTANCE_IDS.fetch_add(1, Ordering::Relaxed);
    format!("{prefix}{id}")
}

/// Records an event into the global ring-buffer log; [`event!`] formats the
/// message and calls this.
pub fn record_event(severity: Severity, target: &'static str, message: String) {
    registry().events().record(severity, target, message);
}

/// Default histogram bucket bounds for durations, in seconds: powers of two
/// from 1 µs to ~33.6 s (26 buckets plus an implicit overflow bucket).
pub static SECONDS_BUCKETS: [f64; 26] = log2_buckets(1e-6);

/// Default histogram bucket bounds for small counts (iterations, attempts,
/// queue depths): powers of two from 1 to 1 048 576.
pub static COUNT_BUCKETS: [f64; 21] = log2_buckets(1.0);

/// `[first, first*2, first*4, …]` — the log-bucketed bound ladder.
const fn log2_buckets<const N: usize>(first: f64) -> [f64; N] {
    let mut bounds = [0.0; N];
    let mut value = first;
    let mut i = 0;
    while i < N {
        bounds[i] = value;
        value *= 2.0;
        i += 1;
    }
    bounds
}

/// A timing span: records the wall time between construction and drop into a
/// histogram. Created by [`span!`] or [`SpanGuard::begin`].
#[must_use = "a span records on drop; binding it to `_` drops it immediately"]
pub struct SpanGuard {
    hist: Histogram,
    start: Instant,
}

impl SpanGuard {
    /// Starts a span named `name` with extra `labels`. The elapsed time lands
    /// in the `qkd_span_seconds` histogram family as `{span="<name>", …}`.
    pub fn begin(name: &'static str, labels: &[(&'static str, &str)]) -> SpanGuard {
        let mut all: Vec<(&'static str, &str)> = Vec::with_capacity(labels.len() + 1);
        all.push(("span", name));
        all.extend_from_slice(labels);
        SpanGuard {
            hist: registry().histogram_with("qkd_span_seconds", &all, &SECONDS_BUCKETS),
            start: Instant::now(),
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.hist.observe(self.start.elapsed().as_secs_f64());
    }
}

/// Starts a [`SpanGuard`] recording into the `qkd_span_seconds{span="…"}`
/// histogram family when dropped.
///
/// ```
/// let _span = qkd_obs::span!("decode", link = 3);
/// // … work …
/// // drop records the elapsed time under {span="decode", link="3"}
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::SpanGuard::begin($name, &[])
    };
    ($name:expr, $($key:ident = $value:expr),+ $(,)?) => {
        $crate::SpanGuard::begin(
            $name,
            &[$((stringify!($key), format!("{}", $value).as_str())),+],
        )
    };
}

/// Appends a formatted event to the global ring-buffer log.
///
/// The severity is a bare [`Severity`] variant name.
///
/// ```
/// qkd_obs::event!(Warn, "manager", "link {} quarantined", 7);
/// ```
#[macro_export]
macro_rules! event {
    ($severity:ident, $target:expr, $($fmt:tt)+) => {
        $crate::record_event($crate::Severity::$severity, $target, format!($($fmt)+))
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_ladders_are_strictly_increasing() {
        for w in SECONDS_BUCKETS.windows(2) {
            assert!(w[0] < w[1]);
        }
        for w in COUNT_BUCKETS.windows(2) {
            assert!(w[0] < w[1]);
        }
        assert_eq!(COUNT_BUCKETS[0], 1.0);
        assert_eq!(COUNT_BUCKETS[20], (1u64 << 20) as f64);
    }

    #[test]
    fn instance_labels_are_unique() {
        let a = next_instance("s");
        let b = next_instance("s");
        assert_ne!(a, b);
    }

    #[test]
    fn span_macro_records_into_the_span_family() {
        {
            let _span = span!("lib_test_span", link = 42);
        }
        let snap = registry().snapshot();
        let fam = snap
            .histograms
            .iter()
            .find(|h| {
                h.name == "qkd_span_seconds"
                    && h.labels
                        .iter()
                        .any(|(k, v)| *k == "span" && v == "lib_test_span")
            })
            .expect("span family registered");
        assert_eq!(fam.count, 1);
        assert!(fam.labels.iter().any(|(k, v)| *k == "link" && v == "42"));
    }
}
