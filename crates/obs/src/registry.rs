//! The sharded metric registry and the counter/gauge handle types.
//!
//! Families are interned once per unique `(name, sorted labels)` key in one
//! of a fixed set of shards (hashed by name, so one hot family cannot
//! serialize unrelated lookups). Callers resolve handles up front and record
//! through them; a handle is an `Arc` around plain atomics, so the record
//! path never touches the shard locks. This module is on the `qkd-lint`
//! panic-freedom list: lookups degrade to detached (unregistered but fully
//! functional) handles instead of panicking.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use crate::events::EventLog;
use crate::histogram::Histogram;

/// Shard count; a power of two so the name hash maps by mask.
const SHARD_COUNT: usize = 8;

/// Identity of one metric series: family name plus canonically sorted labels.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct MetricKey {
    /// Family name, e.g. `qkd_http_requests_total`.
    pub name: &'static str,
    /// Label pairs sorted by key.
    pub labels: Vec<(&'static str, String)>,
}

impl MetricKey {
    fn new(name: &'static str, labels: &[(&'static str, &str)]) -> MetricKey {
        let mut labels: Vec<(&'static str, String)> =
            labels.iter().map(|(k, v)| (*k, (*v).to_string())).collect();
        labels.sort_unstable_by(|a, b| a.0.cmp(b.0));
        MetricKey { name, labels }
    }
}

/// One registered series.
#[derive(Clone)]
pub enum MetricSlot {
    /// A monotonic counter.
    Counter(Counter),
    /// A last-value gauge.
    Gauge(Gauge),
    /// A log-bucketed histogram.
    Histogram(Histogram),
}

struct Shard {
    slots: RwLock<HashMap<MetricKey, MetricSlot>>,
}

/// The sharded registry. One global instance lives behind
/// [`crate::registry`]; separate instances exist only in tests.
pub struct MetricsRegistry {
    shards: Vec<Shard>,
    events: EventLog,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// An empty registry with the default event-log capacity.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry {
            shards: (0..SHARD_COUNT)
                .map(|_| Shard {
                    slots: RwLock::new(HashMap::new()),
                })
                .collect(),
            events: EventLog::new(1024),
        }
    }

    /// The ring-buffer event log.
    pub fn events(&self) -> &EventLog {
        &self.events
    }

    /// Resolves (registering on first use) the counter `name{labels}`.
    pub fn counter(&self, name: &'static str, labels: &[(&'static str, &str)]) -> Counter {
        match self.slot(name, labels, SlotKind::Counter) {
            MetricSlot::Counter(c) => c,
            // Name already registered as a different kind; hand out a
            // detached handle rather than panicking on the hot path.
            _ => Counter::detached(),
        }
    }

    /// Resolves (registering on first use) the gauge `name{labels}`.
    pub fn gauge(&self, name: &'static str, labels: &[(&'static str, &str)]) -> Gauge {
        match self.slot(name, labels, SlotKind::Gauge) {
            MetricSlot::Gauge(g) => g,
            _ => Gauge::detached(),
        }
    }

    /// Resolves the histogram `name{labels}` with the default duration
    /// buckets ([`crate::SECONDS_BUCKETS`]).
    pub fn histogram(&self, name: &'static str, labels: &[(&'static str, &str)]) -> Histogram {
        self.histogram_with(name, labels, &crate::SECONDS_BUCKETS)
    }

    /// Resolves the histogram `name{labels}` with explicit bucket bounds.
    /// Bounds are fixed at first registration; later calls reuse the
    /// existing series regardless of the bounds passed.
    pub fn histogram_with(
        &self,
        name: &'static str,
        labels: &[(&'static str, &str)],
        bounds: &'static [f64],
    ) -> Histogram {
        match self.slot(name, labels, SlotKind::Histogram(bounds)) {
            MetricSlot::Histogram(h) => h,
            _ => Histogram::new(bounds),
        }
    }

    fn slot(
        &self,
        name: &'static str,
        labels: &[(&'static str, &str)],
        kind: SlotKind,
    ) -> MetricSlot {
        let key = MetricKey::new(name, labels);
        let Some(shard) = self.shards.get(shard_index(name)) else {
            // Unreachable (the index is masked), but degrade without panic.
            return kind.fresh();
        };
        {
            let slots = match shard.slots.read() {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
            if let Some(slot) = slots.get(&key) {
                return slot.clone();
            }
        }
        let mut slots = match shard.slots.write() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        slots.entry(key).or_insert_with(|| kind.fresh()).clone()
    }

    /// Point-in-time copy of every registered series, sorted by name then
    /// labels, plus the event log.
    pub fn snapshot(&self) -> crate::Snapshot {
        let mut keyed: Vec<(MetricKey, MetricSlot)> = Vec::new();
        for shard in &self.shards {
            let slots = match shard.slots.read() {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
            keyed.extend(slots.iter().map(|(k, v)| (k.clone(), v.clone())));
        }
        keyed.sort_by(|a, b| a.0.cmp(&b.0));
        crate::expo::snapshot_from(keyed, self.events.snapshot())
    }

    /// Renders the registry in the Prometheus text exposition format.
    pub fn render_prometheus(&self) -> String {
        self.snapshot().to_prometheus()
    }

    /// Renders the registry (including the event log) as a JSON document.
    pub fn render_json(&self) -> String {
        self.snapshot().to_json()
    }
}

/// Which slot kind to create on a registry miss.
enum SlotKind {
    Counter,
    Gauge,
    Histogram(&'static [f64]),
}

impl SlotKind {
    fn fresh(&self) -> MetricSlot {
        match self {
            SlotKind::Counter => MetricSlot::Counter(Counter::detached()),
            SlotKind::Gauge => MetricSlot::Gauge(Gauge::detached()),
            SlotKind::Histogram(bounds) => MetricSlot::Histogram(Histogram::new(bounds)),
        }
    }
}

fn shard_index(name: &str) -> usize {
    let mut hasher = DefaultHasher::new();
    name.hash(&mut hasher);
    (hasher.finish() as usize) & (SHARD_COUNT - 1)
}

/// A monotonic counter handle. Cloning shares the same series.
#[derive(Clone)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Counter").field(&self.value()).finish()
    }
}

impl Counter {
    /// A counter not registered anywhere; records normally, renders nowhere.
    pub fn detached() -> Counter {
        Counter {
            cell: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A last-value gauge handle (f64). Cloning shares the same series.
#[derive(Clone)]
pub struct Gauge {
    bits: Arc<AtomicU64>,
}

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Gauge").field(&self.value()).finish()
    }
}

impl Gauge {
    /// A gauge not registered anywhere; records normally, renders nowhere.
    pub fn detached() -> Gauge {
        Gauge {
            bits: Arc::new(AtomicU64::new(0f64.to_bits())),
        }
    }

    /// Sets the gauge.
    pub fn set(&self, value: f64) {
        self.bits.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    pub fn add(&self, delta: f64) {
        let _ = self
            .bits
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                Some((f64::from_bits(bits) + delta).to_bits())
            });
    }

    /// Current value.
    pub fn value(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_key_resolves_to_the_same_series() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("test_total", &[("link", "0")]);
        let b = reg.counter("test_total", &[("link", "0")]);
        a.inc();
        b.add(2);
        assert_eq!(a.value(), 3);
        assert_eq!(b.value(), 3);
    }

    #[test]
    fn label_order_does_not_split_families() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("test_total", &[("a", "1"), ("b", "2")]);
        let b = reg.counter("test_total", &[("b", "2"), ("a", "1")]);
        a.inc();
        assert_eq!(b.value(), 1);
    }

    #[test]
    fn kind_mismatch_degrades_to_detached() {
        let reg = MetricsRegistry::new();
        let _c = reg.counter("test_metric", &[]);
        let g = reg.gauge("test_metric", &[]);
        g.set(5.0);
        // The detached gauge works but is invisible in snapshots.
        assert_eq!(g.value(), 5.0);
        let snap = reg.snapshot();
        assert!(snap.gauges.iter().all(|s| s.name != "test_metric"));
    }

    #[test]
    fn gauge_add_handles_negative_deltas() {
        let g = Gauge::detached();
        g.add(3.0);
        g.add(-1.0);
        assert_eq!(g.value(), 2.0);
    }
}
