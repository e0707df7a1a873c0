//! Per-stage metrics and throughput reporting.

use std::collections::BTreeMap;
use std::time::Duration;

use serde::{Deserialize, Serialize};

/// Accumulated metrics of one distillation stage or kernel kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct StageMetrics {
    /// Number of recorded batches (one per [`StageMetrics::record`] call).
    pub count: usize,
    /// Number of logical items (blocks) the recorded batches covered. Equal
    /// to `count` when every record covers one block; larger when a stage
    /// records whole multi-block batches. Cost-model calibration divides
    /// time by this to fit ms/item.
    pub items: u64,
    /// Total modeled time spent.
    pub modeled_time: Duration,
    /// Total host wall-clock time spent.
    pub host_time: Duration,
    /// Total input bits processed.
    pub bits_in: u64,
    /// Total output bits produced.
    pub bits_out: u64,
}

impl StageMetrics {
    /// Records one processed item.
    pub fn record(&mut self, modeled: Duration, host: Duration, bits_in: usize, bits_out: usize) {
        self.record_batch(modeled, host, bits_in, bits_out, 1);
    }

    /// Records one batch covering `items` logical items.
    pub fn record_batch(
        &mut self,
        modeled: Duration,
        host: Duration,
        bits_in: usize,
        bits_out: usize,
        items: u64,
    ) {
        self.count += 1;
        self.items += items;
        self.modeled_time += modeled;
        self.host_time += host;
        self.bits_in += bits_in as u64;
        self.bits_out += bits_out as u64;
    }

    /// Merges another metrics record into this one.
    pub fn merge(&mut self, other: &StageMetrics) {
        self.count += other.count;
        self.items += other.items;
        self.modeled_time += other.modeled_time;
        self.host_time += other.host_time;
        self.bits_in += other.bits_in;
        self.bits_out += other.bits_out;
    }
}

/// A throughput report over a set of named stages plus an overall makespan.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ThroughputReport {
    /// Per-stage metrics keyed by stage name.
    pub stages: BTreeMap<String, StageMetrics>,
    /// End-to-end wall-clock time of the run.
    pub makespan: Duration,
    /// Total items (blocks) the report covers.
    pub items: usize,
    /// Total input bits ingested at the first stage.
    pub input_bits: u64,
    /// Total output bits emitted by the last stage.
    pub output_bits: u64,
}

impl ThroughputReport {
    /// Merges another report into this one: stages are summed by name, the
    /// makespan takes the maximum (reports of links served concurrently
    /// overlap in time), and item/bit totals add up.
    pub fn merge(&mut self, other: &ThroughputReport) {
        for (name, metrics) in &other.stages {
            self.record_stage(name, *metrics);
        }
        self.makespan = self.makespan.max(other.makespan);
        self.items += other.items;
        self.input_bits += other.input_bits;
        self.output_bits += other.output_bits;
    }
    /// Records metrics under a stage name.
    pub fn record_stage(&mut self, name: &str, metrics: StageMetrics) {
        self.stages
            .entry(name.to_string())
            .or_default()
            .merge(&metrics);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_combines_shard_reports() {
        let mut a = ThroughputReport {
            makespan: Duration::from_millis(10),
            items: 4,
            input_bits: 400,
            output_bits: 200,
            ..Default::default()
        };
        let mut sa = StageMetrics::default();
        sa.record(Duration::from_millis(2), Duration::from_millis(2), 400, 200);
        a.record_stage("pa", sa);

        let mut b = ThroughputReport {
            makespan: Duration::from_millis(14),
            items: 2,
            input_bits: 200,
            output_bits: 100,
            ..Default::default()
        };
        let mut sb = StageMetrics::default();
        sb.record(Duration::from_millis(3), Duration::from_millis(3), 200, 100);
        b.record_stage("pa", sb);

        a.merge(&b);
        assert_eq!(a.makespan, Duration::from_millis(14));
        assert_eq!(a.items, 6);
        assert_eq!(a.input_bits, 600);
        assert_eq!(a.output_bits, 300);
        assert_eq!(a.stages["pa"].count, 2);
        assert_eq!(a.stages["pa"].bits_in, 600);
    }

    #[test]
    fn merging_stage_records_adds_up() {
        let mut report = ThroughputReport::default();
        let mut a = StageMetrics::default();
        a.record(Duration::from_millis(5), Duration::from_millis(5), 100, 50);
        report.record_stage("pa", a);
        report.record_stage("pa", a);
        assert_eq!(report.stages["pa"].count, 2);
        assert_eq!(report.stages["pa"].bits_in, 200);
    }

    #[test]
    fn batch_records_count_items_separately() {
        let mut m = StageMetrics::default();
        m.record_batch(
            Duration::from_millis(6),
            Duration::from_millis(6),
            300,
            150,
            3,
        );
        assert_eq!(m.count, 1);
        assert_eq!(m.items, 3);
        m.record(Duration::from_millis(2), Duration::from_millis(2), 100, 50);
        assert_eq!(m.count, 2);
        assert_eq!(m.items, 4);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// (items, micros, bits_in, bits_out) raw draws; the test body
        /// assembles `StageMetrics` from them (the vendored proptest
        /// stand-in has no `prop_map`).
        type RawMetrics = (u64, u64, u64, u64);

        fn metrics_from(raw: RawMetrics) -> StageMetrics {
            let (items, micros, bits_in, bits_out) = raw;
            StageMetrics {
                count: (items % 7) as usize,
                items,
                modeled_time: Duration::from_micros(micros),
                host_time: Duration::from_micros(micros / 2),
                bits_in,
                bits_out,
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Report merge must sum every `StageMetrics` field — including
            /// the new `items` counter — per stage name, take the max
            /// makespan, and add the report-level totals, regardless of how
            /// stages are distributed across the two reports.
            #[test]
            fn report_merge_sums_every_stage_field(
                stages_a in collection::vec(
                    (0usize..4, (0u64..200, 0u64..10_000, 0u64..10_000, 0u64..10_000)),
                    0..6,
                ),
                stages_b in collection::vec(
                    (0usize..4, (0u64..200, 0u64..10_000, 0u64..10_000, 0u64..10_000)),
                    0..6,
                ),
                makespans in (0u64..5_000, 0u64..5_000),
                items in (0usize..100, 0usize..100),
            ) {
                let names = ["sift", "decode", "pa", "auth"];
                let build = |specs: &[(usize, RawMetrics)], makespan: u64, items: usize| {
                    let mut r = ThroughputReport {
                        makespan: Duration::from_micros(makespan),
                        items,
                        input_bits: items as u64 * 8,
                        output_bits: items as u64 * 4,
                        ..Default::default()
                    };
                    for (name, raw) in specs {
                        r.record_stage(names[*name], metrics_from(*raw));
                    }
                    r
                };
                let a = build(&stages_a, makespans.0, items.0);
                let b = build(&stages_b, makespans.1, items.1);
                let mut merged = a.clone();
                merged.merge(&b);

                prop_assert_eq!(merged.makespan, a.makespan.max(b.makespan));
                prop_assert_eq!(merged.items, a.items + b.items);
                prop_assert_eq!(merged.input_bits, a.input_bits + b.input_bits);
                prop_assert_eq!(merged.output_bits, a.output_bits + b.output_bits);
                for name in names {
                    let expect = |r: &ThroughputReport, f: fn(&StageMetrics) -> u64| {
                        r.stages.get(name).map_or(0, f)
                    };
                    let got = merged.stages.get(name);
                    prop_assert_eq!(
                        got.map_or(0, |m| m.items),
                        expect(&a, |m| m.items) + expect(&b, |m| m.items)
                    );
                    prop_assert_eq!(
                        got.map_or(0, |m| m.count as u64),
                        expect(&a, |m| m.count as u64) + expect(&b, |m| m.count as u64)
                    );
                    prop_assert_eq!(
                        got.map_or(0, |m| m.bits_in),
                        expect(&a, |m| m.bits_in) + expect(&b, |m| m.bits_in)
                    );
                    prop_assert_eq!(
                        got.map_or(0, |m| m.bits_out),
                        expect(&a, |m| m.bits_out) + expect(&b, |m| m.bits_out)
                    );
                    prop_assert_eq!(
                        got.map_or(Duration::ZERO, |m| m.modeled_time),
                        a.stages.get(name).map_or(Duration::ZERO, |m| m.modeled_time)
                            + b.stages.get(name).map_or(Duration::ZERO, |m| m.modeled_time)
                    );
                    prop_assert_eq!(
                        got.map_or(Duration::ZERO, |m| m.host_time),
                        a.stages.get(name).map_or(Duration::ZERO, |m| m.host_time)
                            + b.stages.get(name).map_or(Duration::ZERO, |m| m.host_time)
                    );
                }
            }
        }
    }
}
