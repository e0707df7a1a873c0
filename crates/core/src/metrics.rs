//! Session-level accounting.

use std::time::Duration;

use serde::{Deserialize, Serialize};

use crate::channel::{ChannelModel, ChannelUsage};

/// Running totals across all blocks processed by one [`crate::PostProcessor`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct SessionSummary {
    /// Blocks successfully distilled.
    pub blocks_ok: usize,
    /// Blocks aborted (QBER, reconciliation or verification failure).
    pub blocks_failed: usize,
    /// Sifted bits consumed (including estimation samples).
    pub sifted_bits_in: u64,
    /// Secret bits produced.
    pub secret_bits_out: u64,
    /// Bits disclosed by estimation, reconciliation and verification.
    pub disclosed_bits: u64,
    /// Authentication key bits consumed.
    pub auth_bits_consumed: u64,
    /// Sifted bits currently buffered as a partial-block remainder, waiting
    /// for the next detection batch (a gauge, not a running total).
    pub carried_bits: u64,
    /// Sifted bits permanently dropped without entering a block: a remainder
    /// explicitly discarded at session end, or the blocks framed behind a
    /// batch-fatal one, which are never attempted.
    pub discarded_bits: u64,
    /// Total host-measured processing time (sum over stages and blocks).
    pub processing_time: Duration,
    /// Total classical-channel usage.
    pub channel_usage: ChannelUsage,
}

/// The order-independent subset of a [`SessionSummary`]: every counter that is
/// fully determined by the input data and the session seed, excluding the
/// measured wall-clock quantities. Two runs that distilled the same blocks —
/// at whatever batch width — must produce equal accounting snapshots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SessionAccounting {
    /// Blocks successfully distilled.
    pub blocks_ok: usize,
    /// Blocks aborted.
    pub blocks_failed: usize,
    /// Sifted bits consumed.
    pub sifted_bits_in: u64,
    /// Secret bits produced.
    pub secret_bits_out: u64,
    /// Bits disclosed to the eavesdropper.
    pub disclosed_bits: u64,
    /// Authentication key bits consumed.
    pub auth_bits_consumed: u64,
    /// Sifted bits buffered as a partial-block remainder.
    pub carried_bits: u64,
    /// Sifted bits permanently dropped.
    pub discarded_bits: u64,
    /// Classical-channel round trips.
    pub round_trips: usize,
    /// Classical-channel messages.
    pub messages: usize,
    /// Classical-channel payload bits.
    pub payload_bits: usize,
}

impl SessionSummary {
    /// Adds another summary (or a per-block delta) into this one. Addition is
    /// commutative, so merging per-link summaries into a fleet total gives
    /// the same result in any order (the engine itself merges its per-block
    /// deltas in block order). `carried_bits` is a gauge owned by the
    /// engine's batch framing, not a per-block quantity, and is summed like
    /// the rest (per-block deltas always carry zero).
    pub fn merge(&mut self, delta: &SessionSummary) {
        self.blocks_ok += delta.blocks_ok;
        self.blocks_failed += delta.blocks_failed;
        self.sifted_bits_in += delta.sifted_bits_in;
        self.secret_bits_out += delta.secret_bits_out;
        self.disclosed_bits += delta.disclosed_bits;
        self.auth_bits_consumed += delta.auth_bits_consumed;
        self.carried_bits += delta.carried_bits;
        self.discarded_bits += delta.discarded_bits;
        self.processing_time += delta.processing_time;
        self.channel_usage.add(delta.channel_usage);
    }

    /// The deterministic, time-free accounting view of this summary.
    pub fn accounting(&self) -> SessionAccounting {
        SessionAccounting {
            blocks_ok: self.blocks_ok,
            blocks_failed: self.blocks_failed,
            sifted_bits_in: self.sifted_bits_in,
            secret_bits_out: self.secret_bits_out,
            disclosed_bits: self.disclosed_bits,
            auth_bits_consumed: self.auth_bits_consumed,
            carried_bits: self.carried_bits,
            discarded_bits: self.discarded_bits,
            round_trips: self.channel_usage.round_trips,
            messages: self.channel_usage.messages,
            payload_bits: self.channel_usage.payload_bits,
        }
    }
    /// Fraction of sifted input that became secret key.
    pub fn secret_fraction(&self) -> f64 {
        if self.sifted_bits_in == 0 {
            0.0
        } else {
            self.secret_bits_out as f64 / self.sifted_bits_in as f64
        }
    }

    /// Net secret bits after subtracting the authentication key spent.
    pub fn net_secret_bits(&self) -> i64 {
        self.secret_bits_out as i64 - self.auth_bits_consumed as i64
    }

    /// Secret-key throughput against compute time only (bits per second).
    pub fn compute_throughput_bps(&self) -> f64 {
        let secs = self.processing_time.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.secret_bits_out as f64 / secs
        }
    }

    /// Secret-key throughput including classical-channel time on the given
    /// channel model.
    pub fn end_to_end_throughput_bps(&self, channel: &ChannelModel) -> f64 {
        let secs =
            self.processing_time.as_secs_f64() + self.channel_usage.time_on(channel).as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.secret_bits_out as f64 / secs
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn summary() -> SessionSummary {
        SessionSummary {
            blocks_ok: 10,
            blocks_failed: 1,
            sifted_bits_in: 1_000_000,
            secret_bits_out: 400_000,
            disclosed_bits: 250_000,
            auth_bits_consumed: 5_000,
            carried_bits: 100,
            discarded_bits: 0,
            processing_time: Duration::from_secs(2),
            channel_usage: ChannelUsage {
                round_trips: 20,
                messages: 40,
                payload_bits: 300_000,
            },
        }
    }

    #[test]
    fn fractions_and_throughputs() {
        let s = summary();
        assert!((s.secret_fraction() - 0.4).abs() < 1e-12);
        assert_eq!(s.net_secret_bits(), 395_000);
        assert!((s.compute_throughput_bps() - 200_000.0).abs() < 1e-6);
        let e2e = s.end_to_end_throughput_bps(&ChannelModel::metro());
        assert!(e2e < s.compute_throughput_bps());
        assert!(e2e > 0.0);
    }

    #[test]
    fn empty_summary_has_zero_rates() {
        let s = SessionSummary::default();
        assert_eq!(s.secret_fraction(), 0.0);
        assert_eq!(s.compute_throughput_bps(), 0.0);
        assert_eq!(s.net_secret_bits(), 0);
    }

    #[test]
    fn merge_is_commutative_and_accounting_drops_time() {
        let a = summary();
        let mut b = SessionSummary {
            blocks_ok: 2,
            blocks_failed: 3,
            sifted_bits_in: 10,
            secret_bits_out: 4,
            disclosed_bits: 2,
            auth_bits_consumed: 1,
            carried_bits: 7,
            discarded_bits: 5,
            processing_time: Duration::from_millis(10),
            channel_usage: ChannelUsage {
                round_trips: 1,
                messages: 2,
                payload_bits: 3,
            },
        };
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.blocks_ok, 12);
        assert_eq!(ab.discarded_bits, 5);
        assert_eq!(ab.carried_bits, 107);
        assert_eq!(ab.processing_time, Duration::from_millis(2_010));

        // Accounting snapshots ignore time, so two summaries that differ only
        // in measured durations compare equal.
        b = summary();
        b.processing_time = Duration::from_secs(99);
        assert_eq!(a.accounting(), b.accounting());
        assert_eq!(a.accounting().payload_bits, 300_000);
    }

    #[test]
    fn slower_channel_lowers_end_to_end_rate() {
        let s = summary();
        let fast = s.end_to_end_throughput_bps(&ChannelModel::metro());
        let slow = s.end_to_end_throughput_bps(&ChannelModel::long_haul());
        assert!(slow < fast);
    }
}
