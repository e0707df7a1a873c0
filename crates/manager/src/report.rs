//! Fleet-level observability: per-link and aggregate reports, service
//! fairness, and the key-store reconciliation ledger.

use std::time::Duration;

use serde::{Deserialize, Serialize};

use qkd_core::SessionSummary;
use qkd_hetero::ThroughputReport;

/// Jain's fairness index over a set of per-link allocations:
/// `(Σx)² / (n·Σx²)`. 1.0 means perfectly even service; `1/n` means one link
/// got everything. Empty or all-zero inputs report 1.0 (nothing was unfairly
/// shared).
pub fn jain_index(xs: &[f64]) -> f64 {
    let n = xs.len();
    if n == 0 {
        return 1.0;
    }
    let sum: f64 = xs.iter().sum();
    let sum_sq: f64 = xs.iter().map(|x| x * x).sum();
    if sum_sq <= 0.0 {
        return 1.0;
    }
    (sum * sum) / (n as f64 * sum_sq)
}

/// Everything the fleet knows about one link after (or during) a run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinkReport {
    /// Link id.
    pub link: usize,
    /// Human-readable label from the spec.
    pub label: String,
    /// Target channel QBER.
    pub qber: f64,
    /// Block size in bits.
    pub block_bits: usize,
    /// The link engine's cumulative session summary.
    pub summary: SessionSummary,
    /// Per-stage throughput assembled from the link's block results; the
    /// makespan is the link's total busy time on the shared pool.
    pub throughput: ThroughputReport,
    /// Batches the pool has processed for this link (including the one that
    /// failed, if any).
    pub batches_processed: u64,
    /// Batches rejected by admission control (backlog full or link failed).
    pub batches_rejected: u64,
    /// Batches dropped from the queue after a fatal link failure.
    pub batches_abandoned: u64,
    /// Queued batches shed by [`crate::spec::AdmissionPolicy::DropOldest`]
    /// to admit fresher arrivals.
    pub batches_dropped: u64,
    /// Total worker time spent on this link.
    pub busy: Duration,
    /// WFQ scheduling weight from the spec.
    pub weight: f64,
    /// Where the scheduler last placed this link's offloadable kernels
    /// (`cpu`, `whole:sim-gpu`, `decode:sim-fpga`, …).
    pub placement: String,
    /// Fatal failure that stopped the link, if any (display form).
    pub failure: Option<String>,
}

impl LinkReport {
    /// Secret-key output rate against the link's busy time.
    pub fn output_bps(&self) -> f64 {
        let secs = self.busy.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.summary.secret_bits_out as f64 / secs
        }
    }

    /// Blocks the engine attempted (distilled or aborted).
    pub fn blocks_attempted(&self) -> u64 {
        (self.summary.blocks_ok + self.summary.blocks_failed) as u64
    }

    /// Total *modeled* stage time of the link: host-measured for stages on
    /// the CPU, the calibrated cost model's prediction for stages placed on
    /// a simulated accelerator. The quantity backend placement optimises.
    pub fn modeled_busy(&self) -> Duration {
        self.throughput
            .stages
            .values()
            .map(|m| m.modeled_time)
            .sum()
    }

    /// Total host-*measured* stage time of the link, under any placement.
    pub fn host_busy(&self) -> Duration {
        self.throughput.stages.values().map(|m| m.host_time).sum()
    }
}

/// Aggregate view of a fleet run: per-link reports plus the merged session
/// summary and merged stage throughput.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetReport {
    /// Per-link reports in link-id order.
    pub links: Vec<LinkReport>,
    /// All link summaries merged via [`SessionSummary::merge`].
    pub summary: SessionSummary,
    /// All link throughput reports merged via [`ThroughputReport::merge`];
    /// the makespan is the wall-clock time of the drain.
    pub throughput: ThroughputReport,
    /// Wall-clock time of the most recent [`crate::LinkManager::run`].
    pub wall_time: Duration,
    /// Worker threads the pool ran with.
    pub workers: usize,
}

impl FleetReport {
    /// Aggregate secret-key output rate: total secret bits over the run's
    /// wall-clock time.
    pub fn aggregate_output_bps(&self) -> f64 {
        let secs = self.wall_time.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.summary.secret_bits_out as f64 / secs
        }
    }

    /// Total secret bits distilled across the fleet.
    pub fn total_secret_bits(&self) -> u64 {
        self.summary.secret_bits_out
    }

    /// Jain fairness of *service*: how evenly worker busy time was spread
    /// over the links.
    pub fn fairness_service(&self) -> f64 {
        let busy: Vec<f64> = self.links.iter().map(|l| l.busy.as_secs_f64()).collect();
        jain_index(&busy)
    }

    /// Jain fairness of *progress*: how evenly attempted blocks were spread
    /// over the links.
    pub fn fairness_blocks(&self) -> f64 {
        let blocks: Vec<f64> = self
            .links
            .iter()
            .map(|l| l.blocks_attempted() as f64)
            .collect();
        jain_index(&blocks)
    }

    /// Jain fairness of *weighted* service: busy time normalised by each
    /// link's scheduling weight, over the links that got any service. 1.0
    /// means every link received pool time exactly proportional to its
    /// weight — what weighted fair queueing guarantees under sustained
    /// backlog. Only meaningful when the drain ran under contention (e.g. a
    /// [`crate::FleetConfig`] `batch_budget` that stopped before backlogs
    /// emptied); a full drain eventually serves everything regardless of
    /// order.
    pub fn fairness_weighted(&self) -> f64 {
        let shares: Vec<f64> = self
            .links
            .iter()
            .filter(|l| l.batches_processed > 0 && l.weight > 0.0)
            .map(|l| l.busy.as_secs_f64() / l.weight)
            .collect();
        jain_index(&shares)
    }

    /// Total modeled stage time across the fleet (see
    /// [`LinkReport::modeled_busy`]).
    pub fn modeled_busy(&self) -> Duration {
        self.links.iter().map(LinkReport::modeled_busy).sum()
    }

    /// Total host-measured stage time across the fleet (see
    /// [`LinkReport::host_busy`]).
    pub fn host_busy(&self) -> Duration {
        self.links.iter().map(LinkReport::host_busy).sum()
    }

    /// Modeled aggregate output rate: total secret bits over the fleet's
    /// modeled stage time divided across the pool's workers. Unlike
    /// [`FleetReport::aggregate_output_bps`] (host wall clock) this reflects
    /// what backend placement buys: offloading the decode shrinks its
    /// modeled time to the accelerator's prediction.
    pub fn modeled_output_bps(&self) -> f64 {
        let secs = self.modeled_busy().as_secs_f64() / self.workers.max(1) as f64;
        if secs <= 0.0 {
            0.0
        } else {
            self.summary.secret_bits_out as f64 / secs
        }
    }

    /// Renders the fleet as an aligned text table.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<6} {:<10} {:>7} {:>6} {:<14} {:>8} {:>8} {:>12} {:>12} {:>10}\n",
            "link",
            "label",
            "QBER%",
            "wt",
            "placement",
            "ok",
            "failed",
            "secret bits",
            "busy (ms)",
            "kbit/s"
        ));
        for l in &self.links {
            out.push_str(&format!(
                "{:<6} {:<10} {:>7.2} {:>6.1} {:<14} {:>8} {:>8} {:>12} {:>12.2} {:>10.1}\n",
                l.link,
                l.label,
                l.qber * 100.0,
                l.weight,
                l.placement,
                l.summary.blocks_ok,
                l.summary.blocks_failed,
                l.summary.secret_bits_out,
                l.busy.as_secs_f64() * 1e3,
                l.output_bps() / 1e3,
            ));
        }
        out.push_str(&format!(
            "fleet: {} links, {} workers, {} secret bits in {:.2} ms, measured {:.1} kbit/s (wall clock), modeled {:.1} kbit/s (placed stage time / workers), fairness service {:.3} / blocks {:.3} / weighted {:.3}\n",
            self.links.len(),
            self.workers,
            self.summary.secret_bits_out,
            self.wall_time.as_secs_f64() * 1e3,
            self.aggregate_output_bps() / 1e3,
            self.modeled_output_bps() / 1e3,
            self.fairness_service(),
            self.fairness_blocks(),
            self.fairness_weighted(),
        ));
        out
    }
}

/// One link's row of the reconciliation ledger: the engine's secret-bit
/// output against what the key store absorbed and handed out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkLedger {
    /// Link id.
    pub link: usize,
    /// Secret bits the engine's session summary accounts for.
    pub secret_bits_out: u64,
    /// Bits the store absorbed.
    pub deposited_bits: u64,
    /// Bits delivered to consumers.
    pub delivered_bits: u64,
    /// Bits still available.
    pub available_bits: u64,
}

/// The reconciled fleet ledger returned by
/// [`crate::LinkManager::reconcile`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FleetLedger {
    /// Per-link rows in link-id order.
    pub links: Vec<LinkLedger>,
}

impl FleetLedger {
    /// Total bits deposited across the fleet.
    pub fn total_deposited(&self) -> u64 {
        self.links.iter().map(|l| l.deposited_bits).sum()
    }

    /// Total bits delivered across the fleet.
    pub fn total_delivered(&self) -> u64 {
        self.links.iter().map(|l| l.delivered_bits).sum()
    }

    /// Total bits still available across the fleet.
    pub fn total_available(&self) -> u64 {
        self.links.iter().map(|l| l.available_bits).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jain_index_known_values() {
        assert_eq!(jain_index(&[]), 1.0);
        assert_eq!(jain_index(&[0.0, 0.0]), 1.0);
        assert!((jain_index(&[3.0, 3.0, 3.0]) - 1.0).abs() < 1e-12);
        // One of four links got all the service.
        assert!((jain_index(&[1.0, 0.0, 0.0, 0.0]) - 0.25).abs() < 1e-12);
        // Mild imbalance sits between the extremes.
        let j = jain_index(&[1.0, 2.0, 3.0]);
        assert!(j > 0.5 && j < 1.0, "got {j}");
    }

    #[test]
    fn ledger_totals_add_up() {
        let ledger = FleetLedger {
            links: vec![
                LinkLedger {
                    link: 0,
                    secret_bits_out: 100,
                    deposited_bits: 100,
                    delivered_bits: 60,
                    available_bits: 40,
                },
                LinkLedger {
                    link: 1,
                    secret_bits_out: 50,
                    deposited_bits: 50,
                    delivered_bits: 0,
                    available_bits: 50,
                },
            ],
        };
        assert_eq!(ledger.total_deposited(), 150);
        assert_eq!(ledger.total_delivered(), 60);
        assert_eq!(ledger.total_available(), 90);
    }
}
