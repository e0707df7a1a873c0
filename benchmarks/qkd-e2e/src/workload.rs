//! The four workloads, their link plans, the seeded detection-event rings and
//! the open-loop schedule.

use std::time::Duration;

use qkd_manager::LinkSpec;
use qkd_simulator::{detection_events, CorrelatedKeySource};
use qkd_types::rng::{block_seed, derive_rng};
use qkd_types::{Basis, BitValue, BitVec, DetectionEvent, PulseClass};
use rand::Rng;

/// Epochs of detection events generated per link; intake cycles through them.
pub const RING_EPOCHS: usize = 16;

/// Engines never replenish the authentication pool, so at the default
/// `1 << 20` bits a link quarantines with `AuthKeyExhausted` after ~1 650
/// blocks. This lasts any window the benchmark runs.
pub const AUTH_POOL_BITS: usize = 1 << 26;

/// Fixed open-loop arrival schedule of one link: epoch `k` is due at
/// `phase + k * period` after the load phase starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pace {
    pub period: Duration,
    pub phase: Duration,
}

/// One link of a workload.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkPlan {
    pub label: &'static str,
    pub qber: f64,
    pub block_bits: usize,
    pub weight: f64,
    /// Sifted blocks per epoch.
    pub epoch_blocks: usize,
    /// `None` under closed-loop intake.
    pub pace: Option<Pace>,
}

/// One workload: a traffic mix chosen to load particular layers.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub links: Vec<LinkPlan>,
    /// Closed-loop intake: epochs submitted per link before each `run()`.
    /// Ignored when the links are paced.
    pub closed_epochs: usize,
    /// `enc_keys` asks for this many keys ...
    pub keys_per_exchange: usize,
    /// ... of this many bits each.
    pub key_bits: usize,
    /// Secret bits distilled into the store during set-up, per second of
    /// measurement window, so that consumers never wait for supply.
    pub prefill_bits_per_s: u64,
    /// Enough client threads to saturate the delivery tier, several per
    /// link, instead of `nproc - 1`.
    pub storm: bool,
    /// Blocks per link the traced run replays stage by stage.
    pub replay_blocks: usize,
}

impl Workload {
    /// Bits one exchange moves.
    pub fn exchange_bits(&self) -> usize {
        self.keys_per_exchange * self.key_bits
    }

    /// `true` when intake follows fixed arrival schedules.
    pub fn paced(&self) -> bool {
        self.links.iter().all(|l| l.pace.is_some())
    }

    /// Distinct block sizes, ascending.
    pub fn block_sizes(&self) -> Vec<usize> {
        let mut sizes: Vec<usize> = self.links.iter().map(|l| l.block_bits).collect();
        sizes.sort_unstable();
        sizes.dedup();
        sizes
    }

    /// The link specs for `seed`: every link gets its own derived seed and
    /// the enlarged authentication pool.
    pub fn specs(&self, seed: u64) -> Vec<LinkSpec> {
        self.links
            .iter()
            .enumerate()
            .map(|(l, plan)| {
                let link_seed = block_seed(seed, "qkd-e2e/link", l as u64);
                let mut spec = LinkSpec::new(plan.label, plan.qber, plan.block_bits, link_seed)
                    .with_weight(plan.weight);
                spec.auth_pool_bits = AUTH_POOL_BITS;
                spec
            })
            .collect()
    }
}

fn closed(label: &'static str, qber: f64, block_bits: usize, epoch_blocks: usize) -> LinkPlan {
    LinkPlan {
        label,
        qber,
        block_bits,
        weight: 1.0,
        epoch_blocks,
        pace: None,
    }
}

fn paced(
    label: &'static str,
    qber: f64,
    block_bits: usize,
    epoch_blocks: usize,
    period_ms: u64,
    phase_ms: u64,
) -> LinkPlan {
    LinkPlan {
        pace: Some(Pace {
            period: Duration::from_millis(period_ms),
            phase: Duration::from_millis(phase_ms),
        }),
        ..closed(label, qber, block_bits, epoch_blocks)
    }
}

/// The workloads, in the order `BENCHMARK.json` lists them. PEG code
/// construction costs ~5 s at 4 096 bits and ~23 s at 8 192 bits per
/// process, quasi-cyclic construction at 16 384 bits ~0.03 s, so only those
/// two block sizes appear.
pub fn workloads() -> Vec<Workload> {
    vec![
        Workload {
            name: "metro-bulk",
            why: "2 links of 16384-bit blocks at 1% QBER, saturated: verification and privacy amplification (both Toeplitz) are ~97% of block time, LDPC under 4%: a Toeplitz change shows here, an LDPC change must not",
            links: vec![
                closed("metro-a", 0.01, 16_384, 2),
                closed("metro-b", 0.01, 16_384, 2),
            ],
            closed_epochs: 2,
            keys_per_exchange: 4,
            key_bits: 1024,
            prefill_bits_per_s: 0,
            storm: false,
            replay_blocks: 8,
        },
        Workload {
            name: "backbone-small",
            why: "4 links of 4096-bit blocks at 2.5% QBER, saturated: LDPC is a third of block time (as is verification), per-block overheads and one journal frame per block at ~1500 blocks/s peak, ~1% of blocks abort",
            links: vec![
                closed("backbone-a", 0.025, 4096, 8),
                closed("backbone-b", 0.025, 4096, 8),
                closed("backbone-c", 0.025, 4096, 8),
                closed("backbone-d", 0.025, 4096, 8),
            ],
            closed_epochs: 2,
            keys_per_exchange: 4,
            key_bits: 256,
            prefill_bits_per_s: 0,
            storm: false,
            replay_blocks: 64,
        },
        Workload {
            name: "sae-storm",
            why: "pre-filled store, trickle of distillation, 8 clients per core redeeming 32-bit keys back to back: the delivery tier (HTTP, JSON, registry, store lock, 2 journal frames per exchange) is saturated",
            links: vec![
                paced("storm-a", 0.01, 4096, 4, 100, 0),
                paced("storm-b", 0.01, 4096, 4, 100, 50),
            ],
            closed_epochs: 0,
            keys_per_exchange: 1,
            key_bits: 32,
            prefill_bits_per_s: 600_000,
            storm: true,
            replay_blocks: 64,
        },
        Workload {
            name: "fleet-paced",
            why: "4 links on fixed schedules, run() busy ~40% of the time, 5 ms and 45 ms batches sharing the WFQ pool: throughput is supply-bound, so a faster stage shows as epoch latency and not as rate",
            links: vec![
                LinkPlan {
                    weight: 2.0,
                    ..paced("premium-metro", 0.01, 4096, 4, 100, 0)
                },
                paced("metro", 0.01, 4096, 4, 100, 50),
                // The long batches come due together with a short one, so
                // that more than half of all epochs end with a 16384-bit
                // block and the median sits inside that group. Staggered
                // (phases 25/150) it sat on the two epochs per 500 ms that
                // wait for the rest of a long batch, and moved 20 % for a
                // 10 % change in block time.
                paced("backbone", 0.025, 16_384, 1, 250, 0),
                paced("long-haul", 0.045, 16_384, 1, 250, 150),
            ],
            closed_epochs: 0,
            keys_per_exchange: 4,
            key_bits: 256,
            prefill_bits_per_s: 0,
            storm: false,
            replay_blocks: 8,
        },
    ]
}

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    workloads().into_iter().find(|w| w.name == name)
}

/// Generates one link's ring of epochs from its seed. Every sifted bit pair
/// from [`CorrelatedKeySource`] becomes a bases-matched detection, and an
/// equal number of basis-mismatched detections (random bits) is interleaved,
/// so `sift` discards half the events as it does in BB84 and an epoch still
/// frames into exactly `epoch_blocks` blocks.
pub fn generate_ring(plan: &LinkPlan, link_seed: u64) -> Vec<Vec<DetectionEvent>> {
    let mut source = CorrelatedKeySource::new(plan.block_bits, plan.qber, link_seed)
        .expect("workload plans carry valid block sizes and QBERs");
    let mut rng = derive_rng(link_seed, "qkd-e2e/mismatched");
    let mut pulse = 0u64;
    (0..RING_EPOCHS)
        .map(|_| {
            let mut alice = BitVec::new();
            let mut bob = BitVec::new();
            for _ in 0..plan.epoch_blocks {
                let block = source.next_block();
                alice.extend_from(&block.alice);
                bob.extend_from(&block.bob);
            }
            let mut events = Vec::with_capacity(alice.len() * 2);
            for matched in detection_events(&alice, &bob) {
                let alice_basis = Basis::from_bit(rng.gen::<bool>());
                for event in [
                    matched,
                    DetectionEvent {
                        alice_basis,
                        bob_basis: alice_basis.conjugate(),
                        alice_bit: BitValue::from_bool(rng.gen::<bool>()),
                        bob_bit: BitValue::from_bool(rng.gen::<bool>()),
                        pulse_class: PulseClass::Signal,
                        ..matched
                    },
                ] {
                    events.push(DetectionEvent {
                        pulse_index: pulse,
                        ..event
                    });
                    pulse += 1;
                }
            }
            events
        })
        .collect()
}

/// Walks one link's open-loop schedule.
#[derive(Debug, Clone)]
pub struct Pacer {
    pace: Pace,
    next: u32,
}

impl Pacer {
    pub fn new(pace: Pace) -> Self {
        Self { pace, next: 0 }
    }

    /// When the next unsubmitted epoch is due, from the start of the load
    /// phase.
    pub fn next_due(&self) -> Duration {
        self.pace.phase + self.pace.period * self.next
    }

    /// Takes the next epoch if it is due at `now`, returning its due time.
    /// Epochs are never skipped: after a stall every missed epoch is still
    /// handed out, each timed from when it should have been sent.
    pub fn pop_due(&mut self, now: Duration) -> Option<Duration> {
        let due = self.next_due();
        (due <= now).then(|| {
            self.next += 1;
            due
        })
    }

    /// Epochs due at `now` that have not been taken.
    pub fn overdue(&self, now: Duration) -> u64 {
        let due = self.next_due();
        if due > now {
            0
        } else {
            ((now - due).as_nanos() / self.pace.period.as_nanos()) as u64 + 1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qkd_sifting::{sift, SiftingConfig};

    #[test]
    fn open_loop_schedule_never_skips_and_accounts_lateness() {
        let ms = Duration::from_millis;
        let mut pacer = Pacer::new(Pace {
            period: ms(100),
            phase: ms(50),
        });
        assert_eq!(pacer.pop_due(ms(49)), None);
        assert_eq!(pacer.overdue(ms(49)), 0);
        assert_eq!(pacer.pop_due(ms(50)), Some(ms(50)));
        assert_eq!(pacer.next_due(), ms(150));
        // A 330 ms stall: three epochs came due meanwhile (150, 250, 350).
        let now = ms(380);
        assert_eq!(pacer.overdue(now), 3);
        let mut lateness = Vec::new();
        while let Some(due) = pacer.pop_due(now) {
            lateness.push(now - due);
        }
        assert_eq!(lateness, vec![ms(230), ms(130), ms(30)]);
        assert_eq!(pacer.overdue(now), 0);
        assert_eq!(pacer.next_due(), ms(450));
    }

    #[test]
    fn rings_repeat_for_a_seed_and_sift_to_whole_blocks() {
        let workload = by_name("backbone-small").unwrap();
        let plan = &workload.links[0];
        let ring = generate_ring(plan, 7);
        assert_eq!(ring.len(), RING_EPOCHS);
        assert_eq!(ring, generate_ring(plan, 7));
        assert_ne!(ring, generate_ring(plan, 8));
        let sifted = sift(&ring[0], &SiftingConfig::default());
        assert_eq!(sifted.len(), plan.epoch_blocks * plan.block_bits);
        assert_eq!(sifted.discarded_basis_mismatch, sifted.len());
        let qber = sifted.true_qber();
        assert!((qber - plan.qber).abs() < 0.005, "ring QBER {qber}");
    }

    #[test]
    fn workloads_are_named_once_and_specs_follow_the_seed() {
        let all = workloads();
        let mut names: Vec<_> = all.iter().map(|w| w.name).collect();
        names.dedup();
        assert_eq!(
            names,
            ["metro-bulk", "backbone-small", "sae-storm", "fleet-paced"]
        );
        for workload in &all {
            assert!(workload
                .block_sizes()
                .iter()
                .all(|b| [4096, 16_384].contains(b)));
            assert_eq!(workload.paced(), workload.closed_epochs == 0);
            let specs = workload.specs(1);
            assert_eq!(specs, workload.specs(1));
            assert_ne!(specs[0].seed, workload.specs(2)[0].seed);
            assert_ne!(specs[0].seed, specs[1].seed);
            assert!(specs.iter().all(|s| s.validate().is_ok()));
        }
        assert!(by_name("nope").is_none());
    }
}
