//! The [`LinkManager`]: many post-processing sessions sharing one bounded
//! worker pool.
//!
//! Each managed link owns a full [`PostProcessor`] plus the
//! [`CorrelatedKeySource`] that models its sifted-bit stream. Raw key arrives
//! in *epochs* ([`LinkManager::submit_epoch`]); each accepted epoch becomes
//! one batch on the link's queue, subject to a per-link backlog cap
//! (admission control). [`LinkManager::run`] drains the queued batches over a
//! shared pool of worker threads in weighted-fair order: service shares
//! track link weights under backlog, starvation-free by construction.
//!
//! On top of queueing the manager keeps **cost-model-driven placement** as
//! accounting over measured time: every distilled block's host-measured
//! stage times feed a shared [`CostCalibrator`], and once the fit is warm
//! each batch is labelled with the split [`decide_placement`] predicts
//! cheapest — whole-link on a simulated accelerator, decode-only offload, or
//! host CPU. The engine runs the same code on the host either way; the
//! decision only sets what [`StageMetrics::modeled_time`] records next to
//! the measured [`StageMetrics::host_time`].
//!
//! **The unit of parallelism is the link batch.** [`FleetConfig::workers`] is
//! the one bound on distillation threads: each worker serves one batch of one
//! link at a time on its own reconciliation scratch (width 1 of
//! [`PostProcessor::process_detections_with_scratch`]), so the fleet uses
//! several cores by serving several links, never by fanning one batch out.
//!
//! **Determinism invariant.** A link's batches are processed in submission
//! order by exactly one worker at a time, and every engine draws only from
//! per-block RNG streams derived from the link seed — so a link distilled
//! inside a fleet produces *bit-identical* keys to the same spec replayed on
//! a solo [`PostProcessor`] ([`crate::LinkSpec::solo_processor`]), no matter
//! how many workers or neighbour links the fleet has or in which order the
//! scheduler served them.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use qkd_core::{BlockResult, PostProcessor, ReconcilerScratch, SessionSummary};
use qkd_hetero::{
    decide_placement, CostCalibrator, KernelKind, LinkPlacement, StageMetrics, ThroughputReport,
};
use qkd_simulator::{detection_events, CorrelatedKeySource};
use qkd_types::frame::StageLabel;
use qkd_types::{BitVec, DetectionEvent, QkdError, Result};

use crate::report::{FleetLedger, FleetReport, LinkLedger, LinkReport};
use crate::sched::ReadyQueue;
use crate::spec::{Admission, AdmissionPolicy, FleetConfig, LinkSpec};
use crate::store::{KeyStore, RecoveredBudget};

/// Registry handles for one link's fleet-level telemetry, labelled
/// `{fleet="fleet<N>", link="<id>"}` so concurrent fleets in one process
/// (tests, multi-tenant servers) stay distinguishable on the shared registry.
struct LinkObs {
    processed: qkd_obs::Counter,
    rejected: qkd_obs::Counter,
    abandoned: qkd_obs::Counter,
    dropped: qkd_obs::Counter,
    backlog: qkd_obs::Gauge,
    quarantines: qkd_obs::Counter,
}

impl LinkObs {
    fn new(fleet: &str, link: usize) -> Self {
        let link_label = link.to_string();
        let labels: [(&'static str, &str); 2] = [("fleet", fleet), ("link", link_label.as_str())];
        let obs = qkd_obs::registry();
        let batches = |outcome: &str| {
            let mut with_outcome = labels.to_vec();
            with_outcome.push(("outcome", outcome));
            obs.counter("qkd_fleet_batches_total", &with_outcome)
        };
        LinkObs {
            processed: batches("processed"),
            rejected: batches("rejected"),
            abandoned: batches("abandoned"),
            dropped: batches("dropped"),
            backlog: obs.gauge("qkd_fleet_backlog_batches", &labels),
            quarantines: obs.counter("qkd_fleet_link_quarantines_total", &labels),
        }
    }
}

/// Registry handles for the fleet's scheduler telemetry, labelled with the
/// fleet instance. Per-backend batch counters are created on demand (their
/// label set depends on what placement decides).
struct SchedObs {
    fleet: String,
    vtime_lag: qkd_obs::Gauge,
    placement_changes: qkd_obs::Counter,
}

impl SchedObs {
    fn new(fleet: &str) -> Self {
        let labels: [(&'static str, &str); 1] = [("fleet", fleet)];
        let obs = qkd_obs::registry();
        SchedObs {
            fleet: fleet.to_string(),
            vtime_lag: obs.gauge("qkd_sched_vtime_lag_seconds", &labels),
            placement_changes: obs.counter("qkd_sched_placement_changes_total", &labels),
        }
    }

    /// Counts one dispatched batch against the backend placement it ran
    /// under.
    fn batch(&self, placement: &str) {
        qkd_obs::registry()
            .counter(
                "qkd_sched_batches_total",
                &[("fleet", self.fleet.as_str()), ("backend", placement)],
            )
            .inc();
    }
}

/// Mutable per-link state; locked by at most one worker at a time (a link is
/// never in the ready queue twice).
struct LinkCell {
    processor: PostProcessor,
    source: CorrelatedKeySource,
    pending: VecDeque<Vec<DetectionEvent>>,
    throughput: ThroughputReport,
    busy: Duration,
    batches_processed: u64,
    batches_rejected: u64,
    batches_abandoned: u64,
    batches_dropped: u64,
    failed: Option<QkdError>,
    /// Where the scheduler last placed this link's offloadable kernels.
    placement: LinkPlacement,
    obs: LinkObs,
}

impl LinkCell {
    /// Applies admission control for one incoming batch: `Err` carries the
    /// rejection to hand back to the caller, `Ok(dropped)` admits the batch
    /// after shedding `dropped` queued batches (only ever non-zero under
    /// [`AdmissionPolicy::DropOldest`]).
    fn admit(
        &mut self,
        max_backlog: usize,
        policy: AdmissionPolicy,
    ) -> std::result::Result<u64, Admission> {
        if self.failed.is_some() {
            self.batches_rejected += 1;
            self.obs.rejected.inc();
            return Err(Admission::RejectedFailed);
        }
        if self.pending.len() < max_backlog {
            return Ok(0);
        }
        match policy {
            AdmissionPolicy::Reject => {
                self.batches_rejected += 1;
                self.obs.rejected.inc();
                Err(Admission::RejectedBacklog {
                    backlog: self.pending.len(),
                    limit: max_backlog,
                })
            }
            AdmissionPolicy::DropOldest => {
                let mut dropped = 0u64;
                while self.pending.len() >= max_backlog {
                    self.pending.pop_front();
                    dropped += 1;
                }
                self.batches_dropped += dropped;
                self.obs.dropped.add(dropped);
                Ok(dropped)
            }
        }
    }

    /// The admission outcome for a batch admitted after `dropped` sheds.
    fn admitted(&self, dropped: u64) -> Admission {
        if dropped > 0 {
            Admission::AcceptedAfterDrop {
                backlog: self.pending.len(),
                dropped,
            }
        } else {
            Admission::Accepted {
                backlog: self.pending.len(),
            }
        }
    }
}

/// One managed link: its immutable spec plus the lock-guarded runtime state.
struct LinkRuntime {
    spec: LinkSpec,
    cell: Mutex<LinkCell>,
}

/// Folds one distilled block into a link's stage-level throughput report
/// and into the shared calibrator. Every stage handles the full block on the
/// way in; privacy amplification compresses it to the secret length, which
/// authentication then carries out. `host_time` is what the engine measured;
/// `modeled_time` is what the stage would have cost under `placement`,
/// priced before this block's own measurement moves the fit.
fn record_block(
    report: &mut ThroughputReport,
    calibrator: &mut CostCalibrator,
    placement: LinkPlacement,
    result: &BlockResult,
    block_bits: usize,
) {
    let secret = result.secret_key.bits.len();
    for (label, host) in &result.stage_times {
        let (bits_in, bits_out) = match label {
            StageLabel::PrivacyAmplification => (block_bits, secret),
            StageLabel::Authentication => (secret, secret),
            _ => (block_bits, block_bits),
        };
        let kind = qkd_hetero::kernel_for_stage(label.name());
        let modeled = kind.map_or(*host, |kind| {
            qkd_hetero::modeled_time(calibrator, placement, kind, block_bits, *host)
        });
        let mut metrics = StageMetrics::default();
        metrics.record(modeled, *host, bits_in, bits_out);
        if let Some(kind) = kind {
            calibrator.observe(kind, &metrics);
        }
        report.record_stage(label.name(), metrics);
    }
    report.items += 1;
    report.input_bits += block_bits as u64;
    report.output_bits += secret as u64;
}

/// A fleet of QKD links multiplexed over one bounded worker pool, depositing
/// distilled key into a shared [`KeyStore`] (see the module docs).
pub struct LinkManager {
    config: FleetConfig,
    links: Vec<LinkRuntime>,
    store: Arc<KeyStore>,
    /// SAE budgets restored by [`LinkManager::open_durable`], for the
    /// delivery tier to seed its registry with. Empty for in-memory fleets.
    recovered_budgets: Vec<RecoveredBudget>,
    last_wall: Duration,
    /// Telemetry instance label (`fleet0`, `fleet1`, …) distinguishing this
    /// fleet's metric series from other fleets in the same process.
    fleet: String,
    /// Online fit of the static device cost models against this fleet's own
    /// measured stage times; shared by every worker and consulted per batch
    /// for placement.
    calibrator: Mutex<CostCalibrator>,
    sched_obs: SchedObs,
    /// One LDPC reconciliation scratch per pool worker, lent out for the
    /// length of a [`LinkManager::run`]: decode buffers are sized once per
    /// fleet, not once per run.
    scratches: Vec<ReconcilerScratch>,
}

impl std::fmt::Debug for LinkManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LinkManager")
            .field("links", &self.links.len())
            .field("workers", &self.config.workers)
            .field("max_backlog", &self.config.max_backlog)
            .finish()
    }
}

impl LinkManager {
    /// Creates an empty fleet.
    ///
    /// # Errors
    ///
    /// Returns [`QkdError::InvalidParameter`] when the config is invalid.
    pub fn new(config: FleetConfig) -> Result<Self> {
        config.validate()?;
        let fleet = qkd_obs::next_instance("fleet");
        let sched_obs = SchedObs::new(&fleet);
        let scratches = vec![ReconcilerScratch::new(); config.workers];
        Ok(Self {
            config,
            links: Vec::new(),
            store: Arc::new(KeyStore::default()),
            recovered_budgets: Vec::new(),
            last_wall: Duration::ZERO,
            fleet,
            calibrator: Mutex::new(CostCalibrator::new()),
            sched_obs,
            scratches,
        })
    }

    /// Creates a fleet whose key store is **durable**: backed by the
    /// write-ahead journal at `dir` (created empty if absent). Whatever a
    /// previous process journaled there — deposited pools, parked
    /// reservations, TTL deadlines, delivery serials, SAE budgets — is
    /// replayed into the store before the fleet starts, and every store
    /// mutation from here on is made durable before it is acknowledged.
    ///
    /// Links added with [`LinkManager::add_link`] reuse the recovered
    /// per-link state: link ids are dense from 0 in both lives, so a fleet
    /// reopened with the same specs continues each link's pool and serial
    /// stream where the last process left them.
    ///
    /// # Errors
    ///
    /// Returns [`QkdError::InvalidParameter`] when the config is invalid,
    /// or [`QkdError::JournalError`] when the journal cannot be read,
    /// replayed or reopened for appending.
    pub fn open_durable(config: FleetConfig, dir: impl AsRef<std::path::Path>) -> Result<Self> {
        Self::open_durable_with(config, dir, qkd_journal::JournalConfig::default())
    }

    /// [`LinkManager::open_durable`] with explicit journal tuning (segment
    /// size, fsync policy).
    ///
    /// # Errors
    ///
    /// As [`LinkManager::open_durable`].
    pub fn open_durable_with(
        config: FleetConfig,
        dir: impl AsRef<std::path::Path>,
        journal_config: qkd_journal::JournalConfig,
    ) -> Result<Self> {
        config.validate()?;
        let (store, recovered_budgets) = KeyStore::open_durable(dir, journal_config)?;
        let fleet = qkd_obs::next_instance("fleet");
        let sched_obs = SchedObs::new(&fleet);
        let scratches = vec![ReconcilerScratch::new(); config.workers];
        Ok(Self {
            config,
            links: Vec::new(),
            store: Arc::new(store),
            recovered_budgets,
            last_wall: Duration::ZERO,
            fleet,
            calibrator: Mutex::new(CostCalibrator::new()),
            sched_obs,
            scratches,
        })
    }

    /// SAE budgets restored from the journal (empty for in-memory fleets).
    /// The delivery tier seeds its registry with these so consumers cannot
    /// reset their rate limits by crashing the manager.
    pub fn recovered_budgets(&self) -> &[RecoveredBudget] {
        &self.recovered_budgets
    }

    /// Adds a link to the fleet, returning its id (dense, starting at 0).
    ///
    /// # Errors
    ///
    /// Returns [`QkdError::InvalidParameter`] when the spec is invalid (the
    /// engine construction surfaces LDPC code failures here too).
    pub fn add_link(&mut self, spec: LinkSpec) -> Result<usize> {
        spec.validate()?;
        let processor = spec.solo_processor()?;
        let source = spec.key_source()?;
        let link = self.links.len();
        self.store.register(link)?;
        self.links.push(LinkRuntime {
            spec,
            cell: Mutex::new(LinkCell {
                processor,
                source,
                pending: VecDeque::new(),
                throughput: ThroughputReport::default(),
                busy: Duration::ZERO,
                batches_processed: 0,
                batches_rejected: 0,
                batches_abandoned: 0,
                batches_dropped: 0,
                failed: None,
                placement: LinkPlacement::Cpu,
                obs: LinkObs::new(&self.fleet, link),
            }),
        });
        Ok(link)
    }

    /// Number of links in the fleet.
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// The fleet configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// The shared key store consumers drain via
    /// [`KeyStore::status`] / [`KeyStore::get_key`].
    pub fn store(&self) -> &KeyStore {
        &self.store
    }

    /// An owning handle to the key store, for consumers that outlive the
    /// borrow — e.g. a networked delivery front-end serving requests from
    /// its own threads while the fleet keeps depositing.
    pub fn store_handle(&self) -> Arc<KeyStore> {
        Arc::clone(&self.store)
    }

    fn runtime(&self, link: usize) -> Result<&LinkRuntime> {
        self.links
            .get(link)
            .ok_or_else(|| QkdError::invalid_parameter("link", format!("unknown link {link}")))
    }

    /// The spec a link was added with.
    ///
    /// # Errors
    ///
    /// Returns [`QkdError::InvalidParameter`] for an unknown link.
    pub fn spec(&self, link: usize) -> Result<&LinkSpec> {
        Ok(&self.runtime(link)?.spec)
    }

    /// Snapshot of a link's session summary.
    ///
    /// # Errors
    ///
    /// Returns [`QkdError::InvalidParameter`] for an unknown link.
    pub fn summary(&self, link: usize) -> Result<SessionSummary> {
        Ok(*self.runtime(link)?.cell.lock().processor.summary())
    }

    /// Batches currently queued on a link.
    ///
    /// # Errors
    ///
    /// Returns [`QkdError::InvalidParameter`] for an unknown link.
    pub fn backlog(&self, link: usize) -> Result<usize> {
        Ok(self.runtime(link)?.cell.lock().pending.len())
    }

    /// The fatal error that stopped a link, if any.
    ///
    /// # Errors
    ///
    /// Returns [`QkdError::InvalidParameter`] for an unknown link.
    pub fn link_failure(&self, link: usize) -> Result<Option<QkdError>> {
        Ok(self.runtime(link)?.cell.lock().failed.clone())
    }

    /// Submits one epoch of `blocks` full sifted blocks to a link, drawing
    /// the bits from the link's own key source.
    ///
    /// Admission control runs *before* any bits are generated: a rejected
    /// epoch does not advance the link's key stream, so a later accepted
    /// submission sees exactly the bits this one would have. Zero-block
    /// epochs (idle links) are accepted as no-ops.
    ///
    /// # Errors
    ///
    /// Returns [`QkdError::InvalidParameter`] for an unknown link. Backlog
    /// overflow and dead links are reported through [`Admission`], not as
    /// errors.
    pub fn submit_epoch(&mut self, link: usize, blocks: usize) -> Result<Admission> {
        let (max_backlog, policy) = (self.config.max_backlog, self.config.admission);
        let runtime = self.runtime(link)?;
        let mut cell = runtime.cell.lock();
        // An idle epoch is a no-op everywhere — even on a failed link there
        // is no batch to reject (or to count as rejected).
        if blocks == 0 {
            return Ok(Admission::Accepted {
                backlog: cell.pending.len(),
            });
        }
        let dropped = match cell.admit(max_backlog, policy) {
            Ok(dropped) => dropped,
            Err(admission) => return Ok(admission),
        };
        let mut alice = BitVec::new();
        let mut bob = BitVec::new();
        for _ in 0..blocks {
            let blk = cell.source.next_block();
            alice.extend_from(&blk.alice);
            bob.extend_from(&blk.bob);
        }
        let events = detection_events(&alice, &bob);
        cell.pending.push_back(events);
        cell.obs.backlog.set(cell.pending.len() as f64);
        Ok(cell.admitted(dropped))
    }

    /// Submits a pre-built detection batch to a link (for callers feeding
    /// events from a real link simulator instead of the correlated source).
    /// Same admission rules as [`LinkManager::submit_epoch`].
    ///
    /// # Errors
    ///
    /// Returns [`QkdError::InvalidParameter`] for an unknown link.
    pub fn submit_events(&mut self, link: usize, events: Vec<DetectionEvent>) -> Result<Admission> {
        let (max_backlog, policy) = (self.config.max_backlog, self.config.admission);
        let runtime = self.runtime(link)?;
        let mut cell = runtime.cell.lock();
        let dropped = match cell.admit(max_backlog, policy) {
            Ok(dropped) => dropped,
            Err(admission) => return Ok(admission),
        };
        cell.pending.push_back(events);
        cell.obs.backlog.set(cell.pending.len() as f64);
        Ok(cell.admitted(dropped))
    }

    /// Drains queued batches over the shared worker pool and returns the
    /// cumulative fleet report.
    ///
    /// Dispatch is weighted fair queueing: the ready link with the lowest
    /// weighted virtual time is served next, so service shares track link
    /// weights under backlog. Under a [`FleetConfig::batch_budget`] the drain
    /// stops after that many dispatches, leaving the rest queued for the
    /// next run. A link whose batch fails fatally (e.g. authentication key
    /// exhaustion) is stopped: its remaining backlog is abandoned and it
    /// rejects further submissions, while every other link keeps running.
    ///
    /// # Errors
    ///
    /// Returns [`QkdError::PipelineStalled`] when a worker thread panics.
    /// Per-link failures are recorded in the report, not returned.
    pub fn run(&mut self) -> Result<FleetReport> {
        let weights = self.links.iter().map(|r| r.spec.weight).collect();
        let queue = ReadyQueue::new(self.config.batch_budget, weights);
        for (link, runtime) in self.links.iter().enumerate() {
            let cell = runtime.cell.lock();
            if cell.failed.is_none() {
                queue.seed(link, cell.pending.len());
            }
        }
        let wall_start = Instant::now();
        if queue.outstanding() > 0 {
            let mut scratches = std::mem::take(&mut self.scratches);
            let this: &LinkManager = self;
            let queue = &queue;
            let joined = crossbeam::thread::scope(|s| {
                for scratch in &mut scratches {
                    s.spawn(move |_| this.worker(queue, scratch));
                }
            });
            self.scratches = scratches;
            joined.map_err(|_| QkdError::PipelineStalled {
                stage: "fleet-worker",
            })?;
        }
        self.last_wall = wall_start.elapsed();
        self.sched_obs.vtime_lag.set(queue.vtime_lag());
        Ok(self.report())
    }

    /// Where a link's offloadable kernels would be cheapest for its next
    /// batch. The decision defers to the calibrated models only once the
    /// calibrator has seen enough host decodes to fit its scale; until then
    /// every batch is accounted on the host (warm-up).
    fn placement_for(&self, block_bits: usize) -> LinkPlacement {
        let cal = self.calibrator.lock();
        if cal.samples(KernelKind::LdpcDecode) < CostCalibrator::MIN_SAMPLES {
            LinkPlacement::Cpu
        } else {
            decide_placement(&cal, block_bits)
        }
    }

    /// One worker of the shared pool: repeatedly claims the scheduled link
    /// and processes exactly one of its batches. Each worker borrows one of
    /// the fleet's long-lived LDPC reconciliation scratches and carries it
    /// across every link it services — per-block decode setup is paid once
    /// per worker, not once per block, link or `run()`.
    fn worker(&self, queue: &ReadyQueue, scratch: &mut ReconcilerScratch) {
        while let Some(link) = queue.next() {
            let (service_secs, completed, requeue) = {
                let mut cell = self.links[link].cell.lock();
                let spec = &self.links[link].spec;
                let events = cell
                    .pending
                    .pop_front()
                    .expect("a ready link has a queued batch");

                // Placement: decided per batch; it prices this batch's
                // modeled time below and never reaches the engine.
                let placement = self.placement_for(spec.block_bits);
                if placement != cell.placement {
                    cell.placement = placement;
                    self.sched_obs.placement_changes.inc();
                }
                self.sched_obs.batch(&placement.label());

                let batch_start = Instant::now();
                let outcome = cell
                    .processor
                    .process_detections_with_scratch(&events, std::slice::from_mut(scratch));
                let elapsed = batch_start.elapsed();
                cell.busy += elapsed;
                cell.batches_processed += 1;
                cell.obs.processed.inc();
                let mut completed = 1usize;
                // A batch fails the link either in the engine (decode abort)
                // or at the store door (the journal refused to make a
                // deposit durable — key the log cannot capture must not
                // accumulate). Both quarantine the link, not the fleet.
                let failure = match outcome {
                    Ok(results) => {
                        let mut failure = None;
                        let mut deposited = 0usize;
                        for result in &results {
                            match self.store.deposit(link, &result.secret_key) {
                                Ok(()) => deposited += 1,
                                Err(e) => {
                                    failure = Some(e);
                                    break;
                                }
                            }
                        }
                        if deposited > 0 {
                            let mut cal = self.calibrator.lock();
                            for result in results.iter().take(deposited) {
                                record_block(
                                    &mut cell.throughput,
                                    &mut cal,
                                    placement,
                                    result,
                                    spec.block_bits,
                                );
                            }
                        }
                        failure
                    }
                    Err(e) => Some(e),
                };
                if let Some(e) = failure {
                    // Fatal for the link, not the fleet: drop its backlog
                    // and stop servicing it.
                    let dropped = cell.pending.len();
                    cell.pending.clear();
                    cell.batches_abandoned += dropped as u64;
                    cell.obs.abandoned.add(dropped as u64);
                    cell.obs.quarantines.inc();
                    qkd_obs::event!(Warn, "manager", "link {link} quarantined: {e}");
                    cell.failed = Some(e);
                    completed += dropped;
                }
                cell.obs.backlog.set(cell.pending.len() as f64);
                let requeue = cell.failed.is_none() && !cell.pending.is_empty();
                (elapsed.as_secs_f64(), completed, requeue)
            };
            queue.complete(link, service_secs, completed, requeue);
        }
    }

    /// Builds the cumulative fleet report from the current link states.
    /// [`LinkManager::run`] returns this; calling it between runs gives a
    /// consistent snapshot (with the previous run's wall time).
    pub fn report(&self) -> FleetReport {
        let mut links = Vec::with_capacity(self.links.len());
        let mut summary = SessionSummary::default();
        let mut throughput = ThroughputReport::default();
        for (link, runtime) in self.links.iter().enumerate() {
            let cell = runtime.cell.lock();
            let mut link_throughput = cell.throughput.clone();
            link_throughput.makespan = cell.busy;
            let link_summary = *cell.processor.summary();
            summary.merge(&link_summary);
            throughput.merge(&link_throughput);
            links.push(LinkReport {
                link,
                label: runtime.spec.label.clone(),
                qber: runtime.spec.qber,
                block_bits: runtime.spec.block_bits,
                summary: link_summary,
                throughput: link_throughput,
                batches_processed: cell.batches_processed,
                batches_rejected: cell.batches_rejected,
                batches_abandoned: cell.batches_abandoned,
                batches_dropped: cell.batches_dropped,
                busy: cell.busy,
                weight: runtime.spec.weight,
                placement: cell.placement.label(),
                failure: cell.failed.as_ref().map(|e| e.to_string()),
            });
        }
        // Shared-pool wall time, not the max of per-link busy times.
        throughput.makespan = self.last_wall;
        FleetReport {
            links,
            summary,
            throughput,
            wall_time: self.last_wall,
            workers: self.config.workers,
        }
    }

    /// Reconciles the key store against every link's session ledger: each
    /// healthy link's deposits must equal its engine's `secret_bits_out`
    /// exactly, a failed link may only fall short (the engine discards the
    /// results of a fatally-aborted batch after charging them), and within
    /// the store `deposited = delivered + available` must hold per link.
    ///
    /// # Errors
    ///
    /// Returns [`QkdError::InvalidParameter`] describing the first imbalance
    /// found.
    pub fn reconcile(&self) -> Result<FleetLedger> {
        let mut rows = Vec::with_capacity(self.links.len());
        for (link, runtime) in self.links.iter().enumerate() {
            let cell = runtime.cell.lock();
            let status = self.store.status(link)?;
            if !status.balances() {
                return Err(QkdError::invalid_parameter(
                    "key_store",
                    format!(
                        "link {link} store out of balance: {} deposited != {} delivered + {} available",
                        status.deposited_bits, status.delivered_bits, status.available_bits
                    ),
                ));
            }
            let secret_bits_out = cell.processor.summary().secret_bits_out;
            let healthy = cell.failed.is_none();
            // A recovered store carries deposits from the previous life;
            // this run's engines only account for their own, so compare
            // against the delta above the replayed baseline.
            let recovered = self.store.recovered_bits(link);
            let deposited_this_run = status.deposited_bits.saturating_sub(recovered);
            if healthy && deposited_this_run != secret_bits_out {
                return Err(QkdError::invalid_parameter(
                    "key_store",
                    format!(
                        "link {link} deposited {} bits this run ({} total, {} recovered) but its session distilled {}",
                        deposited_this_run, status.deposited_bits, recovered, secret_bits_out
                    ),
                ));
            }
            if !healthy && deposited_this_run > secret_bits_out {
                return Err(QkdError::invalid_parameter(
                    "key_store",
                    format!(
                        "failed link {link} deposited {} bits this run, more than its session's {}",
                        deposited_this_run, secret_bits_out
                    ),
                ));
            }
            rows.push(LinkLedger {
                link,
                secret_bits_out,
                deposited_bits: status.deposited_bits,
                delivered_bits: status.delivered_bits,
                available_bits: status.available_bits,
            });
        }
        Ok(FleetLedger { links: rows })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qkd_simulator::WorkloadPreset;

    fn manager(workers: usize, max_backlog: usize) -> LinkManager {
        LinkManager::new(
            FleetConfig::default()
                .with_workers(workers)
                .with_max_backlog(max_backlog)
                .with_admission(AdmissionPolicy::Reject),
        )
        .unwrap()
    }

    #[test]
    fn fleet_link_matches_solo_engine_bit_for_bit() {
        let mut mgr = manager(2, 8);
        let spec_a = LinkSpec::from_preset(WorkloadPreset::Metro, 4096, 41);
        let spec_b = LinkSpec::from_preset(WorkloadPreset::Backbone, 4096, 42);
        let a = mgr.add_link(spec_a.clone()).unwrap();
        let b = mgr.add_link(spec_b.clone()).unwrap();
        let epochs = [(a, 2usize), (b, 1), (a, 1), (b, 2)];
        for &(link, blocks) in &epochs {
            assert!(mgr.submit_epoch(link, blocks).unwrap().accepted());
        }
        let report = mgr.run().unwrap();
        assert_eq!(report.links.len(), 2);
        assert!(report.summary.blocks_ok > 0);

        // Replay each link solo with the same spec and epoch sizes.
        for (link, spec, sizes) in [(a, &spec_a, vec![2, 1]), (b, &spec_b, vec![1, 2])] {
            let mut solo = spec.solo_processor().unwrap();
            let mut source = spec.key_source().unwrap();
            let mut expected = BitVec::new();
            for blocks in sizes {
                let mut alice = BitVec::new();
                let mut bob = BitVec::new();
                for _ in 0..blocks {
                    let blk = source.next_block();
                    alice.extend_from(&blk.alice);
                    bob.extend_from(&blk.bob);
                }
                for r in solo
                    .process_detections(&detection_events(&alice, &bob))
                    .unwrap()
                {
                    expected.extend_from(&r.secret_key.bits);
                }
            }
            let status = mgr.store().status(link).unwrap();
            assert_eq!(status.deposited_bits, expected.len() as u64);
            let delivered = mgr.store().get_key(link, expected.len()).unwrap();
            assert_eq!(
                delivered.bits, expected,
                "fleet and solo keys must be bit-identical"
            );
            assert_eq!(
                mgr.summary(link).unwrap().accounting(),
                solo.summary().accounting()
            );
        }
        mgr.reconcile().unwrap();
    }

    #[test]
    fn backlog_admission_control_rejects_and_preserves_the_stream() {
        let mut mgr = manager(1, 1);
        let link = mgr
            .add_link(LinkSpec::from_preset(WorkloadPreset::Metro, 4096, 7))
            .unwrap();
        assert!(mgr.submit_epoch(link, 1).unwrap().accepted());
        match mgr.submit_epoch(link, 1).unwrap() {
            Admission::RejectedBacklog { backlog, limit } => {
                assert_eq!((backlog, limit), (1, 1));
            }
            other => panic!("expected backlog rejection, got {other:?}"),
        }
        assert_eq!(mgr.backlog(link).unwrap(), 1);
        mgr.run().unwrap();
        assert_eq!(mgr.backlog(link).unwrap(), 0);
        // The rejected epoch never touched the source: the next accepted
        // epoch sees the second block of the stream, same as a solo run.
        assert!(mgr.submit_epoch(link, 1).unwrap().accepted());
        mgr.run().unwrap();
        let report = mgr.report();
        assert_eq!(report.links[0].batches_rejected, 1);
        assert_eq!(report.links[0].batches_processed, 2);
        assert_eq!(report.links[0].summary.blocks_ok, 2);

        let spec = LinkSpec::from_preset(WorkloadPreset::Metro, 4096, 7);
        let mut solo = spec.solo_processor().unwrap();
        let mut source = spec.key_source().unwrap();
        let mut expected = BitVec::new();
        for _ in 0..2 {
            let blk = source.next_block();
            for r in solo
                .process_detections(&detection_events(&blk.alice, &blk.bob))
                .unwrap()
            {
                expected.extend_from(&r.secret_key.bits);
            }
        }
        let got = mgr.store().get_key(link, expected.len()).unwrap();
        assert_eq!(got.bits, expected);
    }

    #[test]
    fn drop_oldest_policy_sheds_stale_batches_and_keeps_the_freshest() {
        let mut mgr = LinkManager::new(
            FleetConfig::default()
                .with_workers(1)
                .with_max_backlog(1)
                .with_admission(AdmissionPolicy::DropOldest),
        )
        .unwrap();
        let spec = LinkSpec::from_preset(WorkloadPreset::Metro, 4096, 31);
        let link = mgr.add_link(spec.clone()).unwrap();

        assert_eq!(
            mgr.submit_epoch(link, 1).unwrap(),
            Admission::Accepted { backlog: 1 }
        );
        for _ in 0..2 {
            assert_eq!(
                mgr.submit_epoch(link, 1).unwrap(),
                Admission::AcceptedAfterDrop {
                    backlog: 1,
                    dropped: 1
                }
            );
        }
        assert_eq!(mgr.backlog(link).unwrap(), 1);
        let report = mgr.run().unwrap();
        assert_eq!(report.links[0].batches_dropped, 2);
        assert_eq!(report.links[0].batches_rejected, 0);
        assert_eq!(report.links[0].batches_processed, 1);
        assert_eq!(report.links[0].summary.blocks_ok, 1);

        // The surviving batch is the *freshest* epoch: the third block of the
        // link's stream (the first two were generated, then shed).
        let mut solo = spec.solo_processor().unwrap();
        let mut source = spec.key_source().unwrap();
        source.next_block();
        source.next_block();
        let blk = source.next_block();
        let mut expected = BitVec::new();
        for r in solo
            .process_detections(&detection_events(&blk.alice, &blk.bob))
            .unwrap()
        {
            expected.extend_from(&r.secret_key.bits);
        }
        let got = mgr.store().get_key(link, expected.len()).unwrap();
        assert_eq!(got.bits, expected, "the freshest epoch must survive");
        mgr.reconcile().unwrap();
    }

    #[test]
    fn a_failed_link_stops_without_taking_the_fleet_down() {
        let mut mgr = manager(2, 8);
        // Tiny auth pool: exhausts after roughly one block.
        let mut bad = LinkSpec::from_preset(WorkloadPreset::Metro, 4096, 21);
        bad.auth_pool_bits = 1536;
        let bad_id = mgr.add_link(bad).unwrap();
        let good_id = mgr
            .add_link(LinkSpec::from_preset(WorkloadPreset::Metro, 4096, 22))
            .unwrap();
        for _ in 0..3 {
            mgr.submit_epoch(bad_id, 2).unwrap();
            mgr.submit_epoch(good_id, 2).unwrap();
        }
        let report = mgr.run().unwrap();
        let bad_report = &report.links[bad_id];
        assert!(bad_report.failure.is_some(), "tiny pool must exhaust");
        assert!(mgr.link_failure(bad_id).unwrap().is_some());
        // Every sifted bit the engine was handed is on its ledger: consumed
        // by an attempted block, carried, or written off behind the fatal one.
        let ledger = &bad_report.summary;
        assert_eq!(
            ledger.sifted_bits_in + ledger.carried_bits + ledger.discarded_bits,
            bad_report.batches_processed * 2 * 4096
        );
        let good_report = &report.links[good_id];
        assert!(good_report.failure.is_none());
        assert_eq!(good_report.summary.blocks_ok, 6);
        // The dead link rejects new work; the healthy one keeps going.
        assert_eq!(
            mgr.submit_epoch(bad_id, 1).unwrap(),
            Admission::RejectedFailed
        );
        // ... but an idle epoch is a no-op even on the dead link, and does
        // not inflate the rejection count.
        let rejected_before = mgr.report().links[bad_id].batches_rejected;
        assert!(mgr.submit_epoch(bad_id, 0).unwrap().accepted());
        assert_eq!(mgr.report().links[bad_id].batches_rejected, rejected_before);
        assert!(mgr.submit_epoch(good_id, 1).unwrap().accepted());
        mgr.run().unwrap();
        mgr.reconcile().unwrap();
    }

    #[test]
    fn report_aggregates_summaries_and_stage_throughput() {
        let mut mgr = manager(3, 8);
        for seed in 0..3u64 {
            let link = mgr
                .add_link(LinkSpec::from_preset(
                    WorkloadPreset::Metro,
                    4096,
                    60 + seed,
                ))
                .unwrap();
            mgr.submit_epoch(link, 2).unwrap();
        }
        let report = mgr.run().unwrap();
        assert_eq!(
            report.summary.blocks_ok,
            report
                .links
                .iter()
                .map(|l| l.summary.blocks_ok)
                .sum::<usize>()
        );
        assert_eq!(report.summary.blocks_ok, 6);
        // Stage throughput covers all five distillation stages plus sifting.
        assert!(report.throughput.stages.len() >= 5);
        assert_eq!(report.throughput.items, 6);
        assert!(report.throughput.output_bits > 0);
        assert!(report.wall_time > Duration::ZERO);
        assert!(report.aggregate_output_bps() > 0.0);
        // Equal work on identical links: fairness indices near 1.
        assert!((report.fairness_blocks() - 1.0).abs() < 1e-9);
        assert!(report.fairness_service() > 0.5);
        let table = report.to_table();
        assert!(table.contains("fleet: 3 links"));
    }

    /// Replays `sizes` epochs of a spec on a solo engine, returning the
    /// engine and the concatenated secret bits — the reference every fleet
    /// schedule must match bit for bit.
    fn replay_solo(spec: &LinkSpec, sizes: &[usize]) -> (PostProcessor, BitVec) {
        let mut solo = spec.solo_processor().unwrap();
        let mut source = spec.key_source().unwrap();
        let mut expected = BitVec::new();
        for &blocks in sizes {
            let mut alice = BitVec::new();
            let mut bob = BitVec::new();
            for _ in 0..blocks {
                let blk = source.next_block();
                alice.extend_from(&blk.alice);
                bob.extend_from(&blk.bob);
            }
            for r in solo
                .process_detections(&detection_events(&alice, &bob))
                .unwrap()
            {
                expected.extend_from(&r.secret_key.bits);
            }
        }
        (solo, expected)
    }

    #[test]
    fn wfq_gives_weighted_shares_under_budget() {
        // Two identical links contending for one worker under a 6-dispatch
        // budget: with 4:1 weights the premium link is served ~5 of 6 times.
        let mut mgr = LinkManager::new(
            FleetConfig::default()
                .with_workers(1)
                .with_max_backlog(16)
                .with_batch_budget(Some(6)),
        )
        .unwrap();
        let heavy = mgr
            .add_link(LinkSpec::from_preset(WorkloadPreset::Metro, 4096, 71).with_weight(4.0))
            .unwrap();
        let light = mgr
            .add_link(LinkSpec::from_preset(WorkloadPreset::Metro, 4096, 72))
            .unwrap();
        for _ in 0..8 {
            assert!(mgr.submit_epoch(heavy, 1).unwrap().accepted());
            assert!(mgr.submit_epoch(light, 1).unwrap().accepted());
        }
        let report = mgr.run().unwrap();
        let served_heavy = report.links[heavy].batches_processed;
        let served_light = report.links[light].batches_processed;
        assert_eq!(served_heavy + served_light, 6, "budget caps the drain");
        assert!(
            (4..=6).contains(&served_heavy),
            "heavy link served {served_heavy}, light {served_light}"
        );
        // The budget left backlog behind for the next drain.
        assert!(mgr.backlog(heavy).unwrap() + mgr.backlog(light).unwrap() > 0);
    }

    #[test]
    fn cost_model_placement_offloads_after_warmup() {
        let mut mgr =
            LinkManager::new(FleetConfig::default().with_workers(1).with_max_backlog(16)).unwrap();
        let spec = LinkSpec::from_preset(WorkloadPreset::Metro, 4096, 81);
        let link = mgr.add_link(spec.clone()).unwrap();
        let warm = 2 + CostCalibrator::MIN_SAMPLES as usize;
        for _ in 0..warm {
            assert!(mgr.submit_epoch(link, 1).unwrap().accepted());
        }
        let before = mgr.run().unwrap().links.swap_remove(link);
        // Warm-up decodes are accounted on the host; once the calibrator has
        // samples the cost model offloads the link.
        assert_ne!(before.placement, "cpu");
        assert!(before.modeled_busy() < before.host_busy());
        // Offloaded blocks keep feeding the calibrator: the engine measured
        // them on the host like any other.
        assert_eq!(
            mgr.calibrator.lock().samples(KernelKind::LdpcDecode),
            warm as u64
        );

        // One more block, against a snapshot of the fit its decision reads.
        // Which accelerator wins depends on the fitted host scales (a fast
        // host decoder shrinks the decode term and can tip the whole-link
        // sum either way), so take the device from the decision.
        let fit = mgr.calibrator.lock().clone();
        assert!(mgr.submit_epoch(link, 1).unwrap().accepted());
        let after = mgr.run().unwrap().links.swap_remove(link);
        let placement = decide_placement(&fit, spec.block_bits);
        assert_eq!(after.placement, placement.label());
        let (offloaded, device) = match placement {
            LinkPlacement::Whole(d) => (vec!["reconciliation", "privacy-amplification"], d),
            LinkPlacement::DecodeOnly(d) => (vec!["reconciliation"], d),
            LinkPlacement::Cpu => panic!("expected an accelerator placement after warm-up"),
        };
        assert_eq!(
            mgr.calibrator.lock().samples(KernelKind::LdpcDecode),
            warm as u64 + 1
        );
        let mut host_total = Duration::ZERO;
        for (stage, m) in &after.throughput.stages {
            let was = before.throughput.stages[stage];
            let host = m.host_time - was.host_time;
            let modeled = m.modeled_time - was.modeled_time;
            host_total += host;
            if offloaded.contains(&stage.as_str()) {
                // Decision and accounting use one number: the calibrated
                // prediction for the decided device.
                let kind = qkd_hetero::kernel_for_stage(stage).unwrap();
                assert_eq!(
                    modeled,
                    fit.predict(&device.cost_model(), kind, spec.block_bits),
                    "{stage}"
                );
                assert!(modeled < host, "{stage}: {modeled:?} vs {host:?}");
            } else {
                assert_eq!(modeled, host, "{stage}");
            }
        }
        // The host column is exactly what the engine measured for the block.
        assert_eq!(
            host_total,
            after.summary.processing_time - before.summary.processing_time
        );
        assert_eq!(after.host_busy(), after.summary.processing_time);

        // Placement never changes bits: the fleet still matches the solo
        // replay exactly.
        let (solo, expected) = replay_solo(&spec, &vec![1; warm + 1]);
        assert_eq!(
            mgr.store().get_key(link, expected.len()).unwrap().bits,
            expected
        );
        assert_eq!(
            mgr.summary(link).unwrap().accounting(),
            solo.summary().accounting()
        );
        mgr.reconcile().unwrap();
    }

    #[test]
    fn unknown_links_are_rejected_everywhere() {
        let mut mgr = manager(1, 1);
        assert!(mgr.submit_epoch(0, 1).is_err());
        assert!(mgr.submit_events(0, Vec::new()).is_err());
        assert!(mgr.spec(0).is_err());
        assert!(mgr.summary(0).is_err());
        assert!(mgr.backlog(0).is_err());
        assert!(mgr.link_failure(0).is_err());
        assert_eq!(mgr.num_links(), 0);
        // An empty fleet runs to an empty report.
        let report = mgr.run().unwrap();
        assert!(report.links.is_empty());
        assert_eq!(report.total_secret_bits(), 0);
    }

    /// A block size that is not a multiple of 64 used to be accepted here
    /// and then panic inside a fleet worker at the first syndrome (the
    /// quasi-cyclic code is built short), and one under 256 bits panics in
    /// code construction.
    #[test]
    fn a_block_size_the_code_library_cannot_build_is_refused_at_add_link() {
        let mut mgr = manager(1, 1);
        for block in [128, 192, 1000, 20_000] {
            let spec = LinkSpec::from_preset(WorkloadPreset::Metro, block, 7);
            assert!(
                matches!(mgr.add_link(spec), Err(QkdError::InvalidParameter { .. })),
                "{block}"
            );
        }
        assert_eq!(mgr.num_links(), 0);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(5))]
            /// The fleet invariant quantified over the whole scheduling
            /// space: for any mix of link weights, epoch plan and dispatch
            /// budget, every link's keys are bit-identical to its solo
            /// replay and the store ledger reconciles.
            #[test]
            fn every_policy_mix_is_solo_equivalent_and_reconciles(
                seed in 0u64..1_000_000,
                budget_idx in 0usize..3,
            ) {
                let budget = [None, Some(4), Some(7)][budget_idx];
                let mut mgr = LinkManager::new(
                    FleetConfig::default()
                        .with_workers(2)
                        .with_max_backlog(16)
                        .with_batch_budget(budget),
                )
                .unwrap();
                let presets = [
                    WorkloadPreset::Metro,
                    WorkloadPreset::Backbone,
                    WorkloadPreset::LongHaul,
                ];
                let mut specs = Vec::new();
                let mut sizes: Vec<Vec<usize>> = Vec::new();
                for (i, preset) in presets.iter().enumerate() {
                    let spec = LinkSpec::from_preset(*preset, 4096, seed.wrapping_add(i as u64))
                        .with_weight([4.0, 1.0, 2.0][i]);
                    mgr.add_link(spec.clone()).unwrap();
                    specs.push(spec);
                    sizes.push(Vec::new());
                }
                // A small epoch plan derived from the seed (0 = idle epoch).
                let mut x = seed;
                for _round in 0..3 {
                    for (link, submitted) in sizes.iter_mut().enumerate() {
                        x = x
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        let blocks = ((x >> 33) % 3) as usize;
                        if mgr.submit_epoch(link, blocks).unwrap().accepted() && blocks > 0 {
                            submitted.push(blocks);
                        }
                    }
                }
                let report = mgr.run().unwrap();
                for link in 0..3 {
                    // Batches run in submission order, so a budgeted drain
                    // processed exactly a prefix of the submitted epochs.
                    let processed = report.links[link].batches_processed as usize;
                    assert!(processed <= sizes[link].len());
                    let (solo, expected) = replay_solo(&specs[link], &sizes[link][..processed]);
                    let status = mgr.store().status(link).unwrap();
                    assert_eq!(status.deposited_bits, expected.len() as u64);
                    if !expected.is_empty() {
                        let got = mgr.store().get_key(link, expected.len()).unwrap();
                        assert_eq!(
                            got.bits, expected,
                            "budget={budget:?} diverged from solo"
                        );
                    }
                    assert_eq!(
                        mgr.summary(link).unwrap().accounting(),
                        solo.summary().accounting()
                    );
                }
                mgr.reconcile().unwrap();
            }
        }
    }
}
