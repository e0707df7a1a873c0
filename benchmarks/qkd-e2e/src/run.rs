//! One benchmark run: set the system up (several times, for `setup_s`),
//! drive it for the window from an intake thread and client threads, then
//! hold it to the correctness gate and restart it from its journal.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use qkd_api::{ApiClient, ApiConfig, ApiServer, SaeProfile, SaeRegistry};
use qkd_journal::{FsyncPolicy, JournalConfig, Record};
use qkd_ldpc::{CodeLibrary, ReconcilerConfig};
use qkd_manager::{FleetConfig, KeyId, KeyStatus, LinkManager, LinkSpec};
use qkd_types::DetectionEvent;

use crate::stats::{median, Slices};
use crate::trace::{Span, SpanLog};
use crate::workload::{generate_ring, Pacer, Workload};

/// Slices the window is cut into for the median rates.
pub const SLICES: usize = 10;

/// How long a client backs off when no link it serves has an exchange's
/// worth of key.
const BACKOFF: Duration = Duration::from_millis(10);

/// A failure of the run itself (not a measured failure): a broken gate, an
/// invalid paced run, an I/O error. The command exits non-zero on any.
pub type Failure = String;

/// What one run is asked to do.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    pub window_s: f64,
    pub warmup_s: f64,
    pub traced: bool,
    /// Times the system is set up; `setup_s` is the median.
    pub setup_reps: usize,
}

/// Cores the host gives the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The journal tuning every durable fleet of the benchmark runs with.
pub fn journal_config() -> JournalConfig {
    JournalConfig {
        fsync: FsyncPolicy::Batch { max_frames: 64 },
        ..JournalConfig::default()
    }
}

/// Directory for build-free outputs (traces, results, journals): the `out/`
/// next to the crate.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../out")
}

/// Where journal directories are created: `QKD_E2E_JOURNAL_DIR` when set (a
/// deployment setting, e.g. a tmpfs), else [`out_dir`], so that by default
/// the benchmark writes nowhere outside its checkout.
pub fn journal_root() -> PathBuf {
    std::env::var_os("QKD_E2E_JOURNAL_DIR").map_or_else(out_dir, PathBuf::from)
}

/// A directory name under [`journal_root`] no other run of this process or
/// of a concurrent one uses.
pub fn scratch_dir(kind: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let serial = NEXT.fetch_add(1, Ordering::Relaxed);
    journal_root().join(format!("{kind}-{}-{serial}", std::process::id()))
}

/// File-system type holding `path`, from the longest matching mount point.
pub fn fs_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split(' ');
            let (point, kind) = (fields.nth(1)?, fields.next()?);
            path.starts_with(point).then_some((point.len(), kind))
        })
        .max_by_key(|&(len, _)| len)
        .map_or_else(|| "unknown".to_string(), |(_, kind)| kind.to_string())
}

fn sae_ids(link: usize) -> (String, String) {
    (format!("sae-m{link}"), format!("sae-s{link}"))
}

fn tokens(link: usize) -> (String, String) {
    (format!("tok-m{link}"), format!("tok-s{link}"))
}

/// The running system: durable fleet, delivery server, SAE registry.
pub struct Rig {
    pub dir: PathBuf,
    pub fleet: LinkManager,
    pub server: ApiServer,
}

/// Wall time of one set-up and of its code-library build.
#[derive(Debug, Clone, Copy)]
pub struct SetupTime {
    pub total_s: f64,
    pub library_s: f64,
}

fn open_fleet(dir: &Path, specs: &[LinkSpec]) -> Result<LinkManager, Failure> {
    let config = FleetConfig::default().with_workers(nproc());
    let mut fleet = LinkManager::open_durable_with(config, dir, journal_config())
        .map_err(|e| format!("open durable fleet in {}: {e}", dir.display()))?;
    for spec in specs {
        fleet
            .add_link(spec.clone())
            .map_err(|e| format!("add link {}: {e}", spec.label))?;
    }
    Ok(fleet)
}

/// Builds the whole system once: LDPC code libraries, durable store, links,
/// SAE registration, server bind, pre-fill.
///
/// The code library is cached per process, so only the first set-up would
/// pay for it; `cold_library` makes later ones build it again, uncached, so
/// that every repetition costs what a fresh process pays.
fn set_up(
    config: &RunConfig,
    specs: &[LinkSpec],
    rings: &[Vec<Vec<DetectionEvent>>],
    dir: &Path,
    cold_library: bool,
) -> Result<(Rig, SetupTime), Failure> {
    let start = Instant::now();
    for block_bits in config.workload.block_sizes() {
        let ldpc = ReconcilerConfig::for_block_size(block_bits);
        let built = if cold_library {
            CodeLibrary::new(block_bits, &ldpc.rates, ldpc.decoder, ldpc.seed).map(|_| ())
        } else {
            CodeLibrary::shared(block_bits, &ldpc.rates, ldpc.decoder, ldpc.seed).map(|_| ())
        };
        built.map_err(|e| format!("code library for {block_bits}-bit blocks: {e}"))?;
    }
    let library_s = start.elapsed().as_secs_f64();

    let _ = std::fs::remove_dir_all(dir);
    let mut fleet = open_fleet(dir, specs)?;
    let registry = Arc::new(SaeRegistry::new());
    for link in 0..specs.len() {
        let ((master, slave), (master_token, slave_token)) = (sae_ids(link), tokens(link));
        registry
            .register(SaeProfile::new(master.as_str(), master_token))
            .and_then(|()| registry.register(SaeProfile::new(slave.as_str(), slave_token)))
            .and_then(|()| registry.entitle(&master, &slave, link))
            .map_err(|e| format!("register SAE pair of link {link}: {e}"))?;
    }
    let server = ApiServer::start(fleet.store_handle(), registry, ApiConfig::default())
        .map_err(|e| format!("start delivery server: {e}"))?;

    // Pre-fill: distil key into the store in chunks the backlog cap admits.
    let per_link =
        (config.workload.prefill_bits_per_s as f64 * config.window_s) as u64 / specs.len() as u64;
    let mut cursor = 0usize;
    loop {
        let short: Vec<usize> = (0..specs.len())
            .filter(|&l| fleet.store().status(l).map_or(0, |s| s.available_bits) < per_link)
            .collect();
        if short.is_empty() {
            break;
        }
        for _ in 0..fleet.config().max_backlog {
            for &link in &short {
                let events = rings[link][cursor % rings[link].len()].clone();
                let admission = fleet
                    .submit_events(link, events)
                    .map_err(|e| format!("pre-fill submit: {e}"))?;
                if !admission.accepted() {
                    return Err(format!(
                        "pre-fill epoch rejected on link {link}: {admission:?}"
                    ));
                }
            }
            cursor += 1;
        }
        fleet.run().map_err(|e| format!("pre-fill run: {e}"))?;
    }
    let total_s = start.elapsed().as_secs_f64();
    Ok((
        Rig {
            dir: dir.to_path_buf(),
            fleet,
            server,
        },
        SetupTime { total_s, library_s },
    ))
}

/// One `run()` of the fleet as the intake thread saw it: its interval and
/// what the cumulative fleet report gained over it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Round {
    pub start_s: f64,
    pub end_s: f64,
    pub sifted_bits: u64,
    pub secret_bits: u64,
    pub blocks_ok: u64,
    pub blocks_failed: u64,
    pub busy_s: f64,
}

/// Everything the intake thread recorded.
#[derive(Debug, Default)]
pub struct IntakeLog {
    pub rounds: Vec<Round>,
    /// `(finished_s, latency_ms)`: epoch due/submit time to the return of
    /// the `run()` that deposited it.
    pub epoch_latency: Vec<(f64, f64)>,
    /// `(submitted_s, lag_ms)`: how long after it was due an epoch reached
    /// `submit_events` (paced workloads only).
    pub intake_lag: Vec<(f64, f64)>,
    /// How late the generator woke for an epoch it slept towards, in ms.
    pub wake_late_ms: Vec<f64>,
    pub submit_us: Vec<f64>,
    pub epochs_offered: u64,
    pub admission_rejects: u64,
    pub backlog_max_epochs: u64,
    pub backlog_end_epochs: u64,
    pub spans: Vec<Span>,
}

/// Cumulative fleet counters the rounds are differenced from.
#[derive(Clone, Copy, Default)]
struct Cumulative {
    sifted: u64,
    secret: u64,
    ok: u64,
    failed: u64,
    busy_s: f64,
}

impl Cumulative {
    fn of(report: &qkd_manager::FleetReport) -> Self {
        Self {
            sifted: report.summary.sifted_bits_in,
            secret: report.summary.secret_bits_out,
            ok: report.summary.blocks_ok as u64,
            failed: report.summary.blocks_failed as u64,
            busy_s: report.links.iter().map(|l| l.busy.as_secs_f64()).sum(),
        }
    }
}

/// The intake thread: feeds epochs from the rings into the fleet and drains
/// them with `run()`, closed-loop or on the links' schedules, until `end`.
fn intake(
    fleet: &mut LinkManager,
    workload: &Workload,
    rings: &[Vec<Vec<DetectionEvent>>],
    origin: Instant,
    end: Duration,
    mut log: SpanLog,
) -> Result<IntakeLog, Failure> {
    let mut out = IntakeLog::default();
    let mut pacers: Vec<Option<Pacer>> = workload
        .links
        .iter()
        .map(|l| l.pace.map(Pacer::new))
        .collect();
    let mut cursors = vec![0usize; rings.len()];
    let mut before = Cumulative::of(&fleet.report());
    let mut slept_towards: Option<Duration> = None;
    loop {
        let now = origin.elapsed();
        if now >= end {
            break;
        }
        // Which epochs go in this round, each with the instant its latency
        // counts from: its due time when paced, its submission otherwise.
        let mut offered: Vec<(usize, Option<Duration>)> = Vec::new();
        for (link, pacer) in pacers.iter_mut().enumerate() {
            match pacer {
                Some(pacer) => {
                    while let Some(due) = pacer.pop_due(now) {
                        offered.push((link, Some(due)));
                    }
                }
                None => offered.extend((0..workload.closed_epochs).map(|_| (link, None))),
            }
        }
        if offered.is_empty() {
            let next = pacers
                .iter()
                .flatten()
                .map(Pacer::next_due)
                .min()
                .unwrap_or(end)
                .min(end);
            slept_towards = Some(next);
            std::thread::sleep(next.saturating_sub(origin.elapsed()));
            continue;
        }
        if let Some(target) = slept_towards.take() {
            out.wake_late_ms
                .push(now.saturating_sub(target).as_secs_f64() * 1e3);
        }

        let round_id = log.next_id();
        let round_start = Instant::now();
        let mut counted_from = Vec::with_capacity(offered.len());
        let mut backlog = vec![0u64; rings.len()];
        for &(link, due) in &offered {
            let events = rings[link][cursors[link] % rings[link].len()].clone();
            cursors[link] += 1;
            let submit_start = Instant::now();
            let admission = fleet
                .submit_events(link, events)
                .map_err(|e| format!("submit_events on link {link}: {e}"))?;
            let submit_end = Instant::now();
            log.leaf(
                round_id,
                round_id,
                "manager",
                "submit_events",
                submit_start,
                submit_end,
            );
            out.submit_us
                .push((submit_end - submit_start).as_secs_f64() * 1e6);
            out.epochs_offered += 1;
            if !admission.accepted() {
                out.admission_rejects += 1;
                continue;
            }
            backlog[link] += 1;
            let submitted = submit_start.duration_since(origin);
            if let Some(due) = due {
                out.intake_lag.push((
                    submitted.as_secs_f64(),
                    submitted.saturating_sub(due).as_secs_f64() * 1e3,
                ));
            }
            counted_from.push(due.unwrap_or(submitted));
        }
        out.backlog_max_epochs = out
            .backlog_max_epochs
            .max(backlog.iter().copied().max().unwrap_or(0));

        let run_start = Instant::now();
        let report = fleet.run().map_err(|e| format!("fleet run: {e}"))?;
        let run_end = Instant::now();
        log.leaf(round_id, round_id, "manager", "run", run_start, run_end);
        log.record(
            round_id,
            round_id,
            0,
            "bench",
            "intake_round",
            round_start,
            run_end,
            offered.len() as u64,
        );
        let finished = run_end.duration_since(origin);
        for from in counted_from {
            out.epoch_latency.push((
                finished.as_secs_f64(),
                finished.saturating_sub(from).as_secs_f64() * 1e3,
            ));
        }
        let after = Cumulative::of(&report);
        out.rounds.push(Round {
            start_s: run_start.duration_since(origin).as_secs_f64(),
            end_s: finished.as_secs_f64(),
            sifted_bits: after.sifted - before.sifted,
            secret_bits: after.secret - before.secret,
            blocks_ok: after.ok - before.ok,
            blocks_failed: after.failed - before.failed,
            busy_s: after.busy_s - before.busy_s,
        });
        before = after;
    }
    // `run()` drains whatever was submitted, so what can be left waiting at
    // the end are epochs that came due and were never handed in.
    let now = origin.elapsed();
    out.backlog_end_epochs = pacers.iter().flatten().map(|p| p.overdue(now)).sum();
    out.spans = log.spans;
    Ok(out)
}

/// Everything one client thread recorded. Timing samples are kept only for
/// operations that completed inside the window, and the per-request ones
/// only in a traced run: at 45 000 requests a second they would otherwise
/// be most of what `peak_rss_mib` measures.
#[derive(Debug)]
pub struct ClientLog {
    pub delivered_bits: Slices,
    /// `enc_keys` sent to `dec_keys` verified, in ms.
    pub exchange_ms: Vec<f64>,
    pub status_us: Vec<f64>,
    pub enc_us: Vec<f64>,
    pub dec_us: Vec<f64>,
    /// Exchanges verified over the whole load phase, warm-up included.
    pub exchanges_run: u64,
    pub requests_sent: u64,
    pub requests_in_window: u64,
    /// Requests answered non-2xx or not at all.
    pub requests_failed: u64,
    pub mismatched_keys: u64,
    pub backoffs: u64,
    pub spans: Vec<Span>,
}

/// One link as a client sees it: an SAE pair with a connection each.
struct Pair {
    master: ApiClient,
    slave: ApiClient,
    master_id: String,
    slave_id: String,
    /// Key that must be on the shelf before this client starts an exchange:
    /// an exchange's worth for every client sharing the link, so that no
    /// `enc_keys` is refused because a neighbour got there first.
    threshold: u64,
}

/// A client thread: runs exchanges over its links in rotation until `end`.
fn client(
    pairs: &[Pair],
    workload: &Workload,
    origin: Instant,
    window: (f64, f64),
    end: Duration,
    mut log: SpanLog,
) -> ClientLog {
    let mut out = ClientLog {
        delivered_bits: Slices::new(window.0, window.1 - window.0, SLICES),
        exchange_ms: Vec::new(),
        status_us: Vec::new(),
        enc_us: Vec::new(),
        dec_us: Vec::new(),
        exchanges_run: 0,
        requests_sent: 0,
        requests_in_window: 0,
        requests_failed: 0,
        mismatched_keys: 0,
        backoffs: 0,
        spans: Vec::new(),
    };
    let traced = log.enabled();
    let in_window =
        |t: Instant| (window.0..window.1).contains(&t.duration_since(origin).as_secs_f64());
    let us = |from: Instant, to: Instant| (to - from).as_secs_f64() * 1e6;
    // Counts one answered request; its latency is kept when traced.
    let answered = |out: &mut ClientLog, ok: bool, from: Instant, to: Instant| -> Option<f64> {
        out.requests_sent += 1;
        out.requests_failed += u64::from(!ok);
        out.requests_in_window += u64::from(in_window(to));
        (traced && in_window(to)).then(|| us(from, to))
    };
    while origin.elapsed() < end {
        let mut exchanged = false;
        for pair in pairs {
            let exchange_id = log.next_id();
            let t0 = Instant::now();
            let status = pair.master.status(&pair.slave_id);
            let t1 = Instant::now();
            log.leaf(exchange_id, exchange_id, "api", "status", t0, t1);
            let sample = answered(&mut out, status.is_ok(), t0, t1);
            out.status_us.extend(sample);
            if !status.is_ok_and(|s| s.available_bits >= pair.threshold) {
                continue;
            }
            let reserved = pair.master.enc_keys(
                &pair.slave_id,
                workload.keys_per_exchange,
                workload.key_bits,
            );
            let t2 = Instant::now();
            log.leaf(exchange_id, exchange_id, "api", "enc_keys", t1, t2);
            let sample = answered(&mut out, reserved.is_ok(), t1, t2);
            out.enc_us.extend(sample);
            let Ok(reserved) = reserved else { continue };
            let ids: Vec<KeyId> = reserved.iter().map(|k| k.id).collect();
            let picked = pair.slave.dec_keys(&pair.master_id, &ids);
            let t3 = Instant::now();
            log.leaf(exchange_id, exchange_id, "api", "dec_keys", t2, t3);
            let sample = answered(&mut out, picked.is_ok(), t2, t3);
            out.dec_us.extend(sample);
            let Ok(picked) = picked else { continue };
            // Every key must come back bit-identical on both SAEs.
            let identical = picked.len() == workload.keys_per_exchange
                && reserved.len() == picked.len()
                && reserved.iter().zip(&picked).all(|(m, s)| {
                    m.id == s.id && m.bits.len() == workload.key_bits && m.bits == s.bits
                });
            let t4 = Instant::now();
            log.record(exchange_id, exchange_id, 0, "bench", "exchange", t0, t4, 1);
            if !identical {
                out.mismatched_keys += 1;
                continue;
            }
            out.exchanges_run += 1;
            if in_window(t4) {
                out.delivered_bits.add_at(
                    t4.duration_since(origin).as_secs_f64(),
                    workload.exchange_bits() as f64,
                );
                out.exchange_ms.push(us(t1, t4) / 1e3);
            }
            exchanged = true;
        }
        if !exchanged {
            out.backoffs += 1;
            std::thread::sleep(BACKOFF);
        }
    }
    out.spans = log.spans;
    out
}

/// Client threads per core on `sae-storm`. Each client has one request in
/// flight and the server's shards sleep between polls, so a few clients
/// measure a chain of sleeps, not capacity: on the 2-core sandbox delivered
/// rate grew in proportion to the client count up to ~6 per core (at 2 it
/// wandered 190-280 kbit/s between runs of one seed) and flattened at 8.
const STORM_CLIENTS_PER_CORE: usize = 8;

/// Which links each client thread serves: `max(1, nproc - 1)` clients, at
/// most one per link, except on `sae-storm`, which saturates the delivery
/// tier with [`STORM_CLIENTS_PER_CORE`] clients per core sharing its links.
pub fn client_links(workload: &Workload, nproc: usize) -> Vec<Vec<usize>> {
    let links = workload.links.len();
    if workload.storm {
        return (0..STORM_CLIENTS_PER_CORE * nproc)
            .map(|c| vec![c % links])
            .collect();
    }
    let clients = nproc.saturating_sub(1).clamp(1, links);
    (0..clients)
        .map(|c| (0..links).filter(|l| l % clients == c).collect())
        .collect()
}

/// What the load phase recorded, plus the bounds of its window.
pub struct LoadLog {
    /// The instant every span and sample of the load phase is timed from.
    pub origin: Instant,
    pub window: (f64, f64),
    pub intake: IntakeLog,
    pub clients: Vec<ClientLog>,
    /// Connections the server accepted.
    pub server_connections: u64,
    /// The program's qkd-obs registry at the window's two edges.
    pub obs_before: qkd_obs::Snapshot,
    pub obs_after: qkd_obs::Snapshot,
    /// Process CPU seconds used inside the window.
    pub cpu_s: f64,
    /// Weighted Jain index of the links' service over the whole run.
    pub fairness_weighted: f64,
}

/// Drives the rig for warm-up plus window.
fn load(
    rig: &mut Rig,
    config: &RunConfig,
    rings: &[Vec<Vec<DetectionEvent>>],
) -> Result<LoadLog, Failure> {
    let workload = &config.workload;
    let addr = rig.server.local_addr();
    let assignment = client_links(workload, nproc());
    let sharing = |link: usize| assignment.iter().flatten().filter(|&&l| l == link).count();
    // Every client's connections are dialled here, one after the other,
    // before the clock starts. The server deals connections to its shard
    // threads in arrival order, and which connections share a shard decides
    // how long a request waits for a sleeping shard; dialled from racing
    // threads, the layout (and with it exchange latency, by a factor of
    // six) differed from run to run.
    let mut client_pairs = Vec::with_capacity(assignment.len());
    for links in &assignment {
        let mut pairs = Vec::with_capacity(links.len());
        for &link in links {
            let ((master_id, slave_id), (master_token, slave_token)) =
                (sae_ids(link), tokens(link));
            let pair = Pair {
                master: ApiClient::new(addr, master_token),
                slave: ApiClient::new(addr, slave_token),
                master_id,
                slave_id,
                threshold: (workload.exchange_bits() * sharing(link)) as u64,
            };
            pair.master
                .status(&pair.slave_id)
                .and_then(|_| pair.slave.status(&pair.master_id))
                .map_err(|e| format!("dial the SAE pair of link {link}: {e}"))?;
            pairs.push(pair);
        }
        client_pairs.push(pairs);
    }

    let origin = Instant::now();
    let window = (config.warmup_s, config.warmup_s + config.window_s);
    let end = Duration::from_secs_f64(window.1);
    let fleet = &mut rig.fleet;
    let (intake_log, client_logs, (obs_before, cpu_before), (obs_after, cpu_after)) =
        std::thread::scope(|scope| {
            let intake_log = SpanLog::new(config.traced, origin, 0);
            let feeder =
                scope.spawn(move || intake(fleet, workload, rings, origin, end, intake_log));
            let consumers: Vec<_> = client_pairs
                .into_iter()
                .enumerate()
                .map(|(c, pairs)| {
                    let log = SpanLog::new(config.traced, origin, c as u64 + 1);
                    scope.spawn(move || client(&pairs, workload, origin, window, end, log))
                })
                .collect();
            // The main thread reads the program's own telemetry and the process
            // CPU clock at the window's edges while the load threads work.
            let edge = |at_s: f64| {
                std::thread::sleep(Duration::from_secs_f64(at_s).saturating_sub(origin.elapsed()));
                (qkd_obs::registry().snapshot(), process_cpu_s())
            };
            let (opened, closed) = (edge(window.0), edge(window.1));
            let intake_log = feeder
                .join()
                .map_err(|_| "intake thread panicked".to_string());
            let client_logs: Result<Vec<ClientLog>, Failure> = consumers
                .into_iter()
                .map(|c| c.join().map_err(|_| "client thread panicked".to_string()))
                .collect();
            (intake_log, client_logs, opened, closed)
        });
    Ok(LoadLog {
        origin,
        window,
        intake: intake_log??,
        clients: client_logs?,
        server_connections: rig.server.stats().connections_accepted(),
        obs_before,
        obs_after,
        cpu_s: cpu_after - cpu_before,
        fairness_weighted: rig.fleet.report().fairness_weighted(),
    })
}

/// What the restart from the journal found.
#[derive(Debug, Clone, Copy, Default)]
pub struct Recovery {
    /// Time to reopen the durable fleet from the journal directory.
    pub recovery_s: f64,
    pub segments: u64,
    pub bytes: u64,
    /// Reserve and redeem frames: what exchanges cost the journal.
    pub exchange_frames: u64,
}

/// The correctness gate: no mismatched key, no quarantined link, a valid
/// paced run, a balanced ledger, and a restart from the journal that gives
/// every link the `KeyStatus` it had before shutdown. Consumes the rig and
/// removes its journal directory.
fn gate(
    rig: Rig,
    config: &RunConfig,
    specs: &[LinkSpec],
    log: &LoadLog,
) -> Result<Recovery, Failure> {
    let mismatched: u64 = log.clients.iter().map(|c| c.mismatched_keys).sum();
    if mismatched > 0 {
        return Err(format!(
            "{mismatched} exchanges returned keys that differ between the SAEs"
        ));
    }
    for link in 0..specs.len() {
        if let Ok(Some(failure)) = rig.fleet.link_failure(link) {
            return Err(format!("link {link} quarantined: {failure}"));
        }
    }
    if log.intake.admission_rejects > 0 {
        return Err(format!(
            "{} epochs were refused admission",
            log.intake.admission_rejects
        ));
    }
    // A paced run is only as good as its generator: it must have woken on
    // time for the epochs it slept towards and kept up with the schedule.
    let mut wake_late = log.intake.wake_late_ms.clone();
    wake_late.sort_by(f64::total_cmp);
    let wake_late_p95 = wake_late
        .get(wake_late.len() * 95 / 100)
        .copied()
        .unwrap_or(0.0);
    if wake_late_p95 > 5.0 {
        return Err(format!(
            "invalid paced run: generator woke {wake_late_p95:.1} ms late at p95"
        ));
    }
    if config.workload.paced() && log.intake.backlog_end_epochs > specs.len() as u64 {
        return Err(format!(
            "invalid paced run: {} epochs still waiting at the end",
            log.intake.backlog_end_epochs
        ));
    }
    rig.fleet
        .reconcile()
        .map_err(|e| format!("ledger does not reconcile: {e}"))?;
    let before: Vec<KeyStatus> = (0..specs.len())
        .map(|l| {
            rig.fleet
                .store()
                .status(l)
                .map_err(|e| format!("status of link {l}: {e}"))
        })
        .collect::<Result<_, _>>()?;
    if let Some(parked) = before.iter().find(|s| s.reserved_keys > 0) {
        return Err(format!(
            "link {} ends with {} unredeemed reservations",
            parked.link, parked.reserved_keys
        ));
    }
    let Rig { dir, fleet, server } = rig;
    server.shutdown();
    drop(fleet);

    let start = Instant::now();
    let reopened = LinkManager::open_durable_with(
        FleetConfig::default().with_workers(nproc()),
        &dir,
        journal_config(),
    )
    .map_err(|e| format!("reopen journal {}: {e}", dir.display()))?;
    let recovery_s = start.elapsed().as_secs_f64();
    for status in &before {
        let after = reopened
            .store()
            .status(status.link)
            .map_err(|e| format!("recovered status of link {}: {e}", status.link))?;
        if after != *status {
            return Err(format!(
                "link {} recovered as {after:?}, was {status:?} before shutdown",
                status.link
            ));
        }
    }
    drop(reopened);
    // The journal itself says what the exchanges cost it.
    let journal =
        qkd_journal::replay(&dir).map_err(|e| format!("replay {}: {e}", dir.display()))?;
    let exchange_frames = journal
        .records
        .iter()
        .filter(|r| matches!(r, Record::Reserve { .. } | Record::Redeem { .. }))
        .count() as u64;
    let _ = std::fs::remove_dir_all(&dir);
    Ok(Recovery {
        recovery_s,
        segments: journal.stats.segments,
        bytes: journal.stats.bytes,
        exchange_frames,
    })
}

/// Everything a run measured, before it is turned into named metrics.
pub struct RunLog {
    pub setups: Vec<SetupTime>,
    pub gen_events: u64,
    pub gen_s: f64,
    pub load: LoadLog,
    pub recovery: Recovery,
    pub journal_fs: String,
}

/// Median set-up time of the run.
pub fn setup_s(setups: &[SetupTime]) -> f64 {
    median(&setups.iter().map(|s| s.total_s).collect::<Vec<_>>())
}

/// User plus system CPU seconds the process has used.
pub fn process_cpu_s() -> f64 {
    // Fields 14 and 15 of /proc/self/stat, after the parenthesised command
    // name, in clock ticks; Linux fixes USER_HZ at 100.
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let after_name = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: f64 = after_name
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<f64>().ok())
        .sum();
    ticks / 100.0
}

/// Peak resident set of the process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs one workload once: generate inputs, set up `setup_reps` times, load,
/// gate. The specs and rings are returned for the traced run's replay.
#[allow(clippy::type_complexity)]
pub fn run(
    config: &RunConfig,
) -> Result<(RunLog, Vec<LinkSpec>, Vec<Vec<Vec<DetectionEvent>>>), Failure> {
    let specs = config.workload.specs(config.seed);
    let gen_start = Instant::now();
    let rings: Vec<Vec<Vec<DetectionEvent>>> = config
        .workload
        .links
        .iter()
        .zip(&specs)
        .map(|(plan, spec)| generate_ring(plan, spec.seed))
        .collect();
    let gen_s = gen_start.elapsed().as_secs_f64();
    let gen_events = rings.iter().flatten().map(|epoch| epoch.len() as u64).sum();

    let root = journal_root();
    std::fs::create_dir_all(&root).map_err(|e| format!("create {}: {e}", root.display()))?;
    let journal_fs = fs_type(&root);
    let dir = scratch_dir("journal");
    let mut setups = Vec::with_capacity(config.setup_reps);
    let mut rig = None;
    for rep in 0..config.setup_reps.max(1) {
        // Tear the previous repetition down before building the next.
        if let Some(Rig { server, fleet, .. }) = rig.take() {
            server.shutdown();
            drop(fleet);
        }
        let (built, time) = set_up(config, &specs, &rings, &dir, rep > 0)?;
        setups.push(time);
        rig = Some(built);
    }
    let mut rig = rig.expect("at least one set-up ran");

    let load = load(&mut rig, config, &rings)?;
    let recovery = gate(rig, config, &specs, &load)?;
    Ok((
        RunLog {
            setups,
            gen_events,
            gen_s,
            load,
            recovery,
            journal_fs,
        },
        specs,
        rings,
    ))
}
