//! Integration tests spanning the whole workspace: simulator → sifting →
//! reconciliation → verification → privacy amplification → authentication.

use qkd::core::{PostProcessingConfig, PostProcessor, ReconcilerScratch, ReconciliationMethod};
use qkd::manager::{Admission, FleetConfig, LinkManager, LinkSpec};
use qkd::simulator::{
    detection_events, CorrelatedKeySource, FleetWorkload, LinkConfig, LinkSimulator, WorkloadPreset,
};
use qkd::types::frame::StageLabel;
use qkd::types::{BitVec, QkdError};

#[test]
fn full_stack_distils_key_from_simulated_link() {
    let mut sim = LinkSimulator::new(LinkConfig::metro_25km(), 2024);
    let batch = sim.run_until_sifted(40_000, 500_000, 80_000_000).unwrap();
    let mut config = PostProcessingConfig::for_block_size(8192);
    config.sampling.sample_fraction = 0.15;
    let mut processor = PostProcessor::new(config, 1).unwrap();
    let results = processor.process_detections(&batch.events).unwrap();
    assert!(
        results.len() >= 3,
        "expected at least three full blocks, got {}",
        results.len()
    );

    let summary = processor.summary();
    assert_eq!(summary.blocks_failed, 0);
    assert!(
        summary.secret_fraction() > 0.15,
        "secret fraction {}",
        summary.secret_fraction()
    );
    assert!(summary.secret_fraction() < 0.95);
    // The distilled rate should not exceed the asymptotic bound for the
    // link's QBER.
    let qber = batch.sifted_qber();
    let asymptotic = qkd::privacy::asymptotic_secret_fraction(qber, 1.0);
    assert!(
        summary.secret_fraction() <= asymptotic,
        "measured fraction {} cannot beat the asymptotic bound {}",
        summary.secret_fraction(),
        asymptotic
    );
}

#[test]
fn every_width_distils_identical_keys_from_a_simulated_link() {
    // The same simulated detection batch through two identically-seeded
    // engines, one lending its own scratch and one lending three: secret
    // keys must be bit-identical, and the deterministic accounting must
    // agree.
    let mut sim = LinkSimulator::new(LinkConfig::metro_25km(), 77);
    let batch = sim.run_until_sifted(25_000, 200_000, 50_000_000).unwrap();
    let mk = || {
        let mut config = PostProcessingConfig::for_block_size(8192);
        config.sampling.sample_fraction = 0.15;
        PostProcessor::new(config, 4).unwrap()
    };

    let mut narrow = mk();
    let narrow_results = narrow.process_detections(&batch.events).unwrap();
    assert!(narrow_results.len() >= 2);

    let mut wide = mk();
    let mut scratches: Vec<ReconcilerScratch> = (0..3).map(|_| ReconcilerScratch::new()).collect();
    let wide_results = wide
        .process_detections_with_scratch(&batch.events, &mut scratches)
        .unwrap();

    assert_eq!(narrow_results.len(), wide_results.len());
    for (n, w) in narrow_results.iter().zip(&wide_results) {
        assert_eq!(n.block, w.block);
        assert_eq!(
            n.secret_key.bits, w.secret_key.bits,
            "block {} keys must be bit-identical",
            n.block.sequence
        );
        assert_eq!(n.qber, w.qber);
        assert_eq!(n.reconciliation_leak, w.reconciliation_leak);
        assert_eq!(n.auth_bits_consumed, w.auth_bits_consumed);
        // Every block reports all six stages, whichever thread ran it.
        assert_eq!(w.stage_times.len(), 6);
    }
    assert_eq!(narrow.summary().accounting(), wide.summary().accounting());
    assert_eq!(
        narrow.pending_remainder_bits(),
        wide.pending_remainder_bits()
    );
    assert_eq!(narrow.auth_key_remaining(), wide.auth_key_remaining());
}

#[test]
fn ldpc_and_cascade_both_distil_the_same_workload() {
    let mut src = CorrelatedKeySource::from_preset(WorkloadPreset::Backbone, 16_384, 5).unwrap();
    let block = src.next_block();

    for method in [ReconciliationMethod::Ldpc, ReconciliationMethod::Cascade] {
        let config = PostProcessingConfig::for_block_size(16_384).with_reconciliation(method);
        let mut processor = PostProcessor::new(config, 3).unwrap();
        let result = processor
            .process_sifted_block(&block.alice, &block.bob)
            .unwrap();
        assert!(
            result.secret_key.len() > 4_000,
            "{method:?} produced {}",
            result.secret_key.len()
        );
        assert_eq!(result.method, method);
        // Every stage must have been timed.
        for stage in [
            StageLabel::Estimation,
            StageLabel::Reconciliation,
            StageLabel::Verification,
            StageLabel::PrivacyAmplification,
            StageLabel::Authentication,
        ] {
            assert!(
                result.stage_time(stage).is_some(),
                "{method:?} missing {stage}"
            );
        }
    }
}

#[test]
fn stressed_link_still_reconciles_but_yields_less_key() {
    let mut metro = CorrelatedKeySource::from_preset(WorkloadPreset::Metro, 16_384, 9).unwrap();
    let mut stressed =
        CorrelatedKeySource::from_preset(WorkloadPreset::LongHaul, 16_384, 9).unwrap();
    let metro_block = metro.next_block();
    let stressed_block = stressed.next_block();

    let mut processor =
        PostProcessor::new(PostProcessingConfig::for_block_size(16_384), 7).unwrap();
    let metro_result = processor
        .process_sifted_block(&metro_block.alice, &metro_block.bob)
        .unwrap();
    let stressed_result = processor
        .process_sifted_block(&stressed_block.alice, &stressed_block.bob)
        .unwrap();
    assert!(
        stressed_result.secret_key.len() < metro_result.secret_key.len() / 2,
        "4.5% QBER should cost far more key than 1%: {} vs {}",
        stressed_result.secret_key.len(),
        metro_result.secret_key.len()
    );
    assert!(stressed_result.reconciliation_leak > metro_result.reconciliation_leak);
}

#[test]
fn tampered_channel_aborts_the_block() {
    // A QBER near 15% models an intercept-resend attack; the protocol must
    // abort rather than distil key.
    let mut src = CorrelatedKeySource::new(8192, 0.15, 11).unwrap();
    let block = src.next_block();
    let mut processor = PostProcessor::new(PostProcessingConfig::for_block_size(8192), 13).unwrap();
    let err = processor
        .process_sifted_block(&block.alice, &block.bob)
        .unwrap_err();
    assert!(
        err.is_security_abort(),
        "expected a security abort, got {err}"
    );
    assert_eq!(processor.summary().blocks_ok, 0);
    assert_eq!(processor.summary().secret_bits_out, 0);
}

#[test]
fn scheduler_and_engine_tell_a_consistent_offload_story() {
    use qkd::hetero::{
        decide_placement, modeled_time, CostCalibrator, KernelKind, LinkPlacement, StageMetrics,
        ThroughputReport,
    };
    // The engine measures: warm a calibrator on real host blocks, the way a
    // fleet link does before placement may leave the CPU.
    let block_bits = 8192;
    let mut processor =
        PostProcessor::new(PostProcessingConfig::for_block_size(block_bits), 5).unwrap();
    let mut src = CorrelatedKeySource::from_preset(WorkloadPreset::Metro, block_bits, 6).unwrap();
    let mut report = ThroughputReport::default();
    for _ in 0..CostCalibrator::MIN_SAMPLES {
        let block = src.next_block();
        let result = processor
            .process_sifted_block(&block.alice, &block.bob)
            .unwrap();
        for (label, host) in &result.stage_times {
            let mut metrics = StageMetrics::default();
            metrics.record(*host, *host, block_bits, block_bits);
            report.record_stage(label.name(), metrics);
        }
    }
    let mut calibrator = CostCalibrator::new();
    calibrator.observe_report(&report);
    // The scheduler models: on the fit the engine's own times produced it
    // moves the decode off the CPU, and pricing the measured decode under
    // that decision undercuts what the host took — the premise of offloading.
    let placement = decide_placement(&calibrator, block_bits);
    assert_ne!(placement, LinkPlacement::Cpu);
    let decode = report.stages[StageLabel::Reconciliation.name()];
    let host = decode.host_time / decode.items as u32;
    let modeled = modeled_time(
        &calibrator,
        placement,
        KernelKind::LdpcDecode,
        block_bits,
        host,
    );
    assert!(
        modeled < host,
        "{} should undercut the host decode: modeled {modeled:?} vs measured {host:?}",
        placement.label()
    );
}

#[test]
fn fleet_serves_mixed_links_with_bit_identical_keys_and_a_balanced_ledger() {
    // Four links of mixed QBER share a three-worker pool with a small
    // backlog cap, fed by a bursty arrival schedule. Every link must distil
    // bit-identical keys to a solo engine with the same seed, and the key
    // store must reconcile exactly against the summed session ledgers.
    let workload = FleetWorkload::mixed(4, 4096, 91).unwrap();
    let mut fleet =
        LinkManager::new(FleetConfig::default().with_workers(3).with_max_backlog(2)).unwrap();
    let ids: Vec<usize> = workload
        .specs()
        .iter()
        .map(|spec| fleet.add_link(LinkSpec::from_fleet(spec)).unwrap())
        .collect();

    // Submit everything up front so the small backlog cap actually rejects
    // some bursts; record which epochs were admitted per link.
    let mut accepted: Vec<Vec<usize>> = vec![Vec::new(); workload.num_links()];
    let mut rejections = 0usize;
    for arrival in workload.bursty_arrivals(6, 2) {
        if arrival.blocks == 0 {
            continue;
        }
        match fleet
            .submit_epoch(ids[arrival.link], arrival.blocks)
            .unwrap()
        {
            Admission::Accepted { .. } => accepted[arrival.link].push(arrival.blocks),
            Admission::RejectedBacklog { limit, .. } => {
                assert_eq!(limit, 2);
                rejections += 1;
            }
            Admission::AcceptedAfterDrop { .. } => {
                panic!("the default admission policy never sheds batches")
            }
            Admission::RejectedFailed => panic!("no link should be dead during submission"),
        }
    }
    assert!(
        rejections > 0,
        "six epochs of bursts against a backlog of 2 must trip admission control"
    );

    let report = fleet.run().unwrap();
    assert_eq!(report.links.len(), 4);
    assert!(report.total_secret_bits() > 0);
    assert!(report.aggregate_output_bps() > 0.0);
    assert!((0.0..=1.0 + 1e-9).contains(&report.fairness_service()));
    assert!((0.0..=1.0 + 1e-9).contains(&report.fairness_blocks()));
    // The fleet summary is the merge of the per-link summaries.
    assert_eq!(
        report.summary.blocks_ok,
        report
            .links
            .iter()
            .map(|l| l.summary.blocks_ok)
            .sum::<usize>()
    );

    for (link, spec) in workload.specs().iter().enumerate() {
        // Replay the accepted epochs on a solo engine with the same seed.
        let link_spec = LinkSpec::from_fleet(spec);
        let mut solo = link_spec.solo_processor().unwrap();
        let mut source = link_spec.key_source().unwrap();
        let mut expected = BitVec::new();
        for &blocks in &accepted[link] {
            let mut alice = BitVec::new();
            let mut bob = BitVec::new();
            for _ in 0..blocks {
                let blk = source.next_block();
                alice.extend_from(&blk.alice);
                bob.extend_from(&blk.bob);
            }
            for result in solo
                .process_detections(&detection_events(&alice, &bob))
                .unwrap()
            {
                expected.extend_from(&result.secret_key.bits);
            }
        }
        assert_eq!(
            fleet.summary(ids[link]).unwrap().accounting(),
            solo.summary().accounting(),
            "link {link} fleet accounting must equal solo"
        );
        let status = fleet.store().status(ids[link]).unwrap();
        assert!(status.balances());
        assert_eq!(status.deposited_bits, expected.len() as u64);

        // Drain the store in several keys: concatenated deliveries must be
        // the exact solo bit stream, with no bit delivered twice.
        let mut delivered = BitVec::new();
        let mut serial = 0u64;
        while fleet.store().status(ids[link]).unwrap().available_bits > 0 {
            let remaining = fleet.store().status(ids[link]).unwrap().available_bits as usize;
            let chunk = remaining.min(777);
            let key = fleet.store().get_key(ids[link], chunk).unwrap();
            assert_eq!(key.id.serial, serial);
            serial += 1;
            delivered.extend_from(&key.bits);
        }
        assert_eq!(
            delivered, expected,
            "link {link} fleet keys must be bit-identical to solo"
        );
        // The drained store reports an exact shortfall.
        match fleet.store().get_key(ids[link], 8) {
            Err(QkdError::KeyStoreShortfall { available, .. }) => assert_eq!(available, 0),
            other => panic!("expected shortfall on drained link {link}, got {other:?}"),
        }
    }
    let ledger = fleet.reconcile().unwrap();
    assert_eq!(ledger.total_deposited(), report.total_secret_bits());
    assert_eq!(ledger.total_available(), 0);
    assert_eq!(ledger.total_delivered(), report.total_secret_bits());
}

#[test]
fn two_saes_drain_a_fleet_epoch_over_real_tcp_sockets() {
    use qkd::api::{ApiClient, ApiConfig, ApiServer, SaeProfile, SaeRegistry};
    use qkd::manager::KeyId;
    use std::sync::Arc;

    // A fleet distils an epoch into the store…
    let mut fleet = LinkManager::new(FleetConfig::default().with_workers(2)).unwrap();
    let link = fleet
        .add_link(LinkSpec::from_preset(WorkloadPreset::Metro, 8192, 2026))
        .unwrap();
    fleet.submit_epoch(link, 3).unwrap();
    fleet.run().unwrap();
    let deposited = fleet.store().status(link).unwrap().available_bits;
    assert!(deposited > 1024, "the epoch must have distilled key");

    // …and the delivery API puts it on the network for two SAEs.
    let registry = Arc::new(SaeRegistry::new());
    registry
        .register(SaeProfile::new("master-sae", "tok-master"))
        .unwrap();
    registry
        .register(SaeProfile::new("slave-sae", "tok-slave"))
        .unwrap();
    registry
        .register(SaeProfile::new("intruder-sae", "tok-intruder"))
        .unwrap();
    registry.entitle("master-sae", "slave-sae", link).unwrap();
    let server = ApiServer::start(
        fleet.store_handle(),
        Arc::clone(&registry),
        ApiConfig::default(),
    )
    .unwrap();
    let addr = server.local_addr();

    // Master reserves over TCP until the epoch is drained below one key.
    let master = ApiClient::new(addr, "tok-master");
    let slave = ApiClient::new(addr, "tok-slave");
    let key_size = 256usize;
    let mut master_bits = BitVec::new();
    let mut slave_bits = BitVec::new();
    while master.status("slave-sae").unwrap().available_bits >= key_size as u64 {
        let reserved = master.enc_keys("slave-sae", 1, key_size).unwrap();
        let ids: Vec<KeyId> = reserved.iter().map(|k| k.id).collect();
        for key in &reserved {
            master_bits.extend_from(&key.bits);
        }
        for key in slave.dec_keys("master-sae", &ids).unwrap() {
            slave_bits.extend_from(&key.bits);
        }
    }
    assert!(master_bits.len() as u64 > deposited - key_size as u64);
    assert_eq!(
        master_bits, slave_bits,
        "master- and slave-side key material must be bit-identical"
    );
    // The drained material is the store's deposit stream, in order: an
    // in-process drain of the remainder confirms the cursor position.
    let status = fleet.store().status(link).unwrap();
    assert!(status.balances());
    assert_eq!(
        status.delivered_bits,
        master_bits.len() as u64,
        "every delivered bit went through the API exactly once"
    );

    // An unentitled SAE is refused with the 401-shaped error.
    let intruder = ApiClient::new(addr, "tok-intruder");
    match intruder.enc_keys("slave-sae", 1, key_size) {
        Err(QkdError::Unauthorized { .. }) => {}
        other => panic!("expected a 401-shaped refusal, got {other:?}"),
    }

    // The ledger still reconciles bit-for-bit against the session summary.
    let ledger = fleet.reconcile().unwrap();
    assert_eq!(ledger.total_delivered(), master_bits.len() as u64);
    assert_eq!(
        ledger.total_deposited(),
        fleet.summary(link).unwrap().secret_bits_out
    );
    server.shutdown();
}

#[test]
fn error_types_are_stable_across_the_stack() {
    // Errors surfaced by the umbrella crate should be the shared QkdError.
    let mut src = CorrelatedKeySource::new(4096, 0.2, 17).unwrap();
    let block = src.next_block();
    let mut processor = PostProcessor::new(PostProcessingConfig::for_block_size(4096), 19).unwrap();
    match processor.process_sifted_block(&block.alice, &block.bob) {
        Err(QkdError::QberAboveThreshold { qber, threshold }) => {
            assert!(qber > threshold);
        }
        other => panic!("expected QberAboveThreshold, got {other:?}"),
    }
}

/// Distils `blocks` full blocks of one link (the fleet's engine config, the
/// fleet's key source) and returns the per-block key fingerprints plus the
/// time-free ledger.
fn golden_link(qber: f64, block_bits: usize, seed: u64, blocks: usize) -> (Vec<u32>, String) {
    let spec = LinkSpec::new("golden", qber, block_bits, seed);
    let mut source = spec.key_source().unwrap();
    let mut processor = spec.solo_processor().unwrap();
    let (mut alice, mut bob) = (BitVec::new(), BitVec::new());
    for _ in 0..blocks {
        let blk = source.next_block();
        alice.extend_from(&blk.alice);
        bob.extend_from(&blk.bob);
    }
    let results = processor
        .process_detections(&detection_events(&alice, &bob))
        .unwrap();
    let prints = results
        .iter()
        .map(|r| r.secret_key.bits.fingerprint())
        .collect();
    (prints, format!("{:?}", processor.summary().accounting()))
}

#[test]
fn fixed_seed_keys_and_ledger_match_the_committed_golden() {
    // Recorded at the commit before the Toeplitz kernel moved onto the
    // carry-less-multiply unit: the hash is the same function under the same
    // seeds, so keys, abort pattern and ledger must repeat to the bit.
    let (prints, ledger) = golden_link(0.025, 4096, 1307, 4);
    assert_eq!(
        prints, GOLDEN_4096.0,
        "4096-bit link: {prints:#x?} / {ledger}"
    );
    assert_eq!(ledger, GOLDEN_4096.1);
    let (prints, ledger) = golden_link(0.01, 16_384, 2203, 3);
    assert_eq!(
        prints, GOLDEN_16384.0,
        "16384-bit link: {prints:#x?} / {ledger}"
    );
    assert_eq!(ledger, GOLDEN_16384.1);
}

/// Re-recorded when the 4096-bit codes became quasi-cyclic: blocks 1–2
/// reconcile on the rate-0.75 code (1024 checks before and after) and keep
/// their keys; blocks 3–4 on the rate-0.70 code, whose checks went 1229 →
/// 1216, so each discloses 13 syndrome bits less and distils 13 more.
const GOLDEN_4096: (&[u32], &str) = (
    &[0xdd2c_59e1, 0x19bd_e281, 0x7031_707d, 0x791d_2386],
    "SessionAccounting { blocks_ok: 4, blocks_failed: 0, sifted_bits_in: 16384, \
     secret_bits_out: 2943, disclosed_bits: 7192, auth_bits_consumed: 2560, carried_bits: 0, \
     discarded_bits: 0, round_trips: 16, messages: 24, payload_bits: 11952 }",
);
const GOLDEN_16384: (&[u32], &str) = (
    &[0xee62_fb58, 0x202f_314c, 0xc5fc_9960],
    "SessionAccounting { blocks_ok: 3, blocks_failed: 0, sifted_bits_in: 49152, \
     secret_bits_out: 24090, disclosed_bits: 14862, auth_bits_consumed: 1920, carried_bits: 0, \
     discarded_bits: 0, round_trips: 12, messages: 18, payload_bits: 23964 }",
);
