//! One function per table/figure of the reconstructed evaluation.

use std::time::Duration;

use qkd_cascade::{CascadeConfig, CascadeReconciler};
use qkd_core::{
    verify_keys, BlockResult, ChannelModel, PostProcessingConfig, PostProcessor, ReconcilerScratch,
    VerificationConfig,
};
use qkd_hetero::{
    decide_placement, kernel_for_stage, modeled_time, CostCalibrator, DeviceKind, KernelKind,
    LinkPlacement, StageMetrics, ThroughputReport,
};
use qkd_ldpc::{
    DecoderConfig, DecoderScratch, LdpcReconciler, ParityCheckMatrix, ReconcilerConfig,
    SyndromeDecoder,
};
use qkd_privacy::finite_key::secret_length;
use qkd_privacy::{asymptotic_secret_fraction, FiniteKeyParams, ToeplitzHash, ToeplitzStrategy};
use qkd_simulator::{CorrelatedKeySource, LinkConfig};
use qkd_types::key::binary_entropy;
use qkd_types::rng::derive_rng;
use qkd_types::{BitVec, PulseClass};

use crate::{header, mbps, timed};

/// Table 1 — per-stage CPU throughput breakdown.
pub fn table1() {
    header(
        "Table 1: per-stage CPU throughput (64 kbit blocks)",
        &format!(
            "{:<10} {:>8} {:<22} {:>12} {:>12}",
            "preset", "QBER%", "stage", "ms/block", "Mbit/s"
        ),
    );
    let block = 65_536usize;
    for preset in [
        qkd_simulator::WorkloadPreset::Metro,
        qkd_simulator::WorkloadPreset::LongHaul,
    ] {
        let mut src = CorrelatedKeySource::from_preset(preset, block, 11).unwrap();
        let blk = src.next_block();
        let mut config = PostProcessingConfig::for_block_size(block);
        config.trust_external_qber = true;
        let mut proc = PostProcessor::new(config, 3).unwrap();
        let result = proc.process_sifted_block(&blk.alice, &blk.bob).unwrap();
        for (stage, time) in &result.stage_times {
            println!(
                "{:<10} {:>8.2} {:<22} {:>12.3} {:>12.2}",
                preset.label(),
                preset.qber() * 100.0,
                stage.name(),
                time.as_secs_f64() * 1e3,
                mbps(block as f64, *time)
            );
        }
    }
    println!("(expected shape: reconciliation dominates, privacy amplification second)");
}

/// Table 2 — LDPC decoder throughput by device and block size. The cpu row
/// times one host decode; the accelerator rows are the static cost profiles
/// (a calibrator with no samples) of the same block.
pub fn table2() {
    header(
        "Table 2: LDPC decode throughput by device (cpu measured, accelerators modeled)",
        &format!(
            "{:<10} {:<10} {:>14} {:>14}",
            "block", "device", "time (ms)", "Mbit/s"
        ),
    );
    let calibrator = CostCalibrator::new();
    for &block in &[4096usize, 16_384, 65_536] {
        let matrix = ParityCheckMatrix::for_rate(block, 0.5, 21).unwrap();
        let decoder = SyndromeDecoder::new(&matrix, DecoderConfig::default()).unwrap();
        let mut rng = derive_rng(23, "table2");
        let truth = BitVec::random_with_density(&mut rng, block, 0.03);
        let syndrome = matrix.syndrome(&truth);
        let (_, measured) = timed(|| decoder.decode(&syndrome, 0.03, &[]).unwrap());
        for device in [DeviceKind::Cpu, DeviceKind::SimGpu, DeviceKind::SimFpga] {
            let t = match device {
                DeviceKind::Cpu => measured,
                _ => calibrator.predict(&device.cost_model(), KernelKind::LdpcDecode, block),
            };
            println!(
                "{:<10} {:<10} {:>14.3} {:>14.2}",
                block,
                device.name(),
                t.as_secs_f64() * 1e3,
                mbps(block as f64, t)
            );
        }
    }
    println!("(expected shape: GPU >> CPU at large blocks; GPU overhead visible at 4 kbit)");
}

/// Table 3 — reconciliation efficiency: Cascade vs rate-adaptive LDPC.
pub fn table3() {
    header(
        "Table 3: reconciliation efficiency f and interactivity",
        &format!(
            "{:<8} {:<10} {:>8} {:>10} {:>12} {:>12}",
            "QBER%", "protocol", "f", "leak", "round trips", "messages"
        ),
    );
    let block = 16_384usize;
    for &qber in &[0.01, 0.025, 0.05, 0.08] {
        let mut src = CorrelatedKeySource::new(block, qber, 31).unwrap();
        let blk = src.next_block();

        let ldpc = LdpcReconciler::new(ReconcilerConfig::for_block_size(block)).unwrap();
        if let Ok(out) = ldpc.reconcile(&blk.alice, &blk.bob, qber) {
            println!(
                "{:<8.1} {:<10} {:>8.2} {:>10} {:>12} {:>12}",
                qber * 100.0,
                "ldpc",
                out.efficiency(block).unwrap_or(f64::NAN),
                out.leaked_bits,
                1,
                out.messages
            );
        } else {
            println!(
                "{:<8.1} {:<10} {:>8} {:>10} {:>12} {:>12}",
                qber * 100.0,
                "ldpc",
                "fail",
                "-",
                "-",
                "-"
            );
        }

        let cascade = CascadeReconciler::new(CascadeConfig::default());
        let mut rng = derive_rng(33, "table3");
        let out = cascade
            .reconcile(&blk.alice, &blk.bob, qber, &mut rng)
            .unwrap();
        println!(
            "{:<8.1} {:<10} {:>8.2} {:>10} {:>12} {:>12}",
            qber * 100.0,
            "cascade",
            out.efficiency(block).unwrap_or(f64::NAN),
            out.leaked_bits,
            out.round_trips,
            out.messages
        );
    }
    println!("(expected shape: Cascade f lower, but tens of round trips vs one)");
}

/// Figure 1 — secret-key rate vs fibre distance.
pub fn fig1() {
    header(
        "Figure 1: secret key rate vs distance (decoy-state BB84)",
        &format!(
            "{:<8} {:>10} {:>16} {:>18}",
            "km", "QBER%", "asympt b/pulse", "finite (1e6 sifted)"
        ),
    );
    let params = FiniteKeyParams::default();
    for &d in &[0.0, 25.0, 50.0, 75.0, 100.0, 125.0, 150.0, 175.0, 200.0] {
        let theory = LinkConfig::at_distance(d).theory();
        let qber = theory.qber(PulseClass::Signal);
        let asym = theory.asymptotic_key_rate(1.16);
        let n = 1_000_000usize;
        let leak = (1.2 * binary_entropy(qber) * n as f64) as usize;
        let finite = secret_length(n, (qber + 0.003).min(0.5), leak, 64, &params)
            .map(|s| s.secret_fraction)
            .unwrap_or(0.0);
        println!(
            "{:<8.0} {:>10.2} {:>16.3e} {:>18.4}",
            d,
            qber * 100.0,
            asym,
            finite
        );
    }
    println!("(expected shape: exponential decay, zero beyond ~170-200 km)");
}

/// Distils [`CostCalibrator::MIN_SAMPLES`] blocks of `block` bits on the
/// host and fits a fresh calibrator to their measured stage times — the
/// warm-up a fleet link goes through before placement may leave the CPU.
/// Returns the fit and the last block's result.
fn calibrate_on_host(block: usize) -> (CostCalibrator, BlockResult) {
    let mut config = PostProcessingConfig::for_block_size(block);
    config.trust_external_qber = true;
    let mut proc = PostProcessor::new(config, 5).unwrap();
    let mut src = CorrelatedKeySource::new(block, 0.02, 41).unwrap();
    let mut report = ThroughputReport::default();
    let mut last = None;
    for _ in 0..CostCalibrator::MIN_SAMPLES {
        let blk = src.next_block();
        let result = proc.process_sifted_block(&blk.alice, &blk.bob).unwrap();
        for (label, host) in &result.stage_times {
            let mut metrics = StageMetrics::default();
            metrics.record(*host, *host, block, block);
            report.record_stage(label.name(), metrics);
        }
        last = Some(result);
    }
    let mut calibrator = CostCalibrator::new();
    calibrator.observe_report(&report);
    (calibrator, last.expect("MIN_SAMPLES is positive"))
}

/// Figure 2 — end-to-end post-processing throughput vs block size per placement.
/// Each block size runs on the host only; the accelerator rows are the same
/// measured stage times with the decode and the hash re-priced by the
/// calibrated cost model ([`qkd_hetero::modeled_time`]).
pub fn fig2() {
    header(
        "Figure 2: end-to-end throughput vs block size (cpu measured, accelerators modeled)",
        &format!(
            "{:<10} {:<16} {:>16} {:>16}",
            "block", "placement", "block time (ms)", "Mbit/s"
        ),
    );
    for &block in &[8_192usize, 32_768, 131_072] {
        let (calibrator, result) = calibrate_on_host(block);
        for placement in [
            LinkPlacement::Cpu,
            LinkPlacement::Whole(DeviceKind::SimGpu),
            LinkPlacement::Whole(DeviceKind::SimFpga),
        ] {
            let t: Duration = result
                .stage_times
                .iter()
                .map(|(label, host)| {
                    kernel_for_stage(label.name()).map_or(*host, |kind| {
                        modeled_time(&calibrator, placement, kind, block, *host)
                    })
                })
                .sum();
            println!(
                "{:<10} {:<16} {:>16.3} {:>16.2}",
                block,
                placement.label(),
                t.as_secs_f64() * 1e3,
                mbps(block as f64, t)
            );
        }
    }
    println!("(expected shape: accelerators pull ahead as the block grows)");
}

/// Figure 3 — Toeplitz privacy-amplification throughput by strategy, with
/// the simulated GPU's static cost profile for the same hash alongside.
pub fn fig3() {
    header(
        "Figure 3: Toeplitz hashing throughput (compress to 50%; naive/clmul measured, sim-gpu modeled)",
        &format!(
            "{:<10} {:<10} {:>14} {:>14}",
            "input", "strategy", "time (ms)", "Mbit/s"
        ),
    );
    let gpu = DeviceKind::SimGpu;
    let calibrator = CostCalibrator::new();
    for &n in &[16_384usize, 65_536, 262_144] {
        let mut rng = derive_rng(51, "fig3");
        let input = BitVec::random(&mut rng, n);
        let hash = ToeplitzHash::random(n, n / 2, &mut rng).unwrap();
        for (label, strategy) in [
            ("naive", ToeplitzStrategy::Naive),
            ("clmul", ToeplitzStrategy::Clmul),
        ] {
            // The naive strategy is quadratic; skip it at the largest size to
            // keep the harness fast, mirroring how the paper reports "did not
            // finish" entries.
            if strategy == ToeplitzStrategy::Naive && n > 65_536 {
                println!("{:<10} {:<10} {:>14} {:>14}", n, label, "(skipped)", "-");
                continue;
            }
            let (_, t) = timed(|| hash.hash(&input, strategy).unwrap());
            println!(
                "{:<10} {:<10} {:>14.3} {:>14.2}",
                n,
                label,
                t.as_secs_f64() * 1e3,
                mbps(n as f64, t)
            );
        }
        let t = calibrator.predict(&gpu.cost_model(), KernelKind::ToeplitzHash, n);
        println!(
            "{:<10} {:<10} {:>14.3} {:>14.2}",
            n,
            gpu.name(),
            t.as_secs_f64() * 1e3,
            mbps(n as f64, t)
        );
    }
    println!("(expected shape: naive collapses, clmul scales, GPU advantage grows with n)");
}

/// Figure 4 — placement table: calibrated cost of the two offloadable
/// kernels (LDPC decode + Toeplitz hash) under every placement the fleet
/// scheduler considers, per block size, and the one it picks.
pub fn fig4() {
    let candidates = [
        LinkPlacement::Cpu,
        LinkPlacement::DecodeOnly(DeviceKind::SimGpu),
        LinkPlacement::DecodeOnly(DeviceKind::SimFpga),
        LinkPlacement::Whole(DeviceKind::SimGpu),
        LinkPlacement::Whole(DeviceKind::SimFpga),
    ];
    let mut columns = format!("{:<10}", "block");
    for c in &candidates {
        columns.push_str(&format!(" {:>16}", c.label()));
    }
    columns.push_str("  decision");
    header(
        "Figure 4: modeled decode + hash cost per placement (ms; fit warmed on 16 kbit host blocks)",
        &columns,
    );
    let (calibrator, _) = calibrate_on_host(16_384);
    let cpu = DeviceKind::Cpu.cost_model();
    for &block in &[4_096usize, 16_384, 65_536, 262_144] {
        let cost = |placement| -> Duration {
            [KernelKind::LdpcDecode, KernelKind::ToeplitzHash]
                .into_iter()
                .map(|kind| {
                    let host = calibrator.predict(&cpu, kind, block);
                    modeled_time(&calibrator, placement, kind, block, host)
                })
                .sum()
        };
        let decision = decide_placement(&calibrator, block);
        let cheapest = cost(decision);
        let mut row = format!("{block:<10}");
        for c in candidates {
            let t = cost(c);
            assert!(
                cheapest <= t,
                "the decision must be the cheapest candidate at {block} bits"
            );
            row.push_str(&format!(" {:>16.4}", t.as_secs_f64() * 1e3));
        }
        println!("{row}  {}", decision.label());
    }
    println!("(expected shape: every offload beats the host; the GPU's launch cost keeps the hash off it until blocks grow)");
}

/// Figure 5 — offload crossover: per-block latency vs block size per device.
pub fn fig5() {
    header(
        "Figure 5: LDPC offload latency crossover",
        &format!(
            "{:<12} {:>14} {:>14} {:>14}",
            "block", "cpu (model)", "gpu (model)", "fpga (model)"
        ),
    );
    let [cpu, gpu, fpga] =
        [DeviceKind::Cpu, DeviceKind::SimGpu, DeviceKind::SimFpga].map(DeviceKind::cost_model);
    let mut crossover: Option<usize> = None;
    for exp in 10..=24 {
        let n = 1usize << exp;
        let t_cpu = cpu.predict(KernelKind::LdpcDecode, n);
        let t_gpu = gpu.predict(KernelKind::LdpcDecode, n);
        let t_fpga = fpga.predict(KernelKind::LdpcDecode, n);
        if crossover.is_none() && t_gpu < t_cpu {
            crossover = Some(n);
        }
        println!(
            "{:<12} {:>14.1?} {:>14.1?} {:>14.1?}",
            n, t_cpu, t_gpu, t_fpga
        );
    }
    match crossover {
        Some(n) => println!("GPU overtakes the CPU at block size {n} bits"),
        None => println!("GPU never overtakes the CPU in this sweep"),
    }
}

/// Figure 6 — Cascade interactivity cost vs channel RTT.
pub fn fig6() {
    header(
        "Figure 6: reconciliation time vs channel RTT (16 kbit, 2.5% QBER)",
        &format!(
            "{:<12} {:>12} {:>18} {:>18}",
            "RTT (ms)", "protocol", "channel time (ms)", "eff. Mbit/s"
        ),
    );
    let block = 16_384usize;
    let mut src = CorrelatedKeySource::new(block, 0.025, 61).unwrap();
    let blk = src.next_block();
    let ldpc = LdpcReconciler::new(ReconcilerConfig::for_block_size(block)).unwrap();
    let ldpc_out = ldpc.reconcile(&blk.alice, &blk.bob, 0.025).unwrap();
    let cascade = CascadeReconciler::new(CascadeConfig::default());
    let mut rng = derive_rng(63, "fig6");
    let cas_out = cascade
        .reconcile(&blk.alice, &blk.bob, 0.025, &mut rng)
        .unwrap();

    for &rtt_ms in &[0.25f64, 1.0, 5.0, 20.0] {
        let ch = ChannelModel::with_latency(Duration::from_secs_f64(rtt_ms / 2.0 / 1e3));
        let t_ldpc = ch.exchange_time(1, ldpc_out.messages, ldpc_out.leaked_bits);
        let t_cas = ch.exchange_time(
            cas_out.round_trips,
            cas_out.messages,
            cas_out.leaked_bits * 2,
        );
        println!(
            "{:<12.2} {:>12} {:>18.2} {:>18.2}",
            rtt_ms,
            "ldpc",
            t_ldpc.as_secs_f64() * 1e3,
            mbps(block as f64, t_ldpc)
        );
        println!(
            "{:<12.2} {:>12} {:>18.2} {:>18.2}",
            rtt_ms,
            "cascade",
            t_cas.as_secs_f64() * 1e3,
            mbps(block as f64, t_cas)
        );
    }
    println!(
        "(cascade used {} round trips vs 1 for LDPC; its effective rate collapses as RTT grows)",
        cas_out.round_trips
    );
}

/// Figure 7 — finite-key secret fraction vs block size.
pub fn fig7() {
    header(
        "Figure 7: finite-key secret fraction vs sifted block size",
        &format!(
            "{:<12} {:>10} {:>14} {:>14}",
            "n (bits)", "QBER%", "finite frac", "asymptotic"
        ),
    );
    let params = FiniteKeyParams::default();
    for &qber in &[0.01, 0.03, 0.05] {
        for &n in &[10_000usize, 100_000, 1_000_000, 10_000_000] {
            let leak = (1.2 * binary_entropy(qber) * n as f64) as usize;
            let frac = secret_length(
                n,
                qber + (23.0 / (2.0 * n as f64)).sqrt(),
                leak,
                64,
                &params,
            )
            .map(|s| s.secret_fraction)
            .unwrap_or(0.0);
            println!(
                "{:<12} {:>10.1} {:>14.4} {:>14.4}",
                n,
                qber * 100.0,
                frac,
                asymptotic_secret_fraction(qber, 1.2)
            );
        }
    }
    println!("(expected shape: fraction grows with n toward the asymptote; higher QBER lowers it)");
}

/// Quick smoke benchmark: exercises one representative workload per stage at
/// reduced sizes and prints one machine-readable JSON document to stdout.
///
/// Designed for CI: the whole run finishes in seconds and the output schema
/// (`qkd-bench-smoke/v1`) is stable so successive runs can be collected into
/// a benchmark trajectory.
///
/// # Panics
///
/// On a host with `PCLMULQDQ`, panics when either Toeplitz row runs below
/// its floor; panics when the LDPC decode row was not dispatched to the
/// circulant-lane kernel or, on a host with AVX2, runs below its floor — the
/// gates CI's blocking `test` job relies on.
pub fn smoke() {
    let total_start = std::time::Instant::now();
    let block = 16_384usize;
    let qber = 0.02f64;
    let mut results: Vec<(&str, f64, f64)> = Vec::new(); // (name, ms, mbit/s)

    // LDPC syndrome decode, warm scratch, best of a few calls: the row
    // carries a floor, so one cold-cache shot must not decide it.
    let matrix = ParityCheckMatrix::for_rate(block, 0.5, 91).unwrap();
    let decoder = SyndromeDecoder::new(&matrix, DecoderConfig::default()).unwrap();
    let mut rng = derive_rng(93, "smoke");
    let truth = BitVec::random_with_density(&mut rng, block, qber);
    let syndrome = matrix.syndrome(&truth);
    #[cfg(target_arch = "x86_64")]
    let avx2 = std::arch::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    let avx2 = false;
    let circulant_lane = qkd_obs::registry().counter(
        "qkd_ldpc_kernel_dispatch_total",
        &[("kernel", if avx2 { "qc-avx2" } else { "qc-scalar" })],
    );
    let circulant_lane_before = circulant_lane.value();
    let mut scratch = DecoderScratch::new();
    let t = best_of(
        || {
            let out = decoder
                .decode_with_scratch(&syndrome, qber, &[], &mut scratch)
                .unwrap();
            assert!(out.converged, "smoke decode must converge");
        },
        4,
        3,
    );
    let decode_mbps = mbps(block as f64, t);
    results.push(("ldpc_decode_16k", t.as_secs_f64() * 1e3, decode_mbps));

    // Rate-adaptive LDPC reconciliation.
    let mut src = CorrelatedKeySource::new(block, qber, 95).unwrap();
    let blk = src.next_block();
    let ldpc = LdpcReconciler::new(ReconcilerConfig::for_block_size(block)).unwrap();
    let (_, t) = timed(|| ldpc.reconcile(&blk.alice, &blk.bob, qber).unwrap());
    results.push((
        "ldpc_reconcile_16k",
        t.as_secs_f64() * 1e3,
        mbps(block as f64, t),
    ));

    // Cascade reconciliation.
    let cascade = CascadeReconciler::new(CascadeConfig::default());
    let mut rng = derive_rng(97, "smoke-cascade");
    let (_, t) = timed(|| {
        cascade
            .reconcile(&blk.alice, &blk.bob, qber, &mut rng)
            .unwrap()
    });
    results.push((
        "cascade_reconcile_16k",
        t.as_secs_f64() * 1e3,
        mbps(block as f64, t),
    ));

    // Toeplitz privacy amplification (clmul strategy), best of a few calls:
    // the row carries a floor, so one cold-cache shot must not decide it.
    let n = 65_536usize;
    let mut rng = derive_rng(99, "smoke-toeplitz");
    let input = BitVec::random(&mut rng, n);
    let hash = ToeplitzHash::random(n, n / 2, &mut rng).unwrap();
    let t = best_of(
        || {
            std::hint::black_box(hash.hash(&input, ToeplitzStrategy::Clmul).unwrap());
        },
        2,
        3,
    );
    let toeplitz_mbps = mbps(n as f64, t);
    results.push(("toeplitz_clmul_64k", t.as_secs_f64() * 1e3, toeplitz_mbps));

    // Error verification as the engine runs it: one 64-bit Toeplitz tag per
    // party over a 16 384-bit key (seed draw included).
    let key = BitVec::random(&mut rng, block);
    let t = best_of(
        || {
            let outcome = verify_keys(&key, &key, &VerificationConfig::default(), &mut rng);
            assert!(outcome.unwrap().matched);
        },
        4,
        3,
    );
    let verify_mbps = mbps(block as f64, t);
    results.push(("verify_tag_16k", t.as_secs_f64() * 1e3, verify_mbps));

    // Full post-processing block path.
    let mut config = PostProcessingConfig::for_block_size(block);
    config.trust_external_qber = true;
    let mut proc = PostProcessor::new(config, 3).unwrap();
    let (_, t) = timed(|| proc.process_sifted_block(&blk.alice, &blk.bob).unwrap());
    results.push((
        "full_block_16k",
        t.as_secs_f64() * 1e3,
        mbps(block as f64, t),
    ));

    // One batch of twelve blocks at width 1 and at width nproc (report-only:
    // what fanning a batch out does depends on the cores this host really
    // has). Warm, interleaved, best of five; two engines on one seed fed the
    // same batches must hand back the same keys at every repetition.
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let blocks = 12usize;
    let events = correlated_events(blocks * block, qber, 51);
    let mut config = PostProcessingConfig::for_block_size(block);
    config.sampling.sample_fraction = 0.15;
    let mut narrow = PostProcessor::new(config.clone(), 47).unwrap();
    let mut wide = PostProcessor::new(config, 47).unwrap();
    let mut scratches: Vec<ReconcilerScratch> =
        (0..nproc).map(|_| ReconcilerScratch::new()).collect();
    let (mut t_narrow, mut t_wide) = (Duration::MAX, Duration::MAX);
    for rep in 0..6 {
        let (one, t1) = timed(|| {
            narrow
                .process_detections_with_scratch(&events, &mut scratches[..1])
                .unwrap()
        });
        let (many, tn) = timed(|| {
            wide.process_detections_with_scratch(&events, &mut scratches)
                .unwrap()
        });
        assert!(
            one.iter()
                .map(|r| &r.secret_key.bits)
                .eq(many.iter().map(|r| &r.secret_key.bits)),
            "width {nproc} keys must be bit-identical to width 1"
        );
        // The first pass warms scratches and caches.
        if rep > 0 {
            t_narrow = t_narrow.min(t1);
            t_wide = t_wide.min(tn);
        }
    }
    assert_eq!(narrow.summary().accounting(), wide.summary().accounting());
    for (name, t) in [("engine_batch_w1", t_narrow), ("engine_batch_wN", t_wide)] {
        let bits = (blocks * block) as f64;
        results.push((name, t.as_secs_f64() * 1e3, mbps(bits, t)));
    }

    // Hand-rolled JSON so the harness stays dependency-free.
    let mut json = format!(
        "{{\n  \"schema\": \"qkd-bench-smoke/v1\",\n  \"nproc\": {nproc},\n  \"results\": [\n"
    );
    for (i, (name, ms, mbit)) in results.iter().enumerate() {
        let comma = if i + 1 < results.len() { "," } else { "" };
        json.push_str(&format!(
            "    {{\"name\": \"{name}\", \"ms\": {ms:.4}, \"mbit_per_s\": {mbit:.3}}}{comma}\n"
        ));
    }
    json.push_str(&format!(
        "  ],\n  \"total_wall_s\": {:.3}\n}}",
        total_start.elapsed().as_secs_f64()
    ));
    println!("{json}");

    // Gate: on a host with a carry-less-multiply unit both Toeplitz rows must
    // run at rates no software multiply loop reaches (the portable 64-step
    // shift/mask form, ~77 ns a multiply, manages ~1.6 Mbit/s on the first
    // row and ~140 on the second), so a silent fall back to it fails here.
    //
    // Likewise the decode row: every 16 384-bit code is quasi-cyclic at
    // circulant 64, so the decodes must have been counted under the
    // circulant-lane kernel this host has — a silent fall back to the CSR
    // sweeps fails here whatever the clock says — and with AVX2 they must
    // run at its rate.
    assert!(
        circulant_lane.value() > circulant_lane_before,
        "ldpc_decode_16k was not dispatched to the circulant-lane kernel"
    );
    if avx2 {
        assert!(
            decode_mbps >= LDPC_DECODE_FLOOR_MBPS,
            "ldpc_decode_16k ran at {decode_mbps:.1} Mbit/s, floor {LDPC_DECODE_FLOOR_MBPS}"
        );
    }
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("pclmulqdq") {
        assert!(
            toeplitz_mbps >= TOEPLITZ_FLOOR_MBPS,
            "toeplitz_clmul_64k ran at {toeplitz_mbps:.1} Mbit/s, floor {TOEPLITZ_FLOOR_MBPS}"
        );
        assert!(
            verify_mbps >= VERIFY_FLOOR_MBPS,
            "verify_tag_16k ran at {verify_mbps:.1} Mbit/s, floor {VERIFY_FLOOR_MBPS}"
        );
    }
}

/// Floor on `ldpc_decode_16k` (rate 1/2, 2 % errors, two iterations) where
/// AVX2 is present: about half of the 95–115 Mbit/s the circulant-lane kernel
/// measures on the 2-core sandbox, and above the 38–40 Mbit/s the gather
/// quads it replaced on these codes measure there.
const LDPC_DECODE_FLOOR_MBPS: f64 = 50.0;

/// Floor on `toeplitz_clmul_64k` (65 536 → 32 768 bits) where `PCLMULQDQ` is
/// present.
#[cfg(target_arch = "x86_64")]
const TOEPLITZ_FLOOR_MBPS: f64 = 50.0;

/// Floor on `verify_tag_16k` where `PCLMULQDQ` is present.
#[cfg(target_arch = "x86_64")]
const VERIFY_FLOOR_MBPS: f64 = 500.0;

/// Smallest per-call duration over `batches` batches of `reps` calls each —
/// the noise-robust point estimate the smoke rows and gates report.
fn best_of<F: FnMut()>(mut f: F, reps: u32, batches: u32) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..batches {
        let start = std::time::Instant::now();
        for _ in 0..reps {
            f();
        }
        best = best.min(start.elapsed() / reps);
    }
    best
}

/// Telemetry-overhead gate: measures the decoder hot path (the most
/// instrumented inner loop in the workspace) with the `qkd-obs` registry
/// globally disabled versus enabled, and asserts the enabled run keeps at
/// least 99% of the disabled throughput. Prints one machine-readable JSON
/// document (`qkd-bench-obs/v1`).
///
/// Trials are interleaved (off, on, off, on, …) so slow drift in machine
/// load hits both sides equally; each side keeps its best-of-minimum. The
/// harness runs in its own process, so flipping the process-global enable
/// flag cannot race any other telemetry consumer.
pub fn smoke_obs_overhead() {
    let total_start = std::time::Instant::now();
    let qber = 0.02f64;
    let block = 8192usize;
    let matrix = ParityCheckMatrix::for_rate(block, 0.5, 91).unwrap();
    let mut rng = derive_rng(93, "smoke-obs-overhead");
    let truth = BitVec::random_with_density(&mut rng, matrix.num_vars(), qber);
    let syndrome = matrix.syndrome(&truth);
    let decoder = SyndromeDecoder::new(&matrix, DecoderConfig::default()).unwrap();
    let mut scratch = DecoderScratch::new();

    // Warm up caches and verify the workload converges before timing it.
    let outcome = decoder
        .decode_with_scratch(&syndrome, qber, &[], &mut scratch)
        .unwrap();
    assert!(outcome.converged, "benchmark decode must converge");

    let mut disabled = Duration::MAX;
    let mut enabled = Duration::MAX;
    for _ in 0..7 {
        qkd_obs::set_enabled(false);
        disabled = disabled.min(best_of(
            || {
                let _ = decoder
                    .decode_with_scratch(&syndrome, qber, &[], &mut scratch)
                    .unwrap();
            },
            4,
            3,
        ));
        qkd_obs::set_enabled(true);
        enabled = enabled.min(best_of(
            || {
                let _ = decoder
                    .decode_with_scratch(&syndrome, qber, &[], &mut scratch)
                    .unwrap();
            },
            4,
            3,
        ));
    }
    qkd_obs::set_enabled(true);

    let n_bits = matrix.num_vars() as f64;
    let off_mbps = mbps(n_bits, disabled);
    let on_mbps = mbps(n_bits, enabled);
    let overhead = 1.0 - on_mbps / off_mbps;
    println!(
        "{{\n  \"schema\": \"qkd-bench-obs/v1\",\n  \"block\": {block},\n  \"qber\": {qber},\n  \"iterations\": {},\n  \"disabled_ms\": {:.4},\n  \"enabled_ms\": {:.4},\n  \"disabled_mbit_per_s\": {:.2},\n  \"enabled_mbit_per_s\": {:.2},\n  \"overhead_fraction\": {overhead:.4},\n  \"total_wall_s\": {:.3}\n}}",
        outcome.iterations,
        disabled.as_secs_f64() * 1e3,
        enabled.as_secs_f64() * 1e3,
        off_mbps,
        on_mbps,
        total_start.elapsed().as_secs_f64(),
    );
    assert!(
        on_mbps >= off_mbps * 0.99,
        "telemetry overhead exceeds 1%: {off_mbps:.2} Mbit/s disabled vs {on_mbps:.2} Mbit/s enabled"
    );
}

/// A deterministic detection stream carrying correlated bits with roughly
/// `qber` disagreement; sifting retains every bit, so the engine frames
/// exactly `len / block_size` blocks.
fn correlated_events(len: usize, qber: f64, seed: u64) -> Vec<qkd_types::DetectionEvent> {
    let blk = CorrelatedKeySource::new(len, qber, seed)
        .unwrap()
        .next_block();
    qkd_simulator::detection_events(&blk.alice, &blk.bob)
}

/// Runs one fleet configuration to completion: builds the links, submits the
/// arrival schedule (recording which epochs were admitted), and drains the
/// pool. Returns the report plus the accepted per-link epoch sizes so callers
/// can replay each link solo.
fn run_fleet(
    workload: &qkd_simulator::FleetWorkload,
    config: qkd_manager::FleetConfig,
    epochs: usize,
    mean_blocks: usize,
) -> (
    qkd_manager::LinkManager,
    qkd_manager::FleetReport,
    Vec<Vec<usize>>,
) {
    let mut fleet = qkd_manager::LinkManager::new(config).unwrap();
    let ids: Vec<usize> = workload
        .specs()
        .iter()
        .map(|s| {
            fleet
                .add_link(qkd_manager::LinkSpec::from_fleet(s))
                .unwrap()
        })
        .collect();
    let mut accepted: Vec<Vec<usize>> = vec![Vec::new(); workload.num_links()];
    for arrival in workload.bursty_arrivals(epochs, mean_blocks) {
        if arrival.blocks == 0 {
            continue;
        }
        if fleet
            .submit_epoch(ids[arrival.link], arrival.blocks)
            .unwrap()
            .accepted()
        {
            accepted[arrival.link].push(arrival.blocks);
        }
    }
    let report = fleet.run().unwrap();
    (fleet, report, accepted)
}

/// Scheduling weights for the policy-comparison cells: one premium link that
/// bought a 4× pool share next to three standard links.
const POLICY_WEIGHTS: [f64; 4] = [4.0, 1.0, 1.0, 1.0];

/// Weighted Jain fairness floor the WFQ cell must clear under contention.
/// FIFO round-robin with the [`POLICY_WEIGHTS`] entitlements sits well below
/// this (≈0.81 with equal per-batch service), so the gate separates the
/// policies rather than merely passing both.
const WFQ_WEIGHTED_JAIN_FLOOR: f64 = 0.9;

/// Runs one policy-comparison cell: four uniform Metro links with the
/// [`POLICY_WEIGHTS`] entitlements on a single worker, a fixed arrival
/// schedule (`epochs` epochs of `blocks` blocks per link, no burstiness so
/// per-batch service is comparable), drained under the given queueing
/// policy and dispatch budget.
fn run_policy_cell(
    block: usize,
    seed: u64,
    policy: qkd_manager::SchedPolicy,
    budget: Option<usize>,
    epochs: usize,
    blocks: usize,
) -> qkd_manager::FleetReport {
    let config = qkd_manager::FleetConfig::default()
        .with_workers(1)
        .with_max_backlog(64)
        .with_policy(policy)
        .with_batch_budget(budget);
    let mut fleet = qkd_manager::LinkManager::new(config).unwrap();
    for (i, weight) in POLICY_WEIGHTS.iter().enumerate() {
        let spec = qkd_manager::LinkSpec::from_preset(
            qkd_simulator::WorkloadPreset::Metro,
            block,
            seed.wrapping_add(i as u64),
        )
        .with_weight(*weight);
        fleet.add_link(spec).unwrap();
    }
    for _ in 0..epochs {
        for link in 0..POLICY_WEIGHTS.len() {
            assert!(fleet.submit_epoch(link, blocks).unwrap().accepted());
        }
    }
    let report = fleet.run().unwrap();
    fleet.reconcile().expect("fleet ledger must reconcile");
    report
}

/// Fleet benchmark (`qkd-bench-fleet/v3`): many links share one bounded
/// worker pool under the cost-model scheduler, depositing into the key
/// store.
///
/// Three parts:
///
/// * **Determinism check** — every link of a mixed fleet (default config) is
///   replayed on a solo engine with the same seed; delivered keys must be
///   bit-identical (`keys_identical`), with the key-store ledger reconciled
///   exactly.
/// * **Policy cells** — FIFO vs WFQ on identical contended workloads
///   (a `batch_budget` stops each drain before backlogs empty, so service
///   shares are observable), plus one full WFQ drain. Gates: WFQ's weighted
///   Jain fairness must be ≥ [`WFQ_WEIGHTED_JAIN_FLOOR`] and must beat
///   FIFO's; in the full drain placement must leave the CPU after warm-up
///   and its modeled stage time must undercut the host stage time the same
///   run measured.
/// * **Grid sweep** — aggregate rate and fairness vs worker and link count.
pub fn smoke_fleet() {
    let total_start = std::time::Instant::now();
    let block = 8192usize;
    let epochs = 3usize;
    let mean_blocks = 2usize;
    let seed = 0xF1EE7u64;

    // Determinism + ledger check under the default config.
    let check_workload = qkd_simulator::FleetWorkload::mixed(4, block, seed).unwrap();
    let (fleet, _, accepted) = run_fleet(
        &check_workload,
        qkd_manager::FleetConfig::default()
            .with_workers(2)
            .with_max_backlog(64),
        epochs,
        mean_blocks,
    );
    for (link, spec) in check_workload.specs().iter().enumerate() {
        let link_spec = qkd_manager::LinkSpec::from_fleet(spec);
        let mut solo = link_spec.solo_processor().unwrap();
        let mut source = link_spec.key_source().unwrap();
        let mut expected = qkd_types::BitVec::new();
        for &blocks in &accepted[link] {
            let mut alice = qkd_types::BitVec::new();
            let mut bob = qkd_types::BitVec::new();
            for _ in 0..blocks {
                let blk = source.next_block();
                alice.extend_from(&blk.alice);
                bob.extend_from(&blk.bob);
            }
            let events = qkd_simulator::detection_events(&alice, &bob);
            for result in solo.process_detections(&events).unwrap() {
                expected.extend_from(&result.secret_key.bits);
            }
        }
        let status = fleet.store().status(link).unwrap();
        assert_eq!(
            status.deposited_bits,
            expected.len() as u64,
            "fleet and solo runs of link {link} must distil the same bits"
        );
        if !expected.is_empty() {
            let delivered = fleet.store().get_key(link, expected.len()).unwrap();
            assert_eq!(
                delivered.bits, expected,
                "fleet keys of link {link} must be bit-identical to solo"
            );
        }
        assert_eq!(
            fleet.summary(link).unwrap().accounting(),
            solo.summary().accounting(),
            "link {link} session accounting must match solo"
        );
    }
    fleet.reconcile().expect("fleet ledger must reconcile");

    // Policy cells: identical contended workloads under FIFO and WFQ. The
    // budget (half the submitted batches) stops each drain while every link
    // is still backlogged, so the service shares reflect the policy, not
    // exhaustion.
    let fair_budget = Some(POLICY_WEIGHTS.len() * epochs / 2);
    let fifo_fair = run_policy_cell(
        block,
        seed,
        qkd_manager::SchedPolicy::Fifo,
        fair_budget,
        epochs,
        mean_blocks,
    );
    let wfq_fair = run_policy_cell(
        block,
        seed,
        qkd_manager::SchedPolicy::Wfq,
        fair_budget,
        epochs,
        mean_blocks,
    );
    // One full drain: the calibrator warms up on the first blocks, placement
    // leaves the CPU, and the same report carries what the host measured and
    // what the placed kernels are modeled to cost.
    let wfq_full = run_policy_cell(
        block,
        seed,
        qkd_manager::SchedPolicy::Wfq,
        None,
        epochs,
        mean_blocks,
    );
    assert!(
        wfq_fair.fairness_weighted() >= WFQ_WEIGHTED_JAIN_FLOOR,
        "WFQ weighted Jain {:.4} fell below the {} floor",
        wfq_fair.fairness_weighted(),
        WFQ_WEIGHTED_JAIN_FLOOR
    );
    assert!(
        fifo_fair.fairness_weighted() < wfq_fair.fairness_weighted(),
        "FIFO weighted Jain {:.4} must trail WFQ's {:.4} under contention",
        fifo_fair.fairness_weighted(),
        wfq_fair.fairness_weighted()
    );
    assert!(
        wfq_full.links.iter().any(|l| l.placement != "cpu"),
        "placement must leave the CPU once the calibrator is warm"
    );
    assert!(
        wfq_full.modeled_busy() < wfq_full.host_busy(),
        "placed modeled stage time {:?} must undercut the measured host stage time {:?}",
        wfq_full.modeled_busy(),
        wfq_full.host_busy()
    );
    // Secret bits over the fleet's measured host stage time divided across
    // the pool — the host-column twin of `modeled_output_bps`.
    let host_stage_bps = |report: &qkd_manager::FleetReport| {
        let secs = report.host_busy().as_secs_f64() / report.workers.max(1) as f64;
        if secs <= 0.0 {
            0.0
        } else {
            report.total_secret_bits() as f64 / secs
        }
    };
    let policy_cells = [
        ("fifo/budgeted", &fifo_fair),
        ("wfq/budgeted", &wfq_fair),
        ("wfq/full", &wfq_full),
    ];

    // The sweep: aggregate rate and fairness vs worker and link count.
    let mut cells = Vec::new();
    for &links in &[4usize, 8] {
        let workload = qkd_simulator::FleetWorkload::mixed(links, block, seed).unwrap();
        for &workers in &[1usize, 2, 4] {
            let (fleet, report, _) = run_fleet(
                &workload,
                qkd_manager::FleetConfig::default()
                    .with_workers(workers)
                    .with_max_backlog(64),
                epochs,
                mean_blocks,
            );
            fleet.reconcile().expect("fleet ledger must reconcile");
            cells.push((links, workers, report));
        }
    }

    let mut json = String::from("{\n  \"schema\": \"qkd-bench-fleet/v3\",\n");
    json.push_str(&format!(
        "  \"block_bits\": {block},\n  \"epochs\": {epochs},\n  \"mean_blocks\": {mean_blocks},\n  \"keys_identical\": true,\n"
    ));
    json.push_str(&format!(
        "  \"gates\": {{\"wfq_weighted_jain_floor\": {WFQ_WEIGHTED_JAIN_FLOOR}, \"wfq_weighted_jain\": {:.4}, \"fifo_weighted_jain\": {:.4}, \"full_drain_modeled_stage_ms\": {:.3}, \"full_drain_host_stage_ms\": {:.3}}},\n",
        wfq_fair.fairness_weighted(),
        fifo_fair.fairness_weighted(),
        wfq_full.modeled_busy().as_secs_f64() * 1e3,
        wfq_full.host_busy().as_secs_f64() * 1e3,
    ));
    json.push_str("  \"policy_cells\": [\n");
    for (i, (name, report)) in policy_cells.iter().enumerate() {
        let placements: Vec<String> = report
            .links
            .iter()
            .map(|l| format!("\"{}\"", l.placement))
            .collect();
        let comma = if i + 1 < policy_cells.len() { "," } else { "" };
        json.push_str(&format!(
            "    {{\"cell\": \"{name}\", \"policy\": \"{}\", \"secret_bits\": {}, \"weighted_jain\": {:.4}, \"fairness_service\": {:.4}, \"aggregate_output_bps\": {:.1}, \"host_stage_bps\": {:.1}, \"modeled_stage_bps\": {:.1}, \"placements\": [{}]}}{comma}\n",
            report.policy.label(),
            report.total_secret_bits(),
            report.fairness_weighted(),
            report.fairness_service(),
            report.aggregate_output_bps(),
            host_stage_bps(report),
            report.modeled_output_bps(),
            placements.join(", "),
        ));
    }
    json.push_str("  ],\n  \"grid\": [\n");
    let num_cells = cells.len();
    for (i, (links, workers, report)) in cells.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"links\": {links}, \"workers\": {workers}, \"wall_ms\": {:.3}, \"secret_bits\": {}, \"aggregate_output_bps\": {:.1}, \"fairness_service\": {:.4}, \"fairness_blocks\": {:.4}, \"per_link\": [\n",
            report.wall_time.as_secs_f64() * 1e3,
            report.total_secret_bits(),
            report.aggregate_output_bps(),
            report.fairness_service(),
            report.fairness_blocks(),
        ));
        for (j, l) in report.links.iter().enumerate() {
            let comma = if j + 1 < report.links.len() { "," } else { "" };
            json.push_str(&format!(
                "      {{\"link\": {}, \"label\": \"{}\", \"qber\": {:.3}, \"blocks_ok\": {}, \"blocks_failed\": {}, \"secret_bits\": {}, \"busy_ms\": {:.3}, \"output_bps\": {:.1}}}{comma}\n",
                l.link,
                l.label,
                l.qber,
                l.summary.blocks_ok,
                l.summary.blocks_failed,
                l.summary.secret_bits_out,
                l.busy.as_secs_f64() * 1e3,
                l.output_bps(),
            ));
        }
        let comma = if i + 1 < num_cells { "," } else { "" };
        json.push_str(&format!("    ]}}{comma}\n"));
    }
    json.push_str(&format!(
        "  ],\n  \"total_wall_s\": {:.3}\n}}",
        total_start.elapsed().as_secs_f64()
    ));
    println!("{json}");
}

/// Durability-overhead benchmark (`qkd-bench-journal/v1`): the same
/// distillation + delivery workload runs against an in-memory store, a
/// journaled store with group-commit batched fsync, and a journaled store
/// fsyncing every commit. Reported per mode: distillation wall time (the
/// deposit path rides inside it) and reserve/redeem delivery throughput.
///
/// The journaled runs double as recovery checks: after draining, the
/// batched run compacts its log, both are dropped and reopened from disk,
/// and the recovered ledger must match the pre-shutdown status exactly.
/// The run asserts the batched-fsync delivery path keeps within
/// `MAX_OVERHEAD_FACTOR` of the in-memory op rate — the bound is generous
/// (CI filesystems fsync slowly) but fails the configuration that fsyncs
/// every frame on a spinning-rust-grade device, i.e. it guards the group
/// commit actually batching.
pub fn smoke_journal() {
    use qkd_journal::{FsyncPolicy, JournalConfig};
    use qkd_manager::{FleetConfig, LinkManager, LinkSpec};

    const MAX_OVERHEAD_FACTOR: f64 = 250.0;

    let total_start = std::time::Instant::now();
    let block = 4096usize;
    let epochs = 6usize;
    let key_bits = 128usize;

    let fleet_config = || FleetConfig::default().with_workers(2).with_max_backlog(64);
    let distill = |fleet: &mut LinkManager| -> (usize, Duration) {
        let start = std::time::Instant::now();
        let link = fleet
            .add_link(LinkSpec::from_preset(
                qkd_simulator::WorkloadPreset::Metro,
                block,
                77,
            ))
            .unwrap();
        for _ in 0..epochs {
            fleet.submit_epoch(link, 2).unwrap();
        }
        fleet.run().unwrap();
        (link, start.elapsed())
    };
    // One reserve + one redeem per round: two journaled mutations, the
    // `enc_keys`/`dec_keys` hot path of the delivery tier.
    let deliver = |fleet: &LinkManager, link: usize| -> (u64, Duration) {
        let store = fleet.store();
        let rounds = store.status(link).unwrap().available_bits / key_bits as u64;
        let start = std::time::Instant::now();
        for _ in 0..rounds {
            let reserved = store
                .reserve_keys(link, 1, key_bits, Some("peer-sae"), None)
                .unwrap();
            store
                .get_key_by_id(reserved[0].id, Some("peer-sae"))
                .unwrap();
        }
        (rounds, start.elapsed())
    };

    struct Mode {
        name: &'static str,
        distill_wall: Duration,
        delivery_wall: Duration,
        rounds: u64,
        replay_verified: bool,
    }
    let ops_per_s = |m: &Mode| 2.0 * m.rounds as f64 / m.delivery_wall.as_secs_f64().max(1e-9);

    let mut modes = Vec::new();
    let base = std::env::temp_dir().join(format!("qkd-bench-journal-{}", std::process::id()));
    for (name, fsync) in [
        ("memory", None),
        (
            "journal-batched",
            Some(FsyncPolicy::Batch { max_frames: 64 }),
        ),
        ("journal-fsync-always", Some(FsyncPolicy::Always)),
    ] {
        let dir = base.join(name);
        let journal_config = |fsync| JournalConfig {
            fsync,
            ..JournalConfig::default()
        };
        let mut fleet = match fsync {
            None => LinkManager::new(fleet_config()).unwrap(),
            Some(fsync) => {
                let _ = std::fs::remove_dir_all(&dir);
                LinkManager::open_durable_with(fleet_config(), &dir, journal_config(fsync)).unwrap()
            }
        };
        let (link, distill_wall) = distill(&mut fleet);
        let (rounds, delivery_wall) = deliver(&fleet, link);
        assert!(rounds >= 32, "workload too small to time delivery");
        fleet.reconcile().expect("ledger must reconcile");

        // Recovery check: compact (batched mode only, to exercise both the
        // snapshot and the long-replay path), drop, reopen, compare.
        let replay_verified = match fsync {
            None => false,
            Some(fsync) => {
                if matches!(fsync, FsyncPolicy::Batch { .. }) {
                    fleet.store().compact_journal(&[]).unwrap();
                }
                let before = fleet.store().status(link).unwrap();
                drop(fleet);
                let reopened =
                    LinkManager::open_durable_with(fleet_config(), &dir, journal_config(fsync))
                        .unwrap();
                let after = reopened.store().status(link).unwrap();
                assert_eq!(before, after, "{name}: recovered ledger must match");
                true
            }
        };
        modes.push(Mode {
            name,
            distill_wall,
            delivery_wall,
            rounds,
            replay_verified,
        });
    }
    let _ = std::fs::remove_dir_all(&base);

    let memory_ops = ops_per_s(&modes[0]);
    let batched_ops = ops_per_s(&modes[1]);
    let overhead_factor = memory_ops / batched_ops;

    let mut json = String::from("{\n  \"schema\": \"qkd-bench-journal/v1\",\n");
    json.push_str(&format!(
        "  \"block_bits\": {block},\n  \"epochs\": {epochs},\n  \"key_bits\": {key_bits},\n  \"modes\": [\n"
    ));
    for (i, mode) in modes.iter().enumerate() {
        let comma = if i + 1 < modes.len() { "," } else { "" };
        json.push_str(&format!(
            "    {{\"mode\": \"{}\", \"distill_ms\": {:.3}, \"delivery_ms\": {:.3}, \"rounds\": {}, \"delivery_ops_per_s\": {:.1}, \"replay_verified\": {}}}{comma}\n",
            mode.name,
            mode.distill_wall.as_secs_f64() * 1e3,
            mode.delivery_wall.as_secs_f64() * 1e3,
            mode.rounds,
            ops_per_s(mode),
            mode.replay_verified,
        ));
    }
    json.push_str(&format!(
        "  ],\n  \"batched_overhead_factor\": {overhead_factor:.2},\n  \"max_overhead_factor\": {MAX_OVERHEAD_FACTOR},\n  \"total_wall_s\": {:.3}\n}}",
        total_start.elapsed().as_secs_f64()
    ));
    println!("{json}");
    assert!(
        overhead_factor <= MAX_OVERHEAD_FACTOR,
        "group-commit journaling too slow: {batched_ops:.1} ops/s journaled vs {memory_ops:.1} ops/s in-memory (factor {overhead_factor:.1})"
    );
}

/// ETSI 014 delivery-API benchmark (`qkd-bench-api/v2`): a fleet distils
/// key into the store, the `qkd-api` server fronts it on localhost TCP, and
/// a sweep of 64 → 4096 concurrent SAEs (capped at 256 when `CI` is set)
/// hammers it through real [`qkd_api::ApiClient`] sockets — once with
/// kept-alive connections (the server's connection tracker holds every SAE's
/// socket open) and once with one fresh connection per request as the
/// baseline. Prints one machine-readable JSON document with request
/// throughput and p99 latency per level and mode.
///
/// The sweep is preceded by a correctness drain: one SAE pair empties its
/// link through `enc_keys`/`dec_keys` over kept-alive connections, every
/// key is asserted bit-identical on both sides, and the store ledger must
/// reconcile afterwards.
pub fn smoke_api() {
    use qkd_api::{ApiClient, ApiConfig, ApiServer, SaeProfile, SaeRegistry};
    use std::sync::Arc;

    let total_start = std::time::Instant::now();
    let block = 4096usize;
    let epochs = 3usize;
    let blocks_per_epoch = 2usize;
    let key_size = 128usize;
    let keys_per_request = 4usize;
    // Level 4096 needs thousands of concurrent sockets and minutes of wall
    // clock on a shared runner; CI sweeps the shape, not the ceiling.
    let max_level = if std::env::var_os("CI").is_some() {
        256
    } else {
        4096
    };
    let levels: Vec<usize> = [64usize, 256, 1024, 4096]
        .into_iter()
        .filter(|&l| l <= max_level)
        .collect();
    let top = *levels.last().unwrap();

    // Two metro links: link 0 feeds the correctness drain, link 1 backs the
    // status sweep (status reads the store but never drains it, so one link
    // serves any number of SAEs).
    let mut fleet = qkd_manager::LinkManager::new(
        qkd_manager::FleetConfig::default()
            .with_workers(2)
            .with_max_backlog(64),
    )
    .unwrap();
    let registry = Arc::new(SaeRegistry::new());
    for link in 0..2usize {
        let id = fleet
            .add_link(qkd_manager::LinkSpec::from_preset(
                qkd_simulator::WorkloadPreset::Metro,
                block,
                0xAB1_0000 + link as u64,
            ))
            .unwrap();
        for _ in 0..epochs {
            fleet.submit_epoch(id, blocks_per_epoch).unwrap();
        }
    }
    fleet.run().unwrap();
    let deposited = fleet.store().status(0).unwrap().available_bits;

    // The drain pair on link 0, and `top` master SAEs all entitled to one
    // shared "sink" slave on link 1 for the status sweep.
    registry
        .register(SaeProfile::new("drain-master", "tok-drain-master"))
        .unwrap();
    registry
        .register(SaeProfile::new("drain-slave", "tok-drain-slave"))
        .unwrap();
    registry.entitle("drain-master", "drain-slave", 0).unwrap();
    registry
        .register(SaeProfile::new("sink", "tok-sink"))
        .unwrap();
    for sae in 0..top {
        registry
            .register(SaeProfile::new(format!("sae-{sae}"), format!("tok-{sae}")))
            .unwrap();
        registry.entitle(&format!("sae-{sae}"), "sink", 1).unwrap();
    }

    let server = ApiServer::start(
        fleet.store_handle(),
        Arc::clone(&registry),
        ApiConfig::default(),
    )
    .unwrap();
    let addr = server.local_addr();

    // --- Correctness drain: bit-identical keys over kept-alive sockets. ---
    let drain_start = std::time::Instant::now();
    let master = ApiClient::new(addr, "tok-drain-master");
    let slave = ApiClient::new(addr, "tok-drain-slave");
    let mut drain_requests = 0u64;
    let mut drained_bits = 0u64;
    for number in [keys_per_request, 1] {
        loop {
            match master.enc_keys("drain-slave", number, key_size) {
                Ok(reserved) => {
                    drain_requests += 1;
                    let ids: Vec<qkd_manager::KeyId> = reserved.iter().map(|k| k.id).collect();
                    let picked = slave.dec_keys("drain-master", &ids).unwrap();
                    drain_requests += 1;
                    for (m, s) in reserved.iter().zip(&picked) {
                        assert_eq!(
                            m.bits, s.bits,
                            "master and slave keys must be bit-identical"
                        );
                        drained_bits += m.bits.len() as u64;
                    }
                }
                Err(qkd_types::QkdError::KeyStoreShortfall { .. }) => break,
                Err(e) => panic!("unexpected API error: {e}"),
            }
        }
    }
    let drain_wall = drain_start.elapsed();
    drop(master);
    drop(slave);
    assert!(
        deposited - drained_bits < key_size as u64,
        "the drain must leave less than one key on the link"
    );
    fleet
        .reconcile()
        .expect("ledger must reconcile after drain");

    // --- Concurrency sweep: L kept-alive SAE connections vs. one fresh
    // connection per request, same status workload. ---
    let mut cells = Vec::new();
    for &level in &levels {
        let mut modes = Vec::new();
        for keep_alive in [true, false] {
            // One driver thread per SAE — `level` concurrent SAEs means
            // `level` clients genuinely in flight, not `level` sockets
            // multiplexed through a handful of threads. Small stacks keep
            // thousands of drivers cheap; each blocks on its own socket.
            let drivers = level;
            let total_requests = (level * 4).min(8192) / drivers * drivers;
            let per_thread = total_requests / drivers;
            let sweep_start = std::time::Instant::now();
            let handles: Vec<_> = (0..drivers)
                .map(|sae| {
                    std::thread::Builder::new()
                        .stack_size(256 * 1024)
                        .spawn(move || {
                            let client = ApiClient::new(addr, format!("tok-{sae}"));
                            let client = if keep_alive {
                                client
                            } else {
                                client.without_keep_alive()
                            };
                            let mut latencies = Vec::with_capacity(per_thread);
                            for _ in 0..per_thread {
                                let t = std::time::Instant::now();
                                let status = client.status("sink").unwrap();
                                latencies.push(t.elapsed());
                                assert_eq!(status.link, 1, "status must answer for link 1");
                            }
                            latencies
                        })
                        .expect("spawn sweep driver")
                })
                .collect();
            let mut latencies: Vec<std::time::Duration> = handles
                .into_iter()
                .flat_map(|h| h.join().expect("sweep driver panicked"))
                .collect();
            let wall = sweep_start.elapsed();
            latencies.sort_unstable();
            let p99 = latencies[(latencies.len() * 99).div_ceil(100) - 1];
            modes.push((keep_alive, total_requests, wall, p99));
        }
        cells.push((level, modes));
    }
    let stats = server.stats();
    let (accepted, served) = (stats.connections_accepted(), stats.requests_served());
    server.shutdown();

    let mut json = String::from("{\n  \"schema\": \"qkd-bench-api/v2\",\n");
    json.push_str(&format!(
        "  \"block_bits\": {block},\n  \"key_size\": {key_size},\n  \"keys_identical\": true,\n"
    ));
    let drain_secs = drain_wall.as_secs_f64();
    json.push_str(&format!(
        "  \"drain\": {{\"requests\": {drain_requests}, \"drained_bits\": {drained_bits}, \"wall_ms\": {:.3}, \"requests_per_s\": {:.1}}},\n",
        drain_secs * 1e3,
        drain_requests as f64 / drain_secs,
    ));
    json.push_str(&format!(
        "  \"connections_accepted\": {accepted},\n  \"requests_served\": {served},\n  \"sweep\": [\n"
    ));
    let num_cells = cells.len();
    for (i, (level, modes)) in cells.iter().enumerate() {
        json.push_str(&format!("    {{\"concurrent_saes\": {level}"));
        for (keep_alive, requests, wall, p99) in modes {
            let name = if *keep_alive {
                "keep_alive"
            } else {
                "per_request"
            };
            let secs = wall.as_secs_f64();
            json.push_str(&format!(
                ", \"{name}\": {{\"requests\": {requests}, \"wall_ms\": {:.3}, \"requests_per_s\": {:.1}, \"p99_ms\": {:.3}}}",
                secs * 1e3,
                *requests as f64 / secs,
                p99.as_secs_f64() * 1e3,
            ));
        }
        let comma = if i + 1 < num_cells { "," } else { "" };
        json.push_str(&format!("}}{comma}\n"));
    }
    json.push_str(&format!(
        "  ],\n  \"total_wall_s\": {:.3}\n}}",
        total_start.elapsed().as_secs_f64()
    ));
    println!("{json}");
}

/// Runs every experiment in order.
pub fn run_all() {
    table1();
    table2();
    table3();
    fig1();
    fig2();
    fig3();
    fig4();
    fig5();
    fig6();
    fig7();
}
