//! Property-based tests on the core data structures and invariants.

use std::time::Duration;

use proptest::prelude::*;
use rand::Rng as _;

use qkd::core::{ChannelUsage, PostProcessingConfig, PostProcessor, SessionSummary};
use qkd::hetero::{StageMetrics, ThroughputReport};
use qkd::ldpc::{
    DecoderConfig, DecoderScratch, LdpcReconciler, ParityCheckMatrix, ReconcilerConfig,
    ReconcilerScratch, SyndromeDecoder,
};
use qkd::manager::{FleetConfig, LinkManager, LinkSpec};
use qkd::privacy::{ToeplitzHash, ToeplitzStrategy};
use qkd::simulator::{CorrelatedKeySource, FleetWorkload};
use qkd::types::gf2::{clmul64, Gf2_128};
use qkd::types::key::binary_entropy;
use qkd::types::rng::derive_rng;
use qkd::types::{BitVec, DetectionEvent};

/// All-signal, bases-matched detections carrying correlated bits with roughly
/// `qber` disagreement; sifting retains exactly these bits.
fn correlated_events(len: usize, qber: f64, seed: u64) -> Vec<DetectionEvent> {
    let blk = CorrelatedKeySource::new(len, qber, seed)
        .unwrap()
        .next_block();
    qkd::simulator::detection_events(&blk.alice, &blk.bob)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ---------------- BitVec ----------------

    #[test]
    fn bitvec_roundtrips_through_bools(bools in proptest::collection::vec(any::<bool>(), 0..300)) {
        let v = BitVec::from_bools(&bools);
        prop_assert_eq!(v.len(), bools.len());
        prop_assert_eq!(v.to_bools(), bools);
    }

    #[test]
    fn bitvec_roundtrips_through_bytes(bools in proptest::collection::vec(any::<bool>(), 1..300)) {
        let v = BitVec::from_bools(&bools);
        let bytes = v.to_bytes();
        let back = BitVec::from_bytes(&bytes, v.len());
        prop_assert_eq!(v, back);
    }

    /// Run-wise removal equals pushing the kept bits one by one: none, all,
    /// first and last bit removed, sparse and dense picks whose runs cross
    /// word boundaries, lengths that are not a multiple of 64.
    #[test]
    fn remove_indices_matches_the_bit_by_bit_form(seed in any::<u64>(),
                                                  len in 0usize..400,
                                                  pick in 0u32..5) {
        let mut rng = derive_rng(seed, "prop-remove-indices");
        let v = BitVec::random(&mut rng, len);
        let indices: Vec<usize> = match pick {
            0 => Vec::new(),
            1 => (0..len).collect(),
            2 => (0..len).filter(|i| *i == 0 || i + 1 == len).collect(),
            3 => (0..len).filter(|_| rng.gen_bool(0.02)).collect(),
            _ => (0..len).filter(|_| rng.gen_bool(0.5)).collect(),
        };
        let mut expected = BitVec::new();
        for i in (0..len).filter(|i| indices.binary_search(i).is_err()) {
            expected.push(v.get(i));
        }
        prop_assert_eq!(v.remove_indices(&indices), expected);
    }

    #[test]
    fn xor_is_involutive(bools_a in proptest::collection::vec(any::<bool>(), 1..256),
                         seed in any::<u64>()) {
        let a = BitVec::from_bools(&bools_a);
        let mut rng = derive_rng(seed, "prop-xor");
        let b = BitVec::random(&mut rng, a.len());
        let mut c = a.clone();
        c.xor_assign(&b);
        c.xor_assign(&b);
        prop_assert_eq!(c, a);
    }

    #[test]
    fn hamming_distance_is_a_metric(len in 1usize..200, seed in any::<u64>()) {
        let mut rng = derive_rng(seed, "prop-metric");
        let a = BitVec::random(&mut rng, len);
        let b = BitVec::random(&mut rng, len);
        let c = BitVec::random(&mut rng, len);
        prop_assert_eq!(a.hamming_distance(&a), 0);
        prop_assert_eq!(a.hamming_distance(&b), b.hamming_distance(&a));
        prop_assert!(a.hamming_distance(&c) <= a.hamming_distance(&b) + b.hamming_distance(&c));
    }

    #[test]
    fn parity_range_composes(len in 2usize..300, seed in any::<u64>(), split_frac in 0.0f64..1.0) {
        let mut rng = derive_rng(seed, "prop-parity");
        let v = BitVec::random(&mut rng, len);
        let split = ((len as f64 * split_frac) as usize).min(len);
        let whole = v.parity_range(0, len);
        let parts = v.parity_range(0, split) ^ v.parity_range(split, len);
        prop_assert_eq!(whole, parts);
    }

    // ---------------- GF(2) arithmetic ----------------

    #[test]
    fn clmul_distributes_over_xor(a in any::<u64>(), b in any::<u64>(), c in any::<u64>()) {
        let (lo1, hi1) = clmul64(a, b ^ c);
        let (lo2, hi2) = clmul64(a, b);
        let (lo3, hi3) = clmul64(a, c);
        prop_assert_eq!((lo1, hi1), (lo2 ^ lo3, hi2 ^ hi3));
    }

    #[test]
    fn gf128_field_axioms(a_lo in any::<u64>(), a_hi in any::<u64>(),
                          b_lo in any::<u64>(), b_hi in any::<u64>()) {
        let a = Gf2_128 { lo: a_lo, hi: a_hi };
        let b = Gf2_128 { lo: b_lo, hi: b_hi };
        prop_assert_eq!(a * b, b * a);
        prop_assert_eq!(a * Gf2_128::ONE, a);
        prop_assert_eq!(a + a, Gf2_128::ZERO);
    }

    // ---------------- Binary entropy ----------------

    #[test]
    fn binary_entropy_bounds_and_symmetry(p in 0.0f64..=1.0) {
        let h = binary_entropy(p);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&h));
        prop_assert!((h - binary_entropy(1.0 - p)).abs() < 1e-9);
    }

    // ---------------- Toeplitz hashing ----------------

    #[test]
    fn toeplitz_strategies_are_bit_exact(n in 65usize..400, frac in 0.1f64..0.9, seed in any::<u64>()) {
        let m = ((n as f64 * frac) as usize).max(1);
        let mut rng = derive_rng(seed, "prop-toeplitz");
        let hash = ToeplitzHash::random(n, m, &mut rng).unwrap();
        let x = BitVec::random(&mut rng, n);
        let naive = hash.hash(&x, ToeplitzStrategy::Naive).unwrap();
        let clmul = hash.hash(&x, ToeplitzStrategy::Clmul).unwrap();
        prop_assert_eq!(&naive, &clmul);
    }

    #[test]
    fn toeplitz_window_matches_naive_at_word_edges(words in 1usize..6, n_edge in 0usize..3,
                                                   m_kind in 0usize..4, fill in 0usize..4,
                                                   seed in any::<u64>()) {
        // Input lengths that end on, just past and just before a word
        // boundary; output lengths from one bit to no compression at all;
        // inputs and seeds that are random, all-zero or all-one.
        let n = words * 64 + [0, 1, 63][n_edge];
        let m = [1, 64, n / 2, n][m_kind];
        let mut rng = derive_rng(seed, "prop-toeplitz-window");
        let filled = |rng: &mut _, len: usize, kind: usize| match kind {
            0 => BitVec::zeros(len),
            1 => BitVec::ones(len),
            _ => BitVec::random(rng, len),
        };
        let x = filled(&mut rng, n, fill);
        let hash = ToeplitzHash::new(n, m, filled(&mut rng, n + m - 1, (fill + 1) % 4)).unwrap();
        prop_assert_eq!(
            hash.hash(&x, ToeplitzStrategy::Clmul).unwrap(),
            hash.hash(&x, ToeplitzStrategy::Naive).unwrap(),
            "n = {}, m = {}", n, m
        );
    }

    #[test]
    fn toeplitz_hash_is_linear(n in 65usize..300, seed in any::<u64>()) {
        let mut rng = derive_rng(seed, "prop-toeplitz-lin");
        let hash = ToeplitzHash::random(n, n / 2, &mut rng).unwrap();
        let x = BitVec::random(&mut rng, n);
        let y = BitVec::random(&mut rng, n);
        let hx = hash.hash(&x, ToeplitzStrategy::Clmul).unwrap();
        let hy = hash.hash(&y, ToeplitzStrategy::Clmul).unwrap();
        let hxy = hash.hash(&(&x ^ &y), ToeplitzStrategy::Clmul).unwrap();
        prop_assert_eq!(hxy, &hx ^ &hy);
    }
}

/// A bounded random session summary (bounded so merge sums cannot overflow).
fn random_summary(rng: &mut impl rand::Rng) -> SessionSummary {
    SessionSummary {
        blocks_ok: rng.gen_range(0usize..1000),
        blocks_failed: rng.gen_range(0usize..1000),
        sifted_bits_in: rng.gen_range(0u64..1 << 40),
        secret_bits_out: rng.gen_range(0u64..1 << 40),
        disclosed_bits: rng.gen_range(0u64..1 << 40),
        auth_bits_consumed: rng.gen_range(0u64..1 << 30),
        carried_bits: rng.gen_range(0u64..1 << 20),
        discarded_bits: rng.gen_range(0u64..1 << 20),
        processing_time: Duration::from_micros(rng.gen_range(0u64..10_000_000)),
        channel_usage: ChannelUsage {
            round_trips: rng.gen_range(0usize..10_000),
            messages: rng.gen_range(0usize..10_000),
            payload_bits: rng.gen_range(0usize..1 << 30),
        },
    }
}

/// A random throughput report over a random subset of stage names (so merges
/// exercise disjoint, overlapping and equal stage sets).
fn random_throughput(rng: &mut impl rand::Rng) -> ThroughputReport {
    let stage_names = ["sifting", "estimation", "reconciliation", "pa", "auth"];
    let mut report = ThroughputReport {
        makespan: Duration::from_micros(rng.gen_range(0u64..10_000_000)),
        items: rng.gen_range(0usize..10_000),
        input_bits: rng.gen_range(0u64..1 << 40),
        output_bits: rng.gen_range(0u64..1 << 40),
        ..Default::default()
    };
    for _ in 0..rng.gen_range(0usize..6) {
        let micros = rng.gen_range(1u64..1000);
        let mut m = StageMetrics::default();
        m.record(
            Duration::from_micros(micros),
            Duration::from_micros(micros),
            rng.gen_range(0usize..1 << 30),
            rng.gen_range(0usize..1 << 30),
        );
        report.record_stage(stage_names[rng.gen_range(0usize..stage_names.len())], m);
    }
    report
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ---------------- Fleet aggregation algebra ----------------

    /// `SessionSummary::merge` is commutative and associative — the property
    /// that makes fleet-level aggregation independent of link order and of
    /// how workers interleave per-link deltas.
    #[test]
    fn session_summary_merge_is_commutative_and_associative(seed in any::<u64>()) {
        let mut rng = derive_rng(seed, "prop-summary-merge");
        let a = random_summary(&mut rng);
        let b = random_summary(&mut rng);
        let c = random_summary(&mut rng);
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        prop_assert_eq!(ab, ba);

        let mut ab_c = ab; // (a+b)+c
        ab_c.merge(&c);
        let mut bc = b; // a+(b+c)
        bc.merge(&c);
        let mut a_bc = a;
        a_bc.merge(&bc);
        prop_assert_eq!(ab_c, a_bc);

        // Identity.
        let mut a_id = a;
        a_id.merge(&SessionSummary::default());
        prop_assert_eq!(a_id, a);
    }

    /// `ThroughputReport::merge` handles disjoint stage sets (union), sums
    /// overlapping stages, and is commutative and associative — fleet reports
    /// merge per-link reports whose stage sets need not agree.
    #[test]
    fn throughput_report_merge_handles_disjoint_stage_sets(seed in any::<u64>()) {
        let mut rng = derive_rng(seed, "prop-throughput-merge");
        let a = random_throughput(&mut rng);
        let b = random_throughput(&mut rng);
        let c = random_throughput(&mut rng);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(&ab, &ba);

        let mut ab_c = ab.clone();
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        prop_assert_eq!(&ab_c, &a_bc);

        // The merged stage set is the union, and every stage not shared is
        // carried over untouched (disjoint parts must survive verbatim).
        let union: std::collections::BTreeSet<&String> =
            a.stages.keys().chain(b.stages.keys()).collect();
        prop_assert_eq!(ab.stages.len(), union.len());
        for (name, metrics) in &a.stages {
            if !b.stages.contains_key(name) {
                prop_assert_eq!(&ab.stages[name], metrics);
            }
        }
        for (name, metrics) in &b.stages {
            if !a.stages.contains_key(name) {
                prop_assert_eq!(&ab.stages[name], metrics);
            } else {
                // Overlapping stages sum their counts and bits.
                prop_assert_eq!(
                    ab.stages[name].count,
                    a.stages[name].count + metrics.count
                );
                prop_assert_eq!(
                    ab.stages[name].bits_in,
                    a.stages[name].bits_in + metrics.bits_in
                );
            }
        }
        // Makespans overlap in time, so the merge takes the maximum.
        prop_assert_eq!(ab.makespan, a.makespan.max(b.makespan));
        prop_assert_eq!(ab.items, a.items + b.items);
    }
}

proptest! {
    // Few cases: each runs two full engine batches.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A batch is observationally identical at every width for random
    /// channels and seeds: byte-equal final keys and equal (time-free)
    /// session accounting.
    #[test]
    fn engine_is_width_independent_for_random_channels(
        seed in any::<u64>(),
        qber in 0.002f64..0.03,
        extra in 0usize..4096,
        width in 2usize..5,
    ) {
        let block = 4096usize;
        let events = correlated_events(3 * block + extra, qber, seed);
        let mk = || {
            let mut config = PostProcessingConfig::for_block_size(block);
            config.sampling.sample_fraction = 0.2;
            PostProcessor::new(config, seed ^ 0x5EED).unwrap()
        };

        let mut narrow = mk();
        let narrow_results = narrow.process_detections(&events).unwrap();

        let mut wide = mk();
        let mut scratches: Vec<ReconcilerScratch> =
            (0..width).map(|_| ReconcilerScratch::new()).collect();
        let wide_results = wide.process_detections_with_scratch(&events, &mut scratches).unwrap();

        prop_assert_eq!(narrow_results.len(), wide_results.len());
        for (n, w) in narrow_results.iter().zip(&wide_results) {
            prop_assert_eq!(n.block, w.block);
            prop_assert_eq!(&n.secret_key.bits, &w.secret_key.bits);
            prop_assert_eq!(n.estimation_disclosed, w.estimation_disclosed);
            prop_assert_eq!(n.reconciliation_leak, w.reconciliation_leak);
            prop_assert_eq!(n.verification_leak, w.verification_leak);
            prop_assert_eq!(n.auth_bits_consumed, w.auth_bits_consumed);
        }
        prop_assert_eq!(narrow.summary().accounting(), wide.summary().accounting());
        prop_assert_eq!(narrow.pending_remainder_bits(), wide.pending_remainder_bits());
        prop_assert_eq!(narrow.auth_key_remaining(), wide.auth_key_remaining());
    }

    /// Determinism across tenancy: every link of a fleet — any worker count,
    /// any link count, any arrival schedule — delivers keys through the store
    /// that are bit-identical to a solo engine run of the same spec, with
    /// equal session accounting.
    #[test]
    fn fleet_links_equal_solo_runs_for_random_fleets(
        seed in any::<u64>(),
        links in 1usize..4,
        workers in 1usize..5,
        epochs in 1usize..3,
    ) {
        let block = 4096usize;
        let workload = FleetWorkload::mixed(links, block, seed).unwrap();
        let mut fleet =
            LinkManager::new(FleetConfig::default().with_workers(workers).with_max_backlog(16))
                .unwrap();
        let ids: Vec<usize> = workload
            .specs()
            .iter()
            .map(|spec| fleet.add_link(LinkSpec::from_fleet(spec)).unwrap())
            .collect();
        let mut accepted: Vec<Vec<usize>> = vec![Vec::new(); links];
        for arrival in workload.bursty_arrivals(epochs, 2) {
            if arrival.blocks == 0 {
                continue;
            }
            if fleet.submit_epoch(ids[arrival.link], arrival.blocks).unwrap().accepted() {
                accepted[arrival.link].push(arrival.blocks);
            }
        }
        fleet.run().unwrap();

        for (link, spec) in workload.specs().iter().enumerate() {
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
                let events = qkd::simulator::detection_events(&alice, &bob);
                for result in solo.process_detections(&events).unwrap() {
                    expected.extend_from(&result.secret_key.bits);
                }
            }
            prop_assert_eq!(
                fleet.summary(ids[link]).unwrap().accounting(),
                solo.summary().accounting()
            );
            let status = fleet.store().status(ids[link]).unwrap();
            prop_assert_eq!(status.deposited_bits, expected.len() as u64);
            if !expected.is_empty() {
                let key = fleet.store().get_key(ids[link], expected.len()).unwrap();
                prop_assert_eq!(key.bits, expected);
            }
        }
        fleet.reconcile().unwrap();
    }
}

/// Quasi-cyclic parity-check matrices from 256 to 4096 bits for the
/// scratch-reuse and syndrome properties, built once.
fn equivalence_matrices() -> &'static [ParityCheckMatrix] {
    use std::sync::OnceLock;
    static MATRICES: OnceLock<Vec<ParityCheckMatrix>> = OnceLock::new();
    MATRICES.get_or_init(|| {
        [256usize, 512, 1024, 2048, 4096]
            .iter()
            .map(|&n| ParityCheckMatrix::for_rate(n, 0.5, 700 + n as u64).unwrap())
            .collect()
    })
}

proptest! {
    // Fewer cases for the expensive LDPC properties.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// One scratch serves decoders of mixed block sizes in random order, and
    /// one reconciler scratch serves mixed payload lengths — both matching
    /// their fresh-scratch counterparts exactly.
    #[test]
    fn one_scratch_serves_mixed_block_sizes(seed in any::<u64>(), qber in 0.005f64..0.04) {
        let matrices = equivalence_matrices();
        let mut rng = derive_rng(seed, "prop-decoder-mixed");
        let mut scratch = DecoderScratch::new();
        for step in 0..4u64 {
            let h = &matrices[((seed.rotate_left(step as u32 * 8)) % matrices.len() as u64) as usize];
            let truth = BitVec::random_with_density(&mut rng, h.num_vars(), qber);
            let syndrome = h.syndrome(&truth);
            let dec = SyndromeDecoder::new(h, DecoderConfig::default()).unwrap();
            let fresh = dec.decode(&syndrome, qber, &[]).unwrap();
            let reused = dec
                .decode_with_scratch(&syndrome, qber, &[], &mut scratch)
                .unwrap();
            prop_assert_eq!(fresh, reused, "n={} diverged", h.num_vars());
        }

        // Reconciler-level reuse across full and shortened payloads.
        let reconciler = LdpcReconciler::new(ReconcilerConfig::for_block_size(1024)).unwrap();
        let mut rec_scratch = ReconcilerScratch::new();
        for &payload in &[1024usize, 700, 1024, 900] {
            let alice = BitVec::random(&mut rng, payload);
            let mut bob = alice.clone();
            for i in 0..payload {
                if rng.gen_bool(qber) {
                    bob.flip(i);
                }
            }
            let with_scratch =
                reconciler.reconcile_with_scratch(&alice, &bob, qber, &mut rec_scratch);
            let plain = reconciler.reconcile(&alice, &bob, qber);
            match (with_scratch, plain) {
                (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
                (Err(_), Err(_)) => {}
                (a, b) => prop_assert!(false, "paths diverged: {:?} vs {:?}", a, b),
            }
        }
    }

    /// The word-packed syndrome map must agree with a bit-by-bit parity of
    /// each check's neighbours on the library's rate-1/2 codes and on a
    /// freshly seeded quasi-cyclic one.
    #[test]
    fn packed_syndrome_matches_bitwise_reference(seed in any::<u64>()) {
        let mut rng = derive_rng(seed, "prop-syndrome-packed");
        let matrices = equivalence_matrices();
        let library = &matrices[(seed % matrices.len() as u64) as usize];
        let qc = ParityCheckMatrix::quasi_cyclic(512, 128, 8, seed % 1000).unwrap();
        for h in [library, &qc] {
            let x = BitVec::random(&mut rng, h.num_vars());
            let mut bitwise = BitVec::zeros(h.num_checks());
            for c in 0..h.num_checks() {
                let parity = h.check_neighbors(c).iter().fold(false, |p, &v| p ^ x.get(v as usize));
                bitwise.set(c, parity);
            }
            prop_assert_eq!(h.syndrome(&x), bitwise.clone());
            let mut reused = BitVec::ones(13);
            h.syndrome_into(&x, &mut reused);
            prop_assert_eq!(reused, bitwise);
        }
    }

    #[test]
    fn ldpc_syndrome_is_linear_and_decoding_corrects_sparse_errors(seed in any::<u64>()) {
        let matrix = ParityCheckMatrix::for_rate(1024, 0.5, seed).unwrap();
        let mut rng = derive_rng(seed, "prop-ldpc");
        let a = BitVec::random(&mut rng, 1024);
        let b = BitVec::random(&mut rng, 1024);
        // Linearity of the syndrome map.
        let s_sum = matrix.syndrome(&(&a ^ &b));
        prop_assert_eq!(s_sum, &matrix.syndrome(&a) ^ &matrix.syndrome(&b));
        // A 1.5% error pattern is decodable by the rate-1/2 code.
        let truth = BitVec::random_with_density(&mut rng, 1024, 0.015);
        let decoder = SyndromeDecoder::new(&matrix, DecoderConfig::default()).unwrap();
        let out = decoder.decode(&matrix.syndrome(&truth), 0.02, &[]).unwrap();
        prop_assert!(out.converged);
        prop_assert_eq!(out.error_pattern, truth);
    }
}
