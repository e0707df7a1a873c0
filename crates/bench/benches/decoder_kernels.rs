//! Criterion bench for the decoder: one warm-scratch decode of the
//! circulant-lane sweep (AVX2 where the host has it, portable otherwise) at
//! the fleet's two block sizes.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use qkd_ldpc::{DecoderConfig, DecoderScratch, ParityCheckMatrix, SyndromeDecoder};
use qkd_types::rng::derive_rng;
use qkd_types::BitVec;

fn bench_decode(c: &mut Criterion) {
    let mut group = c.benchmark_group("decode");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    for block in [16_384usize, 4096] {
        let matrix = ParityCheckMatrix::for_rate(block, 0.5, 91).unwrap();
        let decoder = SyndromeDecoder::new(&matrix, DecoderConfig::default()).unwrap();
        let mut rng = derive_rng(93, "bench-decoder-kernels");
        let truth = BitVec::random_with_density(&mut rng, block, 0.02);
        let syndrome = matrix.syndrome(&truth);
        let mut scratch = DecoderScratch::new();
        group.bench_with_input(BenchmarkId::new("circulant-lane", block), &block, |b, _| {
            b.iter(|| {
                decoder
                    .decode_with_scratch(&syndrome, 0.02, &[], &mut scratch)
                    .unwrap()
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_decode);
criterion_main!(benches);
