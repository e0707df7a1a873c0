//! Criterion bench behind Figure 3: Toeplitz hashing strategies, plus the two
//! shapes the engine runs per block.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use qkd_privacy::{ToeplitzHash, ToeplitzStrategy};
use qkd_types::rng::derive_rng;
use qkd_types::BitVec;

fn bench_toeplitz(c: &mut Criterion) {
    let mut group = c.benchmark_group("toeplitz");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    for &n in &[16_384usize, 65_536] {
        let mut rng = derive_rng(3, "bench-pa");
        let input = BitVec::random(&mut rng, n);
        let hash = ToeplitzHash::random(n, n / 2, &mut rng).unwrap();
        group.bench_with_input(BenchmarkId::new("clmul", n), &input, |b, input| {
            b.iter(|| hash.hash(input, ToeplitzStrategy::Clmul).unwrap());
        });
        if n <= 16_384 {
            group.bench_with_input(BenchmarkId::new("naive", n), &input, |b, input| {
                b.iter(|| hash.hash(input, ToeplitzStrategy::Naive).unwrap());
            });
        }
    }
    // The engine's own two shapes on a 16 384-bit block: a 64-bit
    // verification tag (three word diagonals of the product) and a
    // half-length amplified key (half of them) — the windowing per shape.
    let n = 16_384usize;
    let mut rng = derive_rng(4, "bench-pa");
    let input = BitVec::random(&mut rng, n);
    for (label, m) in [("clmul-tag64", 64), ("clmul-half", n / 2)] {
        let hash = ToeplitzHash::random(n, m, &mut rng).unwrap();
        group.bench_with_input(BenchmarkId::new(label, n), &input, |b, input| {
            b.iter(|| hash.hash(input, ToeplitzStrategy::Clmul).unwrap());
        });
    }
    group.finish();
}

criterion_group!(benches, bench_toeplitz);
criterion_main!(benches);
