//! Incremental-update benchmarks: the Figure 10 measurement as a
//! Criterion bench — per-update fast-path latency — and burst handling
//! (Figure 9's unit of work).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use sdx_bench::Workbench;
use sdx_core::vnh::VnhAllocator;
use sdx_net::Prefix;

fn bench_fast_update(c: &mut Criterion) {
    let mut g = c.benchmark_group("fast_update");
    for n in [100usize, 300] {
        let wb = Workbench::new(n, 25_000, 12_800, 10 + n as u64);
        let mut compiler = wb.compiler();
        let mut vnh = VnhAllocator::default();
        let base = compiler.compile_all(&wb.rs, &mut vnh).expect("base");
        let mut affected: Vec<Prefix> = base.vnh_of.keys().map(|(_, p)| p).collect();
        affected.sort();
        affected.dedup();
        let mut rng = StdRng::seed_from_u64(3);
        affected.shuffle(&mut rng);
        let targets: Vec<Prefix> = affected.into_iter().take(32).collect();

        g.bench_with_input(
            BenchmarkId::new("single_update", n),
            &targets,
            |b, targets| {
                let mut i = 0usize;
                b.iter(|| {
                    let p = targets[i % targets.len()];
                    i += 1;
                    compiler.fast_update(&wb.rs, &mut vnh, p).expect("delta")
                })
            },
        );
    }
    g.finish();
}

fn bench_burst(c: &mut Criterion) {
    let mut g = c.benchmark_group("fast_update_burst");
    g.sample_size(10);
    let wb = Workbench::new(200, 25_000, 12_800, 77);
    let mut compiler = wb.compiler();
    let mut vnh = VnhAllocator::default();
    let base = compiler.compile_all(&wb.rs, &mut vnh).expect("base");
    let mut affected: Vec<Prefix> = base.vnh_of.keys().map(|(_, p)| p).collect();
    affected.sort();
    affected.dedup();
    let mut rng = StdRng::seed_from_u64(4);
    affected.shuffle(&mut rng);

    for size in [10usize, 50, 100] {
        let burst: Vec<Prefix> = affected.iter().copied().take(size).collect();
        g.bench_with_input(BenchmarkId::new("burst_size", size), &burst, |b, burst| {
            b.iter(|| {
                compiler
                    .fast_update_burst(&wb.rs, &mut vnh, burst)
                    .expect("delta")
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_fast_update, bench_burst);
criterion_main!(benches);
