//! End-to-end pipeline benchmarks: the Figure 8 measurement as a
//! Criterion bench (initial compilation at several workload scales), plus
//! the FEC/MDS computation in isolation (Figure 6's engine).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sdx_bench::Workbench;
use sdx_core::fec::minimum_disjoint_subsets;
use sdx_core::vnh::VnhAllocator;
use sdx_ixp::topology::{build, TopologyParams};
use sdx_net::Prefix;

fn bench_initial_compile(c: &mut Criterion) {
    let mut g = c.benchmark_group("initial_compile");
    g.sample_size(10);
    for (n, px) in [(100usize, 6400usize), (100, 12_800), (200, 6400)] {
        let wb = Workbench::new(n, 25_000, px, 88);
        g.bench_with_input(
            BenchmarkId::new("participants_policyprefixes", format!("{n}x{px}")),
            &wb,
            |b, wb| {
                // Memo persists across iterations, as in a live controller;
                // the phase-A unit cache does not (this is the *initial*
                // compile).
                let mut compiler = wb.compiler();
                b.iter(|| {
                    compiler.clear_unit_cache();
                    let mut vnh = VnhAllocator::default();
                    compiler.compile_all(&wb.rs, &mut vnh).expect("compiles")
                })
            },
        );
    }
    g.finish();
}

fn bench_mds(c: &mut Criterion) {
    let mut g = c.benchmark_group("minimum_disjoint_subsets");
    for n in [100usize, 300] {
        let ixp = build(&TopologyParams {
            participants: n,
            prefixes: 25_000,
            seed: 6,
            ..Default::default()
        });
        let sets: Vec<Vec<Prefix>> = ixp
            .announcement_sets()
            .into_iter()
            .map(|(_, ps)| ps)
            .collect();
        g.bench_with_input(BenchmarkId::new("participants", n), &sets, |b, sets| {
            b.iter(|| minimum_disjoint_subsets(sets))
        });
    }
    g.finish();
}

fn bench_route_server_convergence(c: &mut Criterion) {
    let mut g = c.benchmark_group("route_server");
    g.sample_size(10);
    let ixp = build(&TopologyParams {
        participants: 100,
        prefixes: 10_000,
        seed: 5,
        ..Default::default()
    });
    g.bench_function("full_table_load_100x10k", |b| b.iter(|| ixp.route_server()));
    g.finish();
}

criterion_group!(
    benches,
    bench_initial_compile,
    bench_mds,
    bench_route_server_convergence
);
criterion_main!(benches);
