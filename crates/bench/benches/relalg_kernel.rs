//! Pairs-vs-bits-vs-scc kernel micro-benchmarks: transitive closure
//! over the three shapes that separate the closure kernels (layered
//! DAGs, deep chains, cyclic cores) and composition over random
//! relations, across run sizes. These are the shapes
//! `rpq_relalg::SCC_DENSITY_FACTOR` and `choose_closure` were tuned on.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rpq_relalg::{
    compose_pairs_bits, compose_pairs_kernel, transitive_closure_bits, transitive_closure_pairs,
    transitive_closure_scc,
};
use rpq_workloads::runs::{
    cyclic_core_relation, deep_chain_relation, random_relation, wide_dag_relation,
};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("relalg_kernel");
    group.sample_size(10);
    for &n in &[128usize, 512, 2048] {
        let base = wide_dag_relation(n, (n / 16).max(2), 2, 0xC105 + n as u64);
        group.bench_function(BenchmarkId::new("closure_pairs", n), |b| {
            b.iter(|| std::hint::black_box(transitive_closure_pairs(&base)))
        });
        group.bench_function(BenchmarkId::new("closure_bits", n), |b| {
            b.iter(|| std::hint::black_box(transitive_closure_bits(&base, n)))
        });
        group.bench_function(BenchmarkId::new("closure_scc", n), |b| {
            b.iter(|| std::hint::black_box(transitive_closure_scc(&base, n)))
        });

        let chain = deep_chain_relation(n, 0xDC + n as u64);
        group.bench_function(BenchmarkId::new("chain_closure_bits", n), |b| {
            b.iter(|| std::hint::black_box(transitive_closure_bits(&chain, n)))
        });
        group.bench_function(BenchmarkId::new("chain_closure_scc", n), |b| {
            b.iter(|| std::hint::black_box(transitive_closure_scc(&chain, n)))
        });

        // A chain with an n/8-node cyclic core mid-way: the paper's
        // workflow regime, a DAG run with one loop.
        let core = cyclic_core_relation(n, (n / 8).max(2), 0xCC + n as u64);
        group.bench_function(BenchmarkId::new("core_closure_bits", n), |b| {
            b.iter(|| std::hint::black_box(transitive_closure_bits(&core, n)))
        });
        group.bench_function(BenchmarkId::new("core_closure_scc", n), |b| {
            b.iter(|| std::hint::black_box(transitive_closure_scc(&core, n)))
        });

        let a = random_relation(n, 4 * n, 0xA11CE + n as u64);
        let bb = random_relation(n, 4 * n, 0xB0B + n as u64);
        group.bench_function(BenchmarkId::new("compose_pairs", n), |b| {
            b.iter(|| std::hint::black_box(compose_pairs_kernel(&a, &bb)))
        });
        group.bench_function(BenchmarkId::new("compose_bits", n), |b| {
            b.iter(|| std::hint::black_box(compose_pairs_bits(&a, &bb, n)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
