//! Fig. 13a — safety-check/planning overhead vs grammar size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rpq_bench::unsafe_ifq_rows;
use rpq_core::plan_query;
use rpq_workloads::{synthetic, QueryGen, SynthParams};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig13a_overhead_vs_grammar_size");
    group.sample_size(20);
    for &n_composite in &[40usize, 80, 120] {
        let s = synthetic::generate(&SynthParams::fig13a(n_composite, 0xF13A));
        let mut qg = QueryGen::new(&s.spec, 1);
        let q = qg.ifq_over(&s.pool_tags, 3);
        group.bench_with_input(BenchmarkId::from_parameter(s.spec.size()), &q, |b, q| {
            b.iter(|| std::hint::black_box(plan_query(&s.spec, q).unwrap()))
        });
    }
    // The rows above are safe (pool tags): one DFA, one safety check.
    // The tail of the overhead comes from unsafe queries, whose
    // decomposition tries many segments — on the largest grammar:
    let (spec, rows) = unsafe_ifq_rows();
    for (k, q) in &rows {
        group.bench_with_input(
            BenchmarkId::new(format!("unsafe_ifq_k{k}"), spec.size()),
            q,
            |b, q| b.iter(|| std::hint::black_box(plan_query(&spec, q).unwrap())),
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
