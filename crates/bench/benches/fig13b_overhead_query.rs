//! Fig. 13b — planning overhead vs query size k on BioAID/QBLast.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rpq_bench::{unsafe_ifq_rows, Dataset};
use rpq_core::{plan_query, Session};
use rpq_workloads::QueryGen;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig13b_overhead_vs_query_size");
    group.sample_size(20);
    for d in [Dataset::bioaid(), Dataset::qblast()] {
        for &k in &[0usize, 3, 6, 10] {
            let mut qg = QueryGen::new(d.spec(), k as u64);
            let q = qg.ifq_over(&d.real.pool_tags, k);
            group.bench_with_input(BenchmarkId::new(d.name(), k), &q, |b, q| {
                b.iter(|| std::hint::black_box(plan_query(d.spec(), q).unwrap()))
            });
            // The session's prepared-plan cache amortizes that cost to
            // a lookup: the gap is what `Session::prepare` buys.
            let session = Session::from_spec(d.spec().clone());
            session.prepare_regex(&q).unwrap();
            group.bench_with_input(
                BenchmarkId::new(format!("{}_cached", d.name()), k),
                &q,
                |b, q| b.iter(|| std::hint::black_box(session.prepare_regex(q).unwrap())),
            );
        }
    }
    // Pool-tag IFQs are safe, so the rows above never decompose; these
    // unsafe IFQs (all tags, fig13a's largest grammar) run the segment
    // search, the shape the overhead's tail comes from.
    let (spec, rows) = unsafe_ifq_rows();
    for (k, q) in &rows {
        group.bench_with_input(BenchmarkId::new("synthetic1200_unsafe", k), q, |b, q| {
            b.iter(|| std::hint::black_box(plan_query(&spec, q).unwrap()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
