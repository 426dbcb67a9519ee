//! `RunStore::run` on a cold cache: a 2k-edge BioAID run decoded from a
//! typed (`RPQB` 2) base file, and the same run from a base in the
//! generic `RPQB` 1 codec, as older builds wrote it before a fold
//! rewrites it. Both include the rebuild through `Run::assemble`, the
//! fingerprint check against the catalog row and the validation
//! against the specification.
//!
//! ```text
//! cargo bench -p rpq-store --bench run_load
//! ```

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rpq_store::{codec, RunStore};
use rpq_workloads::{bioaid_like, runs};
use std::sync::Arc;

fn bench(c: &mut Criterion) {
    let spec = Arc::new(bioaid_like().spec);
    let run = runs::simulate(&spec, 2_000, 3).expect("bioaid derives");
    let mut group = c.benchmark_group("store_run_load_2k_bioaid");
    group.sample_size(20);
    for (name, generic) in [("typed", false), ("generic_v1", true)] {
        let dir = std::env::temp_dir().join(format!("rpq_run_load_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // No room in the run cache: every load decodes the files.
        let store = RunStore::create(&dir, Arc::clone(&spec))
            .expect("store creates")
            .with_cache_capacity(0);
        let id = store.ingest(&run).expect("ingests").id;
        if generic {
            let path = dir.join("runs").join(format!("run-{}.bin", id.0));
            std::fs::write(path, codec::to_bytes(&run)).expect("base rewrites");
        }
        group.bench_function(name, |b| {
            b.iter(|| black_box(store.run(id).expect("run loads")))
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
