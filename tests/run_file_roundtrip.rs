//! A run loaded from a JSON file answers exactly like the run it was
//! written from. `rpq query --run`, `rpq store --add` and `--events`
//! all load runs this way, while the benchmark and most suites simulate
//! runs in-process, so this is the one place the file path is checked
//! at a realistic size (a 4k-edge BioAID run, ~1.5 MB of JSON).

use rpq::prelude::*;
use rpq_workloads::{bioaid_like, runs};

#[test]
fn a_4k_edge_run_reloaded_from_json_answers_like_the_simulated_one() {
    let spec = bioaid_like().spec;
    let run = runs::simulate(&spec, 4_000, 3).expect("realistic specs derive");
    let text = serde_json::to_string(&run).expect("a run renders");
    let loaded: Run = serde_json::from_str(&text).expect("a rendered run parses");
    assert!(loaded == run, "reloaded run differs");
    assert_eq!(loaded.fingerprint(), run.fingerprint());

    let all: Vec<NodeId> = run.node_ids().collect();
    let request = QueryRequest::all_pairs(all.clone(), all);
    // One safe IFQ, and the first dense composite query of
    // `composite_dense`. Each run gets its own session, so nothing
    // cached from one serves the other.
    for (text, safe) in [
        ("_* t12 _*", true),
        ("((cyc9_2|t2|t3)+ (_*|cyc11_0 t12)+)+", false),
    ] {
        let answers = |run: &Run| {
            let session = Session::from_spec(spec.clone());
            let query = session.prepare(text).expect("query plans");
            assert_eq!(query.is_safe(), safe, "{text}");
            session.evaluate(&query, run, &request).result
        };
        let simulated = answers(&run);
        assert!(
            matches!(&simulated, QueryResult::Pairs(p) if !p.is_empty()),
            "{text}: no answers"
        );
        assert_eq!(answers(&loaded), simulated, "{text}");
    }
}
