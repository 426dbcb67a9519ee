//! A run loaded from a JSON file answers exactly like the run it was
//! written from. `rpq query --run`, `rpq store --add` and `--events`
//! all load runs this way, while the benchmark and most suites simulate
//! runs in-process, so this is the one place the file path is checked
//! at a realistic size (a 4k-edge BioAID run, ~1.5 MB of JSON).

#[path = "support/tamper.rs"]
mod tamper;

use rpq::labeling::RunEdge;
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

#[test]
fn a_run_file_is_rebuilt_from_its_edges_not_its_stored_adjacency() {
    let spec = rpq::workloads::paper_examples::fig2_spec();
    let run = RunBuilder::new(&spec)
        .seed(3)
        .target_edges(30)
        .build()
        .unwrap();
    let dir = std::env::temp_dir().join(format!("rpq_run_file_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let query_file = |name: &str, extra: RunEdge| {
        let path = dir.join(name);
        let json = serde_json::to_string(&tamper::with_extra_edge(&run, extra)).unwrap();
        std::fs::write(&path, &json).unwrap();
        let path = path.to_string_lossy().into_owned();
        let args = ["query", "fig2", "_* e _*", "--run", &path, "--limit", "0"];
        (json, rpq::cli::run_cli(&args.map(str::to_owned)))
    };

    // The back-edge closes a cycle the stale adjacency does not show;
    // labels would answer as if the run were still a DAG.
    let back = tamper::back_edge(&run);
    let (nodes, mut edges) = run.clone().into_parts();
    edges.push(back);
    let cyclic = Run::assemble(nodes, edges).unwrap();
    let (json, out) = query_file("stale.json", back);
    let decoded: Run = serde_json::from_str(&json).unwrap();
    assert!(decoded == cyclic);
    assert!(!decoded.is_acyclic(), "the decoded run must see its cycle");

    let session = Session::from_spec(spec);
    let query = session.prepare("_* e _*").unwrap();
    let all: Vec<NodeId> = cyclic.node_ids().collect();
    let request = QueryRequest::all_pairs(all.clone(), all.clone());
    let QueryResult::Pairs(got) = session.evaluate(&query, &decoded, &request).result else {
        panic!("all-pairs answers pairs");
    };
    // The full pair set, diagonal included: `_* e _*` does not accept
    // the empty word, so every `(u, u)` answer is a cycle through `u`
    // that reads an `e`.
    let referee = rpq::baselines::Referee::new(&cyclic, query.dfa()).all_pairs(&all, &all);
    assert_eq!(got, referee);
    assert_eq!(got.len(), 729);
    assert!(!query.dfa().accepts_epsilon());
    assert!(
        got.iter().any(|(u, v)| u == v),
        "the cycle puts no node on the diagonal"
    );
    let out = out.unwrap();
    assert!(out.contains(&format!("matches: {}\n", got.len())), "{out}");

    // An edge to a node the run does not have is a typed refusal.
    let err = query_file("outside.json", tamper::outside_edge(&run))
        .1
        .unwrap_err();
    assert!(matches!(err, RpqError::Invalid(_)), "{err:?}");
    assert!(err.to_string().contains("999"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}
