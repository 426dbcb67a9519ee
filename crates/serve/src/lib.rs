#![warn(missing_docs)]

//! A concurrent RPQ query service over warm run stores.
//!
//! The paper's premise is that workflow provenance is queried
//! *repeatedly, by many users, over a fixed corpus of runs* (Section
//! VII's stored-index workloads). `rpq-core` and `rpq-store` built the
//! substrate — a `Send + Sync` [`Session`](rpq_core::Session) with
//! plan/index caches and a [`RunStore`](rpq_store::RunStore) that
//! reloads warm artifacts — and this crate puts a socket in front of
//! it:
//!
//! * [`protocol`] — a small length-prefixed binary protocol (the run
//!   store's codec dialect: magic/version header, varints,
//!   allocation-capped decode) with one request variant per
//!   [`QueryRequest`](rpq_core::QueryRequest) mode, run addressing by
//!   store fingerprint, and responses carrying outcomes plus
//!   per-request evaluation metadata and timing;
//! * [`front`] — the network front end both serving tiers run on: a
//!   hand-rolled `std::net` accept loop over a bounded worker pool
//!   (mirroring the scoped-pool style of the batch executor) with
//!   admission control and graceful [`Overloaded`] refusals, idle
//!   keep-alive parking, per-request deadlines, chunked responses, and
//!   clean SIGTERM/ctrl-c shutdown;
//! * [`server`] — the backend tier's dispatch on that front end: a
//!   stats verb snapshotting session/store/service counters, the
//!   metrics verbs, replication verbs, and the protocol-v3 live verbs:
//!   `Append` grows an open run (the store maintains its indexes
//!   incrementally, the session refreshes at fingerprint granularity)
//!   and `Subscribe` stands a query up over it, pushing only *newly
//!   derived* answers as appends land;
//! * [`client`] — [`ServeClient`], the blocking library client the
//!   CLI's `rpq request` verb and the `servebench` load generator are
//!   built on.
//!
//! [`Overloaded`]: protocol::WireResponse::Overloaded
//!
//! Start a server, query it, stop it — all in-process:
//!
//! ```
//! use rpq_serve::{protocol::*, ServeClient, ServeConfig, Server};
//! use rpq_store::RunStore;
//! use std::sync::Arc;
//!
//! // A store with one run.
//! let dir = std::env::temp_dir().join(format!("rpq_serve_doc_{}", std::process::id()));
//! let _ = std::fs::remove_dir_all(&dir);
//! let spec = Arc::new(rpq_workloads::paper_examples::fig2_spec());
//! let store = RunStore::create(&dir, Arc::clone(&spec)).unwrap();
//! let run = rpq_labeling::RunBuilder::new(&spec).seed(1).target_edges(60).build().unwrap();
//! store.ingest(&run).unwrap();
//!
//! // Bind on an ephemeral port and serve from a background thread.
//! let server = Server::bind(store, &ServeConfig::default()).unwrap();
//! server.warm().unwrap();
//! let addr = server.local_addr().unwrap();
//! let handle = server.shutdown_handle();
//! let serving = std::thread::spawn(move || server.run(None));
//!
//! // Query it over loopback.
//! let mut client = ServeClient::connect(addr).unwrap();
//! let outcome = client
//!     .query(QuerySpec {
//!         query: "_*".to_owned(),
//!         policy: String::new(),
//!         strategy: String::new(),
//!         run: RunAddr::Index(0),
//!         stages: false,
//!         mode: WireMode::EntryExit,
//!     })
//!     .unwrap();
//! assert_eq!(outcome.result, WireResult::Bool(true));
//! assert!(client.stats().unwrap().requests >= 1);
//!
//! handle.shutdown();
//! serving.join().unwrap();
//! # let _ = std::fs::remove_dir_all(&dir);
//! ```

pub mod client;
pub mod faults;
pub mod front;
pub mod protocol;
pub mod retry;
pub mod server;
pub mod signals;

pub use client::ServeClient;
pub use front::ShutdownHandle;
pub use protocol::{
    QuerySpec, RunAddr, WireAppended, WireHistogram, WireMetricsReply, WireMode, WireOutcome,
    WireRequest, WireResponse, WireResult, WireRunInfo, WireSlowQuery, WireStatsReply,
};
pub use retry::RetryPolicy;
pub use server::{ServeConfig, ServeReport, Server};
