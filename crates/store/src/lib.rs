#![warn(missing_docs)]

//! A persistent multi-run provenance store.
//!
//! The paper's headline workload is *stored-index* evaluation: a
//! compiled query served against many workflow runs whose inverted
//! indexes were built ahead of time (Section V-A "for each run, an
//! index maps an edge tag γ to a list of node pairs"). [`RunStore`]
//! makes that a persistent subsystem instead of a per-process cache:
//!
//! * **Catalog** — runs are ingested from generators or files,
//!   deduplicated by their structural fingerprint, and persisted under
//!   a store directory ([`RunStore::ingest`]);
//! * **Artifacts** — each run's derived [`TagIndex`] and [`CsrIndex`]
//!   are cached beside it (lazily on first use, or eagerly via
//!   [`RunStore::materialize_artifacts`]) with a compact binary codec
//!   ([`codec`]), each file stamped with the fingerprint of the run it
//!   was derived from, so a restarted process reloads warm indexes
//!   instead of rebuilding them — and rebuilds, never trusts, a file
//!   stamped for any other state of the run;
//! * **Batch execution** — a store is a
//!   [`RunSource`]: `Session::evaluate_batch`
//!   fans one prepared query across the whole corpus on a thread pool,
//!   seeding the session's caches with the store's warm artifacts;
//! * **Live ingestion** — a stored run opened for streaming
//!   ([`RunStore::open_run`]) receives event batches; each is appended
//!   to the run's event log and its indexes are maintained in memory
//!   ([`live`]), with a monotonic catalog epoch exposing every
//!   mutation to clients.
//!
//! Directory layout (all paths relative to the store root):
//!
//! ```text
//! spec.json               the workflow specification (JSON, human-readable)
//! catalog.json            catalog manifest: version, next id, epoch, shard bits
//! catalog/shard-XX.json   catalog rows, sharded by fingerprint prefix
//! runs/run-<id>.bin       each run as ingested or last folded (binary codec)
//! runs/run-<id>.log       event batches appended since, one checksummed segment each
//! index/tag-<id>.bin      cached TagIndex artifact, stamped with its run's fingerprint
//! index/csr-<id>.bin      cached CsrIndex artifact, stamped likewise
//! ```
//!
//! A run *is* its base file plus the committed prefix of its log; the
//! catalog row's fingerprint and sizes say where that prefix ends (see
//! [`RunStore::run`]). An append writes one log segment, then the
//! catalog row — in that order, so the row never names a state the
//! files cannot reproduce. [`RunStore::materialize_artifacts`] folds
//! logs back into base files. Every file replacement is
//! write-to-temporary-then-rename and every log write lands past the
//! committed prefix, so readers and a *process* crash at any point see
//! the state before or after a mutation, never a mix; nothing is
//! `fsync`ed, so the same is not promised across power loss. One
//! process mutates a store directory at a time: the catalog and the
//! open runs' log positions live in that process's memory.
//!
//! The catalog rows shard across `catalog/shard-XX.json` by the top
//! bits of each run's fingerprint, so one mutation rewrites one small
//! shard instead of the whole corpus — a flat single-file catalog stops
//! scaling well before the 10⁵-run corpora the serving fleet targets.
//! Stores persisted by older builds (one monolithic `catalog.json`,
//! unstamped artifacts) open transparently: the catalog migrates to the
//! sharded layout on its first mutation and each unstamped artifact is
//! rebuilt once.
//!
//! Counters ([`RunStore::stats`]) distinguish *reloads* (artifact
//! decoded from disk — the warm path) from *rebuilds* (artifact
//! re-derived from the run because no valid file existed — the cold
//! path). The benchmark's `serve_direct` workload times the warm path
//! as `store.artifact_load_us` and `store.run_load_us`.

pub mod codec;
pub mod live;
mod log;

pub use live::{Appended, LiveSnapshot, OpenRun};

use rpq_core::{RpqError, RunRef, RunSource};
use rpq_grammar::Specification;
use rpq_labeling::Run;
use rpq_relalg::{CsrIndex, TagIndex};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Identity of a run inside one store (stable across reopenings).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct RunId(pub u64);

impl std::fmt::Display for RunId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// The outcome of one [`RunStore::ingest`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ingested {
    /// The id of the run inside the store (pre-existing when deduped).
    pub id: RunId,
    /// `true` when the run's fingerprint matched an already-stored run
    /// and nothing was written.
    pub deduplicated: bool,
}

/// Monotonic counters of a [`RunStore`] (snapshot via
/// [`RunStore::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Runs written by `ingest`.
    pub ingested: u64,
    /// Ingest calls answered by fingerprint deduplication.
    pub deduplicated: u64,
    /// Runs decoded from disk (cold reads; cached thereafter).
    pub run_loads: u64,
    /// Tag indexes decoded from persisted artifacts (the warm path).
    pub tag_reloads: u64,
    /// CSR arenas decoded from persisted artifacts (the warm path).
    pub csr_reloads: u64,
    /// Tag indexes re-derived from their run (no valid artifact — the
    /// cold path; the rebuilt artifact is persisted for next time).
    pub tag_rebuilds: u64,
    /// CSR arenas re-derived likewise.
    pub csr_rebuilds: u64,
    /// Runs evicted from the catalog by [`RunStore::remove_run`].
    pub removed: u64,
    /// Stray files deleted by [`RunStore::prune_orphans`].
    pub orphans_pruned: u64,
    /// Event batches applied to open runs ([`OpenRun::append_events`]).
    pub appended: u64,
    /// Appends whose churn exceeded the threshold, forcing a full
    /// artifact rebuild instead of the incremental delta path.
    pub append_rebuilds: u64,
    /// Bytes appends handed to the filesystem: each one's log segment
    /// plus the catalog files it rewrote.
    pub append_bytes: u64,
    /// The catalog epoch: a monotonic mutation counter bumped (and
    /// persisted) on every catalog-visible change — ingest, append,
    /// removal, orphan pruning. Clients cache against it: an unchanged
    /// epoch guarantees an unchanged corpus.
    pub epoch: u64,
}

impl StoreStats {
    /// Counter movement since an `earlier` snapshot.
    pub fn since(self, earlier: StoreStats) -> StoreStats {
        StoreStats {
            ingested: self.ingested - earlier.ingested,
            deduplicated: self.deduplicated - earlier.deduplicated,
            run_loads: self.run_loads - earlier.run_loads,
            tag_reloads: self.tag_reloads - earlier.tag_reloads,
            csr_reloads: self.csr_reloads - earlier.csr_reloads,
            tag_rebuilds: self.tag_rebuilds - earlier.tag_rebuilds,
            csr_rebuilds: self.csr_rebuilds - earlier.csr_rebuilds,
            removed: self.removed - earlier.removed,
            orphans_pruned: self.orphans_pruned - earlier.orphans_pruned,
            appended: self.appended - earlier.appended,
            append_rebuilds: self.append_rebuilds - earlier.append_rebuilds,
            append_bytes: self.append_bytes - earlier.append_bytes,
            // The epoch is a level, not a rate, but it is monotonic, so
            // the difference reads as "catalog mutations since".
            epoch: self.epoch - earlier.epoch,
        }
    }
}

/// One catalog row.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct CatalogEntry {
    id: u64,
    fp_hi: u64,
    fp_lo: u64,
    n_nodes: u64,
    n_edges: u64,
}

/// The in-memory catalog. Entries are kept in ascending-id order —
/// ids are assigned monotonically and never reused, so that order is
/// exactly ingestion order, which positional addressing
/// ([`RunStore::id_at`]) depends on.
#[derive(Debug, Clone)]
struct Catalog {
    next_id: u64,
    /// Monotonic mutation counter; see [`StoreStats::epoch`].
    epoch: u64,
    entries: Vec<CatalogEntry>,
}

/// The persisted catalog manifest (`catalog.json`, version 3): scalar
/// state only. The rows live in `catalog/shard-XX.json`, selected by
/// the top `shard_bits` bits of each run's `fp_hi`.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct CatalogManifest {
    version: u32,
    next_id: u64,
    epoch: u64,
    shard_bits: u32,
}

/// One shard file's payload. Every row carries the catalog epoch it
/// was written at: an append that moves a run between shards (its
/// fingerprint changes) writes the new shard *before* scrubbing the
/// old one, so a crash between the two leaves the id in both — the
/// loader keeps the higher stamp, which is always the newer row.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct CatalogShard {
    entries: Vec<ShardEntry>,
}

/// One stamped shard row.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ShardEntry {
    stamp: u64,
    entry: CatalogEntry,
}

/// The version-2 monolithic shape (`catalog.json` carrying the rows
/// inline), decoded as a fallback and migrated to the sharded layout
/// on the store's first persisted mutation.
#[derive(Debug, Clone, Deserialize)]
struct CatalogV2 {
    version: u32,
    next_id: u64,
    epoch: u64,
    entries: Vec<CatalogEntry>,
}

/// The version-1 shape: monolithic and lacking the epoch field too;
/// upgraded in memory with `epoch = 0`.
#[derive(Debug, Clone, Deserialize)]
struct CatalogV1 {
    version: u32,
    next_id: u64,
    entries: Vec<CatalogEntry>,
}

const CATALOG_VERSION: u32 = 3;

/// Shard-count exponent for newly created (and migrated) stores:
/// 2⁴ = 16 shard files.
const SHARD_BITS: u32 = 4;

/// Upper bound on the exponent accepted from a manifest — bounds the
/// shard scan a corrupt `shard_bits` could otherwise demand.
const MAX_SHARD_BITS: u32 = 8;

/// Which catalog shard a fingerprint's row lives in.
fn shard_of(fp_hi: u64, shard_bits: u32) -> usize {
    if shard_bits == 0 {
        0
    } else {
        (fp_hi >> (64 - shard_bits)) as usize
    }
}

/// A shard file's name inside `catalog/`.
fn shard_name(shard: usize) -> String {
    format!("shard-{shard:02x}.json")
}

/// Fingerprint key for deduplication — same composition as the
/// session's run-cache key (fingerprint + sizes as collision guard).
type FpKey = (u64, u64, u64, u64);

/// A run's cached artifact pair: its tag index and CSR arena.
type ArtifactPair = (Arc<TagIndex>, Arc<CsrIndex>);

fn fp_key(run: &Run) -> FpKey {
    let (hi, lo) = run.fingerprint();
    (hi, lo, run.n_nodes() as u64, run.n_edges() as u64)
}

struct CatalogState {
    catalog: Catalog,
    by_fingerprint: HashMap<FpKey, RunId>,
    /// Is the on-disk layout already the sharded v3 one? Stores opened
    /// from a legacy monolithic `catalog.json` migrate wholesale on
    /// their first persisted mutation.
    sharded: bool,
    shard_bits: u32,
}

/// A size-bounded LRU over the store's in-memory caches, mirroring the
/// session's per-run cache bound: without it, `--cache` would bound
/// the session while the store quietly retained every run and artifact
/// pair for the whole corpus. Unbounded by default. Eviction scans for
/// the minimum tick — O(len) per eviction, fine for the capacities a
/// working set wants (tens to thousands); a heap would pay off only
/// far beyond that.
struct BoundedCache<V> {
    entries: HashMap<RunId, (V, u64)>,
    tick: u64,
    capacity: usize,
}

impl<V: Clone> BoundedCache<V> {
    fn new() -> BoundedCache<V> {
        BoundedCache {
            entries: HashMap::new(),
            tick: 0,
            capacity: usize::MAX,
        }
    }

    fn get(&mut self, id: &RunId) -> Option<V> {
        let tick = self.tick + 1;
        let (value, last_used) = self.entries.get_mut(id)?;
        self.tick = tick;
        *last_used = tick;
        Some(value.clone())
    }

    /// Insert (keeping any racing entry) and trim to capacity.
    fn insert_or_keep(&mut self, id: RunId, value: V) -> V {
        self.tick += 1;
        let entry = self.entries.entry(id).or_insert((value, self.tick));
        entry.1 = self.tick;
        let kept = entry.0.clone();
        self.trim();
        kept
    }

    /// Insert, displacing any entry already there.
    fn replace(&mut self, id: RunId, value: V) {
        self.entries.remove(&id);
        self.insert_or_keep(id, value);
    }

    fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity;
        self.trim();
    }

    fn remove(&mut self, id: &RunId) {
        self.entries.remove(id);
    }

    fn trim(&mut self) {
        while self.entries.len() > self.capacity {
            let stalest = self
                .entries
                .iter()
                .min_by_key(|(_, (_, last_used))| *last_used)
                .map(|(id, _)| *id)
                .expect("len > capacity >= 0 implies non-empty");
            self.entries.remove(&stalest);
        }
    }
}

/// A directory-backed catalog of runs and their derived artifacts.
///
/// The store is `Send + Sync`: the catalog and both in-memory caches
/// sit behind mutexes, so a batch executor's worker threads can load
/// runs and artifacts concurrently.
pub struct RunStore {
    dir: PathBuf,
    spec: Arc<Specification>,
    state: Mutex<CatalogState>,
    runs: Mutex<BoundedCache<Arc<Run>>>,
    artifacts: Mutex<BoundedCache<ArtifactPair>>,
    /// Live handles of runs open for streaming appends, one per run:
    /// reopening an already-open run must share its handle, or two
    /// live states would race on the same files.
    open_runs: Mutex<HashMap<RunId, std::sync::Weak<OpenRun>>>,
    ingested: AtomicU64,
    deduplicated: AtomicU64,
    run_loads: AtomicU64,
    tag_reloads: AtomicU64,
    csr_reloads: AtomicU64,
    tag_rebuilds: AtomicU64,
    csr_rebuilds: AtomicU64,
    removed: AtomicU64,
    orphans_pruned: AtomicU64,
    appended: AtomicU64,
    append_rebuilds: AtomicU64,
    append_bytes: AtomicU64,
}

/// One run's catalog row, as exposed to clients ([`RunStore::metas`]):
/// how a query service addresses stored runs by fingerprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunMeta {
    /// The run's id inside this store.
    pub id: RunId,
    /// High half of the structural fingerprint.
    pub fp_hi: u64,
    /// Low half of the structural fingerprint.
    pub fp_lo: u64,
    /// Node count at ingestion.
    pub n_nodes: u64,
    /// Edge count at ingestion.
    pub n_edges: u64,
}

impl RunStore {
    // -- opening -------------------------------------------------------

    /// Create a new store at `dir` (created if absent) for `spec`.
    /// Fails if the directory already holds a store.
    pub fn create(dir: impl Into<PathBuf>, spec: Arc<Specification>) -> Result<RunStore, RpqError> {
        let dir = dir.into();
        if dir.join("catalog.json").exists() {
            return Err(RpqError::invalid(format!(
                "directory {dir:?} already holds a run store; use open"
            )));
        }
        for sub in ["runs", "index", "catalog"] {
            std::fs::create_dir_all(dir.join(sub))
                .map_err(|e| RpqError::io(format!("cannot create store directory {dir:?}"), e))?;
        }
        let spec_json = serde_json::to_string(spec.as_ref())
            .map_err(|e| RpqError::invalid(format!("cannot serialize specification: {e}")))?;
        write_atomic(&dir.join("spec.json"), spec_json.as_bytes())?;
        let store = RunStore::assemble(
            dir,
            spec,
            Catalog {
                next_id: 0,
                epoch: 0,
                entries: Vec::new(),
            },
            true,
            SHARD_BITS,
        );
        {
            let mut state = store.state.lock().expect("catalog lock");
            store.persist_catalog(&mut state, Some(&[]))?;
        }
        Ok(store)
    }

    /// Open an existing store, loading its specification and catalog.
    pub fn open(dir: impl Into<PathBuf>) -> Result<RunStore, RpqError> {
        let dir = dir.into();
        let spec_text = std::fs::read_to_string(dir.join("spec.json"))
            .map_err(|e| RpqError::io(format!("cannot read {dir:?}/spec.json"), e))?;
        let spec: Specification = serde_json::from_str(&spec_text)
            .map_err(|e| RpqError::invalid(format!("corrupt spec.json in {dir:?}: {e}")))?;
        let catalog_text = std::fs::read_to_string(dir.join("catalog.json"))
            .map_err(|e| RpqError::io(format!("cannot read {dir:?}/catalog.json"), e))?;
        // Current stores keep a slim manifest in catalog.json and the
        // rows in per-prefix shard files; legacy monolithic catalogs
        // (v1/v2, rows inline) decode through the fallback shapes —
        // each shape has a field the others lack, so the first
        // successful decode identifies the layout.
        if let Ok(manifest) = serde_json::from_str::<CatalogManifest>(&catalog_text) {
            if manifest.version != CATALOG_VERSION {
                return Err(RpqError::invalid(format!(
                    "store {dir:?} has catalog version {} (this build reads up to \
                     {CATALOG_VERSION})",
                    manifest.version
                )));
            }
            if manifest.shard_bits > MAX_SHARD_BITS {
                return Err(RpqError::invalid(format!(
                    "corrupt catalog.json in {dir:?}: shard_bits {} exceeds {MAX_SHARD_BITS}",
                    manifest.shard_bits
                )));
            }
            let mut by_id: HashMap<u64, ShardEntry> = HashMap::new();
            for shard in 0..(1usize << manifest.shard_bits) {
                let path = dir.join("catalog").join(shard_name(shard));
                let text = match std::fs::read_to_string(&path) {
                    Ok(text) => text,
                    // A missing shard file is an empty shard.
                    Err(e) if e.kind() == std::io::ErrorKind::NotFound => continue,
                    Err(e) => return Err(RpqError::io(format!("cannot read {path:?}"), e)),
                };
                let shard: CatalogShard = serde_json::from_str(&text).map_err(|e| {
                    RpqError::invalid(format!("corrupt catalog shard {path:?}: {e}"))
                })?;
                for row in shard.entries {
                    // An id present in two shards is an interrupted
                    // cross-shard move; the higher stamp is the newer row.
                    match by_id.get(&row.entry.id) {
                        Some(kept) if kept.stamp >= row.stamp => {}
                        _ => {
                            by_id.insert(row.entry.id, row);
                        }
                    }
                }
            }
            let mut entries: Vec<CatalogEntry> = by_id.into_values().map(|row| row.entry).collect();
            entries.sort_by_key(|e| e.id);
            let catalog = Catalog {
                next_id: manifest.next_id,
                epoch: manifest.epoch,
                entries,
            };
            return Ok(RunStore::assemble(
                dir,
                Arc::new(spec),
                catalog,
                true,
                manifest.shard_bits,
            ));
        }
        let catalog = match serde_json::from_str::<CatalogV2>(&catalog_text) {
            Ok(v2) if (1..=2).contains(&v2.version) => Catalog {
                next_id: v2.next_id,
                epoch: v2.epoch,
                entries: v2.entries,
            },
            Ok(v2) => {
                return Err(RpqError::invalid(format!(
                    "store {dir:?} has catalog version {} (this build reads up to \
                     {CATALOG_VERSION})",
                    v2.version
                )))
            }
            Err(_) => {
                let v1: CatalogV1 = serde_json::from_str(&catalog_text).map_err(|e| {
                    RpqError::invalid(format!("corrupt catalog.json in {dir:?}: {e}"))
                })?;
                if v1.version != 1 {
                    return Err(RpqError::invalid(format!(
                        "store {dir:?} has catalog version {} (this build reads up to \
                         {CATALOG_VERSION})",
                        v1.version
                    )));
                }
                Catalog {
                    next_id: v1.next_id,
                    epoch: 0,
                    entries: v1.entries,
                }
            }
        };
        Ok(RunStore::assemble(
            dir,
            Arc::new(spec),
            catalog,
            false,
            SHARD_BITS,
        ))
    }

    /// Open the store at `dir` when one exists (verifying it was built
    /// for `spec`), create it otherwise.
    pub fn open_or_create(
        dir: impl Into<PathBuf>,
        spec: Arc<Specification>,
    ) -> Result<RunStore, RpqError> {
        let dir = dir.into();
        if dir.join("catalog.json").exists() {
            let store = RunStore::open(&dir)?;
            if *store.spec != *spec {
                return Err(RpqError::invalid(format!(
                    "store {dir:?} was built for a different specification"
                )));
            }
            Ok(store)
        } else {
            RunStore::create(dir, spec)
        }
    }

    /// Bound the in-memory run and artifact caches to at most
    /// `capacity` runs each (LRU). Pairs with
    /// `Session::with_cache_capacity`: bounding only the session would
    /// leave this store retaining the whole corpus anyway. Persisted
    /// files are unaffected — evicted entries reload from disk.
    pub fn with_cache_capacity(self, capacity: usize) -> RunStore {
        self.runs
            .lock()
            .expect("run cache lock")
            .set_capacity(capacity);
        self.artifacts
            .lock()
            .expect("artifact cache lock")
            .set_capacity(capacity);
        self
    }

    fn assemble(
        dir: PathBuf,
        spec: Arc<Specification>,
        catalog: Catalog,
        sharded: bool,
        shard_bits: u32,
    ) -> RunStore {
        let by_fingerprint = catalog
            .entries
            .iter()
            .map(|e| ((e.fp_hi, e.fp_lo, e.n_nodes, e.n_edges), RunId(e.id)))
            .collect();
        RunStore {
            dir,
            spec,
            state: Mutex::new(CatalogState {
                catalog,
                by_fingerprint,
                sharded,
                shard_bits,
            }),
            runs: Mutex::new(BoundedCache::new()),
            artifacts: Mutex::new(BoundedCache::new()),
            open_runs: Mutex::new(HashMap::new()),
            ingested: AtomicU64::new(0),
            deduplicated: AtomicU64::new(0),
            run_loads: AtomicU64::new(0),
            tag_reloads: AtomicU64::new(0),
            csr_reloads: AtomicU64::new(0),
            tag_rebuilds: AtomicU64::new(0),
            csr_rebuilds: AtomicU64::new(0),
            removed: AtomicU64::new(0),
            orphans_pruned: AtomicU64::new(0),
            appended: AtomicU64::new(0),
            append_rebuilds: AtomicU64::new(0),
            append_bytes: AtomicU64::new(0),
        }
    }

    // -- accessors -----------------------------------------------------

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The specification every stored run derives from.
    pub fn spec(&self) -> &Specification {
        &self.spec
    }

    /// A shared handle to the specification — open sessions over it so
    /// prepared queries and stored runs always agree.
    pub fn spec_arc(&self) -> Arc<Specification> {
        Arc::clone(&self.spec)
    }

    /// Number of stored runs.
    pub fn len(&self) -> usize {
        self.state
            .lock()
            .expect("catalog lock")
            .catalog
            .entries
            .len()
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Ids of all stored runs, in catalog (ingestion) order.
    pub fn ids(&self) -> Vec<RunId> {
        self.state
            .lock()
            .expect("catalog lock")
            .catalog
            .entries
            .iter()
            .map(|e| RunId(e.id))
            .collect()
    }

    /// The id at catalog position `i` — the allocation-free lookup the
    /// batch executor uses per run (a full [`RunStore::ids`] snapshot
    /// per run would make an `n`-run batch quadratic).
    pub fn id_at(&self, i: usize) -> Option<RunId> {
        self.state
            .lock()
            .expect("catalog lock")
            .catalog
            .entries
            .get(i)
            .map(|e| RunId(e.id))
    }

    /// Catalog rows of every stored run, in ingestion order — the
    /// inventory a query service hands to clients so they can address
    /// runs by fingerprint.
    pub fn metas(&self) -> Vec<RunMeta> {
        self.state
            .lock()
            .expect("catalog lock")
            .catalog
            .entries
            .iter()
            .map(|e| RunMeta {
                id: RunId(e.id),
                fp_hi: e.fp_hi,
                fp_lo: e.fp_lo,
                n_nodes: e.n_nodes,
                n_edges: e.n_edges,
            })
            .collect()
    }

    /// Resolve a run by its structural fingerprint (the sizes stored
    /// beside it disambiguate nothing here: two runs sharing 128
    /// fingerprint bits *and* differing in size would have collided at
    /// ingestion already).
    pub fn find_by_fingerprint(&self, fp_hi: u64, fp_lo: u64) -> Option<RunId> {
        self.state
            .lock()
            .expect("catalog lock")
            .catalog
            .entries
            .iter()
            .find(|e| e.fp_hi == fp_hi && e.fp_lo == fp_lo)
            .map(|e| RunId(e.id))
    }

    /// The current catalog epoch — bumped (and persisted) on every
    /// catalog-visible mutation: ingest, append, removal, pruning.
    pub fn epoch(&self) -> u64 {
        self.state.lock().expect("catalog lock").catalog.epoch
    }

    /// Counter snapshot.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            ingested: self.ingested.load(Ordering::Relaxed),
            deduplicated: self.deduplicated.load(Ordering::Relaxed),
            run_loads: self.run_loads.load(Ordering::Relaxed),
            tag_reloads: self.tag_reloads.load(Ordering::Relaxed),
            csr_reloads: self.csr_reloads.load(Ordering::Relaxed),
            tag_rebuilds: self.tag_rebuilds.load(Ordering::Relaxed),
            csr_rebuilds: self.csr_rebuilds.load(Ordering::Relaxed),
            removed: self.removed.load(Ordering::Relaxed),
            orphans_pruned: self.orphans_pruned.load(Ordering::Relaxed),
            appended: self.appended.load(Ordering::Relaxed),
            append_rebuilds: self.append_rebuilds.load(Ordering::Relaxed),
            append_bytes: self.append_bytes.load(Ordering::Relaxed),
            epoch: self.epoch(),
        }
    }

    // -- ingestion -----------------------------------------------------

    /// Ingest one run: validate it against the store's specification,
    /// deduplicate by structural fingerprint, and persist it. Artifacts
    /// are *not* built here — they materialize on first use (or all at
    /// once via [`RunStore::materialize_artifacts`]), so ingestion
    /// stays cheap.
    pub fn ingest(&self, run: &Run) -> Result<Ingested, RpqError> {
        run.validate_against(&self.spec)
            .map_err(|e| RpqError::invalid(format!("run does not match the store spec: {e}")))?;
        let key = fp_key(run);
        // The catalog lock is held across the file writes: ingestion is
        // rare next to queries, and serializing it keeps the
        // id-assignment / catalog-write pair atomic without a journal.
        let mut state = self.state.lock().expect("catalog lock");
        if let Some(&id) = state.by_fingerprint.get(&key) {
            self.deduplicated.fetch_add(1, Ordering::Relaxed);
            return Ok(Ingested {
                id,
                deduplicated: true,
            });
        }
        let id = RunId(state.catalog.next_id);
        write_atomic(&self.run_path(id), &codec::to_bytes(run))?;
        state.catalog.next_id += 1;
        state.catalog.entries.push(CatalogEntry {
            id: id.0,
            fp_hi: key.0,
            fp_lo: key.1,
            n_nodes: key.2,
            n_edges: key.3,
        });
        state.by_fingerprint.insert(key, id);
        state.catalog.epoch += 1;
        let dirty = [shard_of(key.0, state.shard_bits)];
        if let Err(e) = self.persist_catalog(&mut state, Some(&dirty)) {
            // Keep memory and disk consistent: a run whose catalog row
            // never landed must not look ingested (a later retry would
            // dedupe against a row that does not exist on disk). The
            // already-written run file is a harmless orphan.
            state.catalog.entries.pop();
            state.by_fingerprint.remove(&key);
            state.catalog.next_id -= 1;
            state.catalog.epoch -= 1;
            return Err(e);
        }
        drop(state);
        self.ingested.fetch_add(1, Ordering::Relaxed);
        self.runs
            .lock()
            .expect("run cache lock")
            .insert_or_keep(id, Arc::new(run.clone()));
        Ok(Ingested {
            id,
            deduplicated: false,
        })
    }

    /// Ingest a run serialized as JSON (e.g. by `rpq simulate --out`).
    pub fn ingest_json_file(&self, path: impl AsRef<Path>) -> Result<Ingested, RpqError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| RpqError::io(format!("cannot read run {path:?}"), e))?;
        let run: Run = serde_json::from_str(&text)
            .map_err(|e| RpqError::invalid(format!("cannot parse run {path:?}: {e}")))?;
        self.ingest(&run)
    }

    /// Leave the store warm and compact: for every run that is not
    /// currently open for appends, fold its event log into the base
    /// file and persist whichever index artifact is missing or stamped
    /// for another state of the run. Returns how many runs had
    /// anything written.
    ///
    /// The fold is the one place a run's files are rewritten, and it
    /// is explicit — no append ever triggers it. It is crash-safe by
    /// the rule every reader follows: the new base is renamed into
    /// place *before* the log is unlinked, and a base that already
    /// matches the catalog row applies zero segments, so the stale log
    /// a crash leaves between the two steps is ignored.
    pub fn materialize_artifacts(&self) -> Result<usize, RpqError> {
        let mut materialized = 0;
        for id in self.ids() {
            // Held across the fold: `open_run` takes this lock first,
            // so no appender can start on a run while its log is being
            // folded away underneath it.
            let open = self.open_runs.lock().expect("open-run registry lock");
            if open.get(&id).is_some_and(|run| run.strong_count() > 0) {
                continue;
            }
            let folded = self.log_path(id).exists();
            if folded {
                let run = self.run(id)?;
                write_atomic(&self.run_path(id), &codec::to_bytes(run.as_ref()))?;
                let _ = std::fs::remove_file(self.log_path(id));
            }
            let key = self.catalog_key(id)?;
            let (tag_path, csr_path) = (self.tag_path(id), self.csr_path(id));
            let stale = |path: &Path| !is_stamped(path, key);
            let mut wrote = folded;
            if stale(&tag_path) || stale(&csr_path) {
                // artifacts() persists only what it rebuilt; a pair
                // served from the in-memory cache leaves stale files
                // stale, and "materialized" must mean "on disk".
                let (tag, csr) = self.artifacts(id)?;
                if stale(&tag_path) {
                    write_atomic(&tag_path, &stamped(key, tag.as_ref()))?;
                }
                if stale(&csr_path) {
                    write_atomic(&csr_path, &stamped(key, csr.as_ref()))?;
                }
                wrote = true;
            }
            materialized += usize::from(wrote);
        }
        Ok(materialized)
    }

    // -- garbage collection --------------------------------------------

    /// Evict the run with the given structural fingerprint from the
    /// store: its catalog row is dropped (and the shrunken catalog
    /// persisted) before any file is touched, so a crash mid-removal
    /// leaves orphaned binaries — cleaned by [`RunStore::prune_orphans`]
    /// — never a catalog row pointing at deleted bytes. If persisting
    /// the shrunken catalog fails, the in-memory state rolls back and
    /// the store is unchanged. Returns the evicted id, or `None` when
    /// no stored run has that fingerprint.
    pub fn remove_run(&self, fingerprint: (u64, u64)) -> Result<Option<RunId>, RpqError> {
        let (fp_hi, fp_lo) = fingerprint;
        let mut state = self.state.lock().expect("catalog lock");
        let Some(position) = state
            .catalog
            .entries
            .iter()
            .position(|e| e.fp_hi == fp_hi && e.fp_lo == fp_lo)
        else {
            return Ok(None);
        };
        let entry = state.catalog.entries.remove(position);
        let id = RunId(entry.id);
        let key = (entry.fp_hi, entry.fp_lo, entry.n_nodes, entry.n_edges);
        state.by_fingerprint.remove(&key);
        state.catalog.epoch += 1;
        let dirty = [shard_of(entry.fp_hi, state.shard_bits)];
        if let Err(e) = self.persist_catalog(&mut state, Some(&dirty)) {
            // Roll back: a run whose catalog row is still on disk must
            // stay addressable (and deduplicable) in memory too.
            state.catalog.entries.insert(position, entry);
            state.by_fingerprint.insert(key, id);
            state.catalog.epoch -= 1;
            return Err(e);
        }
        drop(state);
        self.runs.lock().expect("run cache lock").remove(&id);
        self.artifacts
            .lock()
            .expect("artifact cache lock")
            .remove(&id);
        // File deletion is best-effort: the catalog no longer references
        // them, so a failed unlink merely leaves an orphan for the next
        // prune pass.
        for path in [
            self.run_path(id),
            self.log_path(id),
            self.tag_path(id),
            self.csr_path(id),
        ] {
            let _ = std::fs::remove_file(path);
        }
        self.removed.fetch_add(1, Ordering::Relaxed);
        Ok(Some(id))
    }

    /// [`RunStore::remove_run`] addressed by store id instead of
    /// fingerprint.
    pub fn remove_run_by_id(&self, id: RunId) -> Result<bool, RpqError> {
        let fingerprint = {
            let state = self.state.lock().expect("catalog lock");
            state
                .catalog
                .entries
                .iter()
                .find(|e| e.id == id.0)
                .map(|e| (e.fp_hi, e.fp_lo))
        };
        match fingerprint {
            Some(fp) => Ok(self.remove_run(fp)?.is_some()),
            None => Ok(false),
        }
    }

    /// Delete every file under `runs/` and `index/` that no catalog row
    /// references: leftovers of interrupted removals, tmp files of
    /// crashed atomic writes, artifacts of runs evicted while their
    /// unlink failed. A `plans/` directory (compiled safe plans that
    /// older builds persisted; nothing reads them now) goes whole.
    /// Returns how many files were deleted. The catalog
    /// rows are never touched; a pass that deleted anything bumps the
    /// epoch (files under the store changed) and re-persists.
    pub fn prune_orphans(&self) -> Result<usize, RpqError> {
        // The catalog lock is held across the whole scan-and-delete:
        // ingestion also serializes on it, so a run being ingested
        // concurrently can never be mistaken for an orphan off a stale
        // id snapshot. GC is rare; blocking ingest for its duration is
        // the cheap end of that trade.
        let mut state = self.state.lock().expect("catalog lock");
        let live: std::collections::HashSet<u64> =
            state.catalog.entries.iter().map(|e| e.id).collect();
        let expected = |sub: &str, name: &str| -> bool {
            let id = if sub == "runs" {
                // A cataloged run's event log is as live as its base.
                name.strip_prefix("run-")
                    .and_then(|s| s.strip_suffix(".bin").or_else(|| s.strip_suffix(".log")))
            } else {
                name.strip_prefix("tag-")
                    .or_else(|| name.strip_prefix("csr-"))
                    .and_then(|s| s.strip_suffix(".bin"))
            };
            id.and_then(|s| s.parse::<u64>().ok())
                .is_some_and(|id| live.contains(&id))
        };
        // Artifact writes happen outside the catalog lock, so a *young*
        // tmp file may be a live run's artifact persist in flight —
        // deleting it would fail that writer's rename. Old tmp files
        // are crash leftovers and safe to reap.
        let tmp_grace = std::time::Duration::from_secs(60);
        let is_fresh_tmp = |entry: &std::fs::DirEntry, name: &str| -> bool {
            name.contains(".tmp.")
                && entry
                    .metadata()
                    .and_then(|m| m.modified())
                    .ok()
                    .and_then(|t| t.elapsed().ok())
                    .is_some_and(|age| age < tmp_grace)
        };
        let mut pruned = 0;
        for sub in ["runs", "index"] {
            let dir = self.dir.join(sub);
            let entries = std::fs::read_dir(&dir)
                .map_err(|e| RpqError::io(format!("cannot list store directory {dir:?}"), e))?;
            for entry in entries {
                let entry =
                    entry.map_err(|e| RpqError::io(format!("cannot list {dir:?} entry"), e))?;
                let name = entry.file_name();
                let name = name.to_string_lossy();
                if expected(sub, &name) || is_fresh_tmp(&entry, &name) {
                    continue;
                }
                std::fs::remove_file(entry.path()).map_err(|e| {
                    RpqError::io(format!("cannot delete orphan {:?}", entry.path()), e)
                })?;
                pruned += 1;
            }
        }
        let plans = self.dir.join("plans");
        if let Ok(entries) = std::fs::read_dir(&plans) {
            pruned += entries.count();
            std::fs::remove_dir_all(&plans)
                .map_err(|e| RpqError::io(format!("cannot delete {plans:?}"), e))?;
        }
        if pruned > 0 {
            state.catalog.epoch += 1;
            // No rows changed — only the manifest's epoch (and, on a
            // legacy store, the one-time shard migration) needs writing.
            if let Err(e) = self.persist_catalog(&mut state, Some(&[])) {
                state.catalog.epoch -= 1;
                return Err(e);
            }
        }
        drop(state);
        self.orphans_pruned
            .fetch_add(pruned as u64, Ordering::Relaxed);
        Ok(pruned)
    }

    // -- loading -------------------------------------------------------

    /// The stored run with `id`, decoded at most once per process: its
    /// base file plus the committed prefix of its event log, validated
    /// against the specification.
    pub fn run(&self, id: RunId) -> Result<Arc<Run>, RpqError> {
        let _span = rpq_obs::Trace::span("store_load");
        if let Some(run) = self.runs.lock().expect("run cache lock").get(&id) {
            return Ok(run);
        }
        let (run, _) = self.load_run(id)?;
        Ok(self
            .runs
            .lock()
            .expect("run cache lock")
            .insert_or_keep(id, Arc::new(run)))
    }

    /// Decode run `id` from its files. The catalog row is the commit
    /// record: log segments are applied to the base until the replayed
    /// run has the row's size, the result is assembled once, and its
    /// fingerprint must then be the row's — anything else is a typed
    /// error, never a run served under another run's name. Whatever
    /// the log holds past that point (an append whose catalog bump
    /// never landed, a torn write, the folded segments of an
    /// interrupted fold) is ignored. Also returns the byte length of
    /// the applied log prefix, which is where the next append goes.
    fn load_run(&self, id: RunId) -> Result<(Run, u64), RpqError> {
        let key = self.catalog_key(id)?;
        // Log before base: a fold renames the new base into place
        // before it unlinks the log, so reading in this order can pair
        // a folded base with the stale log (zero segments apply) but
        // never the old base with no log.
        let log_path = self.log_path(id);
        let log = match std::fs::read(&log_path) {
            Ok(bytes) => bytes,
            // Never appended to, or folded since.
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(RpqError::io(format!("cannot read {log_path:?}"), e)),
        };
        let path = self.run_path(id);
        let bytes = std::fs::read(&path)
            .map_err(|e| RpqError::io(format!("cannot read stored run {path:?}"), e))?;
        let mut run: Run = codec::from_bytes(&bytes)
            .map_err(|e| RpqError::invalid(format!("corrupt stored run {path:?}: {e}")))?;
        let mut applied = 0;
        if (run.n_nodes() as u64, run.n_edges() as u64) != (key.2, key.3) {
            let (mut nodes, mut edges) = run.into_parts();
            let mut segments = log::segments(&log);
            while (nodes.len() as u64, edges.len() as u64) != (key.2, key.3) {
                let Some((batch, end)) = segments.next() else {
                    break;
                };
                nodes.extend(batch.nodes);
                edges.extend(batch.edges);
                applied = end;
            }
            run = Run::assemble(nodes, edges)
                .map_err(|e| RpqError::invalid(format!("corrupt event log {log_path:?}: {e}")))?;
        }
        let replayed = fp_key(&run);
        if replayed != key {
            return Err(RpqError::invalid(format!(
                "stored run {id} does not match its catalog row: {path:?} plus {applied} of \
                 {} log byte(s) give {} node(s), {} edge(s), fingerprint {:016x}{:016x}; the \
                 row says {}, {}, {:016x}{:016x}",
                log.len(),
                replayed.2,
                replayed.3,
                replayed.0,
                replayed.1,
                key.2,
                key.3,
                key.0,
                key.1
            )));
        }
        run.validate_against(&self.spec).map_err(|e| {
            RpqError::invalid(format!(
                "stored run {path:?} does not match the store spec: {e}"
            ))
        })?;
        self.run_loads.fetch_add(1, Ordering::Relaxed);
        Ok((run, applied))
    }

    /// The catalog row of `id` as a fingerprint key: the identity the
    /// run's files must replay to and its artifacts must be stamped
    /// with.
    fn catalog_key(&self, id: RunId) -> Result<FpKey, RpqError> {
        let state = self.state.lock().expect("catalog lock");
        state
            .catalog
            .entries
            .iter()
            .find(|e| e.id == id.0)
            .map(|e| (e.fp_hi, e.fp_lo, e.n_nodes, e.n_edges))
            .ok_or_else(|| RpqError::invalid(format!("no run {id} in this store")))
    }

    /// The run's derived artifacts — decoded from their cached files
    /// when those are stamped with the run's current fingerprint and
    /// well-formed (counted as *reloads*), re-derived from the run and
    /// persisted otherwise (counted as *rebuilds*). The stamp binds a
    /// file to one state of one run: an artifact of a *different* run,
    /// or of this run before it grew (a mis-restored backup, a copied
    /// file, a crash between an append and the next fold), or one
    /// written before artifacts were stamped, falls back to rebuild
    /// rather than silently answer for the wrong graph.
    pub fn artifacts(&self, id: RunId) -> Result<ArtifactPair, RpqError> {
        let _span = rpq_obs::Trace::span("store_load");
        if let Some(pair) = self.artifacts.lock().expect("artifact cache lock").get(&id) {
            return Ok(pair);
        }
        let n_tags = self.spec.n_tags();
        let mut key = self.catalog_key(id)?;

        let tag = match decode_stamped::<TagIndex>(&self.tag_path(id), key) {
            Some(index) if index.is_well_formed(n_tags) => {
                self.tag_reloads.fetch_add(1, Ordering::Relaxed);
                Arc::new(index)
            }
            _ => {
                let run = self.run(id)?;
                // Stamp what the index was built from, should the run
                // have grown since the row was read.
                key = fp_key(&run);
                let index = TagIndex::build(&run, n_tags);
                write_atomic(&self.tag_path(id), &stamped(key, &index))?;
                self.tag_rebuilds.fetch_add(1, Ordering::Relaxed);
                Arc::new(index)
            }
        };

        let csr = match decode_stamped::<CsrIndex>(&self.csr_path(id), key) {
            Some(csr)
                if csr.is_well_formed(n_tags)
                    && csr.n_nodes() == tag.n_nodes()
                    && csr.all().n_edges() == tag.all_edges().len() =>
            {
                self.csr_reloads.fetch_add(1, Ordering::Relaxed);
                Arc::new(csr)
            }
            _ => {
                let csr = CsrIndex::build(&tag);
                write_atomic(&self.csr_path(id), &stamped(key, &csr))?;
                self.csr_rebuilds.fetch_add(1, Ordering::Relaxed);
                Arc::new(csr)
            }
        };

        Ok(self
            .artifacts
            .lock()
            .expect("artifact cache lock")
            .insert_or_keep(id, (tag, csr)))
    }

    // -- paths & persistence -------------------------------------------

    fn run_path(&self, id: RunId) -> PathBuf {
        self.dir.join("runs").join(format!("run-{}.bin", id.0))
    }

    fn log_path(&self, id: RunId) -> PathBuf {
        self.dir.join("runs").join(format!("run-{}.log", id.0))
    }

    fn tag_path(&self, id: RunId) -> PathBuf {
        self.dir.join("index").join(format!("tag-{}.bin", id.0))
    }

    fn csr_path(&self, id: RunId) -> PathBuf {
        self.dir.join("index").join(format!("csr-{}.bin", id.0))
    }

    /// Persist the catalog: the slim manifest in `catalog.json` plus
    /// the shard files named in `dirty` (each a prefix index from
    /// [`shard_of`]). `None` — or a store still on the legacy
    /// monolithic layout — rewrites every shard. Returns the bytes
    /// written.
    ///
    /// Write ordering carries the crash-consistency argument. Normal
    /// mutations write the manifest *first*: a crash before the dirty
    /// shard lands loses the newest row but persists the advanced
    /// `next_id`/`epoch`, so a reopened store can never hand out a
    /// colliding id or falsely report an old epoch as current. The
    /// one-time migration off a legacy monolithic catalog inverts
    /// that — all shards first, manifest *last* — so a crash mid-way
    /// leaves the legacy file authoritative and the partial shards
    /// inert until a later complete pass.
    fn persist_catalog(
        &self,
        state: &mut CatalogState,
        dirty: Option<&[usize]>,
    ) -> Result<u64, RpqError> {
        let manifest = CatalogManifest {
            version: CATALOG_VERSION,
            next_id: state.catalog.next_id,
            epoch: state.catalog.epoch,
            shard_bits: state.shard_bits,
        };
        let json = serde_json::to_string(&manifest)
            .map_err(|e| RpqError::invalid(format!("cannot serialize catalog: {e}")))?;
        let manifest_path = self.dir.join("catalog.json");
        let mut written = json.len() as u64;
        if state.sharded {
            if let Some(dirty) = dirty {
                write_atomic(&manifest_path, json.as_bytes())?;
                for &shard in dirty {
                    written += self.persist_shard(state, shard)?;
                }
                return Ok(written);
            }
        }
        // Full pass: migration off a legacy catalog, or an explicit
        // rewrite of every shard.
        let shard_dir = self.dir.join("catalog");
        std::fs::create_dir_all(&shard_dir)
            .map_err(|e| RpqError::io(format!("cannot create {shard_dir:?}"), e))?;
        for shard in 0..(1usize << state.shard_bits) {
            written += self.persist_shard(state, shard)?;
        }
        write_atomic(&manifest_path, json.as_bytes())?;
        state.sharded = true;
        Ok(written)
    }

    /// Write one shard file: every catalog row whose fingerprint prefix
    /// maps to `shard`, stamped with the current epoch so duplicate ids
    /// from an interrupted cross-shard move resolve to the newer row.
    /// Returns the bytes written.
    fn persist_shard(&self, state: &CatalogState, shard: usize) -> Result<u64, RpqError> {
        let rows = CatalogShard {
            entries: state
                .catalog
                .entries
                .iter()
                .filter(|e| shard_of(e.fp_hi, state.shard_bits) == shard)
                .map(|e| ShardEntry {
                    stamp: state.catalog.epoch,
                    entry: e.clone(),
                })
                .collect(),
        };
        let json = serde_json::to_string(&rows)
            .map_err(|e| RpqError::invalid(format!("cannot serialize catalog shard: {e}")))?;
        write_atomic(
            &self.dir.join("catalog").join(shard_name(shard)),
            json.as_bytes(),
        )?;
        Ok(json.len() as u64)
    }
}

/// The header of an index artifact file: a magic, then the fingerprint
/// key of the run state the artifact was derived from.
fn stamp(key: FpKey) -> [u8; 36] {
    let mut out = [0; 36];
    out[..4].copy_from_slice(b"RPQS");
    for (slot, word) in out[4..]
        .chunks_exact_mut(8)
        .zip([key.0, key.1, key.2, key.3])
    {
        slot.copy_from_slice(&word.to_le_bytes());
    }
    out
}

/// An artifact file's bytes: its stamp, then the codec payload.
fn stamped<T: Serialize>(key: FpKey, artifact: &T) -> Vec<u8> {
    let mut out = stamp(key).to_vec();
    out.extend_from_slice(&codec::to_bytes(artifact));
    out
}

/// Does the file at `path` carry the stamp of `key`? (Reads the header
/// only.)
fn is_stamped(path: &Path, key: FpKey) -> bool {
    use std::io::Read;
    let mut header = [0; 36];
    std::fs::File::open(path)
        .and_then(|mut file| file.read_exact(&mut header))
        .is_ok_and(|()| header == stamp(key))
}

/// Decode one artifact file if it is stamped for `key`; any failure
/// (missing, unstamped, stamped for another run state, truncated,
/// tampered) falls back to `None` so the caller rebuilds.
fn decode_stamped<T: Deserialize>(path: &Path, key: FpKey) -> Option<T> {
    let bytes = std::fs::read(path).ok()?;
    codec::from_bytes(bytes.strip_prefix(&stamp(key))?).ok()
}

/// 64-bit FNV-1a: the checksum of event-log segments.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Write-then-rename so readers never observe a torn file: the catalog
/// is rewritten on every ingest, and run/artifact binaries must either
/// fully exist or not at all (a half-written artifact would just be
/// rebuilt, but a half-written catalog would lose the store).
fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), RpqError> {
    // Unique per process *and* per call: two threads re-persisting the
    // same artifact must not interleave writes into one tmp file and
    // rename torn bytes into place.
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let tmp = path.with_extension(format!(
        "tmp.{}.{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(&tmp, bytes).map_err(|e| RpqError::io(format!("cannot write {tmp:?}"), e))?;
    std::fs::rename(&tmp, path)
        .map_err(|e| RpqError::io(format!("cannot move {tmp:?} into place"), e))
}

impl RunSource for RunStore {
    fn n_runs(&self) -> usize {
        self.len()
    }

    fn run(&self, i: usize) -> Result<RunRef<'_>, RpqError> {
        let id = self.id_at(i).ok_or_else(|| {
            RpqError::invalid(format!(
                "run #{i} out of range for a {}-run store",
                self.len()
            ))
        })?;
        RunStore::run(self, id).map(RunRef::Shared)
    }

    fn warm_artifacts(&self, i: usize) -> Option<(Arc<TagIndex>, Arc<CsrIndex>)> {
        self.artifacts(self.id_at(i)?).ok()
    }
}

impl std::fmt::Debug for RunStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunStore")
            .field("dir", &self.dir)
            .field("runs", &self.len())
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpq_labeling::RunBuilder;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("rpq_store_unit")
            .join(format!("{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn spec() -> Specification {
        rpq_workloads::paper_examples::fig2_spec()
    }

    fn run_of(spec: &Specification, seed: u64) -> Run {
        // Distinct target sizes per seed: small grammars can derive
        // structurally identical runs from different seeds at one
        // size, which would (correctly) deduplicate.
        RunBuilder::new(spec)
            .seed(seed)
            .target_edges(60 + 15 * seed as usize)
            .build()
            .unwrap()
    }

    #[test]
    fn ingest_dedupes_by_fingerprint_and_survives_reopen() {
        let dir = temp_dir("dedupe");
        let spec = Arc::new(spec());
        let store = RunStore::create(&dir, Arc::clone(&spec)).unwrap();
        let a = run_of(&spec, 1);
        let b = run_of(&spec, 2);

        let ia = store.ingest(&a).unwrap();
        let ib = store.ingest(&b).unwrap();
        assert!(!ia.deduplicated && !ib.deduplicated);
        assert_ne!(ia.id, ib.id);
        // Same structure again → deduplicated onto the same id, even
        // through a serialization round-trip.
        let a_copy: Run = serde_json::from_str(&serde_json::to_string(&a).unwrap()).unwrap();
        let again = store.ingest(&a_copy).unwrap();
        assert!(again.deduplicated);
        assert_eq!(again.id, ia.id);
        assert_eq!(store.len(), 2);
        assert_eq!(store.stats().ingested, 2);
        assert_eq!(store.stats().deduplicated, 1);

        // Reopen: catalog, dedupe map and run bytes all persist.
        drop(store);
        let store = RunStore::open(&dir).unwrap();
        assert_eq!(store.len(), 2);
        assert!(store.ingest(&a).unwrap().deduplicated);
        let loaded = store.run(ia.id).unwrap();
        assert_eq!(loaded.n_edges(), a.n_edges());
        assert_eq!(loaded.fingerprint(), a.fingerprint());
        assert_eq!(store.stats().run_loads, 1);
        // Loaded once, cached thereafter.
        store.run(ia.id).unwrap();
        assert_eq!(store.stats().run_loads, 1);
    }

    #[test]
    fn artifacts_rebuild_cold_and_reload_warm() {
        let dir = temp_dir("artifacts");
        let spec = Arc::new(spec());
        let store = RunStore::create(&dir, Arc::clone(&spec)).unwrap();
        let id = store.ingest(&run_of(&spec, 3)).unwrap().id;

        // Cold: no artifact files yet → rebuilt (and persisted).
        let (tag1, csr1) = store.artifacts(id).unwrap();
        assert_eq!(store.stats().tag_rebuilds, 1);
        assert_eq!(store.stats().tag_reloads, 0);
        assert!(store.tag_path(id).exists() && store.csr_path(id).exists());
        // Second call in-process: cache, no new counters.
        store.artifacts(id).unwrap();
        assert_eq!(store.stats().tag_rebuilds, 1);

        // Warm: a fresh store instance decodes the persisted files.
        let reopened = RunStore::open(&dir).unwrap();
        let (tag2, csr2) = reopened.artifacts(id).unwrap();
        assert_eq!(reopened.stats().tag_reloads, 1);
        assert_eq!(reopened.stats().csr_reloads, 1);
        assert_eq!(reopened.stats().tag_rebuilds, 0);
        assert_eq!(reopened.stats().csr_rebuilds, 0);
        assert_eq!(*tag2, *tag1);
        assert_eq!(*csr2, *csr1);

        // Tampered artifact: falls back to rebuild instead of erroring.
        std::fs::write(reopened.tag_path(id), b"garbage").unwrap();
        let tampered = RunStore::open(&dir).unwrap();
        tampered.artifacts(id).unwrap();
        assert_eq!(tampered.stats().tag_rebuilds, 1);
        assert_eq!(tampered.stats().csr_reloads, 1);
    }

    #[test]
    fn materialize_makes_every_artifact_warm() {
        let dir = temp_dir("materialize");
        let spec = Arc::new(spec());
        let store = RunStore::create(&dir, Arc::clone(&spec)).unwrap();
        for seed in 10..14 {
            store.ingest(&run_of(&spec, seed)).unwrap();
        }
        assert_eq!(store.materialize_artifacts().unwrap(), 4);
        assert_eq!(store.materialize_artifacts().unwrap(), 0);
        let reopened = RunStore::open(&dir).unwrap();
        for id in reopened.ids() {
            reopened.artifacts(id).unwrap();
        }
        assert_eq!(reopened.stats().tag_reloads, 4);
        assert_eq!(reopened.stats().csr_reloads, 4);
        assert_eq!(
            reopened.stats().tag_rebuilds + reopened.stats().csr_rebuilds,
            0
        );
    }

    #[test]
    fn bounded_caches_refetch_evicted_entries_from_disk() {
        let dir = temp_dir("bounded");
        let spec = Arc::new(spec());
        let store = RunStore::create(&dir, Arc::clone(&spec))
            .unwrap()
            .with_cache_capacity(1);
        let ids: Vec<RunId> = (30..34)
            .map(|seed| store.ingest(&run_of(&spec, seed)).unwrap().id)
            .collect();
        // Touch every run and artifact pair; the 1-entry caches force
        // disk reads beyond the first sighting, not unbounded growth.
        for &id in &ids {
            store.run(id).unwrap();
            store.artifacts(id).unwrap();
        }
        for &id in &ids {
            store.run(id).unwrap();
        }
        // 4 ingests kept only 1 cached; 3 of the first sweep's loads
        // were evicted by the time the second sweep re-read them.
        assert!(store.stats().run_loads >= 3, "{:?}", store.stats());
        // Evicted artifact pairs reload from their persisted files.
        let before = store.stats();
        store.artifacts(ids[0]).unwrap();
        let delta = store.stats().since(before);
        assert_eq!(delta.tag_reloads, 1);
        assert_eq!(delta.tag_rebuilds, 0);
    }

    #[test]
    fn materialize_persists_even_when_the_pair_is_cached_in_memory() {
        let dir = temp_dir("rematerialize");
        let spec = Arc::new(spec());
        let store = RunStore::create(&dir, Arc::clone(&spec)).unwrap();
        let id = store.ingest(&run_of(&spec, 40)).unwrap().id;
        store.artifacts(id).unwrap(); // built, persisted, cached
        std::fs::remove_file(store.tag_path(id)).unwrap();
        std::fs::remove_file(store.csr_path(id)).unwrap();
        // The cached pair must be written back out, not just counted.
        assert_eq!(store.materialize_artifacts().unwrap(), 1);
        assert!(store.tag_path(id).exists() && store.csr_path(id).exists());
        let reopened = RunStore::open(&dir).unwrap();
        reopened.artifacts(id).unwrap();
        assert_eq!(reopened.stats().tag_reloads, 1);
        assert_eq!(reopened.stats().tag_rebuilds, 0);
    }

    #[test]
    fn remove_run_evicts_catalog_row_and_files() {
        let dir = temp_dir("remove");
        let spec = Arc::new(spec());
        let store = RunStore::create(&dir, Arc::clone(&spec)).unwrap();
        let victim = run_of(&spec, 50);
        let keeper = run_of(&spec, 51);
        let victim_id = store.ingest(&victim).unwrap().id;
        let keeper_id = store.ingest(&keeper).unwrap().id;
        store.materialize_artifacts().unwrap();
        assert!(store.tag_path(victim_id).exists());

        // Unknown fingerprints are a no-op, not an error.
        assert_eq!(store.remove_run((1, 2)).unwrap(), None);

        let fp = victim.fingerprint();
        assert_eq!(store.find_by_fingerprint(fp.0, fp.1), Some(victim_id));
        assert_eq!(store.remove_run(fp).unwrap(), Some(victim_id));
        assert_eq!(store.len(), 1);
        assert_eq!(store.stats().removed, 1);
        assert!(store.find_by_fingerprint(fp.0, fp.1).is_none());
        assert!(!store.run_path(victim_id).exists());
        assert!(!store.tag_path(victim_id).exists());
        assert!(!store.csr_path(victim_id).exists());
        assert!(store.run(victim_id).is_err());
        // The survivor is untouched, and re-ingesting the victim is a
        // fresh ingest (its dedupe row is gone) under a new id.
        store.run(keeper_id).unwrap();
        let again = store.ingest(&victim).unwrap();
        assert!(!again.deduplicated);
        assert_ne!(again.id, victim_id);

        // The removal survives reopening.
        store.remove_run(victim.fingerprint()).unwrap();
        drop(store);
        let reopened = RunStore::open(&dir).unwrap();
        assert_eq!(reopened.len(), 1);
        assert_eq!(reopened.ids(), vec![keeper_id]);
    }

    #[test]
    fn remove_run_rolls_back_when_the_catalog_cannot_persist() {
        let dir = temp_dir("remove_rollback");
        let spec = Arc::new(spec());
        let store = RunStore::create(&dir, Arc::clone(&spec)).unwrap();
        let run = run_of(&spec, 60);
        let id = store.ingest(&run).unwrap().id;

        // Make the catalog unpersistable: a directory squatting on its
        // path defeats the write-then-rename (rename onto a directory
        // fails), which permission bits would not under root.
        let catalog_path = dir.join("catalog.json");
        let saved = std::fs::read(&catalog_path).unwrap();
        std::fs::remove_file(&catalog_path).unwrap();
        std::fs::create_dir(&catalog_path).unwrap();
        assert!(store.remove_run(run.fingerprint()).is_err());

        // Rolled back: still cataloged, still addressable, still deduped.
        assert_eq!(store.len(), 1);
        assert_eq!(
            store.find_by_fingerprint(run.fingerprint().0, run.fingerprint().1),
            Some(id)
        );
        assert!(store.ingest(&run).unwrap().deduplicated);
        assert!(store.run_path(id).exists());

        // Restore the catalog file: the removal now goes through.
        std::fs::remove_dir(&catalog_path).unwrap();
        std::fs::write(&catalog_path, saved).unwrap();
        assert_eq!(store.remove_run(run.fingerprint()).unwrap(), Some(id));
        assert_eq!(store.len(), 0);
    }

    #[test]
    fn prune_orphans_deletes_only_uncataloged_files() {
        let dir = temp_dir("prune");
        let spec = Arc::new(spec());
        let store = RunStore::create(&dir, Arc::clone(&spec)).unwrap();
        let id = store.ingest(&run_of(&spec, 70)).unwrap().id;
        store.materialize_artifacts().unwrap();

        // Plant orphans: artifacts of a never-cataloged run, a fresh
        // tmp file (a possibly in-flight atomic write), and an
        // unparseable name.
        std::fs::write(dir.join("runs").join("run-999.bin"), b"x").unwrap();
        std::fs::write(dir.join("index").join("tag-999.bin"), b"x").unwrap();
        std::fs::write(dir.join("index").join("csr-1.tmp.123.0"), b"x").unwrap();
        std::fs::write(dir.join("runs").join("notes.txt"), b"x").unwrap();

        // The fresh tmp file is within the in-flight grace period and
        // must be left alone (it could be a live artifact persist).
        assert_eq!(store.prune_orphans().unwrap(), 3);
        assert_eq!(store.stats().orphans_pruned, 3);
        assert!(dir.join("index").join("csr-1.tmp.123.0").exists());
        // Live files survive and stay warm.
        assert!(store.run_path(id).exists());
        assert!(store.tag_path(id).exists());
        assert!(store.csr_path(id).exists());
        let reopened = RunStore::open(&dir).unwrap();
        reopened.artifacts(id).unwrap();
        assert_eq!(reopened.stats().tag_reloads, 1);
        // A second pass finds nothing new (the tmp file is still young).
        assert_eq!(store.prune_orphans().unwrap(), 0);
    }

    #[test]
    fn epoch_bumps_on_every_catalog_mutation_and_persists() {
        let dir = temp_dir("epoch");
        let spec = Arc::new(spec());
        let store = RunStore::create(&dir, Arc::clone(&spec)).unwrap();
        assert_eq!(store.epoch(), 0);
        let a = run_of(&spec, 1);
        store.ingest(&a).unwrap();
        assert_eq!(store.epoch(), 1);
        // Deduplicated ingests mutate nothing.
        store.ingest(&a).unwrap();
        assert_eq!(store.epoch(), 1);
        store.ingest(&run_of(&spec, 2)).unwrap();
        assert_eq!(store.epoch(), 2);
        store.remove_run(a.fingerprint()).unwrap();
        assert_eq!(store.epoch(), 3);
        // Pruning bumps only when it actually deleted something.
        assert_eq!(store.prune_orphans().unwrap(), 0);
        assert_eq!(store.epoch(), 3);
        std::fs::write(dir.join("runs").join("run-77.bin"), b"x").unwrap();
        assert_eq!(store.prune_orphans().unwrap(), 1);
        assert_eq!(store.epoch(), 4);
        assert_eq!(store.stats().epoch, 4);

        // The epoch is persisted, not recomputed.
        drop(store);
        let reopened = RunStore::open(&dir).unwrap();
        assert_eq!(reopened.epoch(), 4);
        reopened.ingest(&a).unwrap();
        assert_eq!(reopened.epoch(), 5);
    }

    /// Serialize one catalog row the way legacy (pre-shard) builds
    /// wrote it inline.
    fn legacy_row(id: u64, run: &Run) -> String {
        let (fp_hi, fp_lo) = run.fingerprint();
        format!(
            "{{\"id\":{id},\"fp_hi\":{fp_hi},\"fp_lo\":{fp_lo},\"n_nodes\":{},\"n_edges\":{}}}",
            run.n_nodes(),
            run.n_edges()
        )
    }

    /// Reset `dir` to a legacy monolithic catalog: the handwritten
    /// `catalog.json` becomes the whole catalog and the shard files of
    /// the current layout are removed.
    fn write_legacy_catalog(dir: &Path, text: &str) {
        let _ = std::fs::remove_dir_all(dir.join("catalog"));
        std::fs::write(dir.join("catalog.json"), text).unwrap();
    }

    #[test]
    fn legacy_catalogs_upgrade_on_open_and_migrate_on_first_mutation() {
        let dir = temp_dir("catalog_legacy");
        let spec = Arc::new(spec());
        let store = RunStore::create(&dir, Arc::clone(&spec)).unwrap();
        let a = run_of(&spec, 1);
        store.ingest(&a).unwrap();
        drop(store);

        // Version-1 shape: inline entries, no epoch field — what a
        // pre-epoch build would have left behind.
        let path = dir.join("catalog.json");
        write_legacy_catalog(
            &dir,
            &format!(
                "{{\"version\":1,\"next_id\":1,\"entries\":[{}]}}",
                legacy_row(0, &a)
            ),
        );
        let upgraded = RunStore::open(&dir).unwrap();
        assert_eq!(upgraded.epoch(), 0);
        assert_eq!(upgraded.len(), 1);
        assert!(upgraded.ingest(&a).unwrap().deduplicated);
        // The first mutation migrates to the sharded layout: manifest
        // in catalog.json, rows in catalog/shard-XX.json.
        upgraded.ingest(&run_of(&spec, 2)).unwrap();
        assert_eq!(upgraded.epoch(), 1);
        drop(upgraded);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"version\":3"), "{text}");
        assert!(text.contains("\"shard_bits\""), "{text}");
        assert!(!text.contains("\"entries\""), "{text}");
        let reopened = RunStore::open(&dir).unwrap();
        assert_eq!(reopened.epoch(), 1);
        assert_eq!(reopened.len(), 2);
        drop(reopened);

        // Version-2 shape: inline entries plus an epoch — keeps its
        // epoch through the upgrade.
        write_legacy_catalog(
            &dir,
            &format!(
                "{{\"version\":2,\"next_id\":1,\"epoch\":7,\"entries\":[{}]}}",
                legacy_row(0, &a)
            ),
        );
        let upgraded = RunStore::open(&dir).unwrap();
        assert_eq!(upgraded.epoch(), 7);
        assert_eq!(upgraded.len(), 1);
        assert!(upgraded.ingest(&a).unwrap().deduplicated);
        drop(upgraded);

        // Catalogs from the future are refused, not misread — in both
        // the manifest and the legacy inline shapes.
        std::fs::write(
            &path,
            "{\"version\":9,\"next_id\":1,\"epoch\":7,\"shard_bits\":4}",
        )
        .unwrap();
        assert!(RunStore::open(&dir).is_err());
        write_legacy_catalog(
            &dir,
            &format!(
                "{{\"version\":9,\"next_id\":1,\"epoch\":7,\"entries\":[{}]}}",
                legacy_row(0, &a)
            ),
        );
        assert!(RunStore::open(&dir).is_err());
    }

    #[test]
    fn catalogs_shard_by_fingerprint_prefix() {
        let dir = temp_dir("catalog_shards");
        let spec = Arc::new(spec());
        let store = RunStore::create(&dir, Arc::clone(&spec)).unwrap();
        let runs: Vec<Run> = (1..=4).map(|seed| run_of(&spec, seed)).collect();
        for run in &runs {
            store.ingest(run).unwrap();
        }
        // Fresh stores persist the sharded layout directly: a slim
        // manifest plus one row file per populated prefix.
        let manifest = std::fs::read_to_string(dir.join("catalog.json")).unwrap();
        assert!(manifest.contains("\"version\":3"), "{manifest}");
        assert!(!manifest.contains("\"entries\""), "{manifest}");
        let mut populated = 0;
        for shard in 0..(1usize << SHARD_BITS) {
            let path = dir.join("catalog").join(shard_name(shard));
            let Ok(text) = std::fs::read_to_string(&path) else {
                continue;
            };
            let rows: CatalogShard = serde_json::from_str(&text).unwrap();
            for row in &rows.entries {
                assert_eq!(shard_of(row.entry.fp_hi, SHARD_BITS), shard);
            }
            populated += rows.entries.len();
        }
        assert_eq!(populated, 4);

        // Reopen merges the shards back into ingestion (id) order.
        let metas = store.metas();
        drop(store);
        let reopened = RunStore::open(&dir).unwrap();
        assert_eq!(reopened.metas(), metas);
        for run in &runs {
            assert!(reopened.ingest(run).unwrap().deduplicated);
        }
    }

    #[test]
    fn duplicate_ids_across_shards_resolve_to_the_newer_stamp() {
        let dir = temp_dir("catalog_stamps");
        let spec = Arc::new(spec());
        let store = RunStore::create(&dir, Arc::clone(&spec)).unwrap();
        let a = run_of(&spec, 1);
        store.ingest(&a).unwrap();
        let (fp_hi, fp_lo) = a.fingerprint();
        drop(store);

        // Simulate a crash between the two shard writes of a
        // cross-shard move: the same id also sits in another shard,
        // under an older stamp and the pre-move fingerprint.
        let stale_hi = fp_hi ^ (0xff << 56);
        let stale_shard = shard_of(stale_hi, SHARD_BITS);
        assert_ne!(stale_shard, shard_of(fp_hi, SHARD_BITS));
        std::fs::write(
            dir.join("catalog").join(shard_name(stale_shard)),
            format!(
                "{{\"entries\":[{{\"stamp\":0,\"entry\":{{\"id\":0,\"fp_hi\":{stale_hi},\
                 \"fp_lo\":{fp_lo},\"n_nodes\":1,\"n_edges\":1}}}}]}}"
            ),
        )
        .unwrap();

        let reopened = RunStore::open(&dir).unwrap();
        assert_eq!(reopened.len(), 1);
        let meta = &reopened.metas()[0];
        assert_eq!((meta.fp_hi, meta.fp_lo), (fp_hi, fp_lo));
        assert!(reopened.ingest(&a).unwrap().deduplicated);
    }

    #[test]
    fn metas_expose_fingerprints() {
        let dir = temp_dir("metas");
        let spec = Arc::new(spec());
        let store = RunStore::create(&dir, Arc::clone(&spec)).unwrap();
        let a = run_of(&spec, 80);
        let id = store.ingest(&a).unwrap().id;
        let metas = store.metas();
        assert_eq!(metas.len(), 1);
        assert_eq!(metas[0].id, id);
        assert_eq!((metas[0].fp_hi, metas[0].fp_lo), a.fingerprint());
        assert_eq!(metas[0].n_nodes as usize, a.n_nodes());
        assert_eq!(metas[0].n_edges as usize, a.n_edges());
    }

    #[test]
    fn wrong_spec_and_wrong_runs_are_rejected() {
        let dir = temp_dir("wrongspec");
        let fig2 = Arc::new(spec());
        let store = RunStore::create(&dir, Arc::clone(&fig2)).unwrap();
        // A run of a different specification fails validation.
        let fork = rpq_workloads::paper_examples::fork_spec();
        let foreign = RunBuilder::new(&fork)
            .seed(1)
            .target_edges(60)
            .build()
            .unwrap();
        assert!(store.ingest(&foreign).is_err());
        // Reopening under a different spec is refused.
        drop(store);
        assert!(RunStore::open_or_create(&dir, Arc::new(fork)).is_err());
        assert!(RunStore::open_or_create(&dir, fig2).is_ok());
        // Creating over an existing store is refused.
        assert!(RunStore::create(&dir, Arc::new(spec())).is_err());
    }
}
