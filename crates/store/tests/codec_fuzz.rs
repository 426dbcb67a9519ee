//! Decode-robustness fuzz for both binary formats.
//!
//! **The generic codec** (`RPQB` 1: wire payloads, and the run bases
//! and log segments older builds wrote). Arbitrary, truncated and
//! bit-flipped byte buffers fed to `rpq_store::codec::from_bytes` must
//! fail cleanly — never panic, never allocate past the remaining-input
//! caps:
//!
//! * **arbitrary** — random buffers (almost surely bad magic): always
//!   `Err`;
//! * **truncated** — every strict prefix of a valid frame: always
//!   `Err` (the decoder requires exactly one value covering the whole
//!   buffer);
//! * **bit-flipped** — one flipped bit in a valid frame: must not
//!   panic; when the flip happens to decode (e.g. an integer payload
//!   bit), the decoded value must re-encode and decode consistently.
//!
//! **The typed store files** (`RPQB` 2), exhaustively, through the
//! store: every truncation and every single-bit flip of a stored run's
//! base, of its committed log segment, and of both index artifacts. A
//! damaged run comes back as `RpqError::Invalid`; a damaged artifact is
//! rebuilt, equal to a fresh build. A header that claims `u32::MAX`
//! nodes in a 20-byte file is refused without a large allocation (this
//! binary's allocator records the largest request per thread).

use proptest::prelude::*;
use rpq_core::RpqError;
use rpq_labeling::{EventBatch, Run, RunBuilder};
use rpq_relalg::{CsrIndex, TagIndex};
use rpq_store::codec::{decode_graph, from_bytes, to_bytes};
use rpq_store::{RunId, RunStore};
use rpq_workloads::paper_examples;
use rpq_workloads::runs::event_stream;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::{Path, PathBuf};

/// The system allocator, recording the largest single request made on
/// each thread.
struct Tracking;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
}

unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Tracking = Tracking;

/// The largest allocation `f` made on this thread.
fn largest_allocation(f: impl FnOnce()) -> usize {
    LARGEST.with(|largest| largest.set(0));
    f();
    LARGEST.with(Cell::get)
}

fn small_run() -> Run {
    RunBuilder::new(&paper_examples::fig2_spec())
        .seed(5)
        .target_edges(12)
        .build()
        .unwrap()
}

/// The valid seed corpus: one frame per interesting shape (scalars,
/// strings with interning back-references, sequences, maps, and a run
/// and an event batch as older builds stored them).
fn seed_frames() -> Vec<Vec<u8>> {
    let run = small_run();
    let (nodes, edges) = run.clone().into_parts();
    vec![
        to_bytes(&42u64),
        to_bytes(&u64::MAX),
        to_bytes(&(-7i64)),
        to_bytes(&"interned strings — once each".to_owned()),
        to_bytes(&vec![1u32, 2, 3, 4, 5]),
        to_bytes(&vec![
            (1u32, "a".to_owned()),
            (2, "a".to_owned()),
            (3, "b".to_owned()),
        ]),
        to_bytes(&run),
        to_bytes(&EventBatch { nodes, edges }),
    ]
}

/// Decoding must return *some* `Result` without panicking, for every
/// target type the generic codec carries. Returns whether any target
/// decoded.
fn decode_all_targets(bytes: &[u8]) -> bool {
    let mut any_ok = false;
    any_ok |= from_bytes::<u64>(bytes).is_ok();
    any_ok |= from_bytes::<i64>(bytes).is_ok();
    any_ok |= from_bytes::<String>(bytes).is_ok();
    any_ok |= from_bytes::<Vec<u32>>(bytes).is_ok();
    any_ok |= from_bytes::<Vec<(u32, String)>>(bytes).is_ok();
    any_ok |= from_bytes::<Run>(bytes).is_ok();
    any_ok |= from_bytes::<EventBatch>(bytes).is_ok();
    any_ok |= decode_graph(bytes).is_ok();
    any_ok
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn arbitrary_buffers_error_cleanly(bytes in prop::collection::vec(0u8..=255, 0..200)) {
        // A random buffer opening with the exact 5-byte header is a
        // ~2^-40 event; anything else must be rejected at the header.
        if bytes.len() < 5 || &bytes[..4] != b"RPQB" || bytes[4] != 1 {
            prop_assert!(from_bytes::<u64>(&bytes).is_err());
            prop_assert!(from_bytes::<EventBatch>(&bytes).is_err());
        }
        // Header or not: no decode may panic.
        decode_all_targets(&bytes);
    }

    #[test]
    fn valid_headers_with_random_payloads_never_panic(
        payload in prop::collection::vec(0u8..=255, 0..160),
    ) {
        for header in [&b"RPQB\x01"[..], b"RPQB\x02G"] {
            let mut bytes = header.to_vec();
            bytes.extend_from_slice(&payload);
            decode_all_targets(&bytes);
        }
    }

    #[test]
    fn truncations_of_valid_frames_error(
        frame_index in 0usize..8,
        cut_seed in 0u64..10_000,
    ) {
        let frames = seed_frames();
        let frame = &frames[frame_index % frames.len()];
        let cut = (cut_seed as usize) % frame.len();
        let prefix = &frame[..cut];
        // Every strict prefix must be an error in every target type —
        // the decoder demands one complete value covering the buffer.
        prop_assert!(!decode_all_targets(prefix), "cut {cut} of {} decoded", frame.len());
    }

    #[test]
    fn bit_flips_never_panic_and_stay_consistent(
        frame_index in 0usize..8,
        flip_seed in 0u64..100_000,
    ) {
        let frames = seed_frames();
        let mut frame = frames[frame_index % frames.len()].clone();
        let bit = (flip_seed as usize) % (frame.len() * 8);
        frame[bit / 8] ^= 1 << (bit % 8);
        // Must not panic; a flip that still decodes (payload integer
        // bits can) must round-trip consistently.
        if let Ok(v) = from_bytes::<u64>(&frame) {
            let re = to_bytes(&v);
            prop_assert_eq!(from_bytes::<u64>(&re).unwrap(), v);
        }
        if let Ok(batch) = from_bytes::<EventBatch>(&frame) {
            let re = to_bytes(&batch);
            prop_assert_eq!(from_bytes::<EventBatch>(&re).unwrap(), batch);
        }
        decode_all_targets(&frame);
    }

    #[test]
    fn corrupt_count_prefixes_cannot_drive_huge_allocations(
        count in 0u64..u64::MAX,
    ) {
        // A sequence header promising `count` elements with no bytes
        // behind it: the remaining-input cap must reject it without
        // reserving `count` slots.
        let mut bytes = b"RPQB\x01\x08".to_vec(); // TAG_SEQ
        let mut v = count;
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                bytes.push(byte);
                break;
            }
            bytes.push(byte | 0x80);
        }
        if count > 0 {
            prop_assert!(from_bytes::<Vec<u64>>(&bytes).is_err());
        }
    }
}

// ---------------------------------------------------------------------
// The typed store files, through the store.
// ---------------------------------------------------------------------

/// A closed store holding one run as a base plus one committed log
/// segment, with both artifacts stamped for the grown run. Returns the
/// directory, the run's id and the grown run.
fn typed_store(name: &str) -> (PathBuf, RunId, Run) {
    let dir = std::env::temp_dir()
        .join("rpq_codec_fuzz")
        .join(format!("{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spec = std::sync::Arc::new(paper_examples::fig2_spec());
    let (base, batches) = event_stream(&small_run(), 1).unwrap();
    let store = std::sync::Arc::new(RunStore::create(&dir, spec).unwrap());
    let id = store.ingest(&base).unwrap().id;
    store
        .open_run(id)
        .unwrap()
        .append_events(&batches[0])
        .unwrap();
    let grown = base.apply_events(&batches[0]).unwrap();
    drop(store);
    // The append left the artifacts stamped for the base: one load
    // re-persists them for the grown run.
    RunStore::open(&dir).unwrap().artifacts(id).unwrap();
    (dir, id, grown)
}

/// Every strict prefix of `bytes`, then every single-bit flip of it.
fn damaged(bytes: &[u8]) -> impl Iterator<Item = Vec<u8>> + '_ {
    let cuts = (0..bytes.len()).map(|cut| bytes[..cut].to_vec());
    let flips = (0..bytes.len() * 8).map(|bit| {
        let mut flipped = bytes.to_vec();
        flipped[bit / 8] ^= 1 << (bit % 8);
        flipped
    });
    cuts.chain(flips)
}

fn assert_invalid(store: &RunStore, id: RunId, what: &str) {
    match store.run(id) {
        Err(RpqError::Invalid(_)) => {}
        Err(other) => panic!("{what}: {other:?} instead of Invalid"),
        Ok(_) => panic!("{what}: a damaged file decoded"),
    }
}

#[test]
fn every_truncation_and_bit_flip_of_a_run_file_is_invalid() {
    let (dir, id, grown) = typed_store("run_files");
    let store = RunStore::open(&dir).unwrap();
    for name in [format!("run-{}.bin", id.0), format!("run-{}.log", id.0)] {
        let path = dir.join("runs").join(&name);
        let pristine = std::fs::read(&path).unwrap();
        for (i, bytes) in damaged(&pristine).enumerate() {
            std::fs::write(&path, &bytes).unwrap();
            // A failed load is not cached: the same handle re-reads.
            assert_invalid(&store, id, &format!("{name} mutation {i}"));
        }
        std::fs::write(&path, &pristine).unwrap();
    }
    assert!(*store.run(id).unwrap() == grown);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_truncation_and_bit_flip_of_an_artifact_rebuilds() {
    let (dir, id, grown) = typed_store("artifacts");
    let spec = paper_examples::fig2_spec();
    let fresh_tag = TagIndex::build(&grown, spec.n_tags());
    let fresh_csr = CsrIndex::build(&fresh_tag);
    for kind in ["tag", "csr"] {
        let path = dir.join("index").join(format!("{kind}-{}.bin", id.0));
        let pristine = std::fs::read(&path).unwrap();
        for (i, bytes) in damaged(&pristine).enumerate() {
            std::fs::write(&path, &bytes).unwrap();
            let store = RunStore::open(&dir).unwrap();
            let (tag, csr) = store.artifacts(id).unwrap();
            assert!(
                *tag == fresh_tag && *csr == fresh_csr,
                "{kind} mutation {i}"
            );
            let stats = store.stats();
            let rebuilt = if kind == "tag" {
                stats.tag_rebuilds
            } else {
                stats.csr_rebuilds
            };
            assert_eq!(rebuilt, 1, "{kind} mutation {i} was not rebuilt");
            // The rebuild re-persisted exactly the pristine file.
            assert!(std::fs::read(&path).unwrap() == pristine);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A 20-byte typed file whose header claims `u32::MAX` nodes.
fn huge_header(kind: u8) -> Vec<u8> {
    let mut bytes = b"RPQB\x02".to_vec();
    bytes.push(kind);
    bytes.extend_from_slice(&u32::MAX.to_le_bytes());
    bytes.extend_from_slice(&[0; 10]);
    assert_eq!(bytes.len(), 20);
    bytes
}

fn write(path: &Path, bytes: &[u8]) {
    std::fs::write(path, bytes).unwrap();
}

#[test]
fn a_header_claiming_u32_max_nodes_allocates_nothing_large() {
    let (dir, id, grown) = typed_store("huge_header");
    let store = RunStore::open(&dir).unwrap();
    let base = dir.join("runs").join(format!("run-{}.bin", id.0));
    let pristine = std::fs::read(&base).unwrap();
    write(&base, &huge_header(b'G'));
    let largest = largest_allocation(|| assert_invalid(&store, id, "u32::MAX nodes"));
    assert!(
        largest < 1 << 16,
        "a 20-byte file drove a {largest}-byte allocation"
    );
    write(&base, &pristine);

    // Behind a valid stamp, the same header in either artifact: a
    // rebuild, no larger than the run itself needs.
    for (kind, letter) in [("tag", b'T'), ("csr", b'C')] {
        let path = dir.join("index").join(format!("{kind}-{}.bin", id.0));
        let mut bytes = std::fs::read(&path).unwrap()[..36].to_vec();
        bytes.extend(huge_header(letter));
        write(&path, &bytes);
        let store = RunStore::open(&dir).unwrap();
        let largest = largest_allocation(|| {
            let (tag, _) = store.artifacts(id).unwrap();
            assert!(tag.n_nodes() == grown.n_nodes());
        });
        assert!(largest < 1 << 16, "{kind}: a {largest}-byte allocation");
        assert_eq!(store.stats().tag_rebuilds + store.stats().csr_rebuilds, 1);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
