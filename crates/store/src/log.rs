//! The per-run event log: `runs/run-<id>.log`.
//!
//! A stored run is its base file (what was ingested, or last folded)
//! plus this append-only file of the [`EventBatch`]es appended since,
//! in arrival order. One segment per batch:
//!
//! ```text
//! payload length   u32 little-endian
//! checksum         u64 little-endian, FNV-1a of the payload
//! payload          codec::to_bytes(batch)
//! ```
//!
//! The log carries no commit marker of its own. The run's catalog row
//! is the commit record: a reader applies segments until the replayed
//! run has the row's size, then checks the row's fingerprint
//! ([`RunStore::run`](crate::RunStore::run)). Whatever follows — a
//! segment whose catalog bump never landed, the torn tail of a write
//! that died part-way, the already-folded segments of an interrupted
//! fold — is ignored by readers and overwritten by the next append.

use crate::{codec, fnv1a};
use rpq_core::RpqError;
use rpq_labeling::EventBatch;
use std::io::{Seek, SeekFrom, Write};
use std::path::Path;

/// Bytes of framing in front of each payload.
const HEADER: usize = 12;

/// One batch as a log segment.
pub(crate) fn frame(batch: &EventBatch) -> Vec<u8> {
    let payload = codec::to_bytes(batch);
    let len = u32::try_from(payload.len()).expect("an event batch encodes to under 4 GiB");
    let mut out = Vec::with_capacity(HEADER + payload.len());
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&fnv1a(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// The valid segments at the front of a log's bytes, each with the
/// offset one past its end. Iteration stops — for good — at the first
/// segment that is truncated, fails its checksum or does not decode.
pub(crate) fn segments(bytes: &[u8]) -> impl Iterator<Item = (EventBatch, u64)> + '_ {
    let mut pos = 0usize;
    std::iter::from_fn(move || {
        let header = bytes.get(pos..pos.checked_add(HEADER)?)?;
        let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes")) as usize;
        let checksum = u64::from_le_bytes(header[4..].try_into().expect("8 bytes"));
        let start = pos + HEADER;
        let payload = bytes.get(start..start.checked_add(len)?)?;
        if fnv1a(payload) != checksum {
            return None;
        }
        let batch = codec::from_bytes(payload).ok()?;
        pos = start + len;
        Some((batch, pos as u64))
    })
    .fuse()
}

/// Write `segment` at offset `at` of the log (created on first use),
/// cutting off anything that was there: `at` is the end of the
/// committed prefix, so what lies beyond is a tail no catalog row
/// vouches for. A failed write is cut back off as well, best-effort.
/// A log *shorter* than its committed prefix was cut or replaced
/// behind the open run's back (a second process folding the store);
/// writing on would strand the segment behind a gap, so that is an
/// error.
pub(crate) fn write_segment(path: &Path, at: u64, segment: &[u8]) -> Result<(), RpqError> {
    let io = |e| RpqError::io(format!("cannot append to {path:?}"), e);
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .truncate(false)
        .write(true)
        .open(path)
        .map_err(io)?;
    let len = file.metadata().map_err(io)?.len();
    if len < at {
        return Err(RpqError::invalid(format!(
            "event log {path:?} holds {len} byte(s) where its open run committed {at}: it was \
             changed by another process; reopen the run"
        )));
    }
    if len > at {
        file.set_len(at).map_err(io)?;
    }
    file.seek(SeekFrom::Start(at)).map_err(io)?;
    file.write_all(segment).map_err(|e| {
        let _ = file.set_len(at);
        io(e)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpq_labeling::RunBuilder;
    use rpq_workloads::runs::event_stream;

    fn batches() -> Vec<EventBatch> {
        let spec = rpq_workloads::paper_examples::fig2_spec();
        let full = RunBuilder::new(&spec)
            .seed(3)
            .target_edges(80)
            .build()
            .unwrap();
        event_stream(&full, 3).unwrap().1
    }

    #[test]
    fn segments_round_trip_and_stop_at_the_first_bad_one() {
        let batches = batches();
        let mut bytes = Vec::new();
        let mut ends = Vec::new();
        for batch in &batches {
            bytes.extend(frame(batch));
            ends.push(bytes.len() as u64);
        }
        let read: Vec<(EventBatch, u64)> = segments(&bytes).collect();
        assert_eq!(read.len(), batches.len());
        for ((batch, end), (expected, expected_end)) in read.iter().zip(batches.iter().zip(&ends)) {
            assert_eq!(batch, expected);
            assert_eq!(end, expected_end);
        }

        // Every proper prefix yields exactly the segments it holds
        // whole; nothing panics, nothing torn is returned.
        for cut in 0..bytes.len() {
            let whole = ends.iter().filter(|&&end| end <= cut as u64).count();
            assert_eq!(segments(&bytes[..cut]).count(), whole, "cut at {cut}");
        }

        // A flipped byte — header or payload — ends the valid prefix at
        // the segment it sits in, later intact segments included.
        for flip in [0, 5, HEADER + 3, ends[0] as usize + 2, bytes.len() - 1] {
            let mut bad = bytes.clone();
            bad[flip] ^= 0x40;
            let before = ends.iter().filter(|&&end| end <= flip as u64).count();
            assert_eq!(segments(&bad).count(), before, "flip at {flip}");
        }
    }

    #[test]
    fn write_segment_overwrites_whatever_follows_the_committed_prefix() {
        let dir = std::env::temp_dir()
            .join("rpq_log_unit")
            .join(format!("write_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run-0.log");
        let batches = batches();
        let (first, second) = (frame(&batches[0]), frame(&batches[1]));

        // Created by the first write.
        write_segment(&path, 0, &first).unwrap();
        // An uncommitted tail (here: a longer, valid-looking segment
        // plus garbage) is replaced, not appended after.
        let mut tail = frame(&batches[2]);
        tail.extend_from_slice(b"torn");
        std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap()
            .write_all(&tail)
            .unwrap();
        write_segment(&path, first.len() as u64, &second).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes.len(), first.len() + second.len());
        let read: Vec<EventBatch> = segments(&bytes).map(|(b, _)| b).collect();
        assert_eq!(read, batches[..2]);

        // A log cut below the committed prefix is refused, not padded.
        std::fs::remove_file(&path).unwrap();
        let refused = write_segment(&path, first.len() as u64, &second).unwrap_err();
        assert!(refused.to_string().contains("another process"), "{refused}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
