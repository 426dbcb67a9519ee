//! Decode-robustness fuzz for the wire protocol: arbitrary, truncated
//! and bit-flipped frames fed to `rpq_serve::protocol::read_message`
//! must fail cleanly — never panic, never allocate past [`MAX_FRAME`].
//!
//! Seeded from valid frames of every request and response shape, and
//! from replication frames whose run's edge list disagrees with the
//! adjacency written beside it, then mutated three ways (random
//! buffers, strict prefixes, single bit flips) — the transport-level
//! counterpart of the store's `codec_fuzz` suite (the payload bytes
//! reuse that codec). A run that decodes is always one
//! `Run::assemble` builds from its edges.

#[path = "../../../tests/support/tamper.rs"]
mod tamper;

use proptest::prelude::*;
use rpq_labeling::{Run, RunBuilder};
use rpq_serve::protocol::{
    encode_frame, read_message, QuerySpec, RunAddr, WireMode, WireRequest, WireResponse,
    WireStatsReply, MAGIC, MAX_FRAME, VERSION,
};
use rpq_store::codec::to_bytes;

/// How many frames [`seed_frames`] returns.
const SEED_FRAMES: usize = 13;

/// One valid frame per protocol shape, then `PushRun` / `RunData`
/// frames whose run carries an extra edge in its edge list only: a
/// back-edge that closes a cycle the written adjacency hides, and an
/// edge to a node outside the run.
fn seed_frames() -> Vec<Vec<u8>> {
    let spec = rpq_workloads::paper_examples::fig2_spec();
    let run = RunBuilder::new(&spec)
        .seed(7)
        .target_edges(30)
        .build()
        .unwrap();
    let extras = [tamper::back_edge(&run), tamper::outside_edge(&run)];
    let push = WireRequest::PushRun { run: run.clone() };
    let data = WireResponse::RunData { epoch: 3, run };
    let mut frames = vec![
        encode_frame(&WireRequest::Ping).unwrap(),
        encode_frame(&WireRequest::Stats).unwrap(),
        encode_frame(&WireRequest::ListRuns).unwrap(),
        encode_frame(&WireRequest::Shutdown).unwrap(),
        encode_frame(&WireRequest::Query(QuerySpec {
            query: "_* a _*".to_owned(),
            policy: "cost".to_owned(),
            strategy: String::new(),
            stages: false,
            run: RunAddr::Fingerprint(0xdead, 0xbeef),
            mode: WireMode::AllPairs(vec![0, 1, 2], vec![2, 1]),
        }))
        .unwrap(),
        encode_frame(&WireResponse::Pong).unwrap(),
        encode_frame(&WireResponse::Overloaded { queue: 64 }).unwrap(),
        encode_frame(&WireResponse::Stats(WireStatsReply {
            requests: 9,
            closures_scc: 3,
            ..WireStatsReply::default()
        }))
        .unwrap(),
        encode_frame(&WireResponse::Error {
            kind: "parse".to_owned(),
            message: "unbalanced".to_owned(),
        })
        .unwrap(),
    ];
    for extra in extras {
        frames.push(encode_frame(&tamper::with_extra_edge(&push, extra)).unwrap());
        frames.push(encode_frame(&tamper::with_extra_edge(&data, extra)).unwrap());
    }
    assert_eq!(frames.len(), SEED_FRAMES);
    frames
}

/// A decoded run is the one its edges assemble into: same entry, exit
/// and adjacency, whatever the frame wrote beside the edges.
fn assert_assembled(run: &Run) {
    let (nodes, edges) = run.clone().into_parts();
    let assembled = Run::assemble(nodes, edges).expect("a decoded run assembles");
    assert_eq!(to_bytes(&assembled), to_bytes(run));
}

/// Feed `bytes` to both decoders; must return without panicking, and
/// any run either decodes must be assembled from its edges. Reports
/// whether either decoded a message.
fn decode_both(bytes: &[u8]) -> bool {
    let req = read_message::<WireRequest>(&mut &bytes[..]);
    let resp = read_message::<WireResponse>(&mut &bytes[..]);
    if let Ok(Some(WireRequest::PushRun { run })) = &req {
        assert_assembled(run);
    }
    if let Ok(Some(WireResponse::RunData { run, .. })) = &resp {
        assert_assembled(run);
    }
    matches!(req, Ok(Some(_))) || matches!(resp, Ok(Some(_)))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn arbitrary_buffers_error_cleanly(bytes in prop::collection::vec(0u8..=255, 0..120)) {
        // Empty input is a clean end-of-stream; anything that does not
        // open with the exact magic + version must be an error.
        if bytes.is_empty() {
            prop_assert!(read_message::<WireRequest>(&mut &bytes[..]).unwrap().is_none());
        } else if bytes.len() < 9 || bytes[..4] != MAGIC || bytes[4] != VERSION {
            prop_assert!(read_message::<WireRequest>(&mut &bytes[..]).is_err());
            prop_assert!(read_message::<WireResponse>(&mut &bytes[..]).is_err());
        } else {
            // Well-formed header, random length + payload: no panic.
            decode_both(&bytes);
        }
    }

    #[test]
    fn truncations_of_valid_frames_error(
        frame_index in 0..SEED_FRAMES,
        cut_seed in 0u64..10_000,
    ) {
        let frames = seed_frames();
        let frame = &frames[frame_index % frames.len()];
        // Every strict non-empty prefix ends inside the header or
        // inside the announced payload: both are hard errors (a stream
        // may only end cleanly *between* frames).
        let cut = 1 + (cut_seed as usize) % (frame.len() - 1);
        let prefix = &frame[..cut];
        prop_assert!(read_message::<WireRequest>(&mut &prefix[..]).is_err(), "cut {cut}");
        prop_assert!(read_message::<WireResponse>(&mut &prefix[..]).is_err(), "cut {cut}");
    }

    #[test]
    fn bit_flips_never_panic(
        frame_index in 0..SEED_FRAMES,
        flip_seed in 0u64..100_000,
    ) {
        let frames = seed_frames();
        let mut frame = frames[frame_index % frames.len()].clone();
        let bit = (flip_seed as usize) % (frame.len() * 8);
        frame[bit / 8] ^= 1 << (bit % 8);
        // A flip in the length prefix usually desynchronizes the frame
        // (too short → trailing bytes; too long → truncated); a flip in
        // the payload hits the codec's own guards. Either way: a clean
        // Result, never a panic, and any frame that still decodes must
        // re-encode within the cap.
        if let Ok(Some(request)) = read_message::<WireRequest>(&mut &frame[..]) {
            let re = encode_frame(&request).unwrap();
            prop_assert!(re.len() <= MAX_FRAME + 9);
        }
        decode_both(&frame);
    }

    #[test]
    fn oversized_length_prefixes_are_refused_before_allocation(
        len in (MAX_FRAME as u64 + 1)..=u32::MAX as u64,
    ) {
        let mut frame = Vec::new();
        frame.extend_from_slice(&MAGIC);
        frame.push(VERSION);
        frame.extend_from_slice(&(len as u32).to_le_bytes());
        // No payload behind the prefix: the cap check must reject the
        // header before trying to read (or allocate) `len` bytes.
        let err = read_message::<WireRequest>(&mut &frame[..]).unwrap_err();
        prop_assert!(err.to_string().contains("cap"), "{err}");
    }

    #[test]
    fn in_cap_length_lies_are_errors_not_hangs(
        lied_len in 1u64..4096,
        actual in 0usize..64,
    ) {
        // The header announces `lied_len` payload bytes but only
        // `actual` follow; a reader over a finite buffer must error on
        // the truncation (or on garbage payload), never panic.
        let mut frame = Vec::new();
        frame.extend_from_slice(&MAGIC);
        frame.push(VERSION);
        frame.extend_from_slice(&(lied_len as u32).to_le_bytes());
        frame.extend(std::iter::repeat_n(0xAAu8, actual));
        if (actual as u64) < lied_len {
            prop_assert!(read_message::<WireRequest>(&mut &frame[..]).is_err());
        } else {
            decode_both(&frame);
        }
    }
}

#[test]
fn replication_frames_decode_their_edges_or_are_refused() {
    let frames = seed_frames();
    let [.., push_back, data_back, push_outside, data_outside] = &frames[..] else {
        unreachable!("seed frames end with the four replication frames");
    };
    for frame in [push_back, data_back] {
        assert!(decode_both(frame), "a consistent cyclic run decodes");
    }
    for err in [
        read_message::<WireRequest>(&mut &push_outside[..]).unwrap_err(),
        read_message::<WireResponse>(&mut &data_outside[..]).unwrap_err(),
    ] {
        assert!(matches!(err, rpq_core::RpqError::Invalid(_)), "{err:?}");
        assert!(err.to_string().contains("999"), "{err}");
    }
}

#[test]
fn frames_of_another_protocol_version_are_refused() {
    // A peer one version behind (v8 framed the stats reply with the
    // plan-cache counters) or ahead gets the typed version error, not
    // a payload misread.
    for version in [VERSION - 1, VERSION + 1] {
        for mut frame in seed_frames() {
            frame[4] = version;
            for err in [
                read_message::<WireRequest>(&mut &frame[..]).unwrap_err(),
                read_message::<WireResponse>(&mut &frame[..]).unwrap_err(),
            ] {
                assert!(matches!(err, rpq_core::RpqError::Invalid(_)), "{err:?}");
                assert!(
                    err.to_string()
                        .contains(&format!("unsupported protocol version {version}")),
                    "{err}"
                );
            }
        }
    }
}
