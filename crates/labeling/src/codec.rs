//! Compact binary label encoding.
//!
//! The labeling scheme's headline guarantee is *logarithmic-size labels*:
//! a label has at most `O(|G|)` entries, each of whose components is
//! either bounded by the specification size or — for recursion unfolding
//! indices — by the run size, hence `O(log n)` bits. This codec
//! materializes that bound: entries are LEB128-varint encoded, and
//! [`crate::stats::RunStats`] reports measured label sizes for the
//! overhead experiments.

use crate::label::{Label, LabelEntry};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use rpq_grammar::ProductionId;

/// Encode a label into bytes.
pub fn encode(label: &Label) -> Bytes {
    let mut buf = BytesMut::with_capacity(label.depth() * 3 + 1);
    for &e in label.entries() {
        match e {
            LabelEntry::Prod { production, pos } => {
                // Discriminator bit 0 packed into the first varint.
                put_varint(&mut buf, u64::from(production.0) << 1);
                put_varint(&mut buf, u64::from(pos));
            }
            LabelEntry::Rec {
                cycle,
                start_phase,
                idx,
            } => {
                put_varint(&mut buf, (u64::from(cycle) << 1) | 1);
                put_varint(&mut buf, u64::from(start_phase));
                put_varint(&mut buf, u64::from(idx));
            }
        }
    }
    buf.freeze()
}

/// Decode a label from bytes. Returns `None` on malformed input.
pub fn decode(mut bytes: &[u8]) -> Option<Label> {
    // Every entry takes at least two bytes.
    let mut entries = Vec::with_capacity(bytes.len() / 2);
    while bytes.has_remaining() {
        let head = get_varint(&mut bytes)?;
        if head & 1 == 0 {
            let production = ProductionId(u32::try_from(head >> 1).ok()?);
            let pos = u32::try_from(get_varint(&mut bytes)?).ok()?;
            entries.push(LabelEntry::Prod { production, pos });
        } else {
            let cycle = u16::try_from(head >> 1).ok()?;
            let start_phase = u16::try_from(get_varint(&mut bytes)?).ok()?;
            let idx = u32::try_from(get_varint(&mut bytes)?).ok()?;
            entries.push(LabelEntry::Rec {
                cycle,
                start_phase,
                idx,
            });
        }
    }
    Some(Label::from_entries(entries))
}

/// Encoded size in bytes without materializing the buffer.
pub fn encoded_len(label: &Label) -> usize {
    label
        .entries()
        .iter()
        .map(|&e| match e {
            LabelEntry::Prod { production, pos } => {
                varint_len(u64::from(production.0) << 1) + varint_len(u64::from(pos))
            }
            LabelEntry::Rec {
                cycle,
                start_phase,
                idx,
            } => {
                varint_len((u64::from(cycle) << 1) | 1)
                    + varint_len(u64::from(start_phase))
                    + varint_len(u64::from(idx))
            }
        })
        .sum()
}

fn put_varint(buf: &mut BytesMut, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

fn get_varint(buf: &mut &[u8]) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        if !buf.has_remaining() || shift >= 64 {
            return None;
        }
        let byte = buf.get_u8();
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
    }
}

fn varint_len(v: u64) -> usize {
    (64 - v.leading_zeros()).max(1).div_ceil(7) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prod(k: u32, i: u32) -> LabelEntry {
        LabelEntry::Prod {
            production: ProductionId(k),
            pos: i,
        }
    }

    fn rec(s: u16, t: u16, i: u32) -> LabelEntry {
        LabelEntry::Rec {
            cycle: s,
            start_phase: t,
            idx: i,
        }
    }

    #[test]
    fn round_trip() {
        let labels = [
            Label::root(),
            Label::from_entries(vec![prod(0, 0)]),
            Label::from_entries(vec![prod(3, 12), rec(0, 1, 4096), prod(200, 7)]),
            Label::from_entries(vec![rec(u16::MAX, u16::MAX, u32::MAX)]),
        ];
        for l in &labels {
            let bytes = encode(l);
            assert_eq!(bytes.len(), encoded_len(l));
            let back = decode(&bytes).unwrap();
            assert_eq!(&back, l);
        }
    }

    #[test]
    fn small_entries_take_two_bytes() {
        let l = Label::from_entries(vec![prod(1, 2)]);
        assert_eq!(encoded_len(&l), 2);
    }

    #[test]
    fn recursion_index_grows_logarithmically() {
        // idx = 1 → 3 bytes; idx = 10^6 → still only 5 bytes.
        let small = Label::from_entries(vec![rec(0, 0, 1)]);
        let big = Label::from_entries(vec![rec(0, 0, 1_000_000)]);
        assert_eq!(encoded_len(&small), 3);
        assert_eq!(encoded_len(&big), 5);
    }

    #[test]
    fn malformed_input_is_rejected() {
        // Truncated varint (continuation bit set, no next byte).
        assert!(decode(&[0x80]).is_none());
        // Prod head without the pos varint.
        assert!(decode(&[0x02]).is_none());
    }

    #[test]
    fn varint_len_matches_encoding() {
        for v in [0u64, 1, 127, 128, 16383, 16384, u32::MAX as u64, u64::MAX] {
            let mut buf = BytesMut::new();
            put_varint(&mut buf, v);
            assert_eq!(buf.len(), varint_len(v), "v = {v}");
        }
    }
}
