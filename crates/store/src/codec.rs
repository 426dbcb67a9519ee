//! The binary formats of the run store's files and of the wire.
//!
//! Every file and frame payload opens with the magic `RPQB` and a
//! version byte, and the version byte picks the decoder:
//!
//! * **Version 2 — typed store files.** The run base
//!   (`runs/run-<id>.bin`), each event-log segment payload
//!   (`runs/run-<id>.log`) and the two index artifacts
//!   (`index/tag-<id>.bin`, `index/csr-<id>.bin`, behind their stamp)
//!   are written in one fixed layout per kind and decoded straight into
//!   their structs.
//! * **Version 1 — the generic value codec** over the serde shim's
//!   [`Value`] tree ([`to_bytes`] / [`from_bytes`]). It carries the wire
//!   protocol's payloads, and it is how older builds wrote run bases and
//!   log segments. Those still decode ([`decode_graph`] reads either
//!   version); the next fold (`RunStore::materialize_artifacts`)
//!   rewrites them as version 2. A version-1 *artifact* fails its decode
//!   and is rebuilt.
//!
//! # Version 2
//!
//! ```text
//! magic     4 B   "RPQB"
//! version   1 B   2
//! kind      1 B   'G' graph (run base or log segment) | 'T' tag index | 'C' CSR arena
//! counts    2 × u32 LE
//! columns   per kind, below
//! checksum  u64 LE: FNV-1a over 8-byte little-endian words (then any
//!           tail bytes) of everything before it
//! ```
//!
//! * **Graph** — counts: nodes, edges. Per node: module, occurrence
//!   (varints), then the label as a varint byte length and its
//!   [`rpq_labeling::codec`] bytes. Per edge: src, dst, tag (varints).
//!   A run base is the graph of the whole run; a log segment is the
//!   graph of one [`EventBatch`].
//! * **Tag index** — counts: nodes, pair sets (tags + 1, the wildcard
//!   set last). A `u32` pair count per set, then each set's pairs as
//!   `u32` `(src, dst)`, sorted.
//! * **CSR arena** — counts: nodes, relations (tags + 1, the wildcard
//!   relation last). Per relation: its edge count `m`, then per
//!   direction (forward, then transposed) the non-empty rows as `u32`
//!   `(node, row end)` pairs behind their count, then the `m` `u32`
//!   targets. Empty rows are not written: the offsets array is filled
//!   back from the listed row ends.
//!
//! Integers in columns are little-endian `u32` unless marked as
//! LEB128 varints. A decoder checks every count against the bytes
//! still unread before it allocates, verifies the checksum (one flipped
//! bit anywhere is always caught), requires the columns to end exactly
//! at the checksum, and leaves the semantic checks to its caller: a run
//! is rebuilt through `Run::assemble` and checked against its catalog
//! row and specification, an artifact against its stamp and
//! `is_well_formed`.
//!
//! # Version 1
//!
//! A 5-byte header (magic `RPQB` + version 1), then one value,
//! recursively:
//!
//! | tag  | payload                                             |
//! |------|-----------------------------------------------------|
//! | 0x00 | null                                                |
//! | 0x01 | false                                               |
//! | 0x02 | true                                                |
//! | 0x03 | unsigned int — varint                               |
//! | 0x04 | signed int — zigzag varint                          |
//! | 0x05 | float — 8 bytes little-endian IEEE 754              |
//! | 0x06 | string literal — varint length + UTF-8, interned    |
//! | 0x07 | string back-reference — varint intern-table index   |
//! | 0x08 | sequence — varint count + values                    |
//! | 0x09 | map — varint count + (string, value) pairs          |
//! | 0x0a | byte buffer — varint length + raw bytes             |
//!
//! Both sides maintain the intern table implicitly: every literal
//! string (tag 0x06), wherever it appears, is appended; tag 0x07
//! refers to it by table position. Map keys use the same two string
//! forms, without a value tag of their own.

use rpq_grammar::{ModuleId, Tag};
use rpq_labeling::{EventBatch, NodeId, Run, RunEdge, RunNode};
use rpq_relalg::{CsrIndex, CsrRelation, NodePairSet, TagIndex};
use serde::{DeError, Deserialize, Serialize, Value};
use std::collections::HashMap;
use std::fmt;

/// File magic shared by both versions.
const MAGIC: [u8; 4] = *b"RPQB";
/// Version byte of the generic value codec.
const VERSION: u8 = 1;
/// Version byte of the typed store files.
const TYPED_VERSION: u8 = 2;

const KIND_GRAPH: u8 = b'G';
const KIND_TAG: u8 = b'T';
const KIND_CSR: u8 = b'C';

/// The first bytes of every run base and log segment in the typed
/// layout (what a fold looks for to decide whether a base is current).
pub(crate) const GRAPH_HEADER: [u8; 6] = [b'R', b'P', b'Q', b'B', TYPED_VERSION, KIND_GRAPH];

/// Magic, version, kind and two `u32` counts.
const TYPED_HEADER: usize = 14;
/// The trailing checksum.
const CHECKSUM: usize = 8;

const TAG_NULL: u8 = 0x00;
const TAG_FALSE: u8 = 0x01;
const TAG_TRUE: u8 = 0x02;
const TAG_UINT: u8 = 0x03;
const TAG_INT: u8 = 0x04;
const TAG_FLOAT: u8 = 0x05;
const TAG_STR: u8 = 0x06;
const TAG_STR_REF: u8 = 0x07;
const TAG_SEQ: u8 = 0x08;
const TAG_MAP: u8 = 0x09;
const TAG_BYTES: u8 = 0x0a;

/// A decode failure (truncated, corrupt or version-mismatched bytes).
#[derive(Debug, Clone)]
pub struct CodecError(String);

impl CodecError {
    fn new(message: impl Into<String>) -> CodecError {
        CodecError(message.into())
    }
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CodecError {}

impl From<DeError> for CodecError {
    fn from(e: DeError) -> CodecError {
        CodecError(e.0)
    }
}

// ---------------------------------------------------------------------
// Version 2: typed store files.
// ---------------------------------------------------------------------

/// A run base: the graph of the whole run.
pub(crate) fn encode_run(run: &Run) -> Vec<u8> {
    encode_graph(
        run.n_nodes(),
        run.nodes().map(|(_, node)| node),
        run.edges(),
    )
}

/// A log segment's payload: the graph of one batch.
pub(crate) fn encode_batch(batch: &EventBatch) -> Vec<u8> {
    encode_graph(batch.nodes.len(), batch.nodes.iter(), &batch.edges)
}

fn encode_graph<'a>(
    n_nodes: usize,
    nodes: impl Iterator<Item = &'a RunNode>,
    edges: &[RunEdge],
) -> Vec<u8> {
    // Room for typical sizes: BioAID labels take ~24 B a node.
    let mut out = typed_header(
        KIND_GRAPH,
        n_nodes,
        edges.len(),
        25 * n_nodes + 5 * edges.len(),
    );
    for node in nodes {
        put_varint(&mut out, node.module.0.into());
        put_varint(&mut out, node.occurrence.into());
        let label = rpq_labeling::codec::encode(&node.label);
        put_varint(&mut out, label.len() as u64);
        out.extend_from_slice(&label);
    }
    for e in edges {
        put_varint(&mut out, e.src.0.into());
        put_varint(&mut out, e.dst.0.into());
        put_varint(&mut out, e.tag.0.into());
    }
    seal(out)
}

/// Decode a run base or log segment into its nodes and edges, in
/// either version: a version-1 file goes through the generic codec (a
/// run's extra fields — its adjacency and entry/exit — are ignored).
/// Edge endpoints are not checked here: a segment's edges may reach
/// into the base, so `Run::assemble` checks them once the run is whole.
pub fn decode_graph(bytes: &[u8]) -> Result<EventBatch, CodecError> {
    if bytes.len() >= 5 && bytes[..4] == MAGIC && bytes[4] == VERSION {
        return from_bytes(bytes);
    }
    let mut r = open_typed(bytes, KIND_GRAPH)?;
    let n_nodes = r.u32()? as usize;
    let n_edges = r.u32()? as usize;
    // Every node and every edge takes at least three bytes.
    if (n_nodes as u64 + n_edges as u64) * 3 > r.remaining() as u64 {
        return Err(CodecError::new(format!(
            "{n_nodes} node(s) and {n_edges} edge(s) exceed the remaining input"
        )));
    }
    let mut nodes = Vec::with_capacity(n_nodes);
    for _ in 0..n_nodes {
        let module = ModuleId(r.varint_u32()?);
        let occurrence = r.varint_u32()?;
        let len = r.varint()?;
        let label = rpq_labeling::codec::decode(r.take(len)?)
            .ok_or_else(|| CodecError::new("malformed label"))?;
        nodes.push(RunNode {
            module,
            occurrence,
            label,
        });
    }
    let mut edges = Vec::with_capacity(n_edges);
    for _ in 0..n_edges {
        edges.push(RunEdge {
            src: NodeId(r.varint_u32()?),
            dst: NodeId(r.varint_u32()?),
            tag: Tag(r.varint_u32()?),
        });
    }
    r.finish()?;
    Ok(EventBatch { nodes, edges })
}

/// A tag index artifact's payload.
pub(crate) fn encode_tag(index: &TagIndex) -> Vec<u8> {
    let sets: Vec<&NodePairSet> = (0..index.n_tags())
        .map(|t| index.edges(Tag(t as u32)))
        .chain(std::iter::once(index.all_edges()))
        .collect();
    let n_pairs: usize = sets.iter().map(|set| set.len()).sum();
    let mut out = typed_header(
        KIND_TAG,
        index.n_nodes(),
        sets.len(),
        4 * sets.len() + 8 * n_pairs,
    );
    for set in &sets {
        put_u32(&mut out, set.len());
    }
    for set in &sets {
        for (u, v) in set.iter() {
            out.extend_from_slice(&u.0.to_le_bytes());
            out.extend_from_slice(&v.0.to_le_bytes());
        }
    }
    seal(out)
}

/// Decode a tag index artifact's payload for a run of `n_nodes` nodes
/// over `n_tags` tags; a header that says otherwise is an error.
pub(crate) fn decode_tag(
    bytes: &[u8],
    n_nodes: u64,
    n_tags: usize,
) -> Result<TagIndex, CodecError> {
    let mut r = open_typed(bytes, KIND_TAG)?;
    let n_sets = expect_shape(&mut r, n_nodes, n_tags)?;
    let lens = r.u32s(n_sets)?;
    let mut sets = Vec::with_capacity(n_sets);
    for len in lens {
        let flat = r.take(8 * u64::from(len))?;
        sets.push(NodePairSet::from_pairs(
            flat.chunks_exact(8)
                .map(|pair| (NodeId(le_u32(&pair[..4])), NodeId(le_u32(&pair[4..]))))
                .collect(),
        ));
    }
    r.finish()?;
    let all = sets.pop().expect("the shape check admits tags + 1 sets");
    Ok(TagIndex::from_parts(sets, all, n_nodes as usize))
}

/// A CSR arena artifact's payload.
pub(crate) fn encode_csr(csr: &CsrIndex) -> Vec<u8> {
    let rels: Vec<&CsrRelation> = (0..csr.n_tags())
        .map(|t| csr.csr(Tag(t as u32)))
        .chain(std::iter::once(csr.all()))
        .collect();
    let n_edges: usize = rels.iter().map(|rel| rel.n_edges()).sum();
    let mut out = typed_header(
        KIND_CSR,
        csr.n_nodes(),
        rels.len(),
        12 * rels.len() + 24 * n_edges,
    );
    for rel in rels {
        let [offsets, targets, rev_offsets, rev_targets] = rel.raw_parts();
        put_u32(&mut out, targets.len());
        for (offsets, targets) in [(offsets, targets), (rev_offsets, rev_targets)] {
            let rows: Vec<(usize, u32)> = offsets
                .windows(2)
                .enumerate()
                .filter(|(_, w)| w[1] > w[0])
                .map(|(u, w)| (u, w[1]))
                .collect();
            put_u32(&mut out, rows.len());
            for (u, end) in rows {
                put_u32(&mut out, u);
                out.extend_from_slice(&end.to_le_bytes());
            }
            for &t in targets {
                out.extend_from_slice(&t.to_le_bytes());
            }
        }
    }
    seal(out)
}

/// Decode a CSR arena artifact's payload for a run of `n_nodes` nodes
/// over `n_tags` tags; a header that says otherwise is an error. The
/// arena is not checked beyond what indexing it here needs.
pub(crate) fn decode_csr(
    bytes: &[u8],
    n_nodes: u64,
    n_tags: usize,
) -> Result<CsrIndex, CodecError> {
    let mut r = open_typed(bytes, KIND_CSR)?;
    let n_rels = expect_shape(&mut r, n_nodes, n_tags)?;
    let n = n_nodes as usize;
    let mut rels = Vec::with_capacity(n_rels);
    for _ in 0..n_rels {
        let m = r.u32()? as usize;
        let mut direction = || -> Result<[Vec<u32>; 2], CodecError> {
            let k = r.u32()? as usize;
            let rows = r.u32s(2 * k)?;
            // Each listed row's end, the rows between repeating the
            // previous end.
            let mut offsets = Vec::with_capacity(n + 1);
            offsets.push(0);
            for row in rows.chunks_exact(2) {
                let (u, end) = (row[0] as usize, row[1]);
                if u + 1 < offsets.len() || u >= n {
                    return Err(CodecError::new(
                        "CSR rows out of order or outside the universe",
                    ));
                }
                offsets.resize(u + 1, *offsets.last().expect("starts at 0"));
                offsets.push(end);
            }
            offsets.resize(n + 1, *offsets.last().expect("starts at 0"));
            Ok([offsets, r.u32s(m)?])
        };
        let [offsets, targets] = direction()?;
        let [rev_offsets, rev_targets] = direction()?;
        rels.push(CsrRelation::from_raw_parts(
            n_nodes as u32,
            [offsets, targets, rev_offsets, rev_targets],
        ));
    }
    r.finish()?;
    let all = rels
        .pop()
        .expect("the shape check admits tags + 1 relations");
    Ok(CsrIndex::from_parts(n, rels, all))
}

/// Magic, version, kind and the two counts, with room for `body` more
/// bytes.
fn typed_header(kind: u8, a: usize, b: usize, body: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(TYPED_HEADER + body + CHECKSUM);
    out.extend_from_slice(&MAGIC);
    out.push(TYPED_VERSION);
    out.push(kind);
    put_u32(&mut out, a);
    put_u32(&mut out, b);
    out
}

/// Append the checksum.
fn seal(mut out: Vec<u8>) -> Vec<u8> {
    let sum = checksum(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

fn put_u32(out: &mut Vec<u8>, n: usize) {
    let n = u32::try_from(n).expect("store file counts fit in u32");
    out.extend_from_slice(&n.to_le_bytes());
}

fn le_u32(bytes: &[u8]) -> u32 {
    u32::from_le_bytes(bytes.try_into().expect("4 bytes"))
}

/// 64-bit FNV-1a over little-endian 8-byte words, then the tail bytes.
/// Each step is a bijection of the state for a fixed input and of the
/// input for a fixed state, so files that differ in one word always
/// differ in their checksum.
fn checksum(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        h = (h ^ u64::from_le_bytes(word.try_into().expect("8 bytes"))).wrapping_mul(PRIME);
    }
    for &b in words.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(PRIME);
    }
    h
}

/// The columns of a typed file of `kind`, its header and checksum
/// verified.
fn open_typed(bytes: &[u8], kind: u8) -> Result<Decoder<'_>, CodecError> {
    if bytes.len() < 5 || bytes[..4] != MAGIC {
        return Err(CodecError::new("not an rpq binary file (bad magic)"));
    }
    if bytes[4] != TYPED_VERSION {
        return Err(CodecError::new(format!(
            "unsupported rpq store file version {}",
            bytes[4]
        )));
    }
    if bytes.len() < TYPED_HEADER + CHECKSUM {
        return Err(CodecError::new("truncated store file"));
    }
    if bytes[5] != kind {
        return Err(CodecError::new(format!(
            "store file of kind {:?} where {:?} was expected",
            char::from(bytes[5]),
            char::from(kind)
        )));
    }
    let (body, sum) = bytes.split_at(bytes.len() - CHECKSUM);
    if checksum(body) != u64::from_le_bytes(sum.try_into().expect("8 bytes")) {
        return Err(CodecError::new("store file checksum mismatch"));
    }
    Ok(Decoder::new(body, 6))
}

/// An index artifact's counts must name the run's node count and one
/// set per tag plus the wildcard. Returns the set count.
fn expect_shape(r: &mut Decoder<'_>, n_nodes: u64, n_tags: usize) -> Result<usize, CodecError> {
    let (nodes, sets) = (r.u32()?, r.u32()? as usize);
    if u64::from(nodes) != n_nodes || sets != n_tags + 1 {
        return Err(CodecError::new(format!(
            "index of {nodes} node(s) and {sets} set(s) where the run has {n_nodes} and {} tag(s)",
            n_tags
        )));
    }
    Ok(sets)
}

// ---------------------------------------------------------------------
// Version 1: the generic value codec.
// ---------------------------------------------------------------------

/// Encode any serializable value to the generic binary format.
pub fn to_bytes<T: Serialize + ?Sized>(value: &T) -> Vec<u8> {
    let mut enc = Encoder {
        out: Vec::with_capacity(256),
        interned: HashMap::new(),
    };
    enc.out.extend_from_slice(&MAGIC);
    enc.out.push(VERSION);
    enc.value(&value.to_value());
    enc.out
}

/// Decode a value encoded by [`to_bytes`].
pub fn from_bytes<T: Deserialize>(bytes: &[u8]) -> Result<T, CodecError> {
    if bytes.len() < 5 || bytes[..4] != MAGIC {
        return Err(CodecError::new("not an rpq binary file (bad magic)"));
    }
    if bytes[4] != VERSION {
        return Err(CodecError::new(format!(
            "unsupported rpq binary version {} (this build reads {VERSION})",
            bytes[4]
        )));
    }
    let mut dec = Decoder::new(bytes, 5);
    let value = dec.value()?;
    dec.finish()?;
    Ok(T::from_value(&value)?)
}

// ---------------------------------------------------------------------
// Encoder.
// ---------------------------------------------------------------------

struct Encoder {
    out: Vec<u8>,
    interned: HashMap<String, u64>,
}

impl Encoder {
    fn value(&mut self, value: &Value) {
        match value {
            Value::Null => self.out.push(TAG_NULL),
            Value::Bool(false) => self.out.push(TAG_FALSE),
            Value::Bool(true) => self.out.push(TAG_TRUE),
            Value::UInt(n) => {
                self.out.push(TAG_UINT);
                put_varint(&mut self.out, *n);
            }
            Value::Int(n) => {
                self.out.push(TAG_INT);
                put_varint(&mut self.out, zigzag(*n));
            }
            Value::Float(x) => {
                self.out.push(TAG_FLOAT);
                self.out.extend_from_slice(&x.to_le_bytes());
            }
            Value::Str(s) => self.string(s),
            Value::Bytes(bytes) => {
                self.out.push(TAG_BYTES);
                put_varint(&mut self.out, bytes.len() as u64);
                self.out.extend_from_slice(bytes);
            }
            Value::Seq(items) => {
                self.out.push(TAG_SEQ);
                put_varint(&mut self.out, items.len() as u64);
                for item in items {
                    self.value(item);
                }
            }
            Value::Map(entries) => {
                self.out.push(TAG_MAP);
                put_varint(&mut self.out, entries.len() as u64);
                for (key, item) in entries {
                    self.string(key);
                    self.value(item);
                }
            }
        }
    }

    fn string(&mut self, s: &str) {
        if let Some(&index) = self.interned.get(s) {
            self.out.push(TAG_STR_REF);
            put_varint(&mut self.out, index);
            return;
        }
        let index = self.interned.len() as u64;
        self.interned.insert(s.to_owned(), index);
        self.out.push(TAG_STR);
        put_varint(&mut self.out, s.len() as u64);
        self.out.extend_from_slice(s.as_bytes());
    }
}

// ---------------------------------------------------------------------
// Decoder.
// ---------------------------------------------------------------------

/// A cursor over encoded bytes. The typed decoders read its columns;
/// the generic one also keeps the string intern table.
struct Decoder<'a> {
    bytes: &'a [u8],
    pos: usize,
    table: Vec<String>,
}

impl<'a> Decoder<'a> {
    fn new(bytes: &'a [u8], pos: usize) -> Decoder<'a> {
        Decoder {
            bytes,
            pos,
            table: Vec::new(),
        }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// The next `len` bytes, if that many remain.
    fn take(&mut self, len: u64) -> Result<&'a [u8], CodecError> {
        if len > self.remaining() as u64 {
            return Err(CodecError::new(format!(
                "{len} byte(s) exceed remaining input"
            )));
        }
        let out = &self.bytes[self.pos..self.pos + len as usize];
        self.pos += len as usize;
        Ok(out)
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        self.take(4).map(le_u32)
    }

    /// `n` little-endian `u32`s, checked against the remaining input
    /// before anything is allocated.
    fn u32s(&mut self, n: usize) -> Result<Vec<u32>, CodecError> {
        Ok(self
            .take(4 * n as u64)?
            .chunks_exact(4)
            .map(le_u32)
            .collect())
    }

    fn varint_u32(&mut self) -> Result<u32, CodecError> {
        u32::try_from(self.varint()?).map_err(|_| CodecError::new("varint overflows u32"))
    }

    /// Every byte must have been read.
    fn finish(&self) -> Result<(), CodecError> {
        if self.pos != self.bytes.len() {
            return Err(CodecError::new(format!(
                "trailing bytes at offset {}",
                self.pos
            )));
        }
        Ok(())
    }

    fn byte(&mut self) -> Result<u8, CodecError> {
        let b = *self
            .bytes
            .get(self.pos)
            .ok_or_else(|| CodecError::new("unexpected end of input"))?;
        self.pos += 1;
        Ok(b)
    }

    fn varint(&mut self) -> Result<u64, CodecError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.byte()?;
            let payload = u64::from(b & 0x7f);
            // The 10th byte carries only u64 bit 63: any higher payload
            // bit (or an 11th byte) must error, not silently truncate
            // to a plausible wrong value.
            if shift >= 64 || (shift == 63 && payload > 1) {
                return Err(CodecError::new("varint overflows u64"));
            }
            v |= payload << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// A count prefix sanity-checked against the remaining bytes (each
    /// element takes at least one), so a corrupt prefix cannot drive a
    /// multi-gigabyte allocation.
    fn count(&mut self, per_element: usize) -> Result<usize, CodecError> {
        let n = self.varint()?;
        let limit = (self.remaining() / per_element.max(1)) as u64;
        if n > limit {
            return Err(CodecError::new(format!(
                "count {n} exceeds remaining input"
            )));
        }
        Ok(n as usize)
    }

    fn value(&mut self) -> Result<Value, CodecError> {
        match self.byte()? {
            TAG_NULL => Ok(Value::Null),
            TAG_FALSE => Ok(Value::Bool(false)),
            TAG_TRUE => Ok(Value::Bool(true)),
            TAG_UINT => Ok(Value::UInt(self.varint()?)),
            TAG_INT => Ok(Value::Int(unzigzag(self.varint()?))),
            TAG_FLOAT => {
                if self.remaining() < 8 {
                    return Err(CodecError::new("truncated float"));
                }
                let mut raw = [0u8; 8];
                raw.copy_from_slice(&self.bytes[self.pos..self.pos + 8]);
                self.pos += 8;
                Ok(Value::Float(f64::from_le_bytes(raw)))
            }
            TAG_STR | TAG_STR_REF => {
                // Re-dispatch through the shared string reader.
                self.pos -= 1;
                self.string().map(Value::Str)
            }
            TAG_BYTES => {
                let len = self.count(1)?;
                let bytes = self.bytes[self.pos..self.pos + len].to_vec();
                self.pos += len;
                Ok(Value::Bytes(bytes))
            }
            TAG_SEQ => {
                let n = self.count(1)?;
                let mut items = Vec::with_capacity(n);
                for _ in 0..n {
                    items.push(self.value()?);
                }
                Ok(Value::Seq(items))
            }
            TAG_MAP => {
                let n = self.count(2)?;
                let mut entries = Vec::with_capacity(n);
                for _ in 0..n {
                    let key = self.string()?;
                    entries.push((key, self.value()?));
                }
                Ok(Value::Map(entries))
            }
            other => Err(CodecError::new(format!(
                "unknown value tag {other:#04x} at offset {}",
                self.pos - 1
            ))),
        }
    }

    fn string(&mut self) -> Result<String, CodecError> {
        match self.byte()? {
            TAG_STR => {
                let len = self.count(1)?;
                let raw = &self.bytes[self.pos..self.pos + len];
                let s = std::str::from_utf8(raw)
                    .map_err(|_| CodecError::new("string is not UTF-8"))?
                    .to_owned();
                self.pos += len;
                self.table.push(s.clone());
                Ok(s)
            }
            TAG_STR_REF => {
                let index = self.varint()? as usize;
                self.table.get(index).cloned().ok_or_else(|| {
                    CodecError::new(format!("string back-reference {index} out of range"))
                })
            }
            other => Err(CodecError::new(format!(
                "expected string, found tag {other:#04x}"
            ))),
        }
    }
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(value: Value) {
        let mut enc = Encoder {
            out: Vec::new(),
            interned: HashMap::new(),
        };
        enc.out.extend_from_slice(&MAGIC);
        enc.out.push(VERSION);
        enc.value(&value);
        let bytes = enc.out;
        let mut dec = Decoder::new(&bytes, 5);
        let back = dec.value().unwrap();
        assert_eq!(dec.pos, bytes.len());
        assert_eq!(back, value);
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(Value::Null);
        round_trip(Value::Bool(true));
        round_trip(Value::Bool(false));
        for n in [0u64, 1, 127, 128, 300, u64::MAX] {
            round_trip(Value::UInt(n));
        }
        for n in [0i64, -1, 1, -300, i64::MIN, i64::MAX] {
            round_trip(Value::Int(n));
        }
        for x in [0.0f64, -1.5, 1e300, f64::MIN_POSITIVE] {
            round_trip(Value::Float(x));
        }
        round_trip(Value::Str("héllo \"wörld\"\n".to_owned()));
        round_trip(Value::Bytes(vec![]));
        round_trip(Value::Bytes((0..=255).collect()));
    }

    #[test]
    fn structures_round_trip_with_interning() {
        let edge = |s: u64, d: u64| {
            Value::Map(vec![
                ("src".to_owned(), Value::UInt(s)),
                ("dst".to_owned(), Value::UInt(d)),
                ("tag".to_owned(), Value::UInt(0)),
            ])
        };
        let many: Vec<Value> = (0..200).map(|i| edge(i, i + 1)).collect();
        let value = Value::Map(vec![
            ("edges".to_owned(), Value::Seq(many)),
            ("name".to_owned(), Value::Str("edges".to_owned())),
        ]);
        let bytes = to_bytes_of(&value);
        // 200 edges × 3 field names: interning keeps the field names
        // from being re-encoded (4-byte literal each) every time.
        // "src"/"dst"/"tag" appear literally once each.
        let text = String::from_utf8_lossy(&bytes);
        assert_eq!(text.matches("src").count(), 1);
        assert_eq!(text.matches("dst").count(), 1);
        round_trip(value);
    }

    fn to_bytes_of(value: &Value) -> Vec<u8> {
        let mut enc = Encoder {
            out: Vec::new(),
            interned: HashMap::new(),
        };
        enc.out.extend_from_slice(&MAGIC);
        enc.out.push(VERSION);
        enc.value(value);
        enc.out
    }

    #[test]
    fn header_and_corruption_are_rejected() {
        let good = to_bytes(&42u64);
        assert!(from_bytes::<u64>(&good).is_ok());
        // Bad magic.
        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(from_bytes::<u64>(&bad).is_err());
        // Bad version.
        let mut bad = good.clone();
        bad[4] = 99;
        assert!(from_bytes::<u64>(&bad).is_err());
        // Truncation at every prefix must error, never panic.
        for cut in 0..good.len() {
            assert!(from_bytes::<u64>(&good[..cut]).is_err(), "cut at {cut}");
        }
        // Trailing garbage.
        let mut bad = good;
        bad.push(0);
        assert!(from_bytes::<u64>(&bad).is_err());
        // A count prefix that promises more elements than bytes remain.
        let mut huge = Vec::new();
        huge.extend_from_slice(&MAGIC);
        huge.push(VERSION);
        huge.push(TAG_SEQ);
        put_varint(&mut huge, u64::MAX / 2);
        assert!(from_bytes::<Vec<u64>>(&huge).is_err());
        // An overlong varint must error, not truncate: ten continuation
        // bytes put the final payload past u64 bit 63.
        let mut overlong = Vec::new();
        overlong.extend_from_slice(&MAGIC);
        overlong.push(VERSION);
        overlong.push(TAG_UINT);
        overlong.extend_from_slice(&[0xff; 9]);
        overlong.push(0x7e); // bits 1–6 of the 10th byte don't fit
        assert!(from_bytes::<u64>(&overlong).is_err());
        // The canonical u64::MAX encoding (10th byte = 0x01) is fine.
        let max = to_bytes(&u64::MAX);
        assert_eq!(from_bytes::<u64>(&max).unwrap(), u64::MAX);
    }

    #[test]
    fn zigzag_is_its_own_inverse() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        // Small magnitudes stay small encodings.
        assert!(zigzag(-1) < 8);
        assert!(zigzag(3) < 8);
    }

    #[test]
    fn store_file_counts_are_checked_before_anything_is_allocated() {
        // Valid checksums: only the count guards stand in the way.
        let huge = seal(typed_header(KIND_GRAPH, u32::MAX as usize, 0, 0));
        let err = decode_graph(&huge).unwrap_err().to_string();
        assert!(err.contains("exceed"), "{err}");
        let mut tag = typed_header(KIND_TAG, 3, 2, 0);
        put_u32(&mut tag, u32::MAX as usize);
        put_u32(&mut tag, 0);
        assert!(decode_tag(&seal(tag), 3, 1).is_err());
        let mut csr = typed_header(KIND_CSR, 3, 2, 0);
        put_u32(&mut csr, 0); // edges
        put_u32(&mut csr, u32::MAX as usize); // non-empty rows
        assert!(decode_csr(&seal(csr), 3, 1).is_err());
        // An index of another run's shape is refused at its header.
        let empty_sets = |nodes| {
            let mut tag = typed_header(KIND_TAG, nodes, 2, 0);
            put_u32(&mut tag, 0);
            put_u32(&mut tag, 0);
            seal(tag)
        };
        assert!(decode_tag(&empty_sets(3), 3, 1).is_ok());
        assert!(decode_tag(&empty_sets(u32::MAX as usize), 3, 1).is_err());
        assert!(decode_tag(&empty_sets(3), 3, 2).is_err());
    }

    #[test]
    fn typed_round_trip_through_the_public_api() {
        let value: Vec<(u32, String)> = vec![(1, "a".into()), (2, "a".into()), (3, "b".into())];
        let bytes = to_bytes(&value);
        let back: Vec<(u32, String)> = from_bytes(&bytes).unwrap();
        assert_eq!(back, value);
    }
}
