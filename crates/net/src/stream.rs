//! Progressive & delta streaming: the ΔROI patch on the wire.
//!
//! Two transports beyond the monolithic [`MeshResult`] frame:
//!
//! * **Delta frames** ([`FrameDelta`]) for warm navigation sessions. The
//!   server diffs consecutive frames' canonical meshes and ships only
//!   removed vertex ids + spliced vertices/faces; the client's
//!   [`FrontMirror`] applies the patch and reconstructs a result
//!   byte-identical to the full-frame answer, accounting tail included.
//!   Every delta names its base frame (`base_seq`), so a desynced or
//!   corrupted client recovers by re-issuing the query in full mode —
//!   the *resync protocol*: deltas are an optimization, never the only
//!   source of truth.
//! * **Coarse-to-fine chunks** ([`MeshChunk`]) for cold VI/VD answers.
//!   The server orders vertices coarse-first (descending PM error) and
//!   splits them into geometrically growing chunks; each face travels
//!   in the chunk of its *finest* corner, so every chunk prefix is a
//!   closed partial mesh a client can render immediately — that is the
//!   invariant [`ChunkAssembler`] verifies, and what makes
//!   time-to-first-triangle a measurable quantity instead of
//!   response-complete time.
//!
//! Both codecs reuse the v3 wire primitives (ascending-id varint
//! deltas, shared XOR-delta `f64` chain, zig-zag face anchors) and both
//! reconstruct the exact canonical form, so the remote≡local equality
//! gates extend to streamed responses unchanged.

use crate::mesh::{
    decode_faces, decode_vertices, encode_faces, encode_vertices, MeshResult, ResultTail,
    WireVertex,
};
use crate::wire::{Reader, WireError, WireResult, Writer};

/// How a session's `FrameQuery` answers travel.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum StreamMode {
    /// Monolithic `Mesh` response every frame (the legacy transport).
    #[default]
    Full,
    /// Always a [`FrameDelta`] against the previous frame (the first
    /// frame, and any frame after an error, is a full reset).
    Delta,
    /// Per-frame size cutover: the server encodes both the delta and a
    /// full reset and ships whichever is smaller (big camera jumps make
    /// the delta degenerate toward a full rewrite — then the reset is
    /// cheaper *and* self-contained).
    Auto,
}

impl StreamMode {
    pub fn code(self) -> u8 {
        match self {
            StreamMode::Full => 0,
            StreamMode::Delta => 1,
            StreamMode::Auto => 2,
        }
    }

    pub fn from_code(c: u8) -> WireResult<StreamMode> {
        match c {
            0 => Ok(StreamMode::Full),
            1 => Ok(StreamMode::Delta),
            2 => Ok(StreamMode::Auto),
            other => Err(WireError::Malformed(format!("stream mode byte {other}"))),
        }
    }

    /// Parse a CLI-style mode name.
    pub fn parse(s: &str) -> Option<StreamMode> {
        match s {
            "full" => Some(StreamMode::Full),
            "delta" => Some(StreamMode::Delta),
            "auto" => Some(StreamMode::Auto),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            StreamMode::Full => "full",
            StreamMode::Delta => "delta",
            StreamMode::Auto => "auto",
        }
    }
}

/// One frame of a delta-streamed navigation session.
///
/// A *full reset* (`is_delta == false`) carries the complete canonical
/// mesh in `added_vertices`/`added_faces` with empty removal lists; a
/// *delta* patches the client's mirror of frame `base_seq`. Both carry
/// the full accounting tail, so a reconstructed result is byte-identical
/// to the monolithic answer — fetch counters included.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FrameDelta {
    /// Server-side frame counter for this session (first frame = 1).
    pub seq: u64,
    /// The frame this delta patches (ignored for full resets).
    pub base_seq: u64,
    /// False: full reset. True: patch against `base_seq`.
    pub is_delta: bool,
    /// Vertex ids leaving the mesh (sorted ascending).
    pub removed_vertices: Vec<u32>,
    /// Vertices entering the mesh (sorted ascending by id). An id that
    /// moved appears in both lists: removed, then re-added.
    pub added_vertices: Vec<WireVertex>,
    /// Canonical faces leaving the mesh (sorted).
    pub removed_faces: Vec<[u32; 3]>,
    /// Canonical faces entering the mesh (sorted).
    pub added_faces: Vec<[u32; 3]>,
    /// Accounting scalars of the frame's full answer.
    pub tail: ResultTail,
}

fn encode_id_set(w: &mut Writer, ids: &[u32]) {
    w.varint(ids.len() as u64);
    let mut prev = 0u32;
    for (i, &id) in ids.iter().enumerate() {
        let delta = if i == 0 { id } else { id - prev };
        w.varint(u64::from(delta));
        prev = id;
    }
}

fn decode_id_set(r: &mut Reader) -> WireResult<Vec<u32>> {
    let n = r.varint()? as usize;
    if n > r.remaining() {
        return Err(WireError::Malformed(format!(
            "id count {n} exceeds payload"
        )));
    }
    let mut ids = Vec::with_capacity(n);
    let mut prev = 0u64;
    for i in 0..n {
        let delta = r.varint()?;
        if i > 0 && delta == 0 {
            return Err(WireError::Malformed("removed ids not ascending".into()));
        }
        let id = if i == 0 { delta } else { prev + delta };
        let id32 = u32::try_from(id)
            .map_err(|_| WireError::Malformed(format!("removed id {id} exceeds u32")))?;
        prev = id;
        ids.push(id32);
    }
    Ok(ids)
}

impl FrameDelta {
    /// A full-reset frame carrying the complete canonical mesh.
    pub fn full_reset(
        seq: u64,
        vertices: Vec<WireVertex>,
        faces: Vec<[u32; 3]>,
        tail: ResultTail,
    ) -> FrameDelta {
        FrameDelta {
            seq,
            base_seq: 0,
            is_delta: false,
            removed_vertices: Vec::new(),
            added_vertices: vertices,
            removed_faces: Vec::new(),
            added_faces: faces,
            tail,
        }
    }

    pub fn encode(&self, w: &mut Writer) {
        w.bool(self.is_delta);
        w.varint(self.seq);
        if self.is_delta {
            w.varint(self.base_seq);
        }
        encode_id_set(w, &self.removed_vertices);
        encode_vertices(w, &self.added_vertices);
        encode_faces(w, &self.removed_faces);
        encode_faces(w, &self.added_faces);
        self.tail.encode(w);
    }

    /// The bytes [`Self::encode`] writes for
    /// [`Self::full_reset`]`(seq, vertices, faces, tail)`, from borrowed
    /// parts: the size cutover measures the full form of a frame without
    /// owning a copy of it.
    pub fn encode_full_reset(
        w: &mut Writer,
        seq: u64,
        vertices: &[WireVertex],
        faces: &[[u32; 3]],
        tail: &ResultTail,
    ) {
        w.bool(false);
        w.varint(seq);
        encode_id_set(w, &[]);
        encode_vertices(w, vertices);
        encode_faces(w, &[]);
        encode_faces(w, faces);
        tail.encode(w);
    }

    pub fn decode(r: &mut Reader) -> WireResult<FrameDelta> {
        let is_delta = r.bool()?;
        let seq = r.varint()?;
        let base_seq = if is_delta { r.varint()? } else { 0 };
        let removed_vertices = decode_id_set(r)?;
        let added_vertices = decode_vertices(r)?;
        let removed_faces = decode_faces(r)?;
        let added_faces = decode_faces(r)?;
        let tail = ResultTail::decode(r)?;
        if !is_delta && (!removed_vertices.is_empty() || !removed_faces.is_empty()) {
            return Err(WireError::Malformed(
                "full reset carries removal lists".into(),
            ));
        }
        Ok(FrameDelta {
            seq,
            base_seq,
            is_delta,
            removed_vertices,
            added_vertices,
            removed_faces,
            added_faces,
            tail,
        })
    }
}

fn same_bits(a: &WireVertex, b: &WireVertex) -> bool {
    a.x.to_bits() == b.x.to_bits()
        && a.y.to_bits() == b.y.to_bits()
        && a.z.to_bits() == b.z.to_bits()
}

/// Patch components produced by [`diff_frames`]: removed vertex ids,
/// spliced (added/updated) vertices, removed faces, added faces.
pub type FrameDiff = (Vec<u32>, Vec<WireVertex>, Vec<[u32; 3]>, Vec<[u32; 3]>);

/// Diff two canonical meshes (both vertex lists sorted ascending by id,
/// both face lists sorted) into the patch that turns `prev` into `new`.
/// A vertex whose id persists but whose position bits changed is emitted
/// as a removal plus an addition.
pub fn diff_frames(
    prev_vertices: &[WireVertex],
    prev_faces: &[[u32; 3]],
    new_vertices: &[WireVertex],
    new_faces: &[[u32; 3]],
) -> FrameDiff {
    let mut removed_vertices = Vec::new();
    let mut added_vertices = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < prev_vertices.len() && j < new_vertices.len() {
        let (a, b) = (&prev_vertices[i], &new_vertices[j]);
        match a.id.cmp(&b.id) {
            std::cmp::Ordering::Less => {
                removed_vertices.push(a.id);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                added_vertices.push(*b);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                if !same_bits(a, b) {
                    removed_vertices.push(a.id);
                    added_vertices.push(*b);
                }
                i += 1;
                j += 1;
            }
        }
    }
    removed_vertices.extend(prev_vertices[i..].iter().map(|v| v.id));
    added_vertices.extend_from_slice(&new_vertices[j..]);

    let mut removed_faces = Vec::new();
    let mut added_faces = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < prev_faces.len() && j < new_faces.len() {
        match prev_faces[i].cmp(&new_faces[j]) {
            std::cmp::Ordering::Less => {
                removed_faces.push(prev_faces[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                added_faces.push(new_faces[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
        }
    }
    removed_faces.extend_from_slice(&prev_faces[i..]);
    added_faces.extend_from_slice(&new_faces[j..]);

    (removed_vertices, added_vertices, removed_faces, added_faces)
}

/// The client's mirror of the server session's front: the canonical mesh
/// of the last applied frame. Applying a [`FrameDelta`] reconstructs the
/// frame's [`MeshResult`] exactly as a full-frame response would have
/// carried it.
#[derive(Clone, Debug, Default)]
pub struct FrontMirror {
    vertices: Vec<WireVertex>,
    faces: Vec<[u32; 3]>,
    seq: u64,
    primed: bool,
}

impl FrontMirror {
    pub fn new() -> FrontMirror {
        FrontMirror::default()
    }

    /// Sequence number of the last applied frame (0 before the first).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Whether a base frame has been applied (deltas are applicable).
    pub fn primed(&self) -> bool {
        self.primed
    }

    /// Drop all mirrored state (the resync path: the next applicable
    /// frame must be a full reset or a monolithic response).
    pub fn reset(&mut self) {
        self.vertices.clear();
        self.faces.clear();
        self.seq = 0;
        self.primed = false;
    }

    /// Prime the mirror from a monolithic full-frame response (the
    /// resync path re-issues the query in full mode and re-bases here).
    pub fn prime_full(&mut self, seq: u64, result: &MeshResult) {
        self.vertices.clear();
        self.vertices.extend_from_slice(&result.vertices);
        self.faces.clear();
        self.faces.extend_from_slice(&result.faces);
        self.seq = seq;
        self.primed = true;
    }

    /// Apply one frame and return the reconstructed full result. On
    /// `Err` the mirror is reset — the caller must resync with a
    /// full-mode query before applying further deltas.
    pub fn apply(&mut self, d: &FrameDelta) -> WireResult<MeshResult> {
        match self.try_apply(d) {
            Ok(res) => Ok(res),
            Err(e) => {
                self.reset();
                Err(e)
            }
        }
    }

    fn try_apply(&mut self, d: &FrameDelta) -> WireResult<MeshResult> {
        if !d.is_delta {
            self.vertices.clear();
            self.vertices.extend_from_slice(&d.added_vertices);
            self.faces.clear();
            self.faces.extend_from_slice(&d.added_faces);
            self.seq = d.seq;
            self.primed = true;
            return Ok(MeshResult::from_parts(
                self.vertices.clone(),
                self.faces.clone(),
                d.tail.clone(),
            ));
        }
        if !self.primed {
            return Err(WireError::Protocol(
                "delta frame without a base frame".into(),
            ));
        }
        if d.base_seq != self.seq {
            return Err(WireError::Protocol(format!(
                "delta base {} does not match mirror frame {}",
                d.base_seq, self.seq
            )));
        }

        // Vertices: drop removals, then merge the (sorted) additions.
        let survivors = merge_remove_ids(&self.vertices, &d.removed_vertices)?;
        self.vertices = merge_add_vertices(survivors, &d.added_vertices)?;
        // Faces: same dance on the lexicographic order.
        let survivors = merge_remove_faces(&self.faces, &d.removed_faces)?;
        self.faces = merge_add_faces(survivors, &d.added_faces)?;

        self.seq = d.seq;
        Ok(MeshResult::from_parts(
            self.vertices.clone(),
            self.faces.clone(),
            d.tail.clone(),
        ))
    }
}

fn merge_remove_ids(vertices: &[WireVertex], removed: &[u32]) -> WireResult<Vec<WireVertex>> {
    let mut out = Vec::with_capacity(vertices.len().saturating_sub(removed.len()));
    let mut k = 0;
    for v in vertices {
        if k < removed.len() && removed[k] == v.id {
            k += 1;
        } else {
            out.push(*v);
        }
    }
    if k < removed.len() {
        return Err(WireError::Protocol(format!(
            "delta removes vertex {} the mirror does not hold",
            removed[k]
        )));
    }
    Ok(out)
}

fn merge_add_vertices(old: Vec<WireVertex>, added: &[WireVertex]) -> WireResult<Vec<WireVertex>> {
    let mut out = Vec::with_capacity(old.len() + added.len());
    let (mut i, mut j) = (0, 0);
    while i < old.len() && j < added.len() {
        match old[i].id.cmp(&added[j].id) {
            std::cmp::Ordering::Less => {
                out.push(old[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(added[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                return Err(WireError::Protocol(format!(
                    "delta adds vertex {} the mirror already holds",
                    added[j].id
                )));
            }
        }
    }
    out.extend_from_slice(&old[i..]);
    out.extend_from_slice(&added[j..]);
    Ok(out)
}

fn merge_remove_faces(faces: &[[u32; 3]], removed: &[[u32; 3]]) -> WireResult<Vec<[u32; 3]>> {
    let mut out = Vec::with_capacity(faces.len().saturating_sub(removed.len()));
    let mut k = 0;
    for f in faces {
        if k < removed.len() && removed[k] == *f {
            k += 1;
        } else {
            out.push(*f);
        }
    }
    if k < removed.len() {
        return Err(WireError::Protocol(format!(
            "delta removes face {:?} the mirror does not hold",
            removed[k]
        )));
    }
    Ok(out)
}

fn merge_add_faces(old: Vec<[u32; 3]>, added: &[[u32; 3]]) -> WireResult<Vec<[u32; 3]>> {
    let mut out = Vec::with_capacity(old.len() + added.len());
    let (mut i, mut j) = (0, 0);
    while i < old.len() && j < added.len() {
        match old[i].cmp(&added[j]) {
            std::cmp::Ordering::Less => {
                out.push(old[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(added[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                return Err(WireError::Protocol(format!(
                    "delta adds face {:?} the mirror already holds",
                    added[j]
                )));
            }
        }
    }
    out.extend_from_slice(&old[i..]);
    out.extend_from_slice(&added[j..]);
    Ok(out)
}

/// Target vertex count of the first coarse chunk — small enough that the
/// first frame on the wire already carries renderable triangles.
pub const FIRST_CHUNK_VERTICES: usize = 256;

/// One coarse-to-fine slice of a chunked cold response. Chunks arrive
/// in `seq` order; the last one carries the accounting tail.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MeshChunk {
    /// 0-based position in the chunk stream.
    pub seq: u32,
    /// True on the final chunk (which carries the tail).
    pub last: bool,
    /// This slice's vertices, sorted ascending by id.
    pub vertices: Vec<WireVertex>,
    /// This slice's canonical faces (every corner lives in this chunk or
    /// an earlier one — the closed-prefix invariant).
    pub faces: Vec<[u32; 3]>,
    /// Accounting scalars; meaningful only when `last`.
    pub tail: ResultTail,
}

impl MeshChunk {
    pub fn encode(&self, w: &mut Writer) {
        w.varint(u64::from(self.seq));
        w.bool(self.last);
        encode_vertices(w, &self.vertices);
        encode_faces(w, &self.faces);
        if self.last {
            self.tail.encode(w);
        }
    }

    pub fn decode(r: &mut Reader) -> WireResult<MeshChunk> {
        let seq = r.varint_u32("chunk seq")?;
        let last = r.bool()?;
        let vertices = decode_vertices(r)?;
        let faces = decode_faces(r)?;
        let tail = if last {
            ResultTail::decode(r)?
        } else {
            ResultTail::default()
        };
        Ok(MeshChunk {
            seq,
            last,
            vertices,
            faces,
            tail,
        })
    }
}

/// Split a canonical mesh into coarse-to-fine chunks.
///
/// `coarseness[i]` orders vertex `vertices[i]` (higher = coarser; the
/// server feeds PM `e_lo` here, which is 0 for leaves). Chunk sizes grow
/// geometrically from `first_chunk` vertices, so time-to-first-triangle
/// is bounded by the smallest chunk while the chunk count stays
/// logarithmic. Every face is assigned to the chunk of its *finest*
/// corner, which makes each chunk prefix a closed partial mesh.
pub fn split_coarse_to_fine(
    vertices: &[WireVertex],
    coarseness: &[f64],
    faces: &[[u32; 3]],
    tail: ResultTail,
    first_chunk: usize,
) -> Vec<MeshChunk> {
    assert_eq!(vertices.len(), coarseness.len());
    let first_chunk = first_chunk.max(1);
    if vertices.len() <= first_chunk {
        return vec![MeshChunk {
            seq: 0,
            last: true,
            vertices: vertices.to_vec(),
            faces: faces.to_vec(),
            tail,
        }];
    }

    // Refinement order: coarse first, ties by id for determinism.
    let mut order: Vec<u32> = (0..vertices.len() as u32).collect();
    order.sort_by(|&a, &b| {
        coarseness[b as usize]
            .total_cmp(&coarseness[a as usize])
            .then(vertices[a as usize].id.cmp(&vertices[b as usize].id))
    });

    // Geometric chunk boundaries over the refinement order.
    let n = vertices.len();
    let mut bounds = Vec::new();
    let mut end = first_chunk;
    let mut size = first_chunk;
    while end < n {
        bounds.push(end);
        size *= 2;
        end += size;
    }
    bounds.push(n);
    let n_chunks = bounds.len();
    let chunk_of_rank = |rank: usize| bounds.partition_point(|&b| b <= rank);

    // Chunk index of every vertex (by position in the canonical list).
    let mut chunk_idx = vec![0u32; n];
    for (rank, &vi) in order.iter().enumerate() {
        chunk_idx[vi as usize] = chunk_of_rank(rank) as u32;
    }

    let mut chunks: Vec<MeshChunk> = (0..n_chunks)
        .map(|s| MeshChunk {
            seq: s as u32,
            last: s == n_chunks - 1,
            ..MeshChunk::default()
        })
        .collect();
    // Distributing the canonical (id-ascending) vertex list in order
    // keeps every chunk's vertices id-ascending, and distributing the
    // canonical (sorted) face list in order keeps every chunk's faces
    // sorted — no per-chunk re-sorts. This runs on the worker between
    // query completion and the first byte on the wire, so it is on the
    // time-to-first-triangle critical path.
    let mut chunk_of_id: fxhash::FxHashMap<u32, u32> = fxhash::FxHashMap::default();
    chunk_of_id.reserve(n);
    for (vi, v) in vertices.iter().enumerate() {
        chunks[chunk_idx[vi] as usize].vertices.push(*v);
        chunk_of_id.insert(v.id, chunk_idx[vi]);
    }
    for f in faces {
        let mut dest = 0u32;
        for &corner in f {
            dest = dest.max(chunk_of_id.get(&corner).copied().unwrap_or(0));
        }
        chunks[dest as usize].faces.push(*f);
    }
    chunks[n_chunks - 1].tail = tail;
    chunks
}

/// Reassembles a chunk stream into the monolithic result, verifying the
/// stream invariants as it goes: in-order sequence numbers, no duplicate
/// vertex ids, and the closed-prefix property (every face's corners have
/// already arrived — the reason a prefix renders as a valid mesh).
#[derive(Debug, Default)]
pub struct ChunkAssembler {
    vertices: Vec<WireVertex>,
    faces: Vec<[u32; 3]>,
    known: std::collections::HashSet<u32>,
    next_seq: u32,
    done: bool,
}

impl ChunkAssembler {
    pub fn new() -> ChunkAssembler {
        ChunkAssembler::default()
    }

    /// Triangles received so far (the TTFT probe: > 0 means a client
    /// could already render).
    pub fn triangles_so_far(&self) -> usize {
        self.faces.len()
    }

    /// Chunks received so far.
    pub fn chunks_so_far(&self) -> u32 {
        self.next_seq
    }

    /// Feed the next chunk; returns the complete result on the last one.
    pub fn push(&mut self, c: MeshChunk) -> WireResult<Option<MeshResult>> {
        if self.done {
            return Err(WireError::Protocol("chunk after the last chunk".into()));
        }
        if c.seq != self.next_seq {
            return Err(WireError::Protocol(format!(
                "chunk seq {} out of order (expected {})",
                c.seq, self.next_seq
            )));
        }
        for v in &c.vertices {
            if !self.known.insert(v.id) {
                return Err(WireError::Protocol(format!(
                    "vertex {} delivered twice across chunks",
                    v.id
                )));
            }
        }
        for f in &c.faces {
            if let Some(&missing) = f.iter().find(|id| !self.known.contains(id)) {
                return Err(WireError::Protocol(format!(
                    "face {f:?} references vertex {missing} not yet delivered"
                )));
            }
        }
        self.vertices.extend_from_slice(&c.vertices);
        self.faces.extend_from_slice(&c.faces);
        self.next_seq += 1;
        if !c.last {
            return Ok(None);
        }
        self.done = true;
        self.vertices.sort_by_key(|v| v.id);
        self.faces.sort_unstable();
        Ok(Some(MeshResult::from_parts(
            std::mem::take(&mut self.vertices),
            std::mem::take(&mut self.faces),
            c.tail,
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vx(id: u32, x: f64) -> WireVertex {
        WireVertex {
            id,
            x,
            y: x * 2.0,
            z: -x,
        }
    }

    fn tail(n: u64) -> ResultTail {
        ResultTail {
            fetched_records: n,
            disk_accesses: n + 1,
            cubes: 2,
            ..ResultTail::default()
        }
    }

    fn roundtrip(d: &FrameDelta) -> FrameDelta {
        let mut w = Writer::new();
        d.encode(&mut w);
        let bytes = w.into_inner();
        let mut r = Reader::new(&bytes);
        let back = FrameDelta::decode(&mut r).unwrap();
        r.finish().unwrap();
        back
    }

    #[test]
    fn delta_frame_roundtrips() {
        let d = FrameDelta {
            seq: 7,
            base_seq: 6,
            is_delta: true,
            removed_vertices: vec![2, 9, 40],
            added_vertices: vec![vx(3, 1.5), vx(41, -2.0)],
            removed_faces: vec![[2, 9, 40]],
            added_faces: vec![[3, 41, 50], [3, 50, 60]],
            tail: tail(10),
        };
        assert_eq!(roundtrip(&d), d);
        let full =
            FrameDelta::full_reset(1, vec![vx(1, 0.0), vx(5, 3.0)], vec![[1, 5, 6]], tail(4));
        assert_eq!(roundtrip(&full), full);
    }

    #[test]
    fn borrowed_full_reset_encodes_the_owned_form() {
        let v = vec![vx(1, 0.0), vx(2, 1.25), vx(7, 4.0)];
        let f = vec![[1, 2, 7]];
        let mut owned = Writer::new();
        FrameDelta::full_reset(9, v.clone(), f.clone(), tail(3)).encode(&mut owned);
        let mut borrowed = Writer::new();
        FrameDelta::encode_full_reset(&mut borrowed, 9, &v, &f, &tail(3));
        assert_eq!(borrowed.into_inner(), owned.into_inner());
    }

    #[test]
    fn full_reset_with_removals_is_rejected() {
        let mut d = FrameDelta::full_reset(1, vec![], vec![], tail(0));
        d.removed_vertices = vec![3];
        let mut w = Writer::new();
        d.encode(&mut w);
        let bytes = w.into_inner();
        assert!(FrameDelta::decode(&mut Reader::new(&bytes)).is_err());
    }

    #[test]
    fn diff_then_apply_reconstructs_the_new_frame() {
        let prev_v = vec![vx(1, 0.0), vx(2, 1.0), vx(5, 2.0), vx(9, 3.0)];
        let prev_f = vec![[1, 2, 5], [2, 9, 5]];
        // 2 moves, 5 leaves, 7 appears.
        let new_v = vec![vx(1, 0.0), vx(2, 1.25), vx(7, 4.0), vx(9, 3.0)];
        let new_f = vec![[1, 2, 7], [2, 9, 7]];
        let (rv, av, rf, af) = diff_frames(&prev_v, &prev_f, &new_v, &new_f);
        assert_eq!(rv, vec![2, 5]);
        assert_eq!(av, vec![vx(2, 1.25), vx(7, 4.0)]);
        assert_eq!(rf, prev_f);
        assert_eq!(af, new_f);

        let mut mirror = FrontMirror::new();
        let base = FrameDelta::full_reset(1, prev_v, prev_f, tail(1));
        mirror.apply(&base).unwrap();
        let d = FrameDelta {
            seq: 2,
            base_seq: 1,
            is_delta: true,
            removed_vertices: rv,
            added_vertices: av,
            removed_faces: rf,
            added_faces: af,
            tail: tail(2),
        };
        let res = mirror.apply(&d).unwrap();
        assert_eq!(res.vertices, new_v);
        assert_eq!(res.faces, new_f);
        assert_eq!(res.fetched_records, 2);
        assert_eq!(mirror.seq(), 2);
    }

    #[test]
    fn stale_base_resets_the_mirror() {
        let mut mirror = FrontMirror::new();
        mirror
            .apply(&FrameDelta::full_reset(
                3,
                vec![vx(1, 0.0)],
                vec![],
                tail(0),
            ))
            .unwrap();
        let stale = FrameDelta {
            seq: 9,
            base_seq: 8, // mirror is at 3
            is_delta: true,
            ..FrameDelta::default()
        };
        assert!(mirror.apply(&stale).is_err());
        assert!(!mirror.primed(), "failed apply must leave a reset mirror");
    }

    #[test]
    fn removing_an_absent_vertex_is_an_error() {
        let mut mirror = FrontMirror::new();
        mirror
            .apply(&FrameDelta::full_reset(
                1,
                vec![vx(1, 0.0)],
                vec![],
                tail(0),
            ))
            .unwrap();
        let bad = FrameDelta {
            seq: 2,
            base_seq: 1,
            is_delta: true,
            removed_vertices: vec![99],
            ..FrameDelta::default()
        };
        assert!(mirror.apply(&bad).is_err());
    }

    #[test]
    fn chunk_split_preserves_the_mesh_and_closes_prefixes() {
        // 40 vertices, coarseness descending with id; simple face strip.
        let vertices: Vec<WireVertex> = (0..40).map(|i| vx(i * 3, f64::from(i))).collect();
        let coarseness: Vec<f64> = (0..40).map(|i| f64::from(40 - i)).collect();
        let mut faces: Vec<[u32; 3]> = (0..38)
            .map(|i| crate::mesh::canonical_face([i * 3, (i + 1) * 3, (i + 2) * 3]))
            .collect();
        faces.sort_unstable();

        let chunks = split_coarse_to_fine(&vertices, &coarseness, &faces, tail(5), 8);
        assert!(chunks.len() > 1, "40 vertices at first=8 must chunk");
        assert!(chunks[0].vertices.len() <= 8);
        assert!(chunks.last().unwrap().last);

        let mut asm = ChunkAssembler::new();
        let mut result = None;
        for c in chunks {
            result = asm.push(c).unwrap();
        }
        let res = result.expect("last chunk completes");
        assert_eq!(res.vertices, vertices);
        assert_eq!(res.faces, faces);
        assert_eq!(res.fetched_records, 5);
    }

    #[test]
    fn out_of_order_chunks_are_rejected() {
        let mut asm = ChunkAssembler::new();
        let c = MeshChunk {
            seq: 1,
            ..MeshChunk::default()
        };
        assert!(asm.push(c).is_err());
    }

    #[test]
    fn face_ahead_of_its_vertices_is_rejected() {
        let mut asm = ChunkAssembler::new();
        let c = MeshChunk {
            seq: 0,
            last: false,
            vertices: vec![vx(1, 0.0), vx(2, 1.0)],
            faces: vec![[1, 2, 3]], // 3 not delivered yet
            tail: ResultTail::default(),
        };
        assert!(asm.push(c).is_err());
    }

    #[test]
    fn truncated_delta_payloads_error_cleanly() {
        let d = FrameDelta {
            seq: 4,
            base_seq: 3,
            is_delta: true,
            removed_vertices: vec![1, 8],
            added_vertices: vec![vx(2, 0.5)],
            removed_faces: vec![[1, 8, 9]],
            added_faces: vec![[2, 9, 11]],
            tail: tail(3),
        };
        let mut w = Writer::new();
        d.encode(&mut w);
        let bytes = w.into_inner();
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            let out = FrameDelta::decode(&mut r).and_then(|_| r.finish());
            assert!(out.is_err(), "prefix of {cut} bytes must not decode");
        }
    }
}
