//! Canonical wire form of a query result mesh.
//!
//! Both sides of the protocol — and the remote≡local equality tests —
//! need *one* deterministic representation of "the mesh this query
//! produced", independent of iteration order inside [`FrontMesh`]. The
//! canonical form is:
//!
//! * vertices sorted by PM node id, each carrying its id and position,
//! * triangles rotated so the smallest id comes first (winding
//!   preserved), then sorted lexicographically.
//!
//! On the wire, vertex ids are strictly ascending so they delta-encode
//! to small varints; coordinates ride the payload's shared XOR-delta
//! `f64` chain; face ids are zig-zag deltas against the previous face's
//! anchor. The decoder re-validates every structural invariant (ids
//! ascending, face indices in `u32`), so a malformed peer cannot smuggle
//! an inconsistent mesh past the frame CRC.

use dm_core::{FetchCounters, IntegrityReport};
use dm_mtm::{FrontMesh, PmNode};

use crate::wire::{Reader, WireError, WireResult, Writer};

/// One mesh vertex: PM node id plus position.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WireVertex {
    pub id: u32,
    pub x: f64,
    pub y: f64,
    pub z: f64,
}

/// The non-geometry accounting scalars of a query result — shared by
/// the monolithic [`MeshResult`] codec and the streaming codecs (delta
/// frames and coarse-to-fine chunks), so every transport reconstructs
/// the *same* result, counters included.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ResultTail {
    /// Records fetched by the range query (the paper's `points`).
    pub fetched_records: u64,
    /// Logical disk accesses attributed to this request.
    pub disk_accesses: u64,
    /// Query cubes executed (1 for VI / single-base, N for multi-base).
    pub cubes: u32,
    /// Fetch-path counters for this request.
    pub counters: FetchCounters,
    /// Integrity report (non-clean under fault injection / degraded mode).
    pub report: IntegrityReport,
}

impl ResultTail {
    pub fn encode(&self, w: &mut Writer) {
        w.varint(self.fetched_records);
        w.varint(self.disk_accesses);
        w.varint(u64::from(self.cubes));
        w.varint(self.counters.pages_scanned);
        w.varint(self.counters.records_examined);
        w.varint(self.counters.records_decoded);
        w.varint(self.report.pages_lost);
        w.varint(self.report.points_lost);
        w.varint(self.report.retries);
        w.varint(self.report.errors.len() as u64);
        for e in &self.report.errors {
            w.string(e);
        }
    }

    pub fn decode(r: &mut Reader) -> WireResult<ResultTail> {
        let fetched_records = r.varint()?;
        let disk_accesses = r.varint()?;
        let cubes = r.varint_u32("cube count")?;
        let counters = FetchCounters {
            pages_scanned: r.varint()?,
            records_examined: r.varint()?,
            records_decoded: r.varint()?,
        };
        let mut report = IntegrityReport {
            pages_lost: r.varint()?,
            points_lost: r.varint()?,
            retries: r.varint()?,
            errors: Vec::new(),
        };
        let n_errors = r.varint()? as usize;
        if n_errors > r.remaining() {
            return Err(WireError::Malformed(format!(
                "error count {n_errors} exceeds payload"
            )));
        }
        report.errors.reserve(n_errors);
        for _ in 0..n_errors {
            report.errors.push(r.string()?);
        }
        Ok(ResultTail {
            fetched_records,
            disk_accesses,
            cubes,
            counters,
            report,
        })
    }
}

/// A query result as it travels over the wire: canonical mesh plus the
/// per-request accounting the paper's measurement protocol reports.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MeshResult {
    /// Vertices sorted by ascending PM node id.
    pub vertices: Vec<WireVertex>,
    /// Canonicalized triangles (min id first, lexicographically sorted).
    pub faces: Vec<[u32; 3]>,
    /// Records fetched by the range query (the paper's `points`).
    pub fetched_records: u64,
    /// Logical disk accesses attributed to this request.
    pub disk_accesses: u64,
    /// Query cubes executed (1 for VI / single-base, N for multi-base).
    pub cubes: u32,
    /// Fetch-path counters for this request.
    pub counters: FetchCounters,
    /// Integrity report (non-clean under fault injection / degraded mode).
    pub report: IntegrityReport,
}

/// Extract the canonical vertex + face lists from a front mesh.
pub fn canonical_mesh(front: &FrontMesh) -> (Vec<WireVertex>, Vec<[u32; 3]>) {
    let mut vertices = Vec::new();
    let mut faces = Vec::new();
    canonical_mesh_into(front, &mut vertices, &mut faces);
    (vertices, faces)
}

/// [`canonical_mesh`] into caller-owned buffers: clears and refills them,
/// keeping their allocations, so per-frame encode paths stop reallocating
/// the vertex/face vecs on every frame.
pub fn canonical_mesh_into(
    front: &FrontMesh,
    vertices: &mut Vec<WireVertex>,
    faces: &mut Vec<[u32; 3]>,
) {
    vertices.clear();
    vertices.extend(front.iter_nodes().map(|(id, n)| WireVertex {
        id,
        x: n.pos.x,
        y: n.pos.y,
        z: n.pos.z,
    }));
    // Ids are unique, so the unstable sort gives the stable one's order.
    vertices.sort_unstable_by_key(|v| v.id);

    faces.clear();
    faces.extend(front.triangles().map(canonical_face));
    faces.sort_unstable();
}

/// Canonical vertex + face lists straight from a flat VI answer
/// ([`dm_core::ViFlatResult`]: nodes ascending by id, faces strictly
/// CCW). Bit-identical to `canonical_mesh(&FrontMesh::from_parts(..))`
/// over the same parts — the front build preserves CCW faces unchanged,
/// and its canonical vertex order is the id order the nodes already have.
/// A VI cut's faces arrive in canonical order already
/// (`dm_core::query::uniform_cut`), so the sort only checks its input.
pub fn canonical_flat(nodes: &[PmNode], faces: &[[u32; 3]]) -> (Vec<WireVertex>, Vec<[u32; 3]>) {
    let vertices: Vec<WireVertex> = nodes
        .iter()
        .map(|n| WireVertex {
            id: n.id,
            x: n.pos.x,
            y: n.pos.y,
            z: n.pos.z,
        })
        .collect();
    let mut faces: Vec<[u32; 3]> = faces.iter().copied().map(canonical_face).collect();
    faces.sort_unstable();
    (vertices, faces)
}

/// Rotate a triangle so its smallest vertex id leads; the cyclic order
/// (winding) is unchanged.
pub fn canonical_face([a, b, c]: [u32; 3]) -> [u32; 3] {
    if a <= b && a <= c {
        [a, b, c]
    } else if b <= c {
        [b, c, a]
    } else {
        [c, a, b]
    }
}

/// Encode a sorted vertex list: ids as ascending varint deltas,
/// coordinates on the writer's shared XOR-delta `f64` chain.
pub(crate) fn encode_vertices(w: &mut Writer, vertices: &[WireVertex]) {
    w.varint(vertices.len() as u64);
    let mut prev_id = 0u32;
    for (i, v) in vertices.iter().enumerate() {
        let delta = if i == 0 { v.id } else { v.id - prev_id };
        w.varint(u64::from(delta));
        prev_id = v.id;
        w.f64(v.x);
        w.f64(v.y);
        w.f64(v.z);
    }
}

/// Decode a vertex list, re-validating the strictly-ascending invariant.
pub(crate) fn decode_vertices(r: &mut Reader) -> WireResult<Vec<WireVertex>> {
    let n_vertices = r.varint()? as usize;
    // Every vertex costs at least 4 payload bytes (id varint + three
    // f64 headers); reject absurd counts before allocating.
    if n_vertices > r.remaining() {
        return Err(WireError::Malformed(format!(
            "vertex count {n_vertices} exceeds payload"
        )));
    }
    let mut vertices = Vec::with_capacity(n_vertices);
    let mut prev_id = 0u64;
    for i in 0..n_vertices {
        let delta = r.varint()?;
        if i > 0 && delta == 0 {
            return Err(WireError::Malformed("vertex ids not ascending".into()));
        }
        let id = if i == 0 { delta } else { prev_id + delta };
        let id32 = u32::try_from(id)
            .map_err(|_| WireError::Malformed(format!("vertex id {id} exceeds u32")))?;
        prev_id = id;
        vertices.push(WireVertex {
            id: id32,
            x: r.f64()?,
            y: r.f64()?,
            z: r.f64()?,
        });
    }
    Ok(vertices)
}

/// Encode a face list as zig-zag deltas against the previous face's
/// anchor.
pub(crate) fn encode_faces(w: &mut Writer, faces: &[[u32; 3]]) {
    w.varint(faces.len() as u64);
    let mut prev_a = 0i64;
    for &[a, b, c] in faces {
        let (a, b, c) = (i64::from(a), i64::from(b), i64::from(c));
        w.zigzag(a - prev_a);
        w.zigzag(b - a);
        w.zigzag(c - a);
        prev_a = a;
    }
}

/// Decode a face list, bounding every index to `u32`.
pub(crate) fn decode_faces(r: &mut Reader) -> WireResult<Vec<[u32; 3]>> {
    let n_faces = r.varint()? as usize;
    if n_faces > r.remaining() {
        return Err(WireError::Malformed(format!(
            "face count {n_faces} exceeds payload"
        )));
    }
    let as_u32 = |v: i64, what: &'static str| {
        u32::try_from(v).map_err(|_| WireError::Malformed(format!("{what} id {v} out of range")))
    };
    let mut faces = Vec::with_capacity(n_faces);
    let mut prev_a = 0i64;
    for _ in 0..n_faces {
        let a = prev_a
            .checked_add(r.zigzag()?)
            .ok_or_else(|| WireError::Malformed("face anchor overflow".into()))?;
        let b = a
            .checked_add(r.zigzag()?)
            .ok_or_else(|| WireError::Malformed("face id overflow".into()))?;
        let c = a
            .checked_add(r.zigzag()?)
            .ok_or_else(|| WireError::Malformed("face id overflow".into()))?;
        faces.push([as_u32(a, "face")?, as_u32(b, "face")?, as_u32(c, "face")?]);
        prev_a = a;
    }
    Ok(faces)
}

impl MeshResult {
    /// Assemble from canonical geometry plus the accounting tail.
    pub fn from_parts(vertices: Vec<WireVertex>, faces: Vec<[u32; 3]>, tail: ResultTail) -> Self {
        MeshResult {
            vertices,
            faces,
            fetched_records: tail.fetched_records,
            disk_accesses: tail.disk_accesses,
            cubes: tail.cubes,
            counters: tail.counters,
            report: tail.report,
        }
    }

    /// The accounting scalars, cloned out for a streaming codec.
    pub fn tail(&self) -> ResultTail {
        ResultTail {
            fetched_records: self.fetched_records,
            disk_accesses: self.disk_accesses,
            cubes: self.cubes,
            counters: self.counters,
            report: self.report.clone(),
        }
    }

    pub fn encode(&self, w: &mut Writer) {
        encode_vertices(w, &self.vertices);
        encode_faces(w, &self.faces);
        // Tail fields written in ResultTail's schema order, without
        // cloning the report the way `self.tail()` would.
        w.varint(self.fetched_records);
        w.varint(self.disk_accesses);
        w.varint(u64::from(self.cubes));
        w.varint(self.counters.pages_scanned);
        w.varint(self.counters.records_examined);
        w.varint(self.counters.records_decoded);
        w.varint(self.report.pages_lost);
        w.varint(self.report.points_lost);
        w.varint(self.report.retries);
        w.varint(self.report.errors.len() as u64);
        for e in &self.report.errors {
            w.string(e);
        }
    }

    pub fn decode(r: &mut Reader) -> WireResult<MeshResult> {
        let vertices = decode_vertices(r)?;
        let faces = decode_faces(r)?;
        let tail = ResultTail::decode(r)?;
        Ok(MeshResult::from_parts(vertices, faces, tail))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MeshResult {
        MeshResult {
            vertices: vec![
                WireVertex {
                    id: 3,
                    x: 0.5,
                    y: -1.25,
                    z: 10.0,
                },
                WireVertex {
                    id: 7,
                    x: 0.5000001,
                    y: -1.25,
                    z: f64::NAN,
                },
                WireVertex {
                    id: 1000,
                    x: f64::INFINITY,
                    y: 0.0,
                    z: -0.0,
                },
            ],
            faces: vec![[3, 7, 1000], [3, 1000, 7], [7, 1000, 3]],
            fetched_records: 42,
            disk_accesses: 9,
            cubes: 4,
            counters: FetchCounters {
                pages_scanned: 5,
                records_examined: 80,
                records_decoded: 42,
            },
            report: IntegrityReport {
                pages_lost: 1,
                points_lost: 12,
                retries: 3,
                errors: vec!["page 9: checksum".to_string()],
            },
        }
    }

    #[test]
    fn mesh_roundtrip_bit_exact() {
        let m = sample();
        let mut w = Writer::new();
        m.encode(&mut w);
        let bytes = w.into_inner();
        let mut r = Reader::new(&bytes);
        let back = MeshResult::decode(&mut r).unwrap();
        r.finish().unwrap();
        // NaN != NaN, so compare bit patterns.
        assert_eq!(back.vertices.len(), m.vertices.len());
        for (a, b) in back.vertices.iter().zip(&m.vertices) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.x.to_bits(), b.x.to_bits());
            assert_eq!(a.y.to_bits(), b.y.to_bits());
            assert_eq!(a.z.to_bits(), b.z.to_bits());
        }
        assert_eq!(back.faces, m.faces);
        assert_eq!(back.counters, m.counters);
        assert_eq!(back.report, m.report);
    }

    #[test]
    fn canonical_face_preserves_winding() {
        assert_eq!(canonical_face([1, 2, 3]), [1, 2, 3]);
        assert_eq!(canonical_face([2, 3, 1]), [1, 2, 3]);
        assert_eq!(canonical_face([3, 1, 2]), [1, 2, 3]);
        // Opposite winding stays opposite.
        assert_eq!(canonical_face([3, 2, 1]), [1, 3, 2]);
    }

    #[test]
    fn non_ascending_vertex_ids_are_rejected() {
        let m = MeshResult {
            vertices: vec![
                WireVertex {
                    id: 5,
                    x: 0.0,
                    y: 0.0,
                    z: 0.0,
                },
                WireVertex {
                    id: 5,
                    x: 0.0,
                    y: 0.0,
                    z: 0.0,
                },
            ],
            ..MeshResult::default()
        };
        let mut w = Writer::new();
        m.encode(&mut w);
        let bytes = w.into_inner();
        let mut r = Reader::new(&bytes);
        assert!(MeshResult::decode(&mut r).is_err());
    }
}
