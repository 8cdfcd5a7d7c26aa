//! Face extraction: rebuild the triangles of an approximation from its
//! points and their connection lists — the step that makes Direct Mesh
//! "direct" (no ancestor traversal).
//!
//! A terrain approximation is a planar triangulation in plan view, so the
//! faces are recoverable from the adjacency graph alone: sort each
//! vertex's neighbours counter-clockwise; a triangle exists where three
//! vertices are mutually consecutive. The *triple-consecutiveness* test
//! (the pair must be consecutive around all three corners) rejects
//! spurious faces at the ROI boundary where some neighbours were outside
//! the query region, and the sector-angle test rejects the outer face.

use std::collections::HashMap;
use std::hash::BuildHasher;

use dm_geom::tri::orient2d;
use dm_geom::Vec2;
use fxhash::FxHashMap;

/// Extract CCW triangles from an adjacency structure.
///
/// `pos` gives each vertex's plan position; `adj` lists each vertex's
/// neighbours (must be symmetric — `b ∈ adj[a] ⇔ a ∈ adj[b]`). Generic
/// over the map hashers so both std and `FxHashMap` callers qualify.
pub fn extract_faces<S1: BuildHasher, S2: BuildHasher>(
    pos: &HashMap<u32, Vec2, S1>,
    adj: &HashMap<u32, Vec<u32>, S2>,
) -> Vec<[u32; 3]> {
    // Densify over the *position* key set (`pos` may be a superset of
    // `adj`'s keys). Ids are sorted so dense-index comparisons agree
    // with id comparisons (the emission rule relies on this).
    let mut ids: Vec<u32> = pos.keys().copied().collect();
    ids.sort_unstable();
    let index_of: FxHashMap<u32, u32> = ids
        .iter()
        .enumerate()
        .map(|(i, &v)| (v, i as u32))
        .collect();
    let dense_pos: Vec<Vec2> = ids.iter().map(|v| pos[v]).collect();
    let mut dense = DenseAdjacency::with_capacity(ids.len());
    for &v in &ids {
        // Neighbours without a position are dropped (historically
        // `ring.retain(pos.contains_key)`); vertices without an adjacency
        // entry get an empty ring, which can anchor no triangle — exactly
        // the old successor-map misses.
        match adj.get(&v) {
            Some(neigh) => dense.push_vertex(neigh.iter().filter_map(|n| index_of.get(n).copied())),
            None => dense.push_vertex(std::iter::empty()),
        }
    }
    extract_faces_dense_owned(&dense_pos, dense)
        .into_iter()
        .map(|[a, b, c]| [ids[a as usize], ids[b as usize], ids[c as usize]])
        .collect()
}

/// Flat CSR adjacency over dense vertex indices `0..n` — the
/// allocation-free input form of [`extract_faces_dense`]. Build it by
/// pushing each vertex's (unsorted, pre-filtered) neighbour list in
/// dense-index order.
#[derive(Clone, Debug, Default)]
pub struct DenseAdjacency {
    starts: Vec<u32>,
    neighbors: Vec<u32>,
}

impl DenseAdjacency {
    pub fn with_capacity(vertices: usize) -> DenseAdjacency {
        let mut starts = Vec::with_capacity(vertices + 1);
        starts.push(0);
        DenseAdjacency {
            starts,
            neighbors: Vec::with_capacity(vertices * 6),
        }
    }

    /// Append the next vertex's neighbour list (dense indices).
    pub fn push_vertex(&mut self, neighbors: impl IntoIterator<Item = u32>) {
        self.neighbors.extend(neighbors);
        self.starts.push(self.neighbors.len() as u32);
    }

    pub fn num_vertices(&self) -> usize {
        self.starts.len() - 1
    }

    fn ring(&self, v: usize) -> &[u32] {
        &self.neighbors[self.starts[v] as usize..self.starts[v + 1] as usize]
    }

    fn ring_mut(&mut self, v: usize) -> &mut [u32] {
        &mut self.neighbors[self.starts[v] as usize..self.starts[v + 1] as usize]
    }
}

/// Monotone surrogate for the CCW angle in `[0, 2π)` around the +x axis:
/// strictly increasing in the true angle and with the same branch cut, so
/// sorting by it yields exactly the order `atan2` would — without a
/// transcendental call per comparison.
#[inline]
fn pseudo_angle(d: Vec2) -> f64 {
    let denom = d.x.abs() + d.y.abs();
    if denom == 0.0 {
        return 0.0; // matches atan2(0, 0) == 0
    }
    let p = d.x / denom; // in [-1, 1]
    if d.y < 0.0 {
        3.0 + p // (π, 2π)
    } else {
        1.0 - p // [0, π]
    }
}

/// [`extract_faces`] on dense vertex indices: `pos[i]` is vertex `i`'s
/// plan position, `adj` its neighbour ring (entries must be `< pos.len()`
/// and symmetric). The hot path of every query-result assembly — no
/// hashing, no per-vertex allocation.
///
/// Faces come out deterministically ordered by (smallest corner, ring
/// position); each is emitted CCW at its smallest corner index.
pub fn extract_faces_dense(pos: &[Vec2], adj: &DenseAdjacency) -> Vec<[u32; 3]> {
    extract_faces_dense_owned(pos, adj.clone())
}

/// [`extract_faces_dense`] taking the adjacency by value — rings are
/// sorted in place, skipping the defensive clone. Callers that build the
/// adjacency per query (every serve-path assembly) use this directly.
pub fn extract_faces_dense_owned(pos: &[Vec2], mut sorted: DenseAdjacency) -> Vec<[u32; 3]> {
    let n = sorted.num_vertices();
    debug_assert_eq!(n, pos.len());
    // Sort every ring CCW. Keys are computed once per neighbour into a
    // reused scratch of (angle, vertex) pairs — comparisons then cost a
    // float compare instead of two pseudo-angle evaluations.
    let mut keyed: Vec<(f64, u32)> = Vec::new();
    for v in 0..n {
        let pv = pos[v];
        let ring = sorted.ring_mut(v);
        if ring.len() < 2 {
            continue;
        }
        keyed.clear();
        keyed.extend(
            ring.iter()
                .map(|&u| (pseudo_angle(pos[u as usize] - pv), u)),
        );
        keyed.sort_unstable_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        for (slot, &(_, u)) in ring.iter_mut().zip(keyed.iter()) {
            *slot = u;
        }
    }
    // next(v, a) = neighbour following `a` counter-clockwise around `v`,
    // found by scanning v's (tiny) sorted ring instead of a global
    // (v, a) → b hash map.
    let next = |v: u32, a: u32| -> Option<u32> {
        let ring = sorted.ring(v as usize);
        ring.iter()
            .position(|&x| x == a)
            .map(|i| ring[(i + 1) % ring.len()])
    };

    let mut out = Vec::new();
    for v in 0..n as u32 {
        let ring = sorted.ring(v as usize);
        let pv = pos[v as usize];
        let l = ring.len();
        if l < 2 {
            continue;
        }
        for i in 0..l {
            let a = ring[i];
            let b = ring[(i + 1) % l];
            // Emit each triangle once, at its smallest corner id.
            if v > a || v > b || a == b {
                continue;
            }
            // The candidate triangle (v, a, b) must be consistent around
            // all three corners ...
            if next(a, b) != Some(v) || next(b, v) != Some(a) {
                continue;
            }
            // ... counter-clockwise ...
            let pa = pos[a as usize];
            let pb = pos[b as usize];
            if orient2d(pv, pa, pb) <= 0.0 {
                continue;
            }
            // ... and span a convex sector at every corner (rejects the
            // outer face of small components).
            if !sector_convex(pv, pa, pb)
                || !sector_convex(pa, pb, pv)
                || !sector_convex(pb, pv, pa)
            {
                continue;
            }
            out.push([v, a, b]);
        }
    }
    out
}

/// True when the CCW sector at `center` from `from` to `to` is < π.
fn sector_convex(center: Vec2, from: Vec2, to: Vec2) -> bool {
    orient2d(center, from, to) > 0.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(
        points: &[(u32, f64, f64)],
        edges: &[(u32, u32)],
    ) -> (HashMap<u32, Vec2>, HashMap<u32, Vec<u32>>) {
        let pos: HashMap<u32, Vec2> = points
            .iter()
            .map(|&(id, x, y)| (id, Vec2::new(x, y)))
            .collect();
        let mut adj: HashMap<u32, Vec<u32>> = points.iter().map(|&(id, ..)| (id, vec![])).collect();
        for &(a, b) in edges {
            adj.get_mut(&a).unwrap().push(b);
            adj.get_mut(&b).unwrap().push(a);
        }
        (pos, adj)
    }

    fn sorted_tris(mut tris: Vec<[u32; 3]>) -> Vec<[u32; 3]> {
        for t in &mut tris {
            let k = t.iter().enumerate().min_by_key(|(_, &v)| v).unwrap().0;
            t.rotate_left(k);
        }
        tris.sort();
        tris
    }

    #[test]
    fn single_triangle() {
        let (pos, adj) = build(
            &[(0, 0.0, 0.0), (1, 1.0, 0.0), (2, 0.0, 1.0)],
            &[(0, 1), (1, 2), (2, 0)],
        );
        let tris = extract_faces(&pos, &adj);
        assert_eq!(sorted_tris(tris), vec![[0, 1, 2]]);
    }

    #[test]
    fn quad_with_diagonal() {
        let (pos, adj) = build(
            &[(0, 0.0, 0.0), (1, 1.0, 0.0), (2, 1.0, 1.0), (3, 0.0, 1.0)],
            &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)],
        );
        let tris = extract_faces(&pos, &adj);
        assert_eq!(tris.len(), 2, "quad split by one diagonal");
        // The outer face must not be emitted.
        for t in &tris {
            assert!(
                t.contains(&0) && t.contains(&2),
                "both faces use the diagonal"
            );
        }
    }

    #[test]
    fn grid_patch() {
        // A 3×3 grid triangulated like TriMesh::from_heightfield.
        let hf = dm_terrain::generate::ramp(3, 3, 1.0);
        let mesh = dm_terrain::TriMesh::from_heightfield(&hf);
        let pos: HashMap<u32, Vec2> = mesh
            .live_vertices()
            .map(|v| (v, mesh.position(v).xy()))
            .collect();
        let adj: HashMap<u32, Vec<u32>> = mesh
            .live_vertices()
            .map(|v| (v, mesh.neighbors(v)))
            .collect();
        let got = sorted_tris(extract_faces(&pos, &adj));
        let want = sorted_tris(
            mesh.live_triangles()
                .map(|t| mesh.triangle(t))
                .collect::<Vec<_>>(),
        );
        assert_eq!(
            got, want,
            "extraction must reproduce the grid triangulation"
        );
    }

    #[test]
    fn fractal_cut_roundtrip() {
        // End-to-end: extraction from adjacency must reproduce a replayed
        // uniform cut of a real hierarchy.
        use dm_mtm::builder::{build_pm, PmBuildConfig};
        let hf = dm_terrain::generate::fractal_terrain(9, 9, 77);
        let mesh = dm_terrain::TriMesh::from_heightfield(&hf);
        let original = mesh.clone();
        let build = build_pm(mesh, &PmBuildConfig::default());
        let h = &build.hierarchy;
        for frac in [0.05, 0.3, 0.7] {
            let e = h.e_max * frac;
            let replay = h.replay_mesh(&original, e);
            let pos: HashMap<u32, Vec2> = replay
                .live_vertices()
                .map(|v| (v, replay.position(v).xy()))
                .collect();
            // Adjacency from construction episodes filtered by interval
            // overlap at e — exactly what the DM connection lists encode.
            let mut adj: HashMap<u32, Vec<u32>> =
                replay.live_vertices().map(|v| (v, vec![])).collect();
            for &(a, b) in &build.edges {
                if h.interval(a).contains(e) && h.interval(b).contains(e) {
                    adj.get_mut(&a).unwrap().push(b);
                    adj.get_mut(&b).unwrap().push(a);
                }
            }
            let got = sorted_tris(extract_faces(&pos, &adj));
            let want = sorted_tris(
                replay
                    .live_triangles()
                    .map(|t| replay.triangle(t))
                    .collect::<Vec<_>>(),
            );
            assert_eq!(got, want, "extraction at {frac}·e_max");
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let (pos, adj) = build(&[], &[]);
        assert!(extract_faces(&pos, &adj).is_empty());
        let (pos, adj) = build(&[(0, 0.0, 0.0), (1, 1.0, 0.0)], &[(0, 1)]);
        assert!(
            extract_faces(&pos, &adj).is_empty(),
            "an edge is not a face"
        );
    }

    #[test]
    fn collinear_points_produce_no_faces() {
        let (pos, adj) = build(
            &[(0, 0.0, 0.0), (1, 1.0, 0.0), (2, 2.0, 0.0)],
            &[(0, 1), (1, 2), (0, 2)],
        );
        assert!(extract_faces(&pos, &adj).is_empty());
    }

    #[test]
    fn adjacency_to_missing_vertex_is_ignored() {
        // Vertex 9 appears in lists but was not fetched (outside the ROI):
        // extraction must not panic and must still find the real face.
        let (pos, mut adj) = build(
            &[(0, 0.0, 0.0), (1, 1.0, 0.0), (2, 0.0, 1.0)],
            &[(0, 1), (1, 2), (2, 0)],
        );
        adj.get_mut(&0).unwrap().push(9);
        let tris = extract_faces(&pos, &adj);
        assert_eq!(tris.len(), 1);
    }
}
