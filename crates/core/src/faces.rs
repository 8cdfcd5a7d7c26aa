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
    // Neighbours without a position are dropped (historically
    // `ring.retain(pos.contains_key)`); vertices without an adjacency
    // entry get an empty ring, which can anchor no triangle — exactly the
    // old successor-map misses.
    let rings: Vec<&[u32]> = ids
        .iter()
        .map(|v| adj.get(v).map_or(&[][..], Vec::as_slice))
        .collect();
    let mut dense = DenseAdjacency::with_capacity(ids.len(), rings.iter().map(|r| r.len()).sum());
    for ring in rings {
        dense.push_probed(ring, |n| {
            index_of.get(&n).map_or((false, 0), |&i| (true, i))
        });
    }
    extract_faces_dense_owned(&dense_pos, dense)
        .into_iter()
        .map(|[a, b, c]| [ids[a as usize], ids[b as usize], ids[c as usize]])
        .collect()
}

/// Flat CSR adjacency over dense vertex indices `0..n` — the
/// allocation-free input form of [`extract_faces_dense_owned`]. Build it
/// by pushing each vertex's candidate neighbour ids in dense-index order.
#[derive(Clone, Debug)]
pub struct DenseAdjacency {
    starts: Vec<u32>,
    neighbors: Vec<u32>,
}

impl DenseAdjacency {
    /// Room for `vertices` rings built from `candidates` candidate ids in
    /// all (the total of the lists later pushed): the neighbour array is
    /// sized once and every push writes into it.
    pub fn with_capacity(vertices: usize, candidates: usize) -> DenseAdjacency {
        let mut starts = Vec::with_capacity(vertices + 1);
        starts.push(0);
        DenseAdjacency {
            starts,
            neighbors: vec![0; candidates],
        }
    }

    /// Append the next vertex's ring: `probe` maps each candidate id to
    /// `(hit, dense index)`. Every candidate's index is written and the
    /// ring grows by the hits only, so the filter costs a store and an
    /// add per candidate instead of a branch that is a coin flip (about
    /// half of a cut's connection ids name records outside it).
    pub fn push_probed(&mut self, candidates: &[u32], mut probe: impl FnMut(u32) -> (bool, u32)) {
        let start = self.starts[self.starts.len() - 1] as usize;
        let end = start + candidates.len();
        if self.neighbors.len() < end {
            self.neighbors.resize(end, 0);
        }
        let ring = &mut self.neighbors[start..end];
        let mut kept = 0;
        for &c in candidates {
            let (hit, dense) = probe(c);
            ring[kept] = dense;
            kept += usize::from(hit);
        }
        self.starts.push((start + kept) as u32);
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
/// transcendental call per comparison. `1 − p` above the axis and `3 + p`
/// below are one expression, `(1 + 2s) + p·(2s − 1)` with `s = [y < 0]`
/// (the same IEEE result bit for bit: every term but the last add is
/// exact), because the half-plane test is a coin flip per neighbour and
/// a branch on it mispredicts half the time. Finite input gives a key
/// that is finite and `≥ +0.0`, never `−0.0`.
#[inline]
fn pseudo_angle(d: Vec2) -> f64 {
    let denom = d.x.abs() + d.y.abs();
    let p = d.x / denom; // in [-1, 1]; NaN only when denom == 0
    let s = f64::from(u8::from(d.y < 0.0));
    let key = (1.0 + 2.0 * s) + p * (2.0 * s - 1.0);
    // 0 matches atan2(0, 0) == 0.
    if denom == 0.0 {
        0.0
    } else {
        key
    }
}

/// Rings up to this long are ordered by an O(l²) branch-free rank, longer
/// ones by a stable comparison sort on the same keys, so a vertex of
/// adversarial valence (a fan of hundreds of spokes) costs O(l log l).
/// A terrain cut's rings average six. On random keys (x86-64 Xeon,
/// baseline target) the rank is 1.6–2× faster than the stable sort up to
/// 32 entries and the two meet near 64; 32 keeps the rank well inside
/// the range where it wins.
const RANK_SORT_MAX_RING: usize = 32;

/// Order `ring` by `keys` (pseudo-angle bit patterns, one per entry),
/// stably: each entry's slot is the number of keys below its own plus the
/// number of equal keys stored before it, counted without a branch.
fn rank_sort(ring: &mut [u32], keys: &[u64]) {
    let mut out = [0u32; RANK_SORT_MAX_RING];
    for (i, &k) in keys.iter().enumerate() {
        let before = keys[..i]
            .iter()
            .map(|&x| usize::from(x <= k))
            .sum::<usize>();
        let after = keys[i + 1..]
            .iter()
            .map(|&x| usize::from(x < k))
            .sum::<usize>();
        out[before + after] = ring[i];
    }
    ring.copy_from_slice(&out[..ring.len()]);
}

/// [`extract_faces`] on dense vertex indices: `pos[i]` is vertex `i`'s
/// plan position, `sorted` its neighbour rings (entries must be
/// `< pos.len()` and symmetric), consumed because the rings are sorted in
/// place. The hot path of every query-result assembly — no hashing, no
/// per-vertex allocation.
///
/// Faces come out deterministically ordered by (smallest corner, ring
/// position); each is emitted CCW at its smallest corner index. A ring is
/// ordered CCW from the +x axis, entries of equal angle in stored order.
pub fn extract_faces_dense_owned(pos: &[Vec2], mut sorted: DenseAdjacency) -> Vec<[u32; 3]> {
    let n = sorted.num_vertices();
    debug_assert_eq!(n, pos.len());
    // Sort every ring CCW. Keys are the pseudo-angles' bit patterns: they
    // are finite and ≥ +0.0, so integer order is numeric order and equal
    // bits are equal angles.
    let mut keys: Vec<u64> = Vec::new();
    let mut keyed: Vec<(u64, u32)> = Vec::new();
    for v in 0..n {
        let pv = pos[v];
        let ring = sorted.ring_mut(v);
        if ring.len() < 2 {
            continue;
        }
        keys.clear();
        keys.extend(
            ring.iter()
                .map(|&u| pseudo_angle(pos[u as usize] - pv).to_bits()),
        );
        if ring.len() <= RANK_SORT_MAX_RING {
            rank_sort(ring, &keys);
        } else {
            keyed.clear();
            keyed.extend(keys.iter().copied().zip(ring.iter().copied()));
            keyed.sort_by_key(|&(k, _)| k);
            for (slot, &(_, u)) in ring.iter_mut().zip(&keyed) {
                *slot = u;
            }
        }
    }
    // next(v, a) = neighbour following `a` counter-clockwise around `v`,
    // found by scanning v's (tiny) sorted ring instead of a global
    // (v, a) → b hash map.
    let next = |v: u32, a: u32| -> Option<u32> {
        let ring = sorted.ring(v as usize);
        let i = ring.iter().position(|&x| x == a)?;
        Some(*ring.get(i + 1).unwrap_or(&ring[0]))
    };

    let mut out = Vec::with_capacity(2 * n);
    for v in 0..n as u32 {
        let ring = sorted.ring(v as usize);
        if ring.len() < 2 {
            continue;
        }
        let pv = pos[v as usize];
        // Each entry with its CCW successor, the last with the first.
        for (&a, &b) in ring.iter().zip(ring[1..].iter().chain(&ring[..1])) {
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
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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

    /// The pseudo-angle as two branches — the form the select expression
    /// must reproduce bit for bit.
    fn pseudo_angle_branchy(d: Vec2) -> f64 {
        let denom = d.x.abs() + d.y.abs();
        if denom == 0.0 {
            return 0.0;
        }
        let p = d.x / denom;
        if d.y < 0.0 {
            3.0 + p
        } else {
            1.0 - p
        }
    }

    /// The kernel before it went branch-lean, kept as its oracle: keys
    /// from the two-branch pseudo-angle, each ring ordered by
    /// `sort_unstable_by` on the float keys (an insertion sort, hence
    /// stable, up to 20 entries), successors by `% len`.
    fn oracle_faces(pos: &[Vec2], mut sorted: DenseAdjacency) -> Vec<[u32; 3]> {
        let n = sorted.num_vertices();
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
                    .map(|&u| (pseudo_angle_branchy(pos[u as usize] - pv), u)),
            );
            keyed.sort_unstable_by(|a, b| {
                a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal)
            });
            for (slot, &(_, u)) in ring.iter_mut().zip(keyed.iter()) {
                *slot = u;
            }
        }
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
                if v > a || v > b || a == b {
                    continue;
                }
                if next(a, b) != Some(v) || next(b, v) != Some(a) {
                    continue;
                }
                let pa = pos[a as usize];
                let pb = pos[b as usize];
                if orient2d(pv, pa, pb) <= 0.0 {
                    continue;
                }
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

    fn dense_of(rings: &[Vec<u32>]) -> DenseAdjacency {
        let mut d = DenseAdjacency::with_capacity(rings.len(), 0);
        for r in rings {
            d.push_probed(r, |u| (true, u));
        }
        d
    }

    fn shuffle(rng: &mut StdRng, xs: &mut [u32]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, rng.random_range(0..=i));
        }
    }

    /// A `w × h` grid triangulated by `TriMesh::from_heightfield`, made
    /// hostile: half the points jittered (the rest stay on the lattice,
    /// so the skip edges added along rows and diagonals give exact
    /// pseudo-angle ties), lattice zeros flipped to `−0.0`, a few points
    /// moved onto a neighbour, about a sixth deleted (an ROI clip: their
    /// ids still sit in the survivors' lists and the probe drops them),
    /// every list shuffled.
    fn hostile_grid(rng: &mut StdRng) -> (Vec<Vec2>, DenseAdjacency) {
        let (w, h) = (rng.random_range(3..11usize), rng.random_range(3..11usize));
        let mesh = dm_terrain::TriMesh::from_heightfield(&dm_terrain::generate::ramp(w, h, 1.0));
        let signed = |rng: &mut StdRng, c: f64| if c == 0.0 && rng.random() { -0.0 } else { c };
        let mut pos: Vec<Vec2> = (0..w * h)
            .map(|v| {
                let (x, y) = ((v % w) as f64, (v / w) as f64);
                if rng.random() {
                    Vec2::new(
                        x + rng.random_range(-0.3..0.3),
                        y + rng.random_range(-0.3..0.3),
                    )
                } else {
                    Vec2::new(signed(rng, x), signed(rng, y))
                }
            })
            .collect();
        let mut adj: Vec<Vec<u32>> = (0..w * h).map(|v| mesh.neighbors(v as u32)).collect();
        for _ in 0..rng.random_range(0..w * h / 2) {
            let v = rng.random_range(0..w * h);
            let step = if rng.random() { 2 } else { 2 * w + 2 };
            if v + step < w * h && v % w + 2 < w {
                adj[v].push((v + step) as u32);
                adj[v + step].push(v as u32);
            }
        }
        for _ in 0..rng.random_range(0..3usize) {
            let v = rng.random_range(0..w * h);
            if let Some(&u) = adj[v].first() {
                pos[v] = pos[u as usize];
            }
        }
        let keep: Vec<bool> = (0..w * h).map(|_| rng.random_range(0..6u32) > 0).collect();
        let mut dense_id = vec![0u32; w * h];
        let mut kept_pos = Vec::new();
        for v in (0..w * h).filter(|&v| keep[v]) {
            dense_id[v] = kept_pos.len() as u32;
            kept_pos.push(pos[v]);
        }
        let mut d = DenseAdjacency::with_capacity(kept_pos.len(), 0);
        for v in (0..w * h).filter(|&v| keep[v]) {
            shuffle(rng, &mut adj[v]);
            d.push_probed(&adj[v], |u| (keep[u as usize], dense_id[u as usize]));
        }
        (kept_pos, d)
    }

    /// A closed fan of 24–40 spokes at distinct angles (so its centre's
    /// ring crosses [`RANK_SORT_MAX_RING`]), centre at a random index,
    /// lists shuffled.
    fn big_fan(rng: &mut StdRng) -> (Vec<Vec2>, DenseAdjacency) {
        let k = rng.random_range(24..=40usize);
        let centre = rng.random_range(0..=k);
        let rim = |i: usize| ((i + centre + 1) % (k + 1)) as u32;
        let mut pos = vec![Vec2::new(0.0, 0.0); k + 1];
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); k + 1];
        for i in 0..k {
            let t = std::f64::consts::TAU * (i as f64 + rng.random_range(-0.4..0.4)) / k as f64;
            let r = rng.random_range(1.0..2.0);
            pos[rim(i) as usize] = Vec2::new(r * t.cos(), r * t.sin());
            for (a, b) in [(centre as u32, rim(i)), (rim(i), rim((i + 1) % k))] {
                adj[a as usize].push(b);
                adj[b as usize].push(a);
            }
        }
        for ring in &mut adj {
            shuffle(rng, ring);
        }
        (pos, dense_of(&adj))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The branch-lean kernel emits today's faces, face for face and
        /// in order, on inputs built to split the two apart.
        #[test]
        fn kernel_matches_oracle(seed in any::<u64>(), fan in any::<bool>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (pos, adj) = if fan { big_fan(&mut rng) } else { hostile_grid(&mut rng) };
            let want = oracle_faces(&pos, adj.clone());
            prop_assert_eq!(extract_faces_dense_owned(&pos, adj), want);
        }
    }

    #[test]
    fn select_pseudo_angle_is_the_branchy_one_bit_for_bit() {
        let tiny = f64::from_bits(1); // smallest subnormal
        let sub = f64::MIN_POSITIVE / 3.0;
        let mut parts = vec![0.0, -0.0, 1.0, -1.0, 0.5, -2.5, 3.0e-300, -7.0e300];
        parts.extend([tiny, -tiny, sub, -sub, f64::MAX, -f64::MAX]);
        parts.extend([f64::MIN_POSITIVE, -f64::MIN_POSITIVE, 1.0 + f64::EPSILON]);
        for &x in &parts {
            for &y in &parts {
                let d = Vec2::new(x, y);
                assert_eq!(
                    pseudo_angle(d).to_bits(),
                    pseudo_angle_branchy(d).to_bits(),
                    "pseudo_angle({x:e}, {y:e})"
                );
                assert!(pseudo_angle(d).is_sign_positive(), "a key is never -0.0");
            }
        }
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
