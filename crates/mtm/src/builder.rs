//! Bottom-up PM construction (paper §2) with QEM ordering.
//!
//! Repeatedly collapses the cheapest legal edge `(u, v)` into a freshly
//! created parent node, recording `parent`/`child1`/`child2`/`wing1`/
//! `wing2` exactly as the paper's node layout requires. The assigned LOD
//! value is the *running maximum* of the QEM error, which both satisfies
//! the paper's normalization (`m.e ≥ children's e`) and makes the whole
//! collapse sequence monotone — so the uniform cut at any `e` is a
//! construction prefix (see DESIGN.md).
//!
//! The builder also records every *adjacency episode* (each pair of nodes
//! that is ever connected by a mesh edge during construction). An edge
//! exists exactly while both endpoints are alive, i.e. during the overlap
//! of their LOD intervals — this is the raw material for the Direct Mesh
//! connection lists.
//!
//! The collapse queue holds one packed `u128` per edge (cost in
//! `total_cmp` order, then the two ids), so it pops in exactly the
//! `(cost, u, v)` order. Retry counts sit in a side table keyed by the
//! pair. An entry dies with either endpoint and never revives, so once
//! the entries orphaned since the last sweep exceed a quarter of the
//! queue they are all dropped in one `retain`, and most pops find a live
//! edge. DESIGN.md §19 has the proof and the counts; [`PmBuild::stats`]
//! reports them per build.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use dm_geom::Vec3;
use dm_terrain::mesh::NIL;
use dm_terrain::TriMesh;
use fxhash::FxHashMap;

use crate::hierarchy::{PmHierarchy, PmNode, NIL_ID};
use crate::quadric::Quadric;

/// Construction knobs.
#[derive(Clone, Copy, Debug)]
pub struct PmBuildConfig {
    /// Weight of the border-preservation constraint quadrics. `0` turns
    /// boundary preservation off.
    pub boundary_weight: f64,
}

impl Default for PmBuildConfig {
    fn default() -> Self {
        PmBuildConfig {
            boundary_weight: 1.0,
        }
    }
}

/// Result of PM construction.
pub struct PmBuild {
    pub hierarchy: PmHierarchy,
    /// Every pair of nodes ever adjacent during construction (unordered,
    /// deduplicated, `a < b`).
    pub edges: Vec<(u32, u32)>,
    /// Raw QEM collapse costs in creation order (before the monotone
    /// normalization). Diagnostics: how much the running max inflates.
    pub raw_costs: Vec<f64>,
    /// Collapse-queue counters of the build that made this value. Not
    /// persisted: all zero after [`crate::persist::load_pm`].
    pub stats: PmBuildStats,
}

/// Collapse-queue counters of one [`build_pm`] run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PmBuildStats {
    /// Entries popped, live and stale.
    pub pops: u64,
    /// Pops of an entry whose edge had already collapsed away.
    pub stale_pops: u64,
    /// Bulk sweeps of stale entries.
    pub sweeps: u64,
    /// Most entries the queue held at once.
    pub peak_queue: u64,
}

/// Retry budget per edge; each retry doubles the queue cost. Without
/// retries a temporarily illegal edge (link condition, fold-over) is lost
/// forever, the cheap supply drains, and the builder is forced into
/// expensive out-of-order collapses.
const MAX_RETRIES: u8 = 16;

/// The queue is swept once the entries orphaned since the last sweep
/// exceed `1 / SWEEP_SHARE` of it.
const SWEEP_SHARE: usize = 4;

/// A queue entry as one integer whose order is the collapse order: cost
/// in `f64::total_cmp` order, then `u`, then `v`. The cost's bits take
/// `total_cmp`'s sign flip (negatives invert, the rest set the sign bit),
/// so unsigned integer order is `total_cmp` order.
fn pack(cost: f64, u: u32, v: u32) -> u128 {
    let bits = cost.to_bits();
    let ord = if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    };
    (ord as u128) << 64 | (u as u128) << 32 | v as u128
}

/// Inverse of [`pack`].
fn unpack(key: u128) -> (f64, u32, u32) {
    let ord = (key >> 64) as u64;
    let bits = if ord >> 63 == 1 { ord ^ 1 << 63 } else { !ord };
    (f64::from_bits(bits), (key >> 32) as u32, key as u32)
}

/// Whether a queued `(u, v)` is still a mesh edge. Every entry was an
/// edge when queued, and a collapse removes only edges at the two
/// vertices it kills (its dropped triangles hold both), so a queued edge
/// lives exactly as long as both its endpoints. Once false it stays
/// false: nothing revives a dead vertex.
fn is_live(mesh: &TriMesh, u: u32, v: u32) -> bool {
    let live = mesh.is_vertex_alive(u) && mesh.is_vertex_alive(v);
    debug_assert!(!live || mesh.has_edge(u, v), "queued ({u}, {v}) is no edge");
    live
}

/// Build the PM hierarchy from a full-resolution terrain mesh.
///
/// The mesh is consumed (collapsed down to its roots). Node ids follow
/// `TriMesh` vertex ids: originals `0..n`, then created parents in
/// collapse order.
pub fn build_pm(mut mesh: TriMesh, cfg: &PmBuildConfig) -> PmBuild {
    let n_leaves = mesh.vertex_capacity();
    assert!(n_leaves >= 3, "terrain too small to simplify");

    // --- Initial quadrics -------------------------------------------------
    let mut quadrics: Vec<Quadric> = vec![Quadric::ZERO; n_leaves];
    for t in mesh.live_triangles() {
        let [a, b, c] = mesh.triangle(t);
        let q = Quadric::from_triangle(mesh.position(a), mesh.position(b), mesh.position(c));
        quadrics[a as usize] += q;
        quadrics[b as usize] += q;
        quadrics[c as usize] += q;
    }

    // --- Initial edges (and boundary constraints) ------------------------
    let mut initial_edges: Vec<(u32, u32)> = Vec::new();
    {
        let mut seen = fxhash::FxHashSet::default();
        for t in mesh.live_triangles() {
            let tri = mesh.triangle(t);
            for i in 0..3 {
                let a = tri[i].min(tri[(i + 1) % 3]);
                let b = tri[i].max(tri[(i + 1) % 3]);
                if seen.insert((a, b)) {
                    initial_edges.push((a, b));
                }
            }
        }
    }
    if cfg.boundary_weight > 0.0 {
        for &(a, b) in &initial_edges {
            if mesh.edge_triangle_count(a, b) == 1 {
                let q = Quadric::boundary_constraint(
                    mesh.position(a),
                    mesh.position(b),
                    cfg.boundary_weight,
                );
                quadrics[a as usize] += q;
                quadrics[b as usize] += q;
            }
        }
    }

    // --- Priority queue ---------------------------------------------------
    // A min-heap of packed keys. No two entries share a `(u, v)`: initial
    // edges are distinct, later ones all end at a vertex newer than any
    // queued entry, and a retry re-queues the entry it just popped. So
    // the retry count lives beside the queue, keyed by the pair.
    let entry = |quadrics: &[Quadric], mesh: &TriMesh, u: u32, v: u32| {
        let q = quadrics[u as usize].add(&quadrics[v as usize]);
        let (cands, n) = candidate_positions(&q, mesh.position(u), mesh.position(v));
        let cost = cands[..n]
            .iter()
            .map(|&p| q.eval(p).max(0.0))
            .fold(f64::INFINITY, f64::min);
        Reverse(pack(cost, u, v))
    };
    // Collecting heapifies the initial edges in one pass.
    let mut heap: BinaryHeap<_> = initial_edges
        .iter()
        .map(|&(u, v)| entry(&quadrics, &mesh, u, v))
        .collect();
    let mut retries: FxHashMap<(u32, u32), u8> = FxHashMap::default();
    let mut stats = PmBuildStats {
        peak_queue: heap.len() as u64,
        ..Default::default()
    };
    // Entries made stale since the last sweep (an upper bound: an edge
    // whose retries ran out is counted though no longer queued).
    let mut orphans = 0usize;

    // --- Collapse loop ----------------------------------------------------
    let mut nodes: Vec<PmNode> = (0..n_leaves as u32)
        .map(|id| PmNode {
            id,
            pos: mesh.position(id),
            e_lo: 0.0,
            e_hi: f64::INFINITY, // fixed up when a parent appears
            parent: NIL_ID,
            child1: NIL_ID,
            child2: NIL_ID,
            wing1: NIL_ID,
            wing2: NIL_ID,
        })
        .collect();
    let mut edges_ever = initial_edges;
    let mut last_e = 0.0f64;
    let mut raw_costs: Vec<f64> = Vec::new();

    while let Some(Reverse(key)) = heap.pop() {
        stats.pops += 1;
        let (cost, u, v) = unpack(key);
        if !is_live(&mesh, u, v) {
            stats.stale_pops += 1;
            orphans = orphans.saturating_sub(1);
            continue;
        }
        let q = quadrics[u as usize].add(&quadrics[v as usize]);
        let mut success = None;
        let (mut cands, n) = candidate_positions(&q, mesh.position(u), mesh.position(v));
        let cands = &mut cands[..n];
        cands.sort_by(|a, b| q.eval(*a).total_cmp(&q.eval(*b)));
        // Never collapse at a position dramatically worse than this
        // edge's best candidate: that would assign a wild error to a
        // cheap edge (poisoning the monotone normalization). If only bad
        // positions are legal right now, retry the edge later instead.
        let best = q.eval(cands[0]).max(0.0);
        let acceptable = best * 16.0 + 1e-12;
        for &pos in cands.iter() {
            if q.eval(pos).max(0.0) > acceptable {
                break;
            }
            if let Ok(res) = mesh.collapse_edge(u, v, pos) {
                success = Some((pos, res));
                break;
            }
        }
        let Some((pos, res)) = success else {
            // Not collapsible right now (link condition / fold-over /
            // boundary rule). Re-queue with a penalty so it is retried
            // after its neighbourhood evolves.
            let tries = retries.entry((u, v)).or_insert(0);
            if *tries < MAX_RETRIES {
                *tries += 1;
                heap.push(Reverse(pack(cost.max(1e-12) * 2.0, u, v)));
            }
            continue;
        };
        let w = res.new_vertex;
        debug_assert_eq!(w as usize, nodes.len());

        let e_raw = q.eval(pos).max(0.0).sqrt();
        raw_costs.push(e_raw);
        let e = e_raw.max(last_e);
        last_e = e;

        nodes[u as usize].parent = w;
        nodes[u as usize].e_hi = e;
        nodes[v as usize].parent = w;
        nodes[v as usize].e_hi = e;
        // Order the wings by side: wing1 is the wing for which
        // (child1, child2, wing1) winds counter-clockwise, wing2 the other
        // side. The refinement engine relies on this orientation to
        // partition the neighbour fan deterministically at split time.
        let (mut wing1, mut wing2) = (NIL_ID, NIL_ID);
        let wings = &res.wings[..if res.wings[1] == NIL { 1 } else { 2 }];
        for &wv in wings {
            let o = dm_geom::tri::orient2d(
                nodes[u as usize].pos.xy(),
                nodes[v as usize].pos.xy(),
                nodes[wv as usize].pos.xy(),
            );
            if o > 0.0 && wing1 == NIL_ID {
                wing1 = wv;
            } else if o < 0.0 && wing2 == NIL_ID {
                wing2 = wv;
            } else if wing1 == NIL_ID {
                wing1 = wv; // degenerate side: keep deterministic slots
            } else {
                wing2 = wv;
            }
        }
        nodes.push(PmNode {
            id: w,
            pos,
            e_lo: e,
            e_hi: f64::INFINITY,
            parent: NIL_ID,
            child1: u,
            child2: v,
            wing1,
            wing2,
        });
        quadrics.push(q);

        // Every other edge of `u` or `v` just went stale: as many as `w`
        // has neighbours, plus one per wing (both endpoints had an edge
        // to it; `w` has one).
        let neighbours = mesh.neighbors(w);
        orphans += neighbours.len() + wings.len();
        for n in neighbours {
            edges_ever.push((n.min(w), n.max(w)));
            heap.push(entry(&quadrics, &mesh, w, n));
        }
        stats.peak_queue = stats.peak_queue.max(heap.len() as u64);
        if orphans * SWEEP_SHARE > heap.len() {
            heap.retain(|&Reverse(k)| {
                let (_, a, b) = unpack(k);
                is_live(&mesh, a, b)
            });
            stats.sweeps += 1;
            orphans = 0;
        }
    }

    // --- Finalize -----------------------------------------------------------
    let roots: Vec<u32> = mesh.live_vertices().collect();
    let root_mesh: Vec<[u32; 3]> = mesh.live_triangles().map(|t| mesh.triangle(t)).collect();
    edges_ever.sort_unstable();
    edges_ever.dedup();
    let hierarchy = PmHierarchy::assemble(nodes, roots, root_mesh, n_leaves);
    PmBuild {
        hierarchy,
        edges: edges_ever,
        raw_costs,
        stats,
    }
}

/// Candidate placements for the merged vertex: QEM-optimal point when the
/// system is solvable, then midpoint and both endpoints. Returns the
/// slots and how many of them are filled.
fn candidate_positions(q: &Quadric, pu: Vec3, pv: Vec3) -> ([Vec3; 4], usize) {
    let mid = (pu + pv) / 2.0;
    if let Some(p) = q.optimal_point() {
        // Reject wild solutions far outside the edge neighbourhood (badly
        // conditioned systems can fling the point away).
        let span = pu.dist(pv) * 4.0 + 1e-9;
        if p.dist(mid) <= span {
            return ([p, mid, pu, pv], 4);
        }
    }
    ([mid, pu, pv, mid], 3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dm_terrain::generate;

    fn build_fractal(n: usize, seed: u64) -> (TriMesh, PmBuild) {
        let hf = generate::fractal_terrain(n, n, seed);
        let mesh = TriMesh::from_heightfield(&hf);
        let original = mesh.clone();
        (original, build_pm(mesh, &PmBuildConfig::default()))
    }

    #[test]
    fn builds_a_small_hierarchy() {
        let (_, build) = build_fractal(9, 1);
        let h = &build.hierarchy;
        assert_eq!(h.n_leaves, 81);
        assert!(h.len() > 81, "no collapses happened");
        assert!(h.roots.len() < 81 / 4, "too many roots: {}", h.roots.len());
        h.validate().expect("hierarchy invariants");
    }

    #[test]
    fn collapse_errors_are_monotone_and_normalized() {
        let (_, build) = build_fractal(9, 2);
        let h = &build.hierarchy;
        for n in &h.nodes {
            if !n.is_leaf() {
                assert!(n.e_lo >= h.node(n.child1).e_lo);
                assert!(n.e_lo >= h.node(n.child2).e_lo);
            } else {
                assert_eq!(n.e_lo, 0.0, "leaves sit at LOD 0");
            }
        }
    }

    #[test]
    fn uniform_cuts_are_valid_at_every_level() {
        let (_, build) = build_fractal(9, 3);
        let h = &build.hierarchy;
        for frac in [0.0, 0.001, 0.01, 0.1, 0.3, 0.7, 1.0] {
            let e = h.e_max * frac;
            let cut = h.uniform_cut(e);
            h.validate_cut(&cut)
                .unwrap_or_else(|err| panic!("cut at {frac} of e_max: {err}"));
        }
    }

    #[test]
    fn cut_at_zero_is_all_leaves_for_noisy_terrain() {
        let (_, build) = build_fractal(9, 4);
        let h = &build.hierarchy;
        let cut = h.uniform_cut(0.0);
        // Fractal terrain has strictly positive collapse costs, so the cut
        // at 0 keeps every original point.
        assert_eq!(cut.len(), h.n_leaves);
    }

    #[test]
    fn cut_above_emax_is_the_root_set() {
        let (_, build) = build_fractal(9, 5);
        let h = &build.hierarchy;
        let cut = h.uniform_cut(h.e_max * 2.0);
        let mut roots = h.roots.clone();
        let mut cut = cut;
        roots.sort();
        cut.sort();
        assert_eq!(cut, roots);
    }

    #[test]
    fn replay_reproduces_every_uniform_cut() {
        let (original, build) = build_fractal(9, 6);
        let h = &build.hierarchy;
        for frac in [0.0, 0.05, 0.25, 0.6, 1.1] {
            let e = h.e_max * frac;
            let mesh = h.replay_mesh(&original, e);
            mesh.validate().expect("replayed mesh valid");
            let cut = h.uniform_cut(e);
            assert_eq!(
                mesh.num_live_vertices(),
                cut.len(),
                "replay vertex count vs cut at {frac}·e_max"
            );
            let mut live: Vec<u32> = mesh.live_vertices().collect();
            let mut cut = cut;
            live.sort();
            cut.sort();
            assert_eq!(live, cut, "cut membership at {frac}·e_max");
        }
    }

    #[test]
    fn edge_episodes_cover_every_replayed_mesh_edge() {
        // The defining property for Direct Mesh: the edges of the uniform
        // cut at any LOD are exactly the ever-adjacent pairs whose
        // intervals both contain that LOD.
        let (original, build) = build_fractal(9, 7);
        let h = &build.hierarchy;
        let episode_set: std::collections::HashSet<(u32, u32)> =
            build.edges.iter().copied().collect();
        for frac in [0.0, 0.1, 0.4, 0.9] {
            let e = h.e_max * frac;
            let mesh = h.replay_mesh(&original, e);
            let mut mesh_edges = std::collections::HashSet::new();
            for t in mesh.live_triangles() {
                let tri = mesh.triangle(t);
                for i in 0..3 {
                    let a = tri[i].min(tri[(i + 1) % 3]);
                    let b = tri[i].max(tri[(i + 1) % 3]);
                    mesh_edges.insert((a, b));
                }
            }
            // Every mesh edge is a recorded episode with overlapping
            // intervals containing e ...
            for &(a, b) in &mesh_edges {
                assert!(episode_set.contains(&(a, b)), "missing episode ({a},{b})");
                assert!(h.interval(a).contains(e) && h.interval(b).contains(e));
            }
            // ... and every episode whose endpoints are both in the cut is
            // a mesh edge (no phantom connections).
            for &(a, b) in &build.edges {
                if h.interval(a).contains(e) && h.interval(b).contains(e) {
                    assert!(
                        mesh_edges.contains(&(a, b)),
                        "episode ({a},{b}) not an edge of the cut at {frac}·e_max"
                    );
                }
            }
        }
    }

    #[test]
    fn wings_are_recorded() {
        let (_, build) = build_fractal(9, 8);
        let h = &build.hierarchy;
        let mut with_two = 0;
        for n in &h.nodes {
            if !n.is_leaf() {
                assert!(
                    n.wing1 != NIL_ID || n.wing2 != NIL_ID,
                    "every collapse has at least one wing"
                );
                if n.wing1 != NIL_ID && n.wing2 != NIL_ID {
                    with_two += 1;
                }
            }
        }
        assert!(with_two > 0, "some collapses must be interior (two wings)");
    }

    #[test]
    fn boundary_weight_delays_border_collapses() {
        let hf = generate::fractal_terrain(9, 9, 10);
        let build_with = build_pm(
            TriMesh::from_heightfield(&hf),
            &PmBuildConfig {
                boundary_weight: 20.0,
            },
        );
        let build_without = build_pm(
            TriMesh::from_heightfield(&hf),
            &PmBuildConfig {
                boundary_weight: 0.0,
            },
        );
        // Compare how long border leaves survive (normalized rank of
        // their death among all collapses): constraints must not make
        // borders die earlier on average.
        let avg_border_rank = |b: &PmBuild| -> f64 {
            let h = &b.hierarchy;
            let mut sum = 0.0;
            let mut n = 0.0;
            for row in 0..9usize {
                for col in 0..9usize {
                    if row == 0 || col == 0 || row == 8 || col == 8 {
                        let id = (row * 9 + col) as u32;
                        let parent = h.node(id).parent;
                        if parent != NIL_ID {
                            sum += parent as f64 / h.len() as f64;
                        } else {
                            sum += 1.0;
                        }
                        n += 1.0;
                    }
                }
            }
            sum / n
        };
        let with = avg_border_rank(&build_with);
        let without = avg_border_rank(&build_without);
        assert!(
            with >= without - 0.05,
            "boundary constraints made borders die earlier: {with:.3} vs {without:.3}"
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let (_, b1) = build_fractal(9, 12);
        let (_, b2) = build_fractal(9, 12);
        assert_eq!(b1.hierarchy.len(), b2.hierarchy.len());
        for (x, y) in b1.hierarchy.nodes.iter().zip(&b2.hierarchy.nodes) {
            assert_eq!(x.child1, y.child1);
            assert_eq!(x.e_lo, y.e_lo);
        }
        assert_eq!(b1.edges, b2.edges);
    }
}

#[cfg(test)]
mod heap_order_tests {
    use super::*;
    use dm_terrain::generate;
    use proptest::prelude::*;

    #[test]
    fn heap_pops_cheapest_first() {
        let mut heap = BinaryHeap::new();
        for (i, c) in [5.0, 0.0, 15.0, 0.0, 3.0, 0.596, 0.0]
            .into_iter()
            .enumerate()
        {
            heap.push(Reverse(pack(c, i as u32, 100 + i as u32)));
        }
        let mut popped = Vec::new();
        while let Some(Reverse(k)) = heap.pop() {
            popped.push(unpack(k).0);
        }
        assert_eq!(popped, vec![0.0, 0.0, 0.0, 0.596, 3.0, 5.0, 15.0]);
    }

    /// A cost from one of the shapes the queue meets or must survive:
    /// zero, infinity, subnormals, the smallest normal, ordinary positive
    /// values and arbitrary bit patterns (negatives and NaNs included).
    fn cost_of(shape: u8, bits: u64) -> f64 {
        match shape {
            0 => 0.0,
            1 => f64::INFINITY,
            2 => f64::from_bits(bits & ((1 << 52) - 1)),
            3 => f64::MIN_POSITIVE,
            4 => f64::from_bits(bits >> 2),
            _ => f64::from_bits(bits),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        /// The packed key orders entries exactly like `(cost, u, v)` with
        /// `f64::total_cmp` on the cost, and unpacks to the same bits.
        #[test]
        fn packed_key_orders_like_cost_then_ids(
            a in (0u8..6, any::<u64>(), 0u32..4, 0u32..4),
            b in (0u8..6, any::<u64>(), 0u32..4, 0u32..4),
        ) {
            let (ca, cb) = (cost_of(a.0, a.1), cost_of(b.0, b.1));
            let old = ca.total_cmp(&cb).then(a.2.cmp(&b.2)).then(a.3.cmp(&b.3));
            let (ka, kb) = (pack(ca, a.2, a.3), pack(cb, b.2, b.3));
            prop_assert_eq!(ka.cmp(&kb), old);
            let (c, u, v) = unpack(ka);
            prop_assert_eq!((c.to_bits(), u, v), (ca.to_bits(), a.2, a.3));
        }
    }

    fn fnv(h: &mut u64, bytes: &[u8]) {
        for &b in bytes {
            *h ^= b as u64;
            *h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// FNV-1a over every node field, the edge episodes, the raw costs,
    /// the roots and the root mesh.
    fn pm_digest(b: &PmBuild) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for n in &b.hierarchy.nodes {
            for w in [n.id, n.parent, n.child1, n.child2, n.wing1, n.wing2] {
                fnv(&mut h, &w.to_le_bytes());
            }
            for f in [n.pos.x, n.pos.y, n.pos.z, n.e_lo, n.e_hi] {
                fnv(&mut h, &f.to_bits().to_le_bytes());
            }
        }
        for &(a, c) in &b.edges {
            fnv(&mut h, &a.to_le_bytes());
            fnv(&mut h, &c.to_le_bytes());
        }
        for c in &b.raw_costs {
            fnv(&mut h, &c.to_bits().to_le_bytes());
        }
        for r in &b.hierarchy.roots {
            fnv(&mut h, &r.to_le_bytes());
        }
        for t in &b.hierarchy.root_mesh {
            for c in t {
                fnv(&mut h, &c.to_le_bytes());
            }
        }
        h
    }

    /// Builds pinned to the digests of the per-entry heap that the packed
    /// queue replaced: same collapses, same order, same bits.
    #[test]
    fn pinned_builds_are_bit_identical() {
        for (name, hf, digest) in [
            (
                "fractal 65²",
                generate::fractal_terrain(65, 65, 42),
                0x3840_d5e5_f4cb_386d,
            ),
            (
                "crater 65²",
                generate::crater_terrain(65, 65, 42),
                0xa7b3_4141_d3be_8022,
            ),
            (
                "fractal 129²",
                generate::fractal_terrain(129, 129, 42),
                0x7423_1399_b3cb_fe54,
            ),
        ] {
            let b = build_pm(TriMesh::from_heightfield(&hf), &PmBuildConfig::default());
            assert_eq!(pm_digest(&b), digest, "{name}: {:#018x}", pm_digest(&b));
            let st = b.stats;
            assert!(
                st.stale_pops < st.pops && st.peak_queue > 0,
                "{name}: {st:?}"
            );
            assert!(st.sweeps > 0, "{name} never swept its queue: {st:?}");
        }
    }
}
