//! Property-style equivalence tests: the Direct Mesh query results must
//! match the in-memory reference semantics for arbitrary (ROI, LOD)
//! combinations, and the query algorithms must agree with each other.

use std::sync::Arc;

use dm_core::{BoundaryPolicy, DirectMeshDb, DmBuildOptions, FetchCounters, VdQuery};
use dm_geom::{Rect, Vec2};
use dm_mtm::builder::{build_pm, PmBuild, PmBuildConfig};
use dm_mtm::refine::LodTarget;
use dm_mtm::PlaneTarget;
use dm_net::{canonical_flat, canonical_mesh};
use dm_storage::{BufferPool, MemStore};
use dm_terrain::{generate, TriMesh};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn setup(seed: u64) -> (PmBuild, DirectMeshDb) {
    let hf = generate::fractal_terrain(21, 21, seed);
    let pm = build_pm(TriMesh::from_heightfield(&hf), &PmBuildConfig::default());
    let pool = Arc::new(BufferPool::new(Box::new(MemStore::new()), 4096));
    let db = DirectMeshDb::build(pool, &pm, &DmBuildOptions::default());
    (pm, db)
}

#[test]
fn vi_query_equals_cut_for_random_roi_lod() {
    let (pm, db) = setup(11);
    let h = &pm.hierarchy;
    let mut rng = StdRng::seed_from_u64(1);
    for trial in 0..40 {
        let e = h.e_max * rng.random_range(0.0..0.6f64).powi(2);
        let cx = rng.random_range(db.bounds.min.x..db.bounds.max.x);
        let cy = rng.random_range(db.bounds.min.y..db.bounds.max.y);
        let side = rng.random_range(2.0..db.bounds.width());
        let roi = Rect::from_corners(
            Vec2::new(cx - side / 2.0, cy - side / 2.0),
            Vec2::new(cx + side / 2.0, cy + side / 2.0),
        );
        let res = db.vi_query(&roi, e);
        let mut got: Vec<u32> = res.front.vertex_ids().collect();
        let mut want: Vec<u32> = h
            .uniform_cut(e)
            .into_iter()
            .filter(|&id| roi.contains(h.node(id).pos.xy()))
            .collect();
        got.sort();
        want.sort();
        assert_eq!(got, want, "trial {trial}: roi {roi:?}, e {e}");
    }
}

/// The cut emits its faces in the wire's canonical order, so
/// canonicalising the flat answer changes nothing; and the
/// [`dm_mtm::FrontMesh`] built from the same parts canonicalises to that
/// same mesh. Same sweep as [`vi_query_equals_cut_for_random_roi_lod`].
#[test]
fn vi_faces_leave_the_cut_canonical() {
    let (pm, db) = setup(11);
    let h = &pm.hierarchy;
    let mut rng = StdRng::seed_from_u64(1);
    for trial in 0..40 {
        let e = h.e_max * rng.random_range(0.0..0.6f64).powi(2);
        let cx = rng.random_range(db.bounds.min.x..db.bounds.max.x);
        let cy = rng.random_range(db.bounds.min.y..db.bounds.max.y);
        let side = rng.random_range(2.0..db.bounds.width());
        let roi = Rect::from_corners(
            Vec2::new(cx - side / 2.0, cy - side / 2.0),
            Vec2::new(cx + side / 2.0, cy + side / 2.0),
        );
        let (flat, report) = db
            .try_vi_query_flat_counted(&roi, e, &mut FetchCounters::default())
            .unwrap();
        assert!(report.is_clean());
        let (vertices, faces) = canonical_flat(&flat.nodes, &flat.faces);
        assert_eq!(
            faces, flat.faces,
            "trial {trial}: faces left the cut unsorted"
        );
        let (res, _) = db.try_vi_query(&roi, e).unwrap();
        assert_eq!(
            canonical_mesh(&res.front),
            (vertices, faces),
            "trial {trial}: the front is another mesh"
        );
    }
}

#[test]
fn vi_triangles_never_leave_the_roi_or_violate_lod() {
    let (pm, db) = setup(13);
    let h = &pm.hierarchy;
    let mut rng = StdRng::seed_from_u64(2);
    for _ in 0..20 {
        let e = h.e_max * rng.random_range(0.001..0.3);
        let side = rng.random_range(db.bounds.width() * 0.3..db.bounds.width() * 0.8);
        let roi = Rect::from_corners(
            db.bounds.min,
            Vec2::new(db.bounds.min.x + side, db.bounds.min.y + side),
        );
        let res = db.vi_query(&roi, e);
        for id in res.front.vertex_ids() {
            let n = res.front.node(id).unwrap();
            assert!(roi.contains(n.pos.xy()));
            assert!(
                n.interval().contains(e),
                "vertex {id} not part of the LOD-{e} cut"
            );
        }
        let (mesh, _) = res.front.to_trimesh();
        mesh.validate().expect("VI mesh structurally valid");
    }
}

#[test]
fn single_base_satisfies_plane_targets_for_random_queries() {
    let (_, db) = setup(17);
    let mut rng = StdRng::seed_from_u64(3);
    for trial in 0..15 {
        let angle = rng.random_range(0.05..0.95);
        let e_min = db.e_max * rng.random_range(0.0001..0.01);
        let run = db.bounds.height();
        let slope = db.e_max / run * angle;
        let q = VdQuery {
            roi: db.bounds,
            target: PlaneTarget {
                origin: db.bounds.min,
                dir: Vec2::new(0.0, 1.0),
                e_min,
                slope,
                e_max: (e_min + slope * run).min(db.e_max),
            },
        };
        let res = db.vd_single_base(&q, BoundaryPolicy::Skip);
        assert_eq!(
            res.refine.blocked, 0,
            "trial {trial}: full-ROI query must not block"
        );
        for id in res.front.vertex_ids() {
            let n = res.front.node(id).unwrap();
            assert!(
                n.is_leaf() || n.e_lo <= q.target.required(n.pos.x, n.pos.y) + 1e-9,
                "trial {trial}: vertex {id} violates the plane"
            );
        }
        let (mesh, _) = res.front.to_trimesh();
        mesh.validate().unwrap();
    }
}

#[test]
fn multi_base_converges_to_single_base_answers() {
    // MB assembles the front directly from the fetched union (each node
    // judged at its own position), SB refines top-down (each split judged
    // at the parent's position). The fronts agree except where merged
    // vertex positions drift across a steep plane — negligible at real
    // scales, visible on toy hierarchies, hence moderate angles here.
    let hf = generate::fractal_terrain(33, 33, 19);
    let pm = build_pm(TriMesh::from_heightfield(&hf), &PmBuildConfig::default());
    let pool = Arc::new(BufferPool::new(Box::new(MemStore::new()), 4096));
    let db = DirectMeshDb::build(pool, &pm, &DmBuildOptions::default());
    let mut rng = StdRng::seed_from_u64(4);
    let mut total_union = 0usize;
    let mut total_inter = 0usize;
    for _ in 0..10 {
        let angle = rng.random_range(0.15..0.5);
        let e_min = db.e_max * 0.001;
        let run = db.bounds.height();
        let slope = db.e_max / run * angle;
        let q = VdQuery {
            roi: db.bounds,
            target: PlaneTarget {
                origin: db.bounds.min,
                dir: Vec2::new(0.0, 1.0),
                e_min,
                slope,
                e_max: (e_min + slope * run).min(db.e_max),
            },
        };
        let sb = db.vd_single_base(&q, BoundaryPolicy::Skip);
        let mb = db.vd_multi_base(&q, BoundaryPolicy::Skip, 8);
        assert!(mb.fetched_records <= sb.fetched_records);
        let (mesh, _) = mb.front.to_trimesh();
        mesh.validate().expect("MB mesh structurally valid");
        let a: std::collections::HashSet<u32> = sb.front.vertex_ids().collect();
        let b: std::collections::HashSet<u32> = mb.front.vertex_ids().collect();
        total_inter += a.intersection(&b).count();
        total_union += a.union(&b).count();
    }
    let jaccard = total_inter as f64 / total_union as f64;
    // MB seeds from the staircase fetch, SB from the full cube; their
    // fronts coincide except where the different seed levels leave
    // different (equally valid) anti-chains near strip boundaries.
    assert!(jaccard > 0.7, "MB diverges from SB overall: {jaccard:.3}");
}

#[test]
fn fetch_on_miss_only_adds_refinement() {
    let (_, db) = setup(23);
    let roi = Rect::centered_square(db.bounds.center(), db.bounds.width() * 0.4);
    let q = VdQuery {
        roi,
        target: PlaneTarget {
            origin: roi.min,
            dir: Vec2::new(0.0, 1.0),
            e_min: db.e_max * 0.0005,
            slope: db.e_max * 0.3 / roi.height(),
            e_max: db.e_max * 0.3,
        },
    };
    let skip = db.vd_single_base(&q, BoundaryPolicy::Skip);
    let fetch = db.vd_single_base(&q, BoundaryPolicy::FetchOnMiss);
    let a: std::collections::HashSet<u32> = skip.front.vertex_ids().collect();
    let b: std::collections::HashSet<u32> = fetch.front.vertex_ids().collect();
    // Fetch-on-miss refines strictly further: no active vertex of `fetch`
    // is an ancestor of an active vertex of `skip`.
    assert!(b.len() >= a.len());
    let (mesh_a, _) = skip.front.to_trimesh();
    let (mesh_b, _) = fetch.front.to_trimesh();
    mesh_a.validate().unwrap();
    mesh_b.validate().unwrap();
}
