//! End-to-end pipeline tests: heightfield → hierarchy → database →
//! queries → meshes, across all three systems.

use std::sync::Arc;

use dm_baselines::{HdovDb, PmDb};
use dm_core::{BoundaryPolicy, DirectMeshDb, DmBuildOptions, VdQuery};
use dm_geom::{Rect, Vec2};
use dm_mtm::builder::{build_pm, PmBuild, PmBuildConfig};
use dm_mtm::PlaneTarget;
use dm_storage::{BufferPool, MemStore};
use dm_terrain::{generate, metrics, obj, Heightfield, TriMesh};

/// The answer of a query that must have lost no data.
fn unwrap_clean<T>(answer: dm_storage::StorageResult<(T, dm_core::IntegrityReport)>) -> T {
    let (res, report) = answer.unwrap();
    assert!(report.is_clean(), "{report}");
    res
}

struct World {
    hf: Heightfield,
    original: TriMesh,
    pm_build: PmBuild,
    dm: DirectMeshDb,
    pm: PmDb,
    hdov: HdovDb,
}

fn world(side: usize, seed: u64) -> World {
    let hf = generate::fractal_terrain(side, side, seed);
    let mesh = TriMesh::from_heightfield(&hf);
    let original = mesh.clone();
    let pm_build = build_pm(mesh, &PmBuildConfig::default());
    let mk = || Arc::new(BufferPool::new(Box::new(MemStore::new()), 4096));
    let dm = DirectMeshDb::build(mk(), &pm_build, &DmBuildOptions::default());
    let pm = PmDb::build(mk(), &pm_build);
    let hdov = HdovDb::build(mk(), &pm_build, &hf);
    World {
        hf,
        original,
        pm_build,
        dm,
        pm,
        hdov,
    }
}

#[test]
fn all_systems_agree_on_uniform_cuts() {
    let w = world(33, 1);
    let h = &w.pm_build.hierarchy;
    for frac in [0.02, 0.1, 0.5] {
        let e = h.e_max * frac;
        let replay = h.replay_mesh(&w.original, e);
        let dm = unwrap_clean(w.dm.try_vi_query(&w.dm.bounds, e));
        let pm = w.pm.vi_query(&w.pm.bounds, e);
        assert_eq!(dm.points, replay.num_live_vertices(), "DM at {frac}");
        assert_eq!(
            pm.front.num_vertices(),
            replay.num_live_vertices(),
            "PM at {frac}"
        );
        assert_eq!(
            dm.front.num_triangles(),
            pm.front.num_triangles(),
            "DM and PM triangulations at {frac}"
        );
        // And the *same* vertex sets.
        let mut a: Vec<u32> = dm.front.vertex_ids().collect();
        let mut b: Vec<u32> = pm.front.vertex_ids().collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }
}

#[test]
fn dm_meshes_honour_the_error_bound() {
    let w = world(33, 2);
    let mut last_rmse = f64::INFINITY;
    for frac in [0.2, 0.02, 0.0] {
        let e = w.dm.e_max * frac;
        let res = unwrap_clean(w.dm.try_vi_query(&w.dm.bounds, e));
        let (mesh, _) = res.front.to_trimesh();
        mesh.validate().unwrap();
        let err = metrics::mesh_error(&mesh, &w.hf, 1);
        assert!(
            err.rmse <= last_rmse + 1e-9,
            "finer LOD must not be less accurate ({} > {last_rmse})",
            err.rmse
        );
        last_rmse = err.rmse;
    }
    assert!(last_rmse < 1e-9, "LOD 0 must reproduce the terrain exactly");
}

#[test]
fn vd_pipeline_produces_valid_gradient_meshes() {
    let w = world(33, 3);
    let roi = w.dm.bounds;
    let e_min = w.dm.e_max * 0.001;
    let q = VdQuery {
        roi,
        target: PlaneTarget {
            origin: roi.min,
            dir: Vec2::new(0.0, 1.0),
            e_min,
            slope: w.dm.e_max * 0.4 / roi.height(),
            e_max: w.dm.e_max * 0.4,
        },
    };
    let sb = unwrap_clean(w.dm.try_vd_single_base(&q, BoundaryPolicy::Skip));
    let mb = unwrap_clean(w.dm.try_vd_multi_base(&q, BoundaryPolicy::Skip, 8));
    let pm = w.pm.vd_query(&roi, &q.target);
    for (name, front) in [("SB", &sb.front), ("MB", &mb.front), ("PM", &pm.front)] {
        let (mesh, _) = front.to_trimesh();
        mesh.validate()
            .unwrap_or_else(|e| panic!("{name} mesh invalid: {e}"));
        // Denser near the viewer.
        let mid = roi.center().y;
        let near = front
            .vertex_ids()
            .filter(|&v| front.node(v).unwrap().pos.y < mid)
            .count();
        assert!(
            near * 2 > front.num_vertices(),
            "{name}: near half not denser ({near} of {})",
            front.num_vertices()
        );
    }
    // SB judges splits by node position, PM by footprint-minimum — PM
    // ends at least as fine. The fronts must stay *compatible*: every SB
    // vertex lies on a path that PM's front also crosses (as the same
    // node or a relative), i.e. both cover the same surface.
    let h = &w.pm_build.hierarchy;
    let pm_ids: Vec<u32> = pm.front.vertex_ids().collect();
    for v in sb.front.vertex_ids() {
        let ok = pm.front.contains(v) || pm_ids.iter().any(|&p| h.related(p, v));
        assert!(ok, "SB vertex {v} has no relative in the PM front");
    }
    assert!(
        pm.front.num_vertices() >= sb.front.num_vertices(),
        "footprint-driven PM cannot be coarser than position-driven SB"
    );
}

#[test]
fn hdov_covers_the_roi_with_tiles() {
    let w = world(33, 4);
    let res = w.hdov.vi_query(&w.hdov.bounds, 0.0);
    // The finest approximation is the cut at LOD 0 (zero-error collapses
    // make it slightly smaller than the raw point count).
    let full_cut = w.pm_build.hierarchy.uniform_cut(0.0).len();
    assert_eq!(
        res.points, full_cut,
        "full-res query returns the whole LOD-0 cut"
    );
    let sub = Rect::new(w.hdov.bounds.min, w.hdov.bounds.center());
    let part = w.hdov.vi_query(&sub, 0.0);
    assert!(part.points < res.points);
    assert!(
        part.points >= full_cut / 5,
        "quarter ROI needs roughly a quarter of points"
    );
}

#[test]
fn obj_export_of_query_results_is_well_formed() {
    let w = world(17, 5);
    let res = unwrap_clean(w.dm.try_vi_query(&w.dm.bounds, w.dm.e_max * 0.05));
    let (mesh, _) = res.front.to_trimesh();
    let text = obj::to_obj_string(&mesh);
    let vs = text.lines().filter(|l| l.starts_with("v ")).count();
    let fs = text.lines().filter(|l| l.starts_with("f ")).count();
    assert_eq!(vs, mesh.num_live_vertices());
    assert_eq!(fs, mesh.num_live_triangles());
}

#[test]
fn disk_access_accounting_is_deterministic() {
    let w = world(33, 6);
    let roi = Rect::centered_square(w.dm.bounds.center(), w.dm.bounds.width() * 0.4);
    let e = w.dm.e_max * 0.05;
    let runs: Vec<u64> = (0..3)
        .map(|_| {
            w.dm.try_cold_start().unwrap();
            let _ = unwrap_clean(w.dm.try_vi_query(&roi, e));
            w.dm.disk_accesses()
        })
        .collect();
    assert!(
        runs.windows(2).all(|w| w[0] == w[1]),
        "cold-start runs must repeat: {runs:?}"
    );
}
