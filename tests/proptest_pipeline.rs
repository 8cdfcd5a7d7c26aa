//! Property-based cross-system tests: for arbitrary terrains and query
//! parameters, all three systems must agree with the in-memory reference
//! semantics and with each other.

use std::sync::Arc;

use dm_baselines::PmDb;
use dm_core::{DirectMeshDb, DmBuildOptions};
use dm_geom::{Rect, Vec2};
use dm_mtm::builder::{build_pm, PmBuild, PmBuildConfig};
use dm_storage::{BufferPool, MemStore};
use dm_terrain::{generate, TriMesh};
use proptest::prelude::*;

/// The answer of a query that must have lost no data.
fn unwrap_clean<T>(answer: dm_storage::StorageResult<(T, dm_core::IntegrityReport)>) -> T {
    let (res, report) = answer.unwrap();
    assert!(report.is_clean(), "{report}");
    res
}

fn setup(side: usize, seed: u64) -> (PmBuild, DirectMeshDb, PmDb) {
    let hf = generate::fractal_terrain(side, side, seed);
    let pm = build_pm(TriMesh::from_heightfield(&hf), &PmBuildConfig::default());
    let mk = || Arc::new(BufferPool::new(Box::new(MemStore::new()), 2048));
    let dm = DirectMeshDb::build(mk(), &pm, &DmBuildOptions::default());
    let pmdb = PmDb::build(mk(), &pm);
    (pm, dm, pmdb)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn dm_and_pm_agree_with_the_cut_on_random_inputs(
        seed in 0u64..10_000,
        side in 9usize..16,
        e_frac in 0.0..0.8f64,
        roi_frac in 0.3..1.0f64,
    ) {
        let (pm, dm, pmdb) = setup(side, seed);
        let h = &pm.hierarchy;
        let e = h.e_max * e_frac * e_frac; // quadratic bias toward fine
        let roi = Rect::centered_square(
            dm.bounds.center(),
            dm.bounds.width() * roi_frac,
        );
        // Reference: the uniform cut restricted to the ROI.
        let mut want: Vec<u32> = h
            .uniform_cut(e)
            .into_iter()
            .filter(|&id| roi.contains(h.node(id).pos.xy()))
            .collect();
        want.sort_unstable();

        let res = unwrap_clean(dm.try_vi_query(&roi, e));
        let mut got: Vec<u32> = res.front.vertex_ids().collect();
        got.sort_unstable();
        prop_assert_eq!(&got, &want, "DM vs cut");

        // The PM baseline refines to the same answer except near the ROI
        // boundary, where out-of-ROI context stays coarse and a split can
        // be geometrically blocked (the paper's selective refinement
        // simply doesn't validate). Every cut member must be present or
        // covered by an active ancestor, and deficits must stay small.
        let pres = pmdb.vi_query(&roi, e);
        let pm_ids: std::collections::HashSet<u32> = pres
            .front
            .vertex_ids()
            .filter(|&v| {
                let n = pres.front.node(v).unwrap();
                roi.contains(n.pos.xy()) && n.interval().contains(e)
            })
            .collect();
        let mut missing = 0usize;
        for &id in &want {
            if pm_ids.contains(&id) {
                continue;
            }
            missing += 1;
            // An ancestor must still cover the spot (coarser boundary).
            let mut cur = id;
            let mut covered = false;
            loop {
                let p = h.node(cur).parent;
                if p == dm_mtm::NIL_ID {
                    break;
                }
                if pres.front.contains(p) {
                    covered = true;
                    break;
                }
                cur = p;
            }
            prop_assert!(covered, "cut node {id} neither present nor covered");
        }
        prop_assert!(
            missing <= want.len() / 3 + 3,
            "PM missed too many cut members: {missing} of {}",
            want.len()
        );
    }

    #[test]
    fn vi_meshes_are_always_valid(
        seed in 0u64..10_000,
        e_frac in 0.0..1.0f64,
        cx in 0.2..0.8f64,
        cy in 0.2..0.8f64,
        side_frac in 0.2..0.9f64,
    ) {
        let (pm, dm, _) = setup(11, seed);
        let e = pm.hierarchy.e_max * e_frac;
        let b = dm.bounds;
        let center = Vec2::new(
            b.min.x + cx * b.width(),
            b.min.y + cy * b.height(),
        );
        let roi = Rect::centered_square(center, b.width() * side_frac)
            .intersection(&b);
        if roi.is_empty() {
            return Ok(());
        }
        let res = unwrap_clean(dm.try_vi_query(&roi, e));
        let (mesh, _) = res.front.to_trimesh();
        prop_assert!(mesh.validate().is_ok(), "{:?}", mesh.validate());
    }
}
