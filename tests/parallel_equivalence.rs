//! Property-based equivalence: the parallel batch engine must return
//! results bit-identical to sequential execution — same point sets, same
//! face sets, same fetched-record counts — for arbitrary query batches,
//! on a clean database and on one whose store injects transient faults
//! (which the buffer pool's retry budget heals, so degraded semantics
//! never actually lose data).

use std::sync::{Arc, OnceLock};

use dm_core::parallel::{vd_query_batch, vi_query_batch};
use dm_core::{BoundaryPolicy, DirectMeshDb, DmBuildOptions, VdQuery};
use dm_geom::{Rect, Vec2};
use dm_mtm::builder::{build_pm, PmBuildConfig};
use dm_mtm::PlaneTarget;
use dm_storage::{BufferPool, FaultConfig, FaultInjector, MemStore};
use dm_terrain::{generate, TriMesh};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn build_db(faulty: bool) -> DirectMeshDb {
    let hf = generate::fractal_terrain(21, 21, 77);
    let pm = build_pm(TriMesh::from_heightfield(&hf), &PmBuildConfig::default());
    let store: Box<dyn dm_storage::store::PageStore> = if faulty {
        // 1% transient read failures plus occasional bit flips; with a
        // 16-retry budget every fault heals, so parallel and sequential
        // runs see identical data despite different fault interleavings.
        Box::new(FaultInjector::new(
            Box::new(MemStore::new()),
            FaultConfig::new(9)
                .with_read_fail_rate(0.01)
                .with_bit_flip_rate(0.002),
        ))
    } else {
        Box::new(MemStore::new())
    };
    let pool = Arc::new(BufferPool::new(store, 4096).with_max_retries(16));
    DirectMeshDb::build(pool, &pm, &DmBuildOptions::default())
}

fn clean_db() -> &'static DirectMeshDb {
    static DB: OnceLock<DirectMeshDb> = OnceLock::new();
    DB.get_or_init(|| build_db(false))
}

fn faulty_db() -> &'static DirectMeshDb {
    static DB: OnceLock<DirectMeshDb> = OnceLock::new();
    DB.get_or_init(|| build_db(true))
}

/// Canonical form of a front mesh: sorted vertex ids and the face set
/// with normalized vertex order.
fn mesh_signature(front: &dm_mtm::FrontMesh) -> (Vec<u32>, Vec<[u32; 3]>) {
    let mut ids: Vec<u32> = front.vertex_ids().collect();
    ids.sort_unstable();
    let mut tris: Vec<[u32; 3]> = front
        .triangles()
        .map(|mut t| {
            t.sort_unstable();
            t
        })
        .collect();
    tris.sort_unstable();
    (ids, tris)
}

fn random_vi_batch(db: &DirectMeshDb, seed: u64, n: usize) -> Vec<(Rect, f64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let b = db.bounds;
    (0..n)
        .map(|_| {
            let e = db.e_max * rng.random_range(0.0..0.7f64).powi(2);
            let side = rng.random_range(b.width() * 0.2..b.width());
            let cx = rng.random_range(b.min.x..b.max.x);
            let cy = rng.random_range(b.min.y..b.max.y);
            let roi = Rect::from_corners(
                Vec2::new(cx - side / 2.0, cy - side / 2.0),
                Vec2::new(cx + side / 2.0, cy + side / 2.0),
            );
            (roi, e)
        })
        .collect()
}

fn random_vd_batch(db: &DirectMeshDb, seed: u64, n: usize) -> Vec<VdQuery> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD1CE);
    let b = db.bounds;
    (0..n)
        .map(|_| {
            let side = rng.random_range(b.width() * 0.3..b.width());
            let x0 = rng.random_range(b.min.x..(b.max.x - side).max(b.min.x + 1e-9));
            let y0 = rng.random_range(b.min.y..(b.max.y - side).max(b.min.y + 1e-9));
            let roi = Rect::from_corners(Vec2::new(x0, y0), Vec2::new(x0 + side, y0 + side));
            let e_min = db.e_max * rng.random_range(0.005..0.05);
            let run = roi.height().max(1e-9);
            let slope = (db.e_max / run) * rng.random_range(0.1..0.9);
            VdQuery {
                roi,
                target: PlaneTarget {
                    origin: roi.min,
                    dir: Vec2::new(0.0, 1.0),
                    e_min,
                    slope,
                    e_max: (e_min + slope * run).min(db.e_max),
                },
            }
        })
        .collect()
}

fn check_vi_equivalence(db: &DirectMeshDb, seed: u64, n: usize, threads: usize) {
    let batch = random_vi_batch(db, seed, n);
    let seq: Vec<_> = batch.iter().map(|(r, e)| db.try_vi_query(r, *e)).collect();
    let par = vi_query_batch(db, &batch, threads);
    assert_eq!(seq.len(), par.len());
    for (i, (s, p)) in seq.iter().zip(&par).enumerate() {
        let (sr, s_rep) = s.as_ref().expect("faults must heal within budget");
        let (pr, p_rep) = p.as_ref().expect("faults must heal within budget");
        assert!(s_rep.is_clean() && p_rep.is_clean(), "query {i} lost data");
        assert_eq!(sr.fetched_records, pr.fetched_records, "query {i} fetch");
        assert_eq!(sr.points, pr.points, "query {i} points");
        assert_eq!(
            mesh_signature(&sr.front),
            mesh_signature(&pr.front),
            "query {i} mesh"
        );
    }
}

fn check_vd_equivalence(db: &DirectMeshDb, seed: u64, n: usize, threads: usize) {
    let batch = random_vd_batch(db, seed, n);
    let seq: Vec<_> = batch
        .iter()
        .map(|q| db.try_vd_single_base(q, BoundaryPolicy::Skip))
        .collect();
    let par = vd_query_batch(db, &batch, BoundaryPolicy::Skip, threads);
    for (i, (s, p)) in seq.iter().zip(&par).enumerate() {
        let (sr, s_rep) = s.as_ref().expect("faults must heal within budget");
        let (pr, p_rep) = p.as_ref().expect("faults must heal within budget");
        assert!(s_rep.is_clean() && p_rep.is_clean(), "query {i} lost data");
        assert_eq!(sr.fetched_records, pr.fetched_records, "query {i} fetch");
        assert_eq!(
            mesh_signature(&sr.front),
            mesh_signature(&pr.front),
            "query {i} mesh"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn parallel_vi_batch_equals_sequential(
        seed in 0u64..10_000,
        n in 1usize..12,
        threads in 2usize..6,
    ) {
        check_vi_equivalence(clean_db(), seed, n, threads);
    }

    #[test]
    fn parallel_vd_batch_equals_sequential(
        seed in 0u64..10_000,
        n in 1usize..8,
        threads in 2usize..6,
    ) {
        check_vd_equivalence(clean_db(), seed, n, threads);
    }

    #[test]
    fn parallel_batches_survive_fault_injection_identically(
        seed in 0u64..10_000,
        n in 1usize..8,
        threads in 2usize..6,
    ) {
        // 1% transient read faults + bit flips, 16-retry budget: faults
        // heal, so the parallel results must still be identical to the
        // sequential ones even though the fault stream interleaves
        // differently across workers.
        check_vi_equivalence(faulty_db(), seed, n, threads);
        check_vd_equivalence(faulty_db(), seed, n.min(4), threads);
    }
}
