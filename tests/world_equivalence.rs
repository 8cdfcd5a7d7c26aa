//! Cross-tile ≡ single-store equivalence: a world split 2×2 out of one
//! database must answer VI and VD queries **bit-identically** to that
//! database — for ROIs that cross the tile seams, at any LOD, under
//! either boundary policy — because the world path fetches with the
//! same boxes and feeds the merged records through the exact
//! single-store assembly code.
//!
//! A second group serves the same contract under adversity: 1% transient
//! read faults on every tile store and a degraded open of one tile must
//! still produce bit-identical answers whenever the query reports clean
//! (retries healed every fault), and valid degraded meshes otherwise.
//!
//! A walkthrough is held to it too: one `NavigationSession` type walks
//! either host, and over a world its every frame is a fresh cross-tile
//! query's answer and the unsplit store's.

use std::sync::Arc;

use std::collections::BTreeSet;

use dm_core::navigation::waypoint_path;
use dm_core::query::{plan_multi_base, uniform_cut, vd_with_strips, RecordStore};
use dm_core::{
    BoundaryPolicy, DirectMeshDb, DmBuildOptions, FetchCounters, FetchedSet, IntegrityReport,
    NavigationSession, VdQuery,
};
use dm_geom::{Box3, Rect, Vec2};
use dm_mtm::builder::{build_pm, PmBuildConfig};
use dm_net::canonical_flat;
use dm_storage::{BufferPool, FaultConfig, MemStore};
use dm_terrain::{generate, TriMesh};
use dm_world::{split_world_in_memory, write_split_world, RegionMeta, WorldDb, WorldOptions};
use proptest::prelude::*;

fn build_db(side: usize, seed: u64) -> DirectMeshDb {
    let hf = generate::fractal_terrain(side, side, seed);
    let pm = build_pm(TriMesh::from_heightfield(&hf), &PmBuildConfig::default());
    let pool = Arc::new(BufferPool::new(Box::new(MemStore::new()), 8192));
    DirectMeshDb::build(pool, &pm, &DmBuildOptions::default())
}

/// An ROI guaranteed to straddle both seams of a 2×2 split: corners on
/// opposite sides of the midlines in both axes.
fn seam_roi(b: Rect, fx0: f64, fy0: f64, fx1: f64, fy1: f64) -> Rect {
    let at = |f: f64, lo: f64, span: f64| lo + f * span;
    Rect::from_corners(
        Vec2::new(at(fx0, b.min.x, b.width()), at(fy0, b.min.y, b.height())),
        Vec2::new(at(fx1, b.min.x, b.width()), at(fy1, b.min.y, b.height())),
    )
}

fn vd_query(db_e_max: f64, roi: Rect, eye: Vec2) -> VdQuery {
    VdQuery::from_viewpoint(roi, eye, db_e_max / 40.0, db_e_max)
}

fn mesh_fingerprint(front: &dm_mtm::FrontMesh) -> (Vec<u32>, Vec<[f64; 3]>, Vec<[u32; 3]>) {
    let (mesh, ids) = front.to_trimesh();
    let verts = mesh
        .live_vertices()
        .map(|v| {
            let p = mesh.position(v);
            [p.x, p.y, p.z]
        })
        .collect();
    let tris = mesh.live_triangles().map(|t| mesh.triangle(t)).collect();
    (ids, verts, tris)
}

/// A front's vertex ids and its faces, each face rotated to lead with
/// its smallest id.
fn front_sets(front: &dm_mtm::FrontMesh) -> (BTreeSet<u32>, BTreeSet<[u32; 3]>) {
    let faces = front
        .triangles()
        .map(|mut t| {
            let k = (0..3).min_by_key(|&i| t[i]).unwrap();
            t.rotate_left(k);
            t
        })
        .collect();
    (front.vertex_ids().collect(), faces)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// One session type for both hosts: a `NavigationSession` over a 2×2
    /// split world walks a random waypoint path, and every frame has the
    /// vertex and face sets of a fresh cross-tile query and of the same
    /// session over the unsplit store, under either boundary policy. The
    /// same walk over the tiles behind 1% transient read faults (opened
    /// degraded) must agree on every frame that reports clean.
    #[test]
    fn world_session_equals_fresh_and_unsplit(
        terrain_seed in 0u64..1_000,
        fault_seed in 0u64..1_000,
        side in 17usize..28,
        fracs in collection::vec((0.1..0.9f64, 0.1..0.9f64), 2..5),
        window_frac in 0.25..0.6f64,
        frames in 3usize..8,
    ) {
        let db = build_db(side, terrain_seed);
        let world = split_world_in_memory(
            &db, 2, 2, 4096, &DmBuildOptions::default(), WorldOptions::default(),
        ).unwrap();
        let dir = std::env::temp_dir().join(format!(
            "dm_world_session_{}_{terrain_seed}_{fault_seed}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let manifest = write_split_world(&db, 2, 2, &dir, &DmBuildOptions::default()).unwrap();
        let faulty = WorldDb::open(
            &manifest,
            WorldOptions {
                degraded: true,
                fault: Some(FaultConfig::new(fault_seed).with_read_fail_rate(0.01)),
                ..WorldOptions::default()
            },
        )
        .unwrap();
        let b = db.bounds;
        let pts: Vec<Vec2> = fracs
            .iter()
            .map(|&(fx, fy)| Vec2::new(b.min.x + fx * b.width(), b.min.y + fy * b.height()))
            .collect();
        let window = b.width().min(b.height()) * window_frac;
        let path = waypoint_path(&pts, window, frames);
        for policy in [BoundaryPolicy::Skip, BoundaryPolicy::FetchOnMiss] {
            let mut tiled = NavigationSession::new(&world, policy);
            let mut unsplit = NavigationSession::new(&db, policy);
            let mut wounded = NavigationSession::new(&faulty, policy);
            for roi in &path {
                // The viewer half a window south of the ROI, looking north.
                let eye = Vec2::new(roi.center().x, roi.min.y - window / 2.0);
                let q = vd_query(db.e_max, *roi, eye);
                let (_, report) = tiled.try_move_to(&q).unwrap();
                prop_assert!(report.is_clean());
                let (_, report) = unsplit.try_move_to(&q).unwrap();
                prop_assert!(report.is_clean());
                let (fresh, report) = world
                    .try_vd_query_counted(&q, policy, 16, &mut FetchCounters::default())
                    .unwrap();
                prop_assert!(report.is_clean());
                let want = front_sets(&fresh.front);
                prop_assert_eq!(&front_sets(tiled.front()), &want, "world session ≠ fresh under {:?}", policy);
                prop_assert_eq!(&front_sets(unsplit.front()), &want, "unsplit session ≠ fresh under {:?}", policy);
                // A faulted frame that failed or lost data is waived;
                // a failed one leaves the session as it was.
                if let Ok((_, report)) = wounded.try_move_to(&q) {
                    if report.is_clean() {
                        prop_assert_eq!(&front_sets(wounded.front()), &want, "healed session ≠ fresh under {:?}", policy);
                    }
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// VI across the seam: the tiled world returns the exact node and
    /// face vectors of the single store, at every sampled LOD.
    #[test]
    fn vi_across_seams_is_bit_identical(
        terrain_seed in 0u64..10_000,
        side in 17usize..28,
        fx0 in 0.05..0.45f64,
        fy0 in 0.05..0.45f64,
        fx1 in 0.55..0.95f64,
        fy1 in 0.55..0.95f64,
        frac in 0.05..0.95f64,
    ) {
        let db = build_db(side, terrain_seed);
        let world = split_world_in_memory(
            &db, 2, 2, 4096, &DmBuildOptions::default(), WorldOptions::default(),
        ).unwrap();
        let roi = seam_roi(db.bounds, fx0, fy0, fx1, fy1);
        let e = db.e_for_points_fraction(frac);
        let mut c1 = FetchCounters::default();
        let mut c2 = FetchCounters::default();
        let (single, r1) = db.try_vi_query_flat_counted(&roi, e, &mut c1).unwrap();
        let (tiled, r2) = world.try_vi_query_flat_counted(&roi, e, &mut c2).unwrap();
        prop_assert!(r1.is_clean() && r2.is_clean());
        prop_assert_eq!(&single.nodes, &tiled.nodes, "vertex sets differ across the seam");
        prop_assert_eq!(&single.faces, &tiled.faces, "face sets differ across the seam");
        prop_assert_eq!(single.fetched_records, tiled.fetched_records);
    }

    /// VD across the seam: with the world's own strip plan, both paths
    /// produce the same front — identical vertex ids, bit-identical
    /// positions, identical triangles — under either boundary policy.
    #[test]
    fn vd_across_seams_is_bit_identical(
        terrain_seed in 0u64..10_000,
        side in 17usize..28,
        fx0 in 0.05..0.45f64,
        fy0 in 0.05..0.45f64,
        fx1 in 0.55..0.95f64,
        fy1 in 0.55..0.95f64,
        eye_fx in -0.2..1.2f64,
        eye_fy in -0.2..1.2f64,
        fetch_on_miss in any::<bool>(),
        max_cubes in 4usize..16,
    ) {
        let db = build_db(side, terrain_seed);
        let world = split_world_in_memory(
            &db, 2, 2, 4096, &DmBuildOptions::default(), WorldOptions::default(),
        ).unwrap();
        let roi = seam_roi(db.bounds, fx0, fy0, fx1, fy1);
        let eye = Vec2::new(
            db.bounds.min.x + eye_fx * db.bounds.width(),
            db.bounds.min.y + eye_fy * db.bounds.height(),
        );
        let q = vd_query(db.e_max, roi, eye);
        let policy = if fetch_on_miss {
            BoundaryPolicy::FetchOnMiss
        } else {
            BoundaryPolicy::Skip
        };
        // One strip plan for both sides: the planner sees the same ROI
        // and viewpoint either way, and a shared plan makes the record
        // unions comparable strip by strip.
        let strips = plan_multi_base(&world.scoped(None), &q, max_cubes).unwrap();
        let mut c1 = FetchCounters::default();
        let mut c2 = FetchCounters::default();
        let (single, r1) = vd_with_strips(&db, &q, policy, &strips, &mut c1).unwrap();
        let (tiled, r2) =
            vd_with_strips(&world.scoped(None), &q, policy, &strips, &mut c2).unwrap();
        prop_assert!(r1.is_clean() && r2.is_clean());
        prop_assert_eq!(single.fetched_records, tiled.fetched_records);
        let (ids1, verts1, tris1) = mesh_fingerprint(&single.front);
        let (ids2, verts2, tris2) = mesh_fingerprint(&tiled.front);
        prop_assert_eq!(ids1, ids2, "vertex ids differ under {:?}", policy);
        // f64 equality here is deliberate: positions must match to the
        // last bit, not within a tolerance.
        prop_assert_eq!(verts1, verts2, "positions differ under {:?}", policy);
        prop_assert_eq!(tris1, tris2, "triangles differ under {:?}", policy);
    }

    /// Planner included: a one-region world over the whole terrain
    /// (offset 0, `id_base` 0) runs the store's own planner and
    /// assemble-refine tail over the query seam, so it plans the same
    /// strips and answers with the same cubes, mesh, fetch count and
    /// fetch counters as the store itself.
    #[test]
    fn one_region_world_plans_and_answers_like_the_store(
        terrain_seed in 0u64..10_000,
        side in 17usize..28,
        fx0 in 0.05..0.45f64,
        fy0 in 0.05..0.45f64,
        fx1 in 0.55..0.95f64,
        fy1 in 0.55..0.95f64,
        eye_fx in -0.2..1.2f64,
        eye_fy in -0.2..1.2f64,
        fetch_on_miss in any::<bool>(),
        max_cubes in 1usize..16,
    ) {
        let db = build_db(side, terrain_seed);
        let meta = RegionMeta {
            id: 0,
            id_base: 0,
            n_records: db.n_records as u32,
            offset: Vec2::new(0.0, 0.0),
            bounds: db.bounds,
            e_max: db.e_max,
            path: std::path::PathBuf::new(),
        };
        let world = WorldDb::from_regions(
            vec![(meta, build_db(side, terrain_seed))],
            WorldOptions::default(),
        )
        .unwrap();
        let roi = seam_roi(db.bounds, fx0, fy0, fx1, fy1);
        let eye = Vec2::new(
            db.bounds.min.x + eye_fx * db.bounds.width(),
            db.bounds.min.y + eye_fy * db.bounds.height(),
        );
        let q = vd_query(db.e_max, roi, eye);
        let policy = if fetch_on_miss {
            BoundaryPolicy::FetchOnMiss
        } else {
            BoundaryPolicy::Skip
        };
        prop_assert_eq!(
            db.plan_multi_base(&q, max_cubes),
            plan_multi_base(&world.scoped(None), &q, max_cubes).unwrap(),
            "the two sides planned different strips"
        );
        let mut c1 = FetchCounters::default();
        let mut c2 = FetchCounters::default();
        let (single, r1) = db
            .try_vd_multi_base_counted(&q, policy, max_cubes, &mut c1)
            .unwrap();
        let (tiled, r2) = world
            .try_vd_query_counted(&q, policy, max_cubes, &mut c2)
            .unwrap();
        prop_assert!(r1.is_clean() && r2.is_clean());
        prop_assert_eq!(&single.cubes, &tiled.cubes);
        prop_assert_eq!(single.fetched_records, tiled.fetched_records);
        prop_assert_eq!(single.boundary_fetches, tiled.boundary_fetches);
        prop_assert_eq!(c1, c2, "fetch counters differ under {:?}", policy);
        prop_assert_eq!(
            mesh_fingerprint(&single.front),
            mesh_fingerprint(&tiled.front),
            "meshes differ under {:?}",
            policy
        );
    }

    /// The same seam queries with every tile store behind a 1% transient
    /// fault injector and the world opened degraded: a run whose report
    /// is clean (retries healed every fault) must still be bit-identical
    /// to the pristine single store; a degraded run must report its
    /// losses and still assemble a valid mesh.
    #[test]
    fn faulted_degraded_world_heals_to_bit_identical(
        terrain_seed in 0u64..1_000,
        fault_seed in 0u64..1_000,
        fx0 in 0.1..0.4f64,
        fy0 in 0.1..0.4f64,
        fx1 in 0.6..0.9f64,
        fy1 in 0.6..0.9f64,
        frac in 0.1..0.6f64,
    ) {
        let db = build_db(17, terrain_seed);
        let dir = std::env::temp_dir().join(format!(
            "dm_world_eq_{}_{terrain_seed}_{fault_seed}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let manifest = write_split_world(&db, 2, 2, &dir, &DmBuildOptions::default()).unwrap();
        let world = WorldDb::open(
            &manifest,
            WorldOptions {
                degraded: true,
                fault: Some(FaultConfig::new(fault_seed).with_read_fail_rate(0.01)),
                ..WorldOptions::default()
            },
        )
        .unwrap();
        let roi = seam_roi(db.bounds, fx0, fy0, fx1, fy1);
        let e = db.e_for_points_fraction(frac);
        let mut c = FetchCounters::default();
        match world.try_vi_query_flat_counted(&roi, e, &mut c) {
            Ok((tiled, report)) if report.is_clean() => {
                let mut c1 = FetchCounters::default();
                let (single, r1) = db.try_vi_query_flat_counted(&roi, e, &mut c1).unwrap();
                prop_assert!(r1.is_clean());
                prop_assert_eq!(&single.nodes, &tiled.nodes);
                prop_assert_eq!(&single.faces, &tiled.faces);
            }
            Ok((tiled, report)) => {
                // Degraded: losses are reported, never silent, and the
                // surviving records still form a coherent answer.
                prop_assert!(report.pages_lost > 0 || !report.errors.is_empty());
                prop_assert!(!tiled.nodes.is_empty());
            }
            // An index-page read that exhausted its retries aborts the
            // query with a typed error; nothing to compare.
            Err(_) => {}
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A request's disk accesses are the request's, whatever the fan-out
/// width: region fetches that ran on `par_map` workers credit their
/// reads to the requesting thread, so cold VI and VD answers carry the
/// same `thread_reads` delta (what the server reports as
/// `disk_accesses`), fetch counters and meshes at `threads` 1 and 4.
#[test]
fn cold_disk_accesses_do_not_depend_on_fanout_threads() {
    let db = build_db(33, 5);
    let dir = std::env::temp_dir().join(format!("dm_world_threads_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let manifest = write_split_world(&db, 2, 2, &dir, &DmBuildOptions::default()).unwrap();
    let roi = seam_roi(db.bounds, 0.1, 0.1, 0.9, 0.9);
    let e = db.e_for_points_fraction(0.3);
    let eye = Vec2::new(db.bounds.min.x - 1.0, db.bounds.center().y);
    let q = vd_query(db.e_max, roi, eye);

    let run = |threads: usize| {
        let world = WorldDb::open(
            &manifest,
            WorldOptions {
                threads,
                ..WorldOptions::default()
            },
        )
        .unwrap();
        // Open every region first: a lazy open scans the tile's heap,
        // which is I/O of its own.
        world
            .try_vi_query_flat_counted(&db.bounds, e, &mut FetchCounters::default())
            .unwrap();

        world.try_cold_start().unwrap();
        let mut vi_counters = FetchCounters::default();
        let before = dm_storage::thread_reads();
        let (vi, vi_report) = world
            .try_vi_query_flat_counted(&roi, e, &mut vi_counters)
            .unwrap();
        let vi_reads = dm_storage::thread_reads() - before;

        world.try_cold_start().unwrap();
        let mut vd_counters = FetchCounters::default();
        let before = dm_storage::thread_reads();
        let (vd, vd_report) = world
            .try_vd_query_counted(&q, BoundaryPolicy::FetchOnMiss, 8, &mut vd_counters)
            .unwrap();
        let vd_reads = dm_storage::thread_reads() - before;

        assert!(vi_report.is_clean() && vd_report.is_clean());
        (
            (vi.nodes, vi.faces, vi_counters, vi_reads),
            (mesh_fingerprint(&vd.front), vd_counters, vd_reads),
        )
    };
    let (vi1, vd1) = run(1);
    let (vi4, vd4) = run(4);
    assert!(vi1.3 > 0 && vd1.2 > 0, "cold queries must read pages");
    assert_eq!(vi1, vi4, "VI differs between threads 1 and 4");
    assert_eq!(vd1, vd4, "VD differs between threads 1 and 4");
    std::fs::remove_dir_all(&dir).ok();
}

/// A split world's VI answer is cut from the tiles' fetches concatenated
/// in region order, yet leaves the cut in the wire's canonical order —
/// and so does a cut over that arena with every record arriving twice,
/// the second copies in reverse (the first copy of an id is the one
/// kept, and copies are identical).
#[test]
fn split_world_vi_faces_leave_the_cut_canonical() {
    let db = build_db(25, 3);
    let world = split_world_in_memory(
        &db,
        2,
        2,
        4096,
        &DmBuildOptions::default(),
        WorldOptions::default(),
    )
    .unwrap();
    let scope = world.scoped(None);
    for (i, frac) in [0.03, 0.2, 0.5, 0.9].into_iter().enumerate() {
        let t = 0.05 * i as f64;
        let roi = seam_roi(db.bounds, 0.1 + t, 0.3 - t, 0.9 - t, 0.7 + t);
        let e = db.e_for_points_fraction(frac);
        let (flat, report) = world
            .try_vi_query_flat_counted(&roi, e, &mut FetchCounters::default())
            .unwrap();
        assert!(report.is_clean());
        assert!(!flat.faces.is_empty());
        assert_eq!(canonical_flat(&flat.nodes, &flat.faces).1, flat.faces);

        let e = scope.clamp_e(e);
        let set = scope
            .fetch(
                &[Box3::prism(roi, e, e)],
                &mut IntegrityReport::default(),
                &mut FetchCounters::default(),
            )
            .unwrap();
        let mut twice = FetchedSet::new();
        for s in (0..set.len()).chain((0..set.len()).rev()) {
            twice.push(set.nodes[s], set.conn_of(s).iter().copied());
        }
        let (nodes, faces) = uniform_cut(&twice, &roi, e);
        assert_eq!((&nodes, &faces), (&flat.nodes, &flat.faces));
    }
}

/// Degraded open of one wounded tile: scribble over part of one tile's
/// heap, open the world degraded, and check the world (a) answers with a
/// loss report rather than failing, (b) still answers queries confined
/// to healthy tiles bit-identically to the pristine store.
#[test]
fn degraded_open_of_one_tile_quarantines_the_damage() {
    let db = build_db(25, 77);
    let dir = std::env::temp_dir().join(format!("dm_world_wound_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let manifest = write_split_world(&db, 2, 2, &dir, &DmBuildOptions::default()).unwrap();

    // Wound tile 0: scribble over a third of its heap pages. Page
    // checksums turn the scribble into deterministic read losses.
    let tile0 = dir.join("tile_0000.dm");
    let report = {
        let (pool, catalog) = dm_world::open_region_store(&tile0, 1024, None).unwrap();
        let heap_pages = dm_core::catalog::read_catalog(&pool, catalog)
            .unwrap()
            .heap_pages;
        drop(pool);
        let n_corrupt = (heap_pages.len() / 3).max(1);
        {
            use std::io::{Seek, SeekFrom, Write};
            let mut f = std::fs::OpenOptions::new()
                .write(true)
                .open(&tile0)
                .unwrap();
            for &page in heap_pages.iter().take(n_corrupt) {
                f.seek(SeekFrom::Start(
                    page as u64 * dm_storage::PAGE_SIZE as u64 + 77,
                ))
                .unwrap();
                f.write_all(b"scribble").unwrap();
            }
            f.sync_all().unwrap();
        }
        let mut report = IntegrityReport::default();
        let (pool, catalog) = dm_world::open_region_store(&tile0, 1024, None).unwrap();
        // The wounded tile opens degraded on its own — the world-level
        // degraded open goes through exactly this path per region.
        DirectMeshDb::open_degraded_at(pool, catalog, &mut report).unwrap();
        report
    };
    assert!(!report.is_clean(), "corruption must be visible at open");

    let world = WorldDb::open(
        &manifest,
        WorldOptions {
            degraded: true,
            ..WorldOptions::default()
        },
    )
    .unwrap();

    // A world-spanning query answers (degraded, never failing) and
    // reports the wounded tile's losses rather than silently thinning
    // the mesh.
    let e = db.e_for_points_fraction(0.3);
    let mut c = FetchCounters::default();
    let (whole, whole_report) = world
        .try_vi_query_flat_counted(&db.bounds, e, &mut c)
        .expect("degraded world answers world-spanning queries");
    assert!(!whole.nodes.is_empty());
    assert!(
        !whole_report.is_clean(),
        "a third of tile 0's heap is gone; the world query must say so"
    );

    // Tile 3 (far corner from tile 0) is healthy: a query confined to
    // its interior must be bit-identical to the pristine single store.
    let b = db.bounds;
    let healthy = Rect::from_corners(
        Vec2::new(b.min.x + b.width() * 0.6, b.min.y + b.height() * 0.6),
        Vec2::new(b.min.x + b.width() * 0.95, b.min.y + b.height() * 0.95),
    );
    let mut c1 = FetchCounters::default();
    let mut c2 = FetchCounters::default();
    let (single, r1) = db.try_vi_query_flat_counted(&healthy, e, &mut c1).unwrap();
    let (tiled, r2) = world
        .try_vi_query_flat_counted(&healthy, e, &mut c2)
        .unwrap();
    assert!(r1.is_clean() && r2.is_clean());
    assert_eq!(single.nodes, tiled.nodes);
    assert_eq!(single.faces, tiled.faces);

    std::fs::remove_dir_all(&dir).ok();
}

/// Evicting a region and touching it again reopens it from its catalog
/// and index alone — no heap page is read until a query asks for one —
/// and the reopened region answers exactly as before, which is exactly
/// the unsplit store's answer.
#[test]
fn evicted_region_reopens_without_reading_the_heap_and_answers_identically() {
    let db = build_db(33, 91);
    let dir = std::env::temp_dir().join(format!("dm_world_reopen_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let manifest = write_split_world(&db, 2, 1, &dir, &DmBuildOptions::default()).unwrap();
    let world = WorldDb::open(
        &manifest,
        WorldOptions {
            max_open: 1,
            threads: 1,
            ..WorldOptions::default()
        },
    )
    .unwrap();
    let e = db.e_for_points_fraction(0.3);
    // Inside tile 0, so the query opens (and needs) nothing else.
    let b = db.bounds;
    let roi = Rect::from_corners(
        Vec2::new(b.min.x + b.width() * 0.05, b.min.y + b.height() * 0.1),
        Vec2::new(b.min.x + b.width() * 0.4, b.min.y + b.height() * 0.9),
    );
    let ask = || {
        let mut c = FetchCounters::default();
        let (res, report) = world.try_vi_query_flat_counted(&roi, e, &mut c).unwrap();
        assert!(report.is_clean());
        (res.nodes, res.faces, res.fetched_records)
    };
    let first = ask();
    assert!(!first.0.is_empty());

    world.region(1).unwrap(); // one handle: closes region 0
    let stats = world.region_stats();
    assert!(!stats[0].open && stats[0].evictions == 1);

    let reads_before = dm_storage::thread_reads();
    let reopened = world.region(0).unwrap();
    let open_reads = dm_storage::thread_reads() - reads_before;
    assert_eq!(world.region_stats()[0].opens, 2);
    let heap = reopened.heap_pages();
    assert!(heap.len() > 8, "tile too small to tell");
    assert_eq!(reopened.pool().resident_among(heap), 0, "heap page read");
    assert_eq!(reopened.pool().resident() as u64, open_reads);
    assert!(
        open_reads <= 2 + reopened.stats_summary().rtree_nodes,
        "{open_reads} reads to reopen a {}-page tile",
        heap.len()
    );

    assert_eq!(ask(), first, "reopened region answers differently");
    let mut c = FetchCounters::default();
    let (single, _) = db.try_vi_query_flat_counted(&roi, e, &mut c).unwrap();
    assert_eq!((single.nodes, single.faces, single.fetched_records), first);
    std::fs::remove_dir_all(&dir).ok();
}
