//! Property-based navigation tests: an incremental [`NavigationSession`]
//! must produce exactly the mesh a fresh multi-base query produces, frame
//! by frame, along arbitrary waypoint paths — including under transient
//! read faults and on a database opened in degraded mode over persistent
//! corruption.

use std::collections::{BTreeSet, HashSet};
use std::sync::Arc;

use dm_core::navigation::waypoint_path;
use dm_core::{
    BoundaryPolicy, DirectMeshDb, DmBuildOptions, IntegrityReport, NavigationSession, VdQuery,
};
use dm_geom::{Rect, Vec2};
use dm_mtm::builder::{build_pm, PmBuildConfig};
use dm_mtm::refine::FrontMesh;
use dm_mtm::PlaneTarget;
use dm_storage::{
    BufferPool, FaultConfig, FaultInjector, FileStore, MemStore, StorageResult, PAGE_SIZE,
};
use dm_terrain::{generate, TriMesh};
use proptest::prelude::*;

fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("dm_nav_{}_{name}.db", std::process::id()))
}

fn build_db(side: usize, seed: u64) -> DirectMeshDb {
    let hf = generate::fractal_terrain(side, side, seed);
    let pm = build_pm(TriMesh::from_heightfield(&hf), &PmBuildConfig::default());
    let pool = Arc::new(BufferPool::new(Box::new(MemStore::new()), 2048));
    DirectMeshDb::build(pool, &pm, &DmBuildOptions::default())
}

/// Viewer at the leading (north) edge of the window looking back south:
/// fine near the viewer, coarse in the distance.
fn query_at(db: &DirectMeshDb, roi: Rect) -> VdQuery {
    let e_min = db.e_max * 0.002;
    let slope = db.e_max * 0.2 / roi.height().max(1e-9);
    VdQuery {
        roi,
        target: PlaneTarget {
            origin: Vec2::new(roi.min.x, roi.max.y),
            dir: Vec2::new(0.0, -1.0),
            e_min,
            slope,
            e_max: e_min + slope * roi.height(),
        },
    }
}

/// The answer of a frame or query that must have lost no data.
fn unwrap_clean<T>(answer: StorageResult<(T, IntegrityReport)>) -> T {
    let (res, report) = answer.unwrap();
    assert!(report.is_clean(), "{report}");
    res
}

fn vertex_set(front: &FrontMesh) -> HashSet<u32> {
    front.vertex_ids().collect()
}

/// Triangles normalised to start at their smallest vertex id, so two
/// fronts compare equal regardless of internal slot order.
fn face_set(front: &FrontMesh) -> BTreeSet<[u32; 3]> {
    front
        .triangles()
        .map(|mut t| {
            let k = t.iter().enumerate().min_by_key(|(_, &v)| v).unwrap().0;
            t.rotate_left(k);
            t
        })
        .collect()
}

/// A front is a set of triangles: the same face twice is geometry the
/// wire mirror refuses (PR 11 finding: 257² tour 102, one frame a lap).
fn assert_no_duplicate_faces(front: &FrontMesh) {
    assert_eq!(
        face_set(front).len(),
        front.num_triangles(),
        "the front holds a face twice"
    );
}

/// The benchmark's seeded closed tour (`dmbench/src/gen.rs`: SplitMix64,
/// a jittered quadrilateral around the terrain centre, 32 windows of
/// 0.35 of the side) and its viewer looking north from the window's
/// south edge, keep 0.4 at its feet falling to 0.05 — the inputs of the
/// two PR 11 findings fixed below.
fn bench_tour(db: &DirectMeshDb, seed: u64) -> Vec<VdQuery> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let unit = |bits: u64| (bits >> 11) as f64 / (1u64 << 53) as f64;
    let b = db.bounds;
    let window = b.width().min(b.height()) * 0.35;
    let (c, reach_x, reach_y) = (
        b.center(),
        (b.width() - window) * 0.5,
        (b.height() - window) * 0.5,
    );
    let mut pts: Vec<Vec2> = [(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)]
        .iter()
        .map(|&(sx, sy)| {
            let x = c.x + sx * reach_x * (0.75 + 0.25 * unit(next()));
            Vec2::new(x, c.y + sy * reach_y * (0.75 + 0.25 * unit(next())))
        })
        .collect();
    // One draw decides the direction, the next the starting phase.
    if next() & 1 == 1 {
        pts.reverse();
    }
    let phase = unit(next());
    let mut cum = vec![0.0];
    for i in 0..4 {
        cum.push(cum[i] + pts[i].dist(pts[(i + 1) % 4]));
    }
    let near = db.e_for_points_fraction(0.4);
    let far = db.e_for_points_fraction(0.05).max(near);
    (0..32)
        .map(|f| {
            let s = (f as f64 / 32.0 + phase).fract() * cum[4];
            let i = (0..4).find(|&i| s <= cum[i + 1]).unwrap_or(3);
            let seg = cum[i + 1] - cum[i];
            let u = if seg > 0.0 { (s - cum[i]) / seg } else { 0.0 };
            let roi = Rect::centered_square(pts[i] + (pts[(i + 1) % 4] - pts[i]) * u, window);
            VdQuery {
                roi,
                target: PlaneTarget {
                    origin: roi.min,
                    dir: Vec2::new(0.0, 1.0),
                    e_min: near,
                    slope: (far - near) / roi.height().max(1e-9),
                    e_max: far,
                },
            }
        })
        .collect()
}

/// Map unit-square waypoint fractions into the terrain bounds (with a
/// margin so the sliding window stays mostly inside).
fn path_in_bounds(
    db: &DirectMeshDb,
    fracs: &[(f64, f64)],
    window_frac: f64,
    frames: usize,
) -> (Vec<Rect>, f64) {
    let b = db.bounds;
    let pts: Vec<Vec2> = fracs
        .iter()
        .map(|&(fx, fy)| Vec2::new(b.min.x + fx * b.width(), b.min.y + fy * b.height()))
        .collect();
    let window = b.width().min(b.height()) * window_frac;
    (waypoint_path(&pts, window, frames), window)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The headline equivalence: along a random waypoint path, every
    /// incremental frame has exactly the vertex set AND face set of a
    /// cold multi-base query — for either boundary policy and arbitrary
    /// cube budgets.
    #[test]
    fn incremental_session_matches_fresh_queries_on_random_paths(
        terrain_seed in 0u64..10_000,
        side in 13usize..20,
        fracs in collection::vec((0.2..0.8f64, 0.2..0.8f64), 2..5),
        window_frac in 0.25..0.5f64,
        frames in 4usize..8,
        fetch_on_miss in any::<bool>(),
        max_cubes in 4usize..24,
    ) {
        let db = build_db(side, terrain_seed);
        let policy = if fetch_on_miss {
            BoundaryPolicy::FetchOnMiss
        } else {
            BoundaryPolicy::Skip
        };
        let (path, _) = path_in_bounds(&db, &fracs, window_frac, frames);
        let mut session = NavigationSession::new(&db, policy).with_max_cubes(max_cubes);
        for roi in &path {
            let q = query_at(&db, *roi);
            let stats = unwrap_clean(session.try_move_to(&q));
            prop_assert!(stats.vertices > 0, "empty frame at roi {roi:?}");
            let fresh = unwrap_clean(db.try_vd_multi_base(&q, policy, max_cubes));
            prop_assert_eq!(
                vertex_set(session.front()),
                vertex_set(&fresh.front),
                "vertex sets diverge at roi {:?}",
                roi
            );
            prop_assert_eq!(
                face_set(session.front()),
                face_set(&fresh.front),
                "face sets diverge at roi {:?}",
                roi
            );
            assert_no_duplicate_faces(session.front());
        }
    }

    /// The frame strategy is a cost choice, not a semantics change:
    /// along a random waypoint path, a full-requery session produces frame
    /// by frame exactly the vertex and face sets of an incremental one,
    /// and each session's stats advertise the strategy it runs.
    #[test]
    fn full_requery_matches_incremental_on_random_paths(
        terrain_seed in 0u64..10_000,
        side in 13usize..20,
        fracs in collection::vec((0.2..0.8f64, 0.2..0.8f64), 2..5),
        window_frac in 0.25..0.5f64,
        frames in 4usize..8,
        fetch_on_miss in any::<bool>(),
        max_cubes in 4usize..24,
    ) {
        let db = build_db(side, terrain_seed);
        let policy = if fetch_on_miss {
            BoundaryPolicy::FetchOnMiss
        } else {
            BoundaryPolicy::Skip
        };
        let (path, _) = path_in_bounds(&db, &fracs, window_frac, frames);
        let mut incr_s = NavigationSession::new(&db, policy).with_max_cubes(max_cubes);
        let mut full_s = NavigationSession::new(&db, policy)
            .with_max_cubes(max_cubes)
            .with_full_requery(true);
        for roi in &path {
            let q = query_at(&db, *roi);
            let si = unwrap_clean(incr_s.try_move_to(&q));
            let sf = unwrap_clean(full_s.try_move_to(&q));
            prop_assert!(si.vertices > 0);
            prop_assert!(!si.plan.chose_full, "an incremental session must report incremental");
            prop_assert!(sf.plan.chose_full, "a full-requery session must report full-requery");
            prop_assert_eq!(si.vertices, sf.vertices);
            prop_assert_eq!(
                vertex_set(incr_s.front()),
                vertex_set(full_s.front()),
                "incremental vs full-requery vertices diverge at roi {:?}",
                roi
            );
            prop_assert_eq!(
                face_set(incr_s.front()),
                face_set(full_s.front()),
                "incremental vs full-requery faces diverge at roi {:?}",
                roi
            );
        }
    }

    /// With ~1% transient read faults the pool's retries usually heal the
    /// frame, and a healed frame must still match a fresh query exactly.
    /// A frame that exhausts retries degrades: it reports losses instead
    /// of failing, the mesh stays valid, and equivalence is only waived
    /// from that point on (the session legitimately kept fewer records).
    #[test]
    fn transient_read_faults_heal_or_degrade_cleanly(
        terrain_seed in 0u64..10_000,
        fault_seed in 0u64..10_000,
        fracs in collection::vec((0.25..0.75f64, 0.25..0.75f64), 2..4),
        window_frac in 0.3..0.5f64,
        fetch_on_miss in any::<bool>(),
    ) {
        // Under `FetchOnMiss` the sessions also carry boundary nodes from
        // frame to frame; a kept node must never turn a frame that should
        // report a loss into a clean one that then fails the equivalence.
        let policy = if fetch_on_miss {
            BoundaryPolicy::FetchOnMiss
        } else {
            BoundaryPolicy::Skip
        };
        let path_name = format!("fault_{terrain_seed}_{fault_seed}");
        let file = tmp(&path_name);
        {
            let hf = generate::fractal_terrain(17, 17, terrain_seed);
            let pm = build_pm(TriMesh::from_heightfield(&hf), &PmBuildConfig::default());
            let pool = Arc::new(BufferPool::new(
                Box::new(FileStore::create(&file).unwrap()),
                1024,
            ));
            DirectMeshDb::create_in(pool, &pm, &DmBuildOptions::default());
        }
        let inj = FaultInjector::new(
            Box::new(FileStore::open(&file).unwrap()),
            FaultConfig::new(fault_seed).with_read_fail_rate(0.01),
        );
        let pool = Arc::new(BufferPool::new(Box::new(inj), 1024));
        let db = DirectMeshDb::open(pool).expect("catalog readable despite 1% faults");

        let (path, _) = path_in_bounds(&db, &fracs, window_frac, 6);
        let mut session = NavigationSession::new(&db, policy);
        let mut tainted = false;
        // A full-requery session rides the same fault stream and must
        // obey the same contract: healed frames match a fresh query,
        // faulted frames taint it and waive equivalence from then on.
        let mut full_session = NavigationSession::new(&db, policy).with_full_requery(true);
        let mut full_tainted = false;
        for roi in &path {
            let q = query_at(&db, *roi);
            let full_clean = match full_session.try_move_to(&q) {
                Ok((stats, report)) => {
                    prop_assert!(stats.vertices > 0);
                    let (mesh, _) = full_session.front().to_trimesh();
                    prop_assert!(mesh.validate().is_ok(), "{:?}", mesh.validate());
                    if !report.is_clean() {
                        full_tainted = true;
                    }
                    !full_tainted
                }
                Err(_) => {
                    full_tainted = true;
                    false
                }
            };
            let (stats, report) = match session.try_move_to(&q) {
                Ok(ok) => ok,
                // An index-page read that exhausted its retries aborts the
                // frame; the session must stay usable (no partial state).
                Err(_) => {
                    tainted = true;
                    continue;
                }
            };
            prop_assert!(stats.vertices > 0);
            let (mesh, _) = session.front().to_trimesh();
            prop_assert!(mesh.validate().is_ok(), "{:?}", mesh.validate());
            if !report.is_clean() {
                tainted = true;
            }
            if tainted && !full_clean {
                continue;
            }
            // Healed frame: exact equivalence against a fresh query, which
            // may itself hit (and heal or report) faults.
            let (fresh, fresh_report) =
                match db.try_vd_multi_base(&q, policy, 16) {
                    Ok(ok) => ok,
                    Err(_) => continue,
                };
            if !fresh_report.is_clean() {
                continue;
            }
            if !tainted {
                prop_assert_eq!(vertex_set(session.front()), vertex_set(&fresh.front));
                prop_assert_eq!(face_set(session.front()), face_set(&fresh.front));
            }
            if full_clean {
                prop_assert_eq!(vertex_set(full_session.front()), vertex_set(&fresh.front));
                prop_assert_eq!(face_set(full_session.front()), face_set(&fresh.front));
            }
        }
        std::fs::remove_file(&file).ok();
    }
}

/// Persistent corruption: scribble over part of the heap, attach with
/// `open_degraded`, and walk the terrain. Every frame must degrade
/// deterministically — same surviving records as a cold query on the same
/// wounded database — report its losses, and never yield an invalid mesh.
#[test]
fn degraded_database_supports_incremental_navigation() {
    let file = tmp("degraded_walk");
    let hf = generate::fractal_terrain(25, 25, 4242);
    let pm = build_pm(TriMesh::from_heightfield(&hf), &PmBuildConfig::default());
    {
        let pool = Arc::new(BufferPool::new(
            Box::new(FileStore::create(&file).unwrap()),
            1024,
        ));
        DirectMeshDb::create_in(pool, &pm, &DmBuildOptions::default());
    }

    // Corrupt a third of the heap behind the pool's back.
    let pool = Arc::new(BufferPool::new(
        Box::new(FileStore::open(&file).unwrap()),
        1024,
    ));
    let heap_pages = dm_core::catalog::read_catalog(&pool, 0).unwrap().heap_pages;
    drop(pool);
    let n_corrupt = (heap_pages.len() / 3).max(1);
    {
        use std::io::{Seek, SeekFrom, Write};
        let mut f = std::fs::OpenOptions::new().write(true).open(&file).unwrap();
        for &page in heap_pages.iter().take(n_corrupt) {
            f.seek(SeekFrom::Start(page as u64 * PAGE_SIZE as u64 + 77))
                .unwrap();
            f.write_all(b"scribble").unwrap();
        }
        f.sync_all().unwrap();
    }

    let pool = Arc::new(BufferPool::new(
        Box::new(FileStore::open(&file).unwrap()),
        1024,
    ));
    let mut open_report = IntegrityReport::default();
    let db = DirectMeshDb::open_degraded(pool, &mut open_report).expect("catalog intact");
    assert!(
        !open_report.is_clean(),
        "corruption must be visible at open"
    );

    // Clean twin of the same terrain for the subset sanity check.
    let clean_pool = Arc::new(BufferPool::new(Box::new(MemStore::new()), 2048));
    let clean_db = DirectMeshDb::build(clean_pool, &pm, &DmBuildOptions::default());

    let fracs = [(0.3, 0.3), (0.7, 0.4), (0.5, 0.7)];
    let (path, _) = path_in_bounds(&db, &fracs, 0.45, 8);
    // Under `FetchOnMiss` the sessions also carry boundary nodes from
    // frame to frame, and lookups that land on a scribbled page fail.
    for policy in [BoundaryPolicy::Skip, BoundaryPolicy::FetchOnMiss] {
        let mut session = NavigationSession::new(&db, policy);
        let mut full_s = NavigationSession::new(&db, policy).with_full_requery(true);
        let mut merged = IntegrityReport::default();
        for roi in &path {
            let q = query_at(&db, *roi);
            let (stats, report) = session
                .try_move_to(&q)
                .expect("index pages untouched; heap losses must degrade, not abort");
            let (_, full_report) = full_s
                .try_move_to(&q)
                .expect("full-requery session degrades the same way");
            assert_eq!(vertex_set(full_s.front()), vertex_set(session.front()));
            assert_eq!(face_set(full_s.front()), face_set(session.front()));
            merged.merge(report);
            assert!(
                stats.vertices > 0,
                "a third of the heap is not the whole mesh"
            );
            if policy == BoundaryPolicy::Skip {
                let (mesh, _) = session.front().to_trimesh();
                assert!(mesh.validate().is_ok(), "{:?}", mesh.validate());
            }

            // The corruption is persistent and deterministic, so the session's
            // surviving working set equals a cold query's — frames still match.
            // A cold query keeps no boundary nodes, so every lookup it makes is
            // a first touch: had a kept node masked a loss, the full-requery
            // session (same fetch, same refinement) would report fewer points
            // lost than this — and a failed lookup is never kept, so it fails
            // again, and is reported again, on every frame that needs it.
            let (fresh, fresh_report) = db
                .try_vd_multi_base(&q, policy, 16)
                .expect("cold query degrades the same way");
            assert_eq!(vertex_set(session.front()), vertex_set(&fresh.front));
            assert_eq!(face_set(session.front()), face_set(&fresh.front));
            assert_eq!(full_report, fresh_report);

            // The wounded mesh never invents geometry: every vertex it shows
            // also exists in the clean twin's full record set. (It may show
            // *more* vertices than the clean frame — losing a parent record
            // promotes its children to unrefinable seeds — so no size or
            // subset relation holds against the clean *frame*.)
            let clean = unwrap_clean(clean_db.try_vd_multi_base(&q, policy, 16));
            assert!(clean.front.num_vertices() > 0);
            for v in session.front().vertex_ids() {
                assert!(
                    (v as usize) < pm.hierarchy.len(),
                    "vertex {v} not in hierarchy"
                );
            }
        }
        assert!(
            merged.pages_lost > 0,
            "an 8-frame sweep over a third-corrupt heap must hit losses"
        );
        if policy == BoundaryPolicy::FetchOnMiss {
            assert!(
                merged.points_lost > 0 && session.boundary_nodes() > 0,
                "the sweep must both lose and keep boundary nodes ({merged})"
            );
        }
    }
    std::fs::remove_file(&file).ok();
}

/// Regression guard at the integration level: nudging the window by a
/// quarter of its width must fetch strictly fewer records than the cold
/// requery answering the same frame.
#[test]
fn small_shift_beats_cold_requery() {
    let db = build_db(21, 99);
    let b = db.bounds;
    let window = b.width().min(b.height()) * 0.5;
    let start = b.center();
    let step = Vec2::new(window * 0.25, 0.0);
    let r0 = Rect::centered_square(start, window);
    let r1 = Rect::centered_square(Vec2::new(start.x + step.x, start.y + step.y), window);

    let mut session = NavigationSession::new(&db, BoundaryPolicy::FetchOnMiss);
    unwrap_clean(session.try_move_to(&query_at(&db, r0)));
    let warm = unwrap_clean(session.try_move_to(&query_at(&db, r1)));
    let fresh =
        unwrap_clean(db.try_vd_multi_base(&query_at(&db, r1), BoundaryPolicy::FetchOnMiss, 16));
    assert!(
        warm.fetched_records < fresh.fetched_records,
        "warm frame fetched {} records, cold requery fetched {}",
        warm.fetched_records,
        fresh.fetched_records
    );
}

/// PR 11 findings: "a `NavigationSession` frame can differ with the
/// session's past (129² seed 1 frame 9: incremental ≢ fresh)" and "some
/// frames' canonical mesh holds a face twice → `FrontMirror::apply`
/// refuses → resync (257² seed 102: 1 frame/lap)". One cause: refinement
/// under `FetchOnMiss` walked from a seed down onto a descendant that was
/// itself a seed and activated it a second time, orphaning its fan — a
/// face twice in the canonical mesh, which the delta stream (a set) and
/// the full frame (a list) then disagree about. Every frame of both
/// tours must be duplicate-free and ≡ a fresh multi-base query in
/// vertices and faces, whatever came before it.
fn assert_tour_frames_are_fresh_and_duplicate_free(side: usize, seed: u64, laps: usize) {
    let db = build_db(side, 42);
    let tour = bench_tour(&db, seed);
    let mut session = NavigationSession::new(&db, BoundaryPolicy::FetchOnMiss).with_max_cubes(16);
    for (i, q) in tour.iter().cycle().take(32 * laps).enumerate() {
        unwrap_clean(session.try_move_to(q));
        let fresh = unwrap_clean(db.try_vd_multi_base(q, BoundaryPolicy::FetchOnMiss, 16));
        assert_eq!(
            vertex_set(session.front()),
            vertex_set(&fresh.front),
            "vertices of frame {i}"
        );
        assert_eq!(
            face_set(session.front()),
            face_set(&fresh.front),
            "faces of frame {i}"
        );
        assert_no_duplicate_faces(session.front());
        assert_no_duplicate_faces(&fresh.front);
    }
}

#[test]
fn a_frame_does_not_depend_on_the_sessions_past() {
    assert_tour_frames_are_fresh_and_duplicate_free(129, 1, 2);
}

#[test]
fn no_frame_of_the_resyncing_tour_holds_a_face_twice() {
    assert_tour_frames_are_fresh_and_duplicate_free(257, 102, 1);
}

/// The boundary nodes a `FetchOnMiss` session keeps are exactly the ones
/// its last frame touched: flying a closed tour again and again never
/// grows them, and `reset` forgets them.
#[test]
fn kept_boundary_nodes_are_one_frames_worth() {
    let db = build_db(129, 42);
    let tour = bench_tour(&db, 7);
    let mut session = NavigationSession::new(&db, BoundaryPolicy::FetchOnMiss).with_max_cubes(16);
    assert_eq!(session.boundary_nodes(), 0);
    let mut per_frame = Vec::new();
    for lap in 0..4 {
        for (i, q) in tour.iter().enumerate() {
            unwrap_clean(session.try_move_to(q));
            if lap == 0 {
                per_frame.push(session.boundary_nodes());
            } else {
                assert_eq!(
                    session.boundary_nodes(),
                    per_frame[i],
                    "lap {lap} frame {i}"
                );
            }
            if lap == 3 && i == 31 {
                // A one-shot query starts with nothing kept, so its point
                // lookups count the distinct nodes the frame touches.
                let fresh = unwrap_clean(db.try_vd_multi_base(q, BoundaryPolicy::FetchOnMiss, 16));
                assert!(fresh.boundary_fetches > 0, "the tour must have a boundary");
                assert_eq!(session.boundary_nodes(), fresh.boundary_fetches);
            }
        }
    }
    session.reset();
    assert_eq!(session.boundary_nodes(), 0);
    // … and the session answers like a new one.
    let first = unwrap_clean(session.try_move_to(&tour[0]));
    assert_eq!(first.seeds_removed, 0);
    assert_eq!(session.boundary_nodes(), per_frame[0]);
}
