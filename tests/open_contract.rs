//! The open contract, stated once.
//!
//! A strict open reads the catalog chain and the R\*-tree, not the heap:
//! the index is page-granular, so its leaf entries are the heap pages'
//! boxes, and the optimizer statistics come from one walk of it. It refuses a store whose catalog
//! names pages the file does not hold or that the index does not know.
//! The interval statistics behind `e_for_points_fraction` are filled by
//! one heap scan on first use. A degraded open reads everything, because
//! it exists to say what is broken.
//!
//! What used to be derived by scanning the heap and is now derived from
//! the index must be the same, bit for bit — that is the second half of
//! this file, together with the planner's pre-selection returning the
//! plans a brute-force count picks.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};

use dm_core::catalog::{read_catalog, write_catalog};
use dm_core::query::{equal_strips, plan_multi_base};
use dm_core::{
    DirectMeshDb, DmBuildOptions, EditOp, IntegrityReport, LiveDb, LiveOptions, RecordStore,
    VdQuery,
};
use dm_geom::{Box3, Rect, Vec2};
use dm_mtm::builder::{build_pm, PmBuildConfig};
use dm_mtm::PlaneTarget;
use dm_storage::{thread_reads, BufferPool, FileStore, StorageError, PAGE_SIZE};
use dm_terrain::{generate, TriMesh};
use dm_world::{open_region_store, write_split_world, WorldDb, WorldOptions};

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dm_open_{}_{name}", std::process::id()))
}

fn cleanup(path: &Path) {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(dm_storage::wal::wal_path(path));
    let _ = std::fs::remove_file(dm_storage::wal::root_path(path));
}

/// Build a file-backed store; returns the build-time handle (whose
/// statistics come from the in-memory hierarchy, not from the file).
fn build(path: &Path, side: usize, seed: u64, opts: &DmBuildOptions) -> DirectMeshDb {
    cleanup(path);
    let hf = generate::fractal_terrain(side, side, seed);
    let pm = build_pm(TriMesh::from_heightfield(&hf), &PmBuildConfig::default());
    let pool = Arc::new(BufferPool::new(
        Box::new(FileStore::create(path).unwrap()),
        4096,
    ));
    DirectMeshDb::create_in(pool, &pm, opts)
}

fn fresh_pool(path: &Path, pages: usize) -> Arc<BufferPool> {
    Arc::new(BufferPool::new(
        Box::new(FileStore::open(path).unwrap()),
        pages,
    ))
}

fn bits(b: &Box3) -> [u64; 6] {
    [b.min.x, b.min.y, b.min.z, b.max.x, b.max.y, b.max.z].map(f64::to_bits)
}

/// The strict (index-derived) and degraded (heap-scan-derived) opens of
/// one store must agree bit for bit on the regions the cost model counts
/// over.
fn assert_index_derived_equals_heap_derived(label: &str, path: &Path) {
    let (pool, catalog_page) = open_region_store(path, 4096, None).unwrap();
    let strict = DirectMeshDb::open_at(pool, catalog_page).unwrap();
    let (pool, catalog_page) = open_region_store(path, 4096, None).unwrap();
    let mut report = IntegrityReport::default();
    let scanned = DirectMeshDb::open_degraded_at(pool, catalog_page, &mut report).unwrap();
    assert!(report.is_clean(), "{label}: {report}");
    let stats = |db: &DirectMeshDb| -> Vec<[u64; 6]> {
        db.cost_model().regions().iter().map(bits).collect()
    };
    assert_eq!(
        stats(&strict),
        stats(&scanned),
        "{label}: cost-model regions"
    );
}

/// The committed flat-codec store of `mining17.dmh` (see
/// `tests/codec_compat.rs`), copied to `path`: builds write the compact
/// codec only.
fn flat_fixture(path: &Path) {
    cleanup(path);
    let fixture =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/legacy_v4_flat.dmdb");
    std::fs::copy(fixture, path).unwrap();
}

#[test]
fn strict_open_reads_the_catalog_chain_and_the_index_only() {
    for name in ["flat", "compact"] {
        let path = tmp(&format!("reads_{name}.db"));
        if name == "flat" {
            flat_fixture(&path);
        } else {
            build(&path, 33, 5, &DmBuildOptions::default());
        }
        let before = thread_reads();
        let cat = read_catalog(&fresh_pool(&path, 1024), 0).unwrap();
        let chain_pages = thread_reads() - before;

        let pool = fresh_pool(&path, 1024);
        let before = thread_reads();
        let db = DirectMeshDb::open(Arc::clone(&pool)).unwrap();
        let open_reads = thread_reads() - before;
        assert!(cat.heap_pages.len() >= 8, "{name}: store too small to tell");
        assert_eq!(
            open_reads,
            chain_pages + db.stats_summary().rtree_nodes,
            "{name}: a strict open reads the catalog chain and the R*-tree"
        );
        assert_eq!(pool.resident() as u64, open_reads);
        assert_eq!(
            pool.resident_among(&cat.heap_pages),
            0,
            "{name}: no heap page may be resident after an open"
        );
        cleanup(&path);
    }
}

#[test]
fn strict_open_refuses_a_catalog_the_store_or_the_index_does_not_back() {
    let path = tmp("refuse.db");
    build(&path, 21, 7, &DmBuildOptions::default());
    let pool = fresh_pool(&path, 1024);
    let cat = read_catalog(&pool, 0).unwrap();
    let rewrite = |edit: &dyn Fn(&mut Vec<u32>)| {
        let mut bad = read_catalog(&pool, 0).unwrap();
        edit(&mut bad.heap_pages);
        let page = pool.try_allocate().unwrap();
        write_catalog(&pool, page, &bad).unwrap();
        DirectMeshDb::open_at(Arc::clone(&pool), page)
    };
    // A heap page the index knows but the catalog forgot, and one the
    // catalog lists twice: the leaf set no longer matches.
    for edit in [
        (&|pages: &mut Vec<u32>| {
            pages.pop();
        }) as &dyn Fn(&mut Vec<u32>),
        &|pages: &mut Vec<u32>| pages.push(pages[0]),
    ] {
        assert!(matches!(rewrite(edit), Err(StorageError::Format { .. })));
    }
    // A heap page past the end of the file.
    let past_end = 1_000_000;
    assert!(matches!(
        rewrite(&|pages: &mut Vec<u32>| pages.push(past_end)),
        Err(StorageError::OutOfBounds { page, .. }) if page == past_end
    ));
    // The untouched catalog still opens.
    assert_eq!(
        DirectMeshDb::open(pool).unwrap().n_heap_pages(),
        cat.heap_pages.len()
    );
    cleanup(&path);
}

#[test]
fn corrupt_index_page_fails_strict_open_and_degrades_to_heap_scans() {
    let path = tmp("badindex.db");
    let built = build(&path, 21, 9, &DmBuildOptions::default());
    let rtree_root = read_catalog(&fresh_pool(&path, 64), 0).unwrap().rtree.0;
    {
        use std::io::{Seek, SeekFrom, Write};
        let mut f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.seek(SeekFrom::Start(
            u64::from(rtree_root) * PAGE_SIZE as u64 + 99,
        ))
        .unwrap();
        f.write_all(b"oops").unwrap();
        f.sync_all().unwrap();
    }
    let err = DirectMeshDb::open(fresh_pool(&path, 1024))
        .err()
        .expect("strict open must refuse a corrupt index");
    assert!(err.to_string().contains("checksum"), "{err}");
    let mut report = IntegrityReport::default();
    let db = DirectMeshDb::open_degraded(fresh_pool(&path, 1024), &mut report).unwrap();
    assert!(db.rtree_lost(), "index loss must be flagged");
    assert!(!report.is_clean());
    // The heap is whole: the degraded view serves every record.
    assert_eq!(db.all_records(), built.all_records());
    cleanup(&path);
}

#[test]
fn index_derived_regions_are_bit_equal_to_heap_scan_derived_ones() {
    let path = tmp("equiv_flat.db");
    flat_fixture(&path);
    assert_index_derived_equals_heap_derived("Flat", &path);
    cleanup(&path);
    for dynamic_rtree in [false, true] {
        let label = format!("Compact/dynamic={dynamic_rtree}");
        let path = tmp(&format!("equiv_compact_{dynamic_rtree}.db"));
        build(
            &path,
            33,
            11,
            &DmBuildOptions {
                dynamic_rtree,
                ..DmBuildOptions::default()
            },
        );
        assert_index_derived_equals_heap_derived(&label, &path);
        cleanup(&path);
    }
}

#[test]
fn every_tile_of_a_split_world_opens_to_the_heap_scan_derived_regions() {
    let path = tmp("split_src.db");
    let db = build(&path, 33, 13, &DmBuildOptions::default());
    let dir = tmp("split_world");
    let _ = std::fs::remove_dir_all(&dir);
    let manifest = write_split_world(&db, 2, 2, &dir, &DmBuildOptions::default()).unwrap();
    let world = WorldDb::open(&manifest, WorldOptions::default()).unwrap();
    for i in 0..world.n_regions() {
        assert_index_derived_equals_heap_derived(&format!("tile {i}"), &world.region_meta(i).path);
    }
    std::fs::remove_dir_all(&dir).ok();
    cleanup(&path);
}

#[test]
fn patched_stores_open_to_the_heap_scan_derived_regions() {
    let path = tmp("patched.db");
    let built = build(&path, 33, 15, &DmBuildOptions::default());
    let b = built.bounds;
    drop(built);
    let (mut live, _) = LiveDb::open(&path, &LiveOptions::default()).unwrap();
    for n in 1..=20usize {
        // Small regions marching across the terrain; some patches split
        // pages and others reuse retired ones, so rewritten pages land
        // out of file order.
        let t = n as f64 / 21.0;
        let c = Vec2::new(b.min.x + t * b.width(), b.min.y + (1.0 - t) * b.height());
        let region = Rect::centered_square(c, b.width() * 0.12);
        live.apply_patch(&region, &EditOp::Raise(0.5 + t)).unwrap();
        if [1, 5, 20].contains(&n) {
            // Readers open the file only while no writer holds it.
            drop(live);
            assert_index_derived_equals_heap_derived(&format!("after {n} patches"), &path);
            live = LiveDb::open(&path, &LiveOptions::default()).unwrap().0;
        }
    }
    drop(live);
    cleanup(&path);
}

/// The live write path reuses every page outside `page_set`, so the set
/// must hold everything a reader can touch: after a cold start, VI, VD,
/// point lookups and a patch's slab scan on a patched snapshot leave
/// only pages of its set resident.
#[test]
fn page_set_holds_every_page_a_reader_touches() {
    let path = tmp("page_set.db");
    let b = build(&path, 33, 21, &DmBuildOptions::default()).bounds;
    let (live, _) = LiveDb::open(&path, &LiveOptions::default()).unwrap();
    for (fx, dz) in [(0.3, 2.0), (0.6, -1.5)] {
        let c = Vec2::new(b.min.x + fx * b.width(), b.center().y);
        let region = Rect::centered_square(c, b.width() * 0.2);
        live.apply_patch(&region, &EditOp::Raise(dz)).unwrap();
    }
    let snap = live.snapshot();
    let pages = snap.page_set().unwrap();
    let (near, far) = (
        snap.e_for_points_fraction(0.4),
        snap.e_for_points_fraction(0.05),
    );
    snap.try_cold_start().unwrap();
    let (vi, report) = snap.try_vi_query(&b, near).unwrap();
    assert!(report.is_clean() && vi.front.num_triangles() > 0);
    let vd = viewer_query(b, near, far.max(near), true);
    let (_, report) = snap
        .try_vd_multi_base(&vd, dm_core::BoundaryPolicy::FetchOnMiss, 8)
        .unwrap();
    assert!(report.is_clean(), "{report}");
    for id in (0..snap.n_records as u32).step_by(7) {
        assert!(snap.try_fetch_by_id(id).unwrap().is_some());
    }
    let slab = Box3::prism(
        Rect::centered_square(b.center(), b.width() * 0.3),
        0.0,
        snap.e_cap(),
    );
    snap.range_scan(
        &[slab],
        true,
        &mut IntegrityReport::default(),
        &mut dm_core::FetchCounters::default(),
    )
    .unwrap();
    let pool = snap.pool();
    assert!(pool.resident() > 0);
    assert_eq!(pool.resident(), pool.resident_among(&pages));
    drop((snap, live));
    cleanup(&path);
}

/// One writer per store: while a [`LiveDb`] — or any snapshot of it —
/// is alive, a second writer and a read-only open both fail at once with
/// `Locked`; readers share the store, and shut a writer out in turn.
#[test]
fn one_writer_excludes_every_other_open_until_it_drops() {
    let path = tmp("locked.db");
    drop(build(&path, 17, 3, &DmBuildOptions::default()));
    let opts = LiveOptions::default();
    let locked = |e: StorageError| matches!(e, StorageError::Locked { .. });
    let (live, _) = LiveDb::open(&path, &opts).unwrap();
    assert!(LiveDb::open(&path, &opts).map(|_| ()).is_err_and(locked));
    assert!(open_region_store(&path, 64, None).is_err_and(locked));
    let snap = live.snapshot();
    drop(live);
    assert!(open_region_store(&path, 64, None).is_err_and(locked));
    drop(snap);
    let reader = open_region_store(&path, 64, None).unwrap();
    let second_reader = open_region_store(&path, 64, None).unwrap();
    assert!(LiveDb::open(&path, &opts).map(|_| ()).is_err_and(locked));
    drop((reader, second_reader));
    LiveDb::open(&path, &opts).unwrap();
    cleanup(&path);
}

#[test]
fn lazy_interval_statistics_match_the_build_and_fill_once() {
    let path = tmp("lazy.db");
    let built = build(&path, 33, 17, &DmBuildOptions::default());
    // Every LOD dmbench queries at comes from these fractions.
    let keeps = [1.0, 0.4, 0.35, 0.25, 0.10, 0.05, 0.02];
    let db = DirectMeshDb::open(fresh_pool(&path, 1024)).unwrap();
    for k in keeps {
        assert_eq!(
            db.e_for_points_fraction(k).to_bits(),
            built.e_for_points_fraction(k).to_bits(),
            "keep {k}"
        );
    }
    for frac in [0.0, 0.01, 0.3, 1.0] {
        let e = built.e_max * frac;
        assert_eq!(db.cut_size(e), built.cut_size(e));
    }

    // Eight threads race the first call on a pool far smaller than the
    // heap (a second scan could not hide behind cache hits): the heap is
    // read exactly once.
    let pool = fresh_pool(&path, 8);
    let db = DirectMeshDb::open(Arc::clone(&pool)).unwrap();
    assert!(db.n_heap_pages() > 16);
    let reads_before = pool.stats().reads;
    let start = Barrier::new(8);
    let answers: Vec<u64> = std::thread::scope(|s| {
        let racers: Vec<_> = (0..8)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    db.e_for_points_fraction(0.25).to_bits()
                })
            })
            .collect();
        racers.into_iter().map(|r| r.join().unwrap()).collect()
    });
    assert!(answers
        .iter()
        .all(|&a| a == built.e_for_points_fraction(0.25).to_bits()));
    assert_eq!(
        pool.stats().reads - reads_before,
        db.n_heap_pages() as u64,
        "racing first users must trigger one heap scan"
    );

    // A patched snapshot shares the filled statistics: no rescan.
    let region = Rect::centered_square(db.bounds.center(), db.bounds.width() * 0.2);
    let patched = db.apply_patch(&region, &EditOp::Raise(1.0)).unwrap().db;
    let reads_before = pool.stats().reads;
    assert_eq!(
        patched.e_for_points_fraction(0.25).to_bits(),
        built.e_for_points_fraction(0.25).to_bits()
    );
    assert_eq!(pool.stats().reads, reads_before);
    cleanup(&path);
}

/// The planner before pre-selection: every candidate plan priced by
/// testing every region of the store against every cube.
fn brute_force_plan<S: RecordStore>(
    store: &S,
    count: impl Fn(&[Box3]) -> usize,
    q: &VdQuery,
    max_cubes: usize,
) -> Vec<Rect> {
    let along_x = q.target.dir.x.abs() >= q.target.dir.y.abs();
    let mut best = vec![q.roi];
    let mut best_cost = f64::INFINITY;
    let mut n = 1;
    while n <= max_cubes {
        let strips = equal_strips(&q.roi, n, along_x);
        let cubes: Vec<Box3> = strips
            .iter()
            .map(|r| {
                let (lo, hi) = q.e_range(r);
                Box3::prism(*r, lo, store.clamp_e(hi))
            })
            .collect();
        let cost = count(&cubes) as f64 + 3.0 * (n as f64 - 1.0);
        if cost < best_cost {
            best_cost = cost;
            best = strips;
        }
        n *= 2;
    }
    best
}

fn count_all_regions(db: &DirectMeshDb, cubes: &[Box3]) -> usize {
    db.cost_model()
        .regions()
        .iter()
        .filter(|r| cubes.iter().any(|q| r.intersects(q)))
        .count()
}

/// dmbench's viewer: detail `near` at the viewer's feet on the south (or
/// west) edge of the window, falling off linearly to `far` opposite.
fn viewer_query(roi: Rect, near: f64, far: f64, eastward: bool) -> VdQuery {
    let (dir, run) = if eastward {
        (Vec2::new(1.0, 0.0), roi.width())
    } else {
        (Vec2::new(0.0, 1.0), roi.height())
    };
    VdQuery {
        roi,
        target: PlaneTarget {
            origin: roi.min,
            dir,
            e_min: near,
            slope: (far - near) / run.max(1e-9),
            e_max: far,
        },
    }
}

#[test]
fn planner_preselection_returns_the_brute_force_plans() {
    let path = tmp("plans.db");
    let db = build(&path, 65, 19, &DmBuildOptions::default());
    let b = db.bounds;
    let near = db.e_for_points_fraction(0.4);
    let far = db.e_for_points_fraction(0.05).max(near);
    let window = |cx: f64, cy: f64, frac: f64| {
        let side = b.width() * frac;
        let c = Vec2::new(
            (b.min.x + cx * b.width()).clamp(b.min.x + side / 2.0, b.max.x - side / 2.0),
            (b.min.y + cy * b.height()).clamp(b.min.y + side / 2.0, b.max.y - side / 2.0),
        );
        Rect::centered_square(c, side)
    };
    // The shapes of dmbench's three tours: stratified one-shot ROIs in
    // both view directions, a closed loop of overlapping windows, and a
    // narrow window along the diagonal of a four-strip world.
    let mut queries = vec![viewer_query(b, near, far, false)];
    for i in 0..4 {
        for j in 0..4 {
            let (cx, cy) = (0.125 + 0.25 * i as f64, 0.125 + 0.25 * j as f64);
            queries.push(viewer_query(
                window(cx, cy, 0.35),
                near,
                far,
                (i + j) % 2 == 0,
            ));
        }
    }
    for k in 0..24 {
        let a = k as f64 / 24.0 * std::f64::consts::TAU;
        queries.push(viewer_query(
            window(0.5 + 0.3 * a.cos(), 0.5 + 0.3 * a.sin(), 0.3),
            near,
            far,
            false,
        ));
    }
    for k in 0..27 {
        let t = k as f64 / 26.0;
        queries.push(viewer_query(window(t, t, 0.2), near, far, false));
    }

    let dir = tmp("plans_world");
    let _ = std::fs::remove_dir_all(&dir);
    let manifest = write_split_world(&db, 4, 1, &dir, &DmBuildOptions::default()).unwrap();
    let world = WorldDb::open(&manifest, WorldOptions::default()).unwrap();
    let scope = world.scoped(None);
    let tiles: Vec<Arc<DirectMeshDb>> = (0..world.n_regions())
        .map(|i| world.region(i).unwrap())
        .collect();
    let mut multi_strip = 0;
    for q in &queries {
        let want = brute_force_plan(&db, |cubes| count_all_regions(&db, cubes), q, 16);
        assert_eq!(db.plan_multi_base(q, 16), want, "store plan for {q:?}");
        multi_strip += usize::from(want.len() > 1);
        // A split world's tiles share the source frame: a cube that
        // misses a tile meets none of its regions, so the world's count
        // is the plain sum over tiles.
        let want = brute_force_plan(
            &scope,
            |cubes| tiles.iter().map(|t| count_all_regions(t, cubes)).sum(),
            q,
            16,
        );
        assert_eq!(
            plan_multi_base(&scope, q, 16).unwrap(),
            want,
            "world plan for {q:?}"
        );
    }
    assert!(multi_strip > 0, "no query ever planned more than one strip");
    std::fs::remove_dir_all(&dir).ok();
    cleanup(&path);
}
