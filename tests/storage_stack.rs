//! The whole system on a *file-backed* store: identical results and
//! identical disk-access counts to the in-memory store, plus real I/O —
//! and the same system driven through a fault injector.

use std::sync::Arc;

use dm_core::{DirectMeshDb, DmBuildOptions};
use dm_geom::Rect;
use dm_mtm::builder::{build_pm, PmBuildConfig};
use dm_storage::{BufferPool, FaultConfig, FaultInjector, FileStore, MemStore};
use dm_terrain::{generate, TriMesh};

/// The answer of a query that must have lost no data.
fn unwrap_clean<T>(answer: dm_storage::StorageResult<(T, dm_core::IntegrityReport)>) -> T {
    let (res, report) = answer.unwrap();
    assert!(report.is_clean(), "{report}");
    res
}

fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("dm_it_{}_{name}.db", std::process::id()))
}

#[test]
fn file_backed_database_matches_memory_backed() {
    let hf = generate::fractal_terrain(21, 21, 31);
    let pm = build_pm(TriMesh::from_heightfield(&hf), &PmBuildConfig::default());

    let mem_pool = Arc::new(BufferPool::new(Box::new(MemStore::new()), 256));
    let mem_db = DirectMeshDb::build(mem_pool, &pm, &DmBuildOptions::default());

    let path = tmp("match");
    let file_pool = Arc::new(BufferPool::new(
        Box::new(FileStore::create(&path).unwrap()),
        256,
    ));
    let file_db = DirectMeshDb::build(file_pool, &pm, &DmBuildOptions::default());

    for frac in [0.01, 0.1, 0.4] {
        let e = mem_db.e_max * frac;
        let roi = Rect::centered_square(mem_db.bounds.center(), mem_db.bounds.width() * 0.5);
        mem_db.try_cold_start().unwrap();
        let a = unwrap_clean(mem_db.try_vi_query(&roi, e));
        let da_mem = mem_db.disk_accesses();
        file_db.try_cold_start().unwrap();
        let b = unwrap_clean(file_db.try_vi_query(&roi, e));
        let da_file = file_db.disk_accesses();
        assert_eq!(a.points, b.points, "results differ at {frac}");
        assert_eq!(da_mem, da_file, "access counts differ at {frac}");
        let mut ia: Vec<u32> = a.front.vertex_ids().collect();
        let mut ib: Vec<u32> = b.front.vertex_ids().collect();
        ia.sort();
        ib.sort();
        assert_eq!(ia, ib);
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn tiny_buffer_pool_still_answers_correctly() {
    // With an 8-frame pool the working set never fits: eviction and
    // re-reads must not change results, only cost.
    let hf = generate::fractal_terrain(17, 17, 33);
    let pm = build_pm(TriMesh::from_heightfield(&hf), &PmBuildConfig::default());
    let big = DirectMeshDb::build(
        Arc::new(BufferPool::new(Box::new(MemStore::new()), 4096)),
        &pm,
        &DmBuildOptions::default(),
    );
    let small = DirectMeshDb::build(
        Arc::new(BufferPool::new(Box::new(MemStore::new()), 8)),
        &pm,
        &DmBuildOptions::default(),
    );
    let e = big.e_max * 0.05;
    let a = unwrap_clean(big.try_vi_query(&big.bounds, e));
    let b = unwrap_clean(small.try_vi_query(&small.bounds, e));
    assert_eq!(a.points, b.points);
    big.try_cold_start().unwrap();
    let _ = unwrap_clean(big.try_vi_query(&big.bounds, e));
    small.try_cold_start().unwrap();
    let _ = unwrap_clean(small.try_vi_query(&small.bounds, e));
    assert!(
        small.disk_accesses() >= big.disk_accesses(),
        "a thrashing pool cannot read fewer pages"
    );
}

#[test]
fn database_reopens_from_its_catalog() {
    let hf = generate::fractal_terrain(21, 21, 37);
    let pm = build_pm(TriMesh::from_heightfield(&hf), &PmBuildConfig::default());
    let path = tmp("catalog");

    // Build, persist, remember reference answers, drop everything.
    let (e, want_points, want_ids) = {
        let pool = Arc::new(BufferPool::new(
            Box::new(FileStore::create(&path).unwrap()),
            256,
        ));
        let db = DirectMeshDb::create_in(pool, &pm, &DmBuildOptions::default());
        let e = db.e_for_points_fraction(0.25);
        let res = unwrap_clean(db.try_vi_query(&db.bounds, e));
        let mut ids: Vec<u32> = res.front.vertex_ids().collect();
        ids.sort();
        (e, res.points, ids)
    };

    // Reopen from disk alone: same answers, records intact.
    let pool = Arc::new(BufferPool::new(
        Box::new(FileStore::open(&path).unwrap()),
        256,
    ));
    let db = DirectMeshDb::open(pool).expect("catalog readable");
    assert_eq!(db.n_records, pm.hierarchy.len());
    assert_eq!(db.n_leaves, pm.hierarchy.n_leaves);
    let res = unwrap_clean(db.try_vi_query(&db.bounds, e));
    assert_eq!(res.points, want_points);
    let mut ids: Vec<u32> = res.front.vertex_ids().collect();
    ids.sort();
    assert_eq!(ids, want_ids);
    // Point lookups work through the reattached B+-tree.
    for id in [0u32, 7, 100] {
        assert_eq!(db.try_fetch_by_id(id).unwrap().unwrap().node.id, id);
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn pm_build_persist_then_database_build_matches() {
    // The other half of the persistence story: save the expensive PM
    // construction, reload it, and build an identical database from it.
    use dm_mtm::persist::{load_pm, save_pm};
    let hf = generate::fractal_terrain(17, 17, 41);
    let pm = build_pm(TriMesh::from_heightfield(&hf), &PmBuildConfig::default());
    let mut buf = Vec::new();
    save_pm(&pm, &mut buf).unwrap();
    let pm2 = load_pm(&buf[..]).unwrap();

    let mk = |p: &dm_mtm::builder::PmBuild| {
        let pool = Arc::new(BufferPool::new(Box::new(MemStore::new()), 1024));
        DirectMeshDb::build(pool, p, &DmBuildOptions::default())
    };
    let a = mk(&pm);
    let b = mk(&pm2);
    let e = a.e_for_points_fraction(0.2);
    let ra = unwrap_clean(a.try_vi_query(&a.bounds, e));
    let rb = unwrap_clean(b.try_vi_query(&b.bounds, e));
    assert_eq!(ra.points, rb.points);
    a.try_cold_start().unwrap();
    b.try_cold_start().unwrap();
    let _ = unwrap_clean(a.try_vi_query(&a.bounds, e));
    let _ = unwrap_clean(b.try_vi_query(&b.bounds, e));
    assert_eq!(a.disk_accesses(), b.disk_accesses(), "identical layouts");
}

#[test]
fn file_store_persists_across_reopen() {
    use dm_storage::{PageStore, PAGE_SIZE};
    let path = tmp("persist");
    {
        let store = FileStore::create(&path).unwrap();
        for i in 0..10u8 {
            let id = store.allocate().unwrap();
            let mut buf = [0u8; PAGE_SIZE];
            buf[0] = i;
            store.write_page(id, &buf).unwrap();
        }
        store.sync().unwrap();
    }
    let store = FileStore::open(&path).unwrap();
    assert_eq!(store.num_pages(), 10);
    for i in 0..10u8 {
        let mut buf = [0u8; PAGE_SIZE];
        store.read_page(i as u32, &mut buf).unwrap();
        assert_eq!(buf[0], i);
    }
    std::fs::remove_file(&path).ok();
}

/// Build a database through a fault injector with the given transient
/// read-failure rate, next to an identical fault-free reference.
fn faulty_and_clean(
    rate: f64,
    seed: u64,
) -> (DirectMeshDb, Arc<dm_storage::FaultCounters>, DirectMeshDb) {
    let hf = generate::fractal_terrain(21, 21, 43);
    let pm = build_pm(TriMesh::from_heightfield(&hf), &PmBuildConfig::default());
    let injector = FaultInjector::new(
        Box::new(MemStore::new()),
        FaultConfig::new(seed).with_read_fail_rate(rate),
    );
    let counters = injector.counters();
    let pool = Arc::new(BufferPool::new(Box::new(injector), 256));
    let faulty = DirectMeshDb::build(pool, &pm, &DmBuildOptions::default());
    let clean = DirectMeshDb::build(
        Arc::new(BufferPool::new(Box::new(MemStore::new()), 256)),
        &pm,
        &DmBuildOptions::default(),
    );
    (faulty, counters, clean)
}

#[test]
fn queries_heal_transient_faults_at_one_percent() {
    queries_heal_transient_faults(0.01, 45);
}

#[test]
fn queries_heal_transient_faults_at_five_percent() {
    queries_heal_transient_faults(0.05, 47);
}

/// With the default retry budget, transient read failures at realistic
/// rates never surface: queries return exactly the fault-free answers,
/// and the integrity report stays clean while accounting for every
/// retry the pool had to spend.
fn queries_heal_transient_faults(rate: f64, seed: u64) {
    let (faulty, counters, clean) = faulty_and_clean(rate, seed);
    let mut total_retries = 0u64;
    for frac in [0.05, 0.3] {
        let e = clean.e_max * frac;
        let roi = Rect::centered_square(clean.bounds.center(), clean.bounds.width() * 0.7);
        faulty.try_cold_start().unwrap();
        let (res, report) = faulty.try_vi_query(&roi, e).expect("index survives");
        clean.try_cold_start().unwrap();
        let want = unwrap_clean(clean.try_vi_query(&roi, e));
        assert!(report.is_clean(), "lost data at rate {rate}: {report}");
        assert_eq!(res.points, want.points, "degraded result differs at {frac}");
        assert_eq!(
            faulty.disk_accesses(),
            clean.disk_accesses(),
            "retries must not count as extra logical page fetches"
        );
        total_retries += report.retries;
    }
    // At the higher rate the deterministic stream certainly fired, and
    // every failure it injected was healed by a retry. (At 1% the few
    // hundred uncached reads of this small database may see none.)
    if rate >= 0.05 {
        assert!(
            total_retries > 0,
            "5% fault rate produced no retries at all"
        );
        assert!(counters.transient_read_failures() > 0);
    }
}

/// The strict range scan of the query plane at `e` over the whole
/// terrain — what the edit path reads through.
fn strict_scan(db: &DirectMeshDb, e: f64) -> dm_storage::StorageResult<dm_core::FetchedSet> {
    db.range_scan(
        &[dm_geom::Box3::prism(db.bounds, e, e)],
        true,
        &mut dm_core::IntegrityReport::default(),
        &mut dm_core::FetchCounters::default(),
    )
}

#[test]
fn persistent_page_corruption_degrades_instead_of_failing() {
    use dm_storage::PAGE_SIZE;
    let hf = generate::fractal_terrain(21, 21, 49);
    let pm = build_pm(TriMesh::from_heightfield(&hf), &PmBuildConfig::default());
    let path = tmp("degrade");
    {
        let pool = Arc::new(BufferPool::new(
            Box::new(FileStore::create(&path).unwrap()),
            256,
        ));
        let _db = DirectMeshDb::create_in(pool, &pm, &DmBuildOptions::default());
    }

    // Reopen, learn where the heap lives, and scribble over part of it
    // *behind the pool's back* — persistent corruption no retry can heal.
    let pool = Arc::new(BufferPool::new(
        Box::new(FileStore::open(&path).unwrap()),
        256,
    ));
    let heap_pages = dm_core::catalog::read_catalog(&pool, 0).unwrap().heap_pages;
    let db = DirectMeshDb::open(pool).expect("catalog still intact");
    let e = db.e_for_points_fraction(0.25);
    let (want, clean_report) = db.try_vi_query(&db.bounds, e).unwrap();
    assert!(clean_report.is_clean());

    db.try_cold_start().unwrap(); // drop cached copies so reads hit the file again
    let n_corrupt = heap_pages.len() / 2;
    {
        use std::io::{Seek, SeekFrom, Write};
        let mut f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        for &page in heap_pages.iter().take(n_corrupt) {
            f.seek(SeekFrom::Start(page as u64 * PAGE_SIZE as u64 + 99))
                .unwrap();
            f.write_all(b"oops").unwrap();
        }
        f.sync_all().unwrap();
    }

    let (res, report) = db
        .try_vi_query(&db.bounds, e)
        .expect("index pages untouched");
    assert!(!report.is_clean(), "corruption must be reported");
    assert!(report.pages_lost > 0 && report.pages_lost <= n_corrupt as u64);
    assert!(report.points_lost > 0);
    assert!(!report.errors.is_empty() && report.errors[0].contains("checksum"));
    assert!(
        res.points < want.points,
        "losing half the heap must shrink the mesh ({} vs {})",
        res.points,
        want.points
    );
    // The strict path refuses the same query.
    db.try_cold_start().unwrap();
    assert!(strict_scan(&db, e).is_err());

    // An untouched store would have answered exactly; sanity-check that
    // the degraded mesh is still a subset of the clean one.
    let mut got: Vec<u32> = res.front.vertex_ids().collect();
    got.sort_unstable();
    let mut full: Vec<u32> = want.front.vertex_ids().collect();
    full.sort_unstable();
    assert!(got.iter().all(|id| full.binary_search(id).is_ok()));

    // Reopening the corrupted file from scratch: a strict open reads the
    // catalog and the index, not the heap, so it attaches — the damage
    // surfaces as a checksum error on the first strict fetch over a bad
    // page, and the scrubber (`dm verify`) names it. The degraded open
    // reads everything, attaches past the bad pages and reports exactly
    // what is missing.
    drop(db);
    let fresh = || {
        Arc::new(BufferPool::new(
            Box::new(FileStore::open(&path).unwrap()),
            256,
        ))
    };
    let pool = fresh();
    let strict = DirectMeshDb::open(Arc::clone(&pool)).expect("catalog and index intact");
    let err = strict_scan(&strict, e)
        .err()
        .expect("a strict fetch must not read past a bad page");
    assert!(err.to_string().contains("checksum"), "{err}");
    assert!(!dm_core::verify::verify_store(&pool, 0).unwrap().ok());
    drop(strict);
    let mut open_report = dm_core::IntegrityReport::default();
    let db = DirectMeshDb::open_degraded(fresh(), &mut open_report).expect("catalog intact");
    assert_eq!(open_report.pages_lost, n_corrupt as u64);
    assert!(open_report.points_lost > 0);
    let (res, _) = db.try_vi_query(&db.bounds, e).unwrap();
    assert!(res.points > 0 && res.points < want.points);
    std::fs::remove_file(&path).ok();
}
