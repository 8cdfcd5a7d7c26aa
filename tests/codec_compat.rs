//! Backward compatibility across the record-codec upgrade: a database
//! built with the v2 flat codec must open under the current binary and
//! answer VI/VD queries byte-identically to a v3-compact database of the
//! same terrain — and the degraded open path must still work on it.

use std::sync::Arc;

use dm_core::record::RecordCodec;
use dm_core::{BoundaryPolicy, DirectMeshDb, DmBuildOptions, IntegrityReport, VdQuery};
use dm_geom::{Rect, Vec2};
use dm_mtm::builder::{build_pm, PmBuild, PmBuildConfig};
use dm_mtm::PlaneTarget;
use dm_storage::{BufferPool, FileStore};
use dm_terrain::{generate, TriMesh};

/// The answer of a query that must have lost no data.
fn unwrap_clean<T>(answer: dm_storage::StorageResult<(T, dm_core::IntegrityReport)>) -> T {
    let (res, report) = answer.unwrap();
    assert!(report.is_clean(), "{report}");
    res
}

fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("dm_codec_{}_{name}.db", std::process::id()))
}

fn sample_pm() -> PmBuild {
    let hf = generate::fractal_terrain(21, 21, 5);
    build_pm(TriMesh::from_heightfield(&hf), &PmBuildConfig::default())
}

/// Create a file-backed database with the given codec and drop it, then
/// reopen it from the file alone.
fn persist_and_reopen(name: &str, pm: &PmBuild, codec: RecordCodec) -> DirectMeshDb {
    let path = tmp(name);
    let _ = std::fs::remove_file(&path);
    {
        let pool = Arc::new(BufferPool::new(
            Box::new(FileStore::create(&path).unwrap()),
            2048,
        ));
        let db = DirectMeshDb::create_in(
            pool,
            pm,
            &DmBuildOptions {
                codec,
                ..Default::default()
            },
        );
        assert_eq!(db.codec(), codec);
    }
    let pool = Arc::new(BufferPool::new(
        Box::new(FileStore::open(&path).unwrap()),
        2048,
    ));
    DirectMeshDb::open(pool).unwrap()
}

fn vd_query(db: &DirectMeshDb, roi: Rect) -> VdQuery {
    let e_min = db.e_for_points_fraction(0.4);
    let e_far = db.e_for_points_fraction(0.05).max(e_min);
    VdQuery {
        roi,
        target: PlaneTarget {
            origin: roi.min,
            dir: Vec2::new(0.0, 1.0),
            e_min,
            slope: (e_far - e_min) / roi.height().max(1e-9),
            e_max: e_far,
        },
    }
}

#[test]
fn v2_database_opens_and_answers_queries_identically() {
    let pm = sample_pm();
    let v2 = persist_and_reopen("v2", &pm, RecordCodec::Flat);
    let v3 = persist_and_reopen("v3", &pm, RecordCodec::Compact);
    assert_eq!(v2.codec(), RecordCodec::Flat, "codec survives reopen");
    assert_eq!(v3.codec(), RecordCodec::Compact);
    assert_eq!(v2.n_records, v3.n_records);

    // Every stored record decodes identically from both files.
    let a = v2.all_records();
    let b = v3.all_records();
    assert_eq!(a.len(), b.len());
    for (id, rec) in &a {
        assert_eq!(&b[id], rec, "record {id} differs across codecs");
    }

    // VI: same vertices and triangles at several LODs and ROIs.
    for (frac, roi_frac) in [(0.3, 1.0), (0.1, 0.5), (0.02, 0.3)] {
        let e = v2.e_for_points_fraction(frac);
        let roi = Rect::centered_square(v2.bounds.center(), v2.bounds.width() * roi_frac);
        let ra = unwrap_clean(v2.try_vi_query(&roi, e));
        let rb = unwrap_clean(v3.try_vi_query(&roi, e));
        let mut ia: Vec<u32> = ra.front.vertex_ids().collect();
        let mut ib: Vec<u32> = rb.front.vertex_ids().collect();
        ia.sort_unstable();
        ib.sort_unstable();
        assert_eq!(ia, ib, "VI vertex sets differ at keep={frac}");
        assert_eq!(
            ra.front.num_triangles(),
            rb.front.num_triangles(),
            "VI triangle counts differ at keep={frac}"
        );
    }

    // VD: multi-base decomposition over a sub-window.
    let roi = Rect::centered_square(v2.bounds.center(), v2.bounds.width() * 0.6);
    let qa = vd_query(&v2, roi);
    let qb = vd_query(&v3, roi);
    let ra = unwrap_clean(v2.try_vd_multi_base(&qa, BoundaryPolicy::FetchOnMiss, 8));
    let rb = unwrap_clean(v3.try_vd_multi_base(&qb, BoundaryPolicy::FetchOnMiss, 8));
    let mut ia: Vec<u32> = ra.front.vertex_ids().collect();
    let mut ib: Vec<u32> = rb.front.vertex_ids().collect();
    ia.sort_unstable();
    ib.sort_unstable();
    assert_eq!(ia, ib, "VD vertex sets differ");
    assert_eq!(ra.front.num_triangles(), rb.front.num_triangles());
    assert_eq!(ra.cubes.len(), rb.cubes.len(), "cube decomposition differs");

    for name in ["v2", "v3"] {
        let _ = std::fs::remove_file(tmp(name));
    }
}

#[test]
fn v2_database_still_opens_degraded() {
    let pm = sample_pm();
    let path = tmp("v2_degraded");
    let _ = std::fs::remove_file(&path);
    {
        let pool = Arc::new(BufferPool::new(
            Box::new(FileStore::create(&path).unwrap()),
            2048,
        ));
        DirectMeshDb::create_in(
            pool,
            &pm,
            &DmBuildOptions {
                codec: RecordCodec::Flat,
                ..Default::default()
            },
        );
    }
    let pool = Arc::new(BufferPool::new(
        Box::new(FileStore::open(&path).unwrap()),
        2048,
    ));
    let mut report = IntegrityReport::default();
    let db = DirectMeshDb::open_degraded(pool, &mut report).unwrap();
    assert!(report.is_clean(), "healthy v2 file reports clean: {report}");
    assert_eq!(db.codec(), RecordCodec::Flat);
    let e = db.e_for_points_fraction(0.2);
    let res = unwrap_clean(db.try_vi_query(&db.bounds.clone(), e));
    assert!(res.front.num_triangles() > 0);
    let _ = std::fs::remove_file(&path);
}
