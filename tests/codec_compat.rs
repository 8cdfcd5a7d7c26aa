//! Backward compatibility across format upgrades. Builds write the
//! compact record codec only, and a committed flat-codec store answers
//! VI/VD queries like a compact build of the same terrain, and the
//! degraded open path still works on it. Stores written before catalog
//! version 4, whose id index is a B+-tree, open, answer, scrub and take
//! patches like a version-4 store of the same terrain and codec.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use dm_core::catalog::{read_catalog, IdIndexRoot};
use dm_core::record::RecordCodec;
use dm_core::{
    verify_store, BoundaryPolicy, DirectMeshDb, DmBuildOptions, EditOp, IntegrityReport, LiveDb,
    LiveOptions, VdQuery,
};
use dm_geom::{Rect, Vec2};
use dm_mtm::builder::{build_pm, PmBuildConfig};
use dm_mtm::PlaneTarget;
use dm_storage::{BTree, BufferPool, FileStore, PageId};
use dm_terrain::TriMesh;

/// The answer of a query that must have lost no data.
fn unwrap_clean<T>(answer: dm_storage::StorageResult<(T, dm_core::IntegrityReport)>) -> T {
    let (res, report) = answer.unwrap();
    assert!(report.is_clean(), "{report}");
    res
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dm_codec_{}_{name}.db", std::process::id()))
}

fn cleanup(path: &Path) {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(dm_storage::wal::wal_path(path));
    let _ = std::fs::remove_file(dm_storage::wal::root_path(path));
}

fn file_pool(path: &Path) -> Arc<BufferPool> {
    Arc::new(BufferPool::new(
        Box::new(FileStore::open(path).unwrap()),
        2048,
    ))
}

/// `legacy_v2.dmdb` and `legacy_v3.dmdb` were written before catalog
/// version 4 by `dm build --codec v2|v3` (git commit 69077db), and
/// `legacy_v4_flat.dmdb` by `dm build --codec v2` at git commit 979c831,
/// the last builder that wrote the flat codec. All three are of `dm
/// generate --kind mining --size 17 --seed 1`, which is `mining17.dmh`.
fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures")
        .join(name)
}

/// A version-4 store of `mining17.dmh` at `path`: the flat one is the
/// committed fixture, the compact one a fresh build.
fn v4_store(path: &Path, codec: RecordCodec) {
    cleanup(path);
    match codec {
        RecordCodec::Flat => {
            std::fs::copy(fixture("legacy_v4_flat.dmdb"), path).unwrap();
        }
        RecordCodec::Compact => {
            let hf =
                dm_terrain::io::read_dmh(std::fs::File::open(fixture("mining17.dmh")).unwrap())
                    .unwrap();
            let pm = build_pm(TriMesh::from_heightfield(&hf), &PmBuildConfig::default());
            DirectMeshDb::create_in(
                Arc::new(BufferPool::new(
                    Box::new(FileStore::create(path).unwrap()),
                    2048,
                )),
                &pm,
                &DmBuildOptions::default(),
            );
        }
    }
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

/// Both databases decode the same records and answer VI queries at
/// several LODs and ROIs, and a multi-base VD query, with the same
/// vertices, triangle counts and cube decomposition.
fn assert_same_answers(a: &DirectMeshDb, b: &DirectMeshDb, label: &str) {
    let (ra, rb) = (a.all_records(), b.all_records());
    assert_eq!(ra.len(), rb.len(), "{label}");
    for (id, rec) in &ra {
        assert_eq!(&rb[id], rec, "{label}: record {id} differs");
    }

    for (frac, roi_frac) in [(0.3, 1.0), (0.1, 0.5), (0.02, 0.3)] {
        let e = a.e_for_points_fraction(frac);
        let roi = Rect::centered_square(a.bounds.center(), a.bounds.width() * roi_frac);
        let ra = unwrap_clean(a.try_vi_query(&roi, e));
        let rb = unwrap_clean(b.try_vi_query(&roi, e));
        let mut ia: Vec<u32> = ra.front.vertex_ids().collect();
        let mut ib: Vec<u32> = rb.front.vertex_ids().collect();
        ia.sort_unstable();
        ib.sort_unstable();
        assert_eq!(ia, ib, "{label}: VI vertex sets differ at keep={frac}");
        assert_eq!(
            ra.front.num_triangles(),
            rb.front.num_triangles(),
            "{label}: VI triangle counts differ at keep={frac}"
        );
    }

    // VD: multi-base decomposition over a sub-window.
    let roi = Rect::centered_square(a.bounds.center(), a.bounds.width() * 0.6);
    let qa = vd_query(a, roi);
    let qb = vd_query(b, roi);
    let ra = unwrap_clean(a.try_vd_multi_base(&qa, BoundaryPolicy::FetchOnMiss, 8));
    let rb = unwrap_clean(b.try_vd_multi_base(&qb, BoundaryPolicy::FetchOnMiss, 8));
    let mut ia: Vec<u32> = ra.front.vertex_ids().collect();
    let mut ib: Vec<u32> = rb.front.vertex_ids().collect();
    ia.sort_unstable();
    ib.sort_unstable();
    assert_eq!(ia, ib, "{label}: VD vertex sets differ");
    assert_eq!(
        ra.front.num_triangles(),
        rb.front.num_triangles(),
        "{label}"
    );
    assert_eq!(
        ra.cubes.len(),
        rb.cubes.len(),
        "{label}: cube decomposition differs"
    );
}

#[test]
fn v2_database_opens_and_answers_queries_identically() {
    let (v2_path, v3_path) = (tmp("v2"), tmp("v3"));
    v4_store(&v2_path, RecordCodec::Flat);
    v4_store(&v3_path, RecordCodec::Compact);
    let v2 = DirectMeshDb::open(file_pool(&v2_path)).unwrap();
    let v3 = DirectMeshDb::open(file_pool(&v3_path)).unwrap();
    assert_eq!(v2.codec(), RecordCodec::Flat, "codec survives reopen");
    assert_eq!(v3.codec(), RecordCodec::Compact);
    assert_eq!(v2.n_records, v3.n_records);
    assert_same_answers(&v2, &v3, "flat vs compact");
    cleanup(&v2_path);
    cleanup(&v3_path);
}

#[test]
fn v2_database_still_opens_degraded() {
    let path = tmp("v2_degraded");
    v4_store(&path, RecordCodec::Flat);
    let mut report = IntegrityReport::default();
    let db = DirectMeshDb::open_degraded(file_pool(&path), &mut report).unwrap();
    assert!(report.is_clean(), "healthy v2 file reports clean: {report}");
    assert_eq!(db.codec(), RecordCodec::Flat);
    let e = db.e_for_points_fraction(0.2);
    let res = unwrap_clean(db.try_vi_query(&db.bounds.clone(), e));
    assert!(res.front.num_triangles() > 0);
    cleanup(&path);
}

/// A version-2 or version-3 store opens strict and degraded, answers
/// every query above like a version-4 store of the same terrain and
/// codec, and scrubs clean. Both then take the same patch through the
/// live write path: the older store's first commit writes its id
/// directory as a version-4 catalog, and the two still answer alike,
/// reopen and scrub clean.
#[test]
fn legacy_stores_open_answer_scrub_and_patch_like_a_v4_build() {
    for (file, codec, version) in [
        ("legacy_v2.dmdb", RecordCodec::Flat, 2),
        ("legacy_v3.dmdb", RecordCodec::Compact, 3),
    ] {
        let label = format!("v{version}");
        let old_path = tmp(&format!("legacy_v{version}"));
        cleanup(&old_path);
        std::fs::copy(fixture(file), &old_path).unwrap();
        let new_path = tmp(&format!("legacy_v{version}_as_v4"));
        v4_store(&new_path, codec);

        let old = DirectMeshDb::open(file_pool(&old_path)).unwrap();
        let new = DirectMeshDb::open(file_pool(&new_path)).unwrap();
        let (so, sn) = (old.stats_summary(), new.stats_summary());
        assert_eq!((so.catalog_version, so.codec), (version, codec), "{label}");
        assert_eq!((sn.catalog_version, sn.id_index_levels), (4, 1));
        assert_eq!(so.id_index_levels, 2, "{label}: a B+-tree of two levels");
        assert_eq!(so.id_index_entries, sn.id_index_entries);
        assert!(old.id_directory_walk().unwrap().is_none());
        assert_same_answers(&old, &new, &label);

        let mut report = IntegrityReport::default();
        let degraded = DirectMeshDb::open_degraded(file_pool(&old_path), &mut report).unwrap();
        assert!(report.is_clean(), "{label}: {report}");
        assert_same_answers(&degraded, &new, &format!("{label} degraded"));
        let scrub = verify_store(&file_pool(&old_path), 0).unwrap();
        assert!(scrub.ok(), "{label}: {scrub}");
        assert_eq!(scrub.id_entries, so.n_records);
        drop((old, new, degraded));

        let region = Rect::centered_square(sn.bounds.center(), sn.bounds.width() * 0.4);
        for path in [&old_path, &new_path] {
            let (live, _) = LiveDb::open(path, &LiveOptions::default()).unwrap();
            let out = live.apply_patch(&region, &EditOp::Raise(2.5)).unwrap();
            assert!(out.records_updated > 0);
        }
        let reopen = |path: &Path| {
            LiveDb::open(path, &LiveOptions::default())
                .unwrap()
                .0
                .snapshot()
        };
        let (old, new) = (reopen(&old_path), reopen(&new_path));
        let so = old.stats_summary();
        assert_eq!(
            (so.catalog_version, so.id_index_levels),
            (4, 1),
            "{label}: patched"
        );
        assert_eq!(
            old.id_directory_walk().unwrap().map(|w| w.entries),
            Some(so.n_records)
        );
        assert_same_answers(&old, &new, &format!("{label} patched"));
        // The snapshots keep their writers' locks; a reader opens after.
        drop((old, new));
        for path in [&old_path, &new_path] {
            let (pool, catalog) = dm_world::open_region_store(path, 2048, None).unwrap();
            let scrub = verify_store(&pool, catalog).unwrap();
            assert!(scrub.ok(), "{label}: {scrub}");
        }
        cleanup(&old_path);
        cleanup(&new_path);
    }
}

/// Page reuse on a version-2/3 store: its B+-tree pages stay reachable,
/// so never free, until the first patch writes the id directory and
/// retires them. A second patch builds on retired space, and after a
/// reopen the older store still answers like a version-4 store that took
/// the same two patches, and both scrub clean.
#[test]
fn legacy_b_tree_pages_stay_reachable_until_the_first_patch_retires_them() {
    for (file, codec, version) in [
        ("legacy_v2.dmdb", RecordCodec::Flat, 2),
        ("legacy_v3.dmdb", RecordCodec::Compact, 3),
    ] {
        let label = format!("v{version}");
        let old_path = tmp(&format!("reuse_v{version}"));
        cleanup(&old_path);
        std::fs::copy(fixture(file), &old_path).unwrap();
        let new_path = tmp(&format!("reuse_v{version}_as_v4"));
        v4_store(&new_path, codec);
        let bounds = DirectMeshDb::open(file_pool(&new_path)).unwrap().bounds;
        let btree_pages = {
            let pool = file_pool(&old_path);
            let IdIndexRoot::BTree(root, height, len) = read_catalog(&pool, 0).unwrap().ids else {
                panic!("{label}: a legacy store indexes ids in a B+-tree");
            };
            BTree::from_parts(pool, root, len, height)
                .try_node_pages()
                .unwrap()
        };
        let reaches = |set: &[PageId], p: &PageId| set.binary_search(p).is_ok();

        let edits = [
            (
                Rect::centered_square(bounds.center(), bounds.width() * 0.4),
                2.5,
            ),
            (
                Rect::centered_square(bounds.min, bounds.width() * 0.3),
                -1.0,
            ),
        ];
        for path in [&old_path, &new_path] {
            let (live, _) = LiveDb::open(path, &LiveOptions::default()).unwrap();
            let before = live.snapshot().page_set().unwrap();
            let first = live
                .apply_patch(&edits[0].0, &EditOp::Raise(edits[0].1))
                .unwrap();
            let after = live.snapshot().page_set().unwrap();
            if path == &old_path {
                assert!(btree_pages.iter().all(|p| reaches(&before, p)), "{label}");
                assert!(!btree_pages.iter().any(|p| reaches(&after, p)), "{label}");
            }
            assert_eq!(
                first.pages_reused, 0,
                "{label}: a fresh store has no garbage"
            );
            let second = live
                .apply_patch(&edits[1].0, &EditOp::Raise(edits[1].1))
                .unwrap();
            assert!(
                second.pages_reused > 0,
                "{label}: the first patch's retired pages"
            );
        }
        let reopen = |path: &Path| {
            LiveDb::open(path, &LiveOptions::default())
                .unwrap()
                .0
                .snapshot()
        };
        let (old, new) = (reopen(&old_path), reopen(&new_path));
        assert_same_answers(&old, &new, &format!("{label} patched twice"));
        drop((old, new));
        for path in [&old_path, &new_path] {
            let (pool, catalog) = dm_world::open_region_store(path, 2048, None).unwrap();
            let scrub = verify_store(&pool, catalog).unwrap();
            assert!(scrub.ok(), "{label}: {scrub}");
            assert!(scrub.free_pages > 0, "{label}: {scrub}");
        }
        cleanup(&old_path);
        cleanup(&new_path);
    }
}

/// A v3 build of `mining17.dmh` is pinned byte for byte, digest taken
/// from the builder that encoded every record twice and gathered the page
/// boxes through a hash map: encoding once, sorting by key and
/// collecting the boxes in page order change no byte of the file.
#[test]
fn v3_store_file_bytes_are_pinned() {
    let hf =
        dm_terrain::io::read_dmh(std::fs::File::open(fixture("mining17.dmh")).unwrap()).unwrap();
    let pm = build_pm(TriMesh::from_heightfield(&hf), &PmBuildConfig::default());
    let path = tmp("pinned_v3");
    cleanup(&path);
    DirectMeshDb::create_in(
        Arc::new(BufferPool::new(
            Box::new(FileStore::create(&path).unwrap()),
            2048,
        )),
        &pm,
        &DmBuildOptions::default(),
    );
    let bytes = std::fs::read(&path).unwrap();
    cleanup(&path);
    let digest = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    });
    assert_eq!(
        (bytes.len(), digest),
        (57344, 0xdb1c_c512_7f48_da54),
        "{digest:#018x}"
    );
}
