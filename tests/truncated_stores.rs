//! Satellite robustness test: store files truncated **mid-page** — the
//! classic crash/copy accident. Strict opens must fail with a typed
//! error (never panic, never serve silently wrong data); degraded opens
//! must serve exactly the surviving prefix, for both the v2 (flat) and
//! v3 (compact) record codecs. A lost, corrupt or malformed id-directory
//! page, or a bad fence list, is a typed error too.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use dm_core::catalog::{read_catalog, write_catalog, IdIndexRoot};
use dm_core::record::RecordCodec;
use dm_core::{verify_store, DirectMeshDb, DmBuildOptions, DmRecord, IntegrityReport};
use dm_geom::{Box3, Vec3};
use dm_mtm::builder::{build_pm, PmBuildConfig};
use dm_storage::{BufferPool, FileStore, StorageError, PAGE_SIZE};
use dm_terrain::{generate, TriMesh};

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dm_trunc_{}_{name}.db", std::process::id()))
}

fn everywhere() -> Box3 {
    Box3::new(
        Vec3::new(f64::NEG_INFINITY, f64::NEG_INFINITY, f64::NEG_INFINITY),
        Vec3::new(f64::INFINITY, f64::INFINITY, f64::INFINITY),
    )
}

/// Every record the store can still serve, through the one range scan.
fn scan_everywhere(
    db: &DirectMeshDb,
    strict: bool,
    report: &mut IntegrityReport,
) -> dm_storage::StorageResult<Vec<DmRecord>> {
    let set = db.range_scan(
        &[everywhere()],
        strict,
        report,
        &mut dm_core::FetchCounters::default(),
    )?;
    Ok((0..set.len()).map(|i| set.record(i)).collect())
}

/// A healthy file-backed database at `path`: the committed flat-codec
/// store of `mining17.dmh` (see `tests/codec_compat.rs`; builds write the
/// compact codec only), or a compact build. Returns its full record set
/// and the total page count of the healthy file.
fn build(path: &Path, codec: RecordCodec) -> (HashMap<u32, DmRecord>, u32) {
    let _ = std::fs::remove_file(path);
    let pool = match codec {
        RecordCodec::Flat => {
            let fixture = Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("../../tests/fixtures/legacy_v4_flat.dmdb");
            std::fs::copy(fixture, path).unwrap();
            file_pool(path)
        }
        RecordCodec::Compact => {
            let hf = generate::fractal_terrain(33, 33, 3);
            let pm = build_pm(TriMesh::from_heightfield(&hf), &PmBuildConfig::default());
            let pool = Arc::new(BufferPool::new(
                Box::new(FileStore::create(path).unwrap()),
                2048,
            ));
            DirectMeshDb::create_in(Arc::clone(&pool), &pm, &DmBuildOptions::default());
            pool
        }
    };
    let db = DirectMeshDb::open(Arc::clone(&pool)).unwrap();
    let full: HashMap<u32, DmRecord> = scan_everywhere(&db, true, &mut IntegrityReport::default())
        .unwrap()
        .into_iter()
        .map(|r| (r.node.id, r))
        .collect();
    (full, pool.num_pages())
}

/// Copy `src` to `dst`, keeping `keep` whole pages plus half of the next
/// page — a truncation landing in the middle of a page.
fn truncate_mid_page(src: &Path, dst: &Path, keep: u32) {
    let _ = std::fs::remove_file(dst);
    std::fs::copy(src, dst).unwrap();
    let f = std::fs::OpenOptions::new().write(true).open(dst).unwrap();
    f.set_len(u64::from(keep) * PAGE_SIZE as u64 + PAGE_SIZE as u64 / 2)
        .unwrap();
    f.sync_all().unwrap();
}

#[test]
fn truncated_stores_fail_strict_opens_and_serve_surviving_prefix_degraded() {
    for (codec, name) in [(RecordCodec::Flat, "v2"), (RecordCodec::Compact, "v3")] {
        let src = tmp(&format!("src_{name}"));
        let (full, total) = build(&src, codec);
        assert!(total > 6, "store too small to truncate meaningfully");

        // Cut just before the end (index pages lost, heap intact) and in
        // the middle (heap pages lost too).
        for (tag, keep) in [("tail", total - 1), ("mid", total * 3 / 5)] {
            let cut = tmp(&format!("{tag}_{name}"));
            truncate_mid_page(&src, &cut, keep);

            // The raw store refuses the mid-page length outright.
            assert!(
                FileStore::open(&cut).is_err(),
                "{name}/{tag}: mid-page file length must be rejected"
            );

            // A trimmed open succeeds at the store layer, but the strict
            // database open must fail with a typed error: pages the
            // catalog promises are gone.
            let pool = Arc::new(BufferPool::new(
                Box::new(FileStore::open_locked(&cut, false).unwrap()),
                2048,
            ));
            let strict = DirectMeshDb::open(Arc::clone(&pool));
            assert!(
                strict.is_err(),
                "{name}/{tag}: strict open of a truncated store must fail"
            );

            // The degraded open serves the surviving prefix: every record
            // it returns is bit-identical to the healthy build's record.
            let mut report = IntegrityReport::default();
            let db = DirectMeshDb::open_degraded_at(pool, 0, &mut report)
                .unwrap_or_else(|e| panic!("{name}/{tag}: degraded open failed: {e}"));
            let mut fetch_report = IntegrityReport::default();
            let got = scan_everywhere(&db, false, &mut fetch_report)
                .unwrap_or_else(|e| panic!("{name}/{tag}: degraded fetch failed: {e}"));
            assert!(!got.is_empty(), "{name}/{tag}: surviving prefix is empty");
            for r in &got {
                assert_eq!(
                    full.get(&r.node.id),
                    Some(r),
                    "{name}/{tag}: surviving record {} differs from the healthy build",
                    r.node.id
                );
            }

            if keep == total - 1 {
                // Only index pages were lost: the heap survives whole, so
                // the degraded view is complete (served via heap scan).
                assert_eq!(
                    got.len(),
                    full.len(),
                    "{name}/{tag}: heap is intact, no record may be lost"
                );
                assert!(db.rtree_lost(), "{name}/{tag}: index loss must be flagged");
            } else {
                // Heap pages were chopped: a strict subset survives and
                // the loss is accounted, not hidden.
                assert!(
                    got.len() < full.len(),
                    "{name}/{tag}: mid-store cut must lose records"
                );
                assert!(
                    report.pages_lost > 0 || fetch_report.pages_lost > 0,
                    "{name}/{tag}: lost pages must be reported"
                );
            }
            let _ = std::fs::remove_file(&cut);
        }
        let _ = std::fs::remove_file(&src);
    }
}

fn file_pool(path: &Path) -> Arc<BufferPool> {
    Arc::new(BufferPool::new(
        Box::new(FileStore::open_locked(path, false).unwrap()),
        2048,
    ))
}

#[test]
fn lost_corrupt_or_malformed_id_directory_is_a_typed_error() {
    let src = tmp("dir_src");
    let (full, _) = build(&src, RecordCodec::Compact);
    let IdIndexRoot::Directory(dir) = read_catalog(&file_pool(&src), 0).unwrap().ids else {
        panic!("a fresh build writes an id directory");
    };
    assert!(
        dir.len() >= 2,
        "need two directory pages, got {}",
        dir.len()
    );
    let (fence, page) = dir[1];
    let is_corrupt_page = |r: dm_storage::StorageResult<Option<DmRecord>>| matches!(r, Err(StorageError::Corrupt { page: p, .. }) if p == page);

    // Scribbled bytes: the page checksum catches them at the lookup (a
    // strict open reads no directory page); the other pages still serve.
    let bad = tmp("dir_scribbled");
    let _ = std::fs::remove_file(&bad);
    std::fs::copy(&src, &bad).unwrap();
    {
        use std::io::{Seek, SeekFrom, Write};
        let mut f = std::fs::OpenOptions::new().write(true).open(&bad).unwrap();
        f.seek(SeekFrom::Start(u64::from(page) * PAGE_SIZE as u64 + 99))
            .unwrap();
        f.write_all(b"oops").unwrap();
    }
    let pool = file_pool(&bad);
    let db = DirectMeshDb::open(Arc::clone(&pool)).unwrap();
    assert!(is_corrupt_page(db.try_fetch_by_id(fence)));
    assert_eq!(db.try_fetch_by_id(0).unwrap().as_ref(), full.get(&0));
    let scrub = verify_store(&pool, 0).unwrap();
    assert!(
        scrub.errors.iter().any(|e| e.contains("id index")),
        "{scrub}"
    );
    let _ = std::fs::remove_file(&bad);

    // A page whose checksum holds but whose header claims more than a
    // page can hold.
    let pool = file_pool(&src);
    let db = DirectMeshDb::open(Arc::clone(&pool)).unwrap();
    pool.try_write(page, |b| b[0..2].copy_from_slice(&u16::MAX.to_le_bytes()))
        .unwrap();
    assert!(is_corrupt_page(db.try_fetch_by_id(fence)));
    assert!(!verify_store(&pool, 0).unwrap().ok());
    drop((db, pool));

    // Cut inside the directory: the strict open refuses the catalog, the
    // degraded one serves the whole heap, and a lookup through the lost
    // page is a typed error.
    let cut = tmp("dir_cut");
    truncate_mid_page(&src, &cut, page);
    assert!(DirectMeshDb::open(file_pool(&cut)).is_err());
    let mut report = IntegrityReport::default();
    let db = DirectMeshDb::open_degraded(file_pool(&cut), &mut report).unwrap();
    let got = scan_everywhere(&db, false, &mut IntegrityReport::default()).unwrap();
    assert_eq!(got.len(), full.len());
    assert!(db.try_fetch_by_id(fence).is_err());
    assert_eq!(db.try_fetch_by_id(0).unwrap().as_ref(), full.get(&0));
    drop(db);
    let _ = std::fs::remove_file(&cut);

    // The fence list: out of order, or naming a page past the end.
    let pool = file_pool(&src);
    let rewrite = |edit: fn(&mut [(u32, u32)])| {
        let mut cat = read_catalog(&pool, 0).unwrap();
        let IdIndexRoot::Directory(pages) = &mut cat.ids else {
            unreachable!()
        };
        edit(pages);
        let at = pool.try_allocate().unwrap();
        write_catalog(&pool, at, &cat).unwrap();
        at
    };
    let swapped = rewrite(|pages| pages.swap(0, 1));
    assert!(matches!(
        DirectMeshDb::open_at(Arc::clone(&pool), swapped),
        Err(StorageError::Format { .. })
    ));
    let scrub = verify_store(&pool, swapped).unwrap();
    assert!(scrub.errors.iter().any(|e| e.contains("fences")), "{scrub}");
    let past_end = rewrite(|pages| pages[1].1 = 1_000_000);
    assert!(matches!(
        DirectMeshDb::open_at(Arc::clone(&pool), past_end),
        Err(StorageError::OutOfBounds {
            page: 1_000_000,
            ..
        })
    ));
    assert!(!verify_store(&pool, past_end).unwrap().ok());
    let _ = std::fs::remove_file(&src);
}
