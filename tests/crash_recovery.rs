//! Crash-injection property test for the live write path.
//!
//! For random interleavings of edits, injected crashes (the fault layer
//! kills the store after N writes, so the process "dies" at an arbitrary
//! byte offset inside the commit protocol), reopens and queries, the
//! file-backed [`LiveDb`] must always recover to a state that is
//! **bit-for-bit** equal to a serial reference execution — an in-memory
//! [`DirectMeshDb`] that applies exactly the edits whose commit points
//! were reached, in order, with no WAL and no crashes.
//!
//! The same schedules are also replayed under the existing 1% transient
//! read-fault injection (the buffer pool's retries must absorb it), and
//! every final state is cross-checked through a degraded open.
//!
//! A second property adds pinned snapshots to the schedule: commits reuse
//! retired pages, and none may be one a live snapshot can still read.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dm_core::{
    DirectMeshDb, DmBuildOptions, DmRecord, EditOp, IntegrityReport, LiveDb, LiveOptions,
};
use dm_geom::{Box3, Rect, Vec2, Vec3};
use dm_mtm::builder::{build_pm, PmBuildConfig};
use dm_storage::wal::root_path;
use dm_storage::{BufferPool, FaultConfig, FileStore, MemStore, RootFile, StorageError};
use dm_terrain::{generate, TriMesh};
use proptest::prelude::*;

/// Unique store path per proptest case (cases run in one process).
static CASE: AtomicU64 = AtomicU64::new(0);

fn tmp_path() -> PathBuf {
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("dm_crashprop_{}_{n}.db", std::process::id()))
}

fn cleanup(path: &Path) {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(dm_storage::wal::wal_path(path));
    let _ = std::fs::remove_file(root_path(path));
}

/// Build the same terrain into a file-backed store (the system under
/// test) and an in-memory store (the serial reference); returns the
/// reference database.
fn build_stores(path: &Path, side: usize, seed: u64) -> DirectMeshDb {
    cleanup(path);
    let hf = generate::fractal_terrain(side, side, seed);
    let pm = build_pm(TriMesh::from_heightfield(&hf), &PmBuildConfig::default());
    let pool = Arc::new(BufferPool::new(
        Box::new(FileStore::create(path).unwrap()),
        2048,
    ));
    DirectMeshDb::create_in(pool, &pm, &DmBuildOptions::default());
    let shadow_pool = Arc::new(BufferPool::new(Box::new(MemStore::new()), 2048));
    DirectMeshDb::create_in(shadow_pool, &pm, &DmBuildOptions::default())
}

/// An edit region from fractional coordinates over the terrain bounds.
fn region_from(db: &DirectMeshDb, fx: f64, fy: f64, half: f64) -> Rect {
    let b = db.bounds;
    let c = Vec2::new(b.min.x + fx * b.width(), b.min.y + fy * b.height());
    let r = half * b.width().max(b.height());
    Rect::from_corners(Vec2::new(c.x - r, c.y - r), Vec2::new(c.x + r, c.y + r))
}

/// Canonical view of a spatial query answer: sorted `(id, z bits)`.
fn query_fingerprint(db: &DirectMeshDb) -> Vec<(u32, u64)> {
    let everywhere = Box3::new(
        Vec3::new(f64::NEG_INFINITY, f64::NEG_INFINITY, f64::NEG_INFINITY),
        Vec3::new(f64::INFINITY, f64::INFINITY, f64::INFINITY),
    );
    let mut out: Vec<(u32, u64)> = db
        .range_scan(
            &[everywhere],
            true,
            &mut dm_core::IntegrityReport::default(),
            &mut dm_core::FetchCounters::default(),
        )
        .unwrap_or_else(|e| panic!("fetch box: {e}"))
        .nodes
        .iter()
        .map(|n| (n.id, n.pos.z.to_bits()))
        .collect();
    out.sort_unstable();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The tentpole acceptance property: any schedule of
    /// edit / crash / reopen / query against the WAL-backed store is
    /// equivalent to a serial reference execution — including under 1%
    /// transient read faults, and when the final state is read back
    /// through a degraded open.
    #[test]
    fn edit_crash_reopen_schedules_match_serial_reference(
        seed in 0u64..10_000,
        read_faults in any::<bool>(),
        // (mode, fx, fy, half-extent, dz, kill-after-N-writes; 0 tears the WAL append itself)
        // mode 0: committed edit; 1: edit with a crash injected; 2: reopen.
        ops in collection::vec(
            (0u8..3, 0.15..0.85f64, 0.15..0.85f64, 0.05..0.3f64, -6.0..6.0f64, 0u64..12),
            2..6,
        ),
    ) {
        let path = tmp_path();
        let mut shadow = build_stores(&path, 9, seed);

        // Baseline fault config for "healthy" opens: either clean I/O or
        // transient read faults that retries must fully absorb.
        let base_fault = if read_faults {
            Some(FaultConfig::new(seed ^ 0xF417).with_read_fail_rate(0.01))
        } else {
            None
        };
        let opts = LiveOptions { cache_pages: 2048, fault: base_fault };

        let (mut live, info) = LiveDb::open(&path, &opts).unwrap();
        prop_assert_eq!(info.epoch, 0);
        let mut epoch = 0u64;

        for (i, &(mode, fx, fy, half, dz, kill_n)) in ops.iter().enumerate() {
            match mode {
                0 => {
                    // A committed edit: must succeed and advance the epoch.
                    let region = region_from(&live.snapshot(), fx, fy, half);
                    let op = EditOp::Raise(dz);
                    let stats = live.apply_patch(&region, &op).unwrap();
                    epoch += 1;
                    prop_assert_eq!(stats.epoch, epoch);
                    shadow = shadow.apply_patch(&region, &op).unwrap().db;
                }
                1 => {
                    // The same edit, but the store dies after `kill_n`
                    // writes — possibly mid-WAL, mid-page, or mid-root.
                    let region = region_from(&live.snapshot(), fx, fy, half);
                    let op = EditOp::Raise(dz);
                    drop(live);
                    let mut crash = FaultConfig::new(
                        seed.wrapping_mul(31).wrapping_add(i as u64),
                    )
                    .with_fail_writes_after(kill_n);
                    if read_faults {
                        crash = crash.with_read_fail_rate(0.01);
                    }
                    let crash_opts = LiveOptions { cache_pages: 2048, fault: Some(crash) };
                    let (crashy, info) = LiveDb::open(&path, &crash_opts).unwrap();
                    prop_assert_eq!(info.epoch, epoch);
                    let res = crashy.apply_patch(&region, &op);
                    drop(crashy);

                    // Recovery decides: the edit either fully committed
                    // (WAL entry was durable, or the commit point itself
                    // was reached) or fully vanished. The recovered epoch
                    // is the oracle for which world we are in.
                    let (recovered, info) = LiveDb::open(&path, &opts).unwrap();
                    if info.epoch == epoch + 1 {
                        epoch += 1;
                        shadow = shadow.apply_patch(&region, &op).unwrap().db;
                    } else {
                        prop_assert_eq!(info.epoch, epoch);
                        prop_assert!(
                            res.is_err(),
                            "edit reported success but did not survive recovery"
                        );
                    }
                    live = recovered;
                }
                _ => {
                    // A clean close + reopen: nothing to replay, nothing
                    // lost.
                    drop(live);
                    let (reopened, info) = LiveDb::open(&path, &opts).unwrap();
                    prop_assert_eq!(info.epoch, epoch);
                    prop_assert_eq!(info.replayed, 0);
                    prop_assert!(!info.discarded_tail);
                    live = reopened;
                }
            }

            // After every step the live store must match the serial
            // reference bit-for-bit — full record state and the spatial
            // query path.
            let snap = live.snapshot();
            prop_assert_eq!(snap.all_records(), shadow.all_records());
            prop_assert_eq!(query_fingerprint(&snap), query_fingerprint(&shadow));
        }

        // Final cross-check: a degraded open of the committed state sees
        // the same world (and finds nothing actually degraded).
        drop(live);
        let (_root, committed) = RootFile::open(&root_path(&path)).unwrap();
        let catalog = committed.map(|r| r.catalog_page).unwrap_or(0);
        let pool = Arc::new(BufferPool::new(
            Box::new(FileStore::open(&path).unwrap()),
            2048,
        ));
        let mut report = IntegrityReport::default();
        let db = DirectMeshDb::open_degraded_at(pool, catalog, &mut report).unwrap();
        prop_assert!(report.is_clean(), "degraded open found damage: {:?}", report);
        prop_assert_eq!(db.all_records(), shadow.all_records());
        cleanup(&path);
    }
}

/// A snapshot held across later steps, with what it read when it was
/// taken.
struct Pin {
    snap: Arc<DirectMeshDb>,
    records: Vec<(u32, DmRecord)>,
    answer: Vec<(u32, u64)>,
}

fn sorted_records(db: &DirectMeshDb) -> Vec<(u32, DmRecord)> {
    let mut out: Vec<(u32, DmRecord)> = db.all_records().into_iter().collect();
    out.sort_unstable_by_key(|&(id, _)| id);
    out
}

fn committed_catalog(path: &Path) -> u32 {
    let (_root, committed) = RootFile::open(&root_path(path)).unwrap();
    committed.map_or(0, |r| r.catalog_page)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Page reuse under readers: the edit / crash / reopen schedule with
    /// snapshots pinned and unpinned in between. After every step no
    /// page on the free list is reachable from any live snapshot, every
    /// pinned snapshot still reads exactly what it read when pinned, the
    /// store matches the serial reference, a degraded open of the
    /// committed version finds no damage, and — once nothing is pinned —
    /// the file holds at most two patches beyond the live pages and what
    /// it grew by while pins held space back.
    #[test]
    fn pinned_snapshots_never_read_a_reused_page(
        seed in 0u64..10_000,
        // (mode, fx, fy, half-extent, dz, kill-after-N-writes)
        // mode 0–2: committed edit; 3: crashed edit; 4: reopen;
        // 5–6: pin the latest snapshot; 7: unpin the oldest pin.
        ops in collection::vec(
            (0u8..8, 0.15..0.85f64, 0.15..0.85f64, 0.05..0.3f64, -6.0..6.0f64, 0u64..12),
            4..12,
        ),
    ) {
        let path = tmp_path();
        let mut shadow = build_stores(&path, 9, seed);
        let opts = LiveOptions { cache_pages: 2048, fault: None };
        let (mut live, _) = LiveDb::open(&path, &opts).unwrap();
        let mut epoch = 0u64;
        let mut pins: Vec<Pin> = Vec::new();
        // Most pages one patch (or one replay) allocated, and the file's
        // growth over steps that began with a pin held.
        let mut largest = 0u32;
        let mut pinned_growth = 0u32;

        for (i, &(mode, fx, fy, half, dz, kill_n)) in ops.iter().enumerate() {
            let pages_before = live.pool().num_pages();
            let pinned = !pins.is_empty();
            match mode {
                0..=2 => {
                    let region = region_from(&live.snapshot(), fx, fy, half);
                    let op = EditOp::Raise(dz);
                    let stats = live.apply_patch(&region, &op).unwrap();
                    epoch += 1;
                    let grown = live.pool().num_pages() - pages_before;
                    largest = largest.max(grown + stats.pages_reused as u32);
                    shadow = shadow.apply_patch(&region, &op).unwrap().db;
                }
                3 | 4 => {
                    let region = region_from(&live.snapshot(), fx, fy, half);
                    let op = EditOp::Raise(dz);
                    drop(live);
                    if pinned {
                        // A pinned snapshot keeps the writer's lock.
                        let reopen = LiveDb::open(&path, &opts).map(|_| ());
                        prop_assert!(
                            matches!(reopen, Err(StorageError::Locked { .. })),
                            "a reopen under a pin must be locked out"
                        );
                        pins.clear();
                    }
                    let mut res = Err(StorageError::format("no edit attempted"));
                    if mode == 3 {
                        let crash = FaultConfig::new(seed.wrapping_mul(37).wrapping_add(i as u64))
                            .with_fail_writes_after(kill_n);
                        let crash_opts = LiveOptions { cache_pages: 2048, fault: Some(crash) };
                        let (crashy, _) = LiveDb::open(&path, &crash_opts).unwrap();
                        res = crashy.apply_patch(&region, &op).map(|_| ());
                    }
                    let (reopened, info) = LiveDb::open(&path, &opts).unwrap();
                    if info.epoch == epoch + 1 {
                        prop_assert_eq!(mode, 3);
                        epoch += 1;
                        shadow = shadow.apply_patch(&region, &op).unwrap().db;
                    } else {
                        prop_assert_eq!(info.epoch, epoch);
                        prop_assert!(mode == 4 || res.is_err());
                    }
                    // A replay is a patch too.
                    largest = largest.max(reopened.pool().num_pages().saturating_sub(pages_before));
                    live = reopened;
                }
                5 | 6 => {
                    let snap = live.snapshot();
                    pins.push(Pin {
                        records: sorted_records(&snap),
                        answer: query_fingerprint(&snap),
                        snap,
                    });
                }
                _ => {
                    if !pins.is_empty() {
                        pins.remove(0);
                    }
                }
            }
            if pinned {
                pinned_growth += live.pool().num_pages().saturating_sub(pages_before);
            }

            let snap = live.snapshot();
            prop_assert_eq!(snap.all_records(), shadow.all_records());
            prop_assert_eq!(query_fingerprint(&snap), query_fingerprint(&shadow));
            let free = live.pool().free_pages();
            for reader in pins.iter().map(|p| &p.snap).chain([&snap]) {
                let reach = reader.page_set().unwrap();
                prop_assert!(
                    free.iter().all(|p| reach.binary_search(p).is_err()),
                    "step {}: a free page is reachable from a live snapshot", i
                );
            }
            for pin in &pins {
                prop_assert!(sorted_records(&pin.snap) == pin.records, "step {}: pin moved", i);
                prop_assert_eq!(&query_fingerprint(&pin.snap), &pin.answer);
            }
            // A second open would be locked out: the degraded census runs
            // through the writer's own pool.
            let mut report = IntegrityReport::default();
            let degraded = DirectMeshDb::open_degraded_at(
                Arc::clone(live.pool()),
                committed_catalog(&path),
                &mut report,
            )
            .unwrap();
            prop_assert!(report.is_clean(), "degraded open found damage: {:?}", report);
            prop_assert!(degraded.all_records() == snap.all_records());
            if pins.is_empty() {
                let live_pages = snap.page_set().unwrap().len() as u32;
                prop_assert!(
                    live.pool().num_pages() <= live_pages + 2 * largest + pinned_growth,
                    "step {}: {} pages for {} live, largest patch {}, {} grown under pins",
                    i, live.pool().num_pages(), live_pages, largest, pinned_growth
                );
            }
        }
        drop((pins, live));
        cleanup(&path);
    }
}
