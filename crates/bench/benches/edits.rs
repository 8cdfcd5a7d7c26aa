//! Live-edit write path: patch latency vs full rebuild, locality of the
//! copy-on-write update, and crash-recovery cost.
//!
//! Measures, on a file-backed store:
//!   1. one full rebuild (QEM simplification + store construction) — the
//!      only way to change terrain before the WAL write path existed;
//!   2. `LiveDb::apply_patch` over small random regions (re-simplifies
//!      just the dirty neighborhood, rewrites only touched pages);
//!   3. cold disk accesses of a query over an *unmodified* region before
//!      and after the edits — copy-on-write must leave them unchanged —
//!      and the store's size: once no snapshot holds them, retired pages
//!      are reused, so after the second edit the file grows by no more
//!      than the largest single patch;
//!   4. recovery: a crash is injected mid-edit (store dies after the WAL
//!      append), then the reopen that replays the WAL tail is timed
//!      against a clean reopen.
//!
//! `DM_SCALE` picks the dataset size (`ci` | `default` | `paper`);
//! `DM_EDITS_OUT` overrides the output path (`BENCH_edits.json`).

use std::sync::Arc;
use std::time::Instant;

use dm_bench::{random_rois, Scale, POOL_PAGES};
use dm_core::{DirectMeshDb, DmBuildOptions, EditOp, LiveDb, LiveOptions};
use dm_geom::{Rect, Vec2};
use dm_mtm::builder::{build_pm, PmBuildConfig};
use dm_storage::{BufferPool, FaultConfig, FileStore};
use dm_terrain::{generate, TriMesh};

fn json_array<T: std::fmt::Display>(xs: impl Iterator<Item = T>) -> String {
    let items: Vec<String> = xs.map(|x| x.to_string()).collect();
    format!("[{}]", items.join(", "))
}

fn main() {
    let scale = Scale::from_env();
    let side = scale.small;
    let path = std::env::temp_dir().join(format!("dm_bench_edits_{}.db", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(dm_storage::wal::wal_path(&path));
    let _ = std::fs::remove_file(dm_storage::wal::root_path(&path));

    // --- 1. full rebuild: the pre-write-path cost of any terrain change.
    let hf = generate::fractal_terrain(side, side, 42);
    let t0 = Instant::now();
    let pm = build_pm(TriMesh::from_heightfield(&hf), &PmBuildConfig::default());
    let pool = Arc::new(BufferPool::new(
        Box::new(FileStore::create(&path).unwrap()),
        POOL_PAGES,
    ));
    DirectMeshDb::create_in(pool, &pm, &DmBuildOptions::default());
    let rebuild_secs = t0.elapsed().as_secs_f64();
    eprintln!("# mining-{side} rebuilt in {rebuild_secs:.3}s");

    let opts = LiveOptions {
        cache_pages: POOL_PAGES,
        fault: None,
    };
    let (live, _) = LiveDb::open(&path, &opts).unwrap();
    let snap = live.snapshot();
    let bounds = snap.bounds;
    let e_probe = snap.e_for_points_fraction(0.3);

    // Control query over a region no edit will touch: the far corner.
    let control = Rect::from_corners(
        Vec2::new(
            bounds.min.x + bounds.width() * 0.75,
            bounds.min.y + bounds.height() * 0.75,
        ),
        bounds.max,
    );
    let cold_da = |db: &DirectMeshDb| {
        db.try_cold_start().unwrap();
        db.try_vi_query(&control, e_probe).unwrap();
        db.disk_accesses()
    };
    let da_before = cold_da(&snap);
    // A held snapshot would keep every page the edits retire.
    drop(snap);
    let pool = Arc::clone(live.pool());

    // --- 2. patches over small random regions away from the control.
    let regions: Vec<Rect> = random_rois(&bounds, 0.01, scale.locations * 4, 7)
        .into_iter()
        .filter(|r| !r.intersects(&control))
        .take(scale.locations)
        .collect();
    let mut patch_secs = Vec::new();
    let mut pages_rewritten = Vec::new();
    let mut records_updated = Vec::new();
    let mut pages_reused = Vec::new();
    let mut store_pages = vec![pool.num_pages()];
    let mut largest_patch = 0;
    for (i, region) in regions.iter().enumerate() {
        let t = Instant::now();
        let stats = live
            .apply_patch(region, &EditOp::Raise(1.5 + i as f64 * 0.25))
            .unwrap();
        patch_secs.push(t.elapsed().as_secs_f64());
        pages_rewritten.push(stats.pages_rewritten);
        records_updated.push(stats.records_updated);
        pages_reused.push(stats.pages_reused);
        store_pages.push(pool.num_pages());
        let grown = (store_pages[i + 1] - store_pages[i]) as usize;
        largest_patch = largest_patch.max(grown + stats.pages_reused);
    }
    let (pages_before, pages_after) = (store_pages[0], *store_pages.last().unwrap());
    let after_second = store_pages[store_pages.len().min(3) - 1];
    eprintln!(
        "# store pages: {pages_before} -> {after_second} after two edits -> {pages_after} \
         (largest patch {largest_patch})"
    );
    assert!(
        (pages_after - after_second) as usize <= largest_patch,
        "a store without pinned snapshots must stop growing"
    );
    let patch_mean = patch_secs.iter().sum::<f64>() / patch_secs.len().max(1) as f64;
    let speedup = rebuild_secs / patch_mean;
    eprintln!(
        "# {} patches: mean {:.4}s ({speedup:.1}x faster than rebuild)",
        patch_secs.len(),
        patch_mean
    );

    // --- 3. the unmodified region costs exactly what it did before.
    let da_after = cold_da(&live.snapshot());
    eprintln!("# unmodified-region cold disk accesses: {da_before} -> {da_after}");

    // --- 4. crash mid-edit, then time the recovering reopen.
    drop(pool);
    drop(live);
    let crash_opts = LiveOptions {
        cache_pages: POOL_PAGES,
        // The WAL append (write #0) survives; the first page write dies.
        fault: Some(FaultConfig::new(99).with_fail_writes_after(1)),
    };
    let (crashy, _) = LiveDb::open(&path, &crash_opts).unwrap();
    let crash_region = regions.first().copied().unwrap_or(control);
    let crashed = crashy.apply_patch(&crash_region, &EditOp::Raise(-2.0));
    assert!(crashed.is_err(), "injected crash must fail the edit");
    drop(crashy);

    let t = Instant::now();
    let (live, info) = LiveDb::open(&path, &opts).unwrap();
    let recovery_secs = t.elapsed().as_secs_f64();
    assert_eq!(info.replayed, 1, "the WAL tail must be replayed");
    drop(live);
    let t = Instant::now();
    let (live, info2) = LiveDb::open(&path, &opts).unwrap();
    let clean_open_secs = t.elapsed().as_secs_f64();
    assert_eq!(info2.replayed, 0);
    assert_eq!(info2.epoch, info.epoch);
    eprintln!("# recovery reopen {recovery_secs:.4}s (clean reopen {clean_open_secs:.4}s)");
    drop(live);

    let json = format!(
        "{{\n  \"bench\": \"edits\",\n  \"dataset\": \"mining-{side}\",\n  \
         \"edits\": {},\n  \"full_rebuild_secs\": {rebuild_secs:.6},\n  \
         \"patch_secs\": {},\n  \"patch_mean_secs\": {patch_mean:.6},\n  \
         \"speedup_vs_rebuild\": {speedup:.2},\n  \
         \"pages_rewritten\": {},\n  \"records_updated\": {},\n  \
         \"pages_reused\": {},\n  \"largest_patch_pages\": {largest_patch},\n  \
         \"store_pages\": {{\"before\": {pages_before}, \"after_second_edit\": {after_second}, \
         \"after\": {pages_after}}},\n  \
         \"unmodified_roi_disk_accesses\": {{\"before\": {da_before}, \"after\": {da_after}}},\n  \
         \"recovery\": {{\"replayed\": 1, \"reopen_with_replay_secs\": {recovery_secs:.6}, \
         \"clean_reopen_secs\": {clean_open_secs:.6}}}\n}}\n",
        patch_secs.len(),
        json_array(patch_secs.iter().map(|s| format!("{s:.6}"))),
        json_array(pages_rewritten.iter()),
        json_array(records_updated.iter()),
        json_array(pages_reused.iter()),
    );
    let out = std::env::var("DM_EDITS_OUT").unwrap_or_else(|_| "BENCH_edits.json".to_string());
    std::fs::write(&out, &json).unwrap_or_else(|e| panic!("write {out}: {e}"));
    eprintln!("# wrote {out}");

    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(dm_storage::wal::wal_path(&path));
    let _ = std::fs::remove_file(dm_storage::wal::root_path(&path));
}
