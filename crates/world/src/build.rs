//! World construction: split one built store into a tiled world, or
//! assemble independent stores into one (`dm world-build`).
//!
//! Splitting partitions a store's records by plan-view position into an
//! `nx × ny` grid — ids, parent/child/wing links and connection lists
//! are carried over *verbatim* (they are global to the source store and
//! may cross tile boundaries), and every tile keeps the source's bounds
//! and `e_max` so its fetch-path LOD clamping stays bit-identical to
//! the source. Assembly places unrelated stores side by side in the
//! world frame, giving each a disjoint id range via `id_base` prefix
//! sums.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use dm_geom::{Rect, Vec2};
use dm_storage::{BufferPool, FileStore, MemStore, StorageError, StorageResult};

use dm_core::{DirectMeshDb, DmBuildOptions, DmRecord};

use crate::manifest::{RegionMeta, WorldManifest};
use crate::world::{open_region_store, WorldDb, WorldOptions};

/// Partition a store's records into an `nx × ny` plan-view grid
/// (row-major cells over the store's bounds). Every record lands in
/// exactly one cell; cells can be empty.
pub fn partition_grid(db: &DirectMeshDb, nx: usize, ny: usize) -> Vec<Vec<DmRecord>> {
    assert!(nx >= 1 && ny >= 1, "grid must be at least 1×1");
    let b = db.bounds;
    let w = (b.max.x - b.min.x).max(1e-12);
    let h = (b.max.y - b.min.y).max(1e-12);
    let mut cells: Vec<Vec<DmRecord>> = (0..nx * ny).map(|_| Vec::new()).collect();
    for (_, rec) in db.all_records() {
        let p = rec.node.pos;
        let gx = (((p.x - b.min.x) / w * nx as f64) as usize).min(nx - 1);
        let gy = (((p.y - b.min.y) / h * ny as f64) as usize).min(ny - 1);
        cells[gy * nx + gx].push(rec);
    }
    cells
}

/// Plan-view bounding rectangle of a record set.
fn record_bounds(recs: &[DmRecord]) -> Rect {
    let mut min = Vec2::new(f64::INFINITY, f64::INFINITY);
    let mut max = Vec2::new(f64::NEG_INFINITY, f64::NEG_INFINITY);
    for r in recs {
        min.x = min.x.min(r.node.pos.x);
        min.y = min.y.min(r.node.pos.y);
        max.x = max.x.max(r.node.pos.x);
        max.y = max.y.max(r.node.pos.y);
    }
    Rect::from_corners(min, max)
}

fn split_metas(db: &DirectMeshDb, nx: usize, ny: usize) -> Vec<(RegionMeta, Vec<DmRecord>)> {
    partition_grid(db, nx, ny)
        .into_iter()
        .enumerate()
        .filter(|(_, recs)| !recs.is_empty())
        .map(|(cell, recs)| {
            let meta = RegionMeta {
                id: cell as u32,
                id_base: 0,
                n_records: recs.len() as u32,
                offset: Vec2::new(0.0, 0.0),
                bounds: record_bounds(&recs),
                e_max: db.e_max,
                path: PathBuf::new(),
            };
            (meta, recs)
        })
        .collect()
}

/// Split `db` into an in-memory `nx × ny` tiled world (tests, benches).
/// Every tile is a full store of its own — heap, id directory, R\*-tree,
/// cost model — built over a `MemStore` pool of `pool_pages` frames.
pub fn split_world_in_memory(
    db: &DirectMeshDb,
    nx: usize,
    ny: usize,
    pool_pages: usize,
    build: &DmBuildOptions,
    wopts: WorldOptions,
) -> StorageResult<WorldDb> {
    let regions = split_metas(db, nx, ny)
        .into_iter()
        .map(|(meta, recs)| {
            let pool = Arc::new(BufferPool::new(Box::new(MemStore::new()), pool_pages));
            let tile = DirectMeshDb::build_from_records(pool, recs, db.bounds, db.e_max, build);
            (meta, tile)
        })
        .collect();
    WorldDb::from_regions(regions, wopts)
}

/// Split `db` into `nx × ny` file-backed tile stores under `dir` and
/// write the world manifest next to them. Returns the manifest path.
pub fn write_split_world(
    db: &DirectMeshDb,
    nx: usize,
    ny: usize,
    dir: &Path,
    build: &DmBuildOptions,
) -> StorageResult<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let mut regions = Vec::new();
    for (mut meta, recs) in split_metas(db, nx, ny) {
        let name = format!("tile_{:04}.dm", meta.id);
        let path = dir.join(&name);
        let store = FileStore::create(&path)?;
        let pool = Arc::new(BufferPool::new(Box::new(store), 4096));
        DirectMeshDb::create_from_records_in(pool, recs, db.bounds, db.e_max, build);
        meta.path = PathBuf::from(name); // relative to the manifest
        regions.push(meta);
    }
    let manifest = WorldManifest {
        e_max: db.e_max,
        regions,
    };
    let path = dir.join("world.dmwm");
    manifest.write(&path)?;
    Ok(path)
}

/// Assemble independent store files into a world manifest: stores are
/// placed left-to-right along `x` (each normalized to start at the
/// running cursor, `y` normalized to 0) with `gap` world units between
/// them, and receive disjoint id ranges via `id_base` prefix sums.
pub fn assemble_manifest(paths: &[PathBuf], gap: f64) -> StorageResult<WorldManifest> {
    if paths.is_empty() {
        return Err(StorageError::format("world-build needs at least one store"));
    }
    let mut regions = Vec::new();
    let mut cursor = 0.0f64;
    let mut id_base = 0u64;
    let mut e_max = 0.0f64;
    for (i, p) in paths.iter().enumerate() {
        let (pool, catalog_page) = open_region_store(p, 256, None)?;
        let db = DirectMeshDb::open_at(pool, catalog_page)?;
        let b = db.bounds;
        if id_base + db.n_records as u64 > u64::from(u32::MAX) {
            return Err(StorageError::format(
                "world id space exhausted (more than 2^32 - 1 records)",
            ));
        }
        regions.push(RegionMeta {
            id: i as u32,
            id_base: id_base as u32,
            n_records: db.n_records as u32,
            offset: Vec2::new(cursor - b.min.x, -b.min.y),
            bounds: b,
            e_max: db.e_max,
            path: p.clone(),
        });
        cursor += (b.max.x - b.min.x) + gap;
        id_base += db.n_records as u64;
        e_max = e_max.max(db.e_max);
    }
    Ok(WorldManifest { e_max, regions })
}
