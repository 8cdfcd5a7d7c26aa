//! The world catalog: many single-terrain Direct Mesh stores served
//! behind one query facade.
//!
//! A [`WorldDb`] owns a [`WorldManifest`] plus a region-level R\*-tree
//! over the regions' world-frame footprints. Region stores are opened
//! *lazily* on first touch and kept behind an LRU cap
//! ([`WorldOptions::max_open`]); each open region gets its own buffer
//! pool, sized from a shared page budget weighted by the region's heap
//! size (with a per-region floor), so a viral region can grow its share
//! but can never evict a colder region's working set — the pools are
//! physically separate and only the *budget* is shared.
//!
//! ## Frames and bit-identity
//!
//! Regions live in their own local coordinate frame; the manifest's
//! `offset` translates plan-view positions into the world frame and
//! `id_base` translates record ids (the LOD axis is never touched). A
//! cross-tile query translates its world-frame boxes into each
//! overlapping region's frame, fetches with the *same* boxes the
//! single-store path would use, and translates the records back. That
//! is all a world adds: [`WorldScope`] implements the query seam
//! ([`dm_core::RecordStore`]) this way, as does the [`WorldDb`] itself
//! for the whole world, and the cut, the planner, the VD tail and the
//! navigation session that run over it are the single store's own
//! ([`dm_core::query`]). For a world split out of one store (offsets
//! zero, `id_base` zero) the records partition exactly, so the merged set
//! — and therefore every derived mesh — is bit-identical to the single
//! store's answer by construction. A request visits its regions one
//! after another on the thread that runs it, and every merge runs in
//! ascending region order.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dm_geom::{Box3, Rect, Vec2};
use dm_index::RStarTree;
use dm_mtm::{PmNode, NIL_ID};
use dm_storage::{
    BufferPool, FaultConfig, FaultInjector, FileStore, MemStore, PageStore, RootFile, StorageError,
    StorageResult,
};
use parking_lot::Mutex;

use dm_core::{
    query, BoundaryPolicy, DbStats, DirectMeshDb, FetchCounters, FetchedSet, IntegrityReport,
    RecordStore, VdQuery, VdResult, ViFlatResult,
};

use crate::manifest::{RegionMeta, WorldManifest};

/// Pool pages per open region when no world page budget is set.
pub const DEFAULT_REGION_PAGES: usize = 4096;

/// Tuning knobs for a [`WorldDb`].
#[derive(Clone, Debug)]
pub struct WorldOptions {
    /// Maximum simultaneously open region stores. Opening one more
    /// evicts the least-recently-used unpinned region; if every open
    /// region is pinned the cap is temporarily exceeded rather than
    /// failing the query.
    pub max_open: usize,
    /// Total buffer-pool pages shared by all open regions (0 =
    /// unbudgeted: every region gets [`DEFAULT_REGION_PAGES`]). The
    /// budget is split across open regions proportionally to their heap
    /// size, never below `region_floor`.
    pub page_budget: usize,
    /// Minimum pool pages an open region is guaranteed, whatever its
    /// weight.
    pub region_floor: usize,
    /// Ignored: a query visits its regions one after another on the
    /// thread that runs it. Kept so existing callers still compile.
    pub threads: usize,
    /// Open regions with [`DirectMeshDb::open_degraded_at`]: unreadable
    /// heap pages are skipped instead of failing the open, and each query
    /// that meets one reports the loss in its own `IntegrityReport`.
    pub degraded: bool,
    /// Wrap each region's file store in a deterministic
    /// [`FaultInjector`] (tests and fault drills).
    pub fault: Option<FaultConfig>,
}

impl Default for WorldOptions {
    fn default() -> Self {
        WorldOptions {
            max_open: 8,
            page_budget: 0,
            region_floor: 64,
            threads: 0,
            degraded: false,
            fault: None,
        }
    }
}

/// Per-region lifecycle and traffic counters, as reported by
/// [`WorldDb::region_stats`] (and over the wire by `WorldStats`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RegionStats {
    pub id: u32,
    /// Times the region store was (re)opened.
    pub opens: u64,
    /// Times the region was closed by LRU pressure.
    pub evictions: u64,
    /// Queries that found the region already open.
    pub hits: u64,
    /// Queries that touched the region at all.
    pub queries: u64,
    /// Pages currently resident in the region's buffer pool (0 when
    /// closed).
    pub resident_pages: u64,
    pub open: bool,
}

#[derive(Default)]
struct RegionCounters {
    opens: AtomicU64,
    evictions: AtomicU64,
    hits: AtomicU64,
    queries: AtomicU64,
}

struct RegionSlot {
    db: Option<Arc<DirectMeshDb>>,
    /// LRU clock value of the last touch.
    last_used: u64,
    /// Pins held by sessions; a pinned region is never evicted.
    pins: u32,
    /// In-memory regions ([`WorldDb::from_regions`]) have no file to
    /// reopen from, so they are never evicted.
    evictable: bool,
}

struct WorldState {
    slots: Vec<RegionSlot>,
    tick: u64,
    n_open: usize,
}

/// A multi-region Direct Mesh world (see the module docs).
pub struct WorldDb {
    regions: Vec<RegionMeta>,
    /// Region-level index: world-frame footprint prisms → region index.
    rtree: RStarTree,
    /// Largest region `e_max` — the world LOD clamp.
    e_max: f64,
    /// Union of region footprints, world frame.
    bounds: Rect,
    opts: WorldOptions,
    state: Mutex<WorldState>,
    counters: Vec<RegionCounters>,
    /// Test seam: runs on the opening thread after room was made and the
    /// catalog lock released, before the region's store is touched.
    #[cfg(test)]
    open_gate: Option<Box<dyn Fn(usize) + Send + Sync>>,
}

fn neg(v: Vec2) -> Vec2 {
    Vec2::new(-v.x, -v.y)
}

fn remap_id(id: u32, base: u32) -> u32 {
    if id == NIL_ID {
        id
    } else {
        id + base
    }
}

fn remap_node(mut n: PmNode, base: u32, offset: Vec2) -> PmNode {
    if base != 0 {
        n.id += base;
        n.parent = remap_id(n.parent, base);
        n.child1 = remap_id(n.child1, base);
        n.child2 = remap_id(n.child2, base);
        n.wing1 = remap_id(n.wing1, base);
        n.wing2 = remap_id(n.wing2, base);
    }
    n.pos.x += offset.x;
    n.pos.y += offset.y;
    n
}

/// Open the store file at `path` read-only, following the committed
/// root (`<store>.root`, written by the live edit path) to the current
/// catalog page; a store without a root file reads its catalog at page
/// 0, exactly like [`DirectMeshDb::create_in`] left it.
///
/// The pool holds a shared lock on the file, taken before the root is
/// read, so a live writer cannot reuse a page under it: opening a store
/// that a [`dm_core::LiveDb`] holds fails with `StorageError::Locked`.
pub fn open_region_store(
    path: &Path,
    cache_pages: usize,
    fault: Option<FaultConfig>,
) -> StorageResult<(Arc<BufferPool>, dm_storage::PageId)> {
    let store = FileStore::open_locked(path, false)?;
    let root = dm_storage::wal::root_path(path);
    let catalog_page = if root.exists() {
        let (_f, rec) = RootFile::open(&root)?;
        rec.map(|r| r.catalog_page).unwrap_or(0)
    } else {
        0
    };
    let store: Box<dyn PageStore> = match fault {
        Some(cfg) => Box::new(FaultInjector::new(Box::new(store), cfg)),
        None => Box::new(store),
    };
    Ok((
        Arc::new(BufferPool::new(store, cache_pages.max(1))),
        catalog_page,
    ))
}

impl WorldDb {
    /// Open the world whose manifest lives at `path`. No region store is
    /// touched yet — handles open lazily on first query.
    pub fn open(path: &Path, opts: WorldOptions) -> StorageResult<WorldDb> {
        Self::from_manifest(WorldManifest::read(path)?, opts)
    }

    /// Build a world from a decoded manifest (region paths must already
    /// be resolved).
    pub fn from_manifest(m: WorldManifest, opts: WorldOptions) -> StorageResult<WorldDb> {
        Self::new_inner(m.regions, opts, Vec::new())
    }

    /// Build a world from already-open region databases — the in-memory
    /// construction used by tests and benches. These regions have no
    /// file to reopen from, so they are exempt from LRU eviction.
    pub fn from_regions(
        regions: Vec<(RegionMeta, DirectMeshDb)>,
        opts: WorldOptions,
    ) -> StorageResult<WorldDb> {
        let (metas, dbs): (Vec<_>, Vec<_>) = regions.into_iter().unzip();
        Self::new_inner(metas, opts, dbs)
    }

    fn new_inner(
        regions: Vec<RegionMeta>,
        opts: WorldOptions,
        prebuilt: Vec<DirectMeshDb>,
    ) -> StorageResult<WorldDb> {
        if regions.is_empty() {
            return Err(StorageError::format("world has no regions"));
        }
        assert!(
            prebuilt.is_empty() || prebuilt.len() == regions.len(),
            "prebuilt region count mismatch"
        );
        let e_max = regions.iter().map(|r| r.e_max).fold(0.0, f64::max);
        let e_cap = e_max * 1.001 + 1e-9;
        let mut bounds = Rect::EMPTY;
        for r in &regions {
            bounds = bounds.union(&r.world_bounds());
        }
        let pool = Arc::new(BufferPool::new(
            Box::new(MemStore::new()),
            (regions.len() / 4).max(64),
        ));
        let items: Vec<(Box3, u64)> = regions
            .iter()
            .enumerate()
            .map(|(i, r)| (Box3::prism(r.world_bounds(), 0.0, e_cap), i as u64))
            .collect();
        let rtree = RStarTree::bulk_load(pool, items, 0.7);
        let counters: Vec<RegionCounters> =
            regions.iter().map(|_| RegionCounters::default()).collect();
        let in_memory = !prebuilt.is_empty();
        let mut dbs: Vec<Option<Arc<DirectMeshDb>>> =
            prebuilt.into_iter().map(|db| Some(Arc::new(db))).collect();
        dbs.resize_with(regions.len(), || None);
        let n_open = dbs.iter().filter(|d| d.is_some()).count();
        let slots = dbs
            .into_iter()
            .map(|db| RegionSlot {
                db,
                last_used: 0,
                pins: 0,
                evictable: !in_memory,
            })
            .collect();
        for c in counters.iter().take(n_open) {
            c.opens.store(1, Ordering::Relaxed);
        }
        Ok(WorldDb {
            regions,
            rtree,
            e_max,
            bounds,
            opts,
            state: Mutex::new(WorldState {
                slots,
                tick: 0,
                n_open,
            }),
            counters,
            #[cfg(test)]
            open_gate: None,
        })
    }

    pub fn n_regions(&self) -> usize {
        self.regions.len()
    }

    /// The tuning knobs this world was opened with.
    pub fn options(&self) -> &WorldOptions {
        &self.opts
    }

    pub fn region_meta(&self, idx: usize) -> &RegionMeta {
        &self.regions[idx]
    }

    /// Union of the regions' world-frame footprints.
    pub fn bounds(&self) -> &Rect {
        &self.bounds
    }

    pub fn e_max(&self) -> f64 {
        self.e_max
    }

    /// Total records across all regions (manifest metadata; no I/O).
    pub fn n_records(&self) -> u64 {
        self.regions.iter().map(|r| u64::from(r.n_records)).sum()
    }

    pub fn e_cap(&self) -> f64 {
        self.e_max * 1.001 + 1e-9
    }

    /// World LOD clamp — same formula as the single-store clamp, over
    /// the largest region `e_max`. A world split out of one store
    /// inherits that store's `e_max` in every tile, so this clamp is
    /// bit-identical to the source store's.
    pub fn clamp_e(&self, e: f64) -> f64 {
        e.clamp(0.0, self.e_max * 1.0005 + 1e-12)
    }

    /// Region indices whose world-frame footprint intersects `b`,
    /// ascending (deterministic merge order).
    pub fn regions_for(&self, b: &Box3) -> StorageResult<Vec<usize>> {
        let mut idxs: Vec<usize> = Vec::new();
        self.rtree.try_query(b, |_, d| idxs.push(d as usize))?;
        idxs.sort_unstable();
        idxs.dedup();
        Ok(idxs)
    }

    /// Currently open region handles.
    pub fn open_count(&self) -> usize {
        self.state.lock().n_open
    }

    /// Pin a region: it stays open (exempt from LRU eviction) until the
    /// matching [`Self::unpin_region`]. Pins nest.
    pub fn pin_region(&self, idx: usize) {
        self.state.lock().slots[idx].pins += 1;
    }

    /// Release one pin. Pins let the open count overshoot the handle
    /// cap: an open that finds every other open region pinned exceeds it
    /// rather than failing. The unpin that takes a region's pins to 0
    /// re-establishes it.
    pub fn unpin_region(&self, idx: usize) {
        let mut state = self.state.lock();
        let slot = &mut state.slots[idx];
        debug_assert!(slot.pins > 0, "unpin without pin");
        slot.pins = slot.pins.saturating_sub(1);
        if slot.pins > 0 {
            return;
        }
        let evicted = self.evict_down_to(&mut state, self.opts.max_open.max(1));
        if !evicted.is_empty() {
            self.rebalance_budgets(&mut state);
        }
        // Closing a store flushes and syncs its pool: not under the lock.
        drop(state);
        drop(evicted);
    }

    /// Pins currently held on a region (observability for eviction
    /// tests).
    pub fn region_pins(&self, idx: usize) -> u32 {
        self.state.lock().slots[idx].pins
    }

    /// Per-region lifecycle counters, ascending by region index.
    pub fn region_stats(&self) -> Vec<RegionStats> {
        let state = self.state.lock();
        self.regions
            .iter()
            .enumerate()
            .map(|(i, m)| {
                let slot = &state.slots[i];
                RegionStats {
                    id: m.id,
                    opens: self.counters[i].opens.load(Ordering::Relaxed),
                    evictions: self.counters[i].evictions.load(Ordering::Relaxed),
                    hits: self.counters[i].hits.load(Ordering::Relaxed),
                    queries: self.counters[i].queries.load(Ordering::Relaxed),
                    resident_pages: slot.db.as_ref().map_or(0, |db| db.pool().resident() as u64),
                    open: slot.db.is_some(),
                }
            })
            .collect()
    }

    /// [`dm_storage::BufferPool::decoded_stats`] summed over the regions
    /// open right now (an evicted region takes its pool's tally with it).
    pub fn decoded_stats(&self) -> dm_storage::DecodedStats {
        let state = self.state.lock();
        let mut sum = dm_storage::DecodedStats::default();
        for db in state.slots.iter().filter_map(|s| s.db.as_ref()) {
            let d = db.pool().decoded_stats();
            sum.frames += d.frames;
            sum.bytes += d.bytes;
            sum.builds += d.builds;
        }
        sum
    }

    /// The region's open handle, opening (and possibly evicting another
    /// region) on miss. The returned `Arc` stays valid across a
    /// concurrent eviction — eviction only drops the catalog's
    /// reference. The store is opened *outside* the catalog lock, so one
    /// cold open never stalls hits on the other regions; of two threads
    /// racing to open the same region the loser drops its handle.
    pub fn region(&self, idx: usize) -> StorageResult<Arc<DirectMeshDb>> {
        let (tick, initial, evicted) = {
            let mut state = self.state.lock();
            state.tick += 1;
            let tick = state.tick;
            if let Some(db) = self.touch(&mut state, idx, tick) {
                return Ok(db);
            }
            let evicted = self.make_room(&mut state);
            let initial = if self.opts.page_budget == 0 {
                DEFAULT_REGION_PAGES
            } else {
                (self.opts.page_budget / (state.n_open + 1)).max(self.opts.region_floor.max(1))
            };
            (tick, initial, evicted)
        };
        // Closing a store flushes and syncs its pool: not under the lock.
        drop(evicted);
        #[cfg(test)]
        if let Some(gate) = &self.open_gate {
            gate(idx);
        }

        let meta = &self.regions[idx];
        let (pool, catalog_page) = open_region_store(&meta.path, initial, self.opts.fault)?;
        let db = if self.opts.degraded {
            DirectMeshDb::open_degraded_at(pool, catalog_page, &mut IntegrityReport::default())?
        } else {
            DirectMeshDb::open_at(pool, catalog_page)?
        };
        let db = Arc::new(db);

        let mut state = self.state.lock();
        if let Some(winner) = self.touch(&mut state, idx, tick) {
            return Ok(winner);
        }
        // Opens that overlapped this one may have filled the room made
        // above.
        let evicted = self.make_room(&mut state);
        state.slots[idx].db = Some(Arc::clone(&db));
        state.slots[idx].last_used = tick;
        state.n_open += 1;
        self.counters[idx].opens.fetch_add(1, Ordering::Relaxed);
        self.rebalance_budgets(&mut state);
        drop(state);
        drop(evicted);
        Ok(db)
    }

    /// The region's handle if it is open, counted as a hit and stamped
    /// with `tick` for the LRU.
    fn touch(&self, state: &mut WorldState, idx: usize, tick: u64) -> Option<Arc<DirectMeshDb>> {
        let slot = &mut state.slots[idx];
        let db = Arc::clone(slot.db.as_ref()?);
        slot.last_used = slot.last_used.max(tick);
        self.counters[idx].hits.fetch_add(1, Ordering::Relaxed);
        Some(db)
    }

    /// Close least-recently-used regions until one more fits under the
    /// handle cap; if everything open is pinned the cap is exceeded until
    /// a pin drops ([`Self::unpin_region`]) rather than failing the
    /// caller.
    fn make_room(&self, state: &mut WorldState) -> Vec<Arc<DirectMeshDb>> {
        self.evict_down_to(state, self.opts.max_open.max(1) - 1)
    }

    /// Close least-recently-used regions while more than `keep` are open,
    /// handing their handles back for the caller to drop once it has
    /// released the lock. Pinned (and in-memory) regions are skipped.
    fn evict_down_to(&self, state: &mut WorldState, keep: usize) -> Vec<Arc<DirectMeshDb>> {
        let mut evicted = Vec::new();
        while state.n_open > keep {
            let victim = state
                .slots
                .iter()
                .enumerate()
                .filter(|(_, s)| s.db.is_some() && s.pins == 0 && s.evictable)
                .min_by_key(|(_, s)| s.last_used)
                .map(|(i, _)| i);
            match victim {
                Some(v) => {
                    evicted.extend(state.slots[v].db.take());
                    state.n_open -= 1;
                    self.counters[v].evictions.fetch_add(1, Ordering::Relaxed);
                }
                None => break,
            }
        }
        evicted
    }

    /// Re-split the world page budget across the open regions, weighted
    /// by heap size with a per-region floor. Separate pools mean a hot
    /// region's traffic can never evict a cold region's pages; only this
    /// explicit rebalance (on open/evict) moves capacity between them.
    fn rebalance_budgets(&self, state: &mut WorldState) {
        if self.opts.page_budget == 0 {
            return;
        }
        let open: Vec<usize> = (0..state.slots.len())
            .filter(|&i| state.slots[i].db.is_some())
            .collect();
        if open.is_empty() {
            return;
        }
        let floor = self.opts.region_floor.max(1);
        let total_heap: f64 = open
            .iter()
            .map(|&i| state.slots[i].db.as_ref().unwrap().n_heap_pages().max(1) as f64)
            .sum();
        for &i in &open {
            let db = state.slots[i].db.as_ref().unwrap();
            let w = db.n_heap_pages().max(1) as f64 / total_heap;
            let share = ((self.opts.page_budget as f64 * w) as usize).max(floor);
            // A failed shrink-flush leaves the old capacity in place for
            // the affected shard; read-only pools have nothing dirty, so
            // this is effectively infallible.
            let _ = db.pool().try_set_capacity(share);
        }
    }

    /// Region index for a manifest region id (what the wire protocol's
    /// `QueryScope::Region` names).
    pub fn resolve_region_id(&self, id: u32) -> Option<usize> {
        self.regions.iter().position(|m| m.id == id)
    }

    /// Flush every *open* region's buffer pool and reset its statistics
    /// (paper-protocol cold measurement). Closed regions are already
    /// cold by construction.
    pub fn try_cold_start(&self) -> StorageResult<()> {
        let open: Vec<Arc<DirectMeshDb>> = {
            let state = self.state.lock();
            state.slots.iter().filter_map(|s| s.db.clone()).collect()
        };
        for db in open {
            db.try_cold_start()?;
        }
        Ok(())
    }

    /// `Stats`-answer summary for a world server. Record count, bounds
    /// and `e_max` are world-level; the structural fields (catalog
    /// version, codec, page and index shape) describe region 0 — the
    /// per-region world totals live in [`Self::region_stats`].
    pub fn stats_summary(&self) -> StorageResult<DbStats> {
        let db = self.region(0)?;
        let mut s = db.stats_summary();
        s.n_records = self.n_records();
        s.bounds = *self.bounds();
        s.e_max = self.e_max();
        Ok(s)
    }

    /// LOD threshold that keeps roughly `frac` of the points, resolved
    /// against region 0's interval statistics (every tile of a split
    /// world shares the source's LOD distribution). This is the one world
    /// call that scans a region's heap: once per open of region 0, on
    /// first use.
    pub fn e_for_points_fraction(&self, frac: f64) -> StorageResult<f64> {
        self.region(0)?.try_e_for_points_fraction(frac)
    }

    /// A view of this world the shared query bodies in [`dm_core::query`]
    /// run over: every region (`None`), or one region index — the wire
    /// protocol's `QueryScope::Region`.
    pub fn scoped(&self, region: Option<usize>) -> WorldScope<'_> {
        WorldScope {
            world: self,
            region,
        }
    }

    /// Viewpoint-independent cross-tile query in flat canonical form
    /// ([`dm_core::query::vi_query_flat`] over the whole world).
    pub fn try_vi_query_flat_counted(
        &self,
        roi: &Rect,
        e: f64,
        counters: &mut FetchCounters,
    ) -> StorageResult<(ViFlatResult, IntegrityReport)> {
        query::vi_query_flat(self, roi, e, counters)
    }

    /// Viewpoint-dependent cross-tile query with the world's own plan
    /// ([`dm_core::query::vd_multi_base`]).
    pub fn try_vd_query_counted(
        &self,
        q: &VdQuery,
        policy: BoundaryPolicy,
        max_cubes: usize,
        counters: &mut FetchCounters,
    ) -> StorageResult<(VdResult, IntegrityReport)> {
        query::vd_multi_base(self, q, policy, max_cubes, counters)
    }

    /// The world-frame cubes that can hold records of region `idx`,
    /// translated into its frame. Dropping non-overlapping cubes is
    /// exact: a record's vertical segment sits at its plan-view
    /// position, which lies inside the region's footprint.
    fn cubes_for_region(&self, idx: usize, cubes: &[Box3]) -> Vec<Box3> {
        let meta = &self.regions[idx];
        let wb = meta.world_bounds();
        cubes
            .iter()
            .filter(|c| {
                let r =
                    Rect::from_corners(Vec2::new(c.min.x, c.min.y), Vec2::new(c.max.x, c.max.y));
                wb.intersects(&r)
            })
            .map(|c| c.translated_xy(neg(meta.offset)))
            .collect()
    }

    /// Whether the regions' id ranges are pairwise disjoint (assembled
    /// worlds), enabling direct region lookup by id.
    fn ranged_ids(&self) -> bool {
        let mut ranges: Vec<(u64, u64)> = self
            .regions
            .iter()
            .map(|m| {
                (
                    u64::from(m.id_base),
                    u64::from(m.id_base) + u64::from(m.n_records),
                )
            })
            .collect();
        ranges.sort_unstable();
        ranges.windows(2).all(|w| w[0].1 <= w[1].0)
    }
}

/// A borrowed view of a [`WorldDb`] — all of it, or one region — that
/// implements the query seam ([`RecordStore`]): route to the overlapping
/// regions, fetch per region in its own frame, remap into the world
/// frame, concatenate in ascending region order. The shared bodies keep
/// the first copy of an id and count every fetched record, so for a world
/// split out of one store the answers are the single store's.
#[derive(Clone, Copy)]
pub struct WorldScope<'a> {
    world: &'a WorldDb,
    region: Option<usize>,
}

impl WorldScope<'_> {
    /// Region indices (ascending) whose footprint meets any of `boxes`,
    /// narrowed to this view's region.
    fn route(&self, boxes: &[Box3]) -> StorageResult<Vec<usize>> {
        let mut idxs: Vec<usize> = Vec::new();
        for b in boxes {
            idxs.extend(self.world.regions_for(b)?);
        }
        idxs.sort_unstable();
        idxs.dedup();
        if let Some(s) = self.region {
            idxs.retain(|&i| i == s);
        }
        Ok(idxs)
    }

    /// Fetch `boxes` (world frame) from every region of `idxs`, each in
    /// its own frame, in that (ascending) order on the calling thread,
    /// merging the per-region reports and counters in the same order.
    fn fan_out(
        &self,
        idxs: &[usize],
        boxes: &[Box3],
        report: &mut IntegrityReport,
        counters: &mut FetchCounters,
    ) -> StorageResult<Vec<FetchedSet>> {
        let world = self.world;
        let mut outs = Vec::with_capacity(idxs.len());
        for &i in idxs {
            let db = world.region(i)?;
            world.counters[i].queries.fetch_add(1, Ordering::Relaxed);
            let mut rep = IntegrityReport::default();
            let mut ctr = FetchCounters::default();
            outs.push(db.fetch(&world.cubes_for_region(i, boxes), &mut rep, &mut ctr)?);
            report.merge(rep);
            counters.merge(&ctr);
        }
        Ok(outs)
    }
}

impl RecordStore for WorldScope<'_> {
    fn clamp_e(&self, e: f64) -> f64 {
        self.world.clamp_e(e)
    }

    fn fetch(
        &self,
        boxes: &[Box3],
        report: &mut IntegrityReport,
        counters: &mut FetchCounters,
    ) -> StorageResult<FetchedSet> {
        let idxs = self.route(boxes)?;
        let sets = self.fan_out(&idxs, boxes, report, counters)?;
        let mut merged = FetchedSet::new();
        for (&i, set) in idxs.iter().zip(&sets) {
            let meta = &self.world.regions[i];
            for s in 0..set.len() {
                merged.push(
                    remap_node(set.nodes[s], meta.id_base, meta.offset),
                    set.conn_of(s).iter().map(|&c| remap_id(c, meta.id_base)),
                );
            }
        }
        Ok(merged)
    }

    /// World fetch-by-id is never narrowed to the view's region: a
    /// boundary record may live in the neighbouring tile.
    fn try_fetch_node_by_id(&self, id: u32) -> StorageResult<Option<PmNode>> {
        self.world.try_fetch_node_by_id(id)
    }

    fn union_page_counts(&self, roi: &Rect, plans: &[Vec<Box3>]) -> StorageResult<Vec<usize>> {
        let world = self.world;
        let probe = Box3::prism(*roi, 0.0, world.e_cap());
        let mut pages = vec![0; plans.len()];
        for i in self.route(&[probe])? {
            let db = world.region(i)?;
            let local: Vec<Vec<Box3>> = plans
                .iter()
                .map(|cubes| world.cubes_for_region(i, cubes))
                .collect();
            for (sum, n) in pages.iter_mut().zip(db.cost_model().count_unions(&local)) {
                *sum += n;
            }
        }
        Ok(pages)
    }
}

/// The whole world as one record store — [`WorldDb::scoped`]`(None)` —
/// so a [`dm_core::NavigationSession`] can walk it like a single store.
impl RecordStore for WorldDb {
    fn clamp_e(&self, e: f64) -> f64 {
        WorldDb::clamp_e(self, e)
    }

    fn fetch(
        &self,
        boxes: &[Box3],
        report: &mut IntegrityReport,
        counters: &mut FetchCounters,
    ) -> StorageResult<FetchedSet> {
        self.scoped(None).fetch(boxes, report, counters)
    }

    /// Fetch one node by *world* id, probing regions in ascending
    /// order. Worlds assembled from independent stores carry disjoint
    /// `[id_base, id_base + n_records)` ranges, so at most one region is
    /// opened; split worlds share the id space (`id_base == 0`) and fall
    /// back to an in-order probe.
    fn try_fetch_node_by_id(&self, id: u32) -> StorageResult<Option<PmNode>> {
        let ranged = self.ranged_ids();
        for (i, meta) in self.regions.iter().enumerate() {
            if id < meta.id_base {
                continue;
            }
            let local = id - meta.id_base;
            if ranged && local >= meta.n_records {
                continue;
            }
            let db = self.region(i)?;
            if let Some(node) = db.try_fetch_node_by_id(local)? {
                return Ok(Some(remap_node(node, meta.id_base, meta.offset)));
            }
        }
        Ok(None)
    }

    fn union_page_counts(&self, roi: &Rect, plans: &[Vec<Box3>]) -> StorageResult<Vec<usize>> {
        self.scoped(None).union_page_counts(roi, plans)
    }
}

/// The pins of a walkthrough over a world: the regions under the latest
/// frame stay *pinned*, so LRU pressure from other clients cannot close
/// a store this walkthrough is about to revisit. [`Self::pinned_around`]
/// wraps a frame in that bookkeeping — around a served
/// [`dm_core::NavigationSession`] or [`Self::frame`]'s one-shot query —
/// and [`Self::close`] releases every pin; the server calls it on
/// `CloseSession` and on connection teardown.
pub struct WorldSession {
    policy: BoundaryPolicy,
    max_cubes: usize,
    pinned: Vec<usize>,
}

impl WorldSession {
    pub fn new(policy: BoundaryPolicy, max_cubes: usize) -> WorldSession {
        WorldSession {
            policy,
            max_cubes,
            pinned: Vec::new(),
        }
    }

    /// Region indices this session currently pins (the latest frame's
    /// region set), in first-touch order.
    pub fn regions(&self) -> &[usize] {
        &self.pinned
    }

    /// Run `frame`, a frame over `roi`, with every region the ROI reaches
    /// pinned first — so the handles cannot be evicted mid-frame or
    /// between consecutive frames over the same ground. Pins on regions
    /// the viewer has left are released after the frame: a session
    /// sweeping a large world protects only the terrain under it, and
    /// never wedges LRU eviction by accumulating the whole world.
    pub fn pinned_around<R>(
        &mut self,
        world: &WorldDb,
        roi: &Rect,
        frame: impl FnOnce() -> StorageResult<R>,
    ) -> StorageResult<R> {
        let probe = Box3::prism(*roi, 0.0, world.e_cap());
        let needed = world.regions_for(&probe)?;
        for &i in &needed {
            if !self.pinned.contains(&i) {
                world.pin_region(i);
                self.pinned.push(i);
            }
        }
        let res = frame();
        for &i in self.pinned.iter().filter(|i| !needed.contains(i)) {
            world.unpin_region(i);
        }
        self.pinned.retain(|i| needed.contains(i));
        res
    }

    /// Answer one frame with a fresh cross-tile query
    /// ([`WorldDb::try_vd_query_counted`]) inside [`Self::pinned_around`].
    pub fn frame(
        &mut self,
        world: &WorldDb,
        q: &VdQuery,
        counters: &mut FetchCounters,
    ) -> StorageResult<(VdResult, IntegrityReport)> {
        let (policy, max_cubes) = (self.policy, self.max_cubes);
        self.pinned_around(world, &q.roi, || {
            world.try_vd_query_counted(q, policy, max_cubes, counters)
        })
    }

    /// Release every pin this session holds. Idempotent.
    pub fn close(&mut self, world: &WorldDb) {
        for i in self.pinned.drain(..) {
            world.unpin_region(i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{split_world_in_memory, write_split_world};
    use dm_core::DmBuildOptions;
    use dm_mtm::builder::{build_pm, PmBuildConfig};
    use dm_storage::MemStore;
    use dm_terrain::{generate, TriMesh};

    fn build_db(seed: u64, side: usize) -> DirectMeshDb {
        let hf = generate::fractal_terrain(side, side, seed);
        let pm = build_pm(TriMesh::from_heightfield(&hf), &PmBuildConfig::default());
        let pool = Arc::new(BufferPool::new(Box::new(MemStore::new()), 8192));
        DirectMeshDb::build(pool, &pm, &DmBuildOptions::default())
    }

    #[test]
    fn split_world_vi_matches_single_store() {
        let db = build_db(7, 33);
        let world = split_world_in_memory(
            &db,
            2,
            2,
            4096,
            &DmBuildOptions::default(),
            WorldOptions::default(),
        )
        .unwrap();
        assert_eq!(world.n_regions(), 4);
        assert_eq!(world.n_records() as usize, db.n_records);
        for frac in [0.1, 0.4, 0.9] {
            let e = db.e_for_points_fraction(frac);
            let roi = db.bounds;
            let mut c1 = FetchCounters::default();
            let mut c2 = FetchCounters::default();
            let (single, r1) = db.try_vi_query_flat_counted(&roi, e, &mut c1).unwrap();
            let (tiled, r2) = world.try_vi_query_flat_counted(&roi, e, &mut c2).unwrap();
            assert!(r1.is_clean() && r2.is_clean());
            assert_eq!(
                single.nodes, tiled.nodes,
                "vertex sets differ at frac {frac}"
            );
            assert_eq!(single.faces, tiled.faces, "faces differ at frac {frac}");
            assert_eq!(single.fetched_records, tiled.fetched_records);
        }
    }

    #[test]
    fn split_world_vd_matches_single_store_with_same_strips() {
        let db = build_db(11, 33);
        let world = split_world_in_memory(
            &db,
            2,
            2,
            4096,
            &DmBuildOptions::default(),
            WorldOptions::default(),
        )
        .unwrap();
        let roi = db.bounds;
        let eye = Vec2::new(roi.min.x - 1.0, roi.center().y);
        let q = VdQuery::from_viewpoint(roi, eye, db.e_max / 40.0, db.e_max);
        let strips = query::plan_multi_base(&world.scoped(None), &q, 8).unwrap();
        let mut c1 = FetchCounters::default();
        let mut c2 = FetchCounters::default();
        for policy in [BoundaryPolicy::Skip, BoundaryPolicy::FetchOnMiss] {
            let (single, r1) = query::vd_with_strips(&db, &q, policy, &strips, &mut c1).unwrap();
            let (tiled, r2) =
                query::vd_with_strips(&world.scoped(None), &q, policy, &strips, &mut c2).unwrap();
            assert!(r1.is_clean() && r2.is_clean());
            assert_eq!(single.fetched_records, tiled.fetched_records);
            let (m1, ids1) = single.front.to_trimesh();
            let (m2, ids2) = tiled.front.to_trimesh();
            assert_eq!(ids1, ids2, "vertex ids differ under {policy:?}");
            let verts = |m: &dm_terrain::TriMesh| -> Vec<_> {
                m.live_vertices().map(|v| m.position(v)).collect()
            };
            let tris = |m: &dm_terrain::TriMesh| -> Vec<_> {
                m.live_triangles().map(|t| m.triangle(t)).collect()
            };
            assert_eq!(verts(&m1), verts(&m2));
            assert_eq!(tris(&m1), tris(&m2));
        }
    }

    #[test]
    fn lazy_open_lru_eviction_and_pins() {
        let db = build_db(3, 33);
        let dir = std::env::temp_dir().join(format!("dm_world_lru_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let manifest = write_split_world(&db, 2, 2, &dir, &DmBuildOptions::default()).unwrap();
        let world = WorldDb::open(
            &manifest,
            WorldOptions {
                max_open: 2,
                page_budget: 512,
                region_floor: 32,
                ..WorldOptions::default()
            },
        )
        .unwrap();
        assert_eq!(world.open_count(), 0, "regions open lazily");
        // Touch every region in turn: the cap holds and LRU evicts.
        for i in 0..world.n_regions() {
            world.region(i).unwrap();
        }
        assert!(world.open_count() <= 2);
        let stats = world.region_stats();
        let opens: u64 = stats.iter().map(|s| s.opens).sum();
        let evictions: u64 = stats.iter().map(|s| s.evictions).sum();
        assert_eq!(opens, 4);
        assert!(evictions >= 2, "{evictions} evictions");
        // Budgets: every open pool's capacity is at least the floor and
        // the open capacities stay within the budget plus floor slack.
        let open_caps: Vec<usize> = (0..world.n_regions())
            .filter_map(|i| {
                let s = world.state.lock();
                s.slots[i].db.as_ref().map(|db| db.pool().capacity())
            })
            .collect();
        for &c in &open_caps {
            assert!(c >= 32, "capacity {c} below floor");
        }
        // Pin region 0 and hammer the others: 0 must stay open.
        world.region(0).unwrap();
        world.pin_region(0);
        for i in 1..world.n_regions() {
            world.region(i).unwrap();
        }
        assert!(world.region_stats()[0].open, "pinned region was evicted");
        world.unpin_region(0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_hot_region_cannot_evict_a_cold_regions_pages() {
        let db = build_db(17, 65);
        let dir = std::env::temp_dir().join(format!("dm_world_iso_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let manifest = write_split_world(&db, 2, 1, &dir, &DmBuildOptions::default()).unwrap();
        let world = WorldDb::open(
            &manifest,
            WorldOptions {
                max_open: 2,
                page_budget: 32,
                region_floor: 8,
                ..WorldOptions::default()
            },
        )
        .unwrap();
        let e = world.e_for_points_fraction(0.5).unwrap();
        // The four quadrants of a region's tile, shrunk off its edges so
        // a query reaches no neighbour.
        let quadrants = |idx: usize| -> Vec<Rect> {
            let b = world.region_meta(idx).world_bounds();
            let (c, w, h) = (b.center(), b.width() * 0.24, b.height() * 0.24);
            [(-1.0, -1.0), (1.0, -1.0), (-1.0, 1.0), (1.0, 1.0)]
                .iter()
                .map(|&(sx, sy)| {
                    let far = Vec2::new(c.x + sx * 2.0 * w, c.y + sy * 2.0 * h);
                    Rect::from_corners(c, far)
                })
                .collect()
        };
        let (cold, hot) = (0, 1);
        let mut ctr = FetchCounters::default();
        // Open both regions (the last open re-splits the budget) and give
        // the cold one a working set.
        world.region(hot).unwrap();
        for roi in quadrants(cold) {
            world.try_vi_query_flat_counted(&roi, e, &mut ctr).unwrap();
        }
        let before = world.region_stats();
        assert!(before[cold].open && before[hot].open);
        assert!(before[cold].resident_pages > 0);
        let hot_db = world.region(hot).unwrap();
        let hot_cap = hot_db.pool().capacity();
        assert!(
            hot_db.n_heap_pages() > hot_cap,
            "the hot region fits its pool"
        );

        let reads = dm_storage::thread_reads();
        let n = 16;
        for roi in quadrants(hot).iter().cycle().take(n) {
            let (res, report) = world.try_vi_query_flat_counted(roi, e, &mut ctr).unwrap();
            assert!(report.is_clean() && !res.nodes.is_empty());
        }
        assert!(
            dm_storage::thread_reads() - reads > hot_cap as u64,
            "the hot region never evicted"
        );
        let after = world.region_stats();
        assert_eq!(after[hot].queries, before[hot].queries + n as u64);
        assert_eq!(after[cold].queries, before[cold].queries);
        assert_eq!(
            after[cold].resident_pages, before[cold].resident_pages,
            "hot-region traffic moved the cold region's pages"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cold_open_does_not_stall_hits_on_other_regions() {
        use std::sync::mpsc;
        use std::time::Duration;

        let db = build_db(13, 33);
        let dir = std::env::temp_dir().join(format!("dm_world_slow_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let manifest = write_split_world(&db, 2, 1, &dir, &DmBuildOptions::default()).unwrap();
        let mut world = WorldDb::open(&manifest, WorldOptions::default()).unwrap();
        // Region 1's store is slow: its open parks until released.
        let (entered_tx, entered_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let release_rx = Mutex::new(release_rx);
        world.open_gate = Some(Box::new(move |idx| {
            if idx == 1 {
                entered_tx.send(()).unwrap();
                release_rx.lock().recv().unwrap();
            }
        }));
        world.region(0).unwrap();
        std::thread::scope(|s| {
            let opener = s.spawn(|| world.region(1));
            entered_rx.recv().unwrap();
            let (done_tx, done_rx) = mpsc::channel();
            let world = &world;
            s.spawn(move || {
                for _ in 0..100 {
                    world.region(0).unwrap();
                }
                done_tx.send(world.region_stats()[0].hits).unwrap();
            });
            let hits = done_rx.recv_timeout(Duration::from_secs(20));
            let still_opening = !opener.is_finished();
            // Release the opener (and, had it held the lock, everyone
            // queued behind it) before judging.
            release_tx.send(()).unwrap();
            assert!(opener.join().unwrap().is_ok());
            assert_eq!(hits, Ok(100), "hits on region 0 waited for region 1");
            assert!(still_opening);
        });
        let stats = world.region_stats();
        assert!(stats[0].open && stats[1].open);
        assert_eq!((stats[0].opens, stats[1].opens), (1, 1));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn session_pins_release_on_close() {
        let db = build_db(5, 33);
        let dir = std::env::temp_dir().join(format!("dm_world_sess_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let manifest = write_split_world(&db, 2, 1, &dir, &DmBuildOptions::default()).unwrap();
        let world = WorldDb::open(&manifest, WorldOptions::default()).unwrap();
        let mut sess = WorldSession::new(BoundaryPolicy::Skip, 4);
        let q = VdQuery::from_viewpoint(db.bounds, db.bounds.center(), db.e_max / 20.0, db.e_max);
        let mut ctr = FetchCounters::default();
        let (_res, rep) = sess.frame(&world, &q, &mut ctr).unwrap();
        assert!(rep.is_clean());
        assert!(!sess.regions().is_empty());
        for &i in sess.regions() {
            assert!(world.region_pins(i) > 0);
        }
        sess.close(&world);
        for i in 0..world.n_regions() {
            assert_eq!(world.region_pins(i), 0);
        }
        sess.close(&world); // idempotent
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn handle_cap_is_restored_when_pins_drop() {
        let db = build_db(7, 33);
        let dir = std::env::temp_dir().join(format!("dm_world_unpin_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let manifest = write_split_world(&db, 2, 2, &dir, &DmBuildOptions::default()).unwrap();
        let world = WorldDb::open(
            &manifest,
            WorldOptions {
                max_open: 3,
                ..WorldOptions::default()
            },
        )
        .unwrap();
        let mut sess = WorldSession::new(BoundaryPolicy::Skip, 4);
        let mut ctr = FetchCounters::default();
        let frame_at = |sess: &mut WorldSession, ctr: &mut FetchCounters, roi: Rect| {
            let q = VdQuery::from_viewpoint(roi, roi.center(), db.e_max / 20.0, db.e_max);
            sess.frame(&world, &q, ctr).unwrap();
        };
        // A window over the point where the four tiles meet pins all
        // four: the cap cannot hold while the frame needs them.
        frame_at(
            &mut sess,
            &mut ctr,
            Rect::centered_square(db.bounds.center(), 4.0),
        );
        assert_eq!(sess.regions().len(), 4);
        assert_eq!(world.open_count(), 4, "pinned regions exceed the cap");
        // The next frame sits well inside one tile: three pins drop, and
        // the cap is back before `frame` returns — not at some later open.
        let tile = world.region_meta(0).world_bounds();
        frame_at(
            &mut sess,
            &mut ctr,
            Rect::centered_square(tile.center(), 2.0),
        );
        assert_eq!(sess.regions(), &[0]);
        assert!(world.open_count() <= 3, "{} open", world.open_count());
        assert!(world.region_stats()[0].open, "the pinned region stays");
        let evictions: u64 = world.region_stats().iter().map(|s| s.evictions).sum();
        assert_eq!(evictions, 1);
        sess.close(&world);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn world_fetch_by_id_matches_store() {
        let db = build_db(9, 33);
        let world = split_world_in_memory(
            &db,
            2,
            2,
            4096,
            &DmBuildOptions::default(),
            WorldOptions::default(),
        )
        .unwrap();
        for id in [
            0u32,
            5,
            17,
            db.n_records as u32 - 1,
            db.n_records as u32 + 7,
        ] {
            let a = db.try_fetch_node_by_id(id).unwrap();
            let b = world.try_fetch_node_by_id(id).unwrap();
            assert_eq!(a, b, "node {id}");
        }
    }
}
