//! The Direct Mesh database: heap table + id directory + 3D R\*-tree.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex, OnceLock};

use dm_geom::{Box3, Rect, Vec3};
use dm_index::{RStarTree, RtreeCostModel};
use dm_mtm::builder::PmBuild;
use dm_mtm::{PmNode, NIL_ID};
use dm_storage::{
    BTree, BufferPool, DirectoryWalk, HeapFile, IdDirectory, PageId, PageRead, RecordId,
    StorageError, StorageResult,
};
use fxhash::FxHashMap;

use crate::catalog::IdIndexRoot;
use crate::record::{
    encode_compact, BaseVals, DmRecord, FetchedSet, PageDecoder, RawRecord, RecordCodec,
};

/// Counters for one range-fetch operation: the work a fetch does beyond
/// its raw page reads.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FetchCounters {
    /// Candidate heap pages the index descent produced (deduplicated).
    pub pages_scanned: u64,
    /// Records whose header was examined during page scans.
    pub records_examined: u64,
    /// Records fully decoded (matched the query box and materialized).
    pub records_decoded: u64,
}

impl FetchCounters {
    pub fn merge(&mut self, o: &FetchCounters) {
        self.pages_scanned += o.pages_scanned;
        self.records_examined += o.records_examined;
        self.records_decoded += o.records_decoded;
    }
}

/// A database's structural summary — what `dm stats` prints and what the
/// network service's `Stats` handler serializes. Every field comes from
/// catalog metadata or cheap index walks; producing one touches no heap
/// data pages.
#[derive(Clone, Debug, PartialEq)]
pub struct DbStats {
    /// On-disk catalog version (4; 2 and 3 name a B+-tree id index).
    pub catalog_version: u32,
    /// Heap record codec.
    pub codec: RecordCodec,
    /// Stored DM records (= PM nodes).
    pub n_records: u64,
    /// Original terrain points.
    pub n_leaves: u64,
    /// Root records (the coarsest approximation).
    pub n_roots: u64,
    /// Heap pages holding the record table.
    pub heap_pages: u64,
    /// Total pages in the store (catalog + heap + both indexes).
    pub total_pages: u64,
    /// Id index levels (1: the id directory; a B+-tree's height on a
    /// version-2/3 store) and the ids it maps.
    pub id_index_levels: u32,
    pub id_index_entries: u64,
    /// R\*-tree node-page count, height, and indexed entries.
    pub rtree_nodes: u64,
    pub rtree_height: u32,
    pub rtree_len: u64,
    /// Largest finite normalized LOD value.
    pub e_max: f64,
    /// Plan-view bounds of the terrain.
    pub bounds: Rect,
}

/// What a degraded read had to give up.
///
/// Filled by the range scan and the query paths over it: when a heap page
/// cannot be read even after the buffer pool's retries, the query skips
/// it, completes from the surviving pages, and accounts for the loss
/// here instead of failing.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct IntegrityReport {
    /// Heap pages that stayed unreadable after retries.
    pub pages_lost: u64,
    /// Records dropped with those pages. The exact slot counts are
    /// unknowable (the page is gone), so this is estimated from the
    /// database's mean records-per-heap-page.
    pub points_lost: u64,
    /// Read retries the buffer pool spent during the operation —
    /// including the successful ones that healed transient faults.
    pub retries: u64,
    /// The first few underlying errors, for diagnostics.
    pub errors: Vec<String>,
}

impl IntegrityReport {
    /// Cap on [`Self::errors`] so a badly corrupted database cannot
    /// balloon the report.
    pub const MAX_ERRORS: usize = 8;

    /// No pages lost, no errors: the result is exact.
    pub fn is_clean(&self) -> bool {
        self.pages_lost == 0 && self.errors.is_empty()
    }

    fn record_loss(&mut self, est_points: u64, err: &dm_storage::StorageError) {
        self.pages_lost += 1;
        self.points_lost += est_points;
        if self.errors.len() < Self::MAX_ERRORS {
            self.errors.push(err.to_string());
        }
    }

    /// Fold another report into this one: counters add, error samples
    /// append up to [`Self::MAX_ERRORS`]. Parallel query paths give each
    /// worker its own report and merge them in a deterministic (input)
    /// order afterwards.
    pub fn merge(&mut self, other: IntegrityReport) {
        self.pages_lost += other.pages_lost;
        self.points_lost += other.points_lost;
        self.retries += other.retries;
        for e in other.errors {
            if self.errors.len() >= Self::MAX_ERRORS {
                break;
            }
            self.errors.push(e);
        }
    }
}

impl std::fmt::Display for IntegrityReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_clean() {
            write!(f, "clean ({} retries)", self.retries)
        } else {
            write!(
                f,
                "{} pages lost (~{} points dropped), {} retries",
                self.pages_lost, self.points_lost, self.retries
            )
        }
    }
}

/// How heap records are placed on disk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clustering {
    /// Records in R\*-tree leaf order: each index leaf's records occupy
    /// consecutive heap pages, so a range query reads dense pages. The
    /// paper's "(x, y) clustering preserved as much as possible", realized
    /// through the same STR tiling the index uses (default).
    StrLeaf,
    /// Hilbert order of `(x, y)` only — plan-view locality, but every
    /// page mixes all LOD levels (ablation A3).
    Hilbert,
    /// Node-id (creation) order — no spatial locality (ablation A3).
    IdOrder,
}

/// Knobs for database construction (exercised by the ablation benches).
#[derive(Clone, Copy, Debug)]
pub struct DmBuildOptions {
    /// Target R\*-tree node occupancy for bulk loading.
    pub rtree_fill: f64,
    /// Heap record placement.
    pub clustering: Clustering,
    /// Build the R\*-tree by repeated R\* insertion instead of STR bulk
    /// loading (slower, different node shapes; ablation A2).
    pub dynamic_rtree: bool,
}

impl Default for DmBuildOptions {
    fn default() -> Self {
        DmBuildOptions {
            rtree_fill: 0.7,
            clustering: Clustering::StrLeaf,
            dynamic_rtree: false,
        }
    }
}

/// An edit to the live terrain inside a plan-view region.
#[derive(Clone, Debug, PartialEq)]
pub enum EditOp {
    /// Raise (negative: lower) every terrain point in the region by this
    /// amount.
    Raise(f64),
    /// Replace heights with explicit samples `(x, y, z)`: each terrain
    /// point in the region takes the z of its nearest sample.
    SetHeights(Vec<(f64, f64, f64)>),
}

/// What [`DirectMeshDb::apply_patch`] produced. Nothing is published yet:
/// every write landed on freshly allocated pages, and the caller owns
/// making `catalog_page` the live root (see [`crate::LiveDb`]) — or
/// simply dropping it, which leaves the old version untouched.
pub struct PatchOutcome {
    /// Post-edit database handle. Shares the buffer pool with the source;
    /// the source handle keeps working (snapshot isolation — its pages
    /// were never overwritten).
    pub db: DirectMeshDb,
    /// Head page of the freshly written catalog chain.
    pub catalog_page: PageId,
    /// Heap pages that were rewritten copy-on-write.
    pub pages_rewritten: usize,
    /// Records whose height actually changed.
    pub records_updated: usize,
}

/// Every record's LOD interval bounds, sorted: what `cut_size` counts
/// over.
#[derive(Default)]
struct IntervalStats {
    lo_sorted: Vec<f64>,
    /// Finite upper bounds only (roots are unbounded above).
    hi_sorted: Vec<f64>,
}

impl IntervalStats {
    /// From every record's `(e_lo, e_hi)`, in any order.
    fn new(intervals: impl Iterator<Item = (f64, f64)>) -> Self {
        let mut stats = IntervalStats::default();
        for (e_lo, e_hi) in intervals {
            stats.push(e_lo, e_hi);
        }
        stats.sort();
        stats
    }

    fn push(&mut self, e_lo: f64, e_hi: f64) {
        self.lo_sorted.push(e_lo);
        if e_hi.is_finite() {
            self.hi_sorted.push(e_hi);
        }
    }

    fn sort(&mut self) {
        self.lo_sorted.sort_by(f64::total_cmp);
        self.hi_sorted.sort_by(f64::total_cmp);
    }

    fn cut_size(&self, e: f64) -> usize {
        let below_lo = self.lo_sorted.partition_point(|&v| v <= e);
        let below_hi = self.hi_sorted.partition_point(|&v| v <= e);
        below_lo - below_hi
    }
}

/// [`IntervalStats`] filled at most once. The fill is fallible (it reads
/// the heap), so racing first users queue on `filling` and all but one
/// find the cell set; a failed fill leaves it empty for the next caller.
#[derive(Default)]
struct LazyIntervals {
    cell: OnceLock<IntervalStats>,
    filling: Mutex<()>,
}

impl LazyIntervals {
    fn filled(stats: IntervalStats) -> Arc<Self> {
        let lazy = LazyIntervals::default();
        let _ = lazy.cell.set(stats);
        Arc::new(lazy)
    }

    fn get_or_try_fill(
        &self,
        fill: impl FnOnce() -> StorageResult<IntervalStats>,
    ) -> StorageResult<&IntervalStats> {
        if let Some(stats) = self.cell.get() {
            return Ok(stats);
        }
        // The guard protects no data: a filler that panicked left the
        // cell empty, which is exactly the state the next one expects.
        let _filling = self.filling.lock().unwrap_or_else(|e| e.into_inner());
        if self.cell.get().is_none() {
            let _ = self.cell.set(fill()?);
        }
        Ok(self.cell.get().expect("cell was just filled"))
    }
}

/// The one whole-heap scan: the interval statistics and every page's
/// MBR (sorted by page id), decoded from the heap itself. `lost` decides
/// what an unreadable page means — the lazy interval statistics fail on
/// it, a degraded open's damage census accounts for it and moves on
/// (only pages that scanned end to end contribute).
fn scan_heap(
    heap: &HeapFile,
    codec: RecordCodec,
    e_cap: f64,
    mut lost: impl FnMut(StorageError) -> StorageResult<()>,
) -> StorageResult<(IntervalStats, Vec<(PageId, Box3)>)> {
    let mut stats = IntervalStats::default();
    let mut page_boxes = Vec::with_capacity(heap.page_ids().len());
    for &page in heap.page_ids() {
        let (lo_len, hi_len) = (stats.lo_sorted.len(), stats.hi_sorted.len());
        let mut mbr = Box3::EMPTY;
        let mut dec = PageDecoder::new(codec);
        let scanned = heap.try_for_each_in_page(page, |rid, bytes| {
            let raw = dec.next(rid.slot, bytes);
            stats.push(raw.e_lo(), raw.e_hi());
            mbr = mbr.union(&raw.clamped_segment(e_cap));
        });
        match scanned {
            Ok(()) => page_boxes.push((page, mbr)),
            Err(e) => {
                stats.lo_sorted.truncate(lo_len);
                stats.hi_sorted.truncate(hi_len);
                lost(e)?;
            }
        }
    }
    stats.sort();
    page_boxes.sort_unstable_by_key(|&(p, _)| p);
    Ok((stats, page_boxes))
}

/// The primary-key index: `node id → RecordId`.
enum IdIndex {
    Directory(IdDirectory),
    /// A version-2/3 catalog's bulk-loaded B+-tree, read-only: the first
    /// patch on such a store writes its directory.
    BTree(BTree),
}

impl IdIndex {
    fn try_get(&self, id: u32) -> StorageResult<Option<RecordId>> {
        match self {
            IdIndex::Directory(d) => d.try_get(id),
            IdIndex::BTree(t) => Ok(t.try_get(u64::from(id))?.map(RecordId::from_u64)),
        }
    }

    /// A directory in which each id of `updates` (ascending) maps to its
    /// new record id, copy-on-write. A B+-tree's entries are read once
    /// and written out as a fresh directory.
    fn try_update(
        &self,
        pool: &Arc<BufferPool>,
        updates: &[(u32, RecordId)],
    ) -> StorageResult<IdDirectory> {
        let t = match self {
            IdIndex::Directory(d) => return d.try_cow_update(updates),
            IdIndex::BTree(t) => t,
        };
        let mut entries: Vec<(u32, RecordId)> = Vec::new();
        let mut wide = None;
        t.try_range(0, u64::MAX, |id, rid| match u32::try_from(id) {
            Ok(id) => entries.push((id, RecordId::from_u64(rid))),
            Err(_) => wide = Some(id),
        })?;
        if let Some(id) = wide {
            return Err(StorageError::format(format!(
                "B+-tree key {id} is not a node id"
            )));
        }
        for &(id, rid) in updates {
            let i = entries.binary_search_by_key(&id, |e| e.0).map_err(|_| {
                StorageError::format(format!("edited id {id} missing from the B+-tree"))
            })?;
            entries[i].1 = rid;
        }
        IdDirectory::try_build(Arc::clone(pool), entries)
    }
}

/// The Direct Mesh database over one terrain dataset.
pub struct DirectMeshDb {
    pool: Arc<BufferPool>,
    heap: HeapFile,
    ids: IdIndex,
    rtree: RStarTree,
    /// Optimizer statistics; patched snapshots share their source's (its
    /// page-box statistics drift only by page splits, which is optimizer
    /// noise, not correctness).
    cost: Arc<RtreeCostModel>,
    /// Plan-view bounds of the terrain.
    pub bounds: Rect,
    /// Largest finite normalized LOD value.
    pub e_max: f64,
    /// Total records (= PM nodes).
    pub n_records: usize,
    /// Number of original terrain points.
    pub n_leaves: usize,
    /// Root node ids (the coarsest approximation).
    pub roots: Vec<u32>,
    /// Interval statistics behind `cut_size`. Only the LOD-by-mesh-size
    /// conveniences read them, so a reattached store pays the heap scan
    /// that fills them on first use, not at open; patched snapshots share
    /// the cell (edits never move LOD bounds).
    intervals: Arc<LazyIntervals>,
    /// On-disk codec of the heap records.
    codec: RecordCodec,
    /// Set by a degraded open whose R\*-tree pages were unreadable (e.g.
    /// a truncated file tail: index pages sit after the heap, so they die
    /// first). Range fetches then scan every surviving heap page instead
    /// of descending the index.
    rtree_lost: bool,
    /// Head of this version's catalog chain: page 0 for a build (which
    /// [`Self::create_in`] reserves), the page a patch wrote it at for
    /// the version that patch made.
    catalog_page: PageId,
}

impl DirectMeshDb {
    /// Stored upper bound for root segments (roots are conceptually
    /// unbounded; the index stores a cap just above `e_max`).
    pub fn e_cap(&self) -> f64 {
        self.e_max * 1.001 + 1e-9
    }

    /// Clamp a query LOD into the indexed range, so queries above `e_max`
    /// hit the root level.
    pub fn clamp_e(&self, e: f64) -> f64 {
        e.clamp(0.0, self.e_max * 1.0005 + 1e-12)
    }

    /// Build the database from a finished PM construction: the
    /// connection lists, then [`Self::build_from_records`] over every
    /// node.
    pub fn build(pool: Arc<BufferPool>, pm: &PmBuild, opts: &DmBuildOptions) -> Self {
        let h = &pm.hierarchy;

        // Connection lists: ever-adjacent pairs with overlapping LOD
        // intervals ("similar LOD").
        // Counted first, so every list is allocated once at its size.
        let similar = |&&(a, b): &&(u32, u32)| h.interval(a).overlaps(&h.interval(b));
        let mut degree = vec![0usize; h.len()];
        for &(a, b) in pm.edges.iter().filter(similar) {
            degree[a as usize] += 1;
            degree[b as usize] += 1;
        }
        let mut conn: Vec<Vec<u32>> = degree.into_iter().map(Vec::with_capacity).collect();
        for &(a, b) in pm.edges.iter().filter(similar) {
            conn[a as usize].push(b);
            conn[b as usize].push(a);
        }
        let records: Vec<DmRecord> = h
            .nodes
            .iter()
            .zip(conn)
            .map(|(&node, conn)| DmRecord { node, conn })
            .collect();
        Self::build_from_records(pool, records, h.bounds, h.e_max, opts)
    }

    /// Build into an *empty* store and persist the catalog at page 0, so
    /// the database can later be reattached with [`Self::open`]. Use with
    /// a [`dm_storage::FileStore`]-backed pool for durable databases.
    pub fn create_in(pool: Arc<BufferPool>, pm: &PmBuild, opts: &DmBuildOptions) -> Self {
        assert_eq!(pool.num_pages(), 0, "create_in needs an empty store");
        let catalog_page = pool.allocate();
        debug_assert_eq!(catalog_page, 0);
        let db = Self::build(pool, pm, opts);
        db.save_catalog(catalog_page)
            .unwrap_or_else(|e| panic!("save catalog: {e}"));
        db.pool.flush_all();
        db
    }

    /// Build a database over an explicit, already-constructed record set
    /// — the one builder: [`Self::build`] hands it every node, the world
    /// catalog's tile splitter one region's subset. Ids, links and
    /// connection lists are stored verbatim, so references
    /// that cross the subset boundary (seam-crossing connection points,
    /// out-of-tile parents) survive and resolve against the neighbouring
    /// tiles at query time. `bounds` and `e_max` come from the *source*
    /// terrain, not the subset: tile stores must clamp query LOD and cap
    /// root segments exactly like the store they were split from, or the
    /// per-tile fetch sets drift from the single-store reference.
    ///
    /// The catalog's `roots` become the subset's locally topmost records
    /// (parent `NIL` or outside the subset), and `n_leaves` counts the
    /// subset's leaf records.
    pub fn build_from_records(
        pool: Arc<BufferPool>,
        mut records: Vec<DmRecord>,
        bounds: Rect,
        e_max: f64,
        opts: &DmBuildOptions,
    ) -> Self {
        records.sort_unstable_by_key(|r| r.node.id);
        let n = records.len();
        let e_cap = e_max * 1.001 + 1e-9;

        // Heap placement order (indices into `records`), in page-sized
        // groups. The spatial index below is page-granular, so a page
        // whose records straddle an STR run boundary gets an MBR spanning
        // both runs and matches almost every query in its slab. So STR
        // tiles are sized from sampled encodings and every group boundary
        // forces a page break: each data page's MBR stays a single tile.
        // The ablation orders are one group that the fits-probe pages.
        let mut encoded: Vec<Vec<u8>> = Vec::new();
        let groups: Vec<Vec<u32>> = match opts.clustering {
            Clustering::StrLeaf => {
                let items: Vec<(Box3, u64)> = records
                    .iter()
                    .enumerate()
                    .map(|(i, r)| (segment(&r.node, e_cap), i as u64))
                    .collect();
                // Exact packing simulation: the group weight IS the
                // record's on-page cost against the group's real slot-0
                // base, so groups map 1:1 onto pages. The bytes each
                // record was last weighed as are kept: placement writes
                // them while the page its group opened is still open.
                encoded = vec![Vec::new(); n];
                let weight = |opener: Option<u64>, i: u64| {
                    let base =
                        opener.map_or(BaseVals::ZERO, |a| base_vals(&records[a as usize].node));
                    let bytes = encode_compact(&records[i as usize], &base);
                    let w = bytes.len() + HEAP_SLOT;
                    encoded[i as usize] = bytes;
                    w
                };
                // Size runs at ~85% of the estimated page capacity: the
                // estimate is a sampled mean, and a run that overshoots
                // the byte budget even slightly spills a near-empty
                // remainder page whose MBR still spans the whole tile —
                // the margin keeps almost every run on one page.
                let cap_hint = (estimate_compact_capacity(&records, &items, opts.rtree_fill) as f64
                    * 0.85) as usize;
                dm_index::rstar::str_leaf_groups_weighted(
                    &items,
                    cap_hint,
                    dm_storage::PAGE_DATA - HEAP_HEADER,
                    weight,
                )
                .into_iter()
                .map(|g| g.into_iter().map(|v| v as u32).collect())
                .collect()
            }
            Clustering::Hilbert => {
                let mut order: Vec<u32> = (0..n as u32).collect();
                let ext = (bounds.width().max(1e-12), bounds.height().max(1e-12));
                order.sort_by_key(|&i| {
                    let p = records[i as usize].node.pos;
                    dm_geom::hilbert::continuous_key(
                        16,
                        p.x,
                        p.y,
                        (bounds.min.x, bounds.min.y),
                        ext,
                    )
                });
                vec![order]
            }
            Clustering::IdOrder => vec![(0..n as u32).collect()],
        };

        let mut heap = HeapFile::create(Arc::clone(&pool));
        let rids = place_records(&mut heap, &records, &groups, encoded);
        let ids = IdDirectory::try_build(
            Arc::clone(&pool),
            records.iter().map(|r| r.node.id).zip(rids.iter().copied()),
        )
        .unwrap_or_else(|e| panic!("id directory: {e}"));
        let (rtree, cost) = index_heap_pages(
            &pool,
            heap.page_ids(),
            rids.iter()
                .zip(&records)
                .map(|(rid, r)| (rid.page, segment(&r.node, e_cap))),
            Box3::prism(bounds, 0.0, e_cap),
            opts,
        );

        let present: std::collections::HashSet<u32> = records.iter().map(|r| r.node.id).collect();
        let roots: Vec<u32> = records
            .iter()
            .filter(|r| r.node.parent == NIL_ID || !present.contains(&r.node.parent))
            .map(|r| r.node.id)
            .collect();
        let n_leaves = records.iter().filter(|r| r.node.is_leaf()).count();

        DirectMeshDb {
            pool,
            heap,
            ids: IdIndex::Directory(ids),
            rtree,
            cost,
            bounds,
            e_max,
            n_records: n,
            n_leaves,
            roots,
            intervals: LazyIntervals::filled(IntervalStats::new(
                records.iter().map(|r| (r.node.e_lo, r.node.e_hi)),
            )),
            codec: RecordCodec::Compact,
            rtree_lost: false,
            catalog_page: 0,
        }
    }

    /// [`Self::build_from_records`] into an *empty* store, with the
    /// catalog persisted at page 0 — the durable form a world manifest
    /// points at (see [`Self::create_in`]).
    pub fn create_from_records_in(
        pool: Arc<BufferPool>,
        records: Vec<DmRecord>,
        bounds: Rect,
        e_max: f64,
        opts: &DmBuildOptions,
    ) -> Self {
        assert_eq!(
            pool.num_pages(),
            0,
            "create_from_records_in needs an empty store"
        );
        let catalog_page = pool.allocate();
        debug_assert_eq!(catalog_page, 0);
        let db = Self::build_from_records(pool, records, bounds, e_max, opts);
        db.save_catalog(catalog_page)
            .unwrap_or_else(|e| panic!("save catalog: {e}"));
        db.pool.flush_all();
        db
    }

    /// Persist the catalog starting at `page` (normally page 0).
    pub fn save_catalog(&self, page: dm_storage::PageId) -> StorageResult<()> {
        let data = crate::catalog::CatalogData {
            bounds: self.bounds,
            e_max: self.e_max,
            n_records: self.n_records as u32,
            n_leaves: self.n_leaves as u32,
            ids: match &self.ids {
                IdIndex::Directory(d) => IdIndexRoot::Directory(d.parts().to_vec()),
                IdIndex::BTree(t) => IdIndexRoot::BTree(t.root_page(), t.height(), t.len()),
            },
            rtree: (
                self.rtree.root_page(),
                self.rtree.height(),
                self.rtree.len(),
            ),
            roots: self.roots.clone(),
            heap_pages: self.heap.page_ids().to_vec(),
            heap_len: self.heap.len(),
            codec: self.codec,
        };
        crate::catalog::write_catalog(&self.pool, page, &data)
    }

    /// Reattach to a database previously persisted with
    /// [`Self::create_in`], reading the catalog chain and the R\*-tree —
    /// not the heap. The index is page-granular, so its leaf entries are
    /// the heap pages' boxes: the optimizer statistics come from one walk
    /// of it.
    ///
    /// Fails with a typed [`dm_storage::StorageError`] when the catalog
    /// has a bad magic/version/checksum, names a heap page the store does
    /// not hold, disagrees with the index leaves about which pages make
    /// up the heap, or any index page is unreadable — an open never
    /// attaches to a store whose catalog names missing pages. Heap page
    /// *contents* are verified by the reads that use them (checksums) and
    /// by [`crate::verify::verify_store`], not here.
    pub fn open(pool: Arc<BufferPool>) -> StorageResult<Self> {
        Self::open_at(pool, 0)
    }

    /// [`Self::open`] with an explicit catalog chain head — how the live
    /// write path reattaches to the epoch the root file points at (edits
    /// commit each new catalog at a freshly allocated page, never over
    /// page 0).
    pub fn open_at(pool: Arc<BufferPool>, catalog_page: dm_storage::PageId) -> StorageResult<Self> {
        let mut report = IntegrityReport::default();
        Self::open_inner(pool, catalog_page, true, &mut report)
    }

    /// Like [`Self::open`], but it exists to say what is broken, so it
    /// reads every heap page: unreadable ones are skipped (their records
    /// are simply absent — queries over them degrade the same way) with
    /// the loss accounted in `report`, and an unreadable R\*-tree
    /// downgrades range fetches to heap scans instead of failing the
    /// open. The catalog chain remains load-bearing, and the id index for
    /// the point lookups that read it.
    pub fn open_degraded(
        pool: Arc<BufferPool>,
        report: &mut IntegrityReport,
    ) -> StorageResult<Self> {
        Self::open_inner(pool, 0, false, report)
    }

    /// [`Self::open_degraded`] at an explicit catalog chain head.
    pub fn open_degraded_at(
        pool: Arc<BufferPool>,
        catalog_page: dm_storage::PageId,
        report: &mut IntegrityReport,
    ) -> StorageResult<Self> {
        Self::open_inner(pool, catalog_page, false, report)
    }

    fn open_inner(
        pool: Arc<BufferPool>,
        catalog_page: dm_storage::PageId,
        strict: bool,
        report: &mut IntegrityReport,
    ) -> StorageResult<Self> {
        // Thread-local tally: under concurrency, a delta of the pool's
        // shared counter would absorb other threads' retries.
        let retries_before = dm_storage::thread_retries();
        let cat = crate::catalog::read_catalog(&pool, catalog_page)?;
        let heap = HeapFile::from_parts(Arc::clone(&pool), cat.heap_pages, cat.heap_len);
        let ids = match cat.ids {
            IdIndexRoot::Directory(pages) => IdIndex::Directory(IdDirectory::try_from_parts(
                Arc::clone(&pool),
                pages,
                u64::from(cat.n_records),
            )?),
            IdIndexRoot::BTree(root, height, len) => {
                IdIndex::BTree(BTree::from_parts(Arc::clone(&pool), root, len, height))
            }
        };
        let rtree = RStarTree::from_parts(Arc::clone(&pool), cat.rtree.0, cat.rtree.1, cat.rtree.2);
        let e_cap = cat.e_max * 1.001 + 1e-9;
        let (page_boxes, node_regions, intervals, rtree_lost) = if strict {
            let num_pages = pool.num_pages();
            let dir_pages = match &ids {
                IdIndex::Directory(d) => d.parts(),
                IdIndex::BTree(_) => &[],
            };
            let mut pages = heap
                .page_ids()
                .iter()
                .chain(dir_pages.iter().map(|(_, p)| p));
            if let Some(&page) = pages.find(|&&p| p >= num_pages) {
                return Err(StorageError::OutOfBounds { page, num_pages });
            }
            let index = rtree.try_collect_regions()?;
            // An id past the page-id range cannot name a heap page either.
            let mut leaves: Vec<(PageId, Box3)> = index
                .leaves
                .into_iter()
                .map(|(b, p)| (PageId::try_from(p).unwrap_or(PageId::MAX), b))
                .collect();
            leaves.sort_unstable_by_key(|&(p, _)| p);
            let mut listed = heap.page_ids().to_vec();
            listed.sort_unstable();
            if !leaves.iter().map(|&(p, _)| p).eq(listed) {
                return Err(StorageError::format(
                    "catalog heap pages and R*-tree leaf entries disagree",
                ));
            }
            (
                leaves,
                index.nodes,
                Arc::new(LazyIntervals::default()),
                false,
            )
        } else {
            let n_pages = heap.page_ids().len().max(1) as u64;
            let est_points = u64::from(cat.n_records).div_ceil(n_pages);
            let (stats, page_boxes) = scan_heap(&heap, cat.codec, e_cap, |e| {
                report.record_loss(est_points, &e);
                Ok(())
            })?;
            let (nodes, rtree_lost) = match rtree.try_collect_node_regions() {
                Ok(nodes) => (nodes, false),
                Err(e) => {
                    // The whole index is suspect once any node is gone: a
                    // partial descent would silently drop subtrees. Fall
                    // back to scanning the surviving heap pages.
                    report.record_loss(0, &e);
                    (Vec::new(), true)
                }
            };
            (page_boxes, nodes, LazyIntervals::filled(stats), rtree_lost)
        };
        report.retries += dm_storage::thread_retries() - retries_before;
        // Optimizer statistics: the data-page boxes (what a range query
        // actually fetches) plus the index node regions (the descent).
        let mut stat_regions: Vec<Box3> = page_boxes.iter().map(|&(_, b)| b).collect();
        stat_regions.extend(node_regions);
        let space = Box3::prism(cat.bounds, 0.0, e_cap);
        Ok(DirectMeshDb {
            pool,
            heap,
            ids,
            rtree,
            cost: Arc::new(RtreeCostModel::new(&stat_regions, space)),
            bounds: cat.bounds,
            e_max: cat.e_max,
            n_records: cat.n_records as usize,
            n_leaves: cat.n_leaves as usize,
            roots: cat.roots,
            intervals,
            codec: cat.codec,
            rtree_lost,
            catalog_page,
        })
    }

    /// The interval statistics, filled by one strict heap scan on first
    /// use (a degraded open's census already filled them from the pages
    /// that survived).
    fn try_intervals(&self) -> StorageResult<&IntervalStats> {
        self.intervals
            .get_or_try_fill(|| Ok(scan_heap(&self.heap, self.codec, self.e_cap(), Err)?.0))
    }

    /// Number of points in the uniform approximation at LOD `e`. Panics
    /// if the first use on a reattached store hits an unreadable heap
    /// page; see [`Self::try_e_for_points_fraction`].
    pub fn cut_size(&self, e: f64) -> usize {
        let stats = self
            .try_intervals()
            .unwrap_or_else(|e| panic!("interval statistics: {e}"));
        stats.cut_size(e)
    }

    /// The LOD whose uniform approximation keeps about `frac` of the
    /// original points. QEM error values are heavily skewed, so selecting
    /// query LODs by mesh size is far more intuitive than by fractions of
    /// `e_max`. Panics like [`Self::cut_size`].
    pub fn e_for_points_fraction(&self, frac: f64) -> f64 {
        self.try_e_for_points_fraction(frac)
            .unwrap_or_else(|e| panic!("interval statistics: {e}"))
    }

    /// Fallible [`Self::e_for_points_fraction`]: the first call on a
    /// reattached store scans the heap for the interval statistics, and
    /// an unreadable page there is the caller's typed error.
    pub fn try_e_for_points_fraction(&self, frac: f64) -> StorageResult<f64> {
        let stats = self.try_intervals()?;
        let target = ((self.n_leaves as f64) * frac.clamp(0.0, 1.0)) as usize;
        let mut lo = 0.0f64;
        let mut hi = self.e_cap();
        for _ in 0..60 {
            let mid = (lo + hi) / 2.0;
            if stats.cut_size(mid) > target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Ok(hi)
    }

    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    pub fn cost_model(&self) -> &RtreeCostModel {
        &self.cost
    }

    /// The heap pages, in catalog order.
    pub fn heap_pages(&self) -> &[PageId] {
        self.heap.page_ids()
    }

    pub fn rtree(&self) -> &RStarTree {
        &self.rtree
    }

    /// The indexed vertical segment of a record (root intervals clamped
    /// to the stored cap) — the exact shape the range scan tests query
    /// boxes against. Incremental navigation uses it to decide which
    /// cached records a shrinking region of interest keeps.
    pub fn record_segment(&self, node: &dm_mtm::PmNode) -> Box3 {
        let hi = if node.e_hi.is_finite() {
            node.e_hi
        } else {
            self.e_cap()
        };
        Box3::vertical_segment(node.pos.xy(), node.e_lo.min(hi), hi)
    }

    /// The deduplicated candidate heap pages the index descent produces
    /// for `q` — exactly the heap pages [`Self::range_scan`] reads for
    /// the one box. Measurement introspection: lets benches separate
    /// heap-page I/O from index I/O, and union page sets across the cubes
    /// of one multi-base query the way a cold buffer pool would.
    pub fn candidate_pages(&self, q: &Box3) -> StorageResult<Vec<u64>> {
        let pages = self.candidate_pages_mbr(std::slice::from_ref(q))?;
        Ok(pages.into_iter().map(|(p, _)| p).collect())
    }

    /// Whether this handle came from a degraded open that had to abandon
    /// the R\*-tree (range fetches scan all surviving heap pages).
    pub fn rtree_lost(&self) -> bool {
        self.rtree_lost
    }

    /// [`Self::range_scan`] of the one box `q`, degrading. The benchmark
    /// harness times the record scan through this name.
    pub fn fetch_box_flat_counted(
        &self,
        q: &Box3,
        report: &mut IntegrityReport,
        counters: &mut FetchCounters,
    ) -> StorageResult<FetchedSet> {
        self.range_scan(std::slice::from_ref(q), false, report, counters)
    }

    /// Candidate heap pages for a batch of query boxes, each paired with
    /// its stored MBR, deduplicated across boxes by one multi-range
    /// index descent ([`RStarTree::try_query_multi`]): interior index
    /// pages on paths shared between boxes are read once, however finely
    /// the batch fragments. Sorted by page id (file order).
    fn candidate_pages_mbr(&self, boxes: &[Box3]) -> StorageResult<Vec<(u64, Box3)>> {
        if self.rtree_lost {
            // Degraded open without an index: every surviving heap page
            // is a candidate and nothing is known about its extent, so
            // each gets the whole data space and survives the pre-filter
            // (correctness over cost).
            let space = Box3::prism(self.bounds, 0.0, self.e_cap());
            return Ok(self
                .heap
                .page_ids()
                .iter()
                .map(|&p| (p as u64, space))
                .collect());
        }
        let mut pages: Vec<(u64, Box3)> = Vec::new();
        self.rtree
            .try_query_multi(boxes, |bbox, page| pages.push((page, *bbox)))?;
        pages.sort_unstable_by_key(|&(p, _)| p);
        Ok(pages)
    }

    /// The one range scan: every record whose vertical segment
    /// intersects *any* box, each once, into a [`FetchedSet`] arena. A
    /// VI query plane is a one-box batch; a VD staircase (a cold query's
    /// or one navigation frame's) is many. One index descent for
    /// the whole batch, then each candidate heap page is header-scanned
    /// *once* — its stored MBR first pre-filters the batch down to the
    /// boxes that can match on that page, its slot-0 base is decoded
    /// once and the page's XOR-deltas unpacked in one tight slot loop —
    /// with an exact segment test per record.
    ///
    /// A heap page that stays unreadable after the buffer pool's retries
    /// contributes nothing (half-read records are dropped) and is
    /// accounted once in `report` — unless `strict`, which makes it the
    /// call's error: what the edit path reads through, because a patch
    /// must never be computed from a partial dirty set. Index pages get
    /// no forgiveness in either mode — a lost interior node silently
    /// hides whole subtrees, so index errors always abort.
    pub fn range_scan(
        &self,
        boxes: &[Box3],
        strict: bool,
        report: &mut IntegrityReport,
        counters: &mut FetchCounters,
    ) -> StorageResult<FetchedSet> {
        let retries_before = dm_storage::thread_retries();
        let mut out = FetchedSet::new();
        let cand = self.candidate_pages_mbr(boxes)?;
        let est_points = self.mean_records_per_page();
        let e_cap = self.e_cap();
        // MBR pre-filter scratch, reused across pages.
        let mut hit: Vec<&Box3> = Vec::with_capacity(boxes.len());
        for &(page, ref mbr) in &cand {
            hit.clear();
            hit.extend(boxes.iter().filter(|b| mbr.intersects(b)));
            if hit.is_empty() {
                continue;
            }
            counters.pages_scanned += 1;
            let len_before = out.len();
            let mut examined = 0u64;
            // A page on the first visit of its residency (this call
            // fetched it) is header-scanned from its bytes — only kept
            // records pay the full decode; a page visited before is
            // filtered from its decoded sidecar, outside the pool's lock.
            // Same test, same order, same counts.
            let r = self.heap.try_view_page_decoded(
                page as dm_storage::PageId,
                |view| {
                    let mut dec = PageDecoder::new(self.codec);
                    for slot in 0..view.n_slots() {
                        let raw = dec.next(slot, view.record(slot)?);
                        examined += 1;
                        let seg = raw.clamped_segment(e_cap);
                        if hit.iter().any(|b| seg.intersects(b)) {
                            raw.append_to(&mut out);
                        }
                    }
                    Ok(())
                },
                |view| {
                    let set = FetchedSet::from_page(view, self.codec)?;
                    let bytes = set.heap_bytes();
                    Ok(Some((set, bytes)))
                },
            );
            if let Ok(PageRead::Decoded(set)) = &r {
                examined = set.len() as u64;
                for (i, node) in set.nodes.iter().enumerate() {
                    let seg = self.record_segment(node);
                    if hit.iter().any(|b| seg.intersects(b)) {
                        out.push(*node, set.conn_of(i).iter().copied());
                    }
                }
            }
            counters.records_examined += examined;
            if let Err(e) = r {
                if strict {
                    return Err(e);
                }
                // Drop anything half-read from the failing page; trust
                // only pages that scanned end to end.
                out.truncate(len_before);
                report.record_loss(est_points, &e);
            }
        }
        counters.records_decoded += out.len() as u64;
        report.retries += dm_storage::thread_retries() - retries_before;
        Ok(out)
    }

    /// Mean records per heap page — the best available estimate for how
    /// many points an unreadable page took with it.
    fn mean_records_per_page(&self) -> u64 {
        let n_pages = self.heap.page_ids().len().max(1) as u64;
        (self.n_records as u64).div_ceil(n_pages)
    }

    /// Point lookup of the whole record through the id directory (counted
    /// I/O): `Ok(None)` means the id does not exist, `Err` that the
    /// directory or heap page could not be read. The edit path reads
    /// connection lists through this; queries need only
    /// [`Self::try_fetch_node_by_id`].
    pub fn try_fetch_by_id(&self, id: u32) -> StorageResult<Option<DmRecord>> {
        self.point_lookup(id, |raw| raw.to_owned(), FetchedSet::record)
    }

    /// [`Self::try_fetch_by_id`] for the node alone — the `FetchOnMiss`
    /// boundary lookup. Same counted accesses; a resident decoded page is
    /// indexed, a raw one decodes the record's header and links only.
    pub fn try_fetch_node_by_id(&self, id: u32) -> StorageResult<Option<PmNode>> {
        self.point_lookup(id, |raw| raw.node(), |set, slot| set.nodes[slot])
    }

    /// Find `id` in the id index and read its slot from the heap page:
    /// `raw` on the record's bytes, or `decoded` on the page's sidecar.
    fn point_lookup<R>(
        &self,
        id: u32,
        raw: impl FnOnce(RawRecord<'_>) -> R,
        decoded: impl FnOnce(&FetchedSet, usize) -> R,
    ) -> StorageResult<Option<R>> {
        let Some(rid) = self.ids.try_get(id)? else {
            return Ok(None);
        };
        // One counted page access either way. A frame that already
        // carries its decoded page is indexed; a lookup never builds one
        // (two slots against a whole page).
        let read = self.heap.try_view_page_decoded(
            rid.page,
            |view| {
                // A compact record deltas against the page's slot-0 base.
                let mut dec = PageDecoder::new(self.codec);
                if self.codec == RecordCodec::Compact && rid.slot != 0 {
                    dec.next(0, view.record(0)?);
                }
                Ok(raw(dec.next(rid.slot, view.record(rid.slot)?)))
            },
            |_| Ok(None::<(FetchedSet, usize)>),
        )?;
        match read {
            PageRead::Raw(r) => Ok(Some(r)),
            PageRead::Decoded(set) if (rid.slot as usize) < set.len() => {
                Ok(Some(decoded(&set, rid.slot as usize)))
            }
            PageRead::Decoded(set) => Err(StorageError::corrupt(
                rid.page,
                format!("slot {} out of range ({})", rid.slot, set.len()),
            )),
        }
    }

    /// Reset counters and drop the cache — the paper's measurement
    /// protocol before every query. Stats are reset even when the flush
    /// fails.
    pub fn try_cold_start(&self) -> StorageResult<()> {
        let r = self.pool.try_flush_all();
        self.pool.reset_stats();
        r
    }

    /// Disk accesses since the last [`Self::try_cold_start`].
    pub fn disk_accesses(&self) -> u64 {
        self.pool.stats().reads
    }

    /// Which codec the heap records are stored in.
    pub fn codec(&self) -> RecordCodec {
        self.codec
    }

    /// Number of heap pages the record table occupies — the denominator
    /// of the compression bench's bytes-per-record figure.
    pub fn n_heap_pages(&self) -> usize {
        self.heap.page_ids().len()
    }

    /// Every page this version reaches, ascending (see
    /// [`crate::catalog::page_set`]): what a live store must not reuse
    /// while a handle on this version is alive.
    pub fn page_set(&self) -> StorageResult<Vec<PageId>> {
        crate::catalog::page_set(&self.pool, self.catalog_page)
    }

    /// A walk of the id directory: its pages, runs and entries, each page
    /// checked on the way. `None` on a version-2/3 store, whose id index
    /// is still a B+-tree.
    pub fn id_directory_walk(&self) -> StorageResult<Option<DirectoryWalk>> {
        match &self.ids {
            IdIndex::Directory(d) => d.try_walk(|_, _| ()).map(Some),
            IdIndex::BTree(_) => Ok(None),
        }
    }

    /// Structural summary of the database (see [`DbStats`]).
    pub fn stats_summary(&self) -> DbStats {
        let (id_index_levels, id_index_entries) = match &self.ids {
            IdIndex::Directory(d) => (1, d.len()),
            IdIndex::BTree(t) => (t.height(), t.len()),
        };
        DbStats {
            catalog_version: crate::catalog::version_of(
                matches!(self.ids, IdIndex::Directory(_)),
                self.codec,
            ),
            codec: self.codec,
            n_records: self.n_records as u64,
            n_leaves: self.n_leaves as u64,
            n_roots: self.roots.len() as u64,
            heap_pages: self.heap.page_ids().len() as u64,
            total_pages: u64::from(self.pool.num_pages()),
            id_index_levels,
            id_index_entries,
            rtree_nodes: self.rtree.num_nodes() as u64,
            rtree_height: self.rtree.height(),
            rtree_len: self.rtree.len(),
            e_max: self.e_max,
            bounds: self.bounds,
        }
    }

    /// Apply a terrain edit copy-on-write: re-optimize the dirty
    /// neighborhood, rewrite the affected heap pages onto fresh pages,
    /// copy the id-directory pages that name them, path-copy the
    /// R\*-tree above them, and persist a new
    /// catalog chain at a freshly allocated page — without touching one
    /// byte of the current version. `self` remains a fully consistent
    /// snapshot; the returned [`PatchOutcome::db`] is the next one.
    ///
    /// The dirty neighborhood is the paper's simplification dependency
    /// set: terrain points (PM leaves) inside `region` take their edited
    /// heights directly; every internal node whose QEM fan contains a
    /// moved vertex — the one-ring of the region plus all ancestors up to
    /// the roots — re-runs the QEM height optimization (plan-view
    /// positions, LOD intervals and the hierarchy itself are preserved,
    /// so index geometry changes only where pages split). Nodes are
    /// re-optimized in ascending `(e_lo, id)` order: children settle
    /// before the parents whose fans read them.
    pub fn apply_patch(&self, region: &Rect, edit: &EditOp) -> StorageResult<PatchOutcome> {
        if self.rtree_lost {
            return Err(StorageError::format(
                "cannot edit a degraded database (spatial index lost)",
            ));
        }
        // ---- 1. Dirty set: every record whose plan-view position falls
        // inside the region, at every LOD level (the full vertical slab).
        let q = Box3::prism(*region, 0.0, self.e_cap());
        let slab = self.range_scan(
            &[q],
            true,
            &mut IntegrityReport::default(),
            &mut FetchCounters::default(),
        )?;
        // The records the edit mutates, as owned [`DmRecord`]s from here on.
        let mut work: FxHashMap<u32, DmRecord> = FxHashMap::default();
        for (i, node) in slab.nodes.iter().enumerate() {
            if region.contains(node.pos.xy()) {
                work.insert(node.id, slab.record(i));
            }
        }
        let in_region: Vec<u32> = {
            let mut v: Vec<u32> = work.keys().copied().collect();
            v.sort_unstable();
            v
        };

        // ---- 2. Closure: the one-ring (connection neighbours, whose
        // QEM fans contain moved vertices) and every ancestor chain up to
        // the roots (each parent's height was optimized from the fan its
        // children sit in).
        for &id in &in_region {
            let conn = work[&id].conn.clone();
            for c in conn {
                if let std::collections::hash_map::Entry::Vacant(slot) = work.entry(c) {
                    if let Some(rec) = self.try_fetch_by_id(c)? {
                        slot.insert(rec);
                    }
                }
            }
        }
        let mut stack: Vec<u32> = {
            let mut v: Vec<u32> = work.keys().copied().collect();
            v.sort_unstable();
            v
        };
        while let Some(id) = stack.pop() {
            let parent = work[&id].node.parent;
            if parent != NIL_ID && !work.contains_key(&parent) {
                if let Some(rec) = self.try_fetch_by_id(parent)? {
                    work.insert(parent, rec);
                    stack.push(parent);
                }
            }
        }

        // ---- 3. Height re-optimization in ascending (e_lo, id) order.
        let mut order: Vec<u32> = work.keys().copied().collect();
        order.sort_unstable_by(|a, b| {
            let (na, nb) = (&work[a].node, &work[b].node);
            na.e_lo.total_cmp(&nb.e_lo).then(na.id.cmp(&nb.id))
        });
        // Read-only cache for fan members outside the working set.
        let mut context: FxHashMap<u32, PmNode> = FxHashMap::default();
        let mut changed: Vec<u32> = Vec::new();
        for id in order {
            let node = work[&id].node;
            let new_z = if node.is_leaf() {
                // Leaves are the measured terrain points: only a direct
                // edit moves them (ring leaves outside the region stay).
                if region.contains(node.pos.xy()) {
                    match edit {
                        EditOp::Raise(dz) => node.pos.z + dz,
                        EditOp::SetHeights(samples) => {
                            nearest_sample_z(samples, node.pos.x, node.pos.y).unwrap_or(node.pos.z)
                        }
                    }
                } else {
                    node.pos.z
                }
            } else {
                let conn = work[&id].conn.clone();
                let mut fan = Vec::with_capacity(conn.len());
                for c in conn {
                    if let Some(r) = work.get(&c) {
                        fan.push(r.node.pos);
                    } else if let Some(n) = context.get(&c) {
                        fan.push(n.pos);
                    } else if let Some(n) = self.try_fetch_node_by_id(c)? {
                        fan.push(n.pos);
                        context.insert(c, n);
                    }
                }
                match qem_optimal_z(&node, &fan) {
                    Some(z) => z,
                    None => {
                        // Degenerate fan (collinear / vertical planes):
                        // fall back to the mean of the children's
                        // (already updated) heights, then the old height.
                        let mut sum = 0.0;
                        let mut k = 0u32;
                        for ch in [node.child1, node.child2] {
                            if ch == NIL_ID {
                                continue;
                            }
                            let cz = if let Some(r) = work.get(&ch) {
                                Some(r.node.pos.z)
                            } else if let Some(n) = context.get(&ch) {
                                Some(n.pos.z)
                            } else if let Some(n) = self.try_fetch_node_by_id(ch)? {
                                context.insert(ch, n);
                                Some(n.pos.z)
                            } else {
                                None
                            };
                            if let Some(cz) = cz {
                                sum += cz;
                                k += 1;
                            }
                        }
                        if k > 0 {
                            sum / f64::from(k)
                        } else {
                            node.pos.z
                        }
                    }
                }
            };
            if new_z.to_bits() != node.pos.z.to_bits() {
                work.get_mut(&id).unwrap().node.pos.z = new_z;
                changed.push(id);
            }
        }

        // ---- 4. Copy-on-write rewrite of every heap page holding a
        // changed record. The whole page re-encodes (the compact codec
        // deltas against slot 0), spilling onto extra fresh pages when
        // the new bit patterns no longer fit.
        let mut dirty_pages: Vec<PageId> = Vec::new();
        for &id in &changed {
            let rid = self.ids.try_get(id)?.ok_or_else(|| {
                StorageError::format(format!("edited id {id} missing from the id index"))
            })?;
            dirty_pages.push(rid.page);
        }
        dirty_pages.sort_unstable();
        dirty_pages.dedup();

        let mut rid_updates: Vec<(u32, RecordId)> = Vec::new();
        let mut rtree_repl: HashMap<u64, Vec<(Box3, u64)>> = HashMap::new();
        let mut page_repl: BTreeMap<PageId, Vec<PageId>> = BTreeMap::new();
        for &old_page in &dirty_pages {
            let mut recs: Vec<DmRecord> = Vec::new();
            let mut dec = PageDecoder::new(self.codec);
            self.heap.try_for_each_in_page(old_page, |rid, bytes| {
                recs.push(dec.next(rid.slot, bytes).to_owned())
            })?;
            for r in &mut recs {
                if let Some(u) = work.get(&r.node.id) {
                    *r = u.clone();
                }
            }
            // Greedy packing: indices into `recs` per fresh page.
            let mut groups: Vec<Vec<(usize, Vec<u8>)>> = Vec::new();
            let mut cur: Vec<(usize, Vec<u8>)> = Vec::new();
            let mut used = HEAP_HEADER;
            let mut base = BaseVals::ZERO;
            let open = |rec: &DmRecord, base: &mut BaseVals| match self.codec {
                RecordCodec::Flat => rec.encode(),
                RecordCodec::Compact => {
                    let opener = encode_compact(rec, &BaseVals::ZERO);
                    *base = RawRecord::parse_compact(&opener, &BaseVals::ZERO).base_vals();
                    opener
                }
            };
            for (idx, rec) in recs.iter().enumerate() {
                let enc = if cur.is_empty() {
                    open(rec, &mut base)
                } else {
                    match self.codec {
                        RecordCodec::Flat => rec.encode(),
                        RecordCodec::Compact => encode_compact(rec, &base),
                    }
                };
                if !cur.is_empty() && used + HEAP_SLOT + enc.len() > dm_storage::PAGE_DATA {
                    groups.push(std::mem::take(&mut cur));
                    used = HEAP_HEADER;
                    let enc = open(rec, &mut base);
                    used += HEAP_SLOT + enc.len();
                    cur.push((idx, enc));
                } else {
                    used += HEAP_SLOT + enc.len();
                    cur.push((idx, enc));
                }
            }
            if !cur.is_empty() {
                groups.push(cur);
            }

            let mut new_ids: Vec<PageId> = Vec::new();
            for group in &groups {
                let page =
                    write_fresh_heap_page(&self.pool, group.iter().map(|(_, e)| e.as_slice()))?;
                let mut bbox: Option<Box3> = None;
                for (slot, (idx, _)) in group.iter().enumerate() {
                    let rec = &recs[*idx];
                    let rid = RecordId {
                        page,
                        slot: slot as u16,
                    };
                    rid_updates.push((rec.node.id, rid));
                    let seg = self.record_segment(&rec.node);
                    bbox = Some(match bbox {
                        Some(b) => b.union(&seg),
                        None => seg,
                    });
                }
                rtree_repl
                    .entry(u64::from(old_page))
                    .or_default()
                    .push((bbox.expect("group is non-empty"), u64::from(page)));
                new_ids.push(page);
            }
            page_repl.insert(old_page, new_ids);
        }
        rid_updates.sort_unstable_by_key(|&(k, _)| k);

        // ---- 5. Copy the indexes and splice the heap page list.
        let ids = IdIndex::Directory(self.ids.try_update(&self.pool, &rid_updates)?);
        let rtree = self.rtree.cow_replace_leaf_vals(&rtree_repl)?;
        let mut heap_pages: Vec<PageId> = Vec::with_capacity(self.heap.page_ids().len());
        for &p in self.heap.page_ids() {
            match page_repl.get(&p) {
                Some(repl) => heap_pages.extend_from_slice(repl),
                None => heap_pages.push(p),
            }
        }
        let heap = HeapFile::from_parts(Arc::clone(&self.pool), heap_pages, self.heap.len());

        // ---- 6. Fresh catalog chain. Interval statistics and the cost
        // model are shared with this snapshot, not copied (see the field
        // docs).
        let catalog_page = self.pool.try_allocate()?;
        let db = DirectMeshDb {
            pool: Arc::clone(&self.pool),
            heap,
            ids,
            rtree,
            cost: Arc::clone(&self.cost),
            bounds: self.bounds,
            e_max: self.e_max,
            n_records: self.n_records,
            n_leaves: self.n_leaves,
            roots: self.roots.clone(),
            intervals: Arc::clone(&self.intervals),
            codec: self.codec,
            rtree_lost: false,
            catalog_page,
        };
        db.save_catalog(catalog_page)?;
        Ok(PatchOutcome {
            db,
            catalog_page,
            pages_rewritten: page_repl.len(),
            records_updated: changed.len(),
        })
    }

    /// In-memory map of all records (testing aid; not a measured path).
    pub fn all_records(&self) -> FxHashMap<u32, DmRecord> {
        let mut out = FxHashMap::with_capacity_and_hasher(self.n_records, Default::default());
        let mut dec = PageDecoder::new(self.codec);
        // `scan` walks pages in file order and slots in page order, which
        // is exactly the traversal the page decoder needs.
        self.heap.scan(|rid, bytes| {
            let rec = dec.next(rid.slot, bytes).to_owned();
            out.insert(rec.node.id, rec);
        });
        out
    }
}

/// Heap page layout constants (see `dm_storage::heap`): 4-byte page
/// header plus a 4-byte slot-directory entry per record.
const HEAP_HEADER: usize = 4;
const HEAP_SLOT: usize = 4;

/// The z of the sample nearest to `(x, y)` (plan-view distance).
fn nearest_sample_z(samples: &[(f64, f64, f64)], x: f64, y: f64) -> Option<f64> {
    samples
        .iter()
        .map(|&(sx, sy, sz)| ((x - sx).powi(2) + (y - sy).powi(2), sz))
        .min_by(|a, b| a.0.total_cmp(&b.0))
        .map(|(_, z)| z)
}

/// The height minimizing the quadric error of the triangle fan around
/// `node`, with its plan-view position held fixed — the same measure PM
/// construction minimized, restricted to one dimension.
///
/// The fan is rebuilt from the connection ring: neighbours sorted by
/// angle, a plane per consecutive pair (the wrap pair skipped when the
/// largest angular gap exceeds π — a mesh-border vertex has an open fan).
/// For planes `A x + B y + C z + D = 0` weighted by triangle area `w`,
/// the quadric restricted to z is `Σ w (h + C z)²` with
/// `h = A x + B y + D`, minimized at `z* = −Σ w h C / Σ w C²`.
fn qem_optimal_z(node: &PmNode, fan: &[Vec3]) -> Option<f64> {
    if fan.len() < 2 {
        return None;
    }
    let v = node.pos;
    let mut pts: Vec<(f64, Vec3)> = fan
        .iter()
        .map(|&p| ((p.y - v.y).atan2(p.x - v.x), p))
        .collect();
    pts.sort_by(|a, b| a.0.total_cmp(&b.0));
    let n = pts.len();
    let wrap_gap = pts[0].0 + std::f64::consts::TAU - pts[n - 1].0;
    let (mut num, mut den) = (0.0f64, 0.0f64);
    for i in 0..n {
        let j = (i + 1) % n;
        if j == 0 && wrap_gap > std::f64::consts::PI {
            continue;
        }
        let (a, b) = (pts[i].1, pts[j].1);
        let nrm = (a - v).cross(b - v);
        let area = 0.5 * nrm.length();
        let Some(u) = nrm.normalized() else {
            continue;
        };
        let d = -u.dot(a);
        let h = u.x * v.x + u.y * v.y + d;
        num += area * h * u.z;
        den += area * u.z * u.z;
    }
    (den > 1e-12).then(|| -num / den)
}

/// Write one slotted heap page (same layout as `dm_storage::heap`) onto a
/// freshly allocated page: the copy-on-write path never appends into an
/// existing page, so committed versions keep every byte they reference.
fn write_fresh_heap_page<'a>(
    pool: &Arc<BufferPool>,
    encs: impl Iterator<Item = &'a [u8]> + Clone,
) -> StorageResult<PageId> {
    use dm_storage::page::codec as pc;
    let page = pool.try_allocate()?;
    pool.try_write(page, |buf| {
        let mut off = dm_storage::PAGE_DATA;
        let mut n = 0usize;
        for e in encs.clone() {
            off -= e.len();
            buf[off..off + e.len()].copy_from_slice(e);
            pc::put_u16(buf, HEAP_HEADER + n * HEAP_SLOT, off as u16);
            pc::put_u16(buf, HEAP_HEADER + n * HEAP_SLOT + 2, e.len() as u16);
            n += 1;
        }
        pc::put_u16(buf, 0, n as u16);
        pc::put_u16(buf, 2, off as u16);
    })?;
    Ok(page)
}

/// A record's vertical segment `(x, y) × [e_lo, e_hi]` in the spatial
/// index, with the root's unbounded top capped at `e_cap`.
fn segment(node: &PmNode, e_cap: f64) -> Box3 {
    let hi = if node.e_hi.is_finite() {
        node.e_hi.min(e_cap)
    } else {
        e_cap
    };
    Box3::vertical_segment(node.pos.xy(), node.e_lo, hi)
}

/// The values the compact codec deltas a page against when `node`'s
/// record opens it.
fn base_vals(node: &PmNode) -> BaseVals {
    BaseVals {
        id: node.id,
        x: node.pos.x.to_bits(),
        y: node.pos.y.to_bits(),
        z: node.pos.z.to_bits(),
        e_lo: node.e_lo.to_bits(),
    }
}

/// Write `records` to a fresh heap, group by group (indices into
/// `records`), and return each record's `RecordId` in `records` order.
///
/// Slot 0 of each page is the base the rest of the page deltas against.
/// When a delta-encoded record no longer fits the open page, it
/// re-encodes against [`BaseVals::ZERO`] and opens the next page as its
/// base. `encoded` is empty, or holds per record the bytes the weighted
/// STR grouping last sized it as: then every group opens a page of its
/// own, and its records are written as sized while that page is still
/// open.
fn place_records(
    heap: &mut HeapFile,
    records: &[DmRecord],
    groups: &[Vec<u32>],
    mut encoded: Vec<Vec<u8>>,
) -> Vec<RecordId> {
    let mut rids = vec![RecordId { page: 0, slot: 0 }; records.len()];
    let mut base = BaseVals::ZERO;
    let mut on_group_page = false;
    for group in groups {
        for (k, &i) in group.iter().enumerate() {
            let i = i as usize;
            let rec = &records[i];
            if k == 0 && !encoded.is_empty() {
                base = base_vals(&rec.node);
                on_group_page = true;
                rids[i] = heap
                    .try_insert_new_page(&std::mem::take(&mut encoded[i]))
                    .unwrap_or_else(|e| panic!("heap insert: {e}"));
                continue;
            }
            let delta = if on_group_page {
                std::mem::take(&mut encoded[i])
            } else {
                encode_compact(rec, &base)
            };
            let fits = heap
                .fits_in_last_page(delta.len())
                .unwrap_or_else(|e| panic!("heap probe: {e}"));
            rids[i] = if fits {
                heap.insert(&delta)
            } else {
                base = base_vals(&rec.node);
                on_group_page = false;
                heap.try_insert_new_page(&encode_compact(rec, &BaseVals::ZERO))
                    .unwrap_or_else(|e| panic!("heap insert: {e}"))
            };
        }
    }
    rids
}

/// The page-granular spatial index over a freshly placed heap, and the
/// cost model over its regions. `placed` yields every record's page and
/// segment. The index holds one entry per heap page, keyed by the MBR of
/// the segments stored on it; with STR-ordered placement each page is an
/// (x, y, e) tile, so this behaves like a clustering R-tree: a range
/// query reads the few index pages plus exactly the data pages whose
/// contents can match. A build's heap pages are dense and ascending, so
/// the boxes are gathered in page order and neither the tree nor the
/// statistics depend on a hash order.
fn index_heap_pages(
    pool: &Arc<BufferPool>,
    heap_pages: &[PageId],
    placed: impl Iterator<Item = (PageId, Box3)>,
    space: Box3,
    opts: &DmBuildOptions,
) -> (RStarTree, Arc<RtreeCostModel>) {
    let first = heap_pages.first().copied().unwrap_or(0);
    debug_assert!(heap_pages.iter().zip(first..).all(|(&p, q)| p == q));
    let mut boxes = vec![Box3::EMPTY; heap_pages.len()];
    for (page, b) in placed {
        let acc = &mut boxes[(page - first) as usize];
        *acc = acc.union(&b);
    }
    let items: Vec<(Box3, u64)> = boxes
        .iter()
        .zip(heap_pages)
        .map(|(&b, &p)| (b, p as u64))
        .collect();
    let rtree = if opts.dynamic_rtree {
        let mut t = RStarTree::new(Arc::clone(pool));
        for &(b, p) in &items {
            t.insert(b, p);
        }
        t
    } else {
        RStarTree::bulk_load(Arc::clone(pool), items, opts.rtree_fill)
    };
    // Optimizer statistics: the data-page boxes (what a range query
    // actually fetches) plus the index node regions (the descent).
    boxes.extend(rtree.collect_node_regions());
    (rtree, Arc::new(RtreeCostModel::new(&boxes, space)))
}

/// Rough records-per-page for the compact codec, used only to shape the
/// STR slab/run geometry (the byte-exact grouping happens per run in
/// [`dm_index::rstar::str_leaf_groups_weighted`]). Samples delta
/// encodings between records adjacent in a provisional STR order — the
/// same neighbourhood they will delta against on a real page.
/// Deterministic (stride sampling); cheap relative to the build.
fn estimate_compact_capacity(records: &[DmRecord], items: &[(Box3, u64)], fill: f64) -> usize {
    let provisional = dm_index::rstar::str_leaf_order(items, fill);
    let n = provisional.len();
    if n < 2 {
        return 2;
    }
    let stride = (n / 512).max(1);
    let (mut sum, mut count) = (0.0f64, 0usize);
    let mut j = 1;
    while j < n {
        let base = base_vals(&records[provisional[j - 1] as usize].node);
        let rec = &records[provisional[j] as usize];
        sum += (encode_compact(rec, &base).len() + HEAP_SLOT) as f64;
        count += 1;
        j += stride;
    }
    let mu = sum / count as f64;
    let cap = (dm_storage::PAGE_DATA - HEAP_HEADER) as f64 / mu;
    (cap.floor() as usize).clamp(2, u16::MAX as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unwrap_clean;
    use dm_mtm::builder::{build_pm, PmBuildConfig};
    use dm_storage::MemStore;
    use dm_terrain::{generate, TriMesh};

    /// The committed flat-codec store of `mining17.dmh` (see
    /// `tests/codec_compat.rs`) copied to `path`: builds write the
    /// compact codec only.
    fn copy_flat_fixture(path: &std::path::Path) {
        let fixture = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../tests/fixtures/legacy_v4_flat.dmdb");
        std::fs::copy(fixture, path).unwrap();
    }

    fn small_db() -> DirectMeshDb {
        let hf = generate::fractal_terrain(9, 9, 3);
        let pm = build_pm(TriMesh::from_heightfield(&hf), &PmBuildConfig::default());
        let pool = Arc::new(BufferPool::new(Box::new(MemStore::new()), 1024));
        DirectMeshDb::build(pool, &pm, &DmBuildOptions::default())
    }

    /// The server shares one `&DirectMeshDb` among its workers.
    #[test]
    fn db_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DirectMeshDb>();
        assert_send_sync::<Arc<DirectMeshDb>>();
    }

    #[test]
    fn build_from_records_answers_like_the_source() {
        let db = small_db();
        let records: Vec<DmRecord> = db.all_records().into_values().collect();
        let pool = Arc::new(BufferPool::new(Box::new(MemStore::new()), 1024));
        let rebuilt = DirectMeshDb::build_from_records(
            pool,
            records,
            db.bounds,
            db.e_max,
            &DmBuildOptions::default(),
        );
        assert_eq!(rebuilt.n_records, db.n_records);
        assert_eq!(rebuilt.n_leaves, db.n_leaves);
        assert_eq!(rebuilt.e_cap(), db.e_cap());
        {
            let mut roots = rebuilt.roots.clone();
            roots.sort_unstable();
            let mut src_roots = db.roots.clone();
            src_roots.sort_unstable();
            assert_eq!(roots, src_roots, "full record set keeps the true roots");
        }
        for e_frac in [0.1, 0.5] {
            let e = db.e_max * e_frac;
            let a = unwrap_clean(db.try_vi_query(&db.bounds, e));
            let b = unwrap_clean(rebuilt.try_vi_query(&db.bounds, e));
            assert_eq!(a.points, b.points);
            assert_eq!(a.front.num_triangles(), b.front.num_triangles());
        }
        // Point lookups resolve through the rebuilt id directory.
        for id in [0u32, 17, db.n_records as u32 - 1] {
            assert_eq!(
                rebuilt.try_fetch_by_id(id).unwrap(),
                db.try_fetch_by_id(id).unwrap()
            );
        }
    }

    #[test]
    fn subset_build_keeps_seam_crossing_references() {
        let db = small_db();
        let mid_x = db.bounds.center().x;
        let left: Vec<DmRecord> = db
            .all_records()
            .into_values()
            .filter(|r| r.node.pos.x < mid_x)
            .collect();
        assert!(!left.is_empty() && left.len() < db.n_records);
        let pool = Arc::new(BufferPool::new(Box::new(MemStore::new()), 1024));
        let tile = DirectMeshDb::build_from_records(
            pool,
            left.clone(),
            db.bounds,
            db.e_max,
            &DmBuildOptions::default(),
        );
        assert_eq!(tile.n_records, left.len());
        // Every stored record round-trips verbatim — including links and
        // connection ids that point outside the subset.
        for r in &left {
            assert_eq!(tile.try_fetch_by_id(r.node.id).unwrap().as_ref(), Some(r));
        }
        // Ids not in the subset are absent, not aliased.
        let absent = db
            .all_records()
            .into_values()
            .find(|r| r.node.pos.x >= mid_x)
            .unwrap();
        assert!(tile.try_fetch_by_id(absent.node.id).unwrap().is_none());
    }

    #[test]
    fn build_and_point_lookup() {
        let db = small_db();
        assert_eq!(db.n_records, db.all_records().len());
        for id in [0u32, 40, 80, db.n_records as u32 - 1] {
            let rec = db.try_fetch_by_id(id).unwrap().expect("record exists");
            assert_eq!(rec.node.id, id);
        }
        assert!(db.try_fetch_by_id(db.n_records as u32).unwrap().is_none());
    }

    /// Strict range scan of one box on a healthy store.
    fn scan(db: &DirectMeshDb, q: &Box3) -> FetchedSet {
        db.range_scan(
            std::slice::from_ref(q),
            true,
            &mut IntegrityReport::default(),
            &mut FetchCounters::default(),
        )
        .unwrap()
    }

    /// The set's records, ascending by id.
    fn by_id(set: &FetchedSet) -> Vec<DmRecord> {
        let mut recs: Vec<DmRecord> = (0..set.len()).map(|i| set.record(i)).collect();
        recs.sort_by_key(|r| r.node.id);
        recs
    }

    /// Id-sorted union of strict one-box scans, each checked against the
    /// one-box contract: candidate pages all scanned, every record on
    /// them examined, exactly the boxed ones decoded.
    fn union_of_one_box_scans(db: &DirectMeshDb, boxes: &[Box3]) -> (Vec<DmRecord>, FetchCounters) {
        let mut union: BTreeMap<u32, DmRecord> = BTreeMap::new();
        let mut total = FetchCounters::default();
        for q in boxes {
            let mut c = FetchCounters::default();
            let one = db
                .range_scan(&[*q], true, &mut IntegrityReport::default(), &mut c)
                .unwrap();
            let pages = db.candidate_pages(q).unwrap();
            let mut on_pages = 0u64;
            for &p in &pages {
                db.heap
                    .try_for_each_in_page(p as PageId, |_, _| on_pages += 1)
                    .unwrap();
            }
            assert_eq!(c.pages_scanned, pages.len() as u64);
            assert_eq!(c.records_examined, on_pages);
            assert_eq!(c.records_decoded, one.len() as u64);
            let recs = by_id(&one);
            assert!(recs.windows(2).all(|w| w[0].node.id < w[1].node.id));
            total.merge(&c);
            union.extend(recs.into_iter().map(|r| (r.node.id, r)));
        }
        (union.into_values().collect(), total)
    }

    /// One degrading batch scan with fresh accounting.
    fn scan_pass(
        db: &DirectMeshDb,
        boxes: &[Box3],
    ) -> (FetchedSet, FetchCounters, IntegrityReport) {
        let mut report = IntegrityReport::default();
        let mut c = FetchCounters::default();
        let set = db.range_scan(boxes, false, &mut report, &mut c).unwrap();
        (set, c, report)
    }

    /// The batch scanned three times on `db`'s pool: from a flushed pool
    /// (every heap page a miss — the raw loop), again (second visits —
    /// the sidecars are built) and again (later visits). Whatever mix of
    /// the two loops a pass ran, it must return the same records in the
    /// same order with the same counters and the same report as the first.
    fn scan_three_passes(
        db: &DirectMeshDb,
        boxes: &[Box3],
    ) -> (FetchedSet, FetchCounters, IntegrityReport) {
        db.try_cold_start().unwrap();
        let first = scan_pass(db, boxes);
        for pass in ["second visit", "later visit"] {
            assert_eq!(scan_pass(db, boxes), first, "{pass} ≡ miss");
        }
        first
    }

    /// The contract of the one range scan and its two page loops: a
    /// batch ≡ the id-sorted union of one-box scans, and a page read from
    /// its bytes ≡ the same page read from its decoded sidecar — on both
    /// codecs, on a pool that evicts mid-batch, under transient faults,
    /// on a degraded open that lost its index, and strict where degraded
    /// skips.
    #[test]
    fn batched_fetch_matches_per_box_union() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        for codec in [RecordCodec::Flat, RecordCodec::Compact] {
            let path = std::env::temp_dir().join(format!(
                "dm_scan_contract_{}_{}.db",
                std::process::id(),
                codec.name()
            ));
            let _ = std::fs::remove_file(&path);
            let file_pool = || {
                let store = dm_storage::FileStore::open(&path).unwrap();
                Arc::new(BufferPool::new(Box::new(store), 1024))
            };
            let db = match codec {
                RecordCodec::Flat => {
                    copy_flat_fixture(&path);
                    DirectMeshDb::open(file_pool()).unwrap()
                }
                RecordCodec::Compact => {
                    let hf = generate::fractal_terrain(33, 33, 3);
                    let pm = build_pm(TriMesh::from_heightfield(&hf), &PmBuildConfig::default());
                    drop(dm_storage::FileStore::create(&path).unwrap());
                    DirectMeshDb::create_in(file_pool(), &pm, &DmBuildOptions::default())
                }
            };
            let all = db.all_records();

            // Overlapping, disjoint, plane-thin and duplicate boxes.
            let mut rng = StdRng::seed_from_u64(16);
            let b = db.bounds;
            let cap = db.e_cap();
            let mut random_batch = || -> Vec<Box3> {
                let mut boxes: Vec<Box3> = (0..7)
                    .map(|_| {
                        let x = b.min.x + b.width() * rng.random_range(0.0..0.8);
                        let y = b.min.y + b.height() * rng.random_range(0.0..0.8);
                        let side = b.width() * rng.random_range(0.05..0.5);
                        let lo = cap * rng.random_range(0.0..0.6);
                        let rect = Rect::from_corners(
                            dm_geom::Vec2::new(x, y),
                            dm_geom::Vec2::new(x + side, y + side),
                        );
                        Box3::prism(rect, lo, lo + cap * rng.random_range(0.0..0.4))
                    })
                    .collect();
                boxes.push(Box3::prism(b, cap * 0.3, cap * 0.3));
                boxes.push(boxes[0]);
                boxes
            };
            let boxes = random_batch();

            let (union, single) = union_of_one_box_scans(&db, &boxes);
            let expected: Vec<DmRecord> = {
                let mut v: Vec<DmRecord> = all
                    .values()
                    .filter(|r| {
                        let seg = db.record_segment(&r.node);
                        boxes.iter().any(|q| seg.intersects(q))
                    })
                    .cloned()
                    .collect();
                v.sort_by_key(|r| r.node.id);
                v
            };
            assert_eq!(union, expected, "one-box scans ≡ brute force");

            let mut report = IntegrityReport::default();
            let mut batch = FetchCounters::default();
            let set = db
                .range_scan(&boxes, false, &mut report, &mut batch)
                .unwrap();
            assert!(report.is_clean());
            assert_eq!(by_id(&set), union, "batch ≡ union of one-box scans");
            assert_eq!(batch.records_decoded, union.len() as u64, "no repeats");
            // The point of batching: overlapping boxes stop re-scanning
            // the same pages.
            assert!(batch.pages_scanned < single.pages_scanned);
            assert!(batch.records_examined < single.records_examined);
            let empty = db.range_scan(&[], false, &mut report, &mut batch).unwrap();
            assert!(empty.is_empty());

            // Bytes ≡ sidecar. On the roomy pool the three passes are
            // all-miss, all-build and all-reuse; on a pool of one-frame
            // shards holding two thirds of the heap some pages evict each
            // other mid-batch and the rest stay, so every pass mixes both
            // loops; behind a store failing 5 % of reads every fault is
            // still met on a miss, retried and counted, and nothing is
            // lost. The batch with the whole-terrain plane goes last: on
            // the 8-page flat store it is the one that overflows the
            // small pool.
            let batches: Vec<Vec<Box3>> = (0..5)
                .map(|_| random_batch())
                .chain(std::iter::once(boxes.clone()))
                .collect();
            let frames = db.n_heap_pages() * 2 / 3;
            let small = {
                let store = dm_storage::FileStore::open(&path).unwrap();
                let pool = BufferPool::with_shard_count(Box::new(store), frames, frames);
                DirectMeshDb::open(Arc::new(pool)).unwrap()
            };
            let (faulty, fault_counters) = {
                let store = dm_storage::FileStore::open(&path).unwrap();
                let cfg = dm_storage::FaultConfig::new(24).with_read_fail_rate(0.05);
                let inj = dm_storage::FaultInjector::new(Box::new(store), cfg);
                let counters = inj.counters();
                let pool = BufferPool::with_shard_count(Box::new(inj), frames, frames);
                let db = DirectMeshDb::open(Arc::new(pool.with_max_retries(16))).unwrap();
                (db, counters)
            };
            let mut fault_retries = 0;
            for batch in &batches {
                let builds = db.pool().decoded_stats().builds;
                let clean = scan_three_passes(&db, batch);
                let (set, c, report) = &clean;
                assert!(report.is_clean());
                assert_eq!(
                    db.pool().decoded_stats().builds - builds,
                    c.pages_scanned,
                    "each scanned page is decoded once, on its second visit"
                );
                assert_eq!(scan_three_passes(&small, batch), clean);
                faulty.try_cold_start().unwrap();
                for _pass in 0..3 {
                    let (fset, fc, freport) = scan_pass(&faulty, batch);
                    assert_eq!((&fset, &fc), (set, c));
                    assert_eq!((freport.pages_lost, freport.points_lost), (0, 0));
                    fault_retries += freport.retries;
                }
            }
            assert!(small.pool().decoded_stats().builds > 0);
            assert!(
                small.pool().stats().reads > frames as u64,
                "more reads than frames: the last batch evicted mid-sequence"
            );
            assert!(fault_retries > 0, "faults must have fired during scans");
            assert!(fault_retries <= fault_counters.transient_read_failures());
            drop((small, faulty));

            // Wound one heap page the batch reads and the index root.
            let bad_page = db.candidate_pages(&boxes[0]).unwrap()[0] as PageId;
            let on_bad_page = |id: u32| db.ids.try_get(id).unwrap().unwrap().page == bad_page;
            let survivors: Vec<DmRecord> = union
                .iter()
                .filter(|r| !on_bad_page(r.node.id))
                .cloned()
                .collect();
            assert!(survivors.len() < union.len());
            {
                use std::io::{Seek, SeekFrom, Write};
                let mut f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
                for page in [bad_page, db.rtree.root_page()] {
                    let at = u64::from(page) * dm_storage::PAGE_SIZE as u64 + 99;
                    f.seek(SeekFrom::Start(at)).unwrap();
                    f.write_all(b"oops").unwrap();
                }
                f.sync_all().unwrap();
            }
            let mut open_report = IntegrityReport::default();
            let deg = DirectMeshDb::open_degraded(file_pool(), &mut open_report).unwrap();
            assert!(deg.rtree_lost());
            // Same answer, counters and report from bytes and sidecars:
            // the wounded page never becomes resident, so every pass
            // meets it as a miss and reports it once.
            let (set, mut c, mut report) = scan_three_passes(&deg, &boxes);
            assert_eq!(by_id(&set), survivors, "degraded batch ≡ surviving union");
            assert_eq!(report.pages_lost, 1, "the skipped page is reported once");
            assert_eq!(c.pages_scanned, deg.n_heap_pages() as u64, "heap scan");
            let err = deg
                .range_scan(&boxes, true, &mut report, &mut c)
                .expect_err("strict fails on the page degraded skips");
            assert!(
                matches!(err, StorageError::Corrupt { page, .. } if page == bad_page),
                "{err}"
            );
            let _ = std::fs::remove_file(&path);
        }
    }

    /// A point lookup indexes a frame's sidecar when a scan left one and
    /// decodes two slots from the bytes otherwise — same record either
    /// way, for every id, and a lookup never builds a sidecar itself.
    #[test]
    fn point_lookup_through_a_sidecar_matches_bytes() {
        let hf = generate::fractal_terrain(33, 33, 3);
        let pm = build_pm(TriMesh::from_heightfield(&hf), &PmBuildConfig::default());
        let path = std::env::temp_dir().join(format!("dm_lookup_{}.db", std::process::id()));
        for codec in [RecordCodec::Flat, RecordCodec::Compact] {
            let db = match codec {
                RecordCodec::Flat => {
                    copy_flat_fixture(&path);
                    let store = dm_storage::FileStore::open(&path).unwrap();
                    DirectMeshDb::open(Arc::new(BufferPool::new(Box::new(store), 1024))).unwrap()
                }
                RecordCodec::Compact => {
                    let pool = Arc::new(BufferPool::new(Box::new(MemStore::new()), 1024));
                    DirectMeshDb::build(pool, &pm, &DmBuildOptions::default())
                }
            };
            let all = db.all_records();
            // Each id through both verbs: the record, and the node alone.
            let sweep = || -> Vec<(Option<DmRecord>, Option<PmNode>)> {
                (0..=db.n_records as u32)
                    .map(|id| {
                        let node = db.try_fetch_node_by_id(id).unwrap();
                        (db.try_fetch_by_id(id).unwrap(), node)
                    })
                    .collect()
            };
            db.try_cold_start().unwrap();
            let from_bytes = sweep();
            assert_eq!(db.pool().decoded_stats().builds, 0, "lookups never build");
            let everything = Box3::prism(db.bounds, 0.0, db.e_cap());
            scan(&db, &everything); // every page visited before: all built
            let decoded = db.pool().decoded_stats();
            assert_eq!(decoded.frames, db.n_heap_pages());
            let reads = db.disk_accesses();
            let from_sidecars = sweep();
            assert_eq!(from_sidecars, from_bytes);
            assert_eq!(db.pool().decoded_stats(), decoded);
            assert_eq!(db.disk_accesses(), reads, "a warm sweep reads nothing");
            for (id, (rec, node)) in from_bytes.iter().enumerate() {
                assert_eq!(rec.as_ref(), all.get(&(id as u32)));
                assert_eq!(*node, rec.as_ref().map(|r| r.node));
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn conn_lists_respect_interval_overlap() {
        let db = small_db();
        let all = db.all_records();
        for rec in all.values() {
            for &c in &rec.conn {
                let other = &all[&c];
                assert!(
                    rec.node.interval().overlaps(&other.node.interval()),
                    "conn pair ({}, {c}) without similar LOD",
                    rec.node.id
                );
                assert!(
                    other.conn.contains(&rec.node.id),
                    "conn lists must be symmetric"
                );
            }
        }
    }

    #[test]
    fn range_scan_returns_segments_hit_by_plane() {
        let db = small_db();
        let e = db.e_max * 0.5;
        let plane = Box3::prism(db.bounds, e, e);
        let recs = by_id(&scan(&db, &plane));
        assert!(!recs.is_empty());
        for rec in &recs {
            // Closed-box semantics may over-fetch the exact upper bound;
            // every record must at least touch the plane level.
            assert!(rec.node.e_lo <= e && e <= rec.node.e_hi);
        }
        // Compare against the ground truth cut.
        let exact: usize = db
            .all_records()
            .values()
            .filter(|r| r.node.interval().contains(e))
            .count();
        let fetched_in = recs
            .iter()
            .filter(|r| r.node.interval().contains(e))
            .count();
        assert_eq!(fetched_in, exact, "plane query must cover the whole cut");
    }

    #[test]
    fn cold_start_counts_accesses() {
        let db = small_db();
        db.try_cold_start().unwrap();
        assert_eq!(db.disk_accesses(), 0);
        let _ = db.try_fetch_by_id(7).unwrap();
        let first = db.disk_accesses();
        assert_eq!(first, 2, "one directory page + the heap page");
        let _ = db.try_fetch_by_id(7).unwrap();
        assert_eq!(db.disk_accesses(), first, "warm repeat costs nothing");
    }

    /// A cold point lookup reads one id-directory page and the heap page;
    /// an absent id past the last fence reads the directory page alone.
    #[test]
    fn cold_point_lookup_costs_two_accesses() {
        let hf = generate::fractal_terrain(33, 33, 3);
        let pm = build_pm(TriMesh::from_heightfield(&hf), &PmBuildConfig::default());
        let pool = Arc::new(BufferPool::new(Box::new(MemStore::new()), 1024));
        let db = DirectMeshDb::build(pool, &pm, &DmBuildOptions::default());
        let n = db.n_records as u32;
        assert!(
            n as usize > dm_storage::iddir::PAGE_IDS,
            "two directory pages"
        );
        for id in [0, n / 2, n - 1] {
            db.try_cold_start().unwrap();
            assert_eq!(
                db.try_fetch_node_by_id(id).unwrap().map(|nd| nd.id),
                Some(id)
            );
            assert_eq!(db.disk_accesses(), 2, "id {id}");
        }
        db.try_cold_start().unwrap();
        assert_eq!(db.try_fetch_node_by_id(n).unwrap(), None);
        assert_eq!(db.disk_accesses(), 1);
    }

    fn corner_region(db: &DirectMeshDb, frac: f64) -> Rect {
        Rect::from_corners(
            db.bounds.min,
            dm_geom::Vec2::new(
                db.bounds.min.x + db.bounds.width() * frac,
                db.bounds.min.y + db.bounds.height() * frac,
            ),
        )
    }

    #[test]
    fn apply_patch_raises_region_and_keeps_old_snapshot() {
        let db = small_db();
        let before = db.all_records();
        let region = corner_region(&db, 0.4);
        let out = db.apply_patch(&region, &EditOp::Raise(25.0)).unwrap();
        assert!(out.records_updated > 0);
        assert!(out.pages_rewritten > 0);
        // Snapshot isolation: the pre-edit handle still reads the
        // pre-edit bytes.
        assert_eq!(db.all_records(), before);
        // The new version moved exactly the in-region leaves; structure,
        // connectivity and LOD intervals are untouched everywhere.
        let after = out.db.all_records();
        assert_eq!(after.len(), before.len());
        let mut raised = 0;
        for (id, rec) in &after {
            let old = &before[id];
            assert_eq!(rec.conn, old.conn, "connectivity of {id}");
            assert_eq!(rec.node.e_lo, old.node.e_lo);
            assert_eq!(rec.node.e_hi, old.node.e_hi);
            assert_eq!(rec.node.pos.xy(), old.node.pos.xy());
            if old.node.is_leaf() {
                if region.contains(old.node.pos.xy()) {
                    assert_eq!(rec.node.pos.z, old.node.pos.z + 25.0);
                    raised += 1;
                } else {
                    assert_eq!(rec.node.pos.z, old.node.pos.z);
                }
            }
        }
        assert!(raised > 0, "the region must contain terrain points");
        // Point lookups resolve through the copied id directory.
        for id in [0u32, 17, db.n_records as u32 - 1] {
            assert_eq!(out.db.try_fetch_by_id(id).unwrap().unwrap().node.id, id);
        }
        out.db
            .rtree()
            .validate()
            .expect("post-edit R*-tree is valid");
    }

    #[test]
    fn apply_patch_is_readable_from_its_fresh_catalog() {
        let hf = generate::fractal_terrain(9, 9, 5);
        let pm = build_pm(TriMesh::from_heightfield(&hf), &PmBuildConfig::default());
        let pool = Arc::new(BufferPool::new(Box::new(MemStore::new()), 1024));
        let db = DirectMeshDb::create_in(Arc::clone(&pool), &pm, &DmBuildOptions::default());
        let before = db.all_records();
        let region = corner_region(&db, 0.5);
        let out = db.apply_patch(&region, &EditOp::Raise(-3.5)).unwrap();
        pool.flush_all();
        // Reattach both versions purely from their catalog chains.
        let old = DirectMeshDb::open(Arc::clone(&pool)).unwrap();
        assert_eq!(
            old.all_records(),
            before,
            "page 0 still serves the old version"
        );
        let new = DirectMeshDb::open_at(Arc::clone(&pool), out.catalog_page).unwrap();
        assert_eq!(new.all_records(), out.db.all_records());
        // Range fetches on the reopened edit agree with the live handle.
        let e = new.e_max * 0.4;
        let q = Box3::prism(new.bounds, e, e);
        let mut a: Vec<u32> = scan(&new, &q).nodes.iter().map(|n| n.id).collect();
        let mut b: Vec<u32> = scan(&out.db, &q).nodes.iter().map(|n| n.id).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn empty_patch_commits_a_new_catalog_without_rewrites() {
        let db = small_db();
        let far = Rect::from_corners(
            dm_geom::Vec2::new(db.bounds.max.x + 10.0, db.bounds.max.y + 10.0),
            dm_geom::Vec2::new(db.bounds.max.x + 20.0, db.bounds.max.y + 20.0),
        );
        let out = db.apply_patch(&far, &EditOp::Raise(99.0)).unwrap();
        assert_eq!(out.records_updated, 0);
        assert_eq!(out.pages_rewritten, 0);
        assert_eq!(out.db.all_records(), db.all_records());
    }

    #[test]
    fn dynamic_rtree_build_matches_bulk() {
        let hf = generate::fractal_terrain(9, 9, 3);
        let pm = build_pm(TriMesh::from_heightfield(&hf), &PmBuildConfig::default());
        let mk = |dynamic: bool| {
            let pool = Arc::new(BufferPool::new(Box::new(MemStore::new()), 1024));
            DirectMeshDb::build(
                pool,
                &pm,
                &DmBuildOptions {
                    dynamic_rtree: dynamic,
                    ..Default::default()
                },
            )
        };
        let a = mk(false);
        let b = mk(true);
        let e = a.e_max * 0.3;
        let q = Box3::prism(a.bounds, e, e);
        let mut ia: Vec<u32> = scan(&a, &q).nodes.iter().map(|n| n.id).collect();
        let mut ib: Vec<u32> = scan(&b, &q).nodes.iter().map(|n| n.id).collect();
        ia.sort();
        ib.sort();
        assert_eq!(ia, ib, "index build method must not change results");
    }
}
