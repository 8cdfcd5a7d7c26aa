//! The three Direct Mesh query algorithms and the multi-base optimizer.

use std::cell::RefCell;

use dm_geom::{Box3, Rect, Vec2};
use dm_mtm::refine::{refine, FrontMesh, LodTarget, RecordSource, RefineStats};
use dm_mtm::{PlaneTarget, PmNode};
use fxhash::FxHashMap;

use dm_storage::StorageResult;

use crate::faces::{extract_faces_dense_owned, DenseAdjacency};
use crate::record::{FetchedSet, IndexedSet};
use crate::store::{DirectMeshDb, FetchCounters, IntegrityReport};

/// What to do when refinement needs a record outside the fetched region
/// (the ROI border).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BoundaryPolicy {
    /// Leave the border slightly coarser (no extra I/O) — the default and
    /// what the paper's plots measure.
    Skip,
    /// Fetch the missing record through the id directory (extra counted
    /// disk accesses).
    FetchOnMiss,
}

/// Result of a viewpoint-independent query.
pub struct ViResult {
    /// The reconstructed approximation.
    pub front: FrontMesh,
    /// Records fetched by the range query (before exact filtering).
    pub fetched_records: usize,
    /// Points in the final mesh.
    pub points: usize,
}

/// Flat form of a viewpoint-independent answer: the canonical vertex set
/// (nodes ascending by id) and the extracted CCW faces, without the
/// [`FrontMesh`] editing structure. The serving layer encodes straight
/// from this; [`ViResult`] is the same data after `FrontMesh::from_parts`
/// (which preserves it unchanged — see [`DirectMeshDb::try_vi_query_flat_counted`]).
pub struct ViFlatResult {
    /// Active nodes of the cut, ascending by id.
    pub nodes: Vec<PmNode>,
    /// Faces over node ids, strictly CCW, each led by its smallest id and
    /// the list sorted — the wire's canonical form already.
    pub faces: Vec<[u32; 3]>,
    /// Records fetched by the range query (before exact filtering).
    pub fetched_records: usize,
}

/// A viewpoint-dependent query: a ROI and a tilted LOD plane over it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct VdQuery {
    pub roi: Rect,
    pub target: PlaneTarget,
}

impl VdQuery {
    /// Range of required LOD over a sub-rectangle (the target is linear,
    /// so the extrema sit at corners).
    pub fn e_range(&self, rect: &Rect) -> (f64, f64) {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for p in [
            rect.min,
            rect.max,
            Vec2::new(rect.min.x, rect.max.y),
            Vec2::new(rect.max.x, rect.min.y),
        ] {
            let e = self.target.required(p.x, p.y);
            lo = lo.min(e);
            hi = hi.max(e);
        }
        (lo, hi)
    }

    /// The paper's `θmax = arctan(LOD_max / |ROI|)` and the *angle* of
    /// this query as a fraction of it.
    pub fn angle(&self) -> f64 {
        self.target.slope.atan()
    }

    /// Build a query from a viewer position using the paper's
    /// rule-of-thumb screen-space criterion `f(m.e, d) ≤ E`: a point at
    /// distance `d` from the viewer may carry approximation error up to
    /// `epsilon · d`. The radial requirement is approximated by the
    /// linear plane along the view direction (the paper treats a
    /// viewpoint-dependent query "as a number of viewpoint-independent
    /// queries" the same way).
    ///
    /// `epsilon` is error-per-unit-distance; `e_cap` clamps the far end
    /// (use the dataset's `e_max`).
    pub fn from_viewpoint(roi: Rect, eye: Vec2, epsilon: f64, e_cap: f64) -> VdQuery {
        assert!(epsilon > 0.0, "epsilon must be positive");
        // Nearest and farthest points of the ROI from the eye.
        let clamp = Vec2::new(
            eye.x.clamp(roi.min.x, roi.max.x),
            eye.y.clamp(roi.min.y, roi.max.y),
        );
        let d_near = eye.dist(clamp);
        let corners = [
            roi.min,
            roi.max,
            Vec2::new(roi.min.x, roi.max.y),
            Vec2::new(roi.max.x, roi.min.y),
        ];
        let d_far = corners.iter().map(|c| eye.dist(*c)).fold(0.0, f64::max);
        let dir = (roi.center() - eye).normalized_or(Vec2::new(0.0, 1.0));
        VdQuery {
            roi,
            target: PlaneTarget {
                origin: eye + dir * d_near,
                dir,
                e_min: (epsilon * d_near.max(1e-9)).min(e_cap),
                slope: epsilon,
                e_max: (epsilon * d_far)
                    .min(e_cap)
                    .max(epsilon * d_near.max(1e-9))
                    .min(e_cap),
            },
        }
    }
}

/// Unit vector helper for [`VdQuery::from_viewpoint`].
trait NormalizedOr {
    fn normalized_or(self, fallback: Vec2) -> Vec2;
}

impl NormalizedOr for Vec2 {
    fn normalized_or(self, fallback: Vec2) -> Vec2 {
        let len = self.length();
        if len > 1e-12 {
            self / len
        } else {
            fallback
        }
    }
}

/// Elevation aggregate over one approximation (see
/// [`DirectMeshDb::elevation_stats`]).
#[derive(Clone, Copy, Debug)]
pub struct ElevationStats {
    pub points: usize,
    pub min_z: f64,
    pub max_z: f64,
    pub mean_z: f64,
}

impl Default for ElevationStats {
    fn default() -> Self {
        ElevationStats {
            points: 0,
            min_z: f64::INFINITY,
            max_z: f64::NEG_INFINITY,
            mean_z: 0.0,
        }
    }
}

/// Result of a viewpoint-dependent query.
pub struct VdResult {
    pub front: FrontMesh,
    pub refine: RefineStats,
    /// Records fetched across all range queries.
    pub fetched_records: usize,
    /// The query cubes executed (1 for single-base).
    pub cubes: Vec<Box3>,
    /// Extra point fetches triggered by `BoundaryPolicy::FetchOnMiss`.
    pub boundary_fetches: usize,
}

/// The one seam under every query: what the shared cut / plan /
/// assemble-refine bodies below need from whatever holds the records —
/// four verbs, one of which fetches. Both query kinds are the same 3D
/// range query (the VI plane is a degenerate box of the VD cube), so
/// there is one [`Self::fetch`] and it returns the one representation
/// every consumer reads, the [`FetchedSet`] arena. A [`DirectMeshDb`]
/// implements it with its range scan; the world catalog implements it by
/// routing to the overlapping regions, fetching per region, remapping
/// into the world frame and appending in ascending region order. Records
/// of one id may therefore arrive more than once — the shared bodies
/// keep the first and count them all as fetched.
pub trait RecordStore: Sync {
    /// Clamp a query LOD into the indexed range.
    fn clamp_e(&self, e: f64) -> f64;

    /// Every record whose vertical segment intersects any of `boxes`: a
    /// VI query plane (one flat box), a VD staircase (a cold query's or
    /// one navigation frame's). Unreadable heap pages are skipped and
    /// accounted in `report`; `Err` means an index descent (or a region
    /// open) failed.
    fn fetch(
        &self,
        boxes: &[Box3],
        report: &mut IntegrityReport,
        counters: &mut FetchCounters,
    ) -> StorageResult<FetchedSet>;

    /// Point lookup of one node by id (the `FetchOnMiss` boundary
    /// policy): the refinement reads the node, never its connection list.
    fn try_fetch_node_by_id(&self, id: u32) -> StorageResult<Option<PmNode>>;

    /// The planner's cost probe: for each candidate plan, how many pages
    /// the optimizer statistics predict for its cubes together (a page
    /// shared by neighbouring cubes counts once). Every cube of every
    /// plan lies over `roi`, which a multi-region store routes by — once
    /// for all the candidates.
    fn union_page_counts(&self, roi: &Rect, plans: &[Vec<Box3>]) -> StorageResult<Vec<usize>>;
}

impl RecordStore for DirectMeshDb {
    fn clamp_e(&self, e: f64) -> f64 {
        DirectMeshDb::clamp_e(self, e)
    }

    fn fetch(
        &self,
        boxes: &[Box3],
        report: &mut IntegrityReport,
        counters: &mut FetchCounters,
    ) -> StorageResult<FetchedSet> {
        self.range_scan(boxes, false, report, counters)
    }

    fn try_fetch_node_by_id(&self, id: u32) -> StorageResult<Option<PmNode>> {
        DirectMeshDb::try_fetch_node_by_id(self, id)
    }

    fn union_page_counts(&self, _roi: &Rect, plans: &[Vec<Box3>]) -> StorageResult<Vec<usize>> {
        Ok(self.cost_model().count_unions(plans))
    }
}

/// The refinement's [`RecordSource`]: the fetched record set first, then
/// (under [`BoundaryPolicy::FetchOnMiss`]) a point lookup through the
/// store.
struct StoreSource<'a, S: RecordStore + ?Sized> {
    store: &'a S,
    /// The fetched records (a cold query's or a navigation frame's union
    /// fetch). Never written — boundary fetches land in `touched` so they
    /// cannot leak into the fetch.
    base: &'a IndexedSet,
    /// Boundary nodes the caller's previous frame ended with (empty for
    /// a one-shot query) …
    prev: FxHashMap<u32, PmNode>,
    /// … and the ones this run has needed so far: moved over from `prev`
    /// on first touch, or looked up in the store.
    touched: FxHashMap<u32, PmNode>,
    policy: BoundaryPolicy,
    misses_fetched: usize,
    /// Fall-through fetches that failed with a storage error are
    /// accounted here (each loses at most that one point; the first
    /// error is kept for diagnostics) and reported to the refinement as
    /// missing, same as `Skip`: the query completes with a slightly
    /// coarser border.
    report: &'a mut IntegrityReport,
    errored: bool,
}

impl<S: RecordStore + ?Sized> RecordSource for StoreSource<'_, S> {
    fn fetch(&mut self, id: u32) -> Option<PmNode> {
        if let Some(n) = self.base.node(id) {
            return Some(*n);
        }
        if let Some(n) = self.touched.get(&id) {
            return Some(*n);
        }
        if let Some(n) = self.prev.remove(&id) {
            self.touched.insert(id, n);
            return Some(n);
        }
        match self.policy {
            BoundaryPolicy::Skip => None,
            BoundaryPolicy::FetchOnMiss => match self.store.try_fetch_node_by_id(id) {
                Ok(Some(node)) => {
                    self.misses_fetched += 1;
                    self.touched.insert(id, node);
                    Some(node)
                }
                Ok(None) => None,
                Err(e) => {
                    self.report.points_lost += 1;
                    if !self.errored && self.report.errors.len() < IntegrityReport::MAX_ERRORS {
                        self.report.errors.push(format!("boundary fetch: {e}"));
                    }
                    self.errored = true;
                    None
                }
            },
        }
    }

    /// Under `FetchOnMiss` every id falls through to the store, so the
    /// refinement may end a wing walk at the front's id ceiling instead
    /// of looking up the ancestors above it (a lookup that could only
    /// confirm "outside the front", or fail and block the split).
    fn is_complete(&self) -> bool {
        self.policy == BoundaryPolicy::FetchOnMiss
    }
}

/// Viewpoint-independent query `Q(M, r, e)` over any store: one
/// query-plane range fetch, then topology from the connection lists
/// (paper §5.1), in flat canonical form — active nodes ascending by id
/// and the extracted CCW faces. Heap pages that stay unreadable after
/// retries are skipped and accounted in the [`IntegrityReport`]
/// (`is_clean()` ⇒ the result is exact); `Err` means an index descent
/// (or a region open) failed and no meaningful partial answer exists.
pub fn vi_query_flat<S: RecordStore + ?Sized>(
    store: &S,
    roi: &Rect,
    e: f64,
    counters: &mut FetchCounters,
) -> StorageResult<(ViFlatResult, IntegrityReport)> {
    let mut report = IntegrityReport::default();
    let e = store.clamp_e(e);
    let set = store.fetch(&[Box3::prism(*roi, e, e)], &mut report, counters)?;
    let (nodes, faces) = uniform_cut(&set, roi, e);
    Ok((
        ViFlatResult {
            nodes,
            faces,
            fetched_records: set.len(),
        },
        report,
    ))
}

/// One query cube per strip, each bounded by the plane's local LOD range
/// — the staircase under the tilted plane.
pub(crate) fn staircase<S: RecordStore + ?Sized>(
    store: &S,
    q: &VdQuery,
    strips: &[Rect],
) -> Vec<Box3> {
    strips
        .iter()
        .map(|rect| {
            let (lo, hi) = q.e_range(rect);
            Box3::prism(*rect, lo, store.clamp_e(hi))
        })
        .collect()
}

/// Plan the multi-base strip decomposition (paper §5.3): recursively
/// halve the ROI along the LOD gradient — each plan is a staircase of
/// equal strips — and keep the plan the optimizer statistics predict to
/// be cheapest. Costs are *union* page counts (pages shared by
/// neighbouring cubes are fetched once) plus an index-descent overhead
/// per extra cube; all candidates are priced by one probe, so the store
/// selects the statistics under the query once, not per candidate.
/// Deterministic for a given store: the cost models are built from
/// catalog statistics, not from cache state.
pub fn plan_multi_base<S: RecordStore + ?Sized>(
    store: &S,
    q: &VdQuery,
    max_cubes: usize,
) -> StorageResult<Vec<Rect>> {
    let overhead_per_cube = 3.0;
    let along_x = q.target.dir.x.abs() >= q.target.dir.y.abs();
    let mut candidates: Vec<Vec<Rect>> = std::iter::successors(Some(1usize), |n| n.checked_mul(2))
        .take_while(|&n| n <= max_cubes.max(1))
        .map(|n| equal_strips(&q.roi, n, along_x))
        .collect();
    let plans: Vec<Vec<Box3>> = candidates
        .iter()
        .map(|strips| staircase(store, q, strips))
        .collect();
    let pages = store.union_page_counts(&q.roi, &plans)?;
    // The first of equally cheap plans wins (fewest cubes).
    let mut best = 0;
    let mut best_cost = f64::INFINITY;
    for (i, (&pages, strips)) in pages.iter().zip(&candidates).enumerate() {
        let cost = pages as f64 + overhead_per_cube * (strips.len() as f64 - 1.0);
        if cost < best_cost {
            best_cost = cost;
            best = i;
        }
    }
    Ok(candidates.swap_remove(best))
}

/// Viewpoint-dependent query, multi-base, over any store: plan the
/// strips, then [`vd_with_strips`].
pub fn vd_multi_base<S: RecordStore + ?Sized>(
    store: &S,
    q: &VdQuery,
    policy: BoundaryPolicy,
    max_cubes: usize,
    counters: &mut FetchCounters,
) -> StorageResult<(VdResult, IntegrityReport)> {
    let strips = plan_multi_base(store, q, max_cubes)?;
    vd_with_strips(store, q, policy, &strips, counters)
}

/// Viewpoint-dependent query over a fixed strip decomposition: fetch the
/// staircase cubes in one batch, seed the front with the locally topmost
/// records, refine once to the query plane. A single strip covering the
/// ROI is the paper's single-base Algorithm 1.
///
/// Unreadable heap pages are skipped (the mesh completes from the
/// surviving records' connection lists, slightly coarser where data
/// vanished) and failed boundary fetches degrade to `Skip` behaviour.
/// `Err` only when an index descent (or a region open) fails.
pub fn vd_with_strips<S: RecordStore + ?Sized>(
    store: &S,
    q: &VdQuery,
    policy: BoundaryPolicy,
    strips: &[Rect],
    counters: &mut FetchCounters,
) -> StorageResult<(VdResult, IntegrityReport)> {
    let mut report = IntegrityReport::default();
    let cubes = staircase(store, q, strips);
    let set = store.fetch(&cubes, &mut report, counters)?;
    Ok(assemble_refine(store, q, policy, cubes, &[set], report))
}

/// The viewpoint-dependent tail every path shares: deduplicate the
/// fetched sets (first writer wins — strip order, ascending region
/// order), seed the front with the locally topmost records (the
/// staircase cubes provide each strip's top level; topmost seeding
/// handles the strip steps and the ROI clipping in one rule), then one
/// global refinement to the query plane with its boundary fetches
/// accounted.
pub(crate) fn assemble_refine<S: RecordStore + ?Sized>(
    store: &S,
    q: &VdQuery,
    policy: BoundaryPolicy,
    cubes: Vec<Box3>,
    fetched: &[FetchedSet],
    mut report: IntegrityReport,
) -> (VdResult, IntegrityReport) {
    let fetched_records = fetched.iter().map(FetchedSet::len).sum();
    let mut all = IndexedSet::default();
    for set in fetched {
        all.absorb(set);
    }
    let mut front = assemble_topmost_front(&all, &q.roi);
    let (refine, boundary_fetches) = refine_accounted(
        &mut front,
        store,
        &all,
        &mut FxHashMap::default(),
        policy,
        q,
        &mut report,
    );
    (
        VdResult {
            front,
            refine,
            fetched_records,
            cubes,
            boundary_fetches,
        },
        report,
    )
}

/// Refine `front` to the query plane reading `base` (falling through to
/// `boundary`, then to `store` as `policy` allows), with boundary-fetch
/// failures and retry spend folded into `report`. `boundary` comes in as
/// the nodes an earlier run over nearby records fell through for and
/// goes out as exactly the ones this run touched, so a caller that hands
/// it back every frame holds one frame's boundary, never a history.
/// Returns the refinement counters and the number of store lookups.
pub(crate) fn refine_accounted<S: RecordStore + ?Sized>(
    front: &mut FrontMesh,
    store: &S,
    base: &IndexedSet,
    boundary: &mut FxHashMap<u32, PmNode>,
    policy: BoundaryPolicy,
    q: &VdQuery,
    report: &mut IntegrityReport,
) -> (RefineStats, usize) {
    // Thread-attributed delta: the pool counter is shared, so under
    // concurrent workers it would tally other threads' retries too.
    let retries_before = dm_storage::thread_retries();
    let mut source = StoreSource {
        store,
        base,
        prev: std::mem::take(boundary),
        touched: FxHashMap::default(),
        policy,
        misses_fetched: 0,
        report,
        errored: false,
    };
    let stats = refine(front, &mut source, &q.target);
    let boundary_fetches = source.misses_fetched;
    *boundary = source.touched;
    report.retries += dm_storage::thread_retries() - retries_before;
    (stats, boundary_fetches)
}

impl DirectMeshDb {
    /// Viewpoint-independent query `Q(M, r, e)`: one query-plane range
    /// query, then topology from the connection lists (paper §5.1) —
    /// [`vi_query_flat`] with the cut assembled into a [`FrontMesh`].
    /// Unreadable heap pages degrade the answer and are accounted in the
    /// [`IntegrityReport`].
    pub fn try_vi_query(&self, roi: &Rect, e: f64) -> StorageResult<(ViResult, IntegrityReport)> {
        let (flat, report) = vi_query_flat(self, roi, e, &mut FetchCounters::default())?;
        let front = FrontMesh::from_parts(flat.nodes, &flat.faces);
        Ok((
            ViResult {
                points: front.num_vertices(),
                front,
                fetched_records: flat.fetched_records,
            },
            report,
        ))
    }

    /// [`vi_query_flat`] on this store, accumulating the per-request
    /// [`FetchCounters`] the network service reports with every
    /// response — the serving fast path, without the [`FrontMesh`]
    /// build. Extraction only ever emits strictly-CCW, non-degenerate
    /// faces, so `FrontMesh::from_parts` neither drops nor reorients any
    /// of them: canonicalizing this flat answer is bit-identical to
    /// canonicalizing [`Self::try_vi_query`]'s front.
    pub fn try_vi_query_flat_counted(
        &self,
        roi: &Rect,
        e: f64,
        counters: &mut FetchCounters,
    ) -> StorageResult<(ViFlatResult, IntegrityReport)> {
        vi_query_flat(self, roi, e, counters)
    }

    /// Viewpoint-dependent query, single-base (paper Algorithm 1): fetch
    /// the cube `roi × [e_min, e_max]`, build the mesh on the top plane,
    /// refine down to the query plane — [`vd_with_strips`] over the one
    /// strip that is the whole ROI.
    ///
    /// For a sub-region of the terrain, paths whose coarse ancestors sit
    /// *outside* the ROI enter the fetched set at finer levels only; the
    /// resulting mesh is correspondingly fragmented near the border (the
    /// paper's construction shares this property — only in-`r` data forms
    /// the mesh). `BoundaryPolicy::FetchOnMiss` reduces the effect; a
    /// [`crate::NavigationSession`] amortizes it across frames.
    pub fn try_vd_single_base(
        &self,
        q: &VdQuery,
        policy: BoundaryPolicy,
    ) -> StorageResult<(VdResult, IntegrityReport)> {
        vd_with_strips(self, q, policy, &[q.roi], &mut FetchCounters::default())
    }

    /// Aggregate query: elevation statistics of the approximation at LOD
    /// `e` inside `roi` — the database-style use the paper's introduction
    /// motivates ("use them together with other types of data"). Same
    /// I/O as [`Self::try_vi_query`], no topology reconstruction.
    pub fn elevation_stats(&self, roi: &Rect, e: f64) -> ElevationStats {
        let e = self.clamp_e(e);
        let plane = Box3::prism(*roi, e, e);
        let set = self
            .range_scan(
                &[plane],
                true,
                &mut IntegrityReport::default(),
                &mut FetchCounters::default(),
            )
            .unwrap_or_else(|e| panic!("elevation stats: {e}"));
        let mut out = ElevationStats::default();
        let mut sum = 0.0;
        for n in &set.nodes {
            if !n.interval().contains(e) || !roi.contains(n.pos.xy()) {
                continue;
            }
            out.points += 1;
            out.min_z = out.min_z.min(n.pos.z);
            out.max_z = out.max_z.max(n.pos.z);
            sum += n.pos.z;
        }
        if out.points > 0 {
            out.mean_z = sum / out.points as f64;
        }
        out
    }

    /// [`plan_multi_base`] on this store.
    pub fn plan_multi_base(&self, q: &VdQuery, max_cubes: usize) -> Vec<Rect> {
        plan_multi_base(self, q, max_cubes).expect("a store's cost model is in memory")
    }

    /// Viewpoint-dependent query, multi-base: one query cube per planned
    /// strip, then the final front is assembled directly from the union
    /// of the fetched records ([`vd_multi_base`] on this store).
    pub fn try_vd_multi_base(
        &self,
        q: &VdQuery,
        policy: BoundaryPolicy,
        max_cubes: usize,
    ) -> StorageResult<(VdResult, IntegrityReport)> {
        vd_multi_base(self, q, policy, max_cubes, &mut FetchCounters::default())
    }

    /// [`Self::try_vd_multi_base`] that additionally accumulates
    /// per-request [`FetchCounters`].
    pub fn try_vd_multi_base_counted(
        &self,
        q: &VdQuery,
        policy: BoundaryPolicy,
        max_cubes: usize,
        counters: &mut FetchCounters,
    ) -> StorageResult<(VdResult, IntegrityReport)> {
        vd_multi_base(self, q, policy, max_cubes, counters)
    }
}

/// Build the initial front from the *locally topmost* fetched records:
/// every in-ROI record whose parent is not an in-ROI fetched record (the
/// parent is either coarser than the cube top — making the record a
/// top-plane cut member — or positioned outside the ROI). Topology comes
/// from the connection lists wherever the seeds' LOD intervals overlap.
/// Seeds are sorted by id (dense order must agree with id order, which
/// face emission relies on), so the map's iteration order is irrelevant
/// and the front is a pure function of the record set and the ROI.
pub(crate) fn assemble_topmost_front(all: &IndexedSet, roi: &Rect) -> FrontMesh {
    let mut front = FrontMesh::default();
    assemble_topmost_front_into(all, roi, &mut front);
    front
}

/// [`assemble_topmost_front`] into a front the caller recycles: its
/// contents are replaced, its allocations kept.
pub(crate) fn assemble_topmost_front_into(all: &IndexedSet, roi: &Rect, front: &mut FrontMesh) {
    let set = all.set();
    let node = |slot: usize| &set.nodes[slot];
    // Seeds are arena slots (one per id).
    let mut seeds: Vec<usize> = (0..set.len())
        .filter(|&s| roi.contains(node(s).pos.xy()))
        .collect();
    let table_len = seeds
        .iter()
        .map(|&s| node(s).id as usize + 1)
        .max()
        .unwrap_or(0);
    ID_TABLE.with(|table| {
        let table = &mut *table.borrow_mut();
        // First generation: in-ROI membership, for the parent test
        // (`NIL_ID` lies beyond any table).
        table.begin(table_len);
        for &s in &seeds {
            table.set(node(s).id, 0);
        }
        seeds.retain(|&s| !table.probe(node(s).parent).0);
        seeds.sort_unstable_by_key(|&s| node(s).id);
        // Second generation: seed id → dense index.
        table.begin(table_len);
        for (k, &s) in seeds.iter().enumerate() {
            table.set(node(s).id, k as u32);
        }
        let pos: Vec<Vec2> = seeds.iter().map(|&s| node(s).pos.xy()).collect();
        let last = seeds.len().saturating_sub(1);
        let mut adj = DenseAdjacency::with_capacity(
            seeds.len(),
            seeds.iter().map(|&s| set.conn_of(s).len()).sum(),
        );
        for &s in &seeds {
            let iv = node(s).interval();
            adj.push_probed(set.conn_of(s), |c| {
                // A miss's index is stale: clamp it so the overlap test
                // reads some seed (its answer is discarded), never past one.
                let (hit, ci) = table.probe(c);
                let ci = (ci as usize).min(last);
                (hit & iv.overlaps(&node(seeds[ci]).interval()), ci as u32)
            });
        }
        // `adj` holds dense indices; faces are mapped back to PM node ids.
        let faces: Vec<[u32; 3]> = extract_faces_dense_owned(&pos, adj)
            .into_iter()
            .map(|t| t.map(|v| node(seeds[v as usize]).id))
            .collect();
        front.rebuild(seeds.iter().map(|&s| *node(s)), &faces);
    });
}

/// Generation-stamped direct-mapped id → dense-index table: PM ids are
/// dense small integers, so an array beats hashing on the per-request
/// hot path. A slot is `(stamp, dense)`, side by side so a probe costs
/// one cache line; `stamp == gen` marks `dense` valid for the current
/// generation, and [`IdTable::begin`] invalidates the whole table
/// without a clear.
struct IdTable {
    slots: Vec<(u32, u32)>,
    gen: u32,
}

impl IdTable {
    /// Start a generation with no id set, able to hold ids `< len`.
    fn begin(&mut self, len: usize) {
        self.gen = self.gen.wrapping_add(1);
        if self.gen == 0 {
            self.slots.clear();
            self.gen = 1;
        }
        if self.slots.len() < len {
            self.slots.resize(len, (0, 0));
        }
    }

    fn set(&mut self, id: u32, dense: u32) {
        self.slots[id as usize] = (self.gen, dense);
    }

    /// `(hit, dense)`: `hit` iff `id` was set this generation, in which
    /// case `dense` is its index; on a miss `dense` is whatever the slot
    /// last held (0 beyond the table). [`IdTable::begin`] never starts
    /// generation 0, the stamp of a slot never set.
    #[inline]
    fn probe(&self, id: u32) -> (bool, u32) {
        let (stamp, dense) = self.slots.get(id as usize).copied().unwrap_or((0, 0));
        (stamp == self.gen, dense)
    }
}

thread_local! {
    // Per-thread scratch of [`uniform_cut`] and
    // [`assemble_topmost_front`] (neither calls the other).
    static ID_TABLE: RefCell<IdTable> = const {
        RefCell::new(IdTable { slots: Vec::new(), gen: 0 })
    };
}

/// Uniform-LOD cut at level `e` in flat canonical form: active nodes
/// ascending by id, CCW faces over node ids led by their smallest id and
/// sorted. Both the [`FrontMesh`] assembly and the network fast path
/// build from this, so the two are identical by construction (extraction
/// emits only strictly-CCW faces, which [`FrontMesh::from_parts`]
/// preserves unchanged).
/// A cross-tile fetch is the per-region fetches concatenated into one
/// [`FetchedSet`]: slot order is irrelevant (the cut sorts by id) and of
/// several slots carrying one id the first is kept, so tiled and
/// single-store answers are bit-identical by construction. Callers must
/// pass `e` already clamped.
pub fn uniform_cut(set: &FetchedSet, roi: &Rect, e: f64) -> (Vec<PmNode>, Vec<[u32; 3]>) {
    // Dense order is ascending id (face emission relies on index order
    // agreeing with id order). Sort an (id, slot) permutation instead of
    // moving whole records.
    let mut perm: Vec<u64> = set
        .nodes
        .iter()
        .enumerate()
        .filter(|(_, n)| n.interval().contains(e) && roi.contains(n.pos.xy()))
        .map(|(i, n)| (u64::from(n.id) << 32) | i as u64)
        .collect();
    perm.sort_unstable();
    perm.dedup_by_key(|p| *p >> 32);
    ID_TABLE.with(|table| {
        let table = &mut *table.borrow_mut();
        // `perm` is sorted by id: the last entry carries the largest.
        table.begin(perm.last().map_or(0, |&p| (p >> 32) as usize + 1));
        for (k, &p) in perm.iter().enumerate() {
            table.set((p >> 32) as u32, k as u32);
        }
        let slot = |p: u64| (p & 0xFFFF_FFFF) as usize;
        let pos: Vec<Vec2> = perm.iter().map(|&p| set.nodes[slot(p)].pos.xy()).collect();
        let mut adj = DenseAdjacency::with_capacity(
            perm.len(),
            perm.iter().map(|&p| set.conn_of(slot(p)).len()).sum(),
        );
        for &p in &perm {
            // Every active record's interval contains `e` (the filter
            // above), so neighbour membership in the active set is the
            // whole test.
            adj.push_probed(set.conn_of(slot(p)), |c| table.probe(c));
        }
        let nodes: Vec<PmNode> = perm.iter().map(|&p| set.nodes[slot(p)]).collect();
        let mut faces = extract_faces_dense_owned(&pos, adj);
        sort_anchor_groups(&mut faces);
        for f in &mut faces {
            *f = f.map(|v| nodes[v as usize].id);
        }
        (nodes, faces)
    })
}

/// Extraction emits each face at its smallest corner, grouped by that
/// corner ascending; ordering every group by its other two corners makes
/// the whole list sorted, i.e. already in the wire's canonical order
/// (`dm_net::canonical_flat` then meets sorted input). Dense indices
/// ascend with ids, so the order survives the mapping back to ids.
fn sort_anchor_groups(faces: &mut [[u32; 3]]) {
    let mut start = 0;
    while start < faces.len() {
        let anchor = faces[start][0];
        let len = faces[start..].iter().take_while(|f| f[0] == anchor).count();
        faces[start..start + len].sort_unstable();
        start += len;
    }
}

/// Cut a rectangle into `n` equal strips perpendicular to the dominant
/// LOD-gradient axis (ablation helper for fixed multi-base plans).
pub fn equal_strips(roi: &Rect, n: usize, along_x: bool) -> Vec<Rect> {
    let n = n.max(1);
    (0..n)
        .map(|i| {
            let t0 = i as f64 / n as f64;
            let t1 = (i + 1) as f64 / n as f64;
            if along_x {
                Rect::new(
                    Vec2::new(roi.min.x + t0 * roi.width(), roi.min.y),
                    Vec2::new(roi.min.x + t1 * roi.width(), roi.max.y),
                )
            } else {
                Rect::new(
                    Vec2::new(roi.min.x, roi.min.y + t0 * roi.height()),
                    Vec2::new(roi.max.x, roi.min.y + t1 * roi.height()),
                )
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::DmBuildOptions;
    use crate::unwrap_clean;
    use dm_mtm::builder::{build_pm, PmBuild, PmBuildConfig};
    use dm_storage::{BufferPool, MemStore};
    use dm_terrain::{generate, TriMesh};
    use std::sync::Arc;

    fn setup(n: usize, seed: u64) -> (TriMesh, PmBuild, DirectMeshDb) {
        let hf = generate::fractal_terrain(n, n, seed);
        let mesh = TriMesh::from_heightfield(&hf);
        let original = mesh.clone();
        let pm = build_pm(mesh, &PmBuildConfig::default());
        let pool = Arc::new(BufferPool::new(Box::new(MemStore::new()), 4096));
        let db = DirectMeshDb::build(pool, &pm, &DmBuildOptions::default());
        (original, pm, db)
    }

    #[test]
    fn vi_query_full_roi_matches_replay() {
        let (original, pm, db) = setup(9, 11);
        let h = &pm.hierarchy;
        for frac in [0.05, 0.3, 0.8] {
            let e = h.e_max * frac;
            let res = unwrap_clean(db.try_vi_query(&db.bounds, e));
            let replay = h.replay_mesh(&original, e);
            assert_eq!(
                res.points,
                replay.num_live_vertices(),
                "point count at {frac}·e_max"
            );
            assert_eq!(
                res.front.num_triangles(),
                replay.num_live_triangles(),
                "triangle count at {frac}·e_max"
            );
            let (mesh, _) = res.front.to_trimesh();
            mesh.validate().expect("VI mesh valid");
        }
    }

    #[test]
    fn vi_query_sub_roi_returns_cut_restricted() {
        let (_, pm, db) = setup(13, 5);
        let h = &pm.hierarchy;
        let e = h.e_max * 0.2;
        let roi = Rect::centered_square(db.bounds.center(), db.bounds.width() * 0.4);
        let res = unwrap_clean(db.try_vi_query(&roi, e));
        // Exactly the cut members inside the ROI.
        let expected: usize = h
            .uniform_cut(e)
            .iter()
            .filter(|&&id| roi.contains(h.node(id).pos.xy()))
            .count();
        assert_eq!(res.points, expected);
        assert!(res.fetched_records >= res.points);
        // All triangles stay inside the ROI.
        for t in res.front.triangles() {
            for v in t {
                assert!(roi.contains(res.front.node(v).unwrap().pos.xy()));
            }
        }
    }

    #[test]
    fn vi_fetch_is_far_smaller_than_whole_dataset() {
        let (_, _, db) = setup(17, 7);
        let e = db.e_max * 0.1;
        let res = unwrap_clean(db.try_vi_query(&db.bounds, e));
        assert!(
            res.fetched_records < db.n_records / 2,
            "query plane must not fetch most of the dataset ({} of {})",
            res.fetched_records,
            db.n_records
        );
    }

    #[test]
    fn vd_single_base_reaches_target_everywhere() {
        let (_, _, db) = setup(17, 9);
        let q = test_query(&db, 0.5);
        let res = unwrap_clean(db.try_vd_single_base(&q, BoundaryPolicy::Skip));
        for id in res.front.vertex_ids() {
            let n = res.front.node(id).unwrap();
            assert!(
                n.is_leaf() || n.e_lo <= q.target.required(n.pos.x, n.pos.y) + 1e-12,
                "vertex {id} coarser than the plane allows"
            );
        }
        let (mesh, _) = res.front.to_trimesh();
        mesh.validate().expect("SB mesh valid");
        assert_eq!(res.cubes.len(), 1);
    }

    #[test]
    fn vd_single_base_full_roi_no_missing_records() {
        let (_, _, db) = setup(17, 13);
        let q = test_query(&db, 0.4);
        let res = unwrap_clean(db.try_vd_single_base(&q, BoundaryPolicy::Skip));
        // The ROI covers the whole terrain: every record the refinement
        // can need lies inside the cube.
        assert_eq!(res.refine.missing_records, 0);
        assert_eq!(res.boundary_fetches, 0);
    }

    #[test]
    fn vd_multi_base_fetches_fewer_records() {
        let (_, _, db) = setup(17, 15);
        let q = test_query(&db, 0.8);
        let sb = unwrap_clean(db.try_vd_single_base(&q, BoundaryPolicy::Skip));
        let mb = unwrap_clean(db.try_vd_multi_base(&q, BoundaryPolicy::Skip, 8));
        assert!(!mb.cubes.is_empty());
        assert!(
            mb.fetched_records <= sb.fetched_records,
            "multi-base must not fetch more ({} vs {})",
            mb.fetched_records,
            sb.fetched_records
        );
        let (mesh, _) = mb.front.to_trimesh();
        mesh.validate().expect("MB mesh valid");
    }

    #[test]
    fn vd_multi_base_mesh_close_to_single_base() {
        let (_, _, db) = setup(17, 19);
        let q = test_query(&db, 0.5);
        let sb = unwrap_clean(db.try_vd_single_base(&q, BoundaryPolicy::Skip));
        let mb = unwrap_clean(db.try_vd_multi_base(&q, BoundaryPolicy::Skip, 8));
        let sb_ids: std::collections::HashSet<u32> = sb.front.vertex_ids().collect();
        let mb_ids: std::collections::HashSet<u32> = mb.front.vertex_ids().collect();
        let inter = sb_ids.intersection(&mb_ids).count();
        let union = sb_ids.union(&mb_ids).count();
        // Small fronts make the staircase-boundary differences loom large
        // in relative terms; the integration tests check bigger datasets.
        assert!(
            inter as f64 / union as f64 > 0.8,
            "MB front diverges from SB: {inter}/{union}"
        );
    }

    #[test]
    fn plan_agrees_with_the_cost_model() {
        let (_, _, db) = setup(33, 23);
        let shallow = test_query(&db, 0.15);
        let steep = test_query(&db, 0.9);
        let p1 = db.plan_multi_base(&shallow, 16).len();
        let p2 = db.plan_multi_base(&steep, 16).len();
        assert!(
            p2 >= p1,
            "steeper plane should not plan fewer strips ({p2} vs {p1})"
        );
        // The planner must return the power-of-two plan with the least
        // predicted cost (union page count + per-extra-cube overhead).
        for q in [&shallow, &steep] {
            let cube_of = |r: &Rect| {
                let (lo, hi) = q.e_range(r);
                Box3::prism(*r, lo, db.clamp_e(hi))
            };
            let cost_of = |n: usize| {
                let cubes: Vec<Box3> = equal_strips(&q.roi, n, false).iter().map(cube_of).collect();
                db.cost_model().count_union(&cubes) as f64 + 3.0 * (n as f64 - 1.0)
            };
            let best_n = [1usize, 2, 4, 8, 16]
                .into_iter()
                .min_by(|&a, &b| cost_of(a).total_cmp(&cost_of(b)))
                .unwrap();
            let planned = db.plan_multi_base(q, 16).len();
            assert_eq!(planned, best_n, "planner disagrees with the predictor");
        }
    }

    #[test]
    fn fetch_on_miss_policy_fetches_border_records() {
        let (_, _, db) = setup(17, 27);
        // A small interior ROI with a fine target: the border will need
        // out-of-ROI wings.
        let roi = Rect::centered_square(db.bounds.center(), db.bounds.width() * 0.3);
        let q = VdQuery {
            roi,
            target: PlaneTarget {
                origin: roi.min,
                dir: Vec2::new(0.0, 1.0),
                e_min: db.e_max * 0.01,
                slope: db.e_max * 0.5 / roi.height().max(1.0),
                e_max: db.e_max * 0.5,
            },
        };
        let skip = unwrap_clean(db.try_vd_single_base(&q, BoundaryPolicy::Skip));
        let fetch = unwrap_clean(db.try_vd_single_base(&q, BoundaryPolicy::FetchOnMiss));
        assert!(
            fetch.front.num_vertices() >= skip.front.num_vertices(),
            "fetch-on-miss can only refine further"
        );
        // The policies agree when nothing is missing; otherwise the
        // fetching run did extra point lookups.
        if skip.refine.missing_records > 0 {
            assert!(fetch.boundary_fetches > 0);
        }
    }

    /// A store whose point lookups fail for every id above `ceiling`.
    struct FailingAbove<'a> {
        db: &'a DirectMeshDb,
        ceiling: u32,
    }

    impl RecordStore for FailingAbove<'_> {
        fn clamp_e(&self, e: f64) -> f64 {
            self.db.clamp_e(e)
        }

        fn fetch(
            &self,
            boxes: &[Box3],
            report: &mut IntegrityReport,
            counters: &mut FetchCounters,
        ) -> StorageResult<FetchedSet> {
            RecordStore::fetch(self.db, boxes, report, counters)
        }

        fn try_fetch_node_by_id(&self, id: u32) -> StorageResult<Option<PmNode>> {
            if id > self.ceiling {
                return Err(dm_storage::StorageError::Io(std::io::Error::other(
                    "lookup above the ceiling",
                )));
            }
            self.db.try_fetch_node_by_id(id)
        }

        fn union_page_counts(&self, roi: &Rect, plans: &[Vec<Box3>]) -> StorageResult<Vec<usize>> {
            self.db.union_page_counts(roi, plans)
        }
    }

    /// A source that forwards every lookup but does not claim to be
    /// complete, so its wing walks run to a root.
    struct Incomplete<'s>(&'s mut dyn RecordSource);

    impl RecordSource for Incomplete<'_> {
        fn fetch(&mut self, id: u32) -> Option<PmNode> {
            self.0.fetch(id)
        }
    }

    /// The one answer the id ceiling may change: a store that cannot
    /// look up the ancestors above the seed front's largest id. With the
    /// ceiling, `FetchOnMiss` never asks for them, so the query answers
    /// like the healthy store and loses no point; a walk that still ran
    /// to a root hit the failed lookup and blocked the split.
    #[test]
    fn failed_lookups_above_the_ceiling_cost_nothing() {
        let (_, _, db) = setup(17, 3);
        let roi = Rect::centered_square(db.bounds.center(), db.bounds.width() * 0.5);
        let q = VdQuery {
            roi,
            target: PlaneTarget {
                origin: roi.min,
                dir: Vec2::new(0.0, 1.0),
                e_min: db.e_max * 0.01,
                slope: db.e_max * 0.2 / roi.height().max(1.0),
                e_max: db.e_max * 0.2,
            },
        };
        let policy = BoundaryPolicy::FetchOnMiss;
        let mut counters = FetchCounters::default();
        let (healthy, report) = vd_with_strips(&db, &q, policy, &[roi], &mut counters).unwrap();
        assert!(report.is_clean());

        let mut report = IntegrityReport::default();
        let set = RecordStore::fetch(&db, &healthy.cubes, &mut report, &mut counters).unwrap();
        let mut all = IndexedSet::default();
        all.absorb(&set);
        let seed = assemble_topmost_front(&all, &roi);
        let ceiling = seed.vertex_ids().max().unwrap();
        let failing = FailingAbove { db: &db, ceiling };

        let (got, report) = vd_with_strips(&failing, &q, policy, &[roi], &mut counters).unwrap();
        assert!(report.is_clean(), "no lookup above the ceiling was made");
        assert_eq!(report.points_lost, 0);
        let sorted = |f: &FrontMesh| {
            let mut ids: Vec<u32> = f.vertex_ids().collect();
            ids.sort_unstable();
            ids
        };
        assert_eq!(sorted(&got.front), sorted(&healthy.front));
        let healthy_faces: Vec<[u32; 3]> = healthy.front.triangles().collect();
        let got_faces: Vec<[u32; 3]> = got.front.triangles().collect();
        assert_eq!(got_faces, healthy_faces);
        assert_eq!(got.refine, healthy.refine);
        assert_eq!(got.boundary_fetches, healthy.boundary_fetches);

        // The same run through a source that walks to the roots.
        let mut front = seed;
        let mut report = IntegrityReport::default();
        let mut source = StoreSource {
            store: &failing,
            base: &all,
            prev: FxHashMap::default(),
            touched: FxHashMap::default(),
            policy,
            misses_fetched: 0,
            report: &mut report,
            errored: false,
        };
        let stats = refine(&mut front, &mut Incomplete(&mut source), &q.target);
        assert!(
            report.points_lost > 0,
            "the full walk met the failed lookup"
        );
        assert_ne!(stats, healthy.refine, "and blocked a split");
        assert_ne!(sorted(&front), sorted(&healthy.front));
    }

    #[test]
    fn viewpoint_query_construction() {
        let (_, _, db) = setup(17, 29);
        let eye = Vec2::new(db.bounds.min.x, db.bounds.center().y);
        let q = VdQuery::from_viewpoint(db.bounds, eye, 0.5, db.e_max);
        // Requirement grows with distance from the eye.
        use dm_mtm::refine::LodTarget;
        let near = q.target.required(db.bounds.min.x + 1.0, eye.y);
        let far = q.target.required(db.bounds.max.x, eye.y);
        assert!(near < far, "near {near} !< far {far}");
        assert!(q.target.e_max <= db.e_max);
        // An eye inside the ROI has distance 0 to it.
        let q2 = VdQuery::from_viewpoint(db.bounds, db.bounds.center(), 0.5, db.e_max);
        assert!(q2.target.e_min <= q2.target.e_max);
        // And the query actually runs.
        let res = unwrap_clean(db.try_vd_single_base(&q, BoundaryPolicy::Skip));
        assert!(res.front.num_vertices() > 0);
        let (mesh, _) = res.front.to_trimesh();
        mesh.validate().unwrap();
    }

    #[test]
    fn elevation_stats_match_vi_query() {
        let (_, _, db) = setup(17, 31);
        let e = db.e_for_points_fraction(0.2);
        let roi = Rect::centered_square(db.bounds.center(), db.bounds.width() * 0.6);
        let stats = db.elevation_stats(&roi, e);
        let res = unwrap_clean(db.try_vi_query(&roi, e));
        assert_eq!(stats.points, res.points);
        let (zmin, zmax) = res
            .front
            .vertex_ids()
            .map(|v| res.front.node(v).unwrap().pos.z)
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), z| {
                (lo.min(z), hi.max(z))
            });
        assert_eq!(stats.min_z, zmin);
        assert_eq!(stats.max_z, zmax);
        assert!(stats.mean_z >= zmin && stats.mean_z <= zmax);
        // Same I/O as the mesh query (aggregation is free).
        db.try_cold_start().unwrap();
        let _ = db.elevation_stats(&roi, e);
        let agg_da = db.disk_accesses();
        db.try_cold_start().unwrap();
        let _ = unwrap_clean(db.try_vi_query(&roi, e));
        assert_eq!(agg_da, db.disk_accesses());
    }

    fn test_query(db: &DirectMeshDb, angle_frac: f64) -> VdQuery {
        let roi = db.bounds;
        let e_min = db.e_max * 0.02;
        let run = roi.height().max(1.0);
        let theta_max = (db.e_max / run).atan();
        let slope = (theta_max * angle_frac).tan();
        VdQuery {
            roi,
            target: PlaneTarget {
                origin: roi.min,
                dir: Vec2::new(0.0, 1.0),
                e_min,
                slope,
                e_max: (e_min + slope * run).min(db.e_max),
            },
        }
    }
}
