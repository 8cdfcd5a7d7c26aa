//! Incremental viewpoint navigation — an extension beyond the paper.
//!
//! The paper evaluates isolated queries over a cold buffer. A real
//! terrain walkthrough issues a *sequence* of viewpoint-dependent queries
//! from nearby viewpoints; almost all data of frame *n* is still valid in
//! frame *n + 1*. [`NavigationSession`] exploits that overlap at the
//! query level, not just the buffer level:
//!
//! 1. **Delta planning.** The session remembers the query cubes of the
//!    previous frame. Each new cube is reduced by box subtraction
//!    ([`dm_geom::subtract_boxes`]) to the parts not covered last frame,
//!    and only those slivers hit the R\*-tree. For a smoothly moving
//!    window the per-frame I/O drops from `O(ROI)` to `O(ΔROI)`.
//! 2. **Working set.** Fetched records live in a session cache, one
//!    arena slot per node id. Each frame rebuilds it: the records whose
//!    indexed vertical segment still meets the new cubes, then the delta
//!    fetch — by construction the cache then equals exactly what a cold
//!    multi-base query would have fetched, so results are identical.
//! 3. **Per-frame reconstruction.** Every frame seeds its front from
//!    the working set with the cold path's own `assemble_topmost_front`
//!    and refines it to the query plane — the same code a fresh
//!    multi-base query runs over the same records, so a frame is a pure
//!    function of (working set, query) and cannot drift with the
//!    session's past. Reconstruction CPU stays `O(ROI)` while all I/O is
//!    `O(ΔROI)`. (The paper observes that reconstruction cost is
//!    negligible next to retrieval; a seed front patched in place across
//!    frames cost 2.3× this rebuild — DESIGN.md §8.)
//! 4. **Boundary nodes.** Records that refinement falls through for
//!    under [`BoundaryPolicy::FetchOnMiss`] are kept from one frame to
//!    the next — only the ones the latest frame touched, so the cache is
//!    bounded by one frame's boundary — and cost an id-directory point
//!    lookup only on first touch.
//!
//! Per-frame disk accesses are attributed with the storage layer's
//! thread-local read counter, so concurrent sessions on one shared pool
//! don't inflate each other's [`FrameStats`].

use dm_geom::{subtract_boxes, Box3, Rect, Vec2};
use dm_mtm::refine::{FrontMesh, RefineStats};
use dm_mtm::PmNode;
use dm_storage::StorageResult;
use fxhash::FxHashMap;

use crate::query::{
    assemble_topmost_front_into, refine_accounted, staircase, BoundaryPolicy, RecordStore, VdQuery,
};
use crate::record::IndexedSet;
use crate::store::{DirectMeshDb, FetchCounters, IntegrityReport};

/// Box-subtraction fragmentation cap: beyond this many pieces the delta
/// planner falls back to refetching the whole cube (correct, just
/// cheaper to execute as one range query than as many slivers).
const MAX_DELTA_PIECES: usize = 48;

/// How one frame was executed.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PlanDecision {
    /// Whether the frame executed as a full requery of its cubes.
    pub chose_full: bool,
}

/// Statistics of one navigation step.
#[derive(Clone, Debug, Default)]
pub struct FrameStats {
    /// Logical disk accesses by this frame (this thread only).
    pub disk_accesses: u64,
    /// Records fetched by this frame's (delta) range queries.
    pub fetched_records: usize,
    /// Records fully decoded while scanning heap pages this frame.
    pub decoded_records: u64,
    /// Record headers examined during page scans (no allocation; the
    /// gap to `decoded_records` is what the borrowing decode saves).
    pub examined_records: u64,
    /// Candidate heap pages scanned by this frame's range queries.
    pub pages_scanned: u64,
    /// Seed vertices of this frame's front that the previous frame's
    /// seed front did not have.
    pub seeds_added: usize,
    /// Seed vertices of the previous frame's front that this frame's
    /// seed front no longer has.
    pub seeds_removed: usize,
    /// Refinement counters.
    pub refine: RefineStats,
    /// Id-directory point lookups this frame's refinement made for records
    /// outside the working set ([`BoundaryPolicy::FetchOnMiss`]); nodes
    /// the previous frame already touched cost none.
    pub boundary_fetches: usize,
    /// Front size after the frame.
    pub vertices: usize,
    /// How this frame was executed.
    pub plan: PlanDecision,
}

/// A stateful walkthrough over one Direct Mesh database.
pub struct NavigationSession<'a> {
    db: &'a DirectMeshDb,
    policy: BoundaryPolicy,
    max_cubes: usize,
    /// Every frame a full requery of its cubes instead of a ΔROI fetch.
    full: bool,
    /// The refined mesh of the last frame; the next frame rebuilds it in
    /// place.
    front: FrontMesh,
    /// Session record cache — always exactly the union fetch set of the
    /// last frame's cubes.
    working: IndexedSet,
    /// The working set's other buffer: the next frame's cache is built
    /// here, then the two swap.
    spare: IndexedSet,
    /// The query cubes executed last frame (delta-planning baseline).
    prev_cubes: Vec<Box3>,
    /// Seed ids of the last frame's front, ascending (what
    /// [`FrameStats::seeds_added`] / `seeds_removed` are counted against).
    prev_seeds: Vec<u32>,
    /// Out-of-working-set nodes the last frame's refinement touched.
    boundary: FxHashMap<u32, PmNode>,
    /// The ΔROI piece list, reused across frames.
    pieces: Vec<Box3>,
}

impl<'a> NavigationSession<'a> {
    /// Start a session; the first `try_move_to` pays the full (cold) cost.
    pub fn new(db: &'a DirectMeshDb, policy: BoundaryPolicy) -> Self {
        NavigationSession {
            db,
            policy,
            max_cubes: 16,
            full: false,
            front: FrontMesh::default(),
            working: IndexedSet::default(),
            spare: IndexedSet::default(),
            prev_cubes: Vec::new(),
            prev_seeds: Vec::new(),
            boundary: FxHashMap::default(),
            pieces: Vec::new(),
        }
    }

    /// Cap on the multi-base strip decomposition (default 16 cubes).
    pub fn with_max_cubes(mut self, max_cubes: usize) -> Self {
        self.max_cubes = max_cubes.max(1);
        self
    }

    /// Disable incremental reuse: every frame runs a cold-style
    /// multi-base query (the baseline the benchmarks compare against).
    /// Both strategies produce byte-identical meshes; they differ only in
    /// cost.
    pub fn with_full_requery(mut self, full: bool) -> Self {
        self.full = full;
        self
    }

    /// The session's boundary policy.
    pub fn policy(&self) -> BoundaryPolicy {
        self.policy
    }

    /// The current front (mesh of the last frame).
    pub fn front(&self) -> &FrontMesh {
        &self.front
    }

    /// Boundary nodes kept for the next frame: exactly those the last
    /// frame's refinement needed from outside the working set.
    pub fn boundary_nodes(&self) -> usize {
        self.boundary.len()
    }

    /// Advance to a new viewpoint-dependent query and return per-frame
    /// statistics; the reconstructed mesh is available via
    /// [`Self::front`]. Unreadable heap pages degrade the frame (details in the [`IntegrityReport`]) instead of failing it;
    /// `Err` means an index descent failed and the session state is
    /// unchanged from the previous frame.
    pub fn try_move_to(&mut self, q: &VdQuery) -> StorageResult<(FrameStats, IntegrityReport)> {
        let reads_before = dm_storage::thread_reads();
        let mut report = IntegrityReport::default();
        let mut counters = FetchCounters::default();

        // Plan this frame's strips and cubes (same planner as a cold
        // multi-base query, so coverage is identical).
        let strips = self.db.plan_multi_base(q, self.max_cubes);
        let new_cubes = staircase(self.db, q, &strips);

        // Execute the frame as ONE batched fetch: a single index descent
        // for all boxes, every candidate heap page scanned once with its
        // MBR pre-filtering the box list. A full requery fetches the new
        // cubes; an incremental frame only the parts of them that the
        // previous frame's cubes did not cover. All fetches complete
        // before any session state changes, so an `Err` leaves the
        // session consistent.
        let exec: &[Box3] = if self.full {
            &new_cubes
        } else {
            self.pieces.clear();
            for cube in &new_cubes {
                self.pieces
                    .extend(subtract_boxes(cube, &self.prev_cubes, MAX_DELTA_PIECES));
            }
            &self.pieces
        };
        let fresh = self.db.fetch(exec, &mut report, &mut counters)?;

        // Nothing below can fail: from here on the session's buffers are
        // recycled. Working-set update, into the spare arena: the records
        // whose indexed segment still meets a new cube, then the delta
        // fetch. The cache now equals the union fetch set of a cold query
        // over `new_cubes`.
        let db = self.db;
        self.spare.clear();
        self.spare.absorb(self.working.set(), |n| {
            let seg = db.record_segment(n);
            new_cubes.iter().any(|c| seg.intersects(c))
        });
        self.spare.absorb(&fresh, |_| true);
        std::mem::swap(&mut self.working, &mut self.spare);
        self.prev_cubes = new_cubes;

        // Result mesh: the cold path's seed front over the working set,
        // rebuilt into last frame's front and refined to the query plane
        // reading records straight out of the working set (no per-frame
        // node-map rebuild). Boundary fetches stay out of the working
        // set; the ones this frame touched are kept for the next.
        let front = &mut self.front;
        assemble_topmost_front_into(&self.working, &q.roi, front);
        let mut seeds: Vec<u32> = front.vertex_ids().collect();
        seeds.sort_unstable();
        let (seeds_added, seeds_removed) = sorted_diff_counts(&seeds, &self.prev_seeds);
        self.prev_seeds = seeds;
        let (refine, boundary_fetches) = refine_accounted(
            front,
            self.db,
            &self.working,
            &mut self.boundary,
            self.policy,
            q,
            &mut report,
        );
        let stats = FrameStats {
            disk_accesses: dm_storage::thread_reads() - reads_before,
            fetched_records: fresh.len(),
            decoded_records: counters.records_decoded,
            examined_records: counters.records_examined,
            pages_scanned: counters.pages_scanned,
            seeds_added,
            seeds_removed,
            refine,
            boundary_fetches,
            vertices: front.num_vertices(),
            plan: PlanDecision {
                chose_full: self.full,
            },
        };
        Ok((stats, report))
    }

    /// Forget all session state (the pool stays warm; use a fresh pool
    /// or `DirectMeshDb::try_cold_start` to measure cold costs again).
    pub fn reset(&mut self) {
        self.front = FrontMesh::default();
        self.working.clear();
        self.prev_cubes.clear();
        self.prev_seeds.clear();
        self.boundary = FxHashMap::default();
    }
}

/// How many ids of ascending `new` are missing from ascending `old`, and
/// the other way round.
fn sorted_diff_counts(new: &[u32], old: &[u32]) -> (usize, usize) {
    let (mut i, mut j, mut common) = (0, 0, 0);
    while i < new.len() && j < old.len() {
        match new[i].cmp(&old[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                common += 1;
                i += 1;
                j += 1;
            }
        }
    }
    (new.len() - common, old.len() - common)
}

/// Convenience: a straight flight path of `frames` windows sliding from
/// the south edge to the north edge of `bounds`.
pub fn flight_path(bounds: &Rect, window_frac: f64, frames: usize) -> Vec<Rect> {
    let window = bounds.height() * window_frac;
    (0..frames)
        .map(|f| {
            let t = if frames > 1 {
                f as f64 / (frames - 1) as f64
            } else {
                0.0
            };
            let y0 = bounds.min.y + (bounds.height() - window) * t;
            Rect::new(
                dm_geom::Vec2::new(bounds.min.x, y0),
                dm_geom::Vec2::new(bounds.max.x, y0 + window),
            )
        })
        .collect()
}

/// A general flight path: `frames` square windows of side `window`
/// whose centers slide along the polyline through `waypoints` at
/// constant arc-length speed. Waypoints may turn sharply or revisit
/// earlier territory — exactly the motions that distinguish delta
/// planning from a simple sliding window.
pub fn waypoint_path(waypoints: &[Vec2], window: f64, frames: usize) -> Vec<Rect> {
    assert!(!waypoints.is_empty(), "waypoint_path needs waypoints");
    let mut cum = vec![0.0];
    for w in waypoints.windows(2) {
        cum.push(cum.last().unwrap() + w[0].dist(w[1]));
    }
    let total = *cum.last().unwrap();
    (0..frames)
        .map(|f| {
            let t = if frames > 1 {
                f as f64 / (frames - 1) as f64
            } else {
                0.0
            };
            let s = t * total;
            let center = if total <= 0.0 || waypoints.len() == 1 {
                waypoints[0]
            } else {
                let i = cum
                    .windows(2)
                    .position(|w| s <= w[1])
                    .unwrap_or(waypoints.len() - 2);
                let seg = cum[i + 1] - cum[i];
                let u = if seg > 0.0 { (s - cum[i]) / seg } else { 0.0 };
                waypoints[i] + (waypoints[i + 1] - waypoints[i]) * u
            };
            Rect::centered_square(center, window)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::DmBuildOptions;
    use crate::unwrap_clean;
    use dm_mtm::builder::{build_pm, PmBuildConfig};
    use dm_mtm::PlaneTarget;
    use dm_storage::{BufferPool, FaultConfig, FaultInjector, MemStore};
    use dm_terrain::{generate, TriMesh};
    use std::sync::Arc;

    fn db() -> DirectMeshDb {
        let hf = generate::fractal_terrain(33, 33, 77);
        let pm = build_pm(TriMesh::from_heightfield(&hf), &PmBuildConfig::default());
        let pool = Arc::new(BufferPool::new(Box::new(MemStore::new()), 4096));
        DirectMeshDb::build(pool, &pm, &DmBuildOptions::default())
    }

    // Viewer at the leading (north) edge of the sliding window, looking
    // back: near the viewer fine, far south coarse.
    fn query_at(db: &DirectMeshDb, roi: Rect) -> VdQuery {
        let e_min = db.e_max * 0.002;
        let slope = db.e_max * 0.2 / roi.height().max(1e-9);
        VdQuery {
            roi,
            target: PlaneTarget {
                origin: dm_geom::Vec2::new(roi.min.x, roi.max.y),
                dir: dm_geom::Vec2::new(0.0, -1.0),
                e_min,
                slope,
                e_max: e_min + slope * roi.height(),
            },
        }
    }

    fn face_set(front: &FrontMesh) -> std::collections::BTreeSet<[u32; 3]> {
        front
            .triangles()
            .map(|mut t| {
                let k = t.iter().enumerate().min_by_key(|(_, &v)| v).unwrap().0;
                t.rotate_left(k);
                t
            })
            .collect()
    }

    #[test]
    fn later_frames_are_cheaper_than_the_first() {
        let db = db();
        let mut session = NavigationSession::new(&db, BoundaryPolicy::FetchOnMiss);
        db.try_cold_start().unwrap();
        let path = flight_path(&db.bounds, 0.5, 6);
        let mut costs = Vec::new();
        let mut lookups = Vec::new();
        for roi in &path {
            let stats = unwrap_clean(session.try_move_to(&query_at(&db, *roi)));
            costs.push(stats.disk_accesses);
            lookups.push(stats.boundary_fetches);
            assert!(stats.vertices > 0);
        }
        let later: u64 = costs[1..].iter().sum::<u64>() / (costs.len() - 1) as u64;
        assert!(
            later < costs[0].max(1),
            "warm frames ({later}) should undercut the first ({})",
            costs[0]
        );
        // The boundary kept from one frame answers the same frame again
        // without a single point lookup.
        assert!(lookups[0] > 0, "the first frame looks its boundary up");
        let again = unwrap_clean(session.try_move_to(&query_at(&db, path[path.len() - 1])));
        assert_eq!(again.boundary_fetches, 0);
    }

    #[test]
    fn frames_produce_valid_meshes() {
        let db = db();
        let mut session = NavigationSession::new(&db, BoundaryPolicy::FetchOnMiss);
        for roi in flight_path(&db.bounds, 0.45, 5) {
            let q = query_at(&db, roi);
            let stats = unwrap_clean(session.try_move_to(&q));
            assert!(stats.vertices > 0);
            let (mesh, _) = session.front().to_trimesh();
            mesh.validate().expect("frame mesh valid");
        }
    }

    #[test]
    fn session_matches_fresh_query_result() {
        let db = db();
        let mut session = NavigationSession::new(&db, BoundaryPolicy::FetchOnMiss);
        let path = flight_path(&db.bounds, 0.5, 4);
        for roi in &path {
            unwrap_clean(session.try_move_to(&query_at(&db, *roi)));
            // Every frame, not just the last: same vertices, same faces.
            let q = query_at(&db, *roi);
            let fresh = unwrap_clean(db.try_vd_multi_base(&q, BoundaryPolicy::FetchOnMiss, 16));
            let a: std::collections::HashSet<u32> = session.front().vertex_ids().collect();
            let b: std::collections::HashSet<u32> = fresh.front.vertex_ids().collect();
            assert_eq!(a, b, "same query, same answer, warm or cold");
            assert_eq!(
                face_set(session.front()),
                face_set(&fresh.front),
                "same faces, warm or cold"
            );
        }
    }

    #[test]
    fn seed_counts_are_a_diff_against_the_previous_frame() {
        assert_eq!(sorted_diff_counts(&[1, 3, 5, 8], &[2, 3, 8, 9, 10]), (2, 3));
        assert_eq!(sorted_diff_counts(&[], &[4]), (0, 1));
        let db = db();
        let mut session = NavigationSession::new(&db, BoundaryPolicy::FetchOnMiss);
        let path = flight_path(&db.bounds, 0.5, 4);
        let first = unwrap_clean(session.try_move_to(&query_at(&db, path[0])));
        assert!(first.seeds_added > 0, "the first frame adds every seed");
        assert_eq!(first.seeds_removed, 0);
        let again = unwrap_clean(session.try_move_to(&query_at(&db, path[0])));
        assert_eq!((again.seeds_added, again.seeds_removed), (0, 0));
        let moved = unwrap_clean(session.try_move_to(&query_at(&db, path[3])));
        assert!(moved.seeds_added > 0 && moved.seeds_removed > 0);
        assert_eq!(
            first.seeds_added + moved.seeds_added - moved.seeds_removed,
            session.prev_seeds.len()
        );
    }

    /// `try_move_to`'s `Err` promise under recycled buffers: a frame
    /// whose index descent fails leaves the front, the working set and
    /// the boundary as they were, so the next frame answers like a
    /// session that never saw the failure.
    #[test]
    fn a_failed_frame_leaves_the_session_unchanged() {
        let hf = generate::fractal_terrain(33, 33, 77);
        let pm = build_pm(TriMesh::from_heightfield(&hf), &PmBuildConfig::default());
        let build = |cfg: FaultConfig| {
            let inj = FaultInjector::new(Box::new(MemStore::new()), cfg);
            let counters = inj.counters();
            let pool = Arc::new(BufferPool::new(Box::new(inj), 4096));
            (
                DirectMeshDb::build(pool, &pm, &DmBuildOptions::default()),
                counters,
            )
        };
        let (healthy, reads) = build(FaultConfig::new(1));
        let path = flight_path(&healthy.bounds, 0.5, 4);
        let (home, away) = (query_at(&healthy, path[0]), query_at(&healthy, path[3]));
        let mut clean = NavigationSession::new(&healthy, BoundaryPolicy::FetchOnMiss);
        unwrap_clean(clean.try_move_to(&home));

        // The same store on a device that dies after the reads of the
        // build and the first frame.
        let (db, _) = build(FaultConfig::new(1).with_fail_reads_after(reads.reads()));
        let mut session = NavigationSession::new(&db, BoundaryPolicy::FetchOnMiss);
        unwrap_clean(session.try_move_to(&home));
        let snapshot = |s: &NavigationSession| {
            (
                face_set(s.front()),
                s.front().num_vertices(),
                s.working.set().nodes.clone(),
                s.prev_cubes.clone(),
                s.prev_seeds.clone(),
                s.boundary_nodes(),
            )
        };
        let before = snapshot(&session);
        // An empty pool: the next descent must read, and cannot.
        db.try_cold_start().unwrap();
        assert!(session.try_move_to(&away).is_err());
        assert!(
            snapshot(&session) == before,
            "a failed frame changed the session"
        );

        // Back home: the frame needs no read, and answers as if the
        // failure never happened.
        let (got, report) = session
            .try_move_to(&home)
            .expect("a frame that reads nothing");
        assert!(report.is_clean());
        let want = unwrap_clean(clean.try_move_to(&home));
        assert_eq!(
            (got.refine, got.vertices, got.boundary_fetches),
            (want.refine, want.vertices, want.boundary_fetches)
        );
        assert_eq!(
            (got.seeds_added, got.seeds_removed, got.fetched_records),
            (want.seeds_added, want.seeds_removed, want.fetched_records)
        );
        assert_eq!(face_set(session.front()), face_set(clean.front()));
        let ids = |s: &NavigationSession| {
            let mut ids: Vec<u32> = s.front().vertex_ids().collect();
            ids.sort_unstable();
            ids
        };
        assert_eq!(ids(&session), ids(&clean));
    }

    #[test]
    fn small_shift_fetches_strictly_less_than_a_cold_requery() {
        let db = db();
        let mut session = NavigationSession::new(&db, BoundaryPolicy::FetchOnMiss);
        let path = flight_path(&db.bounds, 0.5, 12); // small steps
        unwrap_clean(session.try_move_to(&query_at(&db, path[0])));
        let s1 = unwrap_clean(session.try_move_to(&query_at(&db, path[1])));
        let fresh = unwrap_clean(db.try_vd_multi_base(
            &query_at(&db, path[1]),
            BoundaryPolicy::FetchOnMiss,
            16,
        ));
        assert!(
            s1.fetched_records < fresh.fetched_records,
            "delta fetch ({}) must undercut a cold requery ({})",
            s1.fetched_records,
            fresh.fetched_records
        );
        assert!(
            (s1.decoded_records as usize) < fresh.fetched_records,
            "delta decode count ({}) must undercut a cold requery ({})",
            s1.decoded_records,
            fresh.fetched_records
        );
    }

    #[test]
    fn full_requery_mode_matches_incremental_results() {
        let db = db();
        let mut inc = NavigationSession::new(&db, BoundaryPolicy::FetchOnMiss);
        let mut full =
            NavigationSession::new(&db, BoundaryPolicy::FetchOnMiss).with_full_requery(true);
        for roi in flight_path(&db.bounds, 0.5, 6) {
            let q = query_at(&db, roi);
            let si = unwrap_clean(inc.try_move_to(&q));
            let sf = unwrap_clean(full.try_move_to(&q));
            assert!(!si.plan.chose_full && sf.plan.chose_full);
            assert_eq!(si.vertices, sf.vertices);
            assert_eq!(face_set(inc.front()), face_set(full.front()));
            assert!(si.fetched_records <= sf.fetched_records);
        }
    }

    #[test]
    fn waypoint_path_turns_and_revisits() {
        let db = db();
        let b = db.bounds;
        let w = b.width() * 0.4;
        // Out along the west edge, turn east, come back: the last leg
        // revisits territory near the first.
        let pts = [
            Vec2::new(b.min.x + w, b.min.y + w),
            Vec2::new(b.min.x + w, b.max.y - w),
            Vec2::new(b.max.x - w, b.max.y - w),
            Vec2::new(b.min.x + w, b.min.y + w),
        ];
        let path = waypoint_path(&pts, w, 9);
        assert_eq!(path.len(), 9);
        assert!(path[0].center().dist(pts[0]) < 1e-9);
        assert!(path[8].center().dist(pts[3]) < 1e-9);
        for r in &path {
            assert!((r.width() - w).abs() < 1e-9);
        }
        let mut session = NavigationSession::new(&db, BoundaryPolicy::FetchOnMiss);
        for roi in &path {
            let q = query_at(&db, *roi);
            unwrap_clean(session.try_move_to(&q));
            let fresh = unwrap_clean(db.try_vd_multi_base(&q, BoundaryPolicy::FetchOnMiss, 16));
            let a: std::collections::HashSet<u32> = session.front().vertex_ids().collect();
            let b2: std::collections::HashSet<u32> = fresh.front.vertex_ids().collect();
            assert_eq!(a, b2, "turning/revisiting path frame must match fresh");
        }
    }

    #[test]
    fn flight_path_covers_the_terrain() {
        let b = Rect::new(
            dm_geom::Vec2::new(0.0, 0.0),
            dm_geom::Vec2::new(10.0, 100.0),
        );
        let path = flight_path(&b, 0.25, 5);
        assert_eq!(path.len(), 5);
        assert!((path[0].min.y - 0.0).abs() < 1e-9);
        assert!((path[4].max.y - 100.0).abs() < 1e-9);
        for w in &path {
            assert!(b.contains_rect(w));
            assert!((w.height() - 25.0).abs() < 1e-9);
        }
    }
}
