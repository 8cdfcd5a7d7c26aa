//! Viewpoint navigation — an extension beyond the paper.
//!
//! The paper evaluates isolated queries over a cold buffer. A real
//! terrain walkthrough issues a *sequence* of viewpoint-dependent queries
//! from nearby viewpoints; almost all data of frame *n* is still valid in
//! frame *n + 1*. [`NavigationSession`] keeps that reuse in the buffer
//! pool and recycles the rest:
//!
//! 1. **One fetch a frame.** Every frame plans its strips and cubes like
//!    a cold multi-base query and fetches the whole cube set in one
//!    batched range query. Pages the previous frames read are still
//!    resident with their decoded records (the pool's sidecars), so a
//!    warm frame costs disk accesses only for the pages it newly
//!    touches — DESIGN.md §8 measures why no second, session-side record
//!    cache pays on top of that.
//! 2. **Per-frame reconstruction.** Every frame seeds its front from the
//!    fetched records with the cold path's own `assemble_topmost_front`
//!    and refines it to the query plane — the same code a fresh
//!    multi-base query runs over the same records, so a frame is a pure
//!    function of (records, query) and cannot drift with the session's
//!    past. The record arena and the front are recycled across frames.
//! 3. **Boundary nodes.** Records that refinement falls through for
//!    under [`BoundaryPolicy::FetchOnMiss`] are kept from one frame to
//!    the next — only the ones the latest frame touched, so the map is
//!    bounded by one frame's boundary — and cost an id-directory point
//!    lookup only on first touch.
//!
//! Per-frame disk accesses are attributed with the storage layer's
//! thread-local read counter, so concurrent sessions on one shared pool
//! don't inflate each other's [`FrameStats`].

use dm_geom::{Rect, Vec2};
use dm_mtm::refine::{FrontMesh, RefineStats};
use dm_mtm::PmNode;
use dm_storage::StorageResult;
use fxhash::FxHashMap;

use crate::query::{
    assemble_topmost_front_into, refine_accounted, staircase, BoundaryPolicy, RecordStore, VdQuery,
};
use crate::record::IndexedSet;
use crate::store::{DirectMeshDb, FetchCounters, IntegrityReport};

/// How one frame was executed.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PlanDecision {
    /// Whether the frame executed as a full requery of its cubes: always
    /// `true`, since every frame fetches its whole cube set.
    pub chose_full: bool,
}

/// Statistics of one navigation step.
#[derive(Clone, Debug, Default)]
pub struct FrameStats {
    /// Logical disk accesses by this frame (this thread only).
    pub disk_accesses: u64,
    /// Records fetched by this frame's range query over its cubes.
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
    /// outside its fetch ([`BoundaryPolicy::FetchOnMiss`]); nodes
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
    /// The refined mesh of the last frame; the next frame rebuilds it in
    /// place.
    front: FrontMesh,
    /// The last frame's fetch, one slot per id; the next frame refills
    /// it in place.
    records: IndexedSet,
    /// Seed ids of the last frame's front, ascending (what
    /// [`FrameStats::seeds_added`] / `seeds_removed` are counted against).
    prev_seeds: Vec<u32>,
    /// Nodes outside its fetch that the last frame's refinement touched.
    boundary: FxHashMap<u32, PmNode>,
}

impl<'a> NavigationSession<'a> {
    /// Start a session; the first `try_move_to` pays the full (cold) cost.
    pub fn new(db: &'a DirectMeshDb, policy: BoundaryPolicy) -> Self {
        NavigationSession {
            db,
            policy,
            max_cubes: 16,
            front: FrontMesh::default(),
            records: IndexedSet::default(),
            prev_seeds: Vec::new(),
            boundary: FxHashMap::default(),
        }
    }

    /// Cap on the multi-base strip decomposition (default 16 cubes).
    pub fn with_max_cubes(mut self, max_cubes: usize) -> Self {
        self.max_cubes = max_cubes.max(1);
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
    /// frame's refinement needed from outside its fetch.
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
        // multi-base query, so coverage is identical) and fetch them as
        // ONE batch: a single index descent for all boxes, every
        // candidate heap page scanned once with its MBR pre-filtering the
        // box list. The fetch completes before any session state changes,
        // so an `Err` leaves the session consistent.
        let strips = self.db.plan_multi_base(q, self.max_cubes);
        let cubes = staircase(self.db, q, &strips);
        let fresh = self.db.fetch(&cubes, &mut report, &mut counters)?;

        // Nothing below can fail: from here on the session's buffers are
        // recycled. The result mesh is the cold path's seed front over
        // the fetch, rebuilt into last frame's front and refined to the
        // query plane. Boundary fetches stay out of the record set; the
        // ones this frame touched are kept for the next.
        self.records.clear();
        self.records.absorb(&fresh);
        let front = &mut self.front;
        assemble_topmost_front_into(&self.records, &q.roi, front);
        let mut seeds: Vec<u32> = front.vertex_ids().collect();
        seeds.sort_unstable();
        let (seeds_added, seeds_removed) = sorted_diff_counts(&seeds, &self.prev_seeds);
        self.prev_seeds = seeds;
        let (refine, boundary_fetches) = refine_accounted(
            front,
            self.db,
            &self.records,
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
            plan: PlanDecision { chose_full: true },
        };
        Ok((stats, report))
    }

    /// Forget all session state (the pool stays warm; use a fresh pool
    /// or `DirectMeshDb::try_cold_start` to measure cold costs again).
    pub fn reset(&mut self) {
        self.front = FrontMesh::default();
        self.records.clear();
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
/// earlier territory — motions a simple sliding window never makes.
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
    /// whose index descent fails leaves the front, the record arena and
    /// the boundary as they were, so the next frame answers like a
    /// session that never saw the failure.
    #[test]
    fn a_failed_frame_leaves_the_session_unchanged() {
        let hf = generate::fractal_terrain(33, 33, 77);
        let pm = build_pm(TriMesh::from_heightfield(&hf), &PmBuildConfig::default());
        // Four entries a node: a deep index, so the two windows' descents
        // share few nodes.
        let opts = DmBuildOptions {
            rtree_fill: 0.03,
            ..DmBuildOptions::default()
        };
        let build = |cfg: FaultConfig| {
            let inj = FaultInjector::new(Box::new(MemStore::new()), cfg);
            let counters = inj.counters();
            let pool = Arc::new(BufferPool::new(Box::new(inj), 4096));
            let db = DirectMeshDb::build(pool, &pm, &opts);
            db.try_cold_start().unwrap();
            (db, counters)
        };
        let (healthy, reads) = build(FaultConfig::new(1));
        let path = flight_path(&healthy.bounds, 0.3, 4);
        let (home, away) = (query_at(&healthy, path[0]), query_at(&healthy, path[3]));
        let mut clean = NavigationSession::new(&healthy, BoundaryPolicy::FetchOnMiss);
        unwrap_clean(clean.try_move_to(&home));

        // The same store on a device that dies after the reads of the
        // build and the first frame, from an empty pool: every page
        // `home` needs stays resident, and `away` descends into index
        // nodes `home` never read.
        let (db, _) = build(FaultConfig::new(1).with_fail_reads_after(reads.reads()));
        let mut session = NavigationSession::new(&db, BoundaryPolicy::FetchOnMiss);
        unwrap_clean(session.try_move_to(&home));
        let snapshot = |s: &NavigationSession| {
            (
                face_set(s.front()),
                s.front().num_vertices(),
                s.records.set().nodes.clone(),
                s.prev_seeds.clone(),
                s.boundary_nodes(),
            )
        };
        let before = snapshot(&session);
        assert!(session.try_move_to(&away).is_err());
        assert!(
            snapshot(&session) == before,
            "a failed frame changed the session"
        );

        // Back home: the frame reads only resident pages, and answers as
        // if the failure never happened.
        let (got, report) = session
            .try_move_to(&home)
            .expect("a frame over resident pages");
        assert!(report.is_clean());
        assert_eq!(got.disk_accesses, 0);
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
