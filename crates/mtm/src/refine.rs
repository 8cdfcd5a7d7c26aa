//! Runtime selective refinement: an explicit *front mesh* that is driven
//! down to a LOD target by vertex splits.
//!
//! A *front* is an anti-chain of the PM forest (no node is an ancestor of
//! another) together with its triangulation. Refinement pops the active
//! vertex with the largest LOD value whose interval lower bound exceeds
//! the target at its position and splits it into its two children,
//! re-resolving the recorded wing vertices to their *representatives* in
//! the current front (the active node related to the recorded wing). When
//! a wing's subtree has not been expanded yet, the engine *force-splits*
//! the wing's active ancestor first (Hoppe-style forced splits).
//!
//! Records are pulled through a [`RecordSource`], so the same engine
//! serves the in-memory hierarchy, the PM database baseline and the
//! Direct Mesh single-/multi-base algorithms (which feed it the records
//! fetched by their range queries). A record the source cannot supply
//! (e.g. outside the query ROI) blocks that split — the caller's boundary
//! policy decides whether that is acceptable or triggers a fetch.

use std::collections::{BinaryHeap, HashMap};
use std::hash::BuildHasher;

use dm_geom::tri::orient2d;
use dm_geom::Vec2;
use fxhash::{FxHashMap, FxHashSet};

use crate::hierarchy::{PmHierarchy, PmNode, NIL_ID};

/// Supplies PM node records to the refinement engine.
pub trait RecordSource {
    /// Fetch a record by node id; `None` when unavailable (e.g. outside
    /// the fetched query region).
    fn fetch(&mut self, id: u32) -> Option<PmNode>;

    /// True when [`Self::fetch`] supplies every id of the hierarchy. A
    /// wing walk over such a source can stop at the front's id ceiling:
    /// the full walk would reach a root and answer "outside the front"
    /// anyway. A source that may miss (a ROI's records, `Skip`) must
    /// answer false, so that a missing record still reads as unknown.
    fn is_complete(&self) -> bool {
        false
    }

    /// True when `a` and `b` lie on one root-leaf path (ancestor/self).
    /// The default walks parent chains through `fetch` and gives up (false)
    /// on a missing record; sources with global knowledge override this.
    fn related(&mut self, a: u32, b: u32) -> bool {
        if a == b {
            return true;
        }
        // Walk up from the younger node (larger ids are ancestors —
        // creation order); bounded to keep degenerate data safe.
        let (mut lo, hi) = if a < b { (a, b) } else { (b, a) };
        for _ in 0..64 {
            let Some(rec) = self.fetch(lo) else {
                return false;
            };
            if rec.parent == NIL_ID {
                return false;
            }
            if rec.parent == hi {
                return true;
            }
            if rec.parent > hi {
                return false; // passed it: not related
            }
            lo = rec.parent;
        }
        false
    }
}

/// The whole hierarchy in memory — the reference source.
impl RecordSource for &PmHierarchy {
    fn fetch(&mut self, id: u32) -> Option<PmNode> {
        self.nodes.get(id as usize).copied()
    }

    fn is_complete(&self) -> bool {
        true
    }

    fn related(&mut self, a: u32, b: u32) -> bool {
        PmHierarchy::related(self, a, b)
    }
}

/// A map of fetched records (what a range query returned) — generic over
/// the hasher so the fast `FxHashMap` working sets qualify too.
impl<S: BuildHasher> RecordSource for HashMap<u32, PmNode, S> {
    fn fetch(&mut self, id: u32) -> Option<PmNode> {
        self.get(&id).copied()
    }
}

/// The required LOD (maximum tolerable error) at a plan position. A front
/// vertex `v` is refined while `v.e_lo > required(v.x, v.y)`.
pub trait LodTarget {
    fn required(&self, x: f64, y: f64) -> f64;

    /// Whether an active node must be split. The default judges by the
    /// node's own position; targets with subtree knowledge (e.g. the PM
    /// baseline's footprint MBRs — "all internal nodes must record ...
    /// its footprint") override this to catch nodes whose descendants
    /// reach into the region even though the node itself sits outside.
    fn needs_refinement(&self, n: &PmNode) -> bool {
        !n.is_leaf() && n.e_lo > self.required(n.pos.x, n.pos.y)
    }
}

/// Uniform LOD — the viewpoint-independent query.
#[derive(Clone, Copy, Debug)]
pub struct UniformTarget(pub f64);

impl LodTarget for UniformTarget {
    fn required(&self, _x: f64, _y: f64) -> f64 {
        self.0
    }
}

/// A tilted *query plane* (viewpoint-dependent query): the required LOD
/// grows linearly with the distance from the viewer along `dir`,
/// clamped to `[e_min, e_max]`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PlaneTarget {
    /// Point where the requirement equals `e_min` (the viewer's edge).
    pub origin: Vec2,
    /// Unit direction of increasing distance.
    pub dir: Vec2,
    /// Required LOD at `origin`.
    pub e_min: f64,
    /// LOD growth per unit distance (`tan` of the paper's *angle*).
    pub slope: f64,
    /// Upper clamp (the cube's top plane).
    pub e_max: f64,
}

impl LodTarget for PlaneTarget {
    fn required(&self, x: f64, y: f64) -> f64 {
        let d = (Vec2::new(x, y) - self.origin).dot(self.dir).max(0.0);
        (self.e_min + self.slope * d).clamp(self.e_min, self.e_max)
    }
}

/// Counters describing one refinement run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RefineStats {
    /// Successful vertex splits.
    pub splits: usize,
    /// Splits performed only to enable another split (forced).
    pub forced: usize,
    /// Splits abandoned because a wing could not be resolved or geometry
    /// degenerated.
    pub blocked: usize,
    /// Splits abandoned because a child/wing record was unavailable from
    /// the source (ROI boundary).
    pub missing_records: usize,
}

#[derive(Clone)]
struct FrontVert {
    node: PmNode,
    tris: Vec<u32>,
}

/// The explicit front mesh, keyed by PM node ids.
#[derive(Clone, Default)]
pub struct FrontMesh {
    verts: FxHashMap<u32, FrontVert>,
    tris: Vec<[u32; 3]>,
    tri_alive: Vec<bool>,
    live_tris: usize,
}

impl FrontMesh {
    /// Build from active records and their triangles. Triangles given in
    /// either winding are normalized to CCW.
    pub fn from_parts(records: Vec<PmNode>, triangles: &[[u32; 3]]) -> Self {
        let mut fm = FrontMesh::default();
        fm.verts.reserve(records.len());
        fm.tris.reserve(triangles.len());
        fm.tri_alive.reserve(triangles.len());
        for r in records {
            // A fan is about six wide: one allocation per vertex, made here.
            fm.verts.insert(
                r.id,
                FrontVert {
                    node: r,
                    tris: Vec::with_capacity(8),
                },
            );
        }
        for &t in triangles {
            fm.add_triangle_normalized(t);
        }
        fm
    }

    fn pos2(&self, id: u32) -> Vec2 {
        self.verts[&id].node.pos.xy()
    }

    fn add_triangle_normalized(&mut self, mut t: [u32; 3]) {
        let area = orient2d(self.pos2(t[0]), self.pos2(t[1]), self.pos2(t[2]));
        if area == 0.0 {
            return; // degenerate sliver from extraction noise: drop
        }
        if area < 0.0 {
            t.swap(1, 2);
        }
        self.add_triangle(t);
    }

    fn add_triangle(&mut self, t: [u32; 3]) {
        let id = self.tris.len() as u32;
        self.tris.push(t);
        self.tri_alive.push(true);
        self.live_tris += 1;
        for &v in &t {
            self.verts
                .get_mut(&v)
                .expect("triangle vertex present")
                .tris
                .push(id);
        }
    }

    fn remove_triangle(&mut self, t: u32) {
        if !self.tri_alive[t as usize] {
            return;
        }
        self.tri_alive[t as usize] = false;
        self.live_tris -= 1;
        for v in self.tris[t as usize] {
            if let Some(fv) = self.verts.get_mut(&v) {
                fv.tris.retain(|&x| x != t);
            }
        }
    }

    pub fn contains(&self, id: u32) -> bool {
        self.verts.contains_key(&id)
    }

    pub fn node(&self, id: u32) -> Option<&PmNode> {
        self.verts.get(&id).map(|v| &v.node)
    }

    pub fn num_vertices(&self) -> usize {
        self.verts.len()
    }

    pub fn num_triangles(&self) -> usize {
        self.live_tris
    }

    pub fn vertex_ids(&self) -> impl Iterator<Item = u32> + '_ {
        self.verts.keys().copied()
    }

    /// Every active vertex with its record, in hash order — one lookup
    /// per vertex for callers that need both id and node (the canonical
    /// wire extraction sorts afterwards anyway).
    pub fn iter_nodes(&self) -> impl Iterator<Item = (u32, &PmNode)> + '_ {
        self.verts.iter().map(|(&id, fv)| (id, &fv.node))
    }

    pub fn triangles(&self) -> impl Iterator<Item = [u32; 3]> + '_ {
        self.tris
            .iter()
            .zip(&self.tri_alive)
            .filter(|(_, &alive)| alive)
            .map(|(&t, _)| t)
    }

    /// Unique neighbours of an active vertex, into a reused buffer.
    fn neighbors_into(&self, id: u32, out: &mut Vec<u32>) {
        out.clear();
        if let Some(fv) = self.verts.get(&id) {
            for &t in &fv.tris {
                for &o in &self.tris[t as usize] {
                    if o != id && !out.contains(&o) {
                        out.push(o);
                    }
                }
            }
        }
    }

    /// The neighbours of `id` in circular fan order (CCW), left in
    /// `s.cycle`; `s.fan` holds `(a, b)` of each incident CCW triangle
    /// `(id, a, b)` in the vertex's triangle order and `s.neighbors` its
    /// unique neighbours. For boundary vertices the cycle is closed
    /// virtually across the gap. Fans are a dozen wide at most, so
    /// successor and predecessor lookups are linear scans of `s.fan`.
    /// `None` for a non-manifold or corrupt fan.
    fn neighbor_cycle(&self, id: u32, s: &mut SplitScratch) -> Option<()> {
        let fv = self.verts.get(&id)?;
        s.fan.clear();
        s.cycle.clear();
        for &t in &fv.tris {
            let tri = self.tris[t as usize];
            let k = tri.iter().position(|&x| x == id).expect("incident");
            let a = tri[(k + 1) % 3];
            if s.fan.iter().any(|f| f.0 == a) {
                return None; // non-manifold fan
            }
            s.fan.push((a, tri[(k + 2) % 3]));
        }
        if s.fan.is_empty() {
            return Some(());
        }
        // Start from the boundary neighbour (no predecessor) if any; a
        // closed fan has no distinguished start, so take its smallest id.
        let start = s
            .fan
            .iter()
            .map(|f| f.0)
            .find(|&a| !s.fan.iter().any(|f| f.1 == a))
            .unwrap_or_else(|| s.fan.iter().map(|f| f.0).min().expect("nonempty fan"));
        s.cycle.push(start);
        let mut cur = start;
        while let Some(&(_, next)) = s.fan.iter().find(|f| f.0 == cur) {
            if next == start {
                break;
            }
            s.cycle.push(next);
            cur = next;
            if s.cycle.len() > s.fan.len() + 2 {
                return None; // corrupt fan
            }
        }
        // A fan clipped at the ROI boundary can fall apart into several
        // chains; the successor walk then covers only one of them. Since
        // the terrain is planar, the angular order around the vertex is
        // the true cyclic order — use it for fragmented fans.
        self.neighbors_into(id, &mut s.neighbors);
        if s.cycle.len() < s.neighbors.len() {
            let center = fv.node.pos.xy();
            s.cycle.clear();
            s.cycle.extend_from_slice(&s.neighbors);
            s.cycle.sort_by(|&a, &b| {
                dm_geom::tri::angle_around(center, self.pos2(a))
                    .partial_cmp(&dm_geom::tri::angle_around(center, self.pos2(b)))
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
        }
        Some(())
    }

    /// Number of mesh edges bordered by exactly one triangle — the hull
    /// plus any seams/holes; a diagnostic for multi-base stitching.
    pub fn boundary_edge_count(&self) -> usize {
        let mut counts: FxHashMap<(u32, u32), u32> = FxHashMap::default();
        for t in self.triangles() {
            for i in 0..3 {
                let a = t[i].min(t[(i + 1) % 3]);
                let b = t[i].max(t[(i + 1) % 3]);
                *counts.entry((a, b)).or_insert(0) += 1;
            }
        }
        counts.values().filter(|&&c| c == 1).count()
    }

    /// Convert to a validated-friendly `TriMesh` (compact ids). Returns
    /// the mesh and the PM node id of each compact vertex.
    pub fn to_trimesh(&self) -> (dm_terrain::TriMesh, Vec<u32>) {
        let mut ids: Vec<u32> = self.verts.keys().copied().collect();
        ids.sort_unstable();
        let remap: FxHashMap<u32, u32> = ids
            .iter()
            .enumerate()
            .map(|(i, &id)| (id, i as u32))
            .collect();
        let mut mesh = dm_terrain::TriMesh::new();
        for &id in &ids {
            mesh.add_vertex(self.verts[&id].node.pos);
        }
        for t in self.triangles() {
            mesh.add_triangle([remap[&t[0]], remap[&t[1]], remap[&t[2]]]);
        }
        (mesh, ids)
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
struct HeapItem {
    // Ordered by (e_lo, id): larger error first, later creation first.
    e_bits: u64,
    id: u32,
}

impl Ord for HeapItem {
    fn cmp(&self, o: &Self) -> std::cmp::Ordering {
        self.e_bits.cmp(&o.e_bits).then(self.id.cmp(&o.id))
    }
}
impl PartialOrd for HeapItem {
    fn partial_cmp(&self, o: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(o))
    }
}

fn heap_item(n: &PmNode) -> HeapItem {
    // e_lo >= 0, so the IEEE bit pattern is order-preserving.
    HeapItem {
        e_bits: n.e_lo.to_bits(),
        id: n.id,
    }
}

/// Refine `front` until no active vertex violates `target`.
pub fn refine(
    front: &mut FrontMesh,
    source: &mut dyn RecordSource,
    target: &dyn LodTarget,
) -> RefineStats {
    let mut stats = RefineStats::default();
    let mut heap: BinaryHeap<HeapItem> = front
        .verts
        .values()
        .filter(|v| needs_split(&v.node, target))
        .map(|v| heap_item(&v.node))
        .collect();
    // Ids whose split is known to be impossible (don't retry forever).
    let mut dead_ends: FxHashSet<u32> = Default::default();
    let mut scratch = SplitScratch {
        ceiling: id_ceiling(front, source),
        ..SplitScratch::default()
    };

    while let Some(item) = heap.pop() {
        let id = item.id;
        if dead_ends.contains(&id) || !front.contains(id) {
            continue;
        }
        let node = front.verts[&id].node;
        if !needs_split(&node, target) {
            continue;
        }
        match split_vertex(front, source, id, 0, &mut stats, &mut scratch) {
            SplitOutcome::Done(children) => {
                stats.splits += 1;
                for c in children.into_iter().flatten() {
                    if let Some(n) = front.node(c) {
                        if needs_split(n, target) {
                            heap.push(heap_item(n));
                        }
                    }
                }
            }
            SplitOutcome::DidForcedWork(new_actives) => {
                // Forced splits expanded other subtrees; requeue everything
                // they activated plus this vertex.
                for c in new_actives {
                    if let Some(n) = front.node(c) {
                        if needs_split(n, target) {
                            heap.push(heap_item(n));
                        }
                    }
                }
                heap.push(item);
            }
            SplitOutcome::Blocked => {
                dead_ends.insert(id);
            }
        }
    }
    stats
}

fn needs_split(n: &PmNode, target: &dyn LodTarget) -> bool {
    target.needs_refinement(n)
}

/// The largest id a wing walk can still meet in `front` during one
/// [`refine`] run: PM parents carry larger ids than their children and a
/// split only trades a vertex for two smaller ids, so the front's largest
/// id at entry bounds it for the whole run. `u32::MAX` (no early exit)
/// unless the source can supply every id: over a source that may miss,
/// the full walk can stop at a missing record and block the split, and
/// the early exit must not turn that block into a split.
fn id_ceiling(front: &FrontMesh, source: &dyn RecordSource) -> u32 {
    if source.is_complete() {
        front.verts.keys().copied().max().unwrap_or(0)
    } else {
        u32::MAX
    }
}

/// Coarsen the front: collapse sibling pairs whose *parent* already
/// satisfies the target (the inverse of refinement; used when the viewer
/// moves away and previously fine regions may relax). Returns the number
/// of collapses performed.
///
/// Together with [`refine`], this gives hysteresis-free incremental
/// adaptation: `coarsen(front, t); refine(front, t)` reaches the same
/// front as a fresh query at `t`, reusing everything still valid.
pub fn coarsen(
    front: &mut FrontMesh,
    source: &mut dyn RecordSource,
    target: &dyn LodTarget,
) -> usize {
    let mut total = 0;
    loop {
        // Parents whose two children are both active and which satisfy
        // the target at their own position.
        let mut parents: Vec<u32> = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for (_, fv) in front.verts.iter() {
            let p = fv.node.parent;
            if p != NIL_ID && seen.insert(p) {
                parents.push(p);
            }
        }
        // Collapse coarser parents first so chains fold in one sweep.
        let mut candidates: Vec<(f64, u32)> = Vec::new();
        for p in parents {
            let Some(rec) = source.fetch(p) else { continue };
            if target.needs_refinement(&rec) {
                continue; // parent itself would violate the target
            }
            if front.contains(rec.child1) && front.contains(rec.child2) {
                candidates.push((rec.e_lo, p));
            }
        }
        candidates.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut progress = 0;
        for (_, p) in candidates {
            if collapse_pair(front, source, p).is_ok() {
                progress += 1;
            }
        }
        if progress == 0 {
            return total;
        }
        total += progress;
    }
}

/// Collapse the two (active, adjacent) children of `parent` back into it.
/// The front is unchanged on `Err`.
fn collapse_pair(
    front: &mut FrontMesh,
    source: &mut dyn RecordSource,
    parent: u32,
) -> Result<(), ()> {
    let rec = source.fetch(parent).ok_or(())?;
    let (c1, c2) = (rec.child1, rec.child2);
    if !front.contains(c1) || !front.contains(c2) {
        return Err(());
    }
    // Gather both fans; triangles containing both children disappear
    // (they are the seam triangles of the original split).
    let mut tris: Vec<u32> = front.verts[&c1].tris.clone();
    for &t in &front.verts[&c2].tris {
        if !tris.contains(&t) {
            tris.push(t);
        }
    }
    let mut retarget: Vec<[u32; 3]> = Vec::new();
    for &t in &tris {
        let tri = front.tris[t as usize];
        if tri.contains(&c1) && tri.contains(&c2) {
            continue; // seam triangle: removed by the collapse
        }
        let mut new_tri = tri;
        for corner in new_tri.iter_mut() {
            if *corner == c1 || *corner == c2 {
                *corner = parent;
            }
        }
        // Fold-over check at the parent position.
        let p0 = if new_tri[0] == parent {
            rec.pos.xy()
        } else {
            front.pos2(new_tri[0])
        };
        let p1 = if new_tri[1] == parent {
            rec.pos.xy()
        } else {
            front.pos2(new_tri[1])
        };
        let p2 = if new_tri[2] == parent {
            rec.pos.xy()
        } else {
            front.pos2(new_tri[2])
        };
        if orient2d(p0, p1, p2) <= 0.0 {
            return Err(());
        }
        retarget.push(new_tri);
    }
    // Commit.
    for &t in &tris {
        front.remove_triangle(t);
    }
    front.verts.remove(&c1);
    front.verts.remove(&c2);
    front.verts.insert(
        parent,
        FrontVert {
            node: rec,
            tris: Vec::new(),
        },
    );
    for t in retarget {
        front.add_triangle(t);
    }
    Ok(())
}

enum SplitOutcome {
    /// Split succeeded; the two children are now active.
    Done([Option<u32>; 2]),
    /// Could not split yet, but forced splits changed the front; the new
    /// active vertices are returned and the caller should retry.
    DidForcedWork(Vec<u32>),
    /// Permanently impossible (missing records / unresolvable geometry).
    Blocked,
}

const MAX_FORCE_DEPTH: u32 = 48;

/// The split path's buffers, reused across every split of one
/// [`refine`] run (a forced split returns straight after recursing, so
/// one set serves the whole recursion), and the run's [`id_ceiling`].
#[derive(Default)]
struct SplitScratch {
    ceiling: u32,
    neighbors: Vec<u32>,
    fan: Vec<(u32, u32)>,
    cycle: Vec<u32>,
    /// Per fan triangle (in `fan` order): does `c1` inherit it?
    to_c1: Vec<bool>,
}

/// A forced split's outcome, as seen by the split that needed it.
fn forced(outcome: SplitOutcome, stats: &mut RefineStats) -> SplitOutcome {
    match outcome {
        SplitOutcome::Done(children) => {
            stats.splits += 1;
            SplitOutcome::DidForcedWork(children.into_iter().flatten().collect())
        }
        other @ SplitOutcome::DidForcedWork(_) => other,
        SplitOutcome::Blocked => {
            stats.blocked += 1;
            SplitOutcome::Blocked
        }
    }
}

fn split_vertex(
    front: &mut FrontMesh,
    source: &mut dyn RecordSource,
    id: u32,
    depth: u32,
    stats: &mut RefineStats,
    s: &mut SplitScratch,
) -> SplitOutcome {
    if depth > MAX_FORCE_DEPTH {
        stats.blocked += 1;
        return SplitOutcome::Blocked;
    }
    let node = front.verts[&id].node;
    // Top-level splits are guarded by `needs_split`, but the forced-split
    // path below can recurse into a wing's active ancestor that is itself
    // a leaf (the wing is active but not adjacent to the splitting
    // vertex). A leaf has no children to split into: that forced split is
    // simply impossible, not a broken invariant.
    if node.is_leaf() {
        stats.blocked += 1;
        return SplitOutcome::Blocked;
    }

    let (Some(c1), Some(c2)) = (source.fetch(node.child1), source.fetch(node.child2)) else {
        stats.missing_records += 1;
        stats.blocked += 1;
        return SplitOutcome::Blocked;
    };
    // A front clipped to a ROI is not always an anti-chain: a seed's
    // ancestor is a seed too when every node between them lies outside
    // the ROI, and a source that fetches those nodes lets refinement walk
    // down onto the seed. Activating it a second time would replace it
    // and orphan its fan (live triangles no corner list holds: the same
    // face twice, overlapping geometry), so the mesh from above ends where
    // the mesh from below begins. A seed without a fan has nothing to
    // orphan and is simply absorbed.
    let has_fan = |c: u32| front.verts.get(&c).is_some_and(|fv| !fv.tris.is_empty());
    if has_fan(c1.id) || has_fan(c2.id) {
        stats.blocked += 1;
        return SplitOutcome::Blocked;
    }

    // Resolve each recorded wing to an active representative adjacent to v:
    // the wing itself, else the earliest-created neighbour related to it.
    front.neighbors_into(id, &mut s.neighbors);
    let mut reps: [Option<u32>; 2] = [None, None];
    for (slot, wing) in [node.wing1, node.wing2].into_iter().enumerate() {
        if wing == NIL_ID {
            continue;
        }
        let mut rep: Option<u32> = None;
        for &n in &s.neighbors {
            if n == wing {
                rep = Some(wing);
            } else if source.related(n, wing) && rep != Some(wing) {
                rep = Some(rep.map_or(n, |r| r.min(n)));
            }
        }
        if rep.is_none() {
            // The wing's subtree is not expanded next to v — force-split
            // the active node that must contain it.
            match active_ancestor_of(front, source, wing, s.ceiling) {
                WingCover::Active(anc) if anc != id => {
                    stats.forced += 1;
                    let outcome = split_vertex(front, source, anc, depth + 1, stats, s);
                    return forced(outcome, stats);
                }
                WingCover::OutsideFront => {
                    // The wing's whole subtree lies outside the front (a
                    // front clipped to a ROI): the mesh simply ends on
                    // that side — split without a seam triangle there.
                    continue;
                }
                _ => {
                    // Unknown coverage (missing record) or inconsistency.
                    stats.blocked += 1;
                    return SplitOutcome::Blocked;
                }
            }
        }
        reps[slot] = rep;
    }

    // Both wings collapsed into one active representative: it must split
    // first to separate the two sides.
    if let (Some(r1), Some(r2)) = (reps[0], reps[1]) {
        if r1 == r2 {
            stats.forced += 1;
            let outcome = split_vertex(front, source, r1, depth + 1, stats, s);
            return forced(outcome, stats);
        }
    }

    match perform_split(front, id, c1, c2, reps, s) {
        Ok(children) => SplitOutcome::Done(children),
        Err(()) => {
            stats.blocked += 1;
            SplitOutcome::Blocked
        }
    }
}

/// Result of looking for the active node covering a wing.
enum WingCover {
    /// This active node's subtree contains the wing.
    Active(u32),
    /// The chain walk reached a root, or climbed past the front's id
    /// ceiling, without meeting the front: the wing's region is genuinely
    /// outside the front (ROI clipping).
    OutsideFront,
    /// A record was unavailable mid-walk — can't tell.
    Unknown,
}

/// Find the active node whose subtree contains `wing` (wing itself, or an
/// ancestor on its parent chain). No front id exceeds `ceiling`, so the
/// walk ends there rather than at a root.
fn active_ancestor_of(
    front: &FrontMesh,
    source: &mut dyn RecordSource,
    wing: u32,
    ceiling: u32,
) -> WingCover {
    let mut cur = wing;
    // Parent ids strictly increase, so this terminates at a root.
    loop {
        if cur > ceiling {
            return WingCover::OutsideFront;
        }
        if front.contains(cur) {
            return WingCover::Active(cur);
        }
        let Some(rec) = source.fetch(cur) else {
            return WingCover::Unknown;
        };
        if rec.parent == NIL_ID {
            return WingCover::OutsideFront;
        }
        cur = rec.parent;
    }
}

/// Execute the split of `v` into `c1`/`c2` with resolved (side-ordered)
/// wing representatives: `reps[0]` descends from the recorded `wing1`
/// (the wing for which `(c1, c2, wing1)` wound CCW at collapse time),
/// `reps[1]` from `wing2`.
///
/// The neighbour fan of `v` is partitioned combinatorially: walking the
/// CCW cycle, the sectors from `rep1` to `rep2` belong to `c1`, the rest
/// to `c2` (this is exactly how the collapse merged the two fans). The
/// front is unchanged on `Err`.
fn perform_split(
    front: &mut FrontMesh,
    v: u32,
    c1: PmNode,
    c2: PmNode,
    reps: [Option<u32>; 2],
    s: &mut SplitScratch,
) -> Result<[Option<u32>; 2], ()> {
    front.neighbor_cycle(v, s).ok_or(())?;
    let (cycle, l) = (&s.cycle, s.cycle.len());
    s.to_c1.clear();
    let mut seams: [Option<[u32; 3]>; 2] = [None, None];
    // An isolated vertex (single-point front) has an empty cycle: both
    // children appear, connected by nothing.
    if l > 0 {
        let pos_in_cycle = |r: u32| cycle.iter().position(|&n| n == r);
        let p1 = match reps[0] {
            Some(r) => Some(pos_in_cycle(r).ok_or(())?),
            None => None,
        };
        let p2 = match reps[1] {
            Some(r) => Some(pos_in_cycle(r).ok_or(())?),
            None => None,
        };
        if p1.is_none() && p2.is_none() {
            return Err(()); // a collapse always has at least one wing
        }
        // Sector `s` spans cycle[s] → cycle[s+1 mod l] (CCW). Decide whether
        // it belongs to c1: CCW from rep1 up to (exclusive) rep2.
        let sector_in_c1 = |s: usize| -> bool {
            match (p1, p2) {
                (Some(a), Some(b)) => {
                    if a <= b {
                        s >= a && s < b
                    } else {
                        s >= a || s < b
                    }
                }
                // Boundary collapse: the missing wing side ends at the fan gap.
                (Some(a), None) => s >= a,
                (None, Some(b)) => s < b,
                (None, None) => unreachable!(),
            }
        };
        for &(a, b) in &s.fan {
            // The triangle (v, a, b) covers the sector starting at `a`.
            let sec = pos_in_cycle(a).ok_or(())?;
            if cycle[(sec + 1) % l] != b {
                return Err(()); // inconsistent fan (clipped/fragmented beyond repair)
            }
            let to_c1 = sector_in_c1(sec);
            let child = if to_c1 { c1 } else { c2 };
            if orient2d(child.pos.xy(), front.pos2(a), front.pos2(b)) <= 0.0 {
                return Err(()); // the retargeted triangle would flip
            }
            s.to_c1.push(to_c1);
        }
        // Seam triangles: (c1, c2, rep1) and (c2, c1, rep2) by the wing-side
        // convention; verify they are CCW with the current representatives.
        if let Some(r) = reps[0] {
            if orient2d(c1.pos.xy(), c2.pos.xy(), front.pos2(r)) <= 0.0 {
                return Err(());
            }
            seams[0] = Some([c1.id, c2.id, r]);
        }
        if let Some(r) = reps[1] {
            if orient2d(c2.pos.xy(), c1.pos.xy(), front.pos2(r)) <= 0.0 {
                return Err(());
            }
            seams[1] = Some([c2.id, c1.id, r]);
        }
    }

    // Commit. Each fan triangle keeps its slot and its other two corners
    // — only the `v` corner is rewritten to the child that inherits it,
    // so no neighbour's triangle list changes; `v`'s own list is divided
    // between the children (`s.to_c1` is in its order, like `s.fan`).
    let mut tris1 = front.verts.remove(&v).expect("split vertex active").tris;
    let mut tris2 = Vec::with_capacity(8);
    let mut sides = s.to_c1.iter();
    tris1.retain(|&t| {
        let to_c1 = *sides.next().expect("one side per fan triangle");
        let tri = &mut front.tris[t as usize];
        let k = tri.iter().position(|&x| x == v).expect("incident");
        tri[k] = if to_c1 { c1.id } else { c2.id };
        if !to_c1 {
            tris2.push(t);
        }
        to_c1
    });
    front.verts.insert(
        c1.id,
        FrontVert {
            node: c1,
            tris: tris1,
        },
    );
    front.verts.insert(
        c2.id,
        FrontVert {
            node: c2,
            tris: tris2,
        },
    );
    for t in seams.into_iter().flatten() {
        front.add_triangle(t);
    }
    Ok([Some(c1.id), Some(c2.id)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{build_pm, PmBuildConfig};
    use dm_terrain::{generate, TriMesh};

    fn setup(n: usize, seed: u64) -> (TriMesh, crate::builder::PmBuild) {
        let hf = generate::fractal_terrain(n, n, seed);
        let mesh = TriMesh::from_heightfield(&hf);
        let original = mesh.clone();
        (original, build_pm(mesh, &PmBuildConfig::default()))
    }

    fn root_front(h: &PmHierarchy) -> FrontMesh {
        let records: Vec<PmNode> = h.roots.iter().map(|&r| *h.node(r)).collect();
        FrontMesh::from_parts(records, &h.root_mesh)
    }

    #[test]
    fn refinement_types_are_shareable_across_threads() {
        // The parallel query paths in dm-core move fronts and targets
        // into worker threads and share node data by reference; these
        // bounds are load-bearing, not incidental.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PmNode>();
        assert_send_sync::<FrontMesh>();
        assert_send_sync::<RefineStats>();
        assert_send_sync::<PlaneTarget>();
        assert_send_sync::<UniformTarget>();
        assert_send_sync::<PmHierarchy>();
    }

    fn edge_set(tris: impl Iterator<Item = [u32; 3]>) -> std::collections::HashSet<(u32, u32)> {
        let mut s = std::collections::HashSet::new();
        for t in tris {
            for i in 0..3 {
                let a = t[i].min(t[(i + 1) % 3]);
                let b = t[i].max(t[(i + 1) % 3]);
                s.insert((a, b));
            }
        }
        s
    }

    #[test]
    fn uniform_refinement_matches_replay_at_every_level() {
        let (original, build) = setup(9, 42);
        let h = &build.hierarchy;
        for frac in [0.0, 0.02, 0.1, 0.3, 0.8] {
            let e = h.e_max * frac;
            let mut front = root_front(h);
            let mut src: &PmHierarchy = h;
            let stats = refine(&mut front, &mut src, &UniformTarget(e));
            assert_eq!(stats.blocked, 0, "nothing may block on a full hierarchy");
            assert_eq!(stats.missing_records, 0);

            let replayed = h.replay_mesh(&original, e);
            // Same vertex set ...
            let mut got: Vec<u32> = front.vertex_ids().collect();
            let mut want: Vec<u32> = replayed.live_vertices().collect();
            got.sort();
            want.sort();
            assert_eq!(got, want, "vertex set at {frac}·e_max");
            // ... and the same edge set.
            let got_edges = edge_set(front.triangles());
            let want_edges = edge_set(replayed.live_triangles().map(|t| replayed.triangle(t)));
            assert_eq!(got_edges, want_edges, "edge set at {frac}·e_max");
            // The front is a valid mesh.
            let (mesh, _) = front.to_trimesh();
            mesh.validate().expect("front mesh valid");
        }
    }

    #[test]
    fn refinement_to_zero_recovers_full_resolution() {
        let (original, build) = setup(7, 5);
        let h = &build.hierarchy;
        let mut front = root_front(h);
        let mut src: &PmHierarchy = h;
        refine(&mut front, &mut src, &UniformTarget(0.0));
        assert_eq!(front.num_vertices(), h.n_leaves);
        assert_eq!(front.num_triangles(), original.num_live_triangles());
    }

    #[test]
    fn plane_target_refines_near_edge_finer() {
        // Seed picked for the vendored StdRng stream; the asserted density
        // gradient is statistical, so the seed is part of the fixture.
        let (_, build) = setup(17, 14);
        let h = &build.hierarchy;
        let mut front = root_front(h);
        let mut src: &PmHierarchy = h;
        let bounds = h.bounds;
        let target = PlaneTarget {
            origin: bounds.min,
            dir: Vec2::new(0.0, 1.0),
            e_min: h.e_max * 0.001,
            slope: h.e_max / bounds.height().max(1.0),
            e_max: h.e_max,
        };
        let stats = refine(&mut front, &mut src, &target);
        assert_eq!(stats.missing_records, 0);
        assert_eq!(stats.blocked, 0, "full hierarchy must never block");
        // Every active vertex satisfies its own target.
        for id in front.vertex_ids() {
            let n = front.node(id).unwrap();
            assert!(
                n.is_leaf() || n.e_lo <= target.required(n.pos.x, n.pos.y) + 1e-12,
                "vertex {id} still violates the plane target"
            );
        }
        // Valid mesh.
        let (mesh, _) = front.to_trimesh();
        mesh.validate().expect("viewpoint-dependent front valid");
        // Density gradient: the near half must hold more vertices.
        let mid = (bounds.min.y + bounds.max.y) / 2.0;
        let near = front
            .vertex_ids()
            .filter(|&v| front.node(v).unwrap().pos.y < mid)
            .count();
        let far = front.num_vertices() - near;
        assert!(
            near > far,
            "near half ({near}) must be denser than far half ({far})"
        );
    }

    #[test]
    fn steep_plane_requires_forced_splits_but_stays_valid() {
        // Seed picked for the vendored StdRng stream (see above).
        let (_, build) = setup(17, 22);
        let h = &build.hierarchy;
        let bounds = h.bounds;
        let mut front = root_front(h);
        let mut src: &PmHierarchy = h;
        let target = PlaneTarget {
            origin: bounds.min,
            dir: Vec2::new(1.0, 0.0),
            e_min: 0.0,
            slope: 4.0 * h.e_max / bounds.width().max(1.0),
            e_max: h.e_max,
        };
        let stats = refine(&mut front, &mut src, &target);
        assert_eq!(stats.blocked, 0);
        let (mesh, _) = front.to_trimesh();
        mesh.validate().expect("steep plane front valid");
        assert!(stats.splits > 0);
    }

    #[test]
    fn restricted_source_blocks_gracefully() {
        // Give the engine only records above a LOD threshold: splits that
        // need missing children must be counted, the rest must proceed.
        let (_, build) = setup(9, 33);
        let h = &build.hierarchy;
        let cutoff = h.e_max * 0.3;
        let mut partial: HashMap<u32, PmNode> = h
            .nodes
            .iter()
            .filter(|n| n.e_hi > cutoff) // records above (coarser than) the cutoff
            .map(|n| (n.id, *n))
            .collect();
        let mut front = root_front(h);
        let stats = refine(&mut front, &mut partial, &UniformTarget(0.0));
        assert!(stats.missing_records > 0, "some records must be missing");
        // Mesh is still structurally valid.
        let (mesh, _) = front.to_trimesh();
        mesh.validate().expect("partially refined front valid");
    }

    /// A hand-built fan around vertex 0 at the origin: neighbour `i + 1`
    /// sits at angle `angles[i]` (degrees), `tris` are the incident
    /// triangles `(0, a, b)`, stored as given.
    fn fan_front(angles: &[f64], tris: &[[u32; 3]]) -> FrontMesh {
        let node = |id: u32, x: f64, y: f64| PmNode {
            id,
            pos: dm_geom::Vec3::new(x, y, 0.0),
            e_lo: 0.0,
            e_hi: f64::INFINITY,
            parent: NIL_ID,
            child1: NIL_ID,
            child2: NIL_ID,
            wing1: NIL_ID,
            wing2: NIL_ID,
        };
        let mut records = vec![node(0, 0.0, 0.0)];
        for (i, a) in angles.iter().enumerate() {
            let (sin, cos) = a.to_radians().sin_cos();
            records.push(node(i as u32 + 1, cos, sin));
        }
        let mut fm = FrontMesh::default();
        for r in records {
            fm.verts.insert(
                r.id,
                FrontVert {
                    node: r,
                    tris: Vec::new(),
                },
            );
        }
        // Straight into the table: `from_parts` would reorient or drop
        // the deliberately inconsistent triangles of the broken fans.
        for &t in tris {
            fm.add_triangle(t);
        }
        fm
    }

    /// The hash-map `neighbor_cycle` this module used before the linear
    /// one — the reference the new one is held to.
    fn neighbor_cycle_oracle(fm: &FrontMesh, id: u32) -> Option<Vec<u32>> {
        let fv = fm.verts.get(&id)?;
        if fv.tris.is_empty() {
            return Some(Vec::new());
        }
        let mut succ: FxHashMap<u32, u32> = FxHashMap::default();
        let mut has_pred: FxHashMap<u32, bool> = FxHashMap::default();
        for &t in &fv.tris {
            let tri = fm.tris[t as usize];
            let k = tri.iter().position(|&x| x == id).expect("incident");
            let a = tri[(k + 1) % 3];
            let b = tri[(k + 2) % 3];
            if succ.insert(a, b).is_some() {
                return None;
            }
            has_pred.entry(a).or_insert(false);
            *has_pred.entry(b).or_insert(true) = true;
        }
        let start = has_pred
            .iter()
            .find(|(_, &p)| !p)
            .map(|(&n, _)| n)
            .unwrap_or_else(|| *succ.keys().next().expect("nonempty fan"));
        let mut cycle = vec![start];
        let mut cur = start;
        while let Some(&next) = succ.get(&cur) {
            if next == start {
                break;
            }
            cycle.push(next);
            cur = next;
            if cycle.len() > succ.len() + 2 {
                return None;
            }
        }
        let mut all_neighbors = Vec::new();
        fm.neighbors_into(id, &mut all_neighbors);
        if cycle.len() < all_neighbors.len() {
            let center = fv.node.pos.xy();
            all_neighbors.sort_by(|&a, &b| {
                dm_geom::tri::angle_around(center, fm.pos2(a))
                    .partial_cmp(&dm_geom::tri::angle_around(center, fm.pos2(b)))
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            return Some(all_neighbors);
        }
        Some(cycle)
    }

    fn cycle_of(fm: &FrontMesh, id: u32) -> Option<Vec<u32>> {
        let mut s = SplitScratch::default();
        fm.neighbor_cycle(id, &mut s).map(|()| s.cycle)
    }

    #[test]
    fn neighbor_cycle_closed_fan() {
        // Five neighbours all the way round, triangles stored out of
        // order and in different rotations.
        let fm = fan_front(
            &[0.0, 72.0, 144.0, 216.0, 288.0],
            &[[0, 3, 4], [2, 0, 1], [5, 1, 0], [0, 2, 3], [4, 5, 0]],
        );
        let got = cycle_of(&fm, 0).expect("manifold fan");
        // No gap to start from: the smallest neighbour id leads.
        assert_eq!(got, vec![1, 2, 3, 4, 5]);
        // The oracle starts wherever its hash map does: same cyclic order.
        let mut want = neighbor_cycle_oracle(&fm, 0).expect("manifold fan");
        let k = want.iter().position(|&n| n == got[0]).expect("same ring");
        want.rotate_left(k);
        assert_eq!(got, want);
    }

    #[test]
    fn neighbor_cycle_boundary_fan_starts_at_the_gap() {
        // Neighbours 1..4 over a half plane; 3 → 4 → 1 → 2 is the CCW
        // chain, so 3 is the one without a predecessor.
        let fm = fan_front(
            &[90.0, 150.0, -30.0, 30.0],
            &[[0, 1, 2], [0, 3, 4], [1, 0, 4]],
        );
        let got = cycle_of(&fm, 0).expect("manifold fan");
        assert_eq!(got, vec![3, 4, 1, 2]);
        assert_eq!(Some(got), neighbor_cycle_oracle(&fm, 0));
    }

    #[test]
    fn neighbor_cycle_non_manifold_fan_is_refused() {
        // Two triangles leave the same neighbour.
        let fm = fan_front(&[0.0, 60.0, 120.0], &[[0, 1, 2], [0, 1, 3]]);
        assert_eq!(cycle_of(&fm, 0), None);
        assert_eq!(neighbor_cycle_oracle(&fm, 0), None);
    }

    #[test]
    fn neighbor_cycle_fragmented_fan_falls_back_to_angular_order() {
        // Two chains (1 → 2 and 3 → 4) with gaps between them: the walk
        // covers one, the angular order covers all four.
        let fm = fan_front(&[200.0, 250.0, 10.0, 80.0], &[[0, 1, 2], [0, 3, 4]]);
        let got = cycle_of(&fm, 0).expect("manifold fan");
        assert_eq!(got, vec![3, 4, 1, 2]);
        assert_eq!(Some(got), neighbor_cycle_oracle(&fm, 0));
    }

    #[test]
    fn neighbor_cycle_agrees_with_the_oracle_on_a_refined_front() {
        // Every vertex of a real front, interior and hull alike.
        let (_, build) = setup(9, 1);
        let h = &build.hierarchy;
        let mut front = root_front(h);
        let mut src: &PmHierarchy = h;
        refine(&mut front, &mut src, &UniformTarget(h.e_max * 0.05));
        let mut ids: Vec<u32> = front.vertex_ids().collect();
        ids.sort_unstable();
        for id in ids {
            let got = cycle_of(&front, id).expect("manifold fan");
            let mut want = neighbor_cycle_oracle(&front, id).expect("manifold fan");
            let mut neigh = Vec::new();
            front.neighbors_into(id, &mut neigh);
            assert_eq!(got.len(), neigh.len());
            // Only a closed fan leaves the oracle's start to its hash map.
            if front.verts[&id].tris.len() == neigh.len() {
                let k = want.iter().position(|&n| n == got[0]).expect("same ring");
                want.rotate_left(k);
            }
            assert_eq!(got, want, "fan of vertex {id}");
        }
    }

    #[test]
    fn coarsen_undoes_refinement() {
        // Refine to fine, coarsen back to a coarse target: the result
        // must equal refining directly to the coarse target.
        let (_, build) = setup(9, 55);
        let h = &build.hierarchy;
        let coarse = h.e_max * 0.4;

        let mut a = root_front(h);
        let mut src: &PmHierarchy = h;
        refine(&mut a, &mut src, &UniformTarget(0.0));
        let fine_count = a.num_vertices();
        let collapsed = coarsen(&mut a, &mut src, &UniformTarget(coarse));
        assert!(collapsed > 0, "coarsening must undo some splits");
        assert!(a.num_vertices() < fine_count);
        refine(&mut a, &mut src, &UniformTarget(coarse)); // no-op fixup

        let mut b = root_front(h);
        refine(&mut b, &mut src, &UniformTarget(coarse));

        let mut ia: Vec<u32> = a.vertex_ids().collect();
        let mut ib: Vec<u32> = b.vertex_ids().collect();
        ia.sort();
        ib.sort();
        assert_eq!(ia, ib, "coarsen∘refine must equal direct refinement");
        let (mesh, _) = a.to_trimesh();
        mesh.validate().expect("coarsened front valid");
        assert_eq!(edge_set(a.triangles()), edge_set(b.triangles()));
    }

    #[test]
    fn coarsen_noop_when_target_unchanged() {
        let (_, build) = setup(9, 56);
        let h = &build.hierarchy;
        let e = h.e_max * 0.1;
        let mut front = root_front(h);
        let mut src: &PmHierarchy = h;
        refine(&mut front, &mut src, &UniformTarget(e));
        let n = front.num_vertices();
        assert_eq!(coarsen(&mut front, &mut src, &UniformTarget(e)), 0);
        assert_eq!(front.num_vertices(), n);
    }

    #[test]
    fn boundary_edge_count_of_closed_front_is_hull_only() {
        let (_, build) = setup(5, 57);
        let h = &build.hierarchy;
        let mut front = root_front(h);
        let mut src: &PmHierarchy = h;
        refine(&mut front, &mut src, &UniformTarget(0.0));
        // A full-resolution 5×5 grid has 16 hull edges.
        assert_eq!(front.boundary_edge_count(), 16);
    }

    #[test]
    fn cloned_front_refines_identically() {
        let (_, build) = setup(9, 63);
        let h = &build.hierarchy;
        let mut a = root_front(h);
        let mut src: &PmHierarchy = h;
        refine(&mut a, &mut src, &UniformTarget(h.e_max * 0.4));
        let b = a.clone();
        let b_verts = b.num_vertices();
        let b_edges = edge_set(b.triangles());
        // Refine the original and the clone further; both must agree.
        refine(&mut a, &mut src, &UniformTarget(0.0));
        let mut b2 = b.clone();
        refine(&mut b2, &mut src, &UniformTarget(0.0));
        let mut ia: Vec<u32> = a.vertex_ids().collect();
        let mut ib: Vec<u32> = b2.vertex_ids().collect();
        ia.sort();
        ib.sort();
        assert_eq!(ia, ib);
        assert_eq!(edge_set(a.triangles()), edge_set(b2.triangles()));
        // The clone we kept is untouched.
        assert_eq!(b.num_vertices(), b_verts);
        assert_eq!(edge_set(b.triangles()), b_edges);
    }

    /// A `FetchOnMiss`-shaped source: one ROI's records, falling through
    /// to the whole hierarchy (counted). It reports itself complete.
    struct RoiThenHierarchy<'a> {
        roi: FxHashMap<u32, PmNode>,
        h: &'a PmHierarchy,
        fetches: usize,
    }

    impl RecordSource for RoiThenHierarchy<'_> {
        fn fetch(&mut self, id: u32) -> Option<PmNode> {
            if let Some(n) = self.roi.get(&id) {
                return Some(*n);
            }
            self.fetches += 1;
            self.h.nodes.get(id as usize).copied()
        }

        fn is_complete(&self) -> bool {
            true
        }
    }

    /// The same records from a source that does not claim completeness:
    /// every wing walk runs to a root (or to a record it cannot fetch).
    struct Incomplete<'s>(&'s mut dyn RecordSource);

    impl RecordSource for Incomplete<'_> {
        fn fetch(&mut self, id: u32) -> Option<PmNode> {
            self.0.fetch(id)
        }

        fn related(&mut self, a: u32, b: u32) -> bool {
            self.0.related(a, b)
        }
    }

    /// Faces with their smallest corner first, sorted.
    fn canonical_faces(front: &FrontMesh) -> Vec<[u32; 3]> {
        let mut faces: Vec<[u32; 3]> = front
            .triangles()
            .map(|mut t| {
                let k = (0..3).min_by_key(|&i| t[i]).expect("three corners");
                t.rotate_left(k);
                t
            })
            .collect();
        faces.sort_unstable();
        faces
    }

    /// The `q`-quantile of the internal nodes' `e_lo`: a cut there keeps
    /// about a `1 - q` share of the collapses undone.
    fn lod_quantile(h: &PmHierarchy, q: f64) -> f64 {
        let mut e: Vec<f64> = h
            .nodes
            .iter()
            .filter(|n| !n.is_leaf())
            .map(|n| n.e_lo)
            .collect();
        e.sort_unstable_by(f64::total_cmp);
        e[((e.len() - 1) as f64 * q) as usize]
    }

    /// A uniform cut at `e0` clipped to `roi` (vertices inside, faces
    /// with every corner inside), refined toward `target` over the ROI's
    /// records with the hierarchy behind them: once over the complete
    /// source, once over the same source reporting incomplete. Returns
    /// `(vertex ids, faces, stats, source fetches)` for each run.
    #[allow(clippy::type_complexity)]
    fn clipped_refine_both_ways(
        h: &PmHierarchy,
        roi: &dm_geom::Rect,
        e0: f64,
        target: &dyn LodTarget,
    ) -> [(Vec<u32>, Vec<[u32; 3]>, RefineStats, usize); 2] {
        let mut cut = root_front(h);
        let mut full: &PmHierarchy = h;
        refine(&mut cut, &mut full, &UniformTarget(e0));
        let inside = |id: u32| roi.contains(cut.node(id).expect("cut vertex").pos.xy());
        let records: Vec<PmNode> = cut
            .iter_nodes()
            .filter(|&(id, _)| inside(id))
            .map(|(_, n)| *n)
            .collect();
        let faces: Vec<[u32; 3]> = cut
            .triangles()
            .filter(|t| t.iter().all(|&c| inside(c)))
            .collect();
        [true, false].map(|complete| {
            let mut front = FrontMesh::from_parts(records.clone(), &faces);
            let mut source = RoiThenHierarchy {
                roi: h
                    .nodes
                    .iter()
                    .filter(|n| roi.contains(n.pos.xy()))
                    .map(|n| (n.id, *n))
                    .collect(),
                h,
                fetches: 0,
            };
            let stats = if complete {
                refine(&mut front, &mut source, target)
            } else {
                refine(&mut front, &mut Incomplete(&mut source), target)
            };
            let mut ids: Vec<u32> = front.vertex_ids().collect();
            ids.sort_unstable();
            (ids, canonical_faces(&front), stats, source.fetches)
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// The ceiling exit answers exactly like the full walk to a root:
        /// same front, same faces, same counters, never more lookups.
        #[test]
        fn ceiling_exit_agrees_with_the_full_walk(
            side in 9usize..34,
            seed in 0u64..1000,
            corner in (0.0..0.5f64, 0.0..0.5f64),
            extent in 0.3..0.7f64,
            fracs in (0.5..0.95f64, 0.0..1.0f64),
            plane in proptest::prelude::any::<bool>(),
        ) {
            let (_, build) = setup(side, seed);
            let h = &build.hierarchy;
            let b = h.bounds;
            let at = |fx: f64, fy: f64| {
                Vec2::new(b.min.x + fx * b.width(), b.min.y + fy * b.height())
            };
            let roi = dm_geom::Rect::from_corners(
                at(corner.0, corner.1),
                at(corner.0 + extent, corner.1 + extent),
            );
            let e0 = lod_quantile(h, fracs.0);
            let uniform = UniformTarget(e0 * fracs.1);
            let tilted = PlaneTarget {
                origin: b.min,
                dir: Vec2::new(0.6, 0.8),
                e_min: e0 * fracs.1 * 0.1,
                slope: e0 / b.width().max(1.0),
                e_max: e0,
            };
            let target: &dyn LodTarget = if plane { &tilted } else { &uniform };
            let [complete, incomplete] = clipped_refine_both_ways(h, &roi, e0, target);
            proptest::prop_assert_eq!(&complete.0, &incomplete.0, "vertex ids");
            proptest::prop_assert_eq!(&complete.1, &incomplete.1, "faces");
            proptest::prop_assert_eq!(complete.2, incomplete.2, "refine stats");
            proptest::prop_assert!(
                complete.3 <= incomplete.3,
                "{} lookups with the ceiling, {} without",
                complete.3,
                incomplete.3
            );
        }
    }

    #[test]
    fn ceiling_exit_saves_lookups_on_a_clipped_front() {
        let (_, build) = setup(33, 7);
        let h = &build.hierarchy;
        let b = h.bounds;
        let roi = dm_geom::Rect::from_corners(
            Vec2::new(b.min.x + 0.25 * b.width(), b.min.y + 0.25 * b.height()),
            Vec2::new(b.min.x + 0.75 * b.width(), b.min.y + 0.75 * b.height()),
        );
        let e0 = lod_quantile(h, 0.8);
        let [complete, incomplete] =
            clipped_refine_both_ways(h, &roi, e0, &UniformTarget(e0 * 0.1));
        assert_eq!(complete.0, incomplete.0);
        assert_eq!(complete.1, incomplete.1);
        assert_eq!(complete.2, incomplete.2);
        assert!(complete.2.splits > 0, "the fixture refines");
        assert!(
            complete.3 < incomplete.3,
            "walks above the ceiling looked nothing up: {} < {}",
            complete.3,
            incomplete.3
        );
    }

    #[test]
    fn stats_default_is_zero() {
        assert_eq!(
            RefineStats::default(),
            RefineStats {
                splits: 0,
                forced: 0,
                blocked: 0,
                missing_records: 0
            }
        );
    }
}
