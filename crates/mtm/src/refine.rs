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

use std::collections::hash_map::Entry;
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

/// Triangles a fan keeps inline before it spills to the heap. Terrain
/// fans are about six wide, so almost no vertex allocates.
const FAN_INLINE: usize = 10;

/// A front vertex's incident triangles, in push order.
#[derive(Clone)]
enum Fan {
    Inline(u8, [u32; FAN_INLINE]),
    Spilled(Vec<u32>),
}

impl Default for Fan {
    fn default() -> Fan {
        Fan::Inline(0, [0; FAN_INLINE])
    }
}

impl Fan {
    fn as_slice(&self) -> &[u32] {
        match self {
            Fan::Inline(len, tris) => &tris[..usize::from(*len)],
            Fan::Spilled(tris) => tris,
        }
    }

    fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    fn push(&mut self, t: u32) {
        match self {
            Fan::Inline(len, tris) if usize::from(*len) < FAN_INLINE => {
                tris[usize::from(*len)] = t;
                *len += 1;
            }
            Fan::Inline(_, tris) => {
                let mut spilled = Vec::with_capacity(2 * FAN_INLINE);
                spilled.extend_from_slice(tris);
                spilled.push(t);
                *self = Fan::Spilled(spilled);
            }
            Fan::Spilled(tris) => tris.push(t),
        }
    }

    /// Keep the triangles `keep` accepts, in order; `keep` sees every
    /// triangle once, in fan order. A spilled fan that fits inline again
    /// moves back.
    fn retain(&mut self, mut keep: impl FnMut(u32) -> bool) {
        match self {
            Fan::Inline(len, tris) => {
                let old = *tris;
                let mut kept = 0;
                for &t in &old[..usize::from(*len)] {
                    if keep(t) {
                        tris[kept] = t;
                        kept += 1;
                    }
                }
                *len = kept as u8;
            }
            Fan::Spilled(tris) => {
                tris.retain(|&t| keep(t));
                if tris.len() <= FAN_INLINE {
                    let mut inline = [0; FAN_INLINE];
                    inline[..tris.len()].copy_from_slice(tris);
                    *self = Fan::Inline(tris.len() as u8, inline);
                }
            }
        }
    }
}

/// One arena slot: a front vertex with its fan, or a freed slot waiting
/// on the free list (`node.id == NIL_ID`, empty fan).
#[derive(Clone)]
struct Slot {
    node: PmNode,
    fan: Fan,
}

/// The explicit front mesh, a slot arena: each vertex lives in a slot
/// with its fan inline and is found by PM node id through `slot_of`;
/// freed slots are reused. Triangle corners are slots, so fan walks and
/// orientation tests index arrays — ids appear only at the API.
#[derive(Clone, Default)]
pub struct FrontMesh {
    slots: Vec<Slot>,
    slot_of: FxHashMap<u32, u32>,
    free: Vec<u32>,
    /// Every triangle is live: a split rewrites corners and adds seams,
    /// nothing removes one.
    tris: Vec<[u32; 3]>,
}

impl FrontMesh {
    /// Build from active records and their triangles (over node ids).
    /// Triangles given in either winding are normalized to CCW.
    pub fn from_parts(records: Vec<PmNode>, triangles: &[[u32; 3]]) -> Self {
        let mut fm = FrontMesh::default();
        fm.rebuild(records, triangles);
        fm
    }

    /// [`Self::from_parts`] into this front: the contents are replaced
    /// and the allocations kept, so a caller that builds a front every
    /// frame stops reallocating it.
    pub fn rebuild(&mut self, records: impl IntoIterator<Item = PmNode>, triangles: &[[u32; 3]]) {
        self.slots.clear();
        self.slot_of.clear();
        self.free.clear();
        self.tris.clear();
        let records = records.into_iter();
        self.slots.reserve(records.size_hint().0);
        self.slot_of.reserve(records.size_hint().0);
        for r in records {
            // A repeated id keeps its slot and takes the later record.
            match self.slot_of.entry(r.id) {
                Entry::Occupied(e) => self.slots[*e.get() as usize].node = r,
                Entry::Vacant(e) => {
                    e.insert(self.slots.len() as u32);
                    self.slots.push(Slot {
                        node: r,
                        fan: Fan::default(),
                    });
                }
            }
        }
        self.tris.reserve(triangles.len());
        for t in triangles {
            let t = t.map(|id| self.slot(id).expect("triangle vertex present"));
            self.add_triangle_normalized(t);
        }
    }

    fn slot(&self, id: u32) -> Option<u32> {
        self.slot_of.get(&id).copied()
    }

    fn id_at(&self, slot: u32) -> u32 {
        self.slots[slot as usize].node.id
    }

    fn pos2(&self, slot: u32) -> Vec2 {
        self.slots[slot as usize].node.pos.xy()
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
        let tri = self.tris.len() as u32;
        self.tris.push(t);
        for v in t {
            self.slots[v as usize].fan.push(tri);
        }
    }

    /// A slot for `node`: a freed one if any, else a new one.
    fn alloc(&mut self, node: PmNode) -> u32 {
        if let Some(s) = self.free.pop() {
            self.slots[s as usize].node = node;
            return s;
        }
        self.slots.push(Slot {
            node,
            fan: Fan::default(),
        });
        self.slots.len() as u32 - 1
    }

    pub fn contains(&self, id: u32) -> bool {
        self.slot_of.contains_key(&id)
    }

    pub fn node(&self, id: u32) -> Option<&PmNode> {
        self.slot(id).map(|s| &self.slots[s as usize].node)
    }

    pub fn num_vertices(&self) -> usize {
        self.slot_of.len()
    }

    pub fn num_triangles(&self) -> usize {
        self.tris.len()
    }

    fn live_nodes(&self) -> impl Iterator<Item = &PmNode> + '_ {
        self.slots
            .iter()
            .map(|s| &s.node)
            .filter(|n| n.id != NIL_ID)
    }

    /// Ids of the active vertices, in slot order.
    pub fn vertex_ids(&self) -> impl Iterator<Item = u32> + '_ {
        self.live_nodes().map(|n| n.id)
    }

    /// Every active vertex with its record, in slot order — for callers
    /// that need both id and node (the canonical wire extraction sorts
    /// afterwards anyway).
    pub fn iter_nodes(&self) -> impl Iterator<Item = (u32, &PmNode)> + '_ {
        self.live_nodes().map(|n| (n.id, n))
    }

    pub fn triangles(&self) -> impl Iterator<Item = [u32; 3]> + '_ {
        self.tris.iter().map(|t| t.map(|s| self.id_at(s)))
    }

    /// Unique neighbour slots of the vertex in slot `v`, in fan order,
    /// into a reused buffer.
    fn neighbors_into(&self, v: u32, out: &mut Vec<u32>) {
        out.clear();
        for &t in self.slots[v as usize].fan.as_slice() {
            for &o in &self.tris[t as usize] {
                if o != v && !out.contains(&o) {
                    out.push(o);
                }
            }
        }
    }

    /// The neighbour slots of slot `v` in circular fan order (CCW), left
    /// in `s.cycle`; `s.fan` holds `(a, b)` of each incident CCW triangle
    /// `(v, a, b)` in the vertex's fan order and `s.neighbors` its unique
    /// neighbours. For boundary vertices the cycle is closed virtually
    /// across the gap. Fans are a dozen wide at most, so successor and
    /// predecessor lookups are linear scans of `s.fan`. `None` for a
    /// non-manifold or corrupt fan.
    fn neighbor_cycle(&self, v: u32, s: &mut SplitScratch) -> Option<()> {
        s.fan.clear();
        s.cycle.clear();
        for &t in self.slots[v as usize].fan.as_slice() {
            let tri = self.tris[t as usize];
            let k = tri.iter().position(|&x| x == v).expect("incident");
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
            .unwrap_or_else(|| {
                s.fan
                    .iter()
                    .map(|f| f.0)
                    .min_by_key(|&a| self.id_at(a))
                    .expect("nonempty fan")
            });
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
        self.neighbors_into(v, &mut s.neighbors);
        if s.cycle.len() < s.neighbors.len() {
            let center = self.pos2(v);
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

    /// Commit a checked split of slot `v`: `c1` takes `v`'s slot, so the
    /// triangles it inherits keep their corners, and `c2` a slot of its
    /// own, rewriting the corner of each fan triangle `to_c1` (in fan
    /// order) hands it. Then the seams `(c1, c2, r)` / `(c2, c1, r)` for
    /// each wing representative slot `r`. A fanless seed already holding
    /// a child's id is absorbed: `c2` keeps its slot, `c1`'s is freed.
    /// Returns the children's slots.
    fn split_slot(
        &mut self,
        v: u32,
        c1: PmNode,
        c2: PmNode,
        to_c1: &[bool],
        seams: [Option<u32>; 2],
    ) -> [u32; 2] {
        let vid = self.id_at(v);
        self.slot_of.remove(&vid);
        if let Some(seed) = self.slot_of.insert(c1.id, v) {
            self.slots[seed as usize].node.id = NIL_ID;
            self.free.push(seed);
        }
        self.slots[v as usize].node = c1;
        let s2 = match self.slot(c2.id) {
            Some(s2) => {
                self.slots[s2 as usize].node = c2;
                s2
            }
            None => {
                let s2 = self.alloc(c2);
                self.slot_of.insert(c2.id, s2);
                s2
            }
        };
        let mut fan2 = Fan::default();
        let mut sides = to_c1.iter();
        let (slots, tris) = (&mut self.slots, &mut self.tris);
        slots[v as usize].fan.retain(|t| {
            let keep = *sides.next().expect("one side per fan triangle");
            if !keep {
                let tri = &mut tris[t as usize];
                let k = tri.iter().position(|&x| x == v).expect("incident");
                tri[k] = s2;
                fan2.push(t);
            }
            keep
        });
        slots[s2 as usize].fan = fan2;
        if let Some(r) = seams[0] {
            self.add_triangle([v, s2, r]);
        }
        if let Some(r) = seams[1] {
            self.add_triangle([s2, v, r]);
        }
        [v, s2]
    }

    /// Number of mesh edges bordered by exactly one triangle — the hull
    /// plus any seams/holes; a diagnostic for multi-base stitching.
    pub fn boundary_edge_count(&self) -> usize {
        let mut counts: FxHashMap<(u32, u32), u32> = FxHashMap::default();
        for t in &self.tris {
            for i in 0..3 {
                let a = t[i].min(t[(i + 1) % 3]);
                let b = t[i].max(t[(i + 1) % 3]);
                *counts.entry((a, b)).or_insert(0) += 1;
            }
        }
        counts.values().filter(|&&c| c == 1).count()
    }

    /// Convert to a validated-friendly `TriMesh` (compact ids, ascending
    /// by PM node id). Returns the mesh and the PM node id of each
    /// compact vertex.
    pub fn to_trimesh(&self) -> (dm_terrain::TriMesh, Vec<u32>) {
        let mut order: Vec<u32> = (0..self.slots.len() as u32)
            .filter(|&s| self.id_at(s) != NIL_ID)
            .collect();
        order.sort_unstable_by_key(|&s| self.id_at(s));
        let mut compact = vec![0u32; self.slots.len()];
        let mut mesh = dm_terrain::TriMesh::new();
        for (i, &s) in order.iter().enumerate() {
            compact[s as usize] = i as u32;
            mesh.add_vertex(self.slots[s as usize].node.pos);
        }
        for t in &self.tris {
            mesh.add_triangle(t.map(|s| compact[s as usize]));
        }
        (mesh, order.iter().map(|&s| self.id_at(s)).collect())
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
        .live_nodes()
        .filter(|n| needs_split(n, target))
        .map(heap_item)
        .collect();
    // Ids whose split is known to be impossible (don't retry forever).
    let mut dead_ends: FxHashSet<u32> = Default::default();
    let mut scratch = SplitScratch {
        ceiling: id_ceiling(front, source),
        ..SplitScratch::default()
    };

    while let Some(item) = heap.pop() {
        let id = item.id;
        if dead_ends.contains(&id) {
            continue;
        }
        let Some(v) = front.slot(id) else {
            continue;
        };
        if !needs_split(&front.slots[v as usize].node, target) {
            continue;
        }
        match split_vertex(front, source, v, 0, &mut stats, &mut scratch) {
            SplitOutcome::Done(children) => {
                stats.splits += 1;
                push_unsatisfied(&mut heap, front, children, target);
            }
            SplitOutcome::DidForcedWork(new_actives) => {
                // Forced splits expanded other subtrees; requeue what
                // they activated plus this vertex.
                push_unsatisfied(&mut heap, front, new_actives, target);
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

/// Queue the just-activated `slots` that still violate `target`.
fn push_unsatisfied(
    heap: &mut BinaryHeap<HeapItem>,
    front: &FrontMesh,
    slots: [u32; 2],
    target: &dyn LodTarget,
) {
    for s in slots {
        let n = &front.slots[s as usize].node;
        if needs_split(n, target) {
            heap.push(heap_item(n));
        }
    }
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
        front.vertex_ids().max().unwrap_or(0)
    } else {
        u32::MAX
    }
}

enum SplitOutcome {
    /// Split succeeded; the two children's slots.
    Done([u32; 2]),
    /// Could not split yet, but a forced split changed the front; the
    /// slots it activated are returned and the caller should retry.
    DidForcedWork([u32; 2]),
    /// Permanently impossible (missing records / unresolvable geometry).
    Blocked,
}

const MAX_FORCE_DEPTH: u32 = 48;

/// The split path's buffers, reused across every split of one
/// [`refine`] run (a forced split returns straight after recursing, so
/// one set serves the whole recursion), and the run's [`id_ceiling`].
/// Everything but the ceiling holds slots.
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
            SplitOutcome::DidForcedWork(children)
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
    v: u32,
    depth: u32,
    stats: &mut RefineStats,
    s: &mut SplitScratch,
) -> SplitOutcome {
    if depth > MAX_FORCE_DEPTH {
        stats.blocked += 1;
        return SplitOutcome::Blocked;
    }
    let node = front.slots[v as usize].node;
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
    let has_fan = |c: u32| {
        front
            .slot(c)
            .is_some_and(|k| !front.slots[k as usize].fan.is_empty())
    };
    if has_fan(c1.id) || has_fan(c2.id) {
        stats.blocked += 1;
        return SplitOutcome::Blocked;
    }

    // Resolve each recorded wing to an active representative adjacent to v:
    // the wing itself, else the earliest-created neighbour related to it.
    // Ids decide, slots travel: a representative is `(id, slot)`.
    front.neighbors_into(v, &mut s.neighbors);
    let mut reps: [Option<u32>; 2] = [None, None];
    for (k, wing) in [node.wing1, node.wing2].into_iter().enumerate() {
        if wing == NIL_ID {
            continue;
        }
        let mut rep: Option<(u32, u32)> = None;
        for &n in &s.neighbors {
            let id = front.id_at(n);
            if id == wing {
                rep = Some((id, n));
            } else if source.related(id, wing) && rep.map(|r| r.0) != Some(wing) {
                rep = Some(rep.map_or((id, n), |r| r.min((id, n))));
            }
        }
        if rep.is_none() {
            // The wing's subtree is not expanded next to v — force-split
            // the active node that must contain it.
            match active_ancestor_of(front, source, wing, s.ceiling) {
                WingCover::Active(anc) if anc != v => {
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
        reps[k] = rep.map(|r| r.1);
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

    match perform_split(front, v, c1, c2, reps, s) {
        Ok(children) => SplitOutcome::Done(children),
        Err(()) => {
            stats.blocked += 1;
            SplitOutcome::Blocked
        }
    }
}

/// Result of looking for the active node covering a wing.
enum WingCover {
    /// The slot of the active node whose subtree contains the wing.
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
        if let Some(s) = front.slot(cur) {
            return WingCover::Active(s);
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

/// Execute the split of slot `v` into `c1`/`c2` with resolved
/// (side-ordered) wing representative slots: `reps[0]` descends from the
/// recorded `wing1` (the wing for which `(c1, c2, wing1)` wound CCW at
/// collapse time), `reps[1]` from `wing2`.
///
/// The neighbour fan of `v` is partitioned combinatorially: walking the
/// CCW cycle, the sectors from `rep1` to `rep2` belong to `c1`, the rest
/// to `c2` (this is exactly how the collapse merged the two fans). The
/// front is unchanged on `Err`; on `Ok` the children's slots.
fn perform_split(
    front: &mut FrontMesh,
    v: u32,
    c1: PmNode,
    c2: PmNode,
    reps: [Option<u32>; 2],
    s: &mut SplitScratch,
) -> Result<[u32; 2], ()> {
    front.neighbor_cycle(v, s).ok_or(())?;
    let (cycle, l) = (&s.cycle, s.cycle.len());
    s.to_c1.clear();
    // The representative closing each seam: `(c1, c2, rep1)` and
    // `(c2, c1, rep2)`.
    let mut seams: [Option<u32>; 2] = [None, None];
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
            seams[0] = Some(r);
        }
        if let Some(r) = reps[1] {
            if orient2d(c2.pos.xy(), c1.pos.xy(), front.pos2(r)) <= 0.0 {
                return Err(());
            }
            seams[1] = Some(r);
        }
    }
    Ok(front.split_slot(v, c1, c2, &s.to_c1, seams))
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
        // A server session's front and targets travel with each job to
        // whichever worker runs it, and workers share node data by
        // reference; these bounds are load-bearing, not incidental.
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
        // Reverse id order, so that slot order is not id order and a rule
        // that must compare ids cannot compare slots unnoticed.
        records.reverse();
        let mut fm = FrontMesh::from_parts(records, &[]);
        // Straight into the table: `from_parts` would reorient or drop
        // the deliberately inconsistent triangles of the broken fans.
        for t in tris {
            fm.add_triangle(t.map(|id| fm.slot(id).expect("fan vertex")));
        }
        fm
    }

    /// The hash-map `neighbor_cycle` this module used before the linear
    /// one — the reference the new one is held to. Works on ids.
    fn neighbor_cycle_oracle(fm: &FrontMesh, id: u32) -> Option<Vec<u32>> {
        let v = fm.slot(id)?;
        let fan = fm.slots[v as usize].fan.as_slice();
        if fan.is_empty() {
            return Some(Vec::new());
        }
        let mut succ: FxHashMap<u32, u32> = FxHashMap::default();
        let mut has_pred: FxHashMap<u32, bool> = FxHashMap::default();
        for &t in fan {
            let tri = fm.tris[t as usize].map(|s| fm.id_at(s));
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
        let mut slots = Vec::new();
        fm.neighbors_into(v, &mut slots);
        let mut all_neighbors: Vec<u32> = slots.iter().map(|&s| fm.id_at(s)).collect();
        if cycle.len() < all_neighbors.len() {
            let center = fm.node(id).expect("fan vertex").pos.xy();
            let pos = |n: u32| fm.node(n).expect("neighbour").pos.xy();
            all_neighbors.sort_by(|&a, &b| {
                dm_geom::tri::angle_around(center, pos(a))
                    .partial_cmp(&dm_geom::tri::angle_around(center, pos(b)))
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            return Some(all_neighbors);
        }
        Some(cycle)
    }

    fn cycle_of(fm: &FrontMesh, id: u32) -> Option<Vec<u32>> {
        let mut s = SplitScratch::default();
        fm.neighbor_cycle(fm.slot(id)?, &mut s)
            .map(|()| s.cycle.iter().map(|&k| fm.id_at(k)).collect())
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
            let v = front.slot(id).expect("live vertex");
            let mut neigh = Vec::new();
            front.neighbors_into(v, &mut neigh);
            assert_eq!(got.len(), neigh.len());
            // Only a closed fan leaves the oracle's start to its hash map.
            if front.slots[v as usize].fan.as_slice().len() == neigh.len() {
                let k = want.iter().position(|&n| n == got[0]).expect("same ring");
                want.rotate_left(k);
            }
            assert_eq!(got, want, "fan of vertex {id}");
        }
    }

    #[test]
    fn a_wide_fan_spills_and_returns_inline_like_a_vec() {
        // Fourteen triangles: four past the inline capacity.
        let mut fan = Fan::default();
        let mut model: Vec<u32> = Vec::new();
        let check = |fan: &Fan, model: &[u32]| {
            assert_eq!(fan.as_slice(), model);
            assert_eq!(fan.is_empty(), model.is_empty());
            assert_eq!(
                matches!(fan, Fan::Spilled(_)),
                model.len() > FAN_INLINE,
                "spilled exactly when wider than the inline capacity"
            );
        };
        for t in 0..14u32 {
            fan.push(t * 7);
            model.push(t * 7);
            check(&fan, &model);
        }
        // Each rule drops some triangles: spilled → spilled, then twice
        // spilled → exactly the inline capacity (un-spill), then all.
        let rules: [fn(u32) -> bool; 4] = [|t| t != 21, |t| t <= 70, |t| t % 2 == 0, |_| false];
        for (round, keep) in rules.into_iter().enumerate() {
            let mut seen = Vec::new();
            fan.retain(|t| {
                seen.push(t);
                keep(t)
            });
            assert_eq!(seen, model, "round {round}: every triangle once, in order");
            model.retain(|&t| keep(t));
            check(&fan, &model);
            for t in 0..(3 * round as u32 + 4) {
                fan.push(1000 + t);
                model.push(1000 + t);
                check(&fan, &model);
            }
        }
    }

    #[test]
    fn a_fourteen_wide_fan_cycles_from_its_smallest_neighbour() {
        let angles: Vec<f64> = (0..14).map(|i| 360.0 * f64::from(i) / 14.0).collect();
        let tris: Vec<[u32; 3]> = (1..=14u32).rev().map(|a| [0, a, a % 14 + 1]).collect();
        let fm = fan_front(&angles, &tris);
        let fan = &fm.slots[fm.slot(0).expect("centre") as usize].fan;
        assert!(matches!(fan, Fan::Spilled(_)));
        assert_eq!(fan.as_slice(), &(0..14).collect::<Vec<u32>>()[..]);
        let got = cycle_of(&fm, 0).expect("manifold fan");
        assert_eq!(got, (1..=14).collect::<Vec<u32>>());
        let mut want = neighbor_cycle_oracle(&fm, 0).expect("manifold fan");
        let k = want.iter().position(|&n| n == 1).expect("same ring");
        want.rotate_left(k);
        assert_eq!(got, want);
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

    impl<'a> RoiThenHierarchy<'a> {
        fn new(h: &'a PmHierarchy, roi: &dm_geom::Rect) -> Self {
            RoiThenHierarchy {
                roi: h
                    .nodes
                    .iter()
                    .filter(|n| roi.contains(n.pos.xy()))
                    .map(|n| (n.id, *n))
                    .collect(),
                h,
                fetches: 0,
            }
        }
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

    fn sorted_ids(front: &FrontMesh) -> Vec<u32> {
        let mut ids: Vec<u32> = front.vertex_ids().collect();
        ids.sort_unstable();
        ids
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

    /// A uniform cut at `e0` clipped to `roi`: the vertices inside, and
    /// the faces with every corner inside.
    fn clipped_seed(h: &PmHierarchy, roi: &dm_geom::Rect, e0: f64) -> (Vec<PmNode>, Vec<[u32; 3]>) {
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
        (records, faces)
    }

    /// [`clipped_seed`] refined toward `target` over the ROI's records
    /// with the hierarchy behind them: once over the complete source,
    /// once over the same source reporting incomplete. Returns `(vertex
    /// ids, faces, stats, source fetches)` for each run.
    #[allow(clippy::type_complexity)]
    fn clipped_refine_both_ways(
        h: &PmHierarchy,
        roi: &dm_geom::Rect,
        e0: f64,
        target: &dyn LodTarget,
    ) -> [(Vec<u32>, Vec<[u32; 3]>, RefineStats, usize); 2] {
        let (records, faces) = clipped_seed(h, roi, e0);
        [true, false].map(|complete| {
            let mut front = FrontMesh::from_parts(records.clone(), &faces);
            let mut source = RoiThenHierarchy::new(h, roi);
            let stats = if complete {
                refine(&mut front, &mut source, target)
            } else {
                refine(&mut front, &mut Incomplete(&mut source), target)
            };
            (
                sorted_ids(&front),
                canonical_faces(&front),
                stats,
                source.fetches,
            )
        })
    }

    /// Every invariant of the slot arena: live ids and slots are a
    /// bijection, the free list is exactly the dead slots, every
    /// triangle's corners are live, each fan is exactly its vertex's
    /// incident triangles in push (= table) order, no face appears twice
    /// up to rotation, and the mesh validates.
    fn check_arena(front: &FrontMesh) {
        let n = front.slots.len() as u32;
        let live = |s: u32| front.id_at(s) != NIL_ID;
        assert_eq!(
            front.slot_of.len(),
            (0..n).filter(|&s| live(s)).count(),
            "one map entry per live slot"
        );
        for (&id, &s) in &front.slot_of {
            assert!(s < n && front.id_at(s) == id, "id {id} maps to slot {s}");
        }
        let mut free = front.free.clone();
        free.sort_unstable();
        let dead: Vec<u32> = (0..n).filter(|&s| !live(s)).collect();
        assert_eq!(free, dead, "the free list is exactly the dead slots");
        let mut fans = vec![Vec::new(); n as usize];
        for (t, tri) in front.tris.iter().enumerate() {
            for &c in tri {
                assert!(c < n && live(c), "triangle {t} has a dead corner {c}");
                fans[c as usize].push(t as u32);
            }
        }
        for (s, fan) in fans.iter().enumerate() {
            assert_eq!(front.slots[s].fan.as_slice(), &fan[..], "fan of slot {s}");
        }
        let faces = canonical_faces(front);
        assert!(
            faces.windows(2).all(|w| w[0] != w[1]),
            "a face appears twice"
        );
        let (mesh, _) = front.to_trimesh();
        mesh.validate().expect("the arena front is a valid mesh");
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

        /// The arena's invariants hold on a ROI-clipped seed front and
        /// after refining it, over a source that falls through to the
        /// hierarchy and over the ROI's records alone; a front recycled
        /// from another run and rebuilt from the same parts refines to the
        /// same answer with the same counters as a fresh one.
        #[test]
        fn arena_invariants_hold_and_a_rebuilt_front_refines_alike(
            side in 9usize..34,
            seed in 0u64..1000,
            corner in (0.0..0.5f64, 0.0..0.5f64),
            extent in 0.3..0.7f64,
            fracs in (0.5..0.95f64, 0.0..1.0f64),
            plane in proptest::prelude::any::<bool>(),
            fetch_on_miss in proptest::prelude::any::<bool>(),
            stride in 0usize..6,
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
            let (mut records, faces) = clipped_seed(h, &roi, e0);
            // Fanless seeds below the cut, as topmost seeding over a
            // staircase leaves them: a split reaching one absorbs it and
            // frees its slot.
            if stride > 0 {
                let below: Vec<PmNode> = records
                    .iter()
                    .step_by(stride)
                    .filter(|n| !n.is_leaf())
                    .map(|n| *h.node(n.child1))
                    .collect();
                records.extend(below);
            }
            let run = |front: &mut FrontMesh| {
                let mut source = RoiThenHierarchy::new(h, &roi);
                if fetch_on_miss {
                    refine(front, &mut source, target)
                } else {
                    refine(front, &mut source.roi, target)
                }
            };

            let mut fresh = FrontMesh::from_parts(records.clone(), &faces);
            check_arena(&fresh);
            let stats = run(&mut fresh);
            check_arena(&fresh);

            let mut recycled = root_front(h);
            let mut full: &PmHierarchy = h;
            refine(&mut recycled, &mut full, &UniformTarget(0.0));
            recycled.rebuild(records, &faces);
            check_arena(&recycled);
            let again = run(&mut recycled);
            check_arena(&recycled);
            proptest::prop_assert_eq!(again, stats, "refine stats");
            proptest::prop_assert_eq!(sorted_ids(&recycled), sorted_ids(&fresh));
            proptest::prop_assert_eq!(canonical_faces(&recycled), canonical_faces(&fresh));
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
