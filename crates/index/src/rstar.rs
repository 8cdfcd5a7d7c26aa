//! A disk-based 3D R\*-tree (Beckmann, Kriegel, Schneider & Seeger, 1990).
//!
//! This is the index the paper builds over Direct Mesh nodes: each node is
//! a vertical segment in `(x, y, e)` space and queries are boxes (possibly
//! degenerate "query planes"). The tree also serves 2D uses (HDoV tiles)
//! by leaving the third dimension degenerate.
//!
//! Node pages hold up to [`CAP`] entries of 56 bytes (an `f64` box plus a
//! `u64` payload: data for leaves, child page id for internal nodes).
//! Implemented:
//!
//! * dynamic insertion with the full R\* heuristics — choose-subtree by
//!   overlap enlargement (with the 32-candidate optimization), forced
//!   reinsertion of 30 % on first overflow per level, and the
//!   margin-driven axis/distribution split,
//! * Sort-Tile-Recursive bulk loading (x/y/z tiling),
//! * range queries over the buffer pool, so every node touched is a
//!   counted disk access.
//!
//! Deletion is not implemented: terrain datasets are write-once.

use std::sync::Arc;

use dm_geom::{Box3, Vec3};
use dm_storage::page::{codec, PageId, PAGE_DATA};
use dm_storage::BufferPool;
use dm_storage::StorageResult;

const HDR: usize = 8;
const ENTRY: usize = 56; // 6 × f64 box + u64 payload
/// Maximum entries per node.
pub const CAP: usize = (PAGE_DATA - HDR) / ENTRY; // 146 (unchanged by the checksum trailer)
/// Minimum fill after a split (40 % of CAP, the R* recommendation).
pub const MIN_FILL: usize = (CAP * 2) / 5; // 58
/// Entries removed by forced reinsertion (30 % of CAP).
pub const REINSERT_P: usize = (CAP * 3) / 10; // 43
/// Candidate subset size for the overlap-enlargement choose-subtree test.
const CHOOSE_CANDIDATES: usize = 32;

#[derive(Clone, Copy, Debug)]
struct Entry {
    bbox: Box3,
    val: u64,
}

struct Node {
    is_leaf: bool,
    entries: Vec<Entry>,
}

impl Node {
    fn mbr(&self) -> Box3 {
        let mut b = Box3::EMPTY;
        for e in &self.entries {
            b = b.union(&e.bbox);
        }
        b
    }
}

enum Outcome {
    /// Insert absorbed; the subtree MBR is now this.
    Ok(Box3),
    /// The child node split; `old_box` is the kept page's new MBR and
    /// `new_entry` points at the freshly allocated sibling.
    Split { old_box: Box3, new_entry: Entry },
    /// Forced reinsertion: the node shed `pending` entries (tagged with
    /// the level they must re-enter at).
    Reinsert {
        old_box: Box3,
        pending: Vec<(Entry, u32)>,
    },
}

/// What [`RStarTree::try_collect_regions`] walks out of a tree.
pub struct TreeRegions {
    /// Every leaf entry, `(box, payload)`.
    pub leaves: Vec<(Box3, u64)>,
    /// Every node's MBR (all levels, root included).
    pub nodes: Vec<Box3>,
    /// Every node's page, in the order of `nodes`.
    pub pages: Vec<PageId>,
}

/// The R\*-tree.
pub struct RStarTree {
    pool: Arc<BufferPool>,
    root: PageId,
    height: u32, // number of levels; leaf level is 0, root level is height-1
    len: u64,
}

impl RStarTree {
    pub fn new(pool: Arc<BufferPool>) -> Self {
        let root = pool.allocate();
        write_node(
            &pool,
            root,
            &Node {
                is_leaf: true,
                entries: Vec::new(),
            },
        );
        RStarTree {
            pool,
            root,
            height: 1,
            len: 0,
        }
    }

    pub fn len(&self) -> u64 {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn height(&self) -> u32 {
        self.height
    }

    pub fn root_page(&self) -> PageId {
        self.root
    }

    /// Reattach to an existing tree (catalog reload).
    pub fn from_parts(pool: Arc<BufferPool>, root: PageId, height: u32, len: u64) -> Self {
        RStarTree {
            pool,
            root,
            height,
            len,
        }
    }

    /// Insert one entry using the R\* heuristics.
    pub fn insert(&mut self, bbox: Box3, data: u64) {
        let mut reinserted = vec![false; self.height as usize];
        self.insert_entry(Entry { bbox, val: data }, 0, &mut reinserted);
        self.len += 1;
    }

    fn insert_entry(&mut self, entry: Entry, target_level: u32, reinserted: &mut Vec<bool>) {
        let root_level = self.height - 1;
        match self.insert_rec(self.root, root_level, entry, target_level, reinserted) {
            Outcome::Ok(_) => {}
            Outcome::Split { old_box, new_entry } => {
                let old_root = self.root;
                let new_root = self.pool.allocate();
                write_node(
                    &self.pool,
                    new_root,
                    &Node {
                        is_leaf: false,
                        entries: vec![
                            Entry {
                                bbox: old_box,
                                val: old_root as u64,
                            },
                            new_entry,
                        ],
                    },
                );
                self.root = new_root;
                self.height += 1;
                reinserted.resize(self.height as usize, true); // no reinsert at new root level
            }
            Outcome::Reinsert { pending, .. } => {
                for (e, level) in pending {
                    self.insert_entry(e, level, reinserted);
                }
            }
        }
    }

    fn insert_rec(
        &mut self,
        page: PageId,
        level: u32,
        entry: Entry,
        target_level: u32,
        reinserted: &mut Vec<bool>,
    ) -> Outcome {
        let mut node = read_node(&self.pool, page);
        if level == target_level {
            node.entries.push(entry);
            if node.entries.len() <= CAP {
                let mbr = node.mbr();
                write_node(&self.pool, page, &node);
                return Outcome::Ok(mbr);
            }
            return self.overflow_treatment(page, node, level, reinserted);
        }

        debug_assert!(!node.is_leaf, "reached leaf above target level");
        let idx = choose_subtree(
            &node,
            &entry.bbox,
            level == target_level + 1 && target_level == 0,
        );
        let child = node.entries[idx].val as PageId;
        match self.insert_rec(child, level - 1, entry, target_level, reinserted) {
            Outcome::Ok(newbox) => {
                node.entries[idx].bbox = newbox;
                let mbr = node.mbr();
                write_node(&self.pool, page, &node);
                Outcome::Ok(mbr)
            }
            Outcome::Reinsert { old_box, pending } => {
                node.entries[idx].bbox = old_box;
                let mbr = node.mbr();
                write_node(&self.pool, page, &node);
                Outcome::Reinsert {
                    old_box: mbr,
                    pending,
                }
            }
            Outcome::Split { old_box, new_entry } => {
                node.entries[idx].bbox = old_box;
                node.entries.push(new_entry);
                if node.entries.len() <= CAP {
                    let mbr = node.mbr();
                    write_node(&self.pool, page, &node);
                    return Outcome::Ok(mbr);
                }
                self.overflow_treatment(page, node, level, reinserted)
            }
        }
    }

    fn overflow_treatment(
        &mut self,
        page: PageId,
        mut node: Node,
        level: u32,
        reinserted: &mut [bool],
    ) -> Outcome {
        let root_level = self.height - 1;
        let lvl = level as usize;
        if level < root_level && lvl < reinserted.len() && !reinserted[lvl] {
            // Forced reinsertion: shed the P entries whose centres lie
            // farthest from the node centre.
            reinserted[lvl] = true;
            let center = node.mbr().center();
            node.entries.sort_by(|a, b| {
                let da = a.bbox.center().dist_sq(center);
                let db = b.bbox.center().dist_sq(center);
                da.partial_cmp(&db).unwrap_or(std::cmp::Ordering::Equal)
            });
            let keep = node.entries.len() - REINSERT_P;
            let removed: Vec<Entry> = node.entries.split_off(keep);
            let old_box = node.mbr();
            write_node(&self.pool, page, &node);
            Outcome::Reinsert {
                old_box,
                pending: removed.into_iter().map(|e| (e, level)).collect(),
            }
        } else {
            let (a, b) = rstar_split(std::mem::take(&mut node.entries));
            let is_leaf = node.is_leaf;
            let node_a = Node {
                is_leaf,
                entries: a,
            };
            let node_b = Node {
                is_leaf,
                entries: b,
            };
            let old_box = node_a.mbr();
            let new_box = node_b.mbr();
            write_node(&self.pool, page, &node_a);
            let new_page = self.pool.allocate();
            write_node(&self.pool, new_page, &node_b);
            Outcome::Split {
                old_box,
                new_entry: Entry {
                    bbox: new_box,
                    val: new_page as u64,
                },
            }
        }
    }

    /// Bulk-load with Sort-Tile-Recursive packing (x, then y, then z
    /// tiling). `fill` in `(0, 1]` is the target node occupancy.
    pub fn bulk_load(pool: Arc<BufferPool>, items: Vec<(Box3, u64)>, fill: f64) -> Self {
        assert!(fill > 0.0 && fill <= 1.0);
        if items.is_empty() {
            return RStarTree::new(pool);
        }
        let cap = ((CAP as f64 * fill) as usize).clamp(2, CAP);
        let len = items.len() as u64;
        let mut entries: Vec<Entry> = items
            .into_iter()
            .map(|(bbox, val)| Entry { bbox, val })
            .collect();
        let mut height = 1u32;
        let mut is_leaf = true;
        loop {
            entries = str_pack_level(&pool, entries, cap, is_leaf);
            if entries.len() == 1 {
                let root = entries[0].val as PageId;
                return RStarTree {
                    pool,
                    root,
                    height,
                    len,
                };
            }
            is_leaf = false;
            height += 1;
        }
    }

    /// Range query: `f` is called for every leaf entry whose box
    /// intersects `q`. Returns the number of matching entries.
    ///
    /// Every visited node is load-bearing for completeness, so any page
    /// error aborts the query (a partial index answer would silently drop
    /// whole subtrees).
    pub fn try_query(&self, q: &Box3, mut f: impl FnMut(&Box3, u64)) -> StorageResult<usize> {
        let mut hits = 0;
        let mut stack = vec![self.root];
        while let Some(page) = stack.pop() {
            let node = try_read_node(&self.pool, page)?;
            for e in &node.entries {
                if e.bbox.intersects(q) {
                    if node.is_leaf {
                        hits += 1;
                        f(&e.bbox, e.val);
                    } else {
                        stack.push(e.val as PageId);
                    }
                }
            }
        }
        Ok(hits)
    }

    /// Infallible [`Self::try_query`]; panics on storage errors.
    pub fn query(&self, q: &Box3, f: impl FnMut(&Box3, u64)) -> usize {
        self.try_query(q, f)
            .unwrap_or_else(|e| panic!("rstar query: {e}"))
    }

    /// Multi-range query: one descent for a whole batch of boxes. A node
    /// is entered when its box intersects *any* query box, and `f` is
    /// called at most once per matching leaf entry — the union of what
    /// per-box [`Self::try_query`] calls would visit, but interior pages
    /// on paths shared between boxes are read once instead of once per
    /// box. Batch fetches (one VD staircase, a cube per strip) use this
    /// to keep index I/O independent of how many cubes a plan has.
    pub fn try_query_multi(
        &self,
        qs: &[Box3],
        mut f: impl FnMut(&Box3, u64),
    ) -> StorageResult<usize> {
        if qs.is_empty() {
            return Ok(0);
        }
        let mut hits = 0;
        let mut stack = vec![self.root];
        while let Some(page) = stack.pop() {
            let node = try_read_node(&self.pool, page)?;
            for e in &node.entries {
                if qs.iter().any(|q| e.bbox.intersects(q)) {
                    if node.is_leaf {
                        hits += 1;
                        f(&e.bbox, e.val);
                    } else {
                        stack.push(e.val as PageId);
                    }
                }
            }
        }
        Ok(hits)
    }

    /// Copy-on-write leaf-value replacement: produce a new tree in which
    /// every leaf entry whose payload appears as a key of `repl` is
    /// replaced by that key's `(box, payload)` list (one entry when a
    /// data page was rewritten in place, several when it split), without
    /// modifying any page of this tree. Nodes whose subtrees contain no
    /// replaced payload are shared between old and new tree; only the
    /// paths above changed leaves are copied to fresh pages. A node
    /// overflowing from spliced-in entries splits, and a split root grows
    /// the tree by one level — mirroring the insert path, but append-only.
    pub fn cow_replace_leaf_vals(
        &self,
        repl: &std::collections::HashMap<u64, Vec<(Box3, u64)>>,
    ) -> StorageResult<RStarTree> {
        let same = |root| {
            Ok(RStarTree {
                pool: Arc::clone(&self.pool),
                root,
                height: self.height,
                len: self.len,
            })
        };
        if repl.is_empty() {
            return same(self.root);
        }
        let mut delta = 0i64;
        match self.cow_replace_rec(self.root, repl, &mut delta)? {
            None => same(self.root),
            Some(mut entries) => {
                let mut height = self.height;
                while entries.len() > 1 {
                    entries = self.write_cow_groups(entries, false)?;
                    height += 1;
                }
                Ok(RStarTree {
                    pool: Arc::clone(&self.pool),
                    root: entries[0].val as PageId,
                    height,
                    len: (self.len as i64 + delta) as u64,
                })
            }
        }
    }

    /// Returns `None` when the subtree at `page` contains no replaced
    /// payload (share it), or the freshly written replacement entries for
    /// the parent (more than one if the node split).
    fn cow_replace_rec(
        &self,
        page: PageId,
        repl: &std::collections::HashMap<u64, Vec<(Box3, u64)>>,
        delta: &mut i64,
    ) -> StorageResult<Option<Vec<Entry>>> {
        let node = try_read_node(&self.pool, page)?;
        if node.is_leaf {
            if !node.entries.iter().any(|e| repl.contains_key(&e.val)) {
                return Ok(None);
            }
            let mut entries = Vec::with_capacity(node.entries.len());
            for e in &node.entries {
                if let Some(news) = repl.get(&e.val) {
                    *delta += news.len() as i64 - 1;
                    entries.extend(news.iter().map(|&(bbox, val)| Entry { bbox, val }));
                } else {
                    entries.push(*e);
                }
            }
            return self.write_cow_groups(entries, true).map(Some);
        }
        let mut changed = false;
        let mut entries = Vec::with_capacity(node.entries.len());
        for e in &node.entries {
            match self.cow_replace_rec(e.val as PageId, repl, delta)? {
                None => entries.push(*e),
                Some(repls) => {
                    changed = true;
                    entries.extend(repls);
                }
            }
        }
        if !changed {
            return Ok(None);
        }
        self.write_cow_groups(entries, false).map(Some)
    }

    /// Write `entries` to freshly allocated node page(s), splitting along
    /// the widest center axis while over [`CAP`], and return the parent
    /// entries describing them.
    fn write_cow_groups(&self, entries: Vec<Entry>, is_leaf: bool) -> StorageResult<Vec<Entry>> {
        fn split_to_cap(entries: Vec<Entry>) -> Vec<Vec<Entry>> {
            if entries.len() <= CAP {
                return vec![entries];
            }
            let mut best_axis = 0usize;
            let mut best_spread = f64::NEG_INFINITY;
            for d in 0..3 {
                let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
                for e in &entries {
                    let c = axis(e.bbox.center(), d);
                    lo = lo.min(c);
                    hi = hi.max(c);
                }
                if hi - lo > best_spread {
                    best_spread = hi - lo;
                    best_axis = d;
                }
            }
            let mut v = entries;
            sort_by_center(&mut v, best_axis);
            let right = v.split_off(v.len() / 2);
            let mut out = split_to_cap(v);
            out.extend(split_to_cap(right));
            out
        }
        let mut out = Vec::new();
        for group in split_to_cap(entries) {
            let page = self.pool.try_allocate()?;
            let node = Node {
                is_leaf,
                entries: group,
            };
            try_write_node(&self.pool, page, &node)?;
            out.push(Entry {
                bbox: node.mbr(),
                val: page as u64,
            });
        }
        Ok(out)
    }

    /// Collect every node's MBR (all levels, root included). Used by the
    /// cost model; runs over the buffer pool once at optimizer-statistics
    /// build time, not during measured queries.
    pub fn collect_node_regions(&self) -> Vec<Box3> {
        self.try_collect_node_regions()
            .unwrap_or_else(|e| panic!("rstar regions: {e}"))
    }

    /// Fallible [`Self::collect_node_regions`]: any unreadable node page
    /// aborts with a typed error instead of panicking, so degraded opens
    /// can detect a lost index (e.g. a truncated file tail) and fall back
    /// to heap scans rather than dying.
    pub fn try_collect_node_regions(&self) -> StorageResult<Vec<Box3>> {
        self.try_collect_regions().map(|regions| regions.nodes)
    }

    /// One walk of the whole tree: every leaf entry and every node's
    /// MBR. A page-granular index's leaf entries *are* its data pages'
    /// boxes, so a store reattaches from this without reading the data.
    pub fn try_collect_regions(&self) -> StorageResult<TreeRegions> {
        let mut regions = TreeRegions {
            leaves: Vec::new(),
            nodes: Vec::new(),
            pages: Vec::new(),
        };
        let mut stack = vec![self.root];
        while let Some(page) = stack.pop() {
            let node = try_read_node(&self.pool, page)?;
            regions.nodes.push(node.mbr());
            regions.pages.push(page);
            if node.is_leaf {
                regions
                    .leaves
                    .extend(node.entries.iter().map(|e| (e.bbox, e.val)));
            } else {
                stack.extend(node.entries.iter().map(|e| e.val as PageId));
            }
        }
        Ok(regions)
    }

    /// Number of nodes (pages) in the tree.
    pub fn num_nodes(&self) -> usize {
        self.collect_node_regions().len()
    }

    /// Structural validation (for tests): entry containment, fill factors,
    /// uniform leaf depth. Returns the total number of leaf entries.
    pub fn validate(&self) -> Result<u64, String> {
        let mut leaf_depth: Option<u32> = None;
        let mut count = 0u64;
        // (page, depth, parent_box)
        let mut stack: Vec<(PageId, u32, Option<Box3>)> = vec![(self.root, 0, None)];
        while let Some((page, depth, parent_box)) = stack.pop() {
            let node = read_node(&self.pool, page);
            if let Some(pb) = parent_box {
                let mbr = node.mbr();
                if !pb.contains_box(&mbr) {
                    return Err(format!("node {page}: parent box does not contain mbr"));
                }
            }
            if node.entries.len() > CAP {
                return Err(format!("node {page} overfull: {}", node.entries.len()));
            }
            if depth > 0 && node.entries.is_empty() {
                return Err(format!("non-root node {page} is empty"));
            }
            if node.is_leaf {
                match leaf_depth {
                    None => leaf_depth = Some(depth),
                    Some(d) if d != depth => {
                        return Err(format!("leaf depth mismatch: {d} vs {depth}"))
                    }
                    _ => {}
                }
                if depth + 1 != self.height {
                    return Err(format!("leaf at depth {depth} but height {}", self.height));
                }
                count += node.entries.len() as u64;
            } else {
                for e in &node.entries {
                    stack.push((e.val as PageId, depth + 1, Some(e.bbox)));
                }
            }
        }
        if count != self.len {
            return Err(format!("len {} != leaf entries {count}", self.len));
        }
        Ok(count)
    }
}

fn axis(v: Vec3, d: usize) -> f64 {
    match d {
        0 => v.x,
        1 => v.y,
        _ => v.z,
    }
}

/// R\* choose-subtree: overlap-enlargement criterion when the children are
/// leaves, volume enlargement otherwise.
fn choose_subtree(node: &Node, bbox: &Box3, children_are_leaves: bool) -> usize {
    debug_assert!(!node.entries.is_empty());
    if !children_are_leaves {
        return min_by_keys(
            node.entries
                .iter()
                .enumerate()
                .map(|(i, e)| (i, [e.bbox.enlargement(bbox), e.bbox.volume(), 0.0])),
        );
    }
    // Leaf level: among the CHOOSE_CANDIDATES entries with the least
    // volume enlargement, pick the one whose expansion adds the least
    // overlap with the siblings.
    let mut cand: Vec<(usize, f64)> = node
        .entries
        .iter()
        .enumerate()
        .map(|(i, e)| (i, e.bbox.enlargement(bbox)))
        .collect();
    cand.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
    cand.truncate(CHOOSE_CANDIDATES);
    min_by_keys(cand.into_iter().map(|(i, enlargement)| {
        let expanded = node.entries[i].bbox.union(bbox);
        let mut overlap_delta = 0.0;
        for (j, other) in node.entries.iter().enumerate() {
            if j != i {
                overlap_delta +=
                    expanded.overlap(&other.bbox) - node.entries[i].bbox.overlap(&other.bbox);
            }
        }
        (
            i,
            [overlap_delta, enlargement, node.entries[i].bbox.volume()],
        )
    }))
}

/// Pick the index with the lexicographically smallest key triple.
fn min_by_keys(iter: impl Iterator<Item = (usize, [f64; 3])>) -> usize {
    let mut best = 0usize;
    let mut best_key = [f64::INFINITY; 3];
    for (i, key) in iter {
        if key < best_key {
            best_key = key;
            best = i;
        }
    }
    best
}

/// The R\* split: choose the axis minimizing the margin sum over all
/// distributions, then the distribution minimizing overlap (ties by
/// combined volume).
fn rstar_split(entries: Vec<Entry>) -> (Vec<Entry>, Vec<Entry>) {
    let n = entries.len();
    debug_assert!(n > CAP);
    let mut best_axis = 0usize;
    let mut best_margin = f64::INFINITY;
    // Distributions are defined over two sorted orders per axis (by lower
    // and by upper coordinate).
    let sorted = |d: usize, by_max: bool| -> Vec<Entry> {
        let mut v = entries.clone();
        v.sort_by(|a, b| {
            let ka = if by_max {
                axis(a.bbox.max, d)
            } else {
                axis(a.bbox.min, d)
            };
            let kb = if by_max {
                axis(b.bbox.max, d)
            } else {
                axis(b.bbox.min, d)
            };
            ka.partial_cmp(&kb).unwrap_or(std::cmp::Ordering::Equal)
        });
        v
    };
    for d in 0..3 {
        let mut margin_sum = 0.0;
        for by_max in [false, true] {
            let v = sorted(d, by_max);
            for k in MIN_FILL..=(n - MIN_FILL) {
                let b1 = mbr_of(&v[..k]);
                let b2 = mbr_of(&v[k..]);
                margin_sum += b1.margin() + b2.margin();
            }
        }
        if margin_sum < best_margin {
            best_margin = margin_sum;
            best_axis = d;
        }
    }
    // Best distribution on the chosen axis.
    let mut best: Option<(Vec<Entry>, Vec<Entry>)> = None;
    let mut best_key = [f64::INFINITY; 2];
    for by_max in [false, true] {
        let v = sorted(best_axis, by_max);
        for k in MIN_FILL..=(n - MIN_FILL) {
            let b1 = mbr_of(&v[..k]);
            let b2 = mbr_of(&v[k..]);
            let key = [b1.overlap(&b2), b1.volume() + b2.volume()];
            if key < best_key {
                best_key = key;
                best = Some((v[..k].to_vec(), v[k..].to_vec()));
            }
        }
    }
    best.expect("at least one distribution")
}

fn mbr_of(entries: &[Entry]) -> Box3 {
    let mut b = Box3::EMPTY;
    for e in entries {
        b = b.union(&e.bbox);
    }
    b
}

/// Sort-Tile-Recursive slab/run structure: x-slabs, then y-runs, each run
/// sorted along z. Returns the runs in pack order; chunking runs into
/// leaf-sized tiles is the caller's business.
fn str_runs(mut items: Vec<Entry>, cap: usize) -> Vec<Vec<Entry>> {
    let n = items.len();
    let pages = n.div_ceil(cap);
    let sx = (pages as f64).cbrt().ceil() as usize;
    let slab_items = n.div_ceil(sx.max(1));
    sort_by_center(&mut items, 0);
    let mut runs = Vec::new();
    let mut rest: &mut [Entry] = &mut items;
    while !rest.is_empty() {
        let take = slab_items.min(rest.len());
        let (slab, tail) = rest.split_at_mut(take);
        let slab_pages = slab.len().div_ceil(cap);
        let sy = (slab_pages as f64).sqrt().ceil() as usize;
        let run_items = slab.len().div_ceil(sy.max(1));
        sort_by_center(slab, 1);
        let mut srest: &mut [Entry] = slab;
        while !srest.is_empty() {
            let take = run_items.min(srest.len());
            let (run, stail) = srest.split_at_mut(take);
            sort_by_center(run, 2);
            runs.push(run.to_vec());
            srest = stail;
        }
        rest = tail;
    }
    runs
}

/// Sort-Tile-Recursive grouping: x-slabs, then y-runs, then z order, with
/// node boundaries aligned to run boundaries. Returns the leaf groups in
/// pack order.
fn str_tiles(items: Vec<Entry>, cap: usize) -> Vec<Vec<Entry>> {
    str_runs(items, cap)
        .into_iter()
        .flat_map(|run| {
            run.chunks(cap)
                .map(<[Entry]>::to_vec)
                .collect::<Vec<Vec<Entry>>>()
        })
        .collect()
}

/// The order in which [`RStarTree::bulk_load`] with the same `fill` will
/// pack these boxes into leaves. Callers use it to place data records on
/// disk aligned with the index leaves (clustered storage).
pub fn str_leaf_order(items: &[(Box3, u64)], fill: f64) -> Vec<u64> {
    let cap = ((CAP as f64 * fill) as usize).clamp(2, CAP);
    let entries: Vec<Entry> = items
        .iter()
        .map(|&(bbox, val)| Entry { bbox, val })
        .collect();
    str_tiles(entries, cap)
        .into_iter()
        .flatten()
        .map(|e| e.val)
        .collect()
}

/// STR leaf grouping where each group is closed by a byte budget rather
/// than an item count, returning the group boundaries instead of a flat
/// order. Callers whose data pages hold a variable number of records (a
/// compressed record codec) simulate their page packing through `weight`
/// and break pages on group boundaries, so every data page's MBR stays a
/// single STR tile.
///
/// `weight(base, val)` returns the on-page cost of `val` when the group
/// was opened by `base` (`None` while the group is empty — `val` itself
/// becomes the opener). A group closes when the next item would push the
/// running weight past `budget`; with an exact `weight`, groups map 1:1
/// onto data pages. `cap_hint` (items per page, roughly) only shapes the
/// slab/run geometry.
pub fn str_leaf_groups_weighted(
    items: &[(Box3, u64)],
    cap_hint: usize,
    budget: usize,
    mut weight: impl FnMut(Option<u64>, u64) -> usize,
) -> Vec<Vec<u64>> {
    let entries: Vec<Entry> = items
        .iter()
        .map(|&(bbox, val)| Entry { bbox, val })
        .collect();
    let mut out = Vec::new();
    for mut run in str_runs(entries, cap_hint.max(2)) {
        // Re-sort each run by the segment *top* rather than the center:
        // a group's z-extent is dominated by its tallest member, so
        // center order lets one tall (coarse-LOD) segment stretch a
        // group of short ones and turn the whole page into a false
        // positive for every query plane it now straddles. Top order
        // pushes the tall segments to the run's tail where they group
        // with each other.
        sort_by_coord(&mut run, |e| e.bbox.max.z);
        let mut group: Vec<u64> = Vec::new();
        let mut used = 0usize;
        for e in run {
            let w = weight(group.first().copied(), e.val);
            if !group.is_empty() && used + w > budget {
                out.push(std::mem::take(&mut group));
                used = weight(None, e.val);
            } else {
                used += w;
            }
            group.push(e.val);
        }
        if !group.is_empty() {
            out.push(group);
        }
    }
    out
}

/// Pack one level of STR tiles; returns the entries for the next level up.
fn str_pack_level(
    pool: &Arc<BufferPool>,
    items: Vec<Entry>,
    cap: usize,
    is_leaf: bool,
) -> Vec<Entry> {
    let groups = str_tiles(items, cap);
    let mut out = Vec::with_capacity(groups.len());
    for group in groups {
        let page = pool.allocate();
        let node = Node {
            is_leaf,
            entries: group,
        };
        write_node(pool, page, &node);
        out.push(Entry {
            bbox: node.mbr(),
            val: page as u64,
        });
    }
    out
}

fn sort_by_center(items: &mut [Entry], d: usize) {
    sort_by_coord(items, |e| axis(e.bbox.center(), d));
}

/// Stable sort by an `f64` coordinate of each entry. Sorts `(key, index)`
/// pairs and permutes once: the key is the coordinate in
/// `f64::total_cmp` order with `-0.0` folded into `0.0`, so for non-NaN
/// coordinates the pair order is exactly the stable `partial_cmp` order.
fn sort_by_coord(items: &mut [Entry], coord: impl Fn(&Entry) -> f64) {
    let mut keyed: Vec<(u64, u32)> = items
        .iter()
        .enumerate()
        .map(|(i, e)| {
            let bits = (coord(e) + 0.0).to_bits();
            let ord = if bits >> 63 == 1 {
                !bits
            } else {
                bits | 1 << 63
            };
            (ord, i as u32)
        })
        .collect();
    keyed.sort_unstable();
    let sorted: Vec<Entry> = keyed.iter().map(|&(_, i)| items[i as usize]).collect();
    items.copy_from_slice(&sorted);
}

fn read_node(pool: &BufferPool, page: PageId) -> Node {
    try_read_node(pool, page).unwrap_or_else(|e| panic!("rstar node: {e}"))
}

fn try_read_node(pool: &BufferPool, page: PageId) -> StorageResult<Node> {
    pool.try_read(page, |b| {
        let is_leaf = b[0] == 1;
        let n = codec::get_u16(b, 2) as usize;
        let mut entries = Vec::with_capacity(n);
        for i in 0..n {
            let off = HDR + i * ENTRY;
            let bbox = Box3::new(
                Vec3::new(
                    codec::get_f64(b, off),
                    codec::get_f64(b, off + 8),
                    codec::get_f64(b, off + 16),
                ),
                Vec3::new(
                    codec::get_f64(b, off + 24),
                    codec::get_f64(b, off + 32),
                    codec::get_f64(b, off + 40),
                ),
            );
            entries.push(Entry {
                bbox,
                val: codec::get_u64(b, off + 48),
            });
        }
        Node { is_leaf, entries }
    })
}

fn write_node(pool: &BufferPool, page: PageId, node: &Node) {
    try_write_node(pool, page, node).unwrap_or_else(|e| panic!("rstar node write: {e}"))
}

fn try_write_node(pool: &BufferPool, page: PageId, node: &Node) -> StorageResult<()> {
    assert!(
        node.entries.len() <= CAP,
        "node overflow: {}",
        node.entries.len()
    );
    pool.try_write(page, |b| {
        b[0] = u8::from(node.is_leaf);
        codec::put_u16(b, 2, node.entries.len() as u16);
        for (i, e) in node.entries.iter().enumerate() {
            let off = HDR + i * ENTRY;
            codec::put_f64(b, off, e.bbox.min.x);
            codec::put_f64(b, off + 8, e.bbox.min.y);
            codec::put_f64(b, off + 16, e.bbox.min.z);
            codec::put_f64(b, off + 24, e.bbox.max.x);
            codec::put_f64(b, off + 32, e.bbox.max.y);
            codec::put_f64(b, off + 40, e.bbox.max.z);
            codec::put_u64(b, off + 48, e.val);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dm_storage::MemStore;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The key sort is the stable `partial_cmp` sort it replaced, ties
    /// and signed zeros included.
    #[test]
    fn key_sort_is_the_stable_partial_order_sort() {
        let mut rng = StdRng::seed_from_u64(35);
        for _ in 0..200 {
            let n = rng.random_range(0..60usize);
            let coords = [0.0, -0.0, 1.5, -2.0, 1e-310, f64::INFINITY, 3.0];
            let mut items: Vec<Entry> = (0..n)
                .map(|i| {
                    let z = coords[rng.random_range(0..coords.len())];
                    let p = Vec3::new(0.0, 0.0, z);
                    Entry {
                        bbox: Box3::new(p, p),
                        val: i as u64,
                    }
                })
                .collect();
            let mut want = items.clone();
            want.sort_by(|a, b| a.bbox.max.z.partial_cmp(&b.bbox.max.z).unwrap());
            sort_by_coord(&mut items, |e| e.bbox.max.z);
            let vals = |v: &[Entry]| v.iter().map(|e| e.val).collect::<Vec<_>>();
            assert_eq!(vals(&items), vals(&want));
        }
    }

    fn pool() -> Arc<BufferPool> {
        Arc::new(BufferPool::new(Box::new(MemStore::new()), 512))
    }

    fn pt(x: f64, y: f64, z: f64) -> Box3 {
        Box3::point(Vec3::new(x, y, z))
    }

    fn random_points(n: usize, seed: u64) -> Vec<(Box3, u64)> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n as u64)
            .map(|i| {
                let x = rng.random_range(0.0..1000.0);
                let y = rng.random_range(0.0..1000.0);
                let z0 = rng.random_range(0.0..90.0);
                let z1 = z0 + rng.random_range(0.0..10.0);
                (Box3::vertical_segment(dm_geom::Vec2::new(x, y), z0, z1), i)
            })
            .collect()
    }

    fn brute_force(items: &[(Box3, u64)], q: &Box3) -> Vec<u64> {
        let mut v: Vec<u64> = items
            .iter()
            .filter(|(b, _)| b.intersects(q))
            .map(|&(_, d)| d)
            .collect();
        v.sort();
        v
    }

    fn query_sorted(t: &RStarTree, q: &Box3) -> Vec<u64> {
        let mut v = Vec::new();
        t.query(q, |_, d| v.push(d));
        v.sort();
        v
    }

    #[test]
    fn empty_tree_query() {
        let t = RStarTree::new(pool());
        assert_eq!(t.query(&pt(0.0, 0.0, 0.0), |_, _| {}), 0);
        assert!(t.validate().is_ok());
    }

    #[test]
    fn small_insert_and_query() {
        let mut t = RStarTree::new(pool());
        for i in 0..10u64 {
            t.insert(pt(i as f64, i as f64, 0.0), i);
        }
        let q = Box3::new(Vec3::new(2.5, 0.0, -1.0), Vec3::new(6.5, 10.0, 1.0));
        assert_eq!(query_sorted(&t, &q), vec![3, 4, 5, 6]);
        t.validate().unwrap();
    }

    #[test]
    fn multi_query_equals_union_of_single_queries() {
        let items = random_points(3000, 21);
        let t = RStarTree::bulk_load(pool(), items.clone(), 0.8);
        let mut rng = StdRng::seed_from_u64(5);
        for round in 0..10 {
            let qs: Vec<Box3> = (0..(round % 5) + 1)
                .map(|_| {
                    let x = rng.random_range(0.0..900.0);
                    let y = rng.random_range(0.0..900.0);
                    let z = rng.random_range(0.0..80.0);
                    Box3::new(
                        Vec3::new(x, y, z),
                        Vec3::new(
                            x + rng.random_range(1.0..150.0),
                            y + rng.random_range(1.0..150.0),
                            z + rng.random_range(0.0..20.0),
                        ),
                    )
                })
                .collect();
            // Union + dedup of per-box answers…
            let mut single: Vec<u64> = Vec::new();
            for q in &qs {
                t.query(q, |_, d| single.push(d));
            }
            single.sort_unstable();
            single.dedup();
            // …must equal one batched descent (which never repeats an
            // entry, whatever the overlap between boxes).
            let mut multi: Vec<u64> = Vec::new();
            t.try_query_multi(&qs, |_, d| multi.push(d)).unwrap();
            let n = multi.len();
            multi.sort_unstable();
            multi.dedup();
            assert_eq!(multi.len(), n, "batched descent repeated an entry");
            assert_eq!(multi, single, "round {round}");
        }
        // Degenerate batch.
        assert_eq!(t.try_query_multi(&[], |_, _| panic!()).unwrap(), 0);
    }

    #[test]
    fn dynamic_inserts_match_brute_force() {
        let items = random_points(5000, 7);
        let mut t = RStarTree::new(pool());
        for &(b, d) in &items {
            t.insert(b, d);
        }
        assert_eq!(t.len(), 5000);
        t.validate().unwrap();
        assert!(t.height() >= 2, "5000 entries must split");
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..25 {
            let x = rng.random_range(0.0..900.0);
            let y = rng.random_range(0.0..900.0);
            let z = rng.random_range(0.0..80.0);
            let q = Box3::new(
                Vec3::new(x, y, z),
                Vec3::new(
                    x + rng.random_range(1.0..120.0),
                    y + rng.random_range(1.0..120.0),
                    z + rng.random_range(0.0..15.0),
                ),
            );
            assert_eq!(query_sorted(&t, &q), brute_force(&items, &q));
        }
    }

    #[test]
    fn plane_query_hits_intersecting_segments() {
        // The Direct Mesh use case: vertical segments and a degenerate
        // query plane.
        let items = random_points(2000, 13);
        let t = RStarTree::bulk_load(pool(), items.clone(), 0.8);
        let q = Box3::new(Vec3::new(0.0, 0.0, 50.0), Vec3::new(1000.0, 1000.0, 50.0));
        assert_eq!(query_sorted(&t, &q), brute_force(&items, &q));
    }

    #[test]
    fn bulk_load_matches_brute_force() {
        let items = random_points(20_000, 21);
        let t = RStarTree::bulk_load(pool(), items.clone(), 0.75);
        assert_eq!(t.len(), 20_000);
        t.validate().unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..20 {
            let x = rng.random_range(0.0..900.0);
            let y = rng.random_range(0.0..900.0);
            let q = Box3::new(
                Vec3::new(x, y, 0.0),
                Vec3::new(x + 80.0, y + 80.0, rng.random_range(0.0..100.0)),
            );
            assert_eq!(query_sorted(&t, &q), brute_force(&items, &q));
        }
    }

    #[test]
    fn bulk_load_empty_and_single() {
        let t = RStarTree::bulk_load(pool(), vec![], 0.8);
        assert!(t.is_empty());
        let t = RStarTree::bulk_load(pool(), vec![(pt(1.0, 2.0, 3.0), 42)], 0.8);
        assert_eq!(t.len(), 1);
        assert_eq!(query_sorted(&t, &pt(1.0, 2.0, 3.0)), vec![42]);
        t.validate().unwrap();
    }

    #[test]
    fn bulk_load_produces_shallower_or_equal_trees() {
        let items = random_points(30_000, 3);
        let p1 = pool();
        let bulk = RStarTree::bulk_load(Arc::clone(&p1), items.clone(), 0.9);
        let mut dynamic = RStarTree::new(pool());
        for &(b, d) in items.iter().take(5000) {
            dynamic.insert(b, d);
        }
        assert!(bulk.height() <= dynamic.height() + 1);
        assert!(bulk.num_nodes() * CAP >= 30_000 / 2);
    }

    #[test]
    fn query_counts_node_accesses() {
        let items = random_points(20_000, 17);
        let p = pool();
        let t = RStarTree::bulk_load(Arc::clone(&p), items, 0.8);
        p.flush_all();
        p.reset_stats();
        // A tiny query touches few pages; a full-space query touches all.
        let tiny = Box3::new(Vec3::new(500.0, 500.0, 0.0), Vec3::new(505.0, 505.0, 1.0));
        t.query(&tiny, |_, _| {});
        let tiny_reads = p.stats().reads;
        p.flush_all();
        p.reset_stats();
        let all = Box3::new(Vec3::new(0.0, 0.0, 0.0), Vec3::new(1e6, 1e6, 1e6));
        t.query(&all, |_, _| {});
        let all_reads = p.stats().reads;
        assert!(tiny_reads >= 1);
        assert!(
            all_reads as usize == t.num_nodes(),
            "full query must touch every node ({} vs {})",
            all_reads,
            t.num_nodes()
        );
        assert!(
            tiny_reads * 10 < all_reads,
            "tiny {tiny_reads} vs all {all_reads}"
        );
    }

    #[test]
    fn collect_node_regions_covers_data() {
        let items = random_points(3000, 31);
        let t = RStarTree::bulk_load(pool(), items.clone(), 0.8);
        let regions = t.collect_node_regions();
        assert_eq!(regions.len(), t.num_nodes());
        // The root MBR (largest region) must contain every item.
        let root = regions.iter().fold(Box3::EMPTY, |a, b| a.union(b));
        for (b, _) in items {
            assert!(root.contains_box(&b));
        }
    }

    #[test]
    fn cow_replace_isolates_old_tree() {
        let items = random_points(20_000, 17);
        let p = pool();
        let t = RStarTree::bulk_load(Arc::clone(&p), items.clone(), 0.8);
        assert!(t.height() >= 2);
        let before = p.num_pages();

        // Replace payload 7: its box moves to a fresh location, its
        // payload becomes 1_000_007.
        let old_box = items.iter().find(|&&(_, d)| d == 7).unwrap().0;
        let new_box = Box3::vertical_segment(dm_geom::Vec2::new(123.0, 456.0), 5.0, 8.0);
        let repl = std::collections::HashMap::from([(7u64, vec![(new_box, 1_000_007u64)])]);
        let t2 = t.cow_replace_leaf_vals(&repl).unwrap();

        assert_eq!(t2.len(), t.len());
        t2.validate().unwrap();
        // Old tree unperturbed; new tree answers with the replacement.
        assert!(query_sorted(&t, &old_box).contains(&7));
        assert!(!query_sorted(&t2, &new_box).contains(&7));
        assert!(query_sorted(&t2, &new_box).contains(&1_000_007));
        // Only the path to the one changed leaf was copied.
        let copied = p.num_pages() - before;
        assert!(
            copied <= t.height() + 1,
            "copied {copied} pages for a one-leaf change in a height-{} tree",
            t.height()
        );
    }

    #[test]
    fn cow_replace_splits_overflowing_leaf_and_grows() {
        // Splice 400 entries in place of one: the leaf must split and the
        // tree stay structurally valid.
        let items = random_points(500, 3);
        let p = pool();
        let t = RStarTree::bulk_load(Arc::clone(&p), items.clone(), 1.0);
        let news: Vec<(Box3, u64)> = (0..400u64)
            .map(|i| {
                (
                    Box3::vertical_segment(dm_geom::Vec2::new(i as f64, i as f64), 0.0, 1.0),
                    10_000 + i,
                )
            })
            .collect();
        let repl = std::collections::HashMap::from([(0u64, news)]);
        let t2 = t.cow_replace_leaf_vals(&repl).unwrap();
        assert_eq!(t2.len(), t.len() + 399);
        t2.validate().unwrap();
        t.validate().unwrap();
        let q = Box3::new(Vec3::new(0.0, 0.0, 0.0), Vec3::new(400.0, 400.0, 1.0));
        let got = query_sorted(&t2, &q);
        for i in 0..400u64 {
            assert!(got.contains(&(10_000 + i)), "missing spliced entry {i}");
        }
    }

    #[test]
    fn cow_replace_with_no_match_shares_everything() {
        let items = random_points(2_000, 9);
        let p = pool();
        let t = RStarTree::bulk_load(Arc::clone(&p), items, 0.8);
        let before = p.num_pages();
        let repl = std::collections::HashMap::from([(
            999_999u64,
            vec![(Box3::point(Vec3::new(0.0, 0.0, 0.0)), 1u64)],
        )]);
        let t2 = t.cow_replace_leaf_vals(&repl).unwrap();
        assert_eq!(p.num_pages(), before, "no match must allocate nothing");
        assert_eq!(t2.root_page(), t.root_page());
    }

    #[test]
    fn duplicate_boxes_are_retained() {
        let mut t = RStarTree::new(pool());
        for i in 0..300u64 {
            t.insert(pt(5.0, 5.0, 5.0), i);
        }
        assert_eq!(
            query_sorted(&t, &pt(5.0, 5.0, 5.0)),
            (0..300).collect::<Vec<_>>()
        );
        t.validate().unwrap();
    }
}
