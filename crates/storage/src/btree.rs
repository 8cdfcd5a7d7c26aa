//! A disk-resident, bulk-loaded, read-only B+-tree mapping `u64` keys to
//! `u64` values.
//!
//! The PM baseline's primary-key index (`node id → record id`), after the
//! paper's "B+-tree indexes are created wherever necessary for all the
//! tables used", and the id index that version-2 and version-3 Direct
//! Mesh catalogs still name. Direct Mesh stores now map ids through
//! [`crate::IdDirectory`].
//!
//! Node layout (8 KiB pages):
//!
//! ```text
//! leaf:     [1u8][pad][n: u16][next_leaf: u32]  then n × (key u64, val u64)
//! internal: [0u8][pad][n: u16][pad: u32][child0: u32]  then n × (key u64, child u32)
//! ```
//!
//! An internal node with `n` keys has `n + 1` children; `key[i]` is the
//! smallest key reachable in `child[i + 1]`.

use std::sync::Arc;

use crate::buffer::BufferPool;
use crate::error::StorageResult;
use crate::page::{codec, PageId, NO_PAGE, PAGE_DATA, PAGE_SIZE};

const HDR: usize = 8;
const LEAF_ENTRY: usize = 16;
const INT_ENTRY: usize = 12;
const INT_CHILD0: usize = HDR + 4; // after header + pad comes child0
/// Max keys per leaf (the page's checksum trailer is out of bounds).
pub const LEAF_CAP: usize = (PAGE_DATA - HDR) / LEAF_ENTRY; // 511
/// Max keys per internal node.
pub const INT_CAP: usize = (PAGE_DATA - INT_CHILD0 - 4) / INT_ENTRY; // 681

/// The B+-tree.
pub struct BTree {
    pool: Arc<BufferPool>,
    root: PageId,
    len: u64,
    height: u32,
}

impl BTree {
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

    /// Reattach to an existing tree (catalog reload). The caller is
    /// responsible for passing the values a prior instance reported.
    pub fn from_parts(pool: Arc<BufferPool>, root: PageId, len: u64, height: u32) -> Self {
        BTree {
            pool,
            root,
            len,
            height,
        }
    }

    /// Point lookup.
    ///
    /// Index pages are load-bearing for the whole lookup, so any page
    /// error aborts it (no partial answer is possible).
    pub fn try_get(&self, key: u64) -> StorageResult<Option<u64>> {
        let mut page = self.root;
        loop {
            enum Step {
                Descend(PageId),
                Leaf(Option<u64>),
            }
            let step = self.pool.try_read(page, |b| {
                if b[0] == 1 {
                    let n = codec::get_u16(b, 2) as usize;
                    Step::Leaf(leaf_search(b, n, key))
                } else {
                    Step::Descend(internal_child_for(b, key))
                }
            })?;
            match step {
                Step::Descend(child) => page = child,
                Step::Leaf(v) => return Ok(v),
            }
        }
    }

    /// Infallible [`Self::try_get`]; panics on storage errors.
    pub fn get(&self, key: u64) -> Option<u64> {
        self.try_get(key)
            .unwrap_or_else(|e| panic!("btree get: {e}"))
    }

    /// Visit all `(key, value)` pairs with `lo <= key <= hi` in order.
    ///
    /// Implemented as a pure top-down descent into the children whose key
    /// ranges intersect `[lo, hi]`, never via the leaf sibling chain:
    /// trees written by earlier versions relocated leaves copy-on-write
    /// without rewriting their left siblings, so sibling pointers are
    /// only a hint.
    pub fn try_range(&self, lo: u64, hi: u64, mut f: impl FnMut(u64, u64)) -> StorageResult<()> {
        if lo > hi {
            return Ok(());
        }
        self.range_rec(self.root, lo, hi, &mut f)
    }

    fn range_rec<F: FnMut(u64, u64)>(
        &self,
        page: PageId,
        lo: u64,
        hi: u64,
        f: &mut F,
    ) -> StorageResult<()> {
        enum Node {
            Leaf(Vec<(u64, u64)>),
            Internal(Vec<PageId>),
        }
        let node = self.pool.try_read(page, |b| {
            if b[0] == 1 {
                let n = codec::get_u16(b, 2) as usize;
                let mut pairs = Vec::new();
                for i in 0..n {
                    let off = HDR + i * LEAF_ENTRY;
                    let k = codec::get_u64(b, off);
                    if k > hi {
                        break;
                    }
                    if k >= lo {
                        pairs.push((k, codec::get_u64(b, off + 8)));
                    }
                }
                Node::Leaf(pairs)
            } else {
                let (keys, children) = read_internal(b);
                // Child `j` covers keys in `[keys[j-1], keys[j])`.
                let start = keys.partition_point(|&k| k <= lo);
                let end = keys.partition_point(|&k| k <= hi);
                Node::Internal(children[start..=end].to_vec())
            }
        })?;
        match node {
            Node::Leaf(pairs) => {
                for (k, v) in pairs {
                    f(k, v);
                }
            }
            Node::Internal(children) => {
                for child in children {
                    self.range_rec(child, lo, hi, f)?;
                }
            }
        }
        Ok(())
    }

    /// Every page of the tree, internal nodes and leaves, root first.
    pub fn try_node_pages(&self) -> StorageResult<Vec<PageId>> {
        let mut pages = vec![self.root];
        let mut next = 0;
        while let Some(&page) = pages.get(next) {
            next += 1;
            let children = self
                .pool
                .try_read(page, |b| (b[0] != 1).then(|| read_internal(b).1))?;
            pages.extend(children.into_iter().flatten());
        }
        Ok(pages)
    }

    /// Build a tree from key-sorted pairs, packing leaves to `fill` (0–1).
    ///
    /// Panics if the input is not strictly ascending by key.
    pub fn bulk_load(
        pool: Arc<BufferPool>,
        pairs: impl IntoIterator<Item = (u64, u64)>,
        fill: f64,
    ) -> Self {
        let per_leaf = ((LEAF_CAP as f64 * fill) as usize).clamp(1, LEAF_CAP);
        let per_int = ((INT_CAP as f64 * fill) as usize).clamp(2, INT_CAP);

        // Build the leaf level.
        let mut leaves: Vec<(u64, PageId)> = Vec::new(); // (first key, page)
        let mut buf_keys: Vec<u64> = Vec::new();
        let mut buf_vals: Vec<u64> = Vec::new();
        let mut len = 0u64;
        let mut last_key: Option<u64> = None;
        let flush = |keys: &mut Vec<u64>, vals: &mut Vec<u64>, leaves: &mut Vec<(u64, PageId)>| {
            if keys.is_empty() {
                return;
            }
            let page = pool.allocate();
            write_leaf(&pool, page, keys, vals, NO_PAGE);
            if let Some(&(_, prev)) = leaves.last() {
                pool.write(prev, |b| codec::put_u32(b, 4, page));
            }
            leaves.push((keys[0], page));
            keys.clear();
            vals.clear();
        };
        for (k, v) in pairs {
            if let Some(prev) = last_key {
                assert!(k > prev, "bulk_load input must be strictly ascending");
            }
            last_key = Some(k);
            buf_keys.push(k);
            buf_vals.push(v);
            len += 1;
            if buf_keys.len() == per_leaf {
                flush(&mut buf_keys, &mut buf_vals, &mut leaves);
            }
        }
        flush(&mut buf_keys, &mut buf_vals, &mut leaves);
        if leaves.is_empty() {
            let root = pool.allocate();
            write_leaf(&pool, root, &[], &[], NO_PAGE);
            return BTree {
                pool,
                root,
                len: 0,
                height: 1,
            };
        }

        // Build internal levels bottom-up.
        let mut level: Vec<(u64, PageId)> = leaves;
        let mut height = 1;
        while level.len() > 1 {
            height += 1;
            let mut next_level = Vec::new();
            for chunk in level.chunks(per_int + 1) {
                let page = pool.allocate();
                let keys: Vec<u64> = chunk[1..].iter().map(|&(k, _)| k).collect();
                let children: Vec<PageId> = chunk.iter().map(|&(_, p)| p).collect();
                write_internal(&pool, page, &keys, &children);
                next_level.push((chunk[0].0, page));
            }
            level = next_level;
        }
        let root = level[0].1;
        BTree {
            pool,
            root,
            len,
            height,
        }
    }
}

fn leaf_search(b: &[u8; PAGE_SIZE], n: usize, key: u64) -> Option<u64> {
    let mut lo = 0usize;
    let mut hi = n;
    while lo < hi {
        let mid = (lo + hi) / 2;
        let k = codec::get_u64(b, HDR + mid * LEAF_ENTRY);
        match k.cmp(&key) {
            std::cmp::Ordering::Less => lo = mid + 1,
            std::cmp::Ordering::Greater => hi = mid,
            std::cmp::Ordering::Equal => {
                return Some(codec::get_u64(b, HDR + mid * LEAF_ENTRY + 8))
            }
        }
    }
    None
}

/// Child pointer to follow for `key` in an internal node.
fn internal_child_for(b: &[u8; PAGE_SIZE], key: u64) -> PageId {
    let n = codec::get_u16(b, 2) as usize;
    // First index whose key is > `key`; descend into that child slot.
    let mut lo = 0usize;
    let mut hi = n;
    while lo < hi {
        let mid = (lo + hi) / 2;
        let k = codec::get_u64(b, INT_CHILD0 + 4 + mid * INT_ENTRY);
        if k <= key {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    if lo == 0 {
        codec::get_u32(b, INT_CHILD0)
    } else {
        codec::get_u32(b, INT_CHILD0 + 4 + (lo - 1) * INT_ENTRY + 8)
    }
}

fn read_internal(b: &[u8; PAGE_SIZE]) -> (Vec<u64>, Vec<PageId>) {
    let n = codec::get_u16(b, 2) as usize;
    let mut keys = Vec::with_capacity(n + 1);
    let mut children = Vec::with_capacity(n + 2);
    children.push(codec::get_u32(b, INT_CHILD0));
    for i in 0..n {
        let off = INT_CHILD0 + 4 + i * INT_ENTRY;
        keys.push(codec::get_u64(b, off));
        children.push(codec::get_u32(b, off + 8));
    }
    (keys, children)
}

fn write_leaf(pool: &BufferPool, page: PageId, keys: &[u64], vals: &[u64], next: PageId) {
    assert_eq!(keys.len(), vals.len());
    assert!(keys.len() <= LEAF_CAP);
    pool.write(page, |b| {
        b[0] = 1;
        codec::put_u16(b, 2, keys.len() as u16);
        codec::put_u32(b, 4, next);
        for (i, (&k, &v)) in keys.iter().zip(vals).enumerate() {
            let off = HDR + i * LEAF_ENTRY;
            codec::put_u64(b, off, k);
            codec::put_u64(b, off + 8, v);
        }
    })
}

fn write_internal(pool: &BufferPool, page: PageId, keys: &[u64], children: &[PageId]) {
    assert_eq!(children.len(), keys.len() + 1);
    assert!(keys.len() <= INT_CAP);
    pool.write(page, |b| {
        b[0] = 0;
        codec::put_u16(b, 2, keys.len() as u16);
        codec::put_u32(b, INT_CHILD0, children[0]);
        for (i, (&k, &c)) in keys.iter().zip(&children[1..]).enumerate() {
            let off = INT_CHILD0 + 4 + i * INT_ENTRY;
            codec::put_u64(b, off, k);
            codec::put_u32(b, off + 8, c);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemStore;
    use std::collections::BTreeMap;

    fn pool() -> Arc<BufferPool> {
        Arc::new(BufferPool::new(Box::new(MemStore::new()), 256))
    }

    fn scan(t: &BTree, lo: u64, hi: u64) -> Vec<(u64, u64)> {
        let mut got = Vec::new();
        t.try_range(lo, hi, |k, v| got.push((k, v))).unwrap();
        got
    }

    #[test]
    fn empty_tree() {
        let t = BTree::bulk_load(pool(), std::iter::empty(), 0.9);
        assert!(t.is_empty());
        assert_eq!(t.get(0), None);
        assert_eq!(t.get(u64::MAX), None);
        assert!(scan(&t, 0, u64::MAX).is_empty());
    }

    /// Loaded, not inserted: the tree has no insert path.
    #[test]
    fn insert_get_small() {
        let t = BTree::bulk_load(pool(), [1u64, 3, 5, 7, 9].map(|k| (k, k * 10)), 0.9);
        assert_eq!(t.len(), 5);
        for k in [5u64, 1, 9, 3, 7] {
            assert_eq!(t.get(k), Some(k * 10));
        }
        assert_eq!(t.get(2), None);
    }

    /// 20k keys at half-full leaves span many leaves under more than one
    /// level of internal nodes.
    #[test]
    fn many_inserts_force_splits() {
        let n = 20_000u64;
        let t = BTree::bulk_load(pool(), (0..n).map(|k| (k, k + 1)), 0.5);
        assert_eq!(t.len(), n);
        assert!(t.height() >= 2, "20k keys need more than one leaf");
        for k in (0..n).step_by(997) {
            assert_eq!(t.get(k), Some(k + 1), "key {k}");
        }
    }

    #[test]
    fn range_scan_matches_model() {
        let model: BTreeMap<u64, u64> = (0..5000u64)
            .map(|i| ((i * 2654435761) % 100_000, i))
            .collect();
        let t = BTree::bulk_load(pool(), model.iter().map(|(&k, &v)| (k, v)), 0.7);
        for (lo, hi) in [(0u64, 99_999), (500, 700), (99_000, 99_999), (42, 42)] {
            let want: Vec<_> = model.range(lo..=hi).map(|(&k, &v)| (k, v)).collect();
            assert_eq!(scan(&t, lo, hi), want, "range [{lo}, {hi}]");
        }
        // Inverted range yields nothing (and must not panic).
        assert!(scan(&t, 70, 20).is_empty());
    }

    #[test]
    fn bulk_load_matches_inserts() {
        let p = pool();
        let pairs: Vec<(u64, u64)> = (0..30_000u64).map(|k| (k * 3, k)).collect();
        let t = BTree::bulk_load(Arc::clone(&p), pairs.iter().copied(), 0.8);
        assert_eq!(t.len(), 30_000);
        for &(k, v) in pairs.iter().step_by(511) {
            assert_eq!(t.get(k), Some(v));
        }
        assert_eq!(t.get(1), None); // between keys
        assert_eq!(scan(&t, 0, u64::MAX), pairs);
    }

    #[test]
    fn bulk_load_empty() {
        let t = BTree::bulk_load(pool(), std::iter::empty(), 0.8);
        assert!(t.is_empty());
        assert_eq!(t.get(7), None);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn bulk_load_rejects_unsorted() {
        BTree::bulk_load(pool(), [(2u64, 0u64), (1, 0)], 0.8);
    }

    #[test]
    fn point_lookup_costs_height_accesses() {
        let p = pool();
        let t = BTree::bulk_load(Arc::clone(&p), (0..100_000u64).map(|k| (k, k)), 1.0);
        p.flush_all();
        p.reset_stats();
        t.get(54_321);
        assert_eq!(p.stats().reads as u32, t.height(), "one access per level");
    }

    #[test]
    fn range_descent_does_not_depend_on_sibling_chain() {
        // Corrupt every leaf's next pointer; range scans must not care.
        let p = pool();
        let t = BTree::bulk_load(Arc::clone(&p), (0..5_000u64).map(|k| (k, k + 1)), 0.8);
        for page in 0..p.num_pages() {
            let is_leaf = p.read(page, |b| b[0] == 1);
            if is_leaf {
                p.write(page, |b| codec::put_u32(b, 4, 0xDEAD_BEEF));
            }
        }
        let got = scan(&t, 100, 4_900);
        assert_eq!(got.len(), 4_801);
        assert!(got.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(got.iter().all(|&(k, v)| v == k + 1));
    }

    #[test]
    fn node_pages_are_every_page_of_the_tree() {
        let p = pool();
        let t = BTree::bulk_load(Arc::clone(&p), (0..30_000u64).map(|k| (k, k)), 0.8);
        let mut pages = t.try_node_pages().unwrap();
        assert_eq!(pages[0], t.root_page());
        pages.sort_unstable();
        assert_eq!(pages, (0..p.num_pages()).collect::<Vec<_>>());
    }

    #[test]
    fn data_survives_cold_restart_of_cache() {
        let p = pool();
        let t = BTree::bulk_load(Arc::clone(&p), (0..3000u64).map(|k| (k, !k)), 0.9);
        p.flush_all();
        for k in (0..3000u64).step_by(100) {
            assert_eq!(t.get(k), Some(!k));
        }
    }
}
