//! The id directory: a `node id → RecordId` map for a store whose id set
//! is fixed when it is built.
//!
//! An edit moves records between heap pages but never adds or drops one,
//! so the map needs no insert path and never splits. The ids are laid
//! out in ascending order over a list of pages. Each page holds *runs* of
//! consecutive ids, and a run maps its ids positionally onto 6-byte
//! record ids. The first id of every page is its *fence*; the fences
//! live in memory (the catalog persists them), so a lookup is a binary
//! search, one counted directory page and the heap page.
//!
//! Page layout (8 KiB pages, little endian):
//!
//! ```text
//! [n_runs: u16][n_ids: u16]                  header
//! n_runs × [first_id: u32][start: u16]       runs, ascending by id
//! n_ids  × [page: u32][slot: u16]            entries, in id order
//! ```
//!
//! Run `i` covers `start[i+1] - start[i]` ids from `first_id[i]` (the
//! last run ends at `n_ids`) and maps them onto the entries from
//! `start[i]` on. A dense id set is one run per page, 1363 ids a page; a
//! scattered one costs 12 B per id, still less than a B+-tree leaf entry.
//! A run that does not fit the rest of a page goes on as a new run on the
//! next one.

use std::sync::Arc;

use crate::buffer::BufferPool;
use crate::error::{StorageError, StorageResult};
use crate::heap::RecordId;
use crate::page::{codec, PageId, PAGE_DATA, PAGE_SIZE};

const HDR: usize = 4;
const RUN: usize = 6;
const ENTRY: usize = 6;
/// Most ids one directory page maps (a single run).
pub const PAGE_IDS: usize = (PAGE_DATA - HDR - RUN) / ENTRY; // 1363

/// What a full walk of a directory found.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DirectoryWalk {
    pub pages: u64,
    pub runs: u64,
    pub entries: u64,
}

/// The directory: fences and pages in memory, entries on disk.
#[derive(Clone)]
pub struct IdDirectory {
    pool: Arc<BufferPool>,
    /// Each directory page's fence (its first id, strictly ascending) and
    /// page id.
    index: Vec<(u32, PageId)>,
    len: u64,
}

impl IdDirectory {
    /// Write a directory for `entries`, which must be strictly ascending
    /// by id (a typed error otherwise). Pages are packed full: the id set
    /// never grows.
    pub fn try_build(
        pool: Arc<BufferPool>,
        entries: impl IntoIterator<Item = (u32, RecordId)>,
    ) -> StorageResult<Self> {
        let mut dir = IdDirectory {
            pool,
            index: Vec::new(),
            len: 0,
        };
        let mut runs: Vec<(u32, u16)> = Vec::new();
        let mut rids: Vec<RecordId> = Vec::new();
        let mut prev: Option<u32> = None;
        for (id, rid) in entries {
            if prev.is_some_and(|p| id <= p) {
                return Err(StorageError::format(format!(
                    "id directory input not strictly ascending at id {id}"
                )));
            }
            let mut extends = !rids.is_empty() && prev.is_some_and(|p| p + 1 == id);
            let need = if extends { ENTRY } else { RUN + ENTRY };
            if HDR + RUN * runs.len() + ENTRY * rids.len() + need > PAGE_DATA {
                dir.push_page(&runs, &rids)?;
                runs.clear();
                rids.clear();
                extends = false;
            }
            if !extends {
                runs.push((id, rids.len() as u16));
            }
            rids.push(rid);
            prev = Some(id);
            dir.len += 1;
        }
        if !rids.is_empty() {
            dir.push_page(&runs, &rids)?;
        }
        Ok(dir)
    }

    fn push_page(&mut self, runs: &[(u32, u16)], rids: &[RecordId]) -> StorageResult<()> {
        let page = self.pool.try_allocate()?;
        self.pool.try_write(page, |b| {
            codec::put_u16(b, 0, runs.len() as u16);
            codec::put_u16(b, 2, rids.len() as u16);
            for (i, &(first, start)) in runs.iter().enumerate() {
                codec::put_u32(b, HDR + i * RUN, first);
                codec::put_u16(b, HDR + i * RUN + 4, start);
            }
            let base = HDR + runs.len() * RUN;
            for (i, rid) in rids.iter().enumerate() {
                put_entry(b, base + i * ENTRY, *rid);
            }
        })?;
        self.index.push((runs[0].0, page));
        Ok(())
    }

    /// Reattach to a persisted directory: its `(fence, page)` list and
    /// the number of ids it maps. Fences that do not strictly ascend are
    /// a typed error.
    pub fn try_from_parts(
        pool: Arc<BufferPool>,
        index: Vec<(u32, PageId)>,
        len: u64,
    ) -> StorageResult<Self> {
        if let Some(w) = index.windows(2).find(|w| w[0].0 >= w[1].0) {
            return Err(StorageError::format(format!(
                "id directory fences do not ascend: {} then {}",
                w[0].0, w[1].0
            )));
        }
        Ok(IdDirectory { pool, index, len })
    }

    /// The `(fence, page)` list a catalog persists.
    pub fn parts(&self) -> &[(u32, PageId)] {
        &self.index
    }

    /// Ids mapped.
    pub fn len(&self) -> u64 {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The page whose fence is the last one at or below `id`.
    fn page_for(&self, id: u32) -> Option<usize> {
        self.index.partition_point(|&(f, _)| f <= id).checked_sub(1)
    }

    /// Point lookup: one counted page access, none when `id` lies below
    /// the first fence. A page whose layout does not hold together is a
    /// typed [`StorageError::Corrupt`].
    pub fn try_get(&self, id: u32) -> StorageResult<Option<RecordId>> {
        let Some(p) = self.page_for(id) else {
            return Ok(None);
        };
        let page = self.index[p].1;
        self.pool
            .try_read(page, |b| {
                let l = Layout::of(b)?;
                Ok(l.find(b, id)?.map(|k| l.entry(b, k)))
            })?
            .map_err(|detail: String| StorageError::corrupt(page, detail))
    }

    /// A new directory in which each `(id, rid)` of `updates` (strictly
    /// ascending, every id present) maps to its `rid`. Only the pages
    /// holding an update are copied, onto fresh pages; the rest, and
    /// every page of `self`, stay as they are.
    pub fn try_cow_update(&self, updates: &[(u32, RecordId)]) -> StorageResult<IdDirectory> {
        debug_assert!(updates.windows(2).all(|w| w[0].0 < w[1].0));
        let absent = |id| StorageError::format(format!("id directory update of absent id {id}"));
        let mut out = self.clone();
        let mut rest = updates;
        while let Some(&(first, _)) = rest.first() {
            let p = self.page_for(first).ok_or_else(|| absent(first))?;
            let n = match self.index.get(p + 1) {
                Some(&(next, _)) => rest.partition_point(|&(id, _)| id < next).max(1),
                None => rest.len(),
            };
            let (mine, tail) = rest.split_at(n);
            let old = self.index[p].1;
            let mut copy = self.pool.try_read(old, |b| Box::new(*b))?;
            let l = Layout::of(&copy).map_err(|d| StorageError::corrupt(old, d))?;
            for &(id, rid) in mine {
                let k = l
                    .find(&copy[..], id)
                    .map_err(|d| StorageError::corrupt(old, d))?
                    .ok_or_else(|| absent(id))?;
                put_entry(&mut copy[..], l.entry_off(k), rid);
            }
            let fresh = self.pool.try_allocate()?;
            self.pool.try_write(fresh, |b| {
                b[..PAGE_DATA].copy_from_slice(&copy[..PAGE_DATA])
            })?;
            out.index[p].1 = fresh;
            rest = tail;
        }
        Ok(out)
    }

    /// Visit every `(id, rid)` in id order, checking the structure on the
    /// way: each page's layout, its first id against its fence, runs that
    /// are non-empty and ascend without overlap, within and across pages.
    pub fn try_walk(&self, mut f: impl FnMut(u32, RecordId)) -> StorageResult<DirectoryWalk> {
        let mut walk = DirectoryWalk::default();
        let mut next_free: u64 = 0; // smallest id the next run may start at
        for &(fence, page) in &self.index {
            let r = self.pool.try_read(page, |b| -> Result<(), String> {
                let l = Layout::of(b)?;
                if l.n_runs == 0 || l.run(b, 0) != (fence, 0) {
                    return Err(format!(
                        "directory page does not start at its fence {fence}"
                    ));
                }
                for i in 0..l.n_runs {
                    let (first, _) = l.run(b, i);
                    let (start, end) = l.span(b, i)?;
                    if u64::from(first) < next_free {
                        return Err(format!("run at id {first} overlaps the one before it"));
                    }
                    next_free = u64::from(first) + (end - start) as u64;
                    if next_free > 1 << 32 {
                        return Err(format!("run at id {first} runs past the id space"));
                    }
                    for k in start..end {
                        f(first + (k - start) as u32, l.entry(b, k));
                    }
                }
                walk.runs += l.n_runs as u64;
                walk.entries += l.n_ids as u64;
                Ok(())
            })?;
            r.map_err(|detail| StorageError::corrupt(page, detail))?;
            walk.pages += 1;
        }
        Ok(walk)
    }
}

fn put_entry(b: &mut [u8], off: usize, rid: RecordId) {
    codec::put_u32(b, off, rid.page);
    codec::put_u16(b, off + 4, rid.slot);
}

/// A directory page's header, checked to fit the page.
struct Layout {
    n_runs: usize,
    n_ids: usize,
}

impl Layout {
    fn of(b: &[u8; PAGE_SIZE]) -> Result<Layout, String> {
        let n_runs = codec::get_u16(b, 0) as usize;
        let n_ids = codec::get_u16(b, 2) as usize;
        if HDR + n_runs * RUN + n_ids * ENTRY > PAGE_DATA {
            return Err(format!(
                "directory page claims {n_runs} runs and {n_ids} ids, more than a page holds"
            ));
        }
        Ok(Layout { n_runs, n_ids })
    }

    /// Run `i`'s first id and first entry.
    fn run(&self, b: &[u8], i: usize) -> (u32, usize) {
        let off = HDR + i * RUN;
        (codec::get_u32(b, off), codec::get_u16(b, off + 4) as usize)
    }

    /// Entries `start..end` of run `i`, checked non-empty and in bounds.
    fn span(&self, b: &[u8], i: usize) -> Result<(usize, usize), String> {
        let start = self.run(b, i).1;
        let end = if i + 1 < self.n_runs {
            self.run(b, i + 1).1
        } else {
            self.n_ids
        };
        if start < end && end <= self.n_ids {
            Ok((start, end))
        } else {
            Err(format!(
                "run {i} spans entries {start}..{end} of {}",
                self.n_ids
            ))
        }
    }

    /// Entry index of `id` on this page, if the page maps it.
    fn find(&self, b: &[u8], id: u32) -> Result<Option<usize>, String> {
        let (mut lo, mut hi) = (0, self.n_runs);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.run(b, mid).0 <= id {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        let Some(i) = lo.checked_sub(1) else {
            return Ok(None);
        };
        let (start, end) = self.span(b, i)?;
        let k = (id - self.run(b, i).0) as usize;
        Ok((k < end - start).then_some(start + k))
    }

    fn entry_off(&self, k: usize) -> usize {
        HDR + self.n_runs * RUN + k * ENTRY
    }

    fn entry(&self, b: &[u8], k: usize) -> RecordId {
        let off = self.entry_off(k);
        RecordId {
            page: codec::get_u32(b, off),
            slot: codec::get_u16(b, off + 4),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemStore;

    fn pool() -> Arc<BufferPool> {
        Arc::new(BufferPool::new(Box::new(MemStore::new()), 256))
    }

    fn rid(id: u32) -> RecordId {
        RecordId {
            page: id.wrapping_mul(2_654_435_761),
            slot: id as u16,
        }
    }

    fn build(p: &Arc<BufferPool>, ids: impl IntoIterator<Item = u32>) -> IdDirectory {
        IdDirectory::try_build(Arc::clone(p), ids.into_iter().map(|id| (id, rid(id)))).unwrap()
    }

    #[test]
    fn dense_ids_fill_whole_pages_with_one_run_each() {
        let p = pool();
        let n = 3 * PAGE_IDS as u32 + 5;
        let d = build(&p, 0..n);
        assert_eq!(
            d.parts().iter().map(|&(f, _)| f).collect::<Vec<_>>(),
            [0, 1363, 2726, 4089]
        );
        let walk = d.try_walk(|_, _| ()).unwrap();
        assert_eq!((walk.pages, walk.runs, walk.entries), (4, 4, u64::from(n)));
        for id in [0, 1362, 1363, 4088, n - 1] {
            assert_eq!(d.try_get(id).unwrap(), Some(rid(id)), "id {id}");
        }
        assert_eq!(d.try_get(n).unwrap(), None);
    }

    #[test]
    fn empty_directory_answers_none_without_a_read() {
        let p = pool();
        let d = build(&p, []);
        assert!(d.is_empty() && d.parts().is_empty());
        p.reset_stats();
        assert_eq!(d.try_get(7).unwrap(), None);
        assert_eq!(p.stats().reads, 0);
    }

    #[test]
    fn unsorted_input_is_a_typed_error() {
        let err = IdDirectory::try_build(pool(), [(2, rid(2)), (2, rid(2))])
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, StorageError::Format { .. }), "{err}");
        let err = IdDirectory::try_from_parts(pool(), vec![(5, 1), (5, 2)], 2)
            .map(|_| ())
            .unwrap_err();
        assert!(err.to_string().contains("fences"), "{err}");
    }

    #[test]
    fn point_lookup_costs_one_access() {
        let p = pool();
        let d = build(&p, (0..100_000).map(|k| k * 3));
        p.flush_all();
        p.reset_stats();
        assert_eq!(d.try_get(54_321).unwrap(), Some(rid(54_321)));
        assert_eq!(d.try_get(54_322).unwrap(), None);
        assert_eq!(p.stats().reads, 1, "both ids share one directory page");
    }

    #[test]
    fn cow_update_isolates_old_snapshot_and_shares_untouched_pages() {
        let p = pool();
        let d = build(&p, 0..10 * PAGE_IDS as u32);
        let before = p.num_pages();
        let moved = RecordId { page: 9, slot: 9 };
        let d2 = d.try_cow_update(&[(5000, moved), (5001, moved)]).unwrap();
        assert_eq!(p.num_pages() - before, 1, "one page copied");
        let changed = d.parts().iter().zip(d2.parts()).filter(|(a, b)| a != b);
        assert_eq!(changed.count(), 1);
        assert_eq!(d.try_get(5000).unwrap(), Some(rid(5000)));
        assert_eq!(d2.try_get(5000).unwrap(), Some(moved));
        assert_eq!(d2.try_get(4999).unwrap(), Some(rid(4999)));
        assert_eq!(d2.len(), d.len());
    }

    #[test]
    fn cow_update_of_absent_id_is_a_typed_error() {
        let p = pool();
        let d = build(&p, (0..100).map(|k| k * 2));
        let err = d.try_cow_update(&[(3, rid(3))]).map(|_| ()).unwrap_err();
        assert!(matches!(err, StorageError::Format { .. }), "{err}");
    }

    #[test]
    fn cow_update_empty_is_a_no_op_alias() {
        let p = pool();
        let d = build(&p, 0..100);
        let before = p.num_pages();
        let d2 = d.try_cow_update(&[]).unwrap();
        assert_eq!(p.num_pages(), before);
        assert_eq!(d2.parts(), d.parts());
    }

    #[test]
    fn malformed_pages_are_typed_errors() {
        let p = pool();
        let d = build(&p, 0..500);
        let page = d.parts()[0].1;
        for (off, v) in [(0, u16::MAX), (0, 0), (2, 0)] {
            let saved = p.read(page, |b| codec::get_u16(b, off));
            p.write(page, |b| codec::put_u16(b, off, v));
            assert!(
                matches!(d.try_walk(|_, _| ()), Err(StorageError::Corrupt { .. })),
                "header field {off} = {v}"
            );
            if (off, v) != (0, 0) {
                assert!(matches!(d.try_get(10), Err(StorageError::Corrupt { .. })));
            }
            p.write(page, |b| codec::put_u16(b, off, saved));
        }
        // A first id that disagrees with the fence.
        p.write(page, |b| codec::put_u32(b, HDR, 1));
        assert!(d.try_walk(|_, _| ()).is_err());
    }
}
