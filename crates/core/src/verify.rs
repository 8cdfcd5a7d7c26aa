//! Offline integrity scrubber (`dm verify`).
//!
//! Walks every structure reachable from a catalog root and cross-checks
//! them against each other:
//!
//! * every heap page decodes cleanly under the store's record codec
//!   (slot directory in bounds, record framing intact, no duplicate ids),
//! * every id-directory entry `id → rid` points at a live heap slot
//!   whose record carries exactly that id, the entries total the
//!   catalog's record count, and the directory holds together: fences
//!   ascend, each page starts at its fence, runs ascend without overlap
//!   (a version-2/3 store's B+-tree is walked the same way),
//! * every R\*-tree leaf entry names a real heap page whose records'
//!   `(x, y, e)` vertical segments all fit inside the entry's MBR, and
//!   together the leaves reach every heap page exactly once,
//! * the catalog's cached counts agree with what is actually on disk,
//! * no page is reached twice ([`crate::catalog::page_set`], the set a
//!   live store must never reuse), and the pages nothing reaches are
//!   counted as free.
//!
//! Page-level CRC / framing corruption surfaces through the typed
//! [`StorageError::Corrupt`](dm_storage::StorageError) reads underneath;
//! record-level corruption is caught by unwinding the panicking compact
//! decoder. Everything lands in one [`VerifyReport`]; nothing in this
//! module ever writes.

use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use dm_geom::{Box3, Vec3};
use dm_index::RStarTree;
use dm_storage::{BTree, BufferPool, HeapFile, IdDirectory, PageId, RecordId, StorageResult};

use crate::catalog::{read_catalog, IdIndexRoot};
use crate::record::PageDecoder;

/// What the scrubber found. `errors` is empty iff the store is clean.
#[derive(Clone, Debug, Default)]
pub struct VerifyReport {
    /// Catalog page the scrub was rooted at.
    pub catalog_page: PageId,
    /// Heap pages listed by the catalog.
    pub heap_pages: usize,
    /// Pages of the file the catalog does not reach: retired versions
    /// waiting for reuse, or garbage from a crashed edit.
    pub free_pages: usize,
    /// Records that decoded cleanly.
    pub records: u64,
    /// Entries walked in the id index.
    pub id_entries: u64,
    /// Leaf entries walked in the R\*-tree.
    pub rtree_entries: u64,
    /// Every inconsistency found, human-readable.
    pub errors: Vec<String>,
}

impl VerifyReport {
    /// True iff no inconsistency was found.
    pub fn ok(&self) -> bool {
        self.errors.is_empty()
    }
}

impl std::fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "catalog @ page {}: {} heap pages ({} pages free), {} records, {} id index entries, {} rtree entries",
            self.catalog_page,
            self.heap_pages,
            self.free_pages,
            self.records,
            self.id_entries,
            self.rtree_entries
        )?;
        if self.ok() {
            write!(f, "OK: no inconsistencies found")
        } else {
            writeln!(f, "CORRUPT: {} error(s)", self.errors.len())?;
            for e in &self.errors {
                writeln!(f, "  - {e}")?;
            }
            Ok(())
        }
    }
}

/// One heap page fully decoded: `(slot, record id, vertical segment)`.
type DecodedPage = StorageResult<Vec<(u16, u32, Box3)>>;

/// Scrub the store rooted at `catalog_page`.
///
/// Returns `Err` only when the catalog itself cannot be read (nothing to
/// scrub against); every downstream inconsistency is collected into the
/// report instead.
pub fn verify_store(pool: &Arc<BufferPool>, catalog_page: PageId) -> StorageResult<VerifyReport> {
    let cat = read_catalog(pool, catalog_page)?;
    let mut report = VerifyReport {
        catalog_page,
        heap_pages: cat.heap_pages.len(),
        ..VerifyReport::default()
    };

    // Phase 1: decode every heap slot; map (page, slot) -> id and collect
    // each record's (x, y, e) vertical segment for the MBR checks.
    let heap = HeapFile::from_parts(Arc::clone(pool), cat.heap_pages.clone(), cat.heap_len);
    let e_cap = cat.e_max * 1.001 + 1e-9;
    let mut slot_ids: HashMap<(PageId, u16), u32> = HashMap::new();
    let mut segments: HashMap<PageId, Vec<Box3>> = HashMap::new();
    let mut seen_ids: HashSet<u32> = HashSet::new();
    for &page in heap.page_ids() {
        // The compact decoder panics on malformed records; catch the
        // unwind and turn it into a finding instead of a crash. Typed
        // slot-directory errors surface through the inner StorageResult.
        let decoded: Result<DecodedPage, _> = catch_unwind(AssertUnwindSafe(|| {
            heap.try_view_page(page, |view| {
                let mut out = Vec::with_capacity(view.n_slots() as usize);
                let mut dec = PageDecoder::new(cat.codec);
                for slot in 0..view.n_slots() {
                    let raw = dec.next(slot, view.record(slot)?);
                    raw.to_owned(); // verifies the full length framing
                                    // Root records carry e_hi = ∞; the index stores
                                    // them clamped to the same cap the build used.
                    let hi = if raw.e_hi().is_finite() {
                        raw.e_hi()
                    } else {
                        e_cap
                    };
                    out.push((
                        slot,
                        raw.id(),
                        Box3::vertical_segment(raw.pos_xy(), raw.e_lo().min(hi), hi),
                    ));
                }
                Ok(out)
            })
        }));
        match decoded {
            Ok(Ok(rows)) => {
                for (slot, id, seg) in rows {
                    if !seen_ids.insert(id) {
                        report.errors.push(format!(
                            "heap page {page} slot {slot}: duplicate node id {id}"
                        ));
                    }
                    slot_ids.insert((page, slot), id);
                    segments.entry(page).or_default().push(seg);
                    report.records += 1;
                }
            }
            Ok(Err(e)) => report.errors.push(format!("heap page {page}: {e}")),
            Err(_) => report
                .errors
                .push(format!("heap page {page}: record does not decode")),
        }
    }
    if report.records != cat.n_records as u64 {
        report.errors.push(format!(
            "catalog claims {} records, heap holds {}",
            cat.n_records, report.records
        ));
    }

    // Phase 2: every id-index entry must land on a live slot carrying
    // the same id, and the index must cover every record exactly once.
    let mut entries = 0u64;
    let mut check = |id: u64, rid: RecordId| {
        entries += 1;
        match slot_ids.get(&(rid.page, rid.slot)) {
            Some(&actual) if u64::from(actual) == id => {}
            Some(&actual) => report.errors.push(format!(
                "id {id} -> page {} slot {} which holds id {actual}",
                rid.page, rid.slot
            )),
            None => report.errors.push(format!(
                "id {id} -> page {} slot {} which does not exist",
                rid.page, rid.slot
            )),
        }
    };
    let walked = match cat.ids {
        IdIndexRoot::Directory(pages) => {
            IdDirectory::try_from_parts(Arc::clone(pool), pages, u64::from(cat.n_records))
                .and_then(|dir| dir.try_walk(|id, rid| check(id.into(), rid)).map(|_| ()))
        }
        IdIndexRoot::BTree(root, height, len) => {
            BTree::from_parts(Arc::clone(pool), root, len, height).try_range(
                0,
                u64::MAX,
                |id, rid| check(id, RecordId::from_u64(rid)),
            )
        }
    };
    if let Err(e) = walked {
        report.errors.push(format!("id index walk failed: {e}"));
    }
    report.id_entries = entries;
    if entries != u64::from(cat.n_records) || entries != report.records {
        report.errors.push(format!(
            "id index holds {entries} entries for {} records ({} in the heap)",
            cat.n_records, report.records
        ));
    }

    // Phase 3: R*-tree leaves must name real heap pages, bound their
    // records' segments, and reach every page exactly once.
    let (rt_root, rt_height, rt_len) = cat.rtree;
    let rtree = RStarTree::from_parts(Arc::clone(pool), rt_root, rt_height, rt_len);
    let everything = Box3 {
        min: Vec3::new(f64::NEG_INFINITY, f64::NEG_INFINITY, f64::NEG_INFINITY),
        max: Vec3::new(f64::INFINITY, f64::INFINITY, f64::INFINITY),
    };
    let heap_page_set: HashSet<PageId> = cat.heap_pages.iter().copied().collect();
    let mut reached: HashMap<PageId, usize> = HashMap::new();
    let mut rt_entries = 0u64;
    let scan = rtree.try_query(&everything, |mbr, val| {
        rt_entries += 1;
        let page = val as PageId;
        if !heap_page_set.contains(&page) {
            report
                .errors
                .push(format!("rtree leaf names page {page}, not a heap page"));
            return;
        }
        *reached.entry(page).or_insert(0) += 1;
        for (i, seg) in segments.get(&page).into_iter().flatten().enumerate() {
            if !mbr.contains_box(seg) {
                report.errors.push(format!(
                    "rtree MBR of page {page} does not contain record {i}'s segment"
                ));
            }
        }
    });
    if let Err(e) = scan {
        report.errors.push(format!("rtree walk failed: {e}"));
    }
    report.rtree_entries = rt_entries;

    // Phase 4: the page census. Each reachable page once; the rest of
    // the file is free.
    match crate::catalog::page_set(pool, catalog_page) {
        Ok(mut pages) => {
            for w in pages.windows(2).filter(|w| w[0] == w[1]) {
                report
                    .errors
                    .push(format!("page {} is reached more than once", w[0]));
            }
            pages.dedup();
            report.free_pages = (pool.num_pages() as usize).saturating_sub(pages.len());
        }
        Err(e) => report.errors.push(format!("page census failed: {e}")),
    }
    for &page in &cat.heap_pages {
        match reached.get(&page) {
            Some(1) => {}
            Some(n) => report
                .errors
                .push(format!("heap page {page} reached by {n} rtree leaves")),
            None => report
                .errors
                .push(format!("heap page {page} unreachable from the rtree")),
        }
    }

    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DirectMeshDb, DmBuildOptions, EditOp};
    use dm_geom::{Rect, Vec2};
    use dm_mtm::builder::{build_pm, PmBuildConfig};
    use dm_storage::{BufferPool, MemStore, PAGE_SIZE};
    use dm_terrain::{generate, TriMesh};

    fn built_db() -> (Arc<BufferPool>, DirectMeshDb) {
        let hf = generate::fractal_terrain(11, 11, 3);
        let pm = build_pm(TriMesh::from_heightfield(&hf), &PmBuildConfig::default());
        let pool = Arc::new(BufferPool::new(Box::new(MemStore::new()), 1024));
        let db = DirectMeshDb::create_in(Arc::clone(&pool), &pm, &DmBuildOptions::default());
        (pool, db)
    }

    #[test]
    fn clean_store_verifies() {
        let (pool, db) = built_db();
        let report = verify_store(&pool, 0).unwrap();
        assert!(report.ok(), "{report}");
        let stats = db.stats_summary();
        assert_eq!(report.records, stats.n_records);
        assert_eq!(report.id_entries, report.records);
        assert_eq!(report.heap_pages as u64, stats.heap_pages);
        assert_eq!(report.free_pages, 0, "a build reaches every page it wrote");
    }

    #[test]
    fn patched_store_verifies_at_its_new_catalog() {
        let (pool, db) = built_db();
        let c = db.bounds.center();
        let w = db.bounds.width() * 0.3;
        let region = Rect::from_corners(Vec2::new(c.x - w, c.y - w), Vec2::new(c.x + w, c.y + w));
        let out = db.apply_patch(&region, &EditOp::Raise(7.0)).unwrap();
        let report = verify_store(&pool, out.catalog_page).unwrap();
        assert!(report.ok(), "{report}");
        let report0 = verify_store(&pool, 0).unwrap();
        assert!(report0.ok(), "old snapshot stays clean: {report0}");
        // Each version's free pages are exactly what the other one added.
        let (old, new) = (db.page_set().unwrap(), out.db.page_set().unwrap());
        let added = new.iter().filter(|p| old.binary_search(p).is_err()).count();
        assert_eq!(report0.free_pages, added);
        assert_eq!(report.free_pages, pool.num_pages() as usize - new.len());
    }

    #[test]
    fn scrub_reports_a_page_reached_twice() {
        let (pool, _db) = built_db();
        let mut cat = read_catalog(&pool, 0).unwrap();
        let twice = cat.heap_pages[0];
        cat.heap_pages.push(twice);
        crate::catalog::write_catalog(&pool, 0, &cat).unwrap();
        let report = verify_store(&pool, 0).unwrap();
        let expected = format!("page {twice} is reached more than once");
        assert!(report.errors.contains(&expected), "{report}");
    }

    #[test]
    fn scrub_reports_smashed_heap_page() {
        let (pool, _db) = built_db();
        let victim = read_catalog(&pool, 0).unwrap().heap_pages[0];
        pool.try_write(victim, |buf| {
            for b in buf.iter_mut().take(PAGE_SIZE) {
                *b = 0xA5;
            }
        })
        .unwrap();
        let report = verify_store(&pool, 0).unwrap();
        assert!(!report.ok());
        assert!(
            report.errors.iter().any(|e| e.contains("heap page")),
            "{report}"
        );
    }
}
