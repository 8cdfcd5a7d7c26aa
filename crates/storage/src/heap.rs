//! Slotted heap files with variable-length records.
//!
//! Page layout:
//!
//! ```text
//! [n_slots: u16][free_off: u16]  header (4 bytes)
//! [(rec_off: u16, rec_len: u16)] * n_slots  slot directory, grows up
//! ...free space...
//! records, grow down from the end of the page
//! ```
//!
//! Records are immutable once inserted (terrain datasets are write-once,
//! read-many). Insertion order is therefore the clustering order: callers
//! sort records by Hilbert key before loading so that spatially close
//! points share pages.
//!
//! All offsets stay below [`PAGE_DATA`]: the buffer pool owns the last
//! four bytes of every page for its CRC32 trailer.

use std::any::Any;
use std::sync::Arc;

use crate::buffer::{BufferPool, PageRead};
use crate::error::{StorageError, StorageResult};
use crate::page::{codec, PageId, PAGE_DATA};

const HEADER: usize = 4;
const SLOT: usize = 4;

/// Address of a record: page + slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RecordId {
    pub page: PageId,
    pub slot: u16,
}

impl RecordId {
    /// Pack into a `u64` (for storage inside B+-tree values / index leaves).
    #[inline]
    pub fn to_u64(self) -> u64 {
        ((self.page as u64) << 16) | self.slot as u64
    }

    #[inline]
    pub fn from_u64(v: u64) -> Self {
        RecordId {
            page: (v >> 16) as PageId,
            slot: (v & 0xFFFF) as u16,
        }
    }
}

/// A heap file: an append-only bag of records spread over pages.
pub struct HeapFile {
    pool: Arc<BufferPool>,
    /// All pages of this file, in allocation order. Kept in memory as the
    /// file "catalog" (a production system would chain pages; the list is
    /// reconstructible and never consulted during measured queries, which
    /// reach records only through indexes).
    pages: Vec<PageId>,
    len: u64,
}

impl HeapFile {
    /// Largest record that fits on an empty page (the checksum trailer
    /// is outside the usable area).
    pub const MAX_RECORD: usize = PAGE_DATA - HEADER - SLOT;

    pub fn create(pool: Arc<BufferPool>) -> Self {
        HeapFile {
            pool,
            pages: Vec::new(),
            len: 0,
        }
    }

    /// Reattach to an existing file (catalog reload).
    pub fn from_parts(pool: Arc<BufferPool>, pages: Vec<PageId>, len: u64) -> Self {
        HeapFile { pool, pages, len }
    }

    /// Number of records inserted.
    pub fn len(&self) -> u64 {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of pages the file occupies.
    pub fn num_pages(&self) -> usize {
        self.pages.len()
    }

    /// Append a record, returning its address.
    ///
    /// A record never spans pages; if it does not fit in the free space of
    /// the last page a new page is allocated. Oversized records are
    /// rejected up front with [`StorageError::RecordTooLarge`] — nothing
    /// is allocated or written for them.
    pub fn try_insert(&mut self, record: &[u8]) -> StorageResult<RecordId> {
        if record.len() > Self::MAX_RECORD {
            return Err(StorageError::RecordTooLarge {
                len: record.len(),
                max: Self::MAX_RECORD,
            });
        }
        if let Some(&last) = self.pages.last() {
            if let Some(rid) = self.try_insert_into(last, record)? {
                self.len += 1;
                return Ok(rid);
            }
        }
        let page = self.pool.try_allocate()?;
        self.pages.push(page);
        let rid = self
            .try_insert_into(page, record)?
            .expect("record fits empty page");
        self.len += 1;
        Ok(rid)
    }

    /// Infallible [`Self::try_insert`] for build paths; panics on
    /// oversized records and storage errors.
    pub fn insert(&mut self, record: &[u8]) -> RecordId {
        self.try_insert(record).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Whether a record of `len` bytes would land on the current last
    /// page (mirrors [`Self::try_insert`]'s placement decision exactly).
    /// Page-aware codecs use this to decide between delta-encoding a
    /// record against the page's base and opening a fresh page.
    pub fn fits_in_last_page(&self, len: usize) -> StorageResult<bool> {
        let Some(&last) = self.pages.last() else {
            return Ok(false);
        };
        self.pool.try_read(last, |buf| {
            let n_slots = codec::get_u16(buf, 0) as usize;
            let free_off = {
                let f = codec::get_u16(buf, 2) as usize;
                if f == 0 {
                    PAGE_DATA
                } else {
                    f
                }
            };
            free_off >= HEADER + (n_slots + 1) * SLOT + len
        })
    }

    /// Append a record onto a *freshly allocated* page, even when it
    /// would fit on the current last one. The returned id always has
    /// slot 0 — the slot page-aware codecs reserve for base records.
    pub fn try_insert_new_page(&mut self, record: &[u8]) -> StorageResult<RecordId> {
        if record.len() > Self::MAX_RECORD {
            return Err(StorageError::RecordTooLarge {
                len: record.len(),
                max: Self::MAX_RECORD,
            });
        }
        let page = self.pool.try_allocate()?;
        self.pages.push(page);
        let rid = self
            .try_insert_into(page, record)?
            .expect("record fits empty page");
        self.len += 1;
        Ok(rid)
    }

    fn try_insert_into(&self, page: PageId, record: &[u8]) -> StorageResult<Option<RecordId>> {
        self.pool.try_write(page, |buf| {
            let n_slots = codec::get_u16(buf, 0) as usize;
            let free_off = {
                let f = codec::get_u16(buf, 2) as usize;
                if f == 0 {
                    PAGE_DATA // fresh page: records start at the trailer
                } else {
                    f
                }
            };
            let dir_end = HEADER + (n_slots + 1) * SLOT;
            if free_off < dir_end + record.len() {
                return None; // does not fit
            }
            let rec_off = free_off - record.len();
            buf[rec_off..free_off].copy_from_slice(record);
            let slot_off = HEADER + n_slots * SLOT;
            codec::put_u16(buf, slot_off, rec_off as u16);
            codec::put_u16(buf, slot_off + 2, record.len() as u16);
            codec::put_u16(buf, 0, (n_slots + 1) as u16);
            codec::put_u16(buf, 2, rec_off as u16);
            Some(RecordId {
                page,
                slot: n_slots as u16,
            })
        })
    }

    /// Fetch a record by address.
    pub fn try_get(&self, rid: RecordId) -> StorageResult<Vec<u8>> {
        self.try_view_page(rid.page, |view| Ok(view.record(rid.slot)?.to_vec()))
    }

    /// Run `f` against a borrowed [`PageView`] of one page — a single
    /// counted page access however many slots `f` reads. Codecs whose
    /// records reference a sibling slot (the compact codec's page base)
    /// decode point lookups through this.
    pub fn try_view_page<R>(
        &self,
        page: PageId,
        f: impl FnOnce(&PageView<'_>) -> StorageResult<R>,
    ) -> StorageResult<R> {
        self.pool.try_read(page, |buf| f(&PageView { page, buf }))?
    }

    /// [`Self::try_view_page`] through the pool's decoded sidecar
    /// ([`BufferPool::try_read_decoded`]): still one counted page access;
    /// a residency's first visit runs `raw` on the page's view, later
    /// ones hand back its decoded form, which `build` makes once.
    pub fn try_view_page_decoded<T: Any + Send + Sync, R>(
        &self,
        page: PageId,
        raw: impl FnOnce(&PageView<'_>) -> StorageResult<R>,
        build: impl FnOnce(&PageView<'_>) -> StorageResult<Option<(T, usize)>>,
    ) -> StorageResult<PageRead<T, R>> {
        let read = self.pool.try_read_decoded(
            page,
            |buf| raw(&PageView { page, buf }),
            |buf| build(&PageView { page, buf }),
        )?;
        Ok(match read {
            PageRead::Raw(r) => PageRead::Raw(r?),
            PageRead::Decoded(d) => PageRead::Decoded(d),
        })
    }

    /// Infallible [`Self::try_get`]; panics on storage errors.
    pub fn get(&self, rid: RecordId) -> Vec<u8> {
        self.try_get(rid).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Run `f` over every record in the page with id `page` (used by index
    /// scans that fetch whole pages).
    pub fn try_for_each_in_page(
        &self,
        page: PageId,
        mut f: impl FnMut(RecordId, &[u8]),
    ) -> StorageResult<()> {
        self.try_view_page(page, |view| {
            for slot in 0..view.n_slots() {
                f(RecordId { page, slot }, view.record(slot)?);
            }
            Ok(())
        })
    }

    /// Infallible [`Self::try_for_each_in_page`]; panics on storage errors.
    pub fn for_each_in_page(&self, page: PageId, f: impl FnMut(RecordId, &[u8])) {
        self.try_for_each_in_page(page, f)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Iterate every record in file order (page by page).
    pub fn try_scan(&self, mut f: impl FnMut(RecordId, &[u8])) -> StorageResult<()> {
        for &page in &self.pages {
            self.try_for_each_in_page(page, &mut f)?;
        }
        Ok(())
    }

    /// Infallible [`Self::try_scan`]; panics on storage errors.
    pub fn scan(&self, f: impl FnMut(RecordId, &[u8])) {
        self.try_scan(f).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The page ids of this file in order.
    pub fn page_ids(&self) -> &[PageId] {
        &self.pages
    }
}

/// A borrowed view of one heap page's slot directory (see
/// [`HeapFile::try_view_page`]).
pub struct PageView<'a> {
    page: PageId,
    buf: &'a [u8],
}

impl PageView<'_> {
    /// Number of records on the page.
    pub fn n_slots(&self) -> u16 {
        codec::get_u16(self.buf, 0)
    }

    /// The bytes of the record in `slot`.
    pub fn record(&self, slot: u16) -> StorageResult<&[u8]> {
        let n_slots = self.n_slots();
        if slot >= n_slots {
            return Err(StorageError::corrupt(
                self.page,
                format!("slot {slot} out of range ({n_slots})"),
            ));
        }
        let slot_off = HEADER + slot as usize * SLOT;
        let rec_off = codec::get_u16(self.buf, slot_off) as usize;
        let rec_len = codec::get_u16(self.buf, slot_off + 2) as usize;
        if rec_off + rec_len > PAGE_DATA {
            return Err(StorageError::corrupt(
                self.page,
                format!("slot {slot} points past the page payload"),
            ));
        }
        Ok(&self.buf[rec_off..rec_off + rec_len])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemStore;

    fn heap() -> HeapFile {
        HeapFile::create(Arc::new(BufferPool::new(Box::new(MemStore::new()), 64)))
    }

    #[test]
    fn record_id_packing() {
        let rid = RecordId {
            page: 0xABCDEF,
            slot: 0x1234,
        };
        assert_eq!(RecordId::from_u64(rid.to_u64()), rid);
    }

    #[test]
    fn insert_and_get() {
        let mut h = heap();
        let a = h.insert(b"hello");
        let b = h.insert(b"direct mesh");
        assert_eq!(h.get(a), b"hello");
        assert_eq!(h.get(b), b"direct mesh");
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn records_spill_to_new_pages() {
        let mut h = heap();
        let rec = vec![0x5Au8; 1000];
        let ids: Vec<_> = (0..50).map(|_| h.insert(&rec)).collect();
        assert!(h.num_pages() > 1, "1000-byte records must span pages");
        // 8 records of 1004 bytes (with slot) fit per page.
        assert!(h.num_pages() <= 8);
        for id in ids {
            assert_eq!(h.get(id).len(), 1000);
        }
    }

    #[test]
    fn variable_lengths_roundtrip() {
        let mut h = heap();
        let recs: Vec<Vec<u8>> = (0..200).map(|i| vec![i as u8; (i * 7) % 300 + 1]).collect();
        let ids: Vec<_> = recs.iter().map(|r| h.insert(r)).collect();
        for (rid, rec) in ids.iter().zip(&recs) {
            assert_eq!(&h.get(*rid), rec);
        }
    }

    #[test]
    fn empty_record_is_legal() {
        let mut h = heap();
        let rid = h.insert(b"");
        assert_eq!(h.get(rid), b"");
    }

    #[test]
    fn max_record_fills_page() {
        let mut h = heap();
        let rec = vec![1u8; HeapFile::MAX_RECORD];
        let rid = h.insert(&rec);
        assert_eq!(h.get(rid), rec);
        assert_eq!(h.num_pages(), 1);
        h.insert(b"x");
        assert_eq!(h.num_pages(), 2, "full page forces allocation");
    }

    #[test]
    #[should_panic(expected = "exceeds page capacity")]
    fn oversized_record_panics() {
        let mut h = heap();
        h.insert(&vec![0u8; HeapFile::MAX_RECORD + 1]);
    }

    #[test]
    fn oversized_record_is_a_typed_error_and_allocates_nothing() {
        let mut h = heap();
        let err = h
            .try_insert(&vec![0u8; HeapFile::MAX_RECORD + 1])
            .unwrap_err();
        assert!(matches!(
            err,
            StorageError::RecordTooLarge { len, max }
                if len == HeapFile::MAX_RECORD + 1 && max == HeapFile::MAX_RECORD
        ));
        assert_eq!(h.len(), 0);
        assert_eq!(h.num_pages(), 0, "rejected record must not allocate a page");
        // The file still works afterwards.
        let rid = h.try_insert(b"ok").unwrap();
        assert_eq!(h.get(rid), b"ok");
    }

    #[test]
    fn scan_visits_all_in_order() {
        let mut h = heap();
        for i in 0u32..500 {
            h.insert(&i.to_le_bytes());
        }
        let mut seen = Vec::new();
        h.scan(|_, rec| seen.push(u32::from_le_bytes(rec.try_into().unwrap())));
        assert_eq!(seen, (0..500).collect::<Vec<_>>());
    }

    #[test]
    fn for_each_in_page_counts_one_access() {
        let mut h = heap();
        for i in 0u32..100 {
            h.insert(&i.to_le_bytes());
        }
        let pool = Arc::clone(&h.pool);
        pool.flush_all();
        pool.reset_stats();
        h.for_each_in_page(h.page_ids()[0], |_, _| {});
        assert_eq!(pool.stats().reads, 1, "page scan = one disk access");
    }

    #[test]
    fn fits_in_last_page_mirrors_insert_placement() {
        let mut h = heap();
        assert!(!h.fits_in_last_page(1).unwrap(), "no pages yet");
        let rec = vec![0x5Au8; 1000];
        h.insert(&rec);
        // Placement prediction must agree with the actual insert for a
        // range of sizes straddling the remaining free space.
        for len in [1usize, 500, 1000, 4000, 7000, HeapFile::MAX_RECORD] {
            let predicted = h.fits_in_last_page(len).unwrap();
            let pages_before = h.num_pages();
            let rid = h.insert(&vec![1u8; len]);
            assert_eq!(
                predicted,
                h.num_pages() == pages_before,
                "prediction wrong for len {len} (rid {rid:?})"
            );
        }
    }

    #[test]
    fn insert_new_page_forces_allocation_at_slot_zero() {
        let mut h = heap();
        h.insert(b"tiny");
        let rid = h.try_insert_new_page(b"base").unwrap();
        assert_eq!(rid.slot, 0);
        assert_eq!(h.num_pages(), 2, "fresh page despite ample free space");
        assert_eq!(h.get(rid), b"base");
        // Oversized records are still rejected without allocating.
        let err = h
            .try_insert_new_page(&vec![0u8; HeapFile::MAX_RECORD + 1])
            .unwrap_err();
        assert!(matches!(err, StorageError::RecordTooLarge { .. }));
        assert_eq!(h.num_pages(), 2);
    }

    #[test]
    fn page_view_reads_multiple_slots_in_one_access() {
        let mut h = heap();
        let a = h.insert(b"base record");
        let b = h.insert(b"delta");
        assert_eq!(a.page, b.page);
        let pool = Arc::clone(&h.pool);
        pool.flush_all();
        pool.reset_stats();
        h.try_view_page(a.page, |view| {
            assert_eq!(view.n_slots(), 2);
            assert_eq!(view.record(0)?, b"base record");
            assert_eq!(view.record(1)?, b"delta");
            assert!(view.record(2).is_err(), "out-of-range slot is typed");
            Ok(())
        })
        .unwrap();
        assert_eq!(pool.stats().reads, 1, "both slots from one disk access");
    }

    #[test]
    fn data_survives_flush() {
        let mut h = heap();
        let ids: Vec<_> = (0u32..300).map(|i| h.insert(&i.to_le_bytes())).collect();
        h.pool.flush_all();
        for (i, rid) in ids.iter().enumerate() {
            assert_eq!(h.get(*rid), (i as u32).to_le_bytes());
        }
    }
}
