//! Sharded buffer pool with per-shard LRU eviction, access counting,
//! page checksums and bounded retry.

use std::any::Any;
use std::collections::{BTreeSet, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::checksum::{seal_page, verify_page};
use crate::error::StorageResult;
use crate::page::{zeroed_page, PageBuf, PageId, PAGE_SIZE};
use crate::stats::{AccessStats, StatsSnapshot};
use crate::store::PageStore;

/// Default number of times a failed page read is re-issued before the
/// error propagates.
pub const DEFAULT_MAX_RETRIES: u32 = 4;

/// Default number of lock-striped segments. 16 keeps contention low for
/// a handful of query workers (the expected 2–8) while per-shard LRU
/// state stays large enough that striping does not distort eviction for
/// any pool of a few hundred frames or more.
pub const DEFAULT_SHARDS: usize = 16;

/// No frame: the end of a recency list.
const NIL: u32 = u32::MAX;

struct Frame {
    id: PageId,
    buf: PageBuf,
    dirty: bool,
    /// The next older and next newer frame in the shard's recency list
    /// (slots into `Inner::frames`; `NIL` past either end).
    older: u32,
    newer: u32,
    /// [`BufferPool::try_read_decoded`] has visited this residency
    /// before: one visit predicts nothing, a second one pays for a decode.
    visited: bool,
    /// The caller's decoded form of `buf` and the heap bytes it reported
    /// (see [`BufferPool::try_read_decoded`]). Immutable, and it lives
    /// exactly as long as the frame: `install` starts it empty,
    /// `try_write` clears it, eviction and flush drop it with the frame.
    decoded: Option<(Arc<dyn Any + Send + Sync>, usize)>,
}

/// What [`BufferPool::try_read_decoded`] served a page access from.
pub enum PageRead<T, R> {
    /// The page's bytes: the raw closure's result.
    Raw(R),
    /// The frame's decoded sidecar, to be used with no lock held.
    Decoded(Arc<T>),
}

/// How much of the pool is decoded (see [`BufferPool::decoded_stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DecodedStats {
    /// Resident frames carrying a sidecar right now.
    pub frames: usize,
    /// Heap bytes of those sidecars, as their `build` closures reported.
    pub bytes: usize,
    /// Sidecars built since the pool was opened.
    pub builds: u64,
}

impl std::fmt::Display for DecodedStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} frames decoded ({} B), {} builds",
            self.frames, self.bytes, self.builds
        )
    }
}

/// The Fx (rustc) multiply hash for page-id keys. Ids are dense internal
/// integers, so SipHash's keyed setup buys nothing; the final rotation
/// moves well-mixed product bits into the bucket index, because every
/// id of one shard shares its low bits (`id % num_shards`).
#[derive(Default)]
struct PageIdHasher(u64);

impl Hasher for PageIdHasher {
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

/// One shard's resident pages: a dense slab of frames, a page id → slot
/// map, and an intrusive doubly-linked recency list threaded through the
/// frames. A hit is one hash probe plus a constant-time relink; the
/// victim is the list's oldest end — exact LRU, as a touch-ordered tick
/// index would pick, without one.
struct Inner {
    frames: Vec<Frame>,
    slot_of: HashMap<PageId, u32, BuildHasherDefault<PageIdHasher>>,
    /// Least recently used frame (the next victim), most recently used.
    oldest: u32,
    newest: u32,
    capacity: usize,
}

impl Inner {
    fn with_capacity(capacity: usize) -> Self {
        Inner {
            frames: Vec::new(),
            slot_of: HashMap::default(),
            oldest: NIL,
            newest: NIL,
            capacity,
        }
    }

    fn len(&self) -> usize {
        self.frames.len()
    }

    fn contains(&self, id: PageId) -> bool {
        self.slot_of.contains_key(&id)
    }

    /// Point `older`'s newer link at `to_newer` and `newer`'s older link
    /// at `to_older`, where `NIL` stands for the list's ends.
    fn relink(&mut self, older: u32, to_newer: u32, newer: u32, to_older: u32) {
        match older {
            NIL => self.oldest = to_newer,
            o => self.frames[o as usize].newer = to_newer,
        }
        match newer {
            NIL => self.newest = to_older,
            n => self.frames[n as usize].older = to_older,
        }
    }

    fn unlink(&mut self, slot: u32) {
        let Frame { older, newer, .. } = self.frames[slot as usize];
        self.relink(older, newer, newer, older);
    }

    fn push_newest(&mut self, slot: u32) {
        let older = self.newest;
        let frame = &mut self.frames[slot as usize];
        frame.older = older;
        frame.newer = NIL;
        self.relink(older, slot, NIL, slot);
    }

    /// The resident frame of `id`, now the most recently used.
    fn touch(&mut self, id: PageId) -> Option<u32> {
        let slot = *self.slot_of.get(&id)?;
        if slot != self.newest {
            self.unlink(slot);
            self.push_newest(slot);
        }
        Some(slot)
    }

    /// Add a frame as the most recently used; returns its slot.
    fn insert(&mut self, frame: Frame) -> u32 {
        let slot = self.frames.len() as u32;
        self.slot_of.insert(frame.id, slot);
        self.frames.push(frame);
        self.push_newest(slot);
        slot
    }

    /// Remove and return the least recently used frame. The slab's last
    /// frame moves into the vacated slot, so the slab stays dense.
    fn pop_oldest(&mut self) -> Option<Frame> {
        let slot = self.oldest;
        if slot == NIL {
            return None;
        }
        self.unlink(slot);
        let frame = self.frames.swap_remove(slot as usize);
        self.slot_of.remove(&frame.id);
        if let Some(moved) = self.frames.get(slot as usize) {
            let (id, older, newer) = (moved.id, moved.older, moved.newer);
            self.slot_of.insert(id, slot);
            self.relink(older, slot, newer, slot);
        }
        Some(frame)
    }

    fn clear(&mut self) {
        self.frames.clear();
        self.slot_of.clear();
        self.oldest = NIL;
        self.newest = NIL;
    }
}

/// One lock stripe: its own mutex-protected LRU cache plus a mirror of
/// the access counters, so concurrent readers of disjoint pages never
/// touch the same lock and per-shard traffic stays observable.
struct Shard {
    inner: Mutex<Inner>,
    stats: AccessStats,
}

/// A buffer pool over a [`PageStore`].
///
/// * `try_read`/`try_write` run a closure against the cached page,
///   fetching from the store on a miss (counted in [`AccessStats`]). A
///   fetched page is checksum-verified; verification failures and
///   transient I/O errors are retried up to `max_retries` times (each
///   re-issue counted in the `retries` stat) before the error surfaces.
/// * `read`/`write`/`allocate`/`flush_all` are the infallible wrappers
///   the write-once build paths use; they panic on storage errors.
/// * `try_write_back` seals (checksums) and writes back every dirty page
///   and keeps it resident — a commit. `try_flush_all` does the same and
///   then empties the cache — the paper's "the database and system buffer
///   is flushed before each test".
/// * `release` hands pages back: `try_allocate` reuses the lowest
///   released id before it grows the store. The caller decides when a
///   page is garbage; a pool that never releases only ever appends.
///
/// # Concurrency
///
/// The pool is sharded: page `id` lives in shard `id % num_shards`, each
/// shard behind its own mutex with its own LRU state. Threads touching
/// disjoint pages in different shards proceed without contention; two
/// threads missing on the *same* page serialize on its shard, so the
/// second waits for the first's fetch and then hits the cache — a page
/// is fetched from the store at most once per residency, which keeps the
/// logical disk-access count identical to a sequential execution of the
/// same page-touch set (absent capacity evictions).
///
/// Lock ordering: no code path holds two shard locks at once.
/// `try_flush_all` visits shards one at a time in index order, and every
/// other operation touches exactly the one shard its page maps to, so
/// the pool cannot deadlock against itself.
///
/// `capacity` is striped: each shard holds up to
/// `max(1, capacity / num_shards)` frames (rounded up), evicting by its
/// own LRU order. A pool that must reproduce exact *global* LRU behavior
/// (some unit tests; pathological single-page workloads) can ask for one
/// shard via [`Self::with_shard_count`].
pub struct BufferPool {
    store: Box<dyn PageStore>,
    shards: Vec<Shard>,
    stats: Arc<AccessStats>,
    max_retries: u32,
    /// Sidecars built since open (a statistic: publishes no other data).
    decoded_builds: AtomicU64,
    /// Released page ids, reused lowest first by [`Self::try_allocate`].
    free: Mutex<BTreeSet<PageId>>,
}

impl BufferPool {
    /// `capacity` is the number of resident pages (e.g. 1024 ≈ 8 MiB),
    /// striped over `min(DEFAULT_SHARDS, capacity)` shards.
    pub fn new(store: Box<dyn PageStore>, capacity: usize) -> Self {
        let shards = DEFAULT_SHARDS.min(capacity.max(1));
        Self::with_shard_count(store, capacity, shards)
    }

    /// [`Self::new`] with an explicit shard count (clamped to ≥ 1).
    pub fn with_shard_count(store: Box<dyn PageStore>, capacity: usize, shards: usize) -> Self {
        assert!(capacity >= 1, "buffer pool needs at least one frame");
        let n = shards.max(1);
        let per_shard = capacity.div_ceil(n).max(1);
        BufferPool {
            store,
            shards: (0..n)
                .map(|_| Shard {
                    inner: Mutex::new(Inner::with_capacity(per_shard)),
                    stats: AccessStats::new(),
                })
                .collect(),
            stats: Arc::new(AccessStats::new()),
            max_retries: DEFAULT_MAX_RETRIES,
            decoded_builds: AtomicU64::new(0),
            free: Mutex::new(BTreeSet::new()),
        }
    }

    /// Override the retry budget for failed page reads (0 disables).
    pub fn with_max_retries(mut self, max_retries: u32) -> Self {
        self.max_retries = max_retries;
        self
    }

    pub fn max_retries(&self) -> u32 {
        self.max_retries
    }

    /// Number of lock stripes.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    fn shard(&self, id: PageId) -> &Shard {
        &self.shards[id as usize % self.shards.len()]
    }

    /// Allocate a zeroed page and cache it: the lowest released id if
    /// there is one (see [`Self::release`]), else a fresh page at the end
    /// of the store.
    ///
    /// Allocation itself is not counted as a read: it is part of dataset
    /// construction, which the paper excludes ("not measured are those
    /// once-off costs"). The new frame starts dirty so the page is sealed
    /// with a checksum on its first flush/evict even if never written. A
    /// reused id's old content is never read: a resident frame of it is
    /// zeroed in place and loses its sidecar.
    pub fn try_allocate(&self) -> StorageResult<PageId> {
        let reused = self.free.lock().pop_first();
        let id = match reused {
            Some(id) => id,
            None => self.store.allocate()?,
        };
        let shard = self.shard(id);
        let mut inner = shard.inner.lock();
        if let Some(slot) = inner.touch(id) {
            let frame = &mut inner.frames[slot as usize];
            frame.buf.fill(0);
            frame.dirty = true;
            frame.visited = false;
            frame.decoded = None;
            return Ok(id);
        }
        self.install(shard, &mut inner, id, zeroed_page(), true)?;
        Ok(id)
    }

    /// Hand `pages` back for reuse by [`Self::try_allocate`]. The caller
    /// guarantees that nothing reads them any more: no live handle names
    /// them, and no durable root a recovery could fall back to does.
    pub fn release(&self, pages: &[PageId]) {
        self.free.lock().extend(pages.iter().copied());
    }

    /// The released ids not yet reused, ascending.
    pub fn free_pages(&self) -> Vec<PageId> {
        self.free.lock().iter().copied().collect()
    }

    /// Infallible [`Self::try_allocate`] for build paths.
    pub fn allocate(&self) -> PageId {
        self.try_allocate()
            .unwrap_or_else(|e| panic!("allocate: {e}"))
    }

    /// Run `f` against an immutable view of the page.
    ///
    /// `f` runs while the page's shard lock is held: keep it short (the
    /// record-decode closures this workspace passes are) — other pages in
    /// the same shard are blocked for its duration, other shards are not.
    pub fn try_read<R>(
        &self,
        id: PageId,
        f: impl FnOnce(&[u8; PAGE_SIZE]) -> R,
    ) -> StorageResult<R> {
        let shard = self.shard(id);
        let mut inner = shard.inner.lock();
        let slot = self.ensure_cached(shard, &mut inner, id)?;
        Ok(f(&inner.frames[slot].buf))
    }

    /// [`Self::try_read`] for callers that keep a decoded form of the
    /// page: the same counted access (one `ensure_cached`: hit/miss
    /// accounting, LRU refresh, retries and fault handling are
    /// `try_read`'s), served from whichever side is cheaper.
    ///
    /// * The *first visit* of a residency — the access that fetched the
    ///   page, or the first one to find it resident after something else
    ///   did — runs `raw` on the verified bytes under the shard lock,
    ///   exactly as `try_read` would. A page seen once is decoded for the
    ///   one query that asked, not in full.
    /// * From the *second visit* on it returns the page's sidecar, built
    ///   once per residency by `build` (under the shard lock, so two
    ///   threads never build the same page twice) together with the heap
    ///   bytes it occupies. The caller works on the `Arc` after the lock
    ///   is released. `build` may decline with `Ok(None)` — a caller that
    ///   reads two slots must not pay for a whole-page decode — and then
    ///   `raw` runs instead; a sidecar somebody else built is still
    ///   returned. A failing `build` is the call's error and leaves the
    ///   frame without a sidecar, so the next visit tries again.
    ///
    /// All callers of one pool must agree on `T` per page.
    pub fn try_read_decoded<T: Any + Send + Sync, R>(
        &self,
        id: PageId,
        raw: impl FnOnce(&[u8; PAGE_SIZE]) -> R,
        build: impl FnOnce(&[u8; PAGE_SIZE]) -> StorageResult<Option<(T, usize)>>,
    ) -> StorageResult<PageRead<T, R>> {
        let shard = self.shard(id);
        let mut inner = shard.inner.lock();
        let slot = self.ensure_cached(shard, &mut inner, id)?;
        let frame = &mut inner.frames[slot];
        let first_visit = !std::mem::replace(&mut frame.visited, true);
        if frame.decoded.is_none() {
            let built = if first_visit {
                None
            } else {
                build(&frame.buf)?
            };
            let Some((decoded, bytes)) = built else {
                return Ok(PageRead::Raw(raw(&frame.buf)));
            };
            self.decoded_builds.fetch_add(1, Ordering::Relaxed);
            frame.decoded = Some((Arc::new(decoded), bytes));
        }
        let (decoded, _) = frame.decoded.as_ref().expect("just built");
        let decoded = Arc::clone(decoded)
            .downcast::<T>()
            .expect("one sidecar type per page");
        Ok(PageRead::Decoded(decoded))
    }

    /// Infallible [`Self::try_read`]; panics on storage errors.
    pub fn read<R>(&self, id: PageId, f: impl FnOnce(&[u8; PAGE_SIZE]) -> R) -> R {
        self.try_read(id, f)
            .unwrap_or_else(|e| panic!("read page {id}: {e}"))
    }

    /// Run `f` against a mutable view of the page and mark it dirty.
    pub fn try_write<R>(
        &self,
        id: PageId,
        f: impl FnOnce(&mut [u8; PAGE_SIZE]) -> R,
    ) -> StorageResult<R> {
        let shard = self.shard(id);
        let mut inner = shard.inner.lock();
        let slot = self.ensure_cached(shard, &mut inner, id)?;
        let frame = &mut inner.frames[slot];
        frame.dirty = true;
        frame.decoded = None;
        Ok(f(&mut frame.buf))
    }

    /// Infallible [`Self::try_write`]; panics on storage errors.
    pub fn write<R>(&self, id: PageId, f: impl FnOnce(&mut [u8; PAGE_SIZE]) -> R) -> R {
        self.try_write(id, f)
            .unwrap_or_else(|e| panic!("write page {id}: {e}"))
    }

    /// Write back all dirty pages (sealing each with its checksum) and
    /// sync the store, keeping every frame resident and now clean — a
    /// commit that leaves readers their working set.
    ///
    /// Shards are written one at a time in index order (never two locks
    /// at once). The first error is returned after every shard has been
    /// visited; a page whose write failed stays dirty.
    pub fn try_write_back(&self) -> StorageResult<()> {
        self.write_back(false)
    }

    /// [`Self::try_write_back`], then drop the entire cache. After this
    /// call every page access is a miss — a cold buffer.
    ///
    /// Concurrent readers may repopulate already-flushed shards before
    /// the call returns; flushing is a quiescent-state operation, exactly
    /// like the measurement protocol that uses it.
    ///
    /// On error the cache is still emptied (the failed page's data may be
    /// lost — that is the fault being simulated), and the first error is
    /// returned.
    pub fn try_flush_all(&self) -> StorageResult<()> {
        self.write_back(true)
    }

    fn write_back(&self, clear: bool) -> StorageResult<()> {
        let mut first_err = None;
        for shard in &self.shards {
            let mut inner = shard.inner.lock();
            for frame in inner.frames.iter_mut().filter(|f| f.dirty) {
                self.stats.record_write();
                shard.stats.record_write();
                seal_page(&mut frame.buf);
                match self.store.write_page(frame.id, &frame.buf) {
                    Ok(()) => frame.dirty = false,
                    Err(e) => {
                        first_err.get_or_insert(e);
                    }
                }
            }
            if clear {
                inner.clear();
            }
        }
        match self.store.sync() {
            Err(e) if first_err.is_none() => Err(e),
            _ => match first_err {
                Some(e) => Err(e),
                None => Ok(()),
            },
        }
    }

    /// Infallible [`Self::try_flush_all`]; panics on storage errors.
    pub fn flush_all(&self) {
        self.try_flush_all()
            .unwrap_or_else(|e| panic!("flush_all: {e}"));
    }

    /// Number of pages allocated in the underlying store.
    pub fn num_pages(&self) -> u32 {
        self.store.num_pages()
    }

    /// Number of pages currently resident in the cache (all shards).
    pub fn resident(&self) -> usize {
        self.shards.iter().map(|s| s.inner.lock().len()).sum()
    }

    /// Which of `pages` are currently resident, without disturbing the
    /// pool: the probe takes each involved shard's lock exactly once,
    /// never moves a page in the recency list, and never touches
    /// [`AccessStats`] — a residency question is measurement
    /// introspection (a bench telling hits from misses before it times
    /// them), not a logical disk access, so it must not age other pages
    /// toward eviction or inflate any read counter. Returns one flag per
    /// input page, in input order (duplicates allowed).
    pub fn residency(&self, pages: &[PageId]) -> Vec<bool> {
        let mut out = vec![false; pages.len()];
        let n = self.shards.len();
        for (si, shard) in self.shards.iter().enumerate() {
            // Lock lazily: shards none of the probed pages map to are
            // never locked at all.
            let mut inner = None;
            for (slot, &page) in pages.iter().enumerate() {
                if page as usize % n == si {
                    let inner = inner.get_or_insert_with(|| shard.inner.lock());
                    out[slot] = inner.contains(page);
                }
            }
        }
        out
    }

    /// How many of `pages` are resident (see [`Self::residency`]).
    pub fn resident_among(&self, pages: &[PageId]) -> usize {
        self.residency(pages).into_iter().filter(|&r| r).count()
    }

    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// Resident frames carrying a decoded sidecar, their reported bytes,
    /// and builds since open. Introspection like [`Self::residency`]:
    /// one lock per shard, no LRU refresh, no counted access.
    pub fn decoded_stats(&self) -> DecodedStats {
        let mut out = DecodedStats {
            builds: self.decoded_builds.load(Ordering::Relaxed),
            ..DecodedStats::default()
        };
        for shard in &self.shards {
            for (_, bytes) in shard.inner.lock().frames.iter().flat_map(|f| &f.decoded) {
                out.frames += 1;
                out.bytes += bytes;
            }
        }
        out
    }

    /// Per-shard counter snapshots, in shard-index order. Each page
    /// access is mirrored into exactly one shard's counters, so the
    /// field-wise sum over this vector equals [`Self::stats`].
    pub fn shard_stats(&self) -> Vec<StatsSnapshot> {
        self.shards.iter().map(|s| s.stats.snapshot()).collect()
    }

    pub fn reset_stats(&self) {
        self.stats.reset();
        for shard in &self.shards {
            shard.stats.reset();
        }
    }

    /// Shared handle to the global counters (for sub-systems that want to
    /// record logical accesses of their own).
    pub fn stats_handle(&self) -> Arc<AccessStats> {
        Arc::clone(&self.stats)
    }

    /// The slot of `id`'s frame, fetched on a miss; either way the page
    /// is now the shard's most recently used.
    fn ensure_cached(&self, shard: &Shard, inner: &mut Inner, id: PageId) -> StorageResult<usize> {
        if let Some(slot) = inner.touch(id) {
            return Ok(slot as usize);
        }
        self.stats.record_read();
        shard.stats.mirror_read();
        let buf = self.fetch_verified(shard, id)?;
        self.install(shard, inner, id, buf, false)
    }

    /// Read `id` from the store and checksum-verify it, re-issuing the
    /// read after retryable failures (transient I/O, corruption) up to
    /// `max_retries` times.
    ///
    /// Runs with the page's shard lock held: a second thread asking for
    /// the same page waits here and then hits the cache, so no page is
    /// double-fetched.
    fn fetch_verified(&self, shard: &Shard, id: PageId) -> StorageResult<PageBuf> {
        let mut attempt = 0u32;
        loop {
            let result: StorageResult<PageBuf> = (|| {
                let mut buf = zeroed_page();
                self.store.read_page(id, &mut buf)?;
                verify_page(id, &buf)?;
                Ok(buf)
            })();
            match result {
                Ok(buf) => return Ok(buf),
                Err(e) => {
                    if !e.is_retryable() || attempt >= self.max_retries {
                        return Err(e);
                    }
                    attempt += 1;
                    self.stats.record_retry();
                    shard.stats.mirror_retry();
                }
            }
        }
    }

    /// Evict the shard's LRU victim, sealing and writing it back if
    /// dirty. Shared by [`Self::install`] (making room for an incoming
    /// page) and [`Self::try_set_capacity`] (shrinking the shard).
    fn evict_one(&self, shard: &Shard, inner: &mut Inner) -> StorageResult<()> {
        let mut frame = inner.pop_oldest().expect("lru nonempty");
        if frame.dirty {
            self.stats.record_write();
            shard.stats.record_write();
            seal_page(&mut frame.buf);
            self.store.write_page(frame.id, &frame.buf)?;
        }
        Ok(())
    }

    /// Re-stripe the pool to a new total `capacity` (pages), in place.
    ///
    /// Growing only raises the per-shard limits. Shrinking additionally
    /// evicts each over-full shard's LRU victims down to the new limit,
    /// sealing and writing back dirty pages exactly like a capacity
    /// eviction on `install`. Shards are visited one at a time in
    /// index order (never two locks at once), so this is safe against
    /// concurrent readers; the first write-back error is returned after
    /// every shard has still been resized.
    ///
    /// This is what per-tenant page budgeting builds on: a world catalog
    /// reapportions one global page budget across its open regions'
    /// pools, so a region's share can shrink while its handle stays open.
    pub fn try_set_capacity(&self, capacity: usize) -> StorageResult<()> {
        assert!(capacity >= 1, "buffer pool needs at least one frame");
        let per_shard = capacity.div_ceil(self.shards.len()).max(1);
        let mut first_err = None;
        for shard in &self.shards {
            let mut inner = shard.inner.lock();
            inner.capacity = per_shard;
            while inner.len() > inner.capacity {
                if let Err(e) = self.evict_one(shard, &mut inner) {
                    first_err.get_or_insert(e);
                }
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Infallible [`Self::try_set_capacity`]; panics on storage errors.
    pub fn set_capacity(&self, capacity: usize) {
        self.try_set_capacity(capacity)
            .unwrap_or_else(|e| panic!("set_capacity: {e}"));
    }

    /// Current total frame capacity (sum of the per-shard limits; the
    /// striping rounds the constructor's request up to a shard multiple).
    pub fn capacity(&self) -> usize {
        self.shards.iter().map(|s| s.inner.lock().capacity).sum()
    }

    /// Make `id` resident as the most recently used frame, evicting LRU
    /// victims to make room; returns its slot.
    fn install(
        &self,
        shard: &Shard,
        inner: &mut Inner,
        id: PageId,
        buf: PageBuf,
        dirty: bool,
    ) -> StorageResult<usize> {
        let mut first_err = None;
        while inner.len() >= inner.capacity {
            if let Err(e) = self.evict_one(shard, inner) {
                // The incoming page must still be installed; report
                // the eviction failure afterwards.
                first_err.get_or_insert(e);
            }
        }
        let slot = inner.insert(Frame {
            id,
            buf,
            dirty,
            older: NIL,
            newer: NIL,
            visited: false,
            decoded: None,
        });
        match first_err {
            Some(e) => Err(e),
            None => Ok(slot as usize),
        }
    }
}

impl Drop for BufferPool {
    /// Best-effort write-back: a pool dropped during unwinding (or over a
    /// failing store) must not panic; unflushed data is simply lost,
    /// which the checksum layer will surface as corruption on reopen.
    fn drop(&mut self) {
        let _ = self.try_flush_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::StorageError;
    use crate::fault::{FaultConfig, FaultInjector};
    use crate::store::MemStore;

    fn pool(cap: usize) -> BufferPool {
        BufferPool::new(Box::new(MemStore::new()), cap)
    }

    /// Exact-LRU pool: one shard, global eviction order.
    fn pool1(cap: usize) -> BufferPool {
        BufferPool::with_shard_count(Box::new(MemStore::new()), cap, 1)
    }

    #[test]
    fn write_then_read_back() {
        let p = pool(8);
        let id = p.allocate();
        p.write(id, |b| b[42] = 7);
        assert_eq!(p.read(id, |b| b[42]), 7);
    }

    #[test]
    fn shrink_evicts_lru_and_preserves_dirty_data() {
        let p = pool1(8);
        let ids: Vec<PageId> = (0..8).map(|_| p.allocate()).collect();
        for (i, &id) in ids.iter().enumerate() {
            p.write(id, |b| b[0] = i as u8);
        }
        assert_eq!(p.resident(), 8);
        // Touch the last three so they are the MRU set.
        for &id in &ids[5..] {
            p.read(id, |b| b[0]);
        }
        p.set_capacity(3);
        assert_eq!(p.capacity(), 3);
        assert_eq!(p.resident(), 3);
        // Exactly the MRU set survived; the evicted dirty pages were
        // sealed and written back, so their data reads back intact.
        assert_eq!(p.resident_among(&ids[5..]), 3);
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(p.read(id, |b| b[0]), i as u8, "page {i} after shrink");
        }
    }

    #[test]
    fn grow_raises_the_eviction_threshold() {
        let p = pool1(2);
        let ids: Vec<PageId> = (0..6).map(|_| p.allocate()).collect();
        p.set_capacity(6);
        assert_eq!(p.capacity(), 6);
        for &id in &ids {
            p.read(id, |b| b[0]);
        }
        // All six now fit where two did before.
        assert_eq!(p.resident(), 6);
        assert_eq!(p.resident_among(&ids), 6);
    }

    #[test]
    fn resize_is_striped_over_shards() {
        let p = BufferPool::with_shard_count(Box::new(MemStore::new()), 16, 4);
        assert_eq!(p.capacity(), 16);
        p.set_capacity(6);
        // 6 over 4 shards rounds up to 2 per shard.
        assert_eq!(p.capacity(), 8);
        p.set_capacity(1);
        // Every shard keeps at least one frame.
        assert_eq!(p.capacity(), 4);
    }

    #[test]
    fn cache_hit_is_not_a_disk_access() {
        let p = pool(8);
        let id = p.allocate();
        p.flush_all();
        p.reset_stats();
        p.read(id, |_| ());
        p.read(id, |_| ());
        p.read(id, |_| ());
        assert_eq!(p.stats().reads, 1, "only the first read misses");
    }

    #[test]
    fn flush_makes_cache_cold() {
        let p = pool(8);
        let a = p.allocate();
        let b = p.allocate();
        p.write(a, |buf| buf[0] = 1);
        p.write(b, |buf| buf[0] = 2);
        p.flush_all();
        p.reset_stats();
        assert_eq!(p.read(a, |buf| buf[0]), 1);
        assert_eq!(p.read(b, |buf| buf[0]), 2);
        assert_eq!(p.stats().reads, 2);
        assert_eq!(p.resident(), 2);
    }

    #[test]
    fn eviction_preserves_dirty_data() {
        // Capacity 2: writing 10 pages forces evictions; all data must
        // survive the round trip through the store (any shard count).
        let p = pool(2);
        let ids: Vec<_> = (0..10).map(|_| p.allocate()).collect();
        for (i, &id) in ids.iter().enumerate() {
            p.write(id, |b| b[0] = i as u8 + 1);
        }
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(p.read(id, |b| b[0]), i as u8 + 1, "page {i}");
        }
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        // Global LRU order is only defined for a single shard.
        let p = pool1(2);
        let a = p.allocate();
        let b = p.allocate();
        let c = p.allocate(); // evicts a (oldest)
        p.flush_all();
        p.reset_stats();
        // Warm a and b.
        p.read(a, |_| ());
        p.read(b, |_| ());
        assert_eq!(p.stats().reads, 2);
        // Touch a so b becomes LRU, then read c: b should be evicted.
        p.read(a, |_| ());
        p.read(c, |_| ());
        assert_eq!(p.stats().reads, 3);
        // a must still be a hit, b must now miss.
        p.read(a, |_| ());
        assert_eq!(p.stats().reads, 3, "a was evicted but should not be");
        p.read(b, |_| ());
        assert_eq!(p.stats().reads, 4, "b should have been evicted");
    }

    #[test]
    fn sharding_keeps_disjoint_pages_resident() {
        // 4 shards × 1 frame: pages 0..4 map to distinct shards and must
        // all stay resident despite the tiny total capacity.
        let p = BufferPool::with_shard_count(Box::new(MemStore::new()), 4, 4);
        assert_eq!(p.num_shards(), 4);
        let ids: Vec<_> = (0..4).map(|_| p.allocate()).collect();
        p.flush_all();
        p.reset_stats();
        for &id in &ids {
            p.read(id, |_| ());
        }
        assert_eq!(p.stats().reads, 4);
        assert_eq!(p.resident(), 4, "one frame per shard, no eviction");
        for &id in &ids {
            p.read(id, |_| ());
        }
        assert_eq!(p.stats().reads, 4, "all warm repeats hit");
    }

    #[test]
    fn residency_probe_reports_without_counting() {
        let p = pool(8);
        let a = p.allocate();
        let b = p.allocate();
        let c = p.allocate();
        p.flush_all();
        p.reset_stats();
        p.read(a, |_| ());
        p.read(b, |_| ());
        let before = p.stats();
        let tl_before = crate::stats::thread_reads();
        assert_eq!(p.residency(&[a, b, c, a]), vec![true, true, false, true]);
        assert_eq!(p.resident_among(&[a, b, c]), 2);
        // The probe is introspection: no global, shard or thread-local
        // counter may move, however many pages it asks about.
        assert_eq!(p.stats(), before, "residency probe counted as access");
        assert_eq!(crate::stats::thread_reads(), tl_before);
        for s in p.shard_stats() {
            assert_eq!(s.retries, 0);
        }
        assert_eq!(
            p.shard_stats()
                .iter()
                .fold(0, |acc, s| acc + s.reads + s.writes),
            before.reads + before.writes
        );
    }

    #[test]
    fn residency_probe_does_not_refresh_lru_order() {
        // Single shard for a defined global eviction order. Warm a then
        // b (a is oldest). A probe of `a` must NOT count as a touch: the
        // next capacity miss still evicts a, not b.
        let p = pool1(2);
        let a = p.allocate();
        let b = p.allocate();
        let c = p.allocate();
        p.flush_all();
        p.reset_stats();
        p.read(a, |_| ());
        p.read(b, |_| ());
        assert_eq!(p.residency(&[a, b, c]), vec![true, true, false]);
        p.read(c, |_| ()); // must evict a (LRU despite the probe)
        assert_eq!(p.residency(&[a, b, c]), vec![false, true, true]);
        p.read(b, |_| ());
        assert_eq!(p.stats().reads, 3, "b stayed resident through it all");
    }

    #[test]
    fn residency_probe_spans_shards() {
        // 4 shards × 1 frame: pages 0..4 land in distinct shards.
        let p = BufferPool::with_shard_count(Box::new(MemStore::new()), 4, 4);
        let ids: Vec<_> = (0..4).map(|_| p.allocate()).collect();
        p.flush_all();
        p.read(ids[1], |_| ());
        p.read(ids[3], |_| ());
        assert_eq!(
            p.residency(&[ids[0], ids[1], ids[2], ids[3]]),
            vec![false, true, false, true]
        );
    }

    #[test]
    fn shard_stats_sum_to_global() {
        let p = pool(64);
        let ids: Vec<_> = (0..40).map(|_| p.allocate()).collect();
        for &id in &ids {
            p.write(id, |b| b[0] = id as u8);
        }
        p.flush_all();
        p.reset_stats();
        for &id in &ids {
            p.read(id, |_| ());
        }
        p.flush_all();
        let global = p.stats();
        let per_shard = p.shard_stats();
        assert_eq!(per_shard.len(), p.num_shards());
        let sum = per_shard
            .iter()
            .fold(StatsSnapshot::default(), |acc, s| StatsSnapshot {
                reads: acc.reads + s.reads,
                writes: acc.writes + s.writes,
                retries: acc.retries + s.retries,
            });
        assert_eq!(sum, global, "shard counters partition the global ones");
        assert!(
            per_shard.iter().filter(|s| s.reads > 0).count() > 1,
            "40 consecutive pages must spread over several shards"
        );
    }

    #[test]
    fn concurrent_readers_fetch_each_page_once() {
        let p = std::sync::Arc::new(pool(256));
        let ids: Vec<_> = (0..64).map(|_| p.allocate()).collect();
        for &id in &ids {
            p.write(id, |b| b[7] = (id % 251) as u8);
        }
        p.flush_all();
        p.reset_stats();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let p = std::sync::Arc::clone(&p);
                let ids = ids.clone();
                s.spawn(move || {
                    for _round in 0..20 {
                        for &id in &ids {
                            let v = p.read(id, |b| b[7]);
                            assert_eq!(v, (id % 251) as u8);
                        }
                    }
                });
            }
        });
        assert_eq!(
            p.stats().reads,
            ids.len() as u64,
            "every page misses exactly once across all threads"
        );
    }

    /// Read `id` through the decoded verb with a one-byte "decode".
    fn dec(p: &BufferPool, id: PageId) -> PageRead<u8, u8> {
        p.try_read_decoded(id, |b| b[0], |b| Ok(Some((b[0], 1))))
            .unwrap()
    }

    fn decoded(frames: usize, builds: u64) -> DecodedStats {
        DecodedStats {
            frames,
            bytes: frames,
            builds,
        }
    }

    #[test]
    fn sidecar_is_built_on_the_second_visit_and_dies_with_its_frame() {
        let p = pool1(2);
        let a = p.allocate();
        let b = p.allocate();
        let c = p.allocate(); // evicts a
        p.write(a, |buf| buf[0] = 1);
        p.flush_all();
        // The visit that fetches the page reads its bytes and decodes
        // nothing; the second visit builds; later visits reuse.
        assert!(matches!(dec(&p, a), PageRead::Raw(1)));
        assert_eq!(p.decoded_stats(), decoded(0, 0));
        assert!(matches!(dec(&p, a), PageRead::Decoded(d) if *d == 1));
        assert!(matches!(dec(&p, a), PageRead::Decoded(d) if *d == 1));
        assert_eq!(p.decoded_stats(), decoded(1, 1));
        // A write clears it; the next visit decodes the new bytes.
        p.write(a, |buf| buf[0] = 9);
        assert_eq!(p.decoded_stats(), decoded(0, 1));
        assert!(matches!(dec(&p, a), PageRead::Decoded(d) if *d == 9));
        assert_eq!(p.decoded_stats(), decoded(1, 2));
        // Capacity eviction drops it with the frame, and the re-installed
        // page id starts over.
        p.read(b, |_| ());
        p.read(c, |_| ());
        assert_eq!(p.decoded_stats(), decoded(0, 2));
        assert!(matches!(dec(&p, a), PageRead::Raw(9)));
        assert_eq!(p.decoded_stats(), decoded(0, 2));
        assert!(matches!(dec(&p, a), PageRead::Decoded(_)));
        // A flush leaves a cold pool: no frames, no sidecars.
        p.flush_all();
        assert_eq!(p.decoded_stats(), decoded(0, 3));
        // A page something else made resident (a plain read, a census)
        // is on its first visit all the same.
        p.read(a, |_| ());
        assert!(matches!(dec(&p, a), PageRead::Raw(9)));
        assert!(matches!(dec(&p, a), PageRead::Decoded(_)));
        // A shrink evicts the LRU frame, sidecar and all.
        p.read(b, |_| ());
        assert_eq!(p.decoded_stats(), decoded(1, 4));
        p.set_capacity(1);
        assert_eq!(p.residency(&[a, b]), vec![false, true]);
        assert_eq!(p.decoded_stats(), decoded(0, 4));
        // A freshly allocated page is resident, unvisited and undecoded.
        let d = p.allocate();
        assert_eq!(p.decoded_stats(), decoded(0, 4));
        assert!(matches!(dec(&p, d), PageRead::Raw(0)));
    }

    #[test]
    fn build_runs_once_per_residency_under_contention() {
        use std::sync::atomic::AtomicUsize;
        let p = pool(256);
        let ids: Vec<_> = (0..4).map(|_| p.allocate()).collect();
        for &id in &ids {
            p.write(id, |b| b[0] = id as u8 + 1);
        }
        p.flush_all();
        p.reset_stats();
        for &id in &ids {
            drop(dec(&p, id)); // first visit: resident, undecoded
        }
        assert_eq!(p.decoded_stats(), decoded(0, 0));
        let builds = AtomicUsize::new(0);
        let start = std::sync::Barrier::new(8);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    start.wait();
                    for _round in 0..200 {
                        for &id in &ids {
                            let read = p
                                .try_read_decoded(
                                    id,
                                    |b| b[0],
                                    |b| {
                                        builds.fetch_add(1, Ordering::Relaxed);
                                        Ok(Some((b[0], 1)))
                                    },
                                )
                                .unwrap();
                            assert!(matches!(read, PageRead::Decoded(d) if *d == id as u8 + 1));
                        }
                    }
                });
            }
        });
        assert_eq!(builds.load(Ordering::Relaxed), ids.len());
        assert_eq!(p.decoded_stats(), decoded(4, 4));
        assert_eq!(p.stats().reads, 4, "a decoded hit is not a disk access");
    }

    #[test]
    fn failed_or_declined_build_leaves_the_frame_undecoded() {
        let p = pool(8);
        let id = p.allocate();
        p.write(id, |b| b[0] = 7);
        drop(dec(&p, id)); // first visit
        let failing = p.try_read_decoded(
            id,
            |b| b[0],
            |_| Err::<Option<(u8, usize)>, _>(StorageError::corrupt(id, "bad slot")),
        );
        assert!(matches!(
            failing,
            Err(StorageError::Corrupt { page, .. }) if page == id
        ));
        assert_eq!(p.decoded_stats(), decoded(0, 0));
        // A caller that declines reads the bytes and builds nothing...
        let declined = p
            .try_read_decoded(id, |b| b[0], |_| Ok(None::<(u8, usize)>))
            .unwrap();
        assert!(matches!(declined, PageRead::Raw(7)));
        assert_eq!(p.decoded_stats(), decoded(0, 0));
        // ...the next visit retries the build, and a declining caller
        // then still gets the sidecar somebody else built.
        assert!(matches!(dec(&p, id), PageRead::Decoded(d) if *d == 7));
        let declined = p
            .try_read_decoded(id, |b| b[0], |_| Ok(None::<(u8, usize)>))
            .unwrap();
        assert!(matches!(declined, PageRead::Decoded(d) if *d == 7));
        assert_eq!(p.decoded_stats(), decoded(1, 1));
    }

    #[test]
    fn decoded_reads_account_and_evict_exactly_like_raw_reads() {
        // One scripted trace over 6 pages in 3 frames, replayed through
        // `try_read` and through the decoded verb: the running read
        // count, the thread attribution and the resident set (hence the
        // victim order) must agree after every step.
        #[derive(Clone, Copy)]
        enum Op {
            Read(usize),
            Write(usize),
            Flush,
            Shrink(usize),
        }
        use Op::*;
        let script = [
            Read(0),
            Read(1),
            Read(0),
            Read(2),
            Read(3),
            Read(0),
            Write(1),
            Read(1),
            Read(4),
            Read(4),
            Flush,
            Read(5),
            Read(4),
            Read(5),
            Read(0),
            Shrink(2),
            Read(1),
            Read(5),
            Read(0),
        ];
        let replay = |through_decoded: bool| {
            let p = pool1(3);
            let ids: Vec<PageId> = (0..6).map(|_| p.allocate()).collect();
            p.flush_all();
            p.reset_stats();
            let t0 = crate::stats::thread_reads();
            let mut log = Vec::new();
            for op in script {
                match op {
                    Read(i) if through_decoded => drop(dec(&p, ids[i])),
                    Read(i) => p.read(ids[i], |_| ()),
                    Write(i) => p.write(ids[i], |b| b[0] += 1),
                    Flush => p.flush_all(),
                    Shrink(cap) => p.set_capacity(cap),
                }
                log.push((
                    p.stats(),
                    crate::stats::thread_reads() - t0,
                    p.residency(&ids),
                ));
            }
            (log, p.decoded_stats().builds)
        };
        let (raw, raw_builds) = replay(false);
        let (dec, dec_builds) = replay(true);
        assert_eq!(raw, dec);
        assert_eq!(raw_builds, 0);
        assert!(dec_builds > 0, "the trace revisits pages, so it built");
    }

    /// Each shard's resident pages from the next victim to the most
    /// recently used, read off the recency list after checking that it is
    /// consistent: walked backwards it is the same list, it holds every
    /// frame once, and every page maps to its own slot.
    fn recency(p: &BufferPool) -> Vec<Vec<PageId>> {
        p.shards
            .iter()
            .map(|s| {
                let inner = s.inner.lock();
                let walk = |start: u32, step: fn(&Frame) -> u32| {
                    let mut out = Vec::new();
                    let mut at = start;
                    while at != NIL {
                        let frame = &inner.frames[at as usize];
                        assert_eq!(inner.slot_of[&frame.id], at, "page maps to its slot");
                        out.push(frame.id);
                        at = step(frame);
                    }
                    out
                };
                let forward = walk(inner.oldest, |f| f.newer);
                let mut backward = walk(inner.newest, |f| f.older);
                backward.reverse();
                assert_eq!(forward, backward, "list links agree both ways");
                assert_eq!(forward.len(), inner.frames.len(), "every frame listed");
                assert_eq!(inner.slot_of.len(), inner.frames.len());
                forward
            })
            .collect()
    }

    /// The bookkeeping the pool kept before its recency list — a
    /// `HashMap` of frames and a `BTreeMap` from touch tick to page, the
    /// smallest tick being the victim — with the counters each operation
    /// moves. The model the pool is held to, step by step.
    struct TickLru {
        shards: Vec<TickShard>,
        builds: u64,
    }

    #[derive(Default)]
    struct TickShard {
        cache: HashMap<PageId, TickFrame>,
        lru: std::collections::BTreeMap<u64, PageId>,
        next_tick: u64,
        capacity: usize,
        stats: StatsSnapshot,
    }

    #[derive(Default)]
    struct TickFrame {
        tick: u64,
        dirty: bool,
        visited: bool,
        decoded: bool,
    }

    impl TickShard {
        fn evict_one(&mut self) {
            let (&tick, &victim) = self.lru.iter().next().expect("lru nonempty");
            self.lru.remove(&tick);
            if self.cache.remove(&victim).expect("victim cached").dirty {
                self.stats.writes += 1;
            }
        }

        fn install(&mut self, id: PageId, dirty: bool) {
            while self.cache.len() >= self.capacity {
                self.evict_one();
            }
            self.next_tick += 1;
            self.lru.insert(self.next_tick, id);
            let frame = TickFrame {
                tick: self.next_tick,
                dirty,
                ..TickFrame::default()
            };
            self.cache.insert(id, frame);
        }

        fn ensure_cached(&mut self, id: PageId) -> &mut TickFrame {
            if let Some(frame) = self.cache.get_mut(&id) {
                self.lru.remove(&frame.tick);
                self.next_tick += 1;
                frame.tick = self.next_tick;
                self.lru.insert(self.next_tick, id);
            } else {
                self.stats.reads += 1;
                self.install(id, false);
            }
            self.cache.get_mut(&id).expect("just cached")
        }
    }

    impl TickLru {
        fn new(capacity: usize, shards: usize) -> Self {
            let per_shard = capacity.div_ceil(shards).max(1);
            TickLru {
                shards: (0..shards)
                    .map(|_| TickShard {
                        capacity: per_shard,
                        ..TickShard::default()
                    })
                    .collect(),
                builds: 0,
            }
        }

        fn shard(&mut self, id: PageId) -> &mut TickShard {
            let n = self.shards.len();
            &mut self.shards[id as usize % n]
        }

        fn read(&mut self, id: PageId) {
            self.shard(id).ensure_cached(id);
        }

        fn read_decoded(&mut self, id: PageId) {
            let frame = self.shard(id).ensure_cached(id);
            let first_visit = !std::mem::replace(&mut frame.visited, true);
            if !frame.decoded && !first_visit {
                frame.decoded = true;
                self.builds += 1;
            }
        }

        fn write(&mut self, id: PageId) {
            let frame = self.shard(id).ensure_cached(id);
            frame.dirty = true;
            frame.decoded = false;
        }

        fn allocate(&mut self, id: PageId) {
            self.shard(id).install(id, true);
        }

        fn set_capacity(&mut self, capacity: usize) {
            let per_shard = capacity.div_ceil(self.shards.len()).max(1);
            for s in &mut self.shards {
                s.capacity = per_shard;
                while s.cache.len() > s.capacity {
                    s.evict_one();
                }
            }
        }

        fn flush(&mut self) {
            for s in &mut self.shards {
                s.stats.writes += s.cache.values().filter(|f| f.dirty).count() as u64;
                s.cache.clear();
                s.lru.clear();
            }
        }

        fn recency(&self) -> Vec<Vec<PageId>> {
            self.shards
                .iter()
                .map(|s| s.lru.values().copied().collect())
                .collect()
        }

        fn shard_stats(&self) -> Vec<StatsSnapshot> {
            self.shards.iter().map(|s| s.stats).collect()
        }

        fn decoded_stats(&self) -> DecodedStats {
            let frames = self
                .shards
                .iter()
                .map(|s| s.cache.values().filter(|f| f.decoded).count())
                .sum();
            decoded(frames, self.builds)
        }
    }

    /// Replay `ops` — `(kind, page, capacity)` triples — on a pool and on
    /// the tick oracle, comparing recency order (hence every future
    /// victim), counters and sidecar state after every step.
    fn pool_matches_tick_oracle(shards: usize, ops: &[(u8, u16, u16)]) -> Result<(), String> {
        let capacity = 2 * shards;
        let p = BufferPool::with_shard_count(Box::new(MemStore::new()), capacity, shards);
        let mut model = TickLru::new(capacity, shards);
        let mut ids: Vec<PageId> = Vec::new();
        let allocate = |model: &mut TickLru, ids: &mut Vec<PageId>| {
            let id = p.try_allocate().unwrap();
            model.allocate(id);
            ids.push(id);
        };
        for _ in 0..8 {
            allocate(&mut model, &mut ids);
        }
        for (step, &(kind, page, cap)) in ops.iter().enumerate() {
            let id = ids[page as usize % ids.len()];
            match kind {
                0..=4 => {
                    p.try_read(id, |_| ()).unwrap();
                    model.read(id);
                }
                5..=8 => {
                    drop(p.try_read_decoded(id, |b| b[0], |b| Ok(Some((b[0], 1)))));
                    model.read_decoded(id);
                }
                9..=11 => {
                    p.try_write(id, |b| b[0] = b[0].wrapping_add(1)).unwrap();
                    model.write(id);
                }
                12 | 13 => allocate(&mut model, &mut ids),
                14 => {
                    let cap = 1 + cap as usize % (4 * shards);
                    p.try_set_capacity(cap).unwrap();
                    model.set_capacity(cap);
                }
                _ => {
                    p.try_flush_all().unwrap();
                    model.flush();
                }
            }
            let at = format!("step {step}: op {kind} on page {id}");
            if recency(&p) != model.recency() {
                return Err(format!(
                    "{at}: recency {:?} != {:?}",
                    recency(&p),
                    model.recency()
                ));
            }
            let shard_stats = model.shard_stats();
            let total = shard_stats
                .iter()
                .fold(StatsSnapshot::default(), |acc, s| StatsSnapshot {
                    reads: acc.reads + s.reads,
                    writes: acc.writes + s.writes,
                    retries: 0,
                });
            if p.shard_stats() != shard_stats || p.stats() != total {
                return Err(format!(
                    "{at}: stats {:?} != {shard_stats:?}",
                    p.shard_stats()
                ));
            }
            if p.decoded_stats() != model.decoded_stats() {
                return Err(format!(
                    "{at}: decoded {:?} != {:?}",
                    p.decoded_stats(),
                    model.decoded_stats()
                ));
            }
        }
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The recency list is exactly the tick index's LRU: same
        /// resident set and victim order after every read, decoded read,
        /// write, allocation, resize and flush, on one shard and sixteen.
        #[test]
        fn recency_list_is_exactly_lru(
            ops in proptest::collection::vec(
                (0u8..16, proptest::prelude::any::<u16>(), proptest::prelude::any::<u16>()),
                1..300,
            )
        ) {
            for shards in [1, 16] {
                if let Err(e) = pool_matches_tick_oracle(shards, &ops) {
                    return Err(proptest::prelude::TestCaseError::fail(format!("{shards} shards, {e}")));
                }
            }
        }
    }

    #[test]
    fn write_counts_on_flush() {
        let p = pool(8);
        let id = p.allocate();
        p.reset_stats();
        p.write(id, |b| b[0] = 9);
        assert_eq!(p.stats().writes, 0, "writes deferred until flush/evict");
        p.flush_all();
        assert_eq!(p.stats().writes, 1);
    }

    #[test]
    fn write_back_keeps_the_cache_warm_and_clean() {
        let p = pool(8);
        let a = p.allocate();
        p.write(a, |b| b[0] = 7);
        p.reset_stats();
        p.try_write_back().unwrap();
        assert_eq!((p.stats().writes, p.resident()), (1, 1));
        p.try_write_back().unwrap();
        assert_eq!(p.stats().writes, 1, "a written-back frame is clean");
        assert_eq!(p.read(a, |b| b[0]), 7);
        assert_eq!(p.stats().reads, 0, "still resident");
    }

    #[test]
    fn released_pages_are_reused_lowest_first_and_zeroed() {
        let p = pool(8);
        let ids: Vec<PageId> = (0..4).map(|_| p.allocate()).collect();
        for &id in &ids {
            p.write(id, |b| b[0] = 0xEE);
        }
        p.flush_all();
        // Page 2 resident with a sidecar, page 1 not resident at all.
        assert!(matches!(dec(&p, ids[2]), PageRead::Raw(0xEE)));
        assert!(matches!(dec(&p, ids[2]), PageRead::Decoded(_)));
        p.release(&[ids[2], ids[1]]);
        assert_eq!(p.free_pages(), vec![ids[1], ids[2]]);
        p.reset_stats();
        assert_eq!((p.allocate(), p.allocate()), (ids[1], ids[2]));
        assert_eq!(p.stats().reads, 0, "reuse never reads the old content");
        assert_eq!(p.decoded_stats().frames, 0, "the old sidecar is gone");
        assert_eq!(p.read(ids[1], |b| b[0]) + p.read(ids[2], |b| b[0]), 0);
        assert_eq!(p.allocate(), 4, "an empty free list appends");
        assert_eq!(p.num_pages(), 5);
        p.flush_all();
        assert_eq!(
            p.read(ids[2], |b| b[0]),
            0,
            "the zeroed page reached the store"
        );
    }

    #[test]
    fn allocate_is_free_of_read_accesses() {
        let p = pool(8);
        p.reset_stats();
        let id = p.allocate();
        p.write(id, |b| b[0] = 1);
        assert_eq!(p.stats().reads, 0);
    }

    #[test]
    fn unallocated_page_read_is_an_error() {
        let p = pool(8);
        let err = p.try_read(99, |_| ()).unwrap_err();
        assert!(matches!(err, StorageError::OutOfBounds { page: 99, .. }));
        assert_eq!(p.stats().retries, 0, "structural errors are not retried");
    }

    #[test]
    fn flushed_pages_carry_valid_checksums() {
        let store = Box::new(MemStore::new());
        let p = BufferPool::new(store, 8);
        let id = p.allocate();
        p.write(id, |b| b[0] = 0xEE);
        p.flush_all();
        // A fresh pool over the same "disk" must verify and read it back.
        // (MemStore is process-local, so replay through a second read.)
        assert_eq!(p.read(id, |b| b[0]), 0xEE);
    }

    #[test]
    fn allocated_but_unwritten_pages_get_sealed_too() {
        // `allocate` marks the frame dirty, so even an untouched page is
        // checksummed on flush — the store never holds a resident page
        // without a valid trailer.
        let p = pool(2);
        let ids: Vec<_> = (0..6).map(|_| p.allocate()).collect();
        p.flush_all();
        for id in ids {
            p.try_read(id, |_| ()).unwrap();
        }
    }

    #[test]
    fn transient_read_failures_are_retried_and_counted() {
        let store = Box::new(MemStore::new());
        for _ in 0..4 {
            store.allocate().unwrap();
        }
        let inj = FaultInjector::new(store, FaultConfig::new(11).with_read_fail_rate(0.4));
        let counters = inj.counters();
        let p = BufferPool::new(Box::new(inj), 2).with_max_retries(16);
        // Hammer reads through a tiny pool: every miss re-fetches.
        for round in 0..50 {
            for id in 0..4 {
                p.try_read(id, |_| ())
                    .unwrap_or_else(|e| panic!("round {round}: {e}"));
            }
        }
        assert!(
            counters.transient_read_failures() > 0,
            "faults must have fired"
        );
        assert_eq!(
            p.stats().retries,
            counters.transient_read_failures(),
            "every transient failure is exactly one retry"
        );
    }

    #[test]
    fn retry_budget_exhaustion_surfaces_the_error() {
        let store = Box::new(MemStore::new());
        store.allocate().unwrap();
        let inj = FaultInjector::new(store, FaultConfig::new(1).with_read_fail_rate(1.0));
        let p = BufferPool::new(Box::new(inj), 2).with_max_retries(3);
        let err = p.try_read(0, |_| ()).unwrap_err();
        assert!(matches!(err, StorageError::Io(_)));
        assert_eq!(p.stats().retries, 3, "budget spent before giving up");
    }

    #[test]
    fn bit_flips_are_caught_and_healed_by_retry() {
        // A sealed page behind a store that flips one bit on a quarter of
        // the reads: the pool must never return the corrupted bytes.
        let store = Box::new(MemStore::new());
        store.allocate().unwrap();
        let mut sealed = zeroed_page();
        sealed[123] = 45;
        crate::checksum::seal_page(&mut sealed);
        store.write_page(0, &sealed).unwrap();
        let inj = FaultInjector::new(store, FaultConfig::new(8).with_bit_flip_rate(0.25));
        let counters = inj.counters();
        let p = BufferPool::new(Box::new(inj), 1).with_max_retries(8);
        for _ in 0..40 {
            let v = p.try_read(0, |b| b[123]).unwrap();
            assert_eq!(v, 45, "a verified page is never wrong");
            // Force the next read to miss.
            p.try_flush_all().unwrap();
        }
        assert!(counters.bit_flips() > 0, "flips must have fired");
        assert_eq!(
            p.stats().retries,
            counters.bit_flips(),
            "each flip costs one retry"
        );
    }

    #[test]
    fn drop_with_failing_store_does_not_panic() {
        // A store whose writes always fail: flush reports the error, but
        // dropping the pool with dirty pages must stay silent.
        struct WriteBrokenStore;
        impl PageStore for WriteBrokenStore {
            fn read_page(&self, _: PageId, buf: &mut [u8; PAGE_SIZE]) -> StorageResult<()> {
                buf.fill(0);
                Ok(())
            }
            fn write_page(&self, _: PageId, _: &[u8; PAGE_SIZE]) -> StorageResult<()> {
                Err(StorageError::Io(std::io::Error::other("disk gone")))
            }
            fn allocate(&self) -> StorageResult<PageId> {
                Ok(0)
            }
            fn num_pages(&self) -> u32 {
                1
            }
        }
        let p = BufferPool::new(Box::new(WriteBrokenStore), 4);
        let id = p.allocate();
        p.write(id, |b| b[0] = 1);
        assert!(
            p.try_flush_all().is_err(),
            "flush reports the write failure"
        );
        p.write(id, |b| b[0] = 2); // dirty again...
        drop(p); // ...and drop must swallow the error.
    }

    #[test]
    fn pool_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<BufferPool>();
        assert_send_sync::<Arc<BufferPool>>();
    }
}
