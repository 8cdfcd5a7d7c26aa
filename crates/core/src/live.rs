//! Crash-safe live editing: WAL-backed copy-on-write commits with
//! snapshot isolation.
//!
//! [`LiveDb`] wraps a file-backed [`DirectMeshDb`] and turns
//! [`DirectMeshDb::apply_patch`] into a durable transaction:
//!
//! 1. the edit *intent* (region + [`EditOp`]) is appended to a CRC-framed
//!    write-ahead log and fsynced,
//! 2. the copy-on-write patch runs, writing heap / index / catalog pages
//!    onto free pages — retired ones first, then the file's end — and
//!    never over a page the committed version or a live snapshot reads,
//! 3. the buffer pool writes back every dirty page and syncs the store,
//!    keeping the frames resident for the readers,
//! 4. the commit point: a 64-byte [`RootRecord`] naming the new catalog
//!    root is written by atomic double-slot swap,
//! 5. the WAL is reset — the edit is now owned by the root, not the log.
//!
//! A crash at *any byte offset* of this sequence recovers to exactly the
//! pre-edit or post-edit snapshot, never a torn mix: before step 4 the
//! root still names the old catalog (the pages the edit wrote are
//! unreachable garbage; past the committed end they are trimmed on
//! reopen); after step 4 the WAL entry is redundant and replay skips it
//! by epoch. A crash between steps 1 and 4 leaves a complete WAL entry,
//! and [`LiveDb::open`] REDOes it deterministically.
//!
//! Readers never block writers and vice versa: [`LiveDb::snapshot`]
//! clones an `Arc<DirectMeshDb>` pinned to one committed epoch (MVCC
//! lite). A snapshot taken before an edit keeps reading the old pages —
//! copy-on-write guarantees they are immutable — until the handle drops.
//!
//! Space comes back by epochs. Commit *N* retires the pages version
//! *N−1* reached and *N* does not, and queues them behind a weak handle
//! on snapshot *N−1*. Each later patch first releases, oldest first,
//! every queued set whose snapshot is gone, into the pool's free list;
//! the first pinned snapshot stops the release, because every older
//! reader may read what later commits retired. A page is therefore
//! reused only after the root that stopped naming it is durable (a torn
//! root swap falls back to *N*, which never names a page retired at *N*)
//! and after the last snapshot that could read it has dropped. The first
//! commit after an open frees every page the committed version does not
//! reach, so space retired by earlier processes — and the pages a failed
//! patch took — comes back too.
//!
//! All of this assumes one writer and no foreign readers: [`LiveDb::open`]
//! holds the store file's exclusive advisory lock until the last handle
//! on its pool drops, so a second writer, or a read-only open elsewhere,
//! fails with [`StorageError::Locked`].

use std::collections::VecDeque;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock, Weak};

use dm_geom::{Rect, Vec2};
use dm_storage::wal::{root_path, wal_path};
use dm_storage::{
    BufferPool, FaultConfig, FaultInjector, FileStore, KillSwitch, PageId, PageStore, RootFile,
    RootRecord, StorageError, StorageResult, Wal,
};

use crate::store::{DirectMeshDb, EditOp};

/// Tuning knobs for [`LiveDb::open`].
#[derive(Clone, Debug)]
pub struct LiveOptions {
    /// Buffer-pool capacity in pages.
    pub cache_pages: usize,
    /// Optional fault injection (read faults, bit flips, crash switch)
    /// layered between the pool and the file store.
    pub fault: Option<FaultConfig>,
}

impl Default for LiveOptions {
    fn default() -> Self {
        LiveOptions {
            cache_pages: 4096,
            fault: None,
        }
    }
}

/// What [`LiveDb::open`] found and did while recovering.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecoveryInfo {
    /// Committed epoch after recovery (0 for a freshly adopted store).
    pub epoch: u64,
    /// Complete WAL entries that were replayed (REDO).
    pub replayed: usize,
    /// Whether a torn WAL tail was truncated (an append died mid-write).
    pub discarded_tail: bool,
}

/// Result of a committed [`LiveDb::apply_patch`].
#[derive(Clone, Copy, Debug)]
pub struct PatchStats {
    /// The epoch this edit committed as.
    pub epoch: u64,
    /// Heap pages rewritten copy-on-write.
    pub pages_rewritten: usize,
    /// Records whose elevation actually changed.
    pub records_updated: usize,
    /// Pages the edit wrote over retired ones instead of growing the file.
    pub pages_reused: usize,
}

/// A live, editable Direct Mesh database with WAL durability and
/// snapshot-isolated readers.
pub struct LiveDb {
    pool: Arc<BufferPool>,
    wal: Mutex<Wal>,
    root: Mutex<RootFile>,
    current: RwLock<Arc<DirectMeshDb>>,
    epoch: AtomicU64,
    /// The writer's space accounting; only a commit touches it.
    reclaim: Mutex<Reclaim>,
}

/// Pages the committed version reaches, and the retired sets waiting for
/// their snapshots to drop.
#[derive(Default)]
struct Reclaim {
    /// `page_set` of the committed version; `None` until the first patch
    /// after an open has freed what that version does not reach.
    live: Option<Vec<PageId>>,
    /// Oldest first: the pages commit *N* retired, with snapshot *N−1*.
    retired: VecDeque<(Weak<DirectMeshDb>, Vec<PageId>)>,
}

impl LiveDb {
    /// Open (and if necessary recover) the store at `store_path`.
    ///
    /// The WAL and root live in sibling files (`<store>.wal`,
    /// `<store>.root`). A store without a root file is adopted at epoch 0
    /// with its catalog at page 0 — exactly what [`DirectMeshDb::create_in`]
    /// produces — so every pre-existing database is a valid `LiveDb`.
    ///
    /// The store file stays exclusively locked while the returned handle,
    /// or any snapshot of it, is alive.
    pub fn open(store_path: &Path, opts: &LiveOptions) -> StorageResult<(LiveDb, RecoveryInfo)> {
        let store = FileStore::open_locked(store_path, true)?;
        let (root_file, committed) = RootFile::open(&root_path(store_path))?;
        let committed = committed.unwrap_or(RootRecord {
            epoch: 0,
            catalog_page: 0,
            store_pages: store.num_pages(),
        });
        // Pages past the committed high-water mark are uncommitted
        // garbage from a crashed edit; drop them before anything can
        // read (or re-allocate over) them inconsistently.
        store.truncate_to(committed.store_pages)?;

        let (store, kill): (Box<dyn PageStore>, Option<Arc<KillSwitch>>) = match opts.fault {
            Some(cfg) => {
                let inj = FaultInjector::new(Box::new(store), cfg);
                let kill = inj.kill_switch();
                (Box::new(inj), kill)
            }
            None => (Box::new(store), None),
        };
        let pool = Arc::new(BufferPool::new(store, opts.cache_pages));
        let (wal, rec) = Wal::open(&wal_path(store_path))?;
        let db = DirectMeshDb::open_at(Arc::clone(&pool), committed.catalog_page)?;
        let live = LiveDb {
            pool,
            wal: Mutex::new(wal.with_kill_switch(kill.clone())),
            root: Mutex::new(root_file.with_kill_switch(kill)),
            current: RwLock::new(Arc::new(db)),
            epoch: AtomicU64::new(committed.epoch),
            reclaim: Mutex::new(Reclaim::default()),
        };
        let mut replayed = 0usize;
        for entry in &rec.entries {
            let (e, region, op) = decode_edit(&entry.payload)?;
            if e <= live.epoch() {
                // Committed before the crash; the reset that would have
                // dropped this entry never ran.
                continue;
            }
            if e != live.epoch() + 1 {
                return Err(StorageError::format("wal epoch gap during recovery"));
            }
            live.commit(e, &region, &op)?;
            replayed += 1;
        }
        live.wal.lock().unwrap().reset()?;

        let info = RecoveryInfo {
            epoch: live.epoch(),
            replayed,
            discarded_tail: rec.torn_tail,
        };
        Ok((live, info))
    }

    /// The latest committed snapshot. Cloning the `Arc` pins the epoch:
    /// the handle keeps answering queries against these exact pages no
    /// matter how many edits commit after it.
    pub fn snapshot(&self) -> Arc<DirectMeshDb> {
        Arc::clone(&self.current.read().unwrap())
    }

    /// Latest committed epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// The shared buffer pool (for access statistics).
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// Durably apply one edit. On success the new snapshot is published
    /// and `PatchStats.epoch` names its commit. On error the store is
    /// unchanged *or* the edit is fully committed and will be visible on
    /// the next [`LiveDb::open`] — never anything in between.
    pub fn apply_patch(&self, region: &Rect, edit: &EditOp) -> StorageResult<PatchStats> {
        // Writers serialize on the WAL lock for the whole commit.
        let mut wal = self.wal.lock().unwrap();
        let epoch = self.epoch() + 1;
        // 1. Log the intent and make it durable.
        wal.append(&encode_edit(epoch, region, edit))?;
        wal.sync()?;
        let stats = self.commit(epoch, region, edit)?;
        // A failure past the commit point is reported, but the edit is
        // durable: recovery skips the stale entry by epoch.
        wal.reset()?;
        Ok(stats)
    }

    /// Steps 2–4 of the commit protocol and the publish, for an edit
    /// whose intent the WAL already holds: a live patch or a replay.
    fn commit(&self, epoch: u64, region: &Rect, edit: &EditOp) -> StorageResult<PatchStats> {
        let mut reclaim = self
            .reclaim
            .lock()
            .expect("no commit panics while it holds the space accounting");
        let snap = self.snapshot();
        // Free what no reader can reach any more (see the module docs).
        if reclaim.live.is_none() {
            let live = snap.page_set()?;
            self.pool
                .release(&pages_not_in(0..self.pool.num_pages(), &live));
            reclaim.live = Some(live);
        }
        while let Some((reader, _)) = reclaim.retired.front() {
            if reader.strong_count() > 0 {
                break;
            }
            let (_, pages) = reclaim.retired.pop_front().expect("front exists");
            self.pool.release(&pages);
        }
        let free_before = self.pool.free_pages().len();

        // 2. Copy-on-write patch: free pages only, old snapshot intact.
        let out = snap.apply_patch(region, edit)?;
        let pages_reused = free_before - self.pool.free_pages().len();
        let next_live = out.db.page_set()?;
        // 3. All new pages reach disk before the root can name them.
        self.pool.try_write_back()?;
        // 4. Commit point: atomic double-slot root swap.
        self.root.lock().unwrap().commit(&RootRecord {
            epoch,
            catalog_page: out.catalog_page,
            store_pages: self.pool.num_pages(),
        })?;
        // Publish to readers, and retire what only older snapshots reach.
        *self.current.write().unwrap() = Arc::new(out.db);
        self.epoch.store(epoch, Ordering::Release);
        let retired = pages_not_in(reclaim.live.iter().flatten().copied(), &next_live);
        reclaim.retired.push_back((Arc::downgrade(&snap), retired));
        reclaim.live = Some(next_live);
        Ok(PatchStats {
            epoch,
            pages_rewritten: out.pages_rewritten,
            records_updated: out.records_updated,
            pages_reused,
        })
    }
}

/// The pages of ascending `pages` that ascending `minus` lacks.
fn pages_not_in(pages: impl Iterator<Item = PageId>, minus: &[PageId]) -> Vec<PageId> {
    let mut rest = minus.iter().peekable();
    pages
        .filter(|&p| {
            while rest.next_if(|&&m| m < p).is_some() {}
            rest.peek() != Some(&&p)
        })
        .collect()
}

/// Serialize one edit as a WAL payload: epoch, region, op.
pub fn encode_edit(epoch: u64, region: &Rect, edit: &EditOp) -> Vec<u8> {
    let mut out = Vec::with_capacity(49);
    out.extend_from_slice(&epoch.to_le_bytes());
    for v in [region.min.x, region.min.y, region.max.x, region.max.y] {
        out.extend_from_slice(&v.to_le_bytes());
    }
    match edit {
        EditOp::Raise(dz) => {
            out.push(1);
            out.extend_from_slice(&dz.to_le_bytes());
        }
        EditOp::SetHeights(samples) => {
            out.push(2);
            out.extend_from_slice(&(samples.len() as u32).to_le_bytes());
            for &(x, y, z) in samples {
                out.extend_from_slice(&x.to_le_bytes());
                out.extend_from_slice(&y.to_le_bytes());
                out.extend_from_slice(&z.to_le_bytes());
            }
        }
    }
    out
}

/// Inverse of [`encode_edit`], with typed errors on any malformation.
pub fn decode_edit(b: &[u8]) -> StorageResult<(u64, Rect, EditOp)> {
    fn f64_at(b: &[u8], off: usize) -> StorageResult<f64> {
        let bytes = b
            .get(off..off + 8)
            .ok_or_else(|| StorageError::format("truncated wal edit payload"))?;
        Ok(f64::from_le_bytes(bytes.try_into().unwrap()))
    }
    if b.len() < 41 {
        return Err(StorageError::format("truncated wal edit payload"));
    }
    let epoch = u64::from_le_bytes(b[0..8].try_into().unwrap());
    let region = Rect::from_corners(
        Vec2::new(f64_at(b, 8)?, f64_at(b, 16)?),
        Vec2::new(f64_at(b, 24)?, f64_at(b, 32)?),
    );
    let op = match b[40] {
        1 => EditOp::Raise(f64_at(b, 41)?),
        2 => {
            let n = u32::from_le_bytes(
                b.get(41..45)
                    .ok_or_else(|| StorageError::format("truncated wal edit payload"))?
                    .try_into()
                    .unwrap(),
            ) as usize;
            if b.len() != 45 + n * 24 {
                return Err(StorageError::format("wal edit payload length mismatch"));
            }
            let mut samples = Vec::with_capacity(n);
            for i in 0..n {
                let off = 45 + i * 24;
                samples.push((f64_at(b, off)?, f64_at(b, off + 8)?, f64_at(b, off + 16)?));
            }
            EditOp::SetHeights(samples)
        }
        t => {
            return Err(StorageError::format(format!("unknown wal edit op tag {t}")));
        }
    };
    Ok((epoch, region, op))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DmBuildOptions;
    use dm_mtm::builder::{build_pm, PmBuildConfig};
    use dm_terrain::{generate, TriMesh};

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("dm_live_{}_{name}.db", std::process::id()))
    }

    fn build_store(path: &std::path::Path) {
        let _ = std::fs::remove_file(path);
        let _ = std::fs::remove_file(wal_path(path));
        let _ = std::fs::remove_file(root_path(path));
        let hf = generate::fractal_terrain(11, 11, 7);
        let pm = build_pm(TriMesh::from_heightfield(&hf), &PmBuildConfig::default());
        let pool = Arc::new(BufferPool::new(
            Box::new(FileStore::create(path).unwrap()),
            2048,
        ));
        DirectMeshDb::create_in(pool, &pm, &DmBuildOptions::default());
    }

    fn mid_region(db: &DirectMeshDb) -> Rect {
        let c = db.bounds.center();
        let w = db.bounds.width() * 0.25;
        Rect::from_corners(Vec2::new(c.x - w, c.y - w), Vec2::new(c.x + w, c.y + w))
    }

    #[test]
    fn edit_payload_roundtrips() {
        let region = Rect::from_corners(Vec2::new(-1.5, 2.0), Vec2::new(3.0, 4.5));
        for op in [
            EditOp::Raise(-2.75),
            EditOp::SetHeights(vec![(0.0, 1.0, 2.0), (3.0, 4.0, 5.0)]),
        ] {
            let enc = encode_edit(7, &region, &op);
            let (e, r, o) = decode_edit(&enc).unwrap();
            assert_eq!(e, 7);
            assert_eq!(r, region);
            assert_eq!(o, op);
        }
        assert!(decode_edit(&[0u8; 12]).is_err());
        let mut bad = encode_edit(1, &region, &EditOp::Raise(1.0));
        bad[40] = 9;
        assert!(decode_edit(&bad).is_err());
    }

    #[test]
    fn edits_survive_clean_reopen() {
        let path = tmp("clean");
        build_store(&path);
        let stats = {
            let (live, info) = LiveDb::open(&path, &LiveOptions::default()).unwrap();
            assert_eq!(
                info,
                RecoveryInfo {
                    epoch: 0,
                    replayed: 0,
                    discarded_tail: false
                }
            );
            let region = mid_region(&live.snapshot());
            live.apply_patch(&region, &EditOp::Raise(5.0)).unwrap();
            let s = live.apply_patch(&region, &EditOp::Raise(-2.0)).unwrap();
            assert_eq!(s.epoch, 2);
            (live.snapshot().all_records(), region)
        };
        let (live, info) = LiveDb::open(&path, &LiveOptions::default()).unwrap();
        assert_eq!(info.epoch, 2);
        assert_eq!(info.replayed, 0);
        assert_eq!(live.snapshot().all_records(), stats.0);
    }

    /// Canonical answer of a range fetch over everything: `(id, z bits)`.
    fn fingerprint(db: &DirectMeshDb) -> Vec<(u32, u64)> {
        let inf = f64::INFINITY;
        let everything = dm_geom::Box3::new(
            dm_geom::Vec3::new(-inf, -inf, -inf),
            dm_geom::Vec3::new(inf, inf, inf),
        );
        let set = db
            .range_scan(
                &[everything],
                true,
                &mut crate::IntegrityReport::default(),
                &mut crate::FetchCounters::default(),
            )
            .unwrap();
        let mut out: Vec<(u32, u64)> = set
            .nodes
            .iter()
            .map(|n| (n.id, n.pos.z.to_bits()))
            .collect();
        out.sort_unstable();
        out
    }

    #[test]
    fn snapshots_are_isolated_from_later_edits() {
        let path = tmp("iso");
        build_store(&path);
        let (live, _) = LiveDb::open(&path, &LiveOptions::default()).unwrap();
        let pinned = live.snapshot();
        let (before, before_fp) = (pinned.all_records(), fingerprint(&pinned));
        let pinned_pages = pinned.page_set().unwrap();
        let region = mid_region(&pinned);
        for i in 0..3 {
            let s = live.apply_patch(&region, &EditOp::Raise(10.0)).unwrap();
            // What the commits retire waits for the pin.
            assert_eq!(s.pages_reused, 0, "patch {i}");
            let free = live.pool().free_pages();
            assert!(free.iter().all(|p| pinned_pages.binary_search(p).is_err()));
            assert_eq!(pinned.all_records(), before, "pinned epoch is immutable");
            assert_eq!(fingerprint(&pinned), before_fp, "patch {i}");
        }
        assert_ne!(live.snapshot().all_records(), before);
        drop(pinned);
        let grown = live.pool().num_pages();
        let s = live.apply_patch(&region, &EditOp::Raise(-30.0)).unwrap();
        assert!(
            s.pages_reused > 0,
            "retired pages come back once the pin drops"
        );
        assert_eq!(live.pool().num_pages(), grown, "the file stops growing");
    }

    #[test]
    fn a_crash_after_the_wal_append_replays_once() {
        let path = tmp("replay");
        build_store(&path);
        // The WAL append (write #0) survives; the first page write dies.
        let opts = LiveOptions {
            cache_pages: 2048,
            fault: Some(FaultConfig::new(99).with_fail_writes_after(1)),
        };
        let (live, _) = LiveDb::open(&path, &opts).unwrap();
        let region = mid_region(&live.snapshot());
        assert!(live.apply_patch(&region, &EditOp::Raise(-2.0)).is_err());
        drop(live);
        let (_, info) = LiveDb::open(&path, &LiveOptions::default()).unwrap();
        assert_eq!(info.replayed, 1, "the WAL tail is replayed");
        let (_, again) = LiveDb::open(&path, &LiveOptions::default()).unwrap();
        assert_eq!((again.replayed, again.epoch), (0, info.epoch));
    }

    #[test]
    fn crash_during_commit_recovers_to_pre_or_post_state() {
        let path = tmp("crash");
        build_store(&path);
        // Reference end states.
        let (pre, post, region) = {
            let (live, _) = LiveDb::open(&path, &LiveOptions::default()).unwrap();
            let region = mid_region(&live.snapshot());
            let pre = live.snapshot().all_records();
            live.apply_patch(&region, &EditOp::Raise(4.0)).unwrap();
            (pre, live.snapshot().all_records(), region)
        };
        for kill_after in [1u64, 2, 3, 5, 8, 13, 21, 34, 200] {
            build_store(&path);
            let fault = FaultConfig::new(0xD1ED + kill_after).with_fail_writes_after(kill_after);
            let opts = LiveOptions {
                cache_pages: 2048,
                fault: Some(fault),
            };
            let (live, _) = LiveDb::open(&path, &opts).unwrap();
            let res = live.apply_patch(&region, &EditOp::Raise(4.0));
            drop(live);
            let (live, info) = LiveDb::open(&path, &LiveOptions::default()).unwrap();
            let got = live.snapshot().all_records();
            if info.epoch == 1 {
                assert_eq!(
                    got, post,
                    "kill_after={kill_after}: committed edit must be complete"
                );
            } else {
                assert!(
                    res.is_err(),
                    "kill_after={kill_after}: uncommitted edit must have errored"
                );
                assert_eq!(
                    got, pre,
                    "kill_after={kill_after}: uncommitted edit must vanish"
                );
            }
        }
    }
}
