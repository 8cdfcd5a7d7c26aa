//! Page stores: the "disk" under the buffer pool.

use std::fs::{File, OpenOptions, TryLockError};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;

use parking_lot::{Mutex, RwLock};

use crate::error::{StorageError, StorageResult};
use crate::page::{zeroed_page, PageBuf, PageId, PAGE_SIZE};

/// A flat array of pages. Implementations must be usable behind a shared
/// reference (the buffer pool serializes access).
///
/// All operations are fallible: implementations report unallocated page
/// ids as [`StorageError::OutOfBounds`] and surface I/O problems instead
/// of panicking, so the buffer pool can retry or degrade.
pub trait PageStore: Send + Sync {
    /// Read page `id` into `buf`.
    fn read_page(&self, id: PageId, buf: &mut [u8; PAGE_SIZE]) -> StorageResult<()>;

    /// Write `buf` to page `id`.
    fn write_page(&self, id: PageId, buf: &[u8; PAGE_SIZE]) -> StorageResult<()>;

    /// Allocate a new zeroed page and return its id.
    fn allocate(&self) -> StorageResult<PageId>;

    /// Number of allocated pages.
    fn num_pages(&self) -> u32;

    /// Flush any OS-level buffering (no-op for the memory store).
    fn sync(&self) -> StorageResult<()> {
        Ok(())
    }
}

/// An in-memory store. Deterministic and fast; the default for tests and
/// benchmarks (disk accesses are *counted*, not timed, exactly as the
/// paper reports Oracle's `physical reads` statistic rather than seconds).
///
/// Pages sit behind an `RwLock` so concurrent buffer-pool shards can
/// fetch pages simultaneously; only `allocate`/`write_page` take the
/// write lock.
#[derive(Default)]
pub struct MemStore {
    pages: RwLock<Vec<PageBuf>>,
}

impl MemStore {
    pub fn new() -> Self {
        Self::default()
    }
}

impl PageStore for MemStore {
    fn read_page(&self, id: PageId, buf: &mut [u8; PAGE_SIZE]) -> StorageResult<()> {
        let pages = self.pages.read();
        let page = pages.get(id as usize).ok_or(StorageError::OutOfBounds {
            page: id,
            num_pages: pages.len() as u32,
        })?;
        buf.copy_from_slice(&page[..]);
        Ok(())
    }

    fn write_page(&self, id: PageId, buf: &[u8; PAGE_SIZE]) -> StorageResult<()> {
        let mut pages = self.pages.write();
        let n = pages.len() as u32;
        let page = pages
            .get_mut(id as usize)
            .ok_or(StorageError::OutOfBounds {
                page: id,
                num_pages: n,
            })?;
        page.copy_from_slice(buf);
        Ok(())
    }

    fn allocate(&self) -> StorageResult<PageId> {
        let mut pages = self.pages.write();
        pages.push(zeroed_page());
        Ok((pages.len() - 1) as PageId)
    }

    fn num_pages(&self) -> u32 {
        self.pages.read().len() as u32
    }
}

/// A file-backed store: page `i` lives at byte offset `i * PAGE_SIZE`.
pub struct FileStore {
    file: Mutex<File>,
    num_pages: Mutex<u32>,
}

impl FileStore {
    /// Create or truncate the file at `path`.
    pub fn create(path: &Path) -> io::Result<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(FileStore {
            file: Mutex::new(file),
            num_pages: Mutex::new(0),
        })
    }

    /// Open an existing store file.
    pub fn open(path: &Path) -> io::Result<Self> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let len = file.metadata()?.len();
        if len % PAGE_SIZE as u64 != 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("store file length {len} is not a multiple of the page size"),
            ));
        }
        let num_pages = (len / PAGE_SIZE as u64) as u32;
        Ok(FileStore {
            file: Mutex::new(file),
            num_pages: Mutex::new(num_pages),
        })
    }

    /// Open a store file under an advisory lock, held for as long as
    /// this store lives: `exclusive` for the store's one writer, shared
    /// for its readers. A conflicting holder — another process, or
    /// another handle in this one — is [`StorageError::Locked`] at once,
    /// never a wait. This is what makes page reuse safe: no handle reads
    /// a page that a writer elsewhere may have handed to a new owner.
    ///
    /// Once locked, a crash tail is trimmed: a trailing partial page (a
    /// page write died mid-sector) is rounded away by truncation instead
    /// of rejecting the whole file. Committed pages are never in the
    /// tail — the root file's `store_pages` bounds them — so this loses
    /// only uncommitted copy-on-write garbage.
    pub fn open_locked(path: &Path, exclusive: bool) -> StorageResult<Self> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let locked = if exclusive {
            file.try_lock()
        } else {
            file.try_lock_shared()
        };
        match locked {
            Ok(()) => {}
            Err(TryLockError::WouldBlock) => {
                return Err(StorageError::Locked {
                    path: path.to_path_buf(),
                })
            }
            Err(TryLockError::Error(e)) => return Err(e.into()),
        }
        let len = file.metadata()?.len();
        let whole = len - len % PAGE_SIZE as u64;
        if whole != len {
            file.set_len(whole)?;
            file.sync_data()?;
        }
        Ok(FileStore {
            file: Mutex::new(file),
            num_pages: Mutex::new((whole / PAGE_SIZE as u64) as u32),
        })
    }

    /// Shrink the store to exactly `n_pages` pages, discarding everything
    /// beyond (uncommitted pages allocated by an edit that never reached
    /// its commit point). Errors if the file is already shorter — the
    /// committed state cannot be missing bytes.
    pub fn truncate_to(&self, n_pages: u32) -> StorageResult<()> {
        let mut n = self.num_pages.lock();
        if *n < n_pages {
            return Err(StorageError::ShortFile {
                page: n_pages.saturating_sub(1),
            });
        }
        if *n > n_pages {
            let file = self.file.lock();
            file.set_len(n_pages as u64 * PAGE_SIZE as u64)?;
            file.sync_data()?;
            *n = n_pages;
        }
        Ok(())
    }

    /// Bounds check shared by reads and writes: seeking past EOF would
    /// silently read zeros / extend the file, so unallocated ids must be
    /// rejected before any positioning happens.
    fn check_bounds(&self, id: PageId) -> StorageResult<()> {
        let n = *self.num_pages.lock();
        if id >= n {
            return Err(StorageError::OutOfBounds {
                page: id,
                num_pages: n,
            });
        }
        Ok(())
    }
}

impl PageStore for FileStore {
    fn read_page(&self, id: PageId, buf: &mut [u8; PAGE_SIZE]) -> StorageResult<()> {
        self.check_bounds(id)?;
        let mut file = self.file.lock();
        file.seek(SeekFrom::Start(id as u64 * PAGE_SIZE as u64))?;
        file.read_exact(buf).map_err(|e| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                StorageError::ShortFile { page: id }
            } else {
                StorageError::Io(e)
            }
        })
    }

    fn write_page(&self, id: PageId, buf: &[u8; PAGE_SIZE]) -> StorageResult<()> {
        self.check_bounds(id)?;
        let mut file = self.file.lock();
        file.seek(SeekFrom::Start(id as u64 * PAGE_SIZE as u64))?;
        file.write_all(buf)?;
        Ok(())
    }

    fn allocate(&self) -> StorageResult<PageId> {
        let mut n = self.num_pages.lock();
        let id = *n;
        let mut file = self.file.lock();
        file.seek(SeekFrom::Start(id as u64 * PAGE_SIZE as u64))?;
        file.write_all(&zeroed_page()[..])?;
        *n += 1;
        Ok(id)
    }

    fn num_pages(&self) -> u32 {
        *self.num_pages.lock()
    }

    fn sync(&self) -> StorageResult<()> {
        self.file.lock().sync_data()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(store: &dyn PageStore) {
        assert_eq!(store.num_pages(), 0);
        let a = store.allocate().unwrap();
        let b = store.allocate().unwrap();
        assert_eq!((a, b), (0, 1));
        assert_eq!(store.num_pages(), 2);

        let mut buf = zeroed_page();
        buf[0] = 0xAB;
        buf[PAGE_SIZE - 1] = 0xCD;
        store.write_page(b, &buf).unwrap();

        let mut out = zeroed_page();
        store.read_page(b, &mut out).unwrap();
        assert_eq!(out[0], 0xAB);
        assert_eq!(out[PAGE_SIZE - 1], 0xCD);

        store.read_page(a, &mut out).unwrap();
        assert!(out.iter().all(|&x| x == 0), "fresh page must be zeroed");

        // Out-of-bounds access in both directions is a typed error, not
        // a panic and not a silent file extension.
        assert!(matches!(
            store.read_page(2, &mut out),
            Err(StorageError::OutOfBounds {
                page: 2,
                num_pages: 2
            })
        ));
        assert!(matches!(
            store.write_page(7, &buf),
            Err(StorageError::OutOfBounds {
                page: 7,
                num_pages: 2
            })
        ));
        assert_eq!(store.num_pages(), 2, "failed write must not allocate");
    }

    #[test]
    fn mem_store_roundtrip() {
        exercise(&MemStore::new());
    }

    #[test]
    fn file_store_roundtrip() {
        let path = std::env::temp_dir().join(format!("dm_store_{}.db", std::process::id()));
        let store = FileStore::create(&path).unwrap();
        exercise(&store);
        store.sync().unwrap();
        drop(store);
        // Reopen and verify persistence.
        let store = FileStore::open(&path).unwrap();
        assert_eq!(store.num_pages(), 2);
        let mut out = zeroed_page();
        store.read_page(1, &mut out).unwrap();
        assert_eq!(out[0], 0xAB);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_store_rejects_torn_file() {
        let path = std::env::temp_dir().join(format!("dm_torn_{}.db", std::process::id()));
        std::fs::write(&path, vec![0u8; PAGE_SIZE + 17]).unwrap();
        assert!(FileStore::open(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_store_write_out_of_bounds_does_not_extend_file() {
        let path = std::env::temp_dir().join(format!("dm_oob_{}.db", std::process::id()));
        let store = FileStore::create(&path).unwrap();
        store.allocate().unwrap();
        let buf = zeroed_page();
        assert!(store.write_page(100, &buf).is_err());
        store.sync().unwrap();
        drop(store);
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            PAGE_SIZE as u64,
            "rejected write must leave the file untouched"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn one_writer_excludes_every_other_handle() {
        let path = std::env::temp_dir().join(format!("dm_lock_{}.db", std::process::id()));
        FileStore::create(&path).unwrap().allocate().unwrap();
        let locked = |r: StorageResult<FileStore>| matches!(r, Err(StorageError::Locked { .. }));
        let reader = FileStore::open_locked(&path, false).unwrap();
        let second_reader = FileStore::open_locked(&path, false).unwrap();
        assert!(locked(FileStore::open_locked(&path, true)));
        drop((reader, second_reader));
        let writer = FileStore::open_locked(&path, true).unwrap();
        assert!(locked(FileStore::open_locked(&path, true)));
        assert!(locked(FileStore::open_locked(&path, false)));
        drop(writer);
        FileStore::open_locked(&path, false).unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mem_store_read_unallocated_is_an_error() {
        let store = MemStore::new();
        let mut buf = zeroed_page();
        let err = store.read_page(3, &mut buf).unwrap_err();
        assert!(matches!(
            err,
            StorageError::OutOfBounds {
                page: 3,
                num_pages: 0
            }
        ));
    }
}
