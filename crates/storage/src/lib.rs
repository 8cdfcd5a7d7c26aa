//! A small page-based storage engine.
//!
//! The Direct Mesh paper measures query cost as the *number of disk
//! accesses* reported by Oracle after flushing the database and system
//! buffers. This crate reproduces that measurement environment from
//! scratch:
//!
//! * [`page`] — fixed 8 KiB pages and little-endian field codecs,
//! * [`store`] — the [`store::PageStore`] trait with an in-memory and a
//!   file-backed implementation,
//! * [`buffer`] — a buffer pool with LRU eviction, dirty-page write-back,
//!   `flush_all` (the "cold cache" switch used before every measured
//!   query) and an [`stats::AccessStats`] counter that records every page
//!   fetched from the underlying store,
//! * [`heap`] — slotted heap files with variable-length records,
//! * [`pack`] — varint/zig-zag/XOR-delta primitives shared by the
//!   compact record codecs layered above,
//! * [`iddir`] — the id directory, a run-length `node id → record` map
//!   for a store whose id set is fixed at build: one page per lookup,
//!   copy-on-write by page,
//! * [`btree`] — a bulk-loaded, read-only B+-tree mapping `u64 → u64`
//!   (the PM baseline's primary key, and the id index of older stores).
//!
//! All spatial indexes (R\*-tree, LOD-quadtree) live in `dm-index` and are
//! built on these primitives, exactly as the paper builds its indexes on
//! plain Oracle tables rather than Oracle Spatial.

#![deny(unsafe_code)]

pub mod btree;
pub mod buffer;
pub mod checksum;
pub mod error;
pub mod fault;
pub mod heap;
pub mod iddir;
pub mod pack;
pub mod page;
pub mod stats;
pub mod store;
pub mod wal;

pub use btree::BTree;
pub use buffer::{BufferPool, DecodedStats, PageRead};
pub use checksum::{crc32, Crc32Hasher};
pub use error::{StorageError, StorageResult};
pub use fault::{FaultConfig, FaultCounters, FaultInjector, KillSwitch, WriteVerdict};
pub use heap::{HeapFile, PageView, RecordId};
pub use iddir::{DirectoryWalk, IdDirectory};
pub use page::{PageId, PAGE_DATA, PAGE_SIZE};
pub use stats::{thread_reads, thread_retries, AccessStats, StatsSnapshot};
pub use store::{FileStore, MemStore, PageStore};
pub use wal::{RootFile, RootRecord, Wal, WalRecovery};
