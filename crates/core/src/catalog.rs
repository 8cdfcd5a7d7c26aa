//! Database catalog: persist a [`DirectMeshDb`](crate::DirectMeshDb)'s metadata inside its own
//! page store, so a file-backed database can be closed and reopened
//! without rebuilding.
//!
//! Convention: the catalog starts at **page 0** (reserved by
//! [`create_in`](crate::DirectMeshDb::create_in) before anything else is allocated) and
//! chains into continuation pages written at the end of the build.
//!
//! Payload (little endian):
//!
//! ```text
//! "DMCT" u32(version)
//! bounds (4×f64)  e_max (f64)
//! u32(n_records) u32(n_leaves)
//! btree: u32(root) u32(height) u64(len)
//! rtree: u32(root) u32(height) u64(len)
//! u32(n_roots)     n_roots × u32
//! u32(n_heap_pages) n_heap_pages × u32
//! u64(heap_len)
//! u32(crc32 of everything above)
//! ```
//!
//! Version 2 adds the trailing payload CRC32 and keeps each page chunk
//! inside [`PAGE_DATA`] so the buffer pool's per-page checksum trailer is
//! never overwritten. The per-page checksum catches a torn or flipped
//! page; the payload CRC catches a chain stitched together from pages of
//! different catalog generations.
//!
//! The optimizer's page and node regions are rebuilt on open by one walk
//! of the R-tree (its leaf entries are the heap pages' boxes); interval
//! statistics (`cut_size` support) are rebuilt by one heap scan on first
//! use. Neither is stored here.

use std::sync::Arc;

use dm_storage::page::{PageId, NO_PAGE, PAGE_DATA};
use dm_storage::{crc32, BufferPool, StorageError, StorageResult};

use crate::record::RecordCodec;

const MAGIC: &[u8; 4] = b"DMCT";
/// Version 2: flat records, payload CRC. Version 3 inserts one codec tag
/// byte after the version and allows compact heap records. A database
/// whose build selected the flat codec is still written as a byte-exact
/// version-2 catalog, so older binaries keep reading it.
const VERSION_FLAT: u32 = 2;
const VERSION_CODEC: u32 = 3;

/// The on-disk catalog version a database with this record codec is
/// written as (flat databases stay byte-exact version-2 files so older
/// binaries keep reading them).
pub fn version_for(codec: RecordCodec) -> u32 {
    match codec {
        RecordCodec::Flat => VERSION_FLAT,
        RecordCodec::Compact => VERSION_CODEC,
    }
}
/// Per continuation page: [next: u32][len: u16] then payload. Chunks stay
/// inside `PAGE_DATA` — the last four bytes of every page belong to the
/// buffer pool's checksum.
const PAGE_HDR: usize = 6;
const PAGE_PAYLOAD: usize = PAGE_DATA - PAGE_HDR;

/// The serializable part of a database's state.
#[derive(Clone, Debug, PartialEq)]
pub struct CatalogData {
    pub bounds: dm_geom::Rect,
    pub e_max: f64,
    pub n_records: u32,
    pub n_leaves: u32,
    pub btree: (PageId, u32, u64),
    pub rtree: (PageId, u32, u64),
    pub roots: Vec<u32>,
    pub heap_pages: Vec<PageId>,
    pub heap_len: u64,
    /// Which codec the heap records are stored in.
    pub codec: RecordCodec,
}

impl CatalogData {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + 4 * (self.roots.len() + self.heap_pages.len()));
        out.extend_from_slice(MAGIC);
        match self.codec {
            RecordCodec::Flat => out.extend_from_slice(&VERSION_FLAT.to_le_bytes()),
            RecordCodec::Compact => {
                out.extend_from_slice(&VERSION_CODEC.to_le_bytes());
                out.push(self.codec.tag());
            }
        }
        for v in [
            self.bounds.min.x,
            self.bounds.min.y,
            self.bounds.max.x,
            self.bounds.max.y,
            self.e_max,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.extend_from_slice(&self.n_records.to_le_bytes());
        out.extend_from_slice(&self.n_leaves.to_le_bytes());
        for (root, height, len) in [self.btree, self.rtree] {
            out.extend_from_slice(&root.to_le_bytes());
            out.extend_from_slice(&height.to_le_bytes());
            out.extend_from_slice(&len.to_le_bytes());
        }
        out.extend_from_slice(&(self.roots.len() as u32).to_le_bytes());
        for r in &self.roots {
            out.extend_from_slice(&r.to_le_bytes());
        }
        out.extend_from_slice(&(self.heap_pages.len() as u32).to_le_bytes());
        for p in &self.heap_pages {
            out.extend_from_slice(&p.to_le_bytes());
        }
        out.extend_from_slice(&self.heap_len.to_le_bytes());
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    fn decode(b: &[u8]) -> StorageResult<CatalogData> {
        if b.len() < 4 {
            return Err(StorageError::format("catalog truncated"));
        }
        let (body, trailer) = b.split_at(b.len() - 4);
        let stored = u32::from_le_bytes(trailer.try_into().unwrap());
        let computed = crc32(body);
        let mut cur = Cursor { b: body, off: 0 };
        let magic = cur.take(4)?;
        if magic != MAGIC {
            return Err(StorageError::format(
                "not a Direct Mesh catalog (bad magic)",
            ));
        }
        let version = cur.u32()?;
        if version != VERSION_FLAT && version != VERSION_CODEC {
            return Err(StorageError::format(format!(
                "unsupported catalog version {version} (this build reads versions {VERSION_FLAT}-{VERSION_CODEC})"
            )));
        }
        // Magic and version first so a foreign file reports "not a
        // catalog" rather than "checksum mismatch"; everything after this
        // point is protected by the payload CRC.
        if stored != computed {
            return Err(StorageError::corrupt(
                NO_PAGE,
                format!(
                    "catalog payload checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
                ),
            ));
        }
        let codec = if version == VERSION_FLAT {
            RecordCodec::Flat
        } else {
            let tag = cur.take(1)?[0];
            RecordCodec::from_tag(tag).ok_or_else(|| {
                StorageError::format(format!("unknown record codec tag {tag} in catalog"))
            })?
        };
        let min = dm_geom::Vec2::new(cur.f64()?, cur.f64()?);
        let max = dm_geom::Vec2::new(cur.f64()?, cur.f64()?);
        let e_max = cur.f64()?;
        let n_records = cur.u32()?;
        let n_leaves = cur.u32()?;
        let btree = (cur.u32()?, cur.u32()?, cur.u64()?);
        let rtree = (cur.u32()?, cur.u32()?, cur.u64()?);
        let n_roots = cur.u32()? as usize;
        let mut roots = Vec::with_capacity(n_roots.min(1 << 20));
        for _ in 0..n_roots {
            roots.push(cur.u32()?);
        }
        let n_pages = cur.u32()? as usize;
        let mut heap_pages = Vec::with_capacity(n_pages.min(1 << 24));
        for _ in 0..n_pages {
            heap_pages.push(cur.u32()?);
        }
        let heap_len = cur.u64()?;
        Ok(CatalogData {
            bounds: dm_geom::Rect::from_corners(min, max),
            e_max,
            n_records,
            n_leaves,
            btree,
            rtree,
            roots,
            heap_pages,
            heap_len,
            codec,
        })
    }
}

/// Write the catalog starting at `first_page` (normally page 0, reserved
/// before the build); continuation pages are freshly allocated.
pub fn write_catalog(
    pool: &Arc<BufferPool>,
    first_page: PageId,
    data: &CatalogData,
) -> StorageResult<()> {
    let bytes = data.encode();
    let mut chunks = bytes.chunks(PAGE_PAYLOAD).peekable();
    let mut page = first_page;
    loop {
        let chunk = chunks.next().unwrap_or(&[]);
        let next = if chunks.peek().is_some() {
            pool.try_allocate()?
        } else {
            NO_PAGE
        };
        pool.try_write(page, |b| {
            b[0..4].copy_from_slice(&next.to_le_bytes());
            b[4..6].copy_from_slice(&(chunk.len() as u16).to_le_bytes());
            b[PAGE_HDR..PAGE_HDR + chunk.len()].copy_from_slice(chunk);
        })?;
        if next == NO_PAGE {
            break;
        }
        page = next;
    }
    Ok(())
}

/// Read the catalog chain starting at `first_page`.
pub fn read_catalog(pool: &Arc<BufferPool>, first_page: PageId) -> StorageResult<CatalogData> {
    let mut bytes = Vec::new();
    let mut page = first_page;
    let mut hops = 0u32;
    loop {
        let next = pool.try_read(page, |b| {
            let next = u32::from_le_bytes(b[0..4].try_into().unwrap());
            let len = u16::from_le_bytes(b[4..6].try_into().unwrap()) as usize;
            if len > PAGE_PAYLOAD {
                return Err(StorageError::corrupt(
                    page,
                    format!("catalog chunk of {len} bytes exceeds page payload {PAGE_PAYLOAD}"),
                ));
            }
            bytes.extend_from_slice(&b[PAGE_HDR..PAGE_HDR + len]);
            Ok(next)
        })??;
        if next == NO_PAGE {
            break;
        }
        page = next;
        hops += 1;
        if hops > 1 << 20 {
            return Err(StorageError::corrupt(
                page,
                "catalog chain does not terminate",
            ));
        }
    }
    CatalogData::decode(&bytes)
}

struct Cursor<'a> {
    b: &'a [u8],
    off: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> StorageResult<&'a [u8]> {
        if self.off + n > self.b.len() {
            return Err(StorageError::format("catalog truncated"));
        }
        let s = &self.b[self.off..self.off + n];
        self.off += n;
        Ok(s)
    }

    fn u32(&mut self) -> StorageResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> StorageResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> StorageResult<f64> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dm_storage::MemStore;

    fn sample(n_pages: usize) -> CatalogData {
        CatalogData {
            bounds: dm_geom::Rect::from_corners(
                dm_geom::Vec2::new(0.0, 1.0),
                dm_geom::Vec2::new(512.0, 511.0),
            ),
            e_max: 1234.5,
            n_records: 99,
            n_leaves: 55,
            btree: (7, 2, 99),
            rtree: (9, 3, 42),
            roots: vec![90, 95, 98],
            heap_pages: (100..100 + n_pages as u32).collect(),
            heap_len: 99,
            codec: RecordCodec::Compact,
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let d = sample(10);
        assert_eq!(CatalogData::decode(&d.encode()).unwrap(), d);
    }

    #[test]
    fn single_page_catalog_roundtrip() {
        let pool = Arc::new(BufferPool::new(Box::new(MemStore::new()), 16));
        let first = pool.allocate();
        let d = sample(100);
        write_catalog(&pool, first, &d).unwrap();
        assert_eq!(read_catalog(&pool, first).unwrap(), d);
    }

    #[test]
    fn multi_page_catalog_roundtrip() {
        let pool = Arc::new(BufferPool::new(Box::new(MemStore::new()), 16));
        let first = pool.allocate();
        // 30k heap pages → 120 KB payload → needs ~15 continuation pages.
        let d = sample(30_000);
        write_catalog(&pool, first, &d).unwrap();
        let back = read_catalog(&pool, first).unwrap();
        assert_eq!(back, d);
        assert!(pool.num_pages() > 10, "continuation pages were allocated");
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(CatalogData::decode(b"XXXXjunkjunkjunk").is_err());
        let d = sample(3);
        let mut bytes = d.encode();
        bytes.truncate(bytes.len() - 3);
        assert!(CatalogData::decode(&bytes).is_err());
    }

    #[test]
    fn flat_catalog_stays_version_2_on_disk() {
        let mut d = sample(4);
        d.codec = RecordCodec::Flat;
        let bytes = d.encode();
        assert_eq!(
            u32::from_le_bytes(bytes[4..8].try_into().unwrap()),
            VERSION_FLAT,
            "flat-codec catalogs keep the old on-disk version"
        );
        let back = CatalogData::decode(&bytes).unwrap();
        assert_eq!(back, d);
        assert_eq!(back.codec, RecordCodec::Flat);
    }

    #[test]
    fn compact_catalog_roundtrips_codec_tag() {
        let d = sample(4);
        let bytes = d.encode();
        assert_eq!(
            u32::from_le_bytes(bytes[4..8].try_into().unwrap()),
            VERSION_CODEC
        );
        assert_eq!(
            CatalogData::decode(&bytes).unwrap().codec,
            RecordCodec::Compact
        );
    }

    #[test]
    fn decode_rejects_unknown_codec_tag() {
        let d = sample(1);
        let mut bytes = d.encode();
        // The codec tag is the byte right after the version field;
        // recompute the payload CRC so only the tag is at fault.
        bytes[8] = 99;
        let body_len = bytes.len() - 4;
        let crc = dm_storage::crc32(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&crc.to_le_bytes());
        let err = CatalogData::decode(&bytes).unwrap_err();
        assert!(err.to_string().contains("codec tag"), "{err}");
    }

    #[test]
    fn decode_rejects_wrong_version() {
        let mut bytes = sample(1).encode();
        bytes[4] = 1; // version field follows the magic
        let err = CatalogData::decode(&bytes).unwrap_err();
        assert!(matches!(err, StorageError::Format { .. }), "{err}");
        assert!(err.to_string().contains("version"), "{err}");
    }

    #[test]
    fn decode_detects_payload_tampering() {
        let mut bytes = sample(5).encode();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        let err = CatalogData::decode(&bytes).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt { .. }), "{err}");
    }

    // Sanity: the chunking constant leaves the pool's 4-byte trailer
    // alone even on a full continuation page.
    const _: () = assert!(PAGE_HDR + PAGE_PAYLOAD <= PAGE_DATA);
}
