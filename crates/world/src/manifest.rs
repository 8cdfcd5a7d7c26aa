//! The world manifest: a small versioned binary file mapping region ids
//! to store paths and world-frame placement, checksummed like the
//! database catalog (magic → version → payload CRC32, so a foreign file
//! reports "not a manifest" before a torn one reports "checksum").
//!
//! Layout (little endian):
//!
//! ```text
//! "DMWM" u32(version = 1)
//! f64(world e_max)
//! u32(n_regions)
//! per region:
//!   u32(id) u32(id_base) u32(n_records)
//!   offset (2×f64)            -- region frame → world frame translation
//!   bounds (4×f64)            -- plan-view record bounds, region frame
//!   f64(e_max)
//!   u16(path len) path bytes  -- store file, relative paths resolved
//!                                against the manifest's directory
//! u32(crc32 of everything above)
//! ```
//!
//! The manifest stores *placement*, not data: each region remains an
//! ordinary single-terrain Direct Mesh store file (with its own catalog,
//! WAL root, checksums), openable on its own by every existing tool.

use std::path::{Path, PathBuf};

use dm_geom::{Rect, Vec2};
use dm_storage::page::Cursor;
use dm_storage::{crc32, StorageError, StorageResult};

const MAGIC: &[u8; 4] = b"DMWM";
const VERSION: u32 = 1;

/// One region's row in the world manifest.
#[derive(Clone, Debug, PartialEq)]
pub struct RegionMeta {
    /// Stable region id (what the wire protocol and stats report).
    pub id: u32,
    /// Offset added to this region's record ids to form world ids
    /// (0 for worlds split out of one store, whose ids are already
    /// globally unique; prefix sums for assembled worlds).
    pub id_base: u32,
    /// Records in the region store.
    pub n_records: u32,
    /// Region frame → world frame plan-view translation.
    pub offset: Vec2,
    /// Plan-view bounds of the region's records, in the *region* frame.
    pub bounds: Rect,
    /// The region store's `e_max` (LOD axis is never translated).
    pub e_max: f64,
    /// Store file path as written in the manifest.
    pub path: PathBuf,
}

impl RegionMeta {
    /// The region's plan-view footprint in world coordinates — what the
    /// region-level R\*-tree indexes.
    pub fn world_bounds(&self) -> Rect {
        self.bounds.translated(self.offset)
    }
}

/// A decoded world manifest.
#[derive(Clone, Debug, PartialEq)]
pub struct WorldManifest {
    /// Largest region `e_max`: the world's LOD clamp.
    pub e_max: f64,
    pub regions: Vec<RegionMeta>,
}

impl WorldManifest {
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32 + 96 * self.regions.len());
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&self.e_max.to_le_bytes());
        out.extend_from_slice(&(self.regions.len() as u32).to_le_bytes());
        for r in &self.regions {
            out.extend_from_slice(&r.id.to_le_bytes());
            out.extend_from_slice(&r.id_base.to_le_bytes());
            out.extend_from_slice(&r.n_records.to_le_bytes());
            for v in [
                r.offset.x,
                r.offset.y,
                r.bounds.min.x,
                r.bounds.min.y,
                r.bounds.max.x,
                r.bounds.max.y,
                r.e_max,
            ] {
                out.extend_from_slice(&v.to_le_bytes());
            }
            let path = r.path.to_string_lossy();
            let bytes = path.as_bytes();
            assert!(bytes.len() <= u16::MAX as usize, "region path too long");
            out.extend_from_slice(&(bytes.len() as u16).to_le_bytes());
            out.extend_from_slice(bytes);
        }
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    pub fn decode(b: &[u8]) -> StorageResult<WorldManifest> {
        if b.len() < 4 {
            return Err(StorageError::format("world manifest truncated"));
        }
        let (body, trailer) = b.split_at(b.len() - 4);
        let stored = u32::from_le_bytes(trailer.try_into().unwrap());
        let computed = crc32(body);
        let mut cur = Cursor::new(body, "world manifest");
        if cur.take(4)? != MAGIC {
            return Err(StorageError::format(
                "not a Direct Mesh world manifest (bad magic)",
            ));
        }
        let version = cur.u32()?;
        if version != VERSION {
            return Err(StorageError::format(format!(
                "unsupported world manifest version {version} (this build reads version {VERSION})"
            )));
        }
        // Magic and version precede the CRC check, catalog-style.
        if stored != computed {
            return Err(StorageError::format(format!(
                "world manifest checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
            )));
        }
        let e_max = cur.f64()?;
        let n = cur.u32()? as usize;
        let mut regions = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            let id = cur.u32()?;
            let id_base = cur.u32()?;
            let n_records = cur.u32()?;
            let offset = Vec2::new(cur.f64()?, cur.f64()?);
            let min = Vec2::new(cur.f64()?, cur.f64()?);
            let max = Vec2::new(cur.f64()?, cur.f64()?);
            let e_max = cur.f64()?;
            let len = cur.u16()? as usize;
            let path = std::str::from_utf8(cur.take(len)?)
                .map_err(|_| StorageError::format("region path is not UTF-8"))?;
            regions.push(RegionMeta {
                id,
                id_base,
                n_records,
                offset,
                bounds: Rect::from_corners(min, max),
                e_max,
                path: PathBuf::from(path),
            });
        }
        if !cur.at_end() {
            return Err(StorageError::format("world manifest has trailing bytes"));
        }
        Ok(WorldManifest { e_max, regions })
    }

    /// Write the manifest to `path` (atomically via a sibling temp file,
    /// so a crashed write never leaves a half-manifest behind).
    pub fn write(&self, path: &Path) -> StorageResult<()> {
        let tmp = path.with_extension("world.tmp");
        std::fs::write(&tmp, self.encode())?;
        std::fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Read and validate the manifest at `path`, resolving relative
    /// region paths against the manifest's directory.
    pub fn read(path: &Path) -> StorageResult<WorldManifest> {
        let bytes = std::fs::read(path)?;
        let mut m = Self::decode(&bytes)?;
        let base = path.parent().unwrap_or(Path::new("."));
        for r in &mut m.regions {
            if r.path.is_relative() {
                r.path = base.join(&r.path);
            }
        }
        Ok(m)
    }

    /// Union of the regions' world-frame footprints.
    pub fn world_bounds(&self) -> Rect {
        let mut out = Rect::EMPTY;
        for r in &self.regions {
            out = out.union(&r.world_bounds());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> WorldManifest {
        WorldManifest {
            e_max: 42.5,
            regions: vec![
                RegionMeta {
                    id: 0,
                    id_base: 0,
                    n_records: 1000,
                    offset: Vec2::new(0.0, 0.0),
                    bounds: Rect::from_corners(Vec2::new(0.0, 0.0), Vec2::new(16.0, 16.0)),
                    e_max: 42.5,
                    path: PathBuf::from("tiles/a.dm"),
                },
                RegionMeta {
                    id: 1,
                    id_base: 1000,
                    n_records: 512,
                    offset: Vec2::new(16.5, 0.0),
                    bounds: Rect::from_corners(Vec2::new(0.0, 0.0), Vec2::new(8.0, 8.0)),
                    e_max: 17.25,
                    path: PathBuf::from("tiles/b.dm"),
                },
            ],
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let m = sample();
        assert_eq!(WorldManifest::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn world_bounds_union_translated() {
        let m = sample();
        let wb = m.world_bounds();
        assert_eq!(wb.min, Vec2::new(0.0, 0.0));
        assert_eq!(wb.max, Vec2::new(24.5, 16.0));
    }

    #[test]
    fn decode_rejects_garbage_and_tampering() {
        assert!(WorldManifest::decode(b"XXXXnope").is_err());
        let mut bytes = sample().encode();
        bytes.truncate(bytes.len() - 2);
        assert!(WorldManifest::decode(&bytes).is_err());
        let mut bytes = sample().encode();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        let err = WorldManifest::decode(&bytes).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn decode_rejects_wrong_version() {
        let mut bytes = sample().encode();
        bytes[4] = 9;
        let err = WorldManifest::decode(&bytes).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }

    #[test]
    fn file_roundtrip_resolves_relative_paths() {
        let dir = std::env::temp_dir().join(format!("dm_world_manifest_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("w.world");
        let m = sample();
        m.write(&path).unwrap();
        let back = WorldManifest::read(&path).unwrap();
        assert_eq!(back.e_max, m.e_max);
        assert_eq!(back.regions[0].path, dir.join("tiles/a.dm"));
        assert_eq!(back.regions[1].id_base, 1000);
        std::fs::remove_dir_all(&dir).ok();
    }
}
