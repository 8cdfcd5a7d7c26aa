//! Pages and little-endian field codecs.

use crate::{StorageError, StorageResult};

/// Size of every page in bytes. 8 KiB matches the common DBMS block size
/// (Oracle's default block size in the paper's era).
pub const PAGE_SIZE: usize = 8192;

/// Bytes reserved at the end of every page for the CRC32 trailer
/// (see [`crate::checksum`]).
pub const CHECKSUM_LEN: usize = 4;

/// Usable payload bytes per page: page layouts (heap, B+-tree, spatial
/// index nodes, catalog) must confine themselves to `[0, PAGE_DATA)`; the
/// buffer pool owns the trailer.
pub const PAGE_DATA: usize = PAGE_SIZE - CHECKSUM_LEN;

/// Identifier of a page within a store. Page 0 is valid.
pub type PageId = u32;

/// Sentinel for "no page".
pub const NO_PAGE: PageId = u32::MAX;

/// An owned page buffer.
pub type PageBuf = Box<[u8; PAGE_SIZE]>;

/// Allocate a zeroed page buffer.
pub fn zeroed_page() -> PageBuf {
    // A boxed array literal would build on the stack first; go through a
    // Vec so the allocation is zeroed directly on the heap.
    vec![0u8; PAGE_SIZE]
        .into_boxed_slice()
        .try_into()
        .expect("PAGE_SIZE slice")
}

/// A bounds-checked little-endian reader over a persisted payload (the
/// catalog, the world manifest): reading past the end is a
/// [`StorageError::Format`] that says
/// `"{what} truncated"`.
pub struct Cursor<'a> {
    b: &'a [u8],
    off: usize,
    what: &'static str,
}

impl<'a> Cursor<'a> {
    pub fn new(b: &'a [u8], what: &'static str) -> Self {
        Cursor { b, off: 0, what }
    }

    pub fn take(&mut self, n: usize) -> StorageResult<&'a [u8]> {
        let s = self
            .b
            .get(self.off..self.off + n)
            .ok_or_else(|| StorageError::format(format!("{} truncated", self.what)))?;
        self.off += n;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> StorageResult<[u8; N]> {
        Ok(self.take(N)?.try_into().expect("take returns N bytes"))
    }

    pub fn u16(&mut self) -> StorageResult<u16> {
        self.array().map(u16::from_le_bytes)
    }

    pub fn u32(&mut self) -> StorageResult<u32> {
        self.array().map(u32::from_le_bytes)
    }

    pub fn u64(&mut self) -> StorageResult<u64> {
        self.array().map(u64::from_le_bytes)
    }

    pub fn f64(&mut self) -> StorageResult<f64> {
        self.array().map(f64::from_le_bytes)
    }

    /// Every byte has been read.
    pub fn at_end(&self) -> bool {
        self.off == self.b.len()
    }
}

/// Little-endian read/write helpers over a byte slice. All offsets are in
/// bytes and bounds-checked through the slice indexing.
pub mod codec {
    #[inline]
    pub fn get_u16(b: &[u8], off: usize) -> u16 {
        u16::from_le_bytes(b[off..off + 2].try_into().unwrap())
    }

    #[inline]
    pub fn put_u16(b: &mut [u8], off: usize, v: u16) {
        b[off..off + 2].copy_from_slice(&v.to_le_bytes());
    }

    #[inline]
    pub fn get_u32(b: &[u8], off: usize) -> u32 {
        u32::from_le_bytes(b[off..off + 4].try_into().unwrap())
    }

    #[inline]
    pub fn put_u32(b: &mut [u8], off: usize, v: u32) {
        b[off..off + 4].copy_from_slice(&v.to_le_bytes());
    }

    #[inline]
    pub fn get_u64(b: &[u8], off: usize) -> u64 {
        u64::from_le_bytes(b[off..off + 8].try_into().unwrap())
    }

    #[inline]
    pub fn put_u64(b: &mut [u8], off: usize, v: u64) {
        b[off..off + 8].copy_from_slice(&v.to_le_bytes());
    }

    #[inline]
    pub fn get_f32(b: &[u8], off: usize) -> f32 {
        f32::from_le_bytes(b[off..off + 4].try_into().unwrap())
    }

    #[inline]
    pub fn put_f32(b: &mut [u8], off: usize, v: f32) {
        b[off..off + 4].copy_from_slice(&v.to_le_bytes());
    }

    #[inline]
    pub fn get_f64(b: &[u8], off: usize) -> f64 {
        f64::from_le_bytes(b[off..off + 8].try_into().unwrap())
    }

    #[inline]
    pub fn put_f64(b: &mut [u8], off: usize, v: f64) {
        b[off..off + 8].copy_from_slice(&v.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_page_is_zero() {
        let p = zeroed_page();
        assert_eq!(p.len(), PAGE_SIZE);
        assert!(p.iter().all(|&b| b == 0));
    }

    #[test]
    fn codec_roundtrip() {
        let mut b = [0u8; 32];
        codec::put_u16(&mut b, 0, 0xBEEF);
        codec::put_u32(&mut b, 2, 0xDEAD_BEEF);
        codec::put_u64(&mut b, 6, u64::MAX - 7);
        codec::put_f32(&mut b, 14, -1234.5);
        assert_eq!(codec::get_u16(&b, 0), 0xBEEF);
        assert_eq!(codec::get_u32(&b, 2), 0xDEAD_BEEF);
        assert_eq!(codec::get_u64(&b, 6), u64::MAX - 7);
        assert_eq!(codec::get_f32(&b, 14), -1234.5);
    }

    #[test]
    #[should_panic]
    fn codec_out_of_bounds_panics() {
        let b = [0u8; 4];
        codec::get_u64(&b, 0);
    }
}
