//! CRC32 page checksums.
//!
//! Every page reserves its last four bytes ([`crate::page::CHECKSUM_LEN`])
//! for a little-endian CRC32 (IEEE 802.3 polynomial, the same one zlib
//! uses) over the first [`crate::page::PAGE_DATA`] bytes. The buffer pool
//! seals pages when it writes them back and verifies them on every fetch.
//!
//! One page state is exempt: the **all-zero page**. Freshly allocated
//! pages are zeroed by the store without passing through the pool's write
//! path, so their trailer is zero while `crc32(zeros) != 0`. An all-zero
//! page is therefore accepted as trivially valid. This cannot mask a
//! single-bit flip of a sealed page: a sealed page always carries a
//! nonzero checksum (see `crc_of_zeros_is_nonzero`), so it can never be
//! all-zero, and any single-bit flip of it leaves it non-zero too.
//!
//! Two implementations compute the one checksum. The slicing-by-8 table
//! code is the portable path and the test oracle; on x86-64 CPUs that
//! report `pclmulqdq` and `sse4.1` at run time, inputs of 64 bytes and
//! more go through a carry-less-multiply folding kernel (`pclmul`), the
//! only `unsafe` code in the workspace's own crates. Same polynomial,
//! same register convention: which one ran is not observable in any
//! stored or transmitted byte. [`kernel`] names the live one.

use crate::error::{StorageError, StorageResult};
use crate::page::{codec, PageId, PAGE_DATA, PAGE_SIZE};

/// CRC32 (IEEE, reflected) over `data`.
pub fn crc32(data: &[u8]) -> u32 {
    !crc32_update(!0u32, data)
}

/// Slicing-by-8 tables: `TABLES[0]` is the classic byte-at-a-time table;
/// `TABLES[k][b]` advances a byte `b` through `k` further zero bytes, so
/// eight input bytes fold into the state with eight independent lookups.
/// Same polynomial and bit order as before — identical checksums, the
/// mesh-frame seal/verify path just stops being the bottleneck.
fn tables() -> &'static [[u32; 256]; 8] {
    static TABLES: std::sync::OnceLock<[[u32; 256]; 8]> = std::sync::OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        t[0] = std::array::from_fn(|i| {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            c
        });
        for i in 0..256usize {
            let mut c = t[0][i];
            for k in 1..8 {
                c = t[0][(c & 0xFF) as usize] ^ (c >> 8);
                t[k][i] = c;
            }
        }
        t
    })
}

/// Which implementation [`crc32`] uses for inputs long enough to fold on
/// this CPU: `"pclmulqdq"` or `"portable"`.
pub fn kernel() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if pclmul::detected() {
        return "pclmulqdq";
    }
    "portable"
}

/// Advance the raw (un-inverted) register `crc` over `data`.
fn crc32_update(crc: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if let Some((crc, tail)) = pclmul::fold_body(crc, data) {
        return crc32_table(crc, tail);
    }
    crc32_table(crc, data)
}

/// The portable implementation, and the oracle the kernel is tested
/// against.
fn crc32_table(mut crc: u32, data: &[u8]) -> u32 {
    let t = tables();
    let mut chunks = data.chunks_exact(8);
    for ch in &mut chunks {
        let lo = u32::from_le_bytes([ch[0], ch[1], ch[2], ch[3]]) ^ crc;
        let hi = u32::from_le_bytes([ch[4], ch[5], ch[6], ch[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

/// CRC32 by carry-less multiplication (Intel, "Fast CRC Computation for
/// Generic Polynomials Using PCLMULQDQ"), bit-reflected IEEE constants.
///
/// The message is a polynomial over GF(2); multiplying a 128-bit lane by
/// `x^k mod P` moves it `k` bits forward without changing its remainder,
/// so four lanes fold 64 input bytes per step, then collapse to one, to
/// 64 bits and — by Barrett reduction — to the 32-bit register.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod pclmul {
    use std::arch::x86_64::*;

    /// Shortest input worth folding: the four lanes of one 64-byte step.
    const MIN_LEN: usize = 64;

    // x^(512±32) mod P: fold a lane across the three lanes beside it.
    const K1: i64 = 0x01_5444_2bd4;
    const K2: i64 = 0x01_c6e4_1596;
    // x^(128±32) mod P: fold a lane onto its neighbour.
    const K3: i64 = 0x01_7519_97d0;
    const K4: i64 = 0x00_ccaa_009e;
    // x^64 mod P: 96 → 64 bits.
    const K5: i64 = 0x01_63cd_6124;
    // Barrett pair: P itself and floor(x^64 / P).
    const POLY: i64 = 0x01_db71_0641;
    const MU: i64 = 0x01_f701_1641;

    pub(super) fn detected() -> bool {
        is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
    }

    /// Run the 16-byte-multiple prefix of `data` through the kernel and
    /// return the register with the unconsumed tail (< 16 bytes); `None`
    /// when `data` is shorter than one step or the CPU lacks the
    /// instructions, and the caller takes the table path for all of it.
    pub(super) fn fold_body(crc: u32, data: &[u8]) -> Option<(u32, &[u8])> {
        if data.len() < MIN_LEN || !detected() {
            return None;
        }
        let (body, tail) = data.split_at(data.len() & !15);
        // SAFETY: `detected()` just reported both features `fold` enables.
        Some((unsafe { fold(crc, body) }, tail))
    }

    /// `a` moved forward by the distances in `keys`, plus `b`.
    ///
    /// # Safety
    /// The CPU must support `pclmulqdq`.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    unsafe fn fold_lane(a: __m128i, b: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(a, keys, 0x00);
        let hi = _mm_clmulepi64_si128(a, keys, 0x11);
        _mm_xor_si128(_mm_xor_si128(b, lo), hi)
    }

    /// The raw register `crc` advanced over `data`, whose length is a
    /// multiple of 16 and at least [`MIN_LEN`] (asserted).
    ///
    /// # Safety
    /// The CPU must support `pclmulqdq` and `sse4.1`.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    unsafe fn fold(crc: u32, data: &[u8]) -> u32 {
        let len = data.len();
        assert!(len >= MIN_LEN && len.is_multiple_of(16));
        let lane = |at: usize| {
            let bytes: &[u8] = &data[at..at + 16];
            // SAFETY: `bytes` is 16 readable bytes, and the load is the
            // unaligned one, so any byte offset is valid.
            unsafe { _mm_loadu_si128(bytes.as_ptr().cast()) }
        };

        let mut x0 = _mm_xor_si128(lane(0), _mm_cvtsi32_si128(crc as i32));
        let (mut x1, mut x2, mut x3) = (lane(16), lane(32), lane(48));
        let mut at = 64;

        let k1k2 = _mm_set_epi64x(K2, K1);
        while at + 64 <= len {
            x0 = fold_lane(x0, lane(at), k1k2);
            x1 = fold_lane(x1, lane(at + 16), k1k2);
            x2 = fold_lane(x2, lane(at + 32), k1k2);
            x3 = fold_lane(x3, lane(at + 48), k1k2);
            at += 64;
        }

        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold_lane(x0, x1, k3k4);
        x = fold_lane(x, x2, k3k4);
        x = fold_lane(x, x3, k3k4);
        while at + 16 <= len {
            x = fold_lane(x, lane(at), k3k4);
            at += 16;
        }

        // 128 → 96 → 64 bits.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        let x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );
        // Barrett: 64 → 32 bits.
        let pu = _mm_set_epi64x(MU, POLY);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pu, 0x00);
        _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32
    }
}

/// Incremental CRC32 (same polynomial) for streamed artifacts.
#[derive(Clone, Copy, Debug)]
pub struct Crc32Hasher(u32);

impl Default for Crc32Hasher {
    fn default() -> Self {
        Crc32Hasher(!0)
    }
}

impl Crc32Hasher {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn update(&mut self, data: &[u8]) {
        self.0 = crc32_update(self.0, data);
    }

    pub fn finalize(self) -> u32 {
        !self.0
    }
}

/// Write the checksum trailer of `buf` (call just before handing the page
/// to the store).
pub fn seal_page(buf: &mut [u8; PAGE_SIZE]) {
    let crc = crc32(&buf[..PAGE_DATA]);
    codec::put_u32(buf, PAGE_DATA, crc);
}

/// Verify the checksum trailer of `buf` as read from the store.
///
/// An all-zero page (never sealed — a fresh allocation) is accepted; see
/// the module docs for why this cannot hide corruption of sealed pages.
pub fn verify_page(page: PageId, buf: &[u8; PAGE_SIZE]) -> StorageResult<()> {
    let stored = codec::get_u32(buf, PAGE_DATA);
    let computed = crc32(&buf[..PAGE_DATA]);
    if stored == computed {
        return Ok(());
    }
    if stored == 0 && buf[..PAGE_DATA].iter().all(|&b| b == 0) {
        return Ok(()); // fresh page, never sealed
    }
    Err(StorageError::corrupt(
        page,
        format!("checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::zeroed_page;
    use proptest::prelude::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE CRC32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// Deterministic filler for the golden vectors (multiplicative hash
    /// of the byte index, top byte).
    fn pattern(len: usize) -> Vec<u8> {
        (0..len as u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
            .collect()
    }

    /// [`pattern`] with every byte XORed by `salt`.
    fn salted_pattern(len: usize, salt: u8) -> Vec<u8> {
        pattern(len).into_iter().map(|b| b ^ salt).collect()
    }

    /// The kernel tests below compare the dispatching entry with the
    /// table code; without the CPU features both sides are the table
    /// code, so say that the comparison was vacuous.
    fn note_if_portable() {
        static ONCE: std::sync::Once = std::sync::Once::new();
        if kernel() == "portable" {
            ONCE.call_once(|| {
                eprintln!("skip: no pclmulqdq + sse4.1, kernel tests ran on the table path only")
            });
        }
    }

    #[test]
    fn crc32_golden_vectors_reach_the_kernel() {
        note_if_portable();
        // Computed with the slicing-by-8 code before the kernel existed
        // (and equal to zlib's): the 64/65/79/80 set brackets the
        // kernel's minimum length and its 16-byte body granularity, 8188
        // is a page's checksummed prefix, 30 000 a large wire frame.
        assert_eq!(PAGE_DATA, 8188);
        for (len, want) in [
            (64, 0x06d2_8c3e),
            (65, 0x806c_df37),
            (79, 0xac0a_5faf),
            (80, 0x8b1d_d8c5),
            (8188, 0xf38a_f06e),
            (30_000, 0x3196_8f50u32),
        ] {
            let data = pattern(len);
            assert_eq!(crc32(&data), want, "dispatching entry, {len} bytes");
            assert_eq!(!crc32_table(!0, &data), want, "table code, {len} bytes");
        }
    }

    #[test]
    fn hasher_split_anywhere_matches_one_shot() {
        // Every split point of 300 bytes: the state crosses between the
        // table path (short pieces) and the kernel (long ones) mid-stream.
        note_if_portable();
        let data = pattern(300);
        let want = !crc32_table(!0, &data);
        for cut in 0..=data.len() {
            let mut h = Crc32Hasher::new();
            h.update(&data[..cut]);
            h.update(&data[cut..]);
            assert_eq!(h.finalize(), want, "split at {cut}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn kernel_equals_table(
            len in 0usize..=3 * PAGE_SIZE,
            init in any::<u32>(),
            salt in any::<u8>(),
        ) {
            note_if_portable();
            // Every start offset 0..16 into one backing buffer: the
            // kernel's loads are unaligned and must not care.
            let backing = salted_pattern(len + 16, salt);
            for offset in 0..16 {
                let data = &backing[offset..offset + len];
                prop_assert_eq!(
                    crc32_update(init, data),
                    crc32_table(init, data),
                    "len {}, offset {}, init {:#x}", len, offset, init
                );
            }
        }

        #[test]
        fn hasher_random_splits_of_a_page_match_one_shot(
            cuts in proptest::collection::vec(0usize..=PAGE_SIZE, 0..12),
            salt in any::<u8>(),
        ) {
            let page = salted_pattern(PAGE_SIZE, salt);
            let mut cuts = cuts;
            cuts.push(PAGE_SIZE);
            cuts.sort_unstable();
            let mut h = Crc32Hasher::new();
            let mut from = 0;
            for cut in cuts {
                h.update(&page[from..cut]);
                from = cut;
            }
            prop_assert_eq!(h.finalize(), !crc32_table(!0, &page));
        }
    }

    #[test]
    fn hasher_matches_one_shot() {
        let data = b"direct mesh stores terrain in pages";
        let mut h = Crc32Hasher::new();
        h.update(&data[..10]);
        h.update(&data[10..]);
        assert_eq!(h.finalize(), crc32(data));
    }

    #[test]
    fn crc_of_zeros_is_nonzero() {
        // Load-bearing for the fresh-page exemption: a sealed page can
        // never be all-zero because its trailer would be this value.
        assert_ne!(crc32(&[0u8; PAGE_DATA]), 0);
    }

    #[test]
    fn seal_verify_roundtrip() {
        let mut p = zeroed_page();
        p[100] = 0xAB;
        seal_page(&mut p);
        verify_page(7, &p).unwrap();
    }

    #[test]
    fn fresh_zero_page_is_valid() {
        let p = zeroed_page();
        verify_page(0, &p).unwrap();
    }

    #[test]
    fn any_tampering_is_detected() {
        let mut p = zeroed_page();
        p[9] = 3;
        seal_page(&mut p);
        p[5000] ^= 0x10;
        let err = verify_page(4, &p).unwrap_err();
        assert!(
            matches!(err, StorageError::Corrupt { page: 4, .. }),
            "{err}"
        );
    }

    #[test]
    fn trailer_tampering_is_detected() {
        let mut p = zeroed_page();
        p[0] = 1;
        seal_page(&mut p);
        p[PAGE_SIZE - 1] ^= 0x80;
        assert!(verify_page(1, &p).is_err());
    }
}
