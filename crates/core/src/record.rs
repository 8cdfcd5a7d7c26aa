//! On-disk codecs for Direct Mesh records.
//!
//! A DM record is the paper's PM node layout
//! `(ID, x, y, z, e, parent, child1, child2, wing1, wing2)` extended with
//! the LOD interval upper bound and the variable-length list of
//! connection points with similar LOD.
//!
//! Two codecs exist (see `DESIGN.md` §9 for the byte layouts):
//!
//! * **Flat (v2)** — a 66-byte fixed header (five raw `f64`s, five
//!   absolute `u32` links) plus 4 bytes per connection id. Simple, but
//!   pages carry few records, and the paper's cost metric is disk
//!   accesses: every extra heap page is a counted fetch.
//! * **Compact (v3)** — lossless per-page delta compression. Slot 0 of
//!   every heap page is the page's *base record*; the records after it
//!   XOR their `f64` bit patterns against the base ([`dm_storage::pack`]
//!   strips the zero bytes), store their five tree links as zig-zag
//!   varint deltas against their own id (PM construction order keeps
//!   parents/children/wings nearby), and their connection list as a
//!   zig-zag delta chain. Hilbert/STR placement puts spatially adjacent
//!   records on the same page, so the deltas are small and several times
//!   more records fit per page — directly fewer heap pages per query.

use std::collections::hash_map::Entry;

use dm_geom::Vec3;
use dm_mtm::{PmNode, NIL_ID};
use dm_storage::pack;
use dm_storage::page::codec;
use dm_storage::{PageView, StorageResult};
use fxhash::FxHashMap;

/// A Direct Mesh record: the PM node plus its connection list.
#[derive(Clone, Debug, PartialEq)]
pub struct DmRecord {
    pub node: PmNode,
    /// Ids of connection points with similar LOD (intervals overlap and
    /// ever adjacent during construction).
    pub conn: Vec<u32>,
}

/// Which record codec a database stores its heap records in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecordCodec {
    /// The v2 fixed layout ([`DmRecord::encode`]): read and patched in
    /// place, never built.
    Flat,
    /// The v3 page-delta layout ([`encode_compact`]) every build writes.
    Compact,
}

impl RecordCodec {
    /// Stable on-disk tag (stored in the version-3 catalog).
    pub fn tag(self) -> u8 {
        match self {
            RecordCodec::Flat => 2,
            RecordCodec::Compact => 3,
        }
    }

    /// Inverse of [`Self::tag`].
    pub fn from_tag(tag: u8) -> Option<RecordCodec> {
        match tag {
            2 => Some(RecordCodec::Flat),
            3 => Some(RecordCodec::Compact),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            RecordCodec::Flat => "v2-flat",
            RecordCodec::Compact => "v3-compact",
        }
    }
}

/// Fixed part of the flat codec:
/// id(4) + pos(24) + e_lo(8) + e_hi(8) + 5 links(20) + n(2).
pub const FIXED_LEN: usize = 66;

impl DmRecord {
    /// Serialized length in bytes (flat codec).
    pub fn encoded_len(&self) -> usize {
        FIXED_LEN + 4 * self.conn.len()
    }

    /// Serialize to bytes (flat codec, little endian).
    pub fn encode(&self) -> Vec<u8> {
        let n = &self.node;
        let mut out = vec![0u8; self.encoded_len()];
        codec::put_u32(&mut out, 0, n.id);
        codec::put_f64(&mut out, 4, n.pos.x);
        codec::put_f64(&mut out, 12, n.pos.y);
        codec::put_f64(&mut out, 20, n.pos.z);
        codec::put_f64(&mut out, 28, n.e_lo);
        codec::put_f64(&mut out, 36, n.e_hi);
        codec::put_u32(&mut out, 44, n.parent);
        codec::put_u32(&mut out, 48, n.child1);
        codec::put_u32(&mut out, 52, n.child2);
        codec::put_u32(&mut out, 56, n.wing1);
        codec::put_u32(&mut out, 60, n.wing2);
        assert!(self.conn.len() <= u16::MAX as usize);
        codec::put_u16(&mut out, 64, self.conn.len() as u16);
        for (i, &c) in self.conn.iter().enumerate() {
            codec::put_u32(&mut out, FIXED_LEN + i * 4, c);
        }
        out
    }

    /// Deserialize from flat-codec bytes.
    pub fn decode(b: &[u8]) -> DmRecord {
        RawRecord::parse(b).to_owned()
    }
}

/// The page-local reference values a compact record deltas against: the
/// bit patterns of the base record (slot 0). `ZERO` is the implicit base
/// of base records themselves.
#[derive(Clone, Copy, Debug)]
pub struct BaseVals {
    pub id: u32,
    pub x: u64,
    pub y: u64,
    pub z: u64,
    pub e_lo: u64,
}

impl BaseVals {
    pub const ZERO: BaseVals = BaseVals {
        id: 0,
        x: 0,
        y: 0,
        z: 0,
        e_lo: 0,
    };
}

/// Encode a record with the compact (v3) codec against `base` — the
/// page's slot-0 record, or [`BaseVals::ZERO`] when `rec` itself opens a
/// page. Every transform is a bijection on bit patterns (XOR, zig-zag,
/// varint), so the encoding is lossless for all values including NaN
/// payloads, infinities and subnormals.
pub fn encode_compact(rec: &DmRecord, base: &BaseVals) -> Vec<u8> {
    let n = &rec.node;
    let mut out = Vec::with_capacity(40 + 2 * rec.conn.len());
    pack::put_varint(&mut out, pack::zigzag(i64::from(n.id) - i64::from(base.id)));
    pack::put_fdelta(&mut out, n.pos.x.to_bits() ^ base.x);
    pack::put_fdelta(&mut out, n.pos.y.to_bits() ^ base.y);
    let e_lo_bits = n.e_lo.to_bits();
    pack::put_fdelta(&mut out, e_lo_bits ^ base.e_lo);
    // The interval's upper bound sits just above its lower bound for
    // most records — delta against the record's own e_lo, not the base.
    pack::put_fdelta(&mut out, n.e_hi.to_bits() ^ e_lo_bits);
    pack::put_fdelta(&mut out, n.pos.z.to_bits() ^ base.z);
    for link in [n.parent, n.child1, n.child2, n.wing1, n.wing2] {
        // 0 = NIL (common: leaves have no children, roots no parent);
        // otherwise the zig-zag delta against the record's own id,
        // shifted by one.
        let v = if link == NIL_ID {
            0
        } else {
            pack::zigzag(i64::from(link) - i64::from(n.id)) + 1
        };
        pack::put_varint(&mut out, v);
    }
    assert!(rec.conn.len() <= u16::MAX as usize);
    pack::put_varint(&mut out, rec.conn.len() as u64);
    let mut prev = i64::from(n.id);
    for &c in &rec.conn {
        // Order-preserving delta chain (connection points are ever
        // adjacent, so ids sit near each other and near the record).
        pack::put_varint(&mut out, pack::zigzag(i64::from(c) - prev));
        prev = i64::from(c);
    }
    out
}

fn decode_id_delta(v: u64, anchor: i64, what: &str) -> u32 {
    let id = anchor + pack::unzigzag(v);
    assert!(
        (0..=i64::from(u32::MAX)).contains(&id),
        "corrupt DM record: {what} out of range"
    );
    id as u32
}

/// A zero-copy view of an encoded DM record, borrowing the page slice.
///
/// The hot fetch path filters many records per page by their vertical
/// segment; a `RawRecord` answers the filter fields (`id`, `pos_xy`,
/// `e_lo`, `e_hi`) straight from the parsed header — no allocation for
/// either codec — so the per-record `Vec`s of [`DmRecord::decode`]
/// happen only for records that actually match.
#[derive(Clone, Copy)]
pub struct RawRecord<'a> {
    bytes: &'a [u8],
    flat: bool,
    id: u32,
    x: f64,
    y: f64,
    z: f64,
    e_lo: f64,
    e_hi: f64,
    /// Compact codec: byte offset of the five link varints (the header
    /// fields before it are decoded eagerly above). Flat: unused.
    links_off: usize,
}

impl<'a> RawRecord<'a> {
    /// Parse a flat (v2) record. Validates the length framing and panics
    /// on a malformed record, exactly like [`DmRecord::decode`].
    pub fn parse(b: &'a [u8]) -> RawRecord<'a> {
        assert!(b.len() >= FIXED_LEN, "truncated DM record");
        let n_conn = codec::get_u16(b, 64) as usize;
        assert_eq!(b.len(), FIXED_LEN + 4 * n_conn, "corrupt DM record length");
        RawRecord {
            bytes: b,
            flat: true,
            id: codec::get_u32(b, 0),
            x: codec::get_f64(b, 4),
            y: codec::get_f64(b, 12),
            z: codec::get_f64(b, 20),
            e_lo: codec::get_f64(b, 28),
            e_hi: codec::get_f64(b, 36),
            links_off: 0,
        }
    }

    /// Parse a compact (v3) record against its page base. The header
    /// (id, position, interval) is decoded in place — bounds-checked,
    /// no allocation; links and the connection list stay lazy. Full
    /// length framing is verified when the record is materialized
    /// ([`Self::append_to`], [`Self::to_owned`]); pages themselves are
    /// already guarded by the buffer pool's CRC32 trailer.
    pub fn parse_compact(b: &'a [u8], base: &BaseVals) -> RawRecord<'a> {
        let mut off = 0;
        let id = decode_id_delta(pack::get_varint(b, &mut off), i64::from(base.id), "id");
        let x = f64::from_bits(pack::get_fdelta(b, &mut off) ^ base.x);
        let y = f64::from_bits(pack::get_fdelta(b, &mut off) ^ base.y);
        let e_lo_bits = pack::get_fdelta(b, &mut off) ^ base.e_lo;
        let e_hi = f64::from_bits(pack::get_fdelta(b, &mut off) ^ e_lo_bits);
        let z = f64::from_bits(pack::get_fdelta(b, &mut off) ^ base.z);
        RawRecord {
            bytes: b,
            flat: false,
            id,
            x,
            y,
            z,
            e_lo: f64::from_bits(e_lo_bits),
            e_hi,
            links_off: off,
        }
    }

    #[inline]
    pub fn id(&self) -> u32 {
        self.id
    }

    #[inline]
    pub fn pos_xy(&self) -> dm_geom::Vec2 {
        dm_geom::Vec2::new(self.x, self.y)
    }

    #[inline]
    pub fn e_lo(&self) -> f64 {
        self.e_lo
    }

    #[inline]
    pub fn e_hi(&self) -> f64 {
        self.e_hi
    }

    /// The record's indexed vertical segment with root caps applied —
    /// the exact box the range scan tests against query boxes (`e_cap`
    /// stands in for an infinite root `e_hi`). Kept here so the range
    /// scan and the whole-heap census cannot drift apart on the clamping
    /// rule.
    #[inline]
    pub fn clamped_segment(&self, e_cap: f64) -> dm_geom::Box3 {
        let hi = if self.e_hi.is_finite() {
            self.e_hi
        } else {
            e_cap
        };
        dm_geom::Box3::vertical_segment(self.pos_xy(), self.e_lo.min(hi), hi)
    }

    /// The reference values records delta against when this record is a
    /// page base (slot 0).
    pub fn base_vals(&self) -> BaseVals {
        BaseVals {
            id: self.id,
            x: self.x.to_bits(),
            y: self.y.to_bits(),
            z: self.z.to_bits(),
            e_lo: self.e_lo.to_bits(),
        }
    }

    /// Decode the five links, returning them plus the offset just past
    /// them (compact codec only).
    fn decode_links(&self) -> ([u32; 5], usize) {
        debug_assert!(!self.flat);
        let mut off = self.links_off;
        let mut links = [NIL_ID; 5];
        for l in &mut links {
            let v = pack::get_varint(self.bytes, &mut off);
            *l = if v == 0 {
                NIL_ID
            } else {
                decode_id_delta(v - 1, i64::from(self.id), "link")
            };
        }
        (links, off)
    }

    pub fn conn_len(&self) -> usize {
        if self.flat {
            codec::get_u16(self.bytes, 64) as usize
        } else {
            let (_, mut off) = self.decode_links();
            pack::get_varint(self.bytes, &mut off) as usize
        }
    }

    /// Decode the fixed part into a [`PmNode`] (no allocation).
    pub fn node(&self) -> PmNode {
        let links = if self.flat {
            [44, 48, 52, 56, 60].map(|off| codec::get_u32(self.bytes, off))
        } else {
            self.decode_links().0
        };
        self.node_with(links)
    }

    fn node_with(&self, [parent, child1, child2, wing1, wing2]: [u32; 5]) -> PmNode {
        PmNode {
            id: self.id,
            pos: Vec3::new(self.x, self.y, self.z),
            e_lo: self.e_lo,
            e_hi: self.e_hi,
            parent,
            child1,
            child2,
            wing1,
            wing2,
        }
    }

    /// The one full decode: the connection ids appended to `conn`, the
    /// node returned. For the compact codec this also verifies the
    /// length framing: trailing garbage or truncation panics as
    /// "corrupt DM record".
    fn decode_into(&self, conn: &mut Vec<u32>) -> PmNode {
        if self.flat {
            let b = self.bytes;
            let n_conn = codec::get_u16(b, 64) as usize;
            conn.extend((0..n_conn).map(|i| codec::get_u32(b, FIXED_LEN + i * 4)));
            return self.node();
        }
        let (links, mut off) = self.decode_links();
        let n_conn = pack::get_varint(self.bytes, &mut off) as usize;
        assert!(
            n_conn <= u16::MAX as usize,
            "corrupt DM record: implausible connection count"
        );
        conn.reserve(n_conn);
        let mut prev = i64::from(self.id);
        for _ in 0..n_conn {
            let c = decode_id_delta(pack::get_varint(self.bytes, &mut off), prev, "conn id");
            prev = i64::from(c);
            conn.push(c);
        }
        assert_eq!(off, self.bytes.len(), "corrupt DM record length");
        self.node_with(links)
    }

    /// Materialize into a [`FetchedSet`] arena: the connection list lands
    /// in the set's shared pool instead of a fresh allocation.
    pub fn append_to(&self, set: &mut FetchedSet) {
        let node = self.decode_into(&mut set.conn);
        set.nodes.push(node);
        set.conn_off.push(set.conn.len() as u32);
    }

    /// Materialize the full owned record (one allocation).
    pub fn to_owned(&self) -> DmRecord {
        let mut conn = Vec::new();
        let node = self.decode_into(&mut conn);
        DmRecord { node, conn }
    }
}

/// A fetched record set in arena form: nodes side by side with one
/// shared connection-id pool instead of one heap `Vec` per record. Every
/// range fetch materializes thousands of records per request, so the
/// flat layout trades per-record allocations for three `Vec`s total.
///
/// Record `i`'s connection list is `conn[conn_off[i] .. conn_off[i+1]]`
/// (`conn_off` always carries the trailing end offset, so it has
/// `len() + 1` entries).
#[cfg_attr(test, derive(Debug, PartialEq))]
pub struct FetchedSet {
    pub nodes: Vec<PmNode>,
    conn_off: Vec<u32>,
    conn: Vec<u32>,
}

impl Default for FetchedSet {
    fn default() -> FetchedSet {
        FetchedSet::new()
    }
}

impl FetchedSet {
    pub fn new() -> FetchedSet {
        FetchedSet {
            nodes: Vec::new(),
            conn_off: vec![0],
            conn: Vec::new(),
        }
    }

    /// Every record of one heap page, in slot order — the decoded form a
    /// resident page keeps on its buffer-pool frame. Nothing query-,
    /// `e_cap`- or catalog-dependent is stored: the root-interval clamp
    /// stays at filter time. Slot bounds and record framing are checked
    /// here, once, with the raw scan's own typed error and panic text.
    pub(crate) fn from_page(view: &PageView<'_>, codec: RecordCodec) -> StorageResult<FetchedSet> {
        let n = view.n_slots();
        let mut set = FetchedSet::new();
        set.nodes.reserve_exact(n as usize);
        set.conn_off.reserve_exact(n as usize);
        let mut dec = PageDecoder::new(codec);
        for slot in 0..n {
            dec.next(slot, view.record(slot)?).append_to(&mut set);
        }
        set.conn.shrink_to_fit();
        Ok(set)
    }

    /// Heap bytes the three arenas occupy.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<PmNode>()
            + (self.conn_off.capacity() + self.conn.capacity()) * std::mem::size_of::<u32>()
    }

    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Connection ids of record `i`.
    #[inline]
    pub fn conn_of(&self, i: usize) -> &[u32] {
        &self.conn[self.conn_off[i] as usize..self.conn_off[i + 1] as usize]
    }

    /// Record `i` as an owned [`DmRecord`] — for the edit path, which
    /// mutates the records it fetched; queries read the arena in place.
    pub fn record(&self, i: usize) -> DmRecord {
        DmRecord {
            node: self.nodes[i],
            conn: self.conn_of(i).to_vec(),
        }
    }

    /// Append a record built field-by-field: a record copied from
    /// another set, or one the world catalog remapped into world ids and
    /// coordinates on the way into the merged set.
    pub fn push(&mut self, node: PmNode, conn: impl IntoIterator<Item = u32>) {
        self.conn.extend(conn);
        self.nodes.push(node);
        self.conn_off.push(self.conn.len() as u32);
    }

    /// Drop every record from `keep` onwards — used to discard the
    /// half-read tail of a page whose scan failed mid-way.
    pub fn truncate(&mut self, keep: usize) {
        if keep >= self.nodes.len() {
            return;
        }
        self.nodes.truncate(keep);
        self.conn_off.truncate(keep + 1);
        self.conn.truncate(self.conn_off[keep] as usize);
    }
}

/// A [`FetchedSet`] holding each id once, with the id → slot view every
/// viewpoint-dependent consumer reads it through: a one-shot query's copy
/// of its one fetch, a navigation session's recycled per-frame copy. A
/// fetch may deliver an id more than once (overlapping strips, regions
/// sharing a seam); the first copy absorbed wins.
#[derive(Default)]
pub(crate) struct IndexedSet {
    set: FetchedSet,
    slot_of: FxHashMap<u32, u32>,
}

impl IndexedSet {
    /// Append every record of `src` whose id is not held yet.
    pub(crate) fn absorb(&mut self, src: &FetchedSet) {
        self.slot_of.reserve(src.len());
        for (i, n) in src.nodes.iter().enumerate() {
            if let Entry::Vacant(slot) = self.slot_of.entry(n.id) {
                slot.insert(self.set.len() as u32);
                self.set.push(*n, src.conn_of(i).iter().copied());
            }
        }
    }

    /// Drop every record, keeping the allocations.
    pub(crate) fn clear(&mut self) {
        self.set.truncate(0);
        self.slot_of.clear();
    }

    /// The records, one slot per id.
    pub(crate) fn set(&self) -> &FetchedSet {
        &self.set
    }

    pub(crate) fn node(&self, id: u32) -> Option<&PmNode> {
        self.slot_of.get(&id).map(|&s| &self.set.nodes[s as usize])
    }
}

/// Streaming decoder for the records of one heap page, in slot order.
///
/// Feed it every record of a page through [`Self::next`] (slot 0 first —
/// the order [`dm_storage::HeapFile::try_for_each_in_page`] delivers);
/// for the compact codec it captures slot 0 as the page base and decodes
/// the rest against it. Seeing slot 0 resets the base, so one decoder
/// can run across consecutive pages of a full-file scan.
pub struct PageDecoder {
    codec: RecordCodec,
    base: BaseVals,
}

impl PageDecoder {
    pub fn new(codec: RecordCodec) -> PageDecoder {
        PageDecoder {
            codec,
            base: BaseVals::ZERO,
        }
    }

    pub fn next<'a>(&mut self, slot: u16, bytes: &'a [u8]) -> RawRecord<'a> {
        match self.codec {
            RecordCodec::Flat => RawRecord::parse(bytes),
            RecordCodec::Compact => {
                if slot == 0 {
                    self.base = BaseVals::ZERO;
                }
                let raw = RawRecord::parse_compact(bytes, &self.base);
                if slot == 0 {
                    self.base = raw.base_vals();
                }
                raw
            }
        }
    }
}

/// A PM record without connection lists — what the PM baseline stores.
/// Same fixed layout, no list.
pub fn encode_pm_node(n: &PmNode) -> Vec<u8> {
    DmRecord {
        node: *n,
        conn: Vec::new(),
    }
    .encode()
}

/// Decode a bare PM node, header-only: any trailing connection list is
/// neither materialized nor touched (this sits on the PM-baseline scan
/// path, which decodes every record of every candidate page).
pub fn decode_pm_node(b: &[u8]) -> PmNode {
    RawRecord::parse(b).node()
}

/// Helper for tests: a record with every field distinct.
pub fn sample_record() -> DmRecord {
    DmRecord {
        node: PmNode {
            id: 7,
            pos: Vec3::new(1.5, -2.25, 300.125),
            e_lo: 0.5,
            e_hi: f64::INFINITY,
            parent: NIL_ID,
            child1: 3,
            child2: 4,
            wing1: 9,
            wing2: NIL_ID,
        },
        conn: vec![1, 2, 9, 4_000_000_000],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_with_conn_list() {
        let r = sample_record();
        let bytes = r.encode();
        assert_eq!(bytes.len(), FIXED_LEN + 16);
        let back = DmRecord::decode(&bytes);
        assert_eq!(back, r);
        assert!(
            back.node.e_hi.is_infinite(),
            "root interval survives encoding"
        );
    }

    #[test]
    fn roundtrip_empty_conn_list() {
        let mut r = sample_record();
        r.conn.clear();
        let back = DmRecord::decode(&r.encode());
        assert_eq!(back, r);
    }

    #[test]
    fn pm_node_roundtrip() {
        let n = sample_record().node;
        let back = decode_pm_node(&encode_pm_node(&n));
        assert_eq!(back.id, n.id);
        assert_eq!(back.pos, n.pos);
        assert_eq!(back.wing2, NIL_ID);
    }

    #[test]
    #[should_panic(expected = "corrupt DM record")]
    fn decode_rejects_bad_length() {
        let mut bytes = sample_record().encode();
        bytes.push(0);
        DmRecord::decode(&bytes);
    }

    #[test]
    fn raw_record_reads_fields_without_decoding() {
        let r = sample_record();
        let bytes = r.encode();
        let raw = RawRecord::parse(&bytes);
        assert_eq!(raw.id(), r.node.id);
        assert_eq!(raw.pos_xy(), r.node.pos.xy());
        assert_eq!(raw.e_lo(), r.node.e_lo);
        assert!(raw.e_hi().is_infinite());
        assert_eq!(raw.conn_len(), r.conn.len());
        assert_eq!(raw.node(), r.node);
        assert_eq!(raw.to_owned(), r);
    }

    #[test]
    fn default_fetched_set_keeps_the_offset_sentinel() {
        let mut set = FetchedSet::default();
        set.push(sample_record().node, sample_record().conn);
        assert_eq!(set.conn_of(0), sample_record().conn);
    }

    fn compact_roundtrip(r: &DmRecord, base: &BaseVals) -> DmRecord {
        RawRecord::parse_compact(&encode_compact(r, base), base).to_owned()
    }

    #[test]
    fn compact_roundtrip_against_zero_and_nearby_base() {
        let r = sample_record();
        assert_eq!(compact_roundtrip(&r, &BaseVals::ZERO), r);
        let mut other = r.clone();
        other.node.id = 11;
        other.node.pos = Vec3::new(1.75, -2.0, 301.0);
        other.node.e_lo = 0.75;
        other.node.e_hi = 0.9;
        let base = RawRecord::parse_compact(&encode_compact(&r, &BaseVals::ZERO), &BaseVals::ZERO)
            .base_vals();
        assert_eq!(compact_roundtrip(&other, &base), other);
    }

    #[test]
    fn compact_beats_flat_on_clustered_records() {
        // A page-realistic pair: neighbouring grid vertices with
        // overlapping intervals — the common case after STR placement.
        let a = DmRecord {
            node: PmNode {
                id: 500,
                pos: Vec3::new(17.0, 44.0, 102.375),
                e_lo: 0.125,
                e_hi: 0.5,
                parent: 612,
                child1: 230,
                child2: 231,
                wing1: 499,
                wing2: 502,
            },
            conn: vec![499, 502, 503],
        };
        let mut b = a.clone();
        b.node.id = 503;
        b.node.pos = Vec3::new(18.0, 44.0, 103.5);
        b.node.e_lo = 0.25;
        b.node.e_hi = 0.625;
        b.conn = vec![500, 502, 505];
        let base = RawRecord::parse_compact(&encode_compact(&a, &BaseVals::ZERO), &BaseVals::ZERO)
            .base_vals();
        let delta = encode_compact(&b, &base);
        assert_eq!(RawRecord::parse_compact(&delta, &base).to_owned(), b);
        assert!(
            delta.len() * 2 < b.encoded_len(),
            "delta record ({}) should be under half the flat size ({})",
            delta.len(),
            b.encoded_len()
        );
    }

    #[test]
    fn page_decoder_threads_the_base_across_slots_and_pages() {
        let mut a = sample_record();
        a.node.id = 40;
        let mut b = sample_record();
        b.node.id = 43;
        b.node.e_hi = 0.75;
        let enc_a = encode_compact(&a, &BaseVals::ZERO);
        let base = RawRecord::parse_compact(&enc_a, &BaseVals::ZERO).base_vals();
        let enc_b = encode_compact(&b, &base);
        let mut dec = PageDecoder::new(RecordCodec::Compact);
        assert_eq!(dec.next(0, &enc_a).to_owned(), a);
        assert_eq!(dec.next(1, &enc_b).to_owned(), b);
        // A new page's slot 0 resets the base.
        let enc_b0 = encode_compact(&b, &BaseVals::ZERO);
        assert_eq!(dec.next(0, &enc_b0).to_owned(), b);
    }

    #[test]
    #[should_panic(expected = "corrupt DM record length")]
    fn compact_rejects_trailing_garbage() {
        let mut bytes = encode_compact(&sample_record(), &BaseVals::ZERO);
        bytes.push(0);
        RawRecord::parse_compact(&bytes, &BaseVals::ZERO).to_owned();
    }

    #[test]
    #[should_panic(expected = "truncated")]
    fn compact_rejects_truncation() {
        let bytes = encode_compact(&sample_record(), &BaseVals::ZERO);
        RawRecord::parse_compact(&bytes[..bytes.len() - 3], &BaseVals::ZERO).to_owned();
    }
}
