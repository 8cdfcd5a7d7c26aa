//! Binary serialization of a finished PM construction.
//!
//! QEM simplification of a multi-million-point terrain takes minutes;
//! persisting the [`PmBuild`] lets databases and benchmarks reload it in
//! seconds. Little-endian `DMPM` format. Version 2 (flat,
//! [`save_pm_flat`]):
//!
//! ```text
//! "DMPM" u32(version) u32(n_leaves) u32(n_nodes)
//! n_nodes × node  (pos 24B, e_lo 8B, e_hi 8B, parent/children/wings 20B)
//! u32(n_roots)    n_roots × u32
//! u32(n_tris)     n_tris × 3×u32          (root mesh)
//! u64(n_edges)    n_edges × 2×u32         (adjacency episodes)
//! u32(n_raw)      n_raw × f64             (raw collapse costs)
//! u32(crc32 of everything above)          (version ≥ 2)
//! ```
//!
//! Version 3 ([`save_pm`], the default) keeps the header, roots and root
//! mesh byte-identical but replaces the three bulk sections with
//! length-prefixed compact blocks built on [`dm_storage::pack`]: node
//! `f64`s are XOR-deltas against the previous node (`e_hi` against the
//! node's own `e_lo`), links are zig-zag varint deltas against the node's
//! own id (`0` = NIL), edge pairs and raw costs are delta chains. The
//! same losslessness argument as the v3 heap codec applies — every
//! transform is a bijection on bit patterns (see `DESIGN.md` §9).
//!
//! Node ids are implicit (storage order); roots/edges reference them.
//! Version 1 files (no CRC trailer) are still readable.

use std::io::{self, BufReader, BufWriter, Read, Write};

use dm_geom::Vec3;
use dm_storage::{pack, Crc32Hasher};

use crate::builder::PmBuild;
use crate::hierarchy::{PmHierarchy, PmNode, NIL_ID};

const MAGIC: &[u8; 4] = b"DMPM";
const VERSION_FLAT: u32 = 2;
const VERSION_COMPACT: u32 = 3;

/// `Write` adapter that folds every byte into a CRC32.
struct CrcWriter<W: Write> {
    inner: W,
    hasher: Crc32Hasher,
}

impl<W: Write> Write for CrcWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.hasher.update(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// `Read` adapter that folds every byte into a CRC32.
struct CrcReader<R: Read> {
    inner: R,
    hasher: Crc32Hasher,
}

impl<R: Read> Read for CrcReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.hasher.update(&buf[..n]);
        Ok(n)
    }
}

/// Serialize a PM construction (compact, version 3).
pub fn save_pm(build: &PmBuild, writer: impl Write) -> io::Result<()> {
    let mut out = CrcWriter {
        inner: BufWriter::new(writer),
        hasher: Crc32Hasher::new(),
    };
    let h = &build.hierarchy;
    out.write_all(MAGIC)?;
    out.write_all(&VERSION_COMPACT.to_le_bytes())?;
    out.write_all(&(h.n_leaves as u32).to_le_bytes())?;
    out.write_all(&(h.len() as u32).to_le_bytes())?;

    // Nodes: each f64 XOR-deltas against the previous node (QEM
    // construction emits spatially and error-wise adjacent nodes in
    // sequence), links against the node's own id.
    let mut sec = Vec::with_capacity(24 * h.len());
    let (mut px, mut py, mut pz, mut pe) = (0u64, 0u64, 0u64, 0u64);
    for n in &h.nodes {
        pack::put_fdelta(&mut sec, n.pos.x.to_bits() ^ px);
        pack::put_fdelta(&mut sec, n.pos.y.to_bits() ^ py);
        pack::put_fdelta(&mut sec, n.pos.z.to_bits() ^ pz);
        let e_lo = n.e_lo.to_bits();
        pack::put_fdelta(&mut sec, e_lo ^ pe);
        pack::put_fdelta(&mut sec, n.e_hi.to_bits() ^ e_lo);
        for link in [n.parent, n.child1, n.child2, n.wing1, n.wing2] {
            let v = if link == NIL_ID {
                0
            } else {
                pack::zigzag(i64::from(link) - i64::from(n.id)) + 1
            };
            pack::put_varint(&mut sec, v);
        }
        (px, py, pz, pe) = (
            n.pos.x.to_bits(),
            n.pos.y.to_bits(),
            n.pos.z.to_bits(),
            e_lo,
        );
    }
    write_section(&mut out, &sec)?;

    out.write_all(&(h.roots.len() as u32).to_le_bytes())?;
    for r in &h.roots {
        out.write_all(&r.to_le_bytes())?;
    }
    out.write_all(&(h.root_mesh.len() as u32).to_le_bytes())?;
    for t in &h.root_mesh {
        for v in t {
            out.write_all(&v.to_le_bytes())?;
        }
    }

    // Edges: a delta chain — `a` against the previous edge's `a`
    // (episodes are appended in collapse order), `b` against `a`.
    sec.clear();
    pack::put_varint(&mut sec, build.edges.len() as u64);
    let mut pa = 0i64;
    for &(a, b) in &build.edges {
        pack::put_varint(&mut sec, pack::zigzag(i64::from(a) - pa));
        pack::put_varint(&mut sec, pack::zigzag(i64::from(b) - i64::from(a)));
        pa = i64::from(a);
    }
    write_section(&mut out, &sec)?;

    // Raw collapse costs: monotone-ish sequence, XOR-delta chain.
    sec.clear();
    pack::put_varint(&mut sec, build.raw_costs.len() as u64);
    let mut pc = 0u64;
    for c in &build.raw_costs {
        let bits = c.to_bits();
        pack::put_fdelta(&mut sec, bits ^ pc);
        pc = bits;
    }
    write_section(&mut out, &sec)?;

    // Trailer: CRC of everything written so far, itself unhashed.
    let crc = out.hasher.finalize();
    out.inner.write_all(&crc.to_le_bytes())?;
    out.inner.flush()
}

/// Serialize in the flat version-2 layout older binaries read.
pub fn save_pm_flat(build: &PmBuild, writer: impl Write) -> io::Result<()> {
    let mut out = CrcWriter {
        inner: BufWriter::new(writer),
        hasher: Crc32Hasher::new(),
    };
    let h = &build.hierarchy;
    out.write_all(MAGIC)?;
    out.write_all(&VERSION_FLAT.to_le_bytes())?;
    out.write_all(&(h.n_leaves as u32).to_le_bytes())?;
    out.write_all(&(h.len() as u32).to_le_bytes())?;
    for n in &h.nodes {
        out.write_all(&n.pos.x.to_le_bytes())?;
        out.write_all(&n.pos.y.to_le_bytes())?;
        out.write_all(&n.pos.z.to_le_bytes())?;
        out.write_all(&n.e_lo.to_le_bytes())?;
        out.write_all(&n.e_hi.to_le_bytes())?;
        for v in [n.parent, n.child1, n.child2, n.wing1, n.wing2] {
            out.write_all(&v.to_le_bytes())?;
        }
    }
    out.write_all(&(h.roots.len() as u32).to_le_bytes())?;
    for r in &h.roots {
        out.write_all(&r.to_le_bytes())?;
    }
    out.write_all(&(h.root_mesh.len() as u32).to_le_bytes())?;
    for t in &h.root_mesh {
        for v in t {
            out.write_all(&v.to_le_bytes())?;
        }
    }
    out.write_all(&(build.edges.len() as u64).to_le_bytes())?;
    for &(a, b) in &build.edges {
        out.write_all(&a.to_le_bytes())?;
        out.write_all(&b.to_le_bytes())?;
    }
    out.write_all(&(build.raw_costs.len() as u32).to_le_bytes())?;
    for c in &build.raw_costs {
        out.write_all(&c.to_le_bytes())?;
    }
    // Trailer: CRC of everything written so far, itself unhashed.
    let crc = out.hasher.finalize();
    out.inner.write_all(&crc.to_le_bytes())?;
    out.inner.flush()
}

/// Write a compact section: `u64` byte length, then the bytes.
fn write_section(out: &mut impl Write, sec: &[u8]) -> io::Result<()> {
    out.write_all(&(sec.len() as u64).to_le_bytes())?;
    out.write_all(sec)
}

/// Read a compact section written by [`write_section`].
fn read_section(inp: &mut impl Read) -> io::Result<Vec<u8>> {
    let len = read_u64(inp)? as usize;
    if len > (1 << 34) {
        return Err(bad(&format!("implausible DMPM section of {len} bytes")));
    }
    let mut sec = vec![0u8; len];
    inp.read_exact(&mut sec)?;
    Ok(sec)
}

/// Fallible cursor over a compact section: the decoding twins of
/// [`dm_storage::pack`] that return `io::Error` instead of panicking,
/// because sections are decoded *before* the file's CRC trailer has been
/// verified.
struct Sec<'a> {
    b: &'a [u8],
    off: usize,
}

impl Sec<'_> {
    fn varint(&mut self) -> io::Result<u64> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = *self
                .b
                .get(self.off)
                .ok_or_else(|| bad("truncated DMPM varint"))?;
            self.off += 1;
            if shift >= 64 || (shift == 63 && byte > 1) {
                return Err(bad("DMPM varint overflows u64"));
            }
            v |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    fn fdelta(&mut self) -> io::Result<u64> {
        let hdr = *self
            .b
            .get(self.off)
            .ok_or_else(|| bad("truncated DMPM f64 delta"))?;
        self.off += 1;
        let lead = (hdr >> 4) as usize;
        let trail = (hdr & 0x0F) as usize;
        if lead + trail > 8 {
            return Err(bad("malformed DMPM f64 delta header"));
        }
        let mid = 8 - lead - trail;
        if mid == 0 {
            return Ok(0);
        }
        let end = self.off + mid;
        if end > self.b.len() {
            return Err(bad("truncated DMPM f64 delta"));
        }
        let mut bytes = [0u8; 8];
        bytes[..mid].copy_from_slice(&self.b[self.off..end]);
        self.off = end;
        Ok(u64::from_le_bytes(bytes) << (8 * trail))
    }

    fn link(&mut self, id: u32) -> io::Result<u32> {
        let v = self.varint()?;
        if v == 0 {
            return Ok(NIL_ID);
        }
        let link = i64::from(id) + pack::unzigzag(v - 1);
        u32::try_from(link).map_err(|_| bad("DMPM link delta out of range"))
    }

    fn id_delta(&mut self, anchor: i64) -> io::Result<u32> {
        let v = pack::unzigzag(self.varint()?) + anchor;
        u32::try_from(v).map_err(|_| bad("DMPM id delta out of range"))
    }

    fn done(&self) -> io::Result<()> {
        if self.off == self.b.len() {
            Ok(())
        } else {
            Err(bad("trailing bytes in DMPM section"))
        }
    }
}

/// Deserialize a PM construction; footprints and ancestor labels are
/// rebuilt on load.
pub fn load_pm(reader: impl Read) -> io::Result<PmBuild> {
    let mut inp = CrcReader {
        inner: BufReader::new(reader),
        hasher: Crc32Hasher::new(),
    };
    let mut magic = [0u8; 4];
    inp.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(bad("not a DMPM file (bad magic)"));
    }
    let version = read_u32(&mut inp)?;
    if version == 0 || version > VERSION_COMPACT {
        return Err(bad(&format!(
            "unsupported DMPM version {version} (this build reads 1..={VERSION_COMPACT})"
        )));
    }
    let compact = version >= VERSION_COMPACT;
    let n_leaves = read_u32(&mut inp)? as usize;
    let n_nodes = read_u32(&mut inp)? as usize;
    if n_leaves > n_nodes || n_nodes > (1 << 31) {
        return Err(bad(&format!(
            "implausible node counts {n_leaves}/{n_nodes}"
        )));
    }
    let mut nodes = Vec::with_capacity(n_nodes);
    if compact {
        let sec = read_section(&mut inp)?;
        let mut cur = Sec { b: &sec, off: 0 };
        let (mut px, mut py, mut pz, mut pe) = (0u64, 0u64, 0u64, 0u64);
        for id in 0..n_nodes as u32 {
            let x = cur.fdelta()? ^ px;
            let y = cur.fdelta()? ^ py;
            let z = cur.fdelta()? ^ pz;
            let e_lo = cur.fdelta()? ^ pe;
            let e_hi = cur.fdelta()? ^ e_lo;
            let parent = cur.link(id)?;
            let child1 = cur.link(id)?;
            let child2 = cur.link(id)?;
            let wing1 = cur.link(id)?;
            let wing2 = cur.link(id)?;
            nodes.push(PmNode {
                id,
                pos: Vec3::new(f64::from_bits(x), f64::from_bits(y), f64::from_bits(z)),
                e_lo: f64::from_bits(e_lo),
                e_hi: f64::from_bits(e_hi),
                parent,
                child1,
                child2,
                wing1,
                wing2,
            });
            (px, py, pz, pe) = (x, y, z, e_lo);
        }
        cur.done()?;
    } else {
        for id in 0..n_nodes as u32 {
            let pos = Vec3::new(
                read_f64(&mut inp)?,
                read_f64(&mut inp)?,
                read_f64(&mut inp)?,
            );
            let e_lo = read_f64(&mut inp)?;
            let e_hi = read_f64(&mut inp)?;
            let parent = read_u32(&mut inp)?;
            let child1 = read_u32(&mut inp)?;
            let child2 = read_u32(&mut inp)?;
            let wing1 = read_u32(&mut inp)?;
            let wing2 = read_u32(&mut inp)?;
            nodes.push(PmNode {
                id,
                pos,
                e_lo,
                e_hi,
                parent,
                child1,
                child2,
                wing1,
                wing2,
            });
        }
    }
    let n_roots = read_u32(&mut inp)? as usize;
    let mut roots = Vec::with_capacity(n_roots);
    for _ in 0..n_roots {
        roots.push(read_u32(&mut inp)?);
    }
    let n_tris = read_u32(&mut inp)? as usize;
    let mut root_mesh = Vec::with_capacity(n_tris);
    for _ in 0..n_tris {
        root_mesh.push([
            read_u32(&mut inp)?,
            read_u32(&mut inp)?,
            read_u32(&mut inp)?,
        ]);
    }
    let mut edges;
    let mut raw_costs;
    if compact {
        let sec = read_section(&mut inp)?;
        let mut cur = Sec { b: &sec, off: 0 };
        let n_edges = cur.varint()? as usize;
        edges = Vec::with_capacity(n_edges.min(1 << 28));
        let mut pa = 0i64;
        for _ in 0..n_edges {
            let a = cur.id_delta(pa)?;
            let b = cur.id_delta(i64::from(a))?;
            edges.push((a, b));
            pa = i64::from(a);
        }
        cur.done()?;
        let sec = read_section(&mut inp)?;
        let mut cur = Sec { b: &sec, off: 0 };
        let n_raw = cur.varint()? as usize;
        raw_costs = Vec::with_capacity(n_raw.min(1 << 28));
        let mut pc = 0u64;
        for _ in 0..n_raw {
            let bits = cur.fdelta()? ^ pc;
            raw_costs.push(f64::from_bits(bits));
            pc = bits;
        }
        cur.done()?;
    } else {
        let n_edges = read_u64(&mut inp)? as usize;
        edges = Vec::with_capacity(n_edges.min(1 << 28));
        for _ in 0..n_edges {
            edges.push((read_u32(&mut inp)?, read_u32(&mut inp)?));
        }
        let n_raw = read_u32(&mut inp)? as usize;
        raw_costs = Vec::with_capacity(n_raw.min(1 << 28));
        for _ in 0..n_raw {
            raw_costs.push(read_f64(&mut inp)?);
        }
    }

    if version >= 2 {
        // The trailer itself is read from the underlying stream so it
        // does not perturb the running hash.
        let computed = inp.hasher.finalize();
        let mut trailer = [0u8; 4];
        inp.inner.read_exact(&mut trailer)?;
        let stored = u32::from_le_bytes(trailer);
        if stored != computed {
            return Err(bad(&format!(
                "DMPM checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
            )));
        }
    }

    // Sanity: every referenced id is in range.
    let in_range = |v: u32| v == crate::hierarchy::NIL_ID || (v as usize) < n_nodes;
    for n in &nodes {
        if ![n.parent, n.child1, n.child2, n.wing1, n.wing2]
            .iter()
            .all(|&v| in_range(v))
        {
            return Err(bad(&format!("node {} references out-of-range ids", n.id)));
        }
    }
    if !roots.iter().all(|&r| (r as usize) < n_nodes) {
        return Err(bad("root id out of range"));
    }

    let hierarchy = PmHierarchy::assemble(nodes, roots, root_mesh, n_leaves);
    Ok(PmBuild {
        hierarchy,
        edges,
        raw_costs,
        stats: Default::default(),
    })
}

fn read_u32(r: &mut impl Read) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn read_f64(r: &mut impl Read) -> io::Result<f64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(f64::from_le_bytes(b))
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{build_pm, PmBuildConfig};
    use dm_terrain::{generate, TriMesh};

    fn sample() -> PmBuild {
        let hf = generate::fractal_terrain(17, 17, 12);
        build_pm(TriMesh::from_heightfield(&hf), &PmBuildConfig::default())
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let b = sample();
        let mut buf = Vec::new();
        save_pm(&b, &mut buf).unwrap();
        let back = load_pm(&buf[..]).unwrap();
        assert_eq!(back.hierarchy.len(), b.hierarchy.len());
        assert_eq!(back.hierarchy.n_leaves, b.hierarchy.n_leaves);
        assert_eq!(back.hierarchy.roots, b.hierarchy.roots);
        assert_eq!(back.hierarchy.root_mesh, b.hierarchy.root_mesh);
        assert_eq!(back.edges, b.edges);
        assert_eq!(back.raw_costs, b.raw_costs);
        for (x, y) in back.hierarchy.nodes.iter().zip(&b.hierarchy.nodes) {
            assert_eq!(x, y);
        }
        back.hierarchy.validate().expect("reloaded hierarchy valid");
        // Derived structures (footprints, ancestor labels) rebuilt.
        assert_eq!(back.hierarchy.e_max, b.hierarchy.e_max);
        assert_eq!(back.hierarchy.bounds, b.hierarchy.bounds);
    }

    #[test]
    fn reloaded_hierarchy_answers_cuts_identically() {
        let b = sample();
        let mut buf = Vec::new();
        save_pm(&b, &mut buf).unwrap();
        let back = load_pm(&buf[..]).unwrap();
        for frac in [0.05, 0.3, 0.9] {
            let e = b.hierarchy.e_max * frac;
            assert_eq!(back.hierarchy.uniform_cut(e), b.hierarchy.uniform_cut(e));
        }
    }

    #[test]
    fn rejects_corruption() {
        let b = sample();
        let mut buf = Vec::new();
        save_pm(&b, &mut buf).unwrap();
        assert!(load_pm(&b"XXXX rest"[..]).is_err(), "bad magic");
        let mut truncated = buf.clone();
        truncated.truncate(buf.len() / 2);
        assert!(load_pm(&truncated[..]).is_err(), "truncation");
        let mut version = buf.clone();
        version[4] = 99;
        assert!(load_pm(&version[..]).is_err(), "future version");
    }

    #[test]
    fn checksum_catches_mid_file_bit_flip() {
        let b = sample();
        let mut buf = Vec::new();
        save_pm(&b, &mut buf).unwrap();
        // A flip deep in the node payload keeps all counts plausible, so
        // only the trailer CRC can catch it.
        let mid = buf.len() / 2;
        buf[mid] ^= 0x04;
        let err = match load_pm(&buf[..]) {
            Err(e) => e,
            Ok(_) => panic!("bit flip went undetected"),
        };
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn version_1_files_without_trailer_still_load() {
        let b = sample();
        let mut buf = Vec::new();
        save_pm_flat(&b, &mut buf).unwrap();
        // A v1 file is a flat v2 file minus the version field's bump and
        // the CRC trailer.
        buf[4] = 1;
        buf.truncate(buf.len() - 4);
        let back = load_pm(&buf[..]).unwrap();
        assert_eq!(back.hierarchy.len(), b.hierarchy.len());
        assert_eq!(back.edges, b.edges);
    }

    #[test]
    fn flat_v2_files_roundtrip_and_match_compact() {
        let b = sample();
        let mut flat = Vec::new();
        save_pm_flat(&b, &mut flat).unwrap();
        assert_eq!(u32::from_le_bytes(flat[4..8].try_into().unwrap()), 2);
        let mut compact = Vec::new();
        save_pm(&b, &mut compact).unwrap();
        assert_eq!(u32::from_le_bytes(compact[4..8].try_into().unwrap()), 3);
        let from_flat = load_pm(&flat[..]).unwrap();
        let from_compact = load_pm(&compact[..]).unwrap();
        assert_eq!(from_flat.hierarchy.nodes, from_compact.hierarchy.nodes);
        assert_eq!(from_flat.edges, from_compact.edges);
        assert_eq!(from_flat.raw_costs, from_compact.raw_costs);
        assert!(
            (compact.len() as f64) < 0.6 * flat.len() as f64,
            "compact DMPM ({}) should save ≥40% over flat ({})",
            compact.len(),
            flat.len()
        );
    }

    #[test]
    fn compact_sections_reject_trailing_bytes() {
        let b = sample();
        let mut buf = Vec::new();
        save_pm(&b, &mut buf).unwrap();
        // Grow the node section's length prefix by one and splice in a
        // stray byte; the section cursor must notice even though the
        // file parses up to the CRC.
        let sec_len = u64::from_le_bytes(buf[16..24].try_into().unwrap());
        buf[16..24].copy_from_slice(&(sec_len + 1).to_le_bytes());
        buf.insert(24 + sec_len as usize, 0x80);
        assert!(load_pm(&buf[..]).is_err());
    }
}
