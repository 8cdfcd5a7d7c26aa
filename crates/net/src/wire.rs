//! Checked wire primitives: the same varint / zig-zag / XOR-delta
//! building blocks as the on-disk compact codec (`dm_storage::pack`),
//! but with **fallible** decoders.
//!
//! The disk codec may panic on malformed bytes — pages are
//! checksum-verified before decoding, so corruption there is a bug.
//! Network input is attacker-adjacent: a frame that passed its CRC can
//! still carry any byte sequence a buggy or hostile peer produced, so
//! every read here returns a typed [`WireError`] instead of panicking.
//!
//! Floating-point values travel as XOR deltas against the previous `f64`
//! the same stream wrote ([`Writer::f64`] / [`Reader::f64`] keep a
//! running reference), which strips shared sign/exponent/mantissa bytes
//! exactly like the heap records' Gorilla-style scheme. All transforms
//! are bit-pattern bijections: NaN payloads, infinities and subnormals
//! round-trip exactly.

use std::fmt;

use dm_storage::pack;

/// Everything that can go wrong on the wire.
#[derive(Debug)]
pub enum WireError {
    /// Transport-level failure (connect, read, write, timeout).
    Io(std::io::Error),
    /// Frame did not start with the protocol magic.
    BadMagic(u32),
    /// Frame carried an unsupported protocol version.
    BadVersion(u16),
    /// Frame checksum mismatch — bytes were corrupted in flight.
    BadCrc { stored: u32, computed: u32 },
    /// Declared payload length exceeds the frame cap.
    FrameTooLarge { len: u32, max: u32 },
    /// Frame kind byte is not a known request/response tag.
    UnknownKind(u8),
    /// Payload ended before a field was complete.
    Truncated(&'static str),
    /// Payload decoded but a field held an impossible value.
    Malformed(String),
    /// The server answered with a typed error response.
    Remote { code: u8, message: String },
    /// The server refused the request under load; retry after the hint.
    Overloaded { retry_after_ms: u64 },
    /// The peer answered with a response kind the request cannot have.
    Protocol(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "i/o: {e}"),
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:#010x}"),
            WireError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            WireError::BadCrc { stored, computed } => {
                write!(
                    f,
                    "frame checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
                )
            }
            WireError::FrameTooLarge { len, max } => {
                write!(f, "frame length {len} exceeds cap {max}")
            }
            WireError::UnknownKind(k) => write!(f, "unknown frame kind {k:#04x}"),
            WireError::Truncated(what) => write!(f, "truncated payload: {what}"),
            WireError::Malformed(what) => write!(f, "malformed payload: {what}"),
            WireError::Remote { code, message } => write!(f, "server error {code}: {message}"),
            WireError::Overloaded { retry_after_ms } => {
                write!(f, "server overloaded (retry after {retry_after_ms} ms)")
            }
            WireError::Protocol(what) => write!(f, "protocol violation: {what}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

pub type WireResult<T> = Result<T, WireError>;

/// Payload serializer. Reuses the disk codec's encoders directly — the
/// encode side never sees untrusted input.
#[derive(Default)]
pub struct Writer {
    out: Vec<u8>,
    last_f64: u64,
}

impl Writer {
    pub fn new() -> Writer {
        Writer::default()
    }

    pub fn into_inner(self) -> Vec<u8> {
        self.out
    }

    /// Clear the buffer and the XOR-delta reference while keeping the
    /// allocation, so hot encode paths can reuse one writer per frame.
    pub fn reset(&mut self) {
        self.out.clear();
        self.last_f64 = 0;
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.out.len()
    }

    pub fn is_empty(&self) -> bool {
        self.out.is_empty()
    }

    pub fn u8(&mut self, v: u8) {
        self.out.push(v);
    }

    pub fn bool(&mut self, v: bool) {
        self.out.push(u8::from(v));
    }

    pub fn varint(&mut self, v: u64) {
        pack::put_varint(&mut self.out, v);
    }

    pub fn zigzag(&mut self, v: i64) {
        pack::put_varint(&mut self.out, pack::zigzag(v));
    }

    /// XOR-delta against the previous `f64` this writer emitted.
    pub fn f64(&mut self, v: f64) {
        let bits = v.to_bits();
        pack::put_fdelta(&mut self.out, bits ^ self.last_f64);
        self.last_f64 = bits;
    }

    pub fn string(&mut self, s: &str) {
        self.varint(s.len() as u64);
        self.out.extend_from_slice(s.as_bytes());
    }
}

/// Fallible payload parser over a borrowed frame payload.
pub struct Reader<'a> {
    b: &'a [u8],
    off: usize,
    last_f64: u64,
}

impl<'a> Reader<'a> {
    pub fn new(b: &'a [u8]) -> Reader<'a> {
        Reader {
            b,
            off: 0,
            last_f64: 0,
        }
    }

    pub fn u8(&mut self) -> WireResult<u8> {
        let v = *self
            .b
            .get(self.off)
            .ok_or(WireError::Truncated("u8 field"))?;
        self.off += 1;
        Ok(v)
    }

    pub fn bool(&mut self) -> WireResult<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(WireError::Malformed(format!("bool byte {other}"))),
        }
    }

    pub fn varint(&mut self) -> WireResult<u64> {
        // Fast paths: one- and two-byte values dominate real streams
        // (ids are delta-coded, face indices are small).
        if let Some(&b) = self.b.get(self.off) {
            if b < 0x80 {
                self.off += 1;
                return Ok(u64::from(b));
            }
            if let Some(&b2) = self.b.get(self.off + 1) {
                if b2 < 0x80 {
                    self.off += 2;
                    return Ok(u64::from(b & 0x7F) | (u64::from(b2) << 7));
                }
            }
        }
        self.varint_slow()
    }

    fn varint_slow(&mut self) -> WireResult<u64> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = *self.b.get(self.off).ok_or(WireError::Truncated("varint"))?;
            self.off += 1;
            if shift >= 64 || (shift == 63 && byte > 1) {
                return Err(WireError::Malformed("varint overflows u64".to_string()));
            }
            v |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    pub fn zigzag(&mut self) -> WireResult<i64> {
        Ok(pack::unzigzag(self.varint()?))
    }

    /// A value in `0..=u32::MAX` encoded as a varint.
    pub fn varint_u32(&mut self, what: &'static str) -> WireResult<u32> {
        let v = self.varint()?;
        u32::try_from(v).map_err(|_| WireError::Malformed(format!("{what} {v} exceeds u32")))
    }

    /// XOR-delta against the previous `f64` this reader produced.
    pub fn f64(&mut self) -> WireResult<f64> {
        let hdr = *self
            .b
            .get(self.off)
            .ok_or(WireError::Truncated("f64 delta header"))?;
        self.off += 1;
        let lead = (hdr >> 4) as usize;
        let trail = (hdr & 0x0F) as usize;
        if lead + trail > 8 {
            return Err(WireError::Malformed(format!("f64 delta header {hdr:#04x}")));
        }
        let mid = 8 - lead - trail;
        let mut delta = 0u64;
        if mid > 0 {
            if let Some(window) = self.b.get(self.off..self.off + 8) {
                // Fast path: enough slack for one unaligned 8-byte load;
                // mask down to the `mid` bytes that belong to this delta.
                let raw = u64::from_le_bytes(window.try_into().unwrap());
                let mask = if mid == 8 {
                    u64::MAX
                } else {
                    (1u64 << (8 * mid)) - 1
                };
                delta = (raw & mask) << (8 * trail);
                self.off += mid;
            } else {
                let end = self
                    .off
                    .checked_add(mid)
                    .filter(|&e| e <= self.b.len())
                    .ok_or(WireError::Truncated("f64 delta bytes"))?;
                let mut bytes = [0u8; 8];
                bytes[..mid].copy_from_slice(&self.b[self.off..end]);
                self.off = end;
                delta = u64::from_le_bytes(bytes) << (8 * trail);
            }
        }
        let bits = delta ^ self.last_f64;
        self.last_f64 = bits;
        Ok(f64::from_bits(bits))
    }

    pub fn string(&mut self) -> WireResult<String> {
        let len = self.varint()? as usize;
        // A length prefix can claim more than the payload holds; bound it
        // before allocating.
        let end = self
            .off
            .checked_add(len)
            .filter(|&e| e <= self.b.len())
            .ok_or(WireError::Truncated("string bytes"))?;
        let s = std::str::from_utf8(&self.b[self.off..end])
            .map_err(|e| WireError::Malformed(format!("string not utf-8: {e}")))?
            .to_string();
        self.off = end;
        Ok(s)
    }

    /// How many bytes remain unread.
    pub fn remaining(&self) -> usize {
        self.b.len() - self.off
    }

    /// Require the payload to be fully consumed — trailing garbage means
    /// the peer and we disagree about the schema.
    pub fn finish(self) -> WireResult<()> {
        if self.off == self.b.len() {
            Ok(())
        } else {
            Err(WireError::Malformed(format!(
                "{} trailing bytes after payload",
                self.b.len() - self.off
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip() {
        let mut w = Writer::new();
        w.u8(7);
        w.bool(true);
        w.varint(u64::MAX);
        w.zigzag(-123456789);
        w.f64(std::f64::consts::PI);
        w.f64(std::f64::consts::PI + 1e-9);
        w.f64(f64::NAN);
        w.f64(f64::NEG_INFINITY);
        w.string("direct mesh");
        let bytes = w.into_inner();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert!(r.bool().unwrap());
        assert_eq!(r.varint().unwrap(), u64::MAX);
        assert_eq!(r.zigzag().unwrap(), -123456789);
        assert_eq!(r.f64().unwrap(), std::f64::consts::PI);
        assert_eq!(r.f64().unwrap(), std::f64::consts::PI + 1e-9);
        assert!(r.f64().unwrap().is_nan());
        assert_eq!(r.f64().unwrap(), f64::NEG_INFINITY);
        assert_eq!(r.string().unwrap(), "direct mesh");
        r.finish().unwrap();
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut w = Writer::new();
        w.varint(1 << 40);
        w.f64(2.5);
        w.string("hello");
        let bytes = w.into_inner();
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            let outcome = r
                .varint()
                .and_then(|_| r.f64())
                .and_then(|_| r.string())
                .map(|_| ());
            assert!(outcome.is_err(), "prefix of {cut} bytes must not decode");
        }
    }

    #[test]
    fn oversized_string_length_is_rejected() {
        let mut w = Writer::new();
        w.varint(u64::MAX - 3); // absurd length prefix
        let bytes = w.into_inner();
        let mut r = Reader::new(&bytes);
        assert!(matches!(r.string(), Err(WireError::Truncated(_))));
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut w = Writer::new();
        w.u8(1);
        let mut bytes = w.into_inner();
        bytes.push(0xFF);
        let mut r = Reader::new(&bytes);
        r.u8().unwrap();
        assert!(r.finish().is_err());
    }

    #[test]
    fn bad_bool_is_rejected() {
        let mut r = Reader::new(&[2]);
        assert!(matches!(r.bool(), Err(WireError::Malformed(_))));
    }
}
