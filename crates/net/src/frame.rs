//! Length-prefixed, checksummed frames.
//!
//! Every message travels as one frame:
//!
//! ```text
//! offset  size  field
//! 0       4     magic      "DMNT" (little-endian u32)
//! 4       2     version    protocol version (currently 1)
//! 6       1     kind       request/response tag (see proto.rs)
//! 7       1     flags      reserved, must be 0
//! 8       4     len        payload length in bytes
//! 12      len   payload    kind-specific body (wire.rs encoding)
//! 12+len  4     crc32      CRC-32 over header + payload
//! ```
//!
//! The trailing CRC reuses the storage layer's page-checksum polynomial
//! ([`dm_storage::Crc32Hasher`]), extending the repo's
//! corruption-detection discipline across the network boundary: a frame
//! whose stored and computed CRCs disagree is rejected before any
//! payload byte is interpreted.

use std::io::{ErrorKind, Read, Write};

use dm_storage::Crc32Hasher;

use crate::wire::{WireError, WireResult};

/// Frame magic: `b"DMNT"` read as a little-endian u32.
pub const MAGIC: u32 = u32::from_le_bytes(*b"DMNT");
/// Current protocol version.
pub const VERSION: u16 = 1;
/// Hard cap on payload size. Large terrain meshes fit comfortably; a
/// corrupt or hostile length prefix cannot make us allocate gigabytes.
pub const MAX_PAYLOAD: u32 = 64 << 20;
/// Fixed header size in bytes (magic + version + kind + flags + len).
pub const HEADER_LEN: usize = 12;

/// A decoded frame: its kind tag and raw payload bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    pub kind: u8,
    pub payload: Vec<u8>,
}

/// Outcome of one [`read_frame`] attempt on a stream with a read
/// timeout configured.
#[derive(Debug)]
pub enum FrameEvent {
    /// A complete, checksum-verified frame.
    Frame(Frame),
    /// The peer closed the connection cleanly between frames.
    Eof,
    /// The read timeout elapsed before the first byte of a new frame
    /// arrived. The connection is still healthy; the caller can poll
    /// shutdown flags and try again.
    Idle,
}

/// Serialize one frame (header + payload + CRC trailer) into a buffer.
pub fn encode_frame(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(HEADER_LEN + payload.len() + 4);
    buf.extend_from_slice(&MAGIC.to_le_bytes());
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.push(kind);
    buf.push(0); // flags
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(payload);
    let mut h = Crc32Hasher::new();
    h.update(&buf);
    buf.extend_from_slice(&h.finalize().to_le_bytes());
    buf
}

/// Write one frame to the stream and flush it.
pub fn write_frame<W: Write>(w: &mut W, kind: u8, payload: &[u8]) -> WireResult<()> {
    debug_assert!(payload.len() as u32 <= MAX_PAYLOAD);
    w.write_all(&encode_frame(kind, payload))?;
    w.flush()?;
    Ok(())
}

fn is_timeout(e: &std::io::Error) -> bool {
    // Unix reports a timed-out socket read as WouldBlock, Windows as
    // TimedOut; treat both as "no data yet".
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// Read exactly `buf.len()` bytes, retrying interrupted and timed-out
/// reads. Once a frame has started arriving we wait for the rest of it:
/// a timeout mid-frame only means the peer is slow, not absent, and
/// giving up there would desynchronize the stream.
fn read_exact_patient<R: Read>(r: &mut R, buf: &mut [u8]) -> WireResult<()> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(WireError::Io(std::io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                )))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted || is_timeout(&e) => continue,
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    Ok(())
}

/// Incremental frame decoder for non-blocking readers.
///
/// The event-loop server reads whatever bytes the socket has and feeds
/// them in with [`FrameAssembler::push`]; [`FrameAssembler::next_frame`]
/// yields complete, checksum-verified frames as soon as their last byte
/// arrives, regardless of how the stream was split across reads (1-byte
/// trickles, coalesced frames, partial trailing frame). Decoding is
/// byte-for-byte identical to [`read_frame`] on the concatenated stream.
///
/// Errors are sticky in spirit: a bad magic, version, length, or CRC
/// means the byte stream is desynchronized and the connection must be
/// dropped — there is no resynchronization heuristic on a TCP stream.
#[derive(Debug, Default)]
pub struct FrameAssembler {
    buf: Vec<u8>,
    pos: usize,
}

impl FrameAssembler {
    pub fn new() -> Self {
        Self::default()
    }

    /// Append bytes as they arrived from the socket.
    pub fn push(&mut self, bytes: &[u8]) {
        // Reclaim the consumed prefix before growing, so a long-lived
        // connection's buffer stays proportional to one frame.
        if self.pos > 0 && (self.pos == self.buf.len() || self.pos >= 64 * 1024) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed as frames.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True while the buffered bytes end inside a partially received
    /// frame (header or body): the peer owes us more bytes to finish it.
    pub fn mid_frame(&self) -> bool {
        self.buffered() > 0
    }

    /// Try to decode the next complete frame. `Ok(None)` means more
    /// bytes are needed; an error means the stream is corrupt and the
    /// connection should be closed.
    pub fn next_frame(&mut self) -> WireResult<Option<Frame>> {
        let avail = &self.buf[self.pos..];
        if avail.len() < HEADER_LEN {
            return Ok(None);
        }
        let magic = u32::from_le_bytes(avail[0..4].try_into().unwrap());
        if magic != MAGIC {
            return Err(WireError::BadMagic(magic));
        }
        let version = u16::from_le_bytes(avail[4..6].try_into().unwrap());
        if version != VERSION {
            return Err(WireError::BadVersion(version));
        }
        let kind = avail[6];
        let len = u32::from_le_bytes(avail[8..12].try_into().unwrap());
        if len > MAX_PAYLOAD {
            return Err(WireError::FrameTooLarge {
                len,
                max: MAX_PAYLOAD,
            });
        }
        let body_end = HEADER_LEN + len as usize;
        let total = body_end + 4;
        if avail.len() < total {
            return Ok(None);
        }
        let stored = u32::from_le_bytes(avail[body_end..total].try_into().unwrap());
        let mut h = Crc32Hasher::new();
        h.update(&avail[..body_end]);
        let computed = h.finalize();
        if stored != computed {
            return Err(WireError::BadCrc { stored, computed });
        }
        let payload = avail[HEADER_LEN..body_end].to_vec();
        self.pos += total;
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        }
        Ok(Some(Frame { kind, payload }))
    }
}

/// Read the next frame from the stream.
///
/// Distinguishes three idle-boundary cases by probing a single byte
/// first: a clean close before any byte yields [`FrameEvent::Eof`], a
/// read timeout before any byte yields [`FrameEvent::Idle`], and once
/// the first byte is in, the remainder is read patiently and verified.
pub fn read_frame<R: Read>(r: &mut R) -> WireResult<FrameEvent> {
    let mut header = [0u8; HEADER_LEN];
    loop {
        match r.read(&mut header[..1]) {
            Ok(0) => return Ok(FrameEvent::Eof),
            Ok(_) => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) if is_timeout(&e) => return Ok(FrameEvent::Idle),
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    read_exact_patient(r, &mut header[1..])?;

    let magic = u32::from_le_bytes(header[0..4].try_into().unwrap());
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    let version = u16::from_le_bytes(header[4..6].try_into().unwrap());
    if version != VERSION {
        return Err(WireError::BadVersion(version));
    }
    let kind = header[6];
    let len = u32::from_le_bytes(header[8..12].try_into().unwrap());
    if len > MAX_PAYLOAD {
        return Err(WireError::FrameTooLarge {
            len,
            max: MAX_PAYLOAD,
        });
    }

    let mut payload = vec![0u8; len as usize];
    read_exact_patient(r, &mut payload)?;
    let mut trailer = [0u8; 4];
    read_exact_patient(r, &mut trailer)?;
    let stored = u32::from_le_bytes(trailer);

    let mut h = Crc32Hasher::new();
    h.update(&header);
    h.update(&payload);
    let computed = h.finalize();
    if stored != computed {
        return Err(WireError::BadCrc { stored, computed });
    }

    Ok(FrameEvent::Frame(Frame { kind, payload }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn roundtrip(kind: u8, payload: &[u8]) -> Frame {
        let bytes = encode_frame(kind, payload);
        match read_frame(&mut Cursor::new(bytes)).unwrap() {
            FrameEvent::Frame(f) => f,
            other => panic!("expected frame, got {other:?}"),
        }
    }

    #[test]
    fn frame_roundtrip() {
        let f = roundtrip(3, b"hello terrain");
        assert_eq!(f.kind, 3);
        assert_eq!(f.payload, b"hello terrain");
        let f = roundtrip(0, b"");
        assert_eq!(f.payload, b"");
    }

    #[test]
    fn eof_between_frames() {
        assert!(matches!(
            read_frame(&mut Cursor::new(Vec::new())).unwrap(),
            FrameEvent::Eof
        ));
    }

    #[test]
    fn every_flipped_byte_is_detected() {
        let bytes = encode_frame(2, b"payload under test");
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x40;
            let got = read_frame(&mut Cursor::new(corrupt));
            assert!(
                got.is_err(),
                "flip at byte {i} must be rejected, got {got:?}"
            );
        }
    }

    #[test]
    fn truncated_frame_is_an_error() {
        let bytes = encode_frame(2, b"payload under test");
        for cut in 1..bytes.len() {
            let got = read_frame(&mut Cursor::new(bytes[..cut].to_vec()));
            assert!(got.is_err(), "truncation at {cut} must error, got {got:?}");
        }
    }

    #[test]
    fn oversized_length_is_rejected_without_allocating() {
        let mut bytes = encode_frame(1, b"x");
        bytes[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_frame(&mut Cursor::new(bytes)),
            Err(WireError::FrameTooLarge { .. })
        ));
    }

    #[test]
    fn assembler_single_byte_trickle() {
        let bytes = encode_frame(5, b"trickled payload");
        let mut asm = FrameAssembler::new();
        let mut got = Vec::new();
        for &b in &bytes {
            asm.push(&[b]);
            while let Some(f) = asm.next_frame().unwrap() {
                got.push(f);
            }
        }
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].kind, 5);
        assert_eq!(got[0].payload, b"trickled payload");
        assert_eq!(asm.buffered(), 0);
        assert!(!asm.mid_frame());
    }

    #[test]
    fn assembler_coalesced_frames_and_partial_tail() {
        let mut stream = encode_frame(1, b"first");
        stream.extend_from_slice(&encode_frame(2, b"second"));
        let tail = encode_frame(3, b"third");
        stream.extend_from_slice(&tail[..tail.len() - 3]);

        let mut asm = FrameAssembler::new();
        asm.push(&stream);
        let a = asm.next_frame().unwrap().unwrap();
        let b = asm.next_frame().unwrap().unwrap();
        assert_eq!((a.kind, b.kind), (1, 2));
        assert!(asm.next_frame().unwrap().is_none());
        assert!(asm.mid_frame(), "partial third frame is pending");
        asm.push(&tail[tail.len() - 3..]);
        let c = asm.next_frame().unwrap().unwrap();
        assert_eq!(c.kind, 3);
        assert_eq!(c.payload, b"third");
    }

    #[test]
    fn assembler_rejects_corruption_like_read_frame() {
        let bytes = encode_frame(2, b"payload under test");
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x40;
            let mut asm = FrameAssembler::new();
            asm.push(&corrupt);
            let mut got = asm.next_frame();
            if matches!(got, Ok(None)) {
                // A flipped length byte can only claim a *longer* frame;
                // the assembler rightly waits for the claimed bytes. Feed
                // them — the CRC must then reject the frame.
                assert!((8..12).contains(&i), "only len flips may defer (byte {i})");
                asm.push(&vec![0u8; (4 << 20) + 64]);
                got = asm.next_frame();
            }
            assert!(
                got.is_err(),
                "flip at byte {i} must be rejected, got {got:?}"
            );
        }
    }

    #[test]
    fn assembler_reclaims_consumed_prefix() {
        let frame = encode_frame(4, &vec![0x11u8; 40 * 1024]);
        let mut asm = FrameAssembler::new();
        for _ in 0..8 {
            asm.push(&frame);
            let f = asm.next_frame().unwrap().unwrap();
            assert_eq!(f.payload.len(), 40 * 1024);
        }
        assert_eq!(asm.buffered(), 0);
    }

    #[test]
    fn wrong_magic_and_version_are_typed_errors() {
        let mut bytes = encode_frame(1, b"x");
        bytes[0] = b'X';
        assert!(matches!(
            read_frame(&mut Cursor::new(bytes)),
            Err(WireError::BadMagic(_))
        ));
        let mut bytes = encode_frame(1, b"x");
        bytes[4] = 9;
        // Version checks fire before the CRC so old binaries give a
        // clear "unsupported version" message, not "corrupt frame".
        assert!(matches!(
            read_frame(&mut Cursor::new(bytes)),
            Err(WireError::BadVersion(9))
        ));
    }
}
