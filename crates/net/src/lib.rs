//! dm-net: the Direct Mesh query service's wire protocol and client.
//!
//! The serving stack splits in two: this crate owns everything both
//! endpoints must agree on — framing, payload encoding, the
//! request/response schema, the canonical mesh form — plus the blocking
//! [`Client`]; the `dm-server` crate owns the listener, worker pool and
//! admission control.
//!
//! Layers, bottom up:
//!
//! * [`wire`] — checked varint / zig-zag / XOR-delta-`f64` primitives.
//!   Same transforms as the on-disk compact codec, but every decoder
//!   returns a typed [`WireError`] instead of panicking: network bytes
//!   are untrusted even after the frame checksum passes.
//! * [`frame`] — length-prefixed frames with magic, version and a
//!   trailing CRC-32 (the storage layer's page-checksum polynomial,
//!   extended across the network boundary).
//! * [`mesh`] — the canonical mesh form ([`canonical_mesh`]) and its
//!   delta/varint encoding. Canonicalization is what makes the
//!   remote≡local equality tests byte-exact.
//! * [`proto`] — [`Request`] / [`Response`] enums covering VI, VD and
//!   batch queries, navigation sessions, stats and shutdown.
//! * [`client`] — blocking connector with backoff, overload retries and
//!   idempotent-request replay.

#![forbid(unsafe_code)]

pub mod client;
pub mod frame;
pub mod mesh;
pub mod proto;
pub mod stream;
pub mod wire;

pub use client::{ChunkedFetch, Client, ClientConfig, StreamedFrame};
pub use frame::{
    encode_frame, read_frame, write_frame, Frame, FrameAssembler, FrameEvent, HEADER_LEN, MAGIC,
    MAX_PAYLOAD, VERSION,
};
pub use mesh::{
    canonical_face, canonical_flat, canonical_mesh, canonical_mesh_into, MeshResult, ResultTail,
    WireVertex,
};
pub use proto::{
    ErrorCode, QueryOpts, QueryScope, RegionWireStats, Request, Response, StreamCounters,
};
pub use stream::{
    diff_frames, split_coarse_to_fine, ChunkAssembler, FrameDelta, FrontMirror, MeshChunk,
    StreamMode, FIRST_CHUNK_VERTICES,
};
pub use wire::{Reader, WireError, WireResult, Writer};
