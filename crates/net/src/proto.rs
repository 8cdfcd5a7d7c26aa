//! Request/response schema of the Direct Mesh query service.
//!
//! Each variant maps to one frame kind (requests `0x01..`, responses
//! `0x81..`). Payloads use the checked [`crate::wire`] primitives;
//! geometry rides the payload-wide XOR-delta `f64` chain. Decoders
//! validate every enum tag and count so a hostile payload that passed
//! the frame CRC still cannot panic the peer.

use dm_core::record::RecordCodec;
use dm_core::{BoundaryPolicy, DbStats, VdQuery};
use dm_geom::{Rect, Vec2};
use dm_mtm::PlaneTarget;

use crate::frame::Frame;
use crate::mesh::MeshResult;
use crate::stream::{FrameDelta, MeshChunk, StreamMode};
use crate::wire::{Reader, WireError, WireResult, Writer};

pub const REQ_VI: u8 = 0x01;
pub const REQ_VD: u8 = 0x02;
pub const REQ_BATCH: u8 = 0x03;
pub const REQ_OPEN_SESSION: u8 = 0x04;
pub const REQ_FRAME: u8 = 0x05;
pub const REQ_CLOSE_SESSION: u8 = 0x06;
pub const REQ_STATS: u8 = 0x07;
pub const REQ_SHUTDOWN: u8 = 0x08;
pub const REQ_WORLD_STATS: u8 = 0x09;

pub const RESP_MESH: u8 = 0x81;
pub const RESP_BATCH: u8 = 0x82;
pub const RESP_SESSION_OPENED: u8 = 0x83;
pub const RESP_SESSION_CLOSED: u8 = 0x84;
pub const RESP_STATS: u8 = 0x85;
pub const RESP_ERROR: u8 = 0x86;
pub const RESP_OVERLOADED: u8 = 0x87;
pub const RESP_SHUTDOWN_ACK: u8 = 0x88;
pub const RESP_FRAME_DELTA: u8 = 0x89;
pub const RESP_MESH_CHUNK: u8 = 0x8A;
pub const RESP_WORLD_STATS: u8 = 0x8B;

/// Which part of a multi-region world a query addresses. On a
/// single-terrain server only [`QueryScope::World`] is valid; a
/// [`QueryScope::Region`] request is answered with
/// [`ErrorCode::BadRequest`] (as is an unknown region id on a world
/// server).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum QueryScope {
    /// The whole catalog: every region the ROI overlaps, in turn.
    #[default]
    World,
    /// Restrict the query to one region, by manifest region id.
    Region(u32),
}

fn put_scope(w: &mut Writer, s: QueryScope) {
    // 0 = world, n + 1 = region n: old clients always emit 0.
    w.varint(match s {
        QueryScope::World => 0,
        QueryScope::Region(id) => u64::from(id) + 1,
    });
}

fn get_scope(r: &mut Reader) -> WireResult<QueryScope> {
    match r.varint()? {
        0 => Ok(QueryScope::World),
        n if n <= u64::from(u32::MAX) + 1 => Ok(QueryScope::Region((n - 1) as u32)),
        n => Err(WireError::Malformed(format!("query scope {n} overflows"))),
    }
}

/// Per-request execution options shared by the query variants.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryOpts {
    /// Flush the server's buffer pool and reset statistics before
    /// running, so the reply reports paper-protocol cold disk accesses.
    pub cold: bool,
    /// Accept partial results when pages are unreadable (the reply's
    /// integrity report says what was lost). When false, data loss is
    /// answered with [`ErrorCode::DataLoss`].
    pub degraded: bool,
    /// Stream the answer as coarse-to-fine [`MeshChunk`] frames instead
    /// of one monolithic mesh, bounding time-to-first-triangle.
    pub chunked: bool,
    /// World-catalog scope: whole world (default) or one region.
    pub scope: QueryScope,
}

/// Streaming byte/frame counters, reported per connection and
/// server-aggregate in [`Response::Stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StreamCounters {
    /// Request bytes read off the socket(s), framing included.
    pub bytes_in: u64,
    /// Response bytes queued onto the socket(s), framing included.
    pub bytes_out: u64,
    /// Session frames answered as deltas.
    pub delta_frames: u64,
    /// Session frames answered in full (monolithic or full reset).
    pub full_frames: u64,
}

fn put_stream_counters(w: &mut Writer, c: &StreamCounters) {
    w.varint(c.bytes_in);
    w.varint(c.bytes_out);
    w.varint(c.delta_frames);
    w.varint(c.full_frames);
}

fn get_stream_counters(r: &mut Reader) -> WireResult<StreamCounters> {
    Ok(StreamCounters {
        bytes_in: r.varint()?,
        bytes_out: r.varint()?,
        delta_frames: r.varint()?,
        full_frames: r.varint()?,
    })
}

/// One client→server message.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Viewpoint-independent query: one query plane at LOD `e`.
    ViQuery { opts: QueryOpts, roi: Rect, e: f64 },
    /// Viewpoint-dependent multi-base query.
    VdQuery {
        opts: QueryOpts,
        query: VdQuery,
        policy: BoundaryPolicy,
        max_cubes: u32,
    },
    /// Many VI queries answered in one round trip, in order, on the one
    /// server worker that takes the request. The wire keeps a `threads`
    /// varint after the options: it is written as 1 and ignored on read.
    BatchQuery {
        opts: QueryOpts,
        queries: Vec<(Rect, f64)>,
    },
    /// Open a server-side [`dm_core::NavigationSession`].
    OpenSession {
        policy: BoundaryPolicy,
        max_cubes: u32,
        /// Kept on the wire so the encoding does not change; the server
        /// accepts and ignores it, since every session frame is a full
        /// requery of its cubes.
        full_requery: bool,
    },
    /// Advance an open session to a new viewpoint. `stream` picks the
    /// response transport: monolithic [`Response::Mesh`], or a
    /// [`Response::FrameDelta`] patched against the previous frame.
    FrameQuery {
        session: u64,
        query: VdQuery,
        degraded: bool,
        stream: StreamMode,
    },
    /// Drop an open session.
    CloseSession { session: u64 },
    /// Database summary; each `resolve_keep` fraction is answered with
    /// the LOD threshold `e_for_points_fraction` resolves it to.
    Stats { resolve_keep: Vec<f64> },
    /// Per-region world-catalog counters ([`Response::WorldStats`]).
    /// A single-terrain server answers [`ErrorCode::BadRequest`].
    WorldStats,
    /// Ask the server to stop accepting connections and exit.
    Shutdown,
}

/// One region's row in a [`Response::WorldStats`] answer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RegionWireStats {
    /// Manifest region id.
    pub id: u32,
    /// Times the region store was opened (lazy first touch + reopens
    /// after eviction).
    pub opens: u64,
    /// Times the region handle was evicted by the LRU cap.
    pub evictions: u64,
    /// Region-catalog hits: queries that found the handle already open.
    pub hits: u64,
    /// Queries that fanned out to this region.
    pub queries: u64,
    /// Pages currently resident in the region's buffer pool (0 when the
    /// region is closed).
    pub resident_pages: u64,
    /// Whether the region handle is currently open.
    pub open: bool,
}

fn put_region_stats(w: &mut Writer, s: &RegionWireStats) {
    w.varint(u64::from(s.id));
    w.varint(s.opens);
    w.varint(s.evictions);
    w.varint(s.hits);
    w.varint(s.queries);
    w.varint(s.resident_pages);
    w.bool(s.open);
}

fn get_region_stats(r: &mut Reader) -> WireResult<RegionWireStats> {
    Ok(RegionWireStats {
        id: r.varint_u32("region id")?,
        opens: r.varint()?,
        evictions: r.varint()?,
        hits: r.varint()?,
        queries: r.varint()?,
        resident_pages: r.varint()?,
        open: r.bool()?,
    })
}

/// Typed failure classes a server can answer with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request decoded but is semantically invalid.
    BadRequest,
    /// The storage layer failed and degraded mode was not requested.
    Storage,
    /// Pages were lost and the request did not opt into degraded results.
    DataLoss,
    /// Frame/close referenced a session id this connection never opened.
    UnknownSession,
    /// Per-connection session cap reached.
    TooManySessions,
    /// Server is draining; no new work accepted.
    ShuttingDown,
    /// Unexpected server-side failure.
    Internal,
}

impl ErrorCode {
    pub fn code(self) -> u8 {
        match self {
            ErrorCode::BadRequest => 1,
            ErrorCode::Storage => 2,
            ErrorCode::DataLoss => 3,
            ErrorCode::UnknownSession => 4,
            ErrorCode::TooManySessions => 5,
            ErrorCode::ShuttingDown => 6,
            ErrorCode::Internal => 7,
        }
    }

    pub fn from_code(code: u8) -> Option<ErrorCode> {
        match code {
            1 => Some(ErrorCode::BadRequest),
            2 => Some(ErrorCode::Storage),
            3 => Some(ErrorCode::DataLoss),
            4 => Some(ErrorCode::UnknownSession),
            5 => Some(ErrorCode::TooManySessions),
            6 => Some(ErrorCode::ShuttingDown),
            7 => Some(ErrorCode::Internal),
            _ => None,
        }
    }
}

/// One server→client message.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Result of a VI, VD, or frame query.
    Mesh(MeshResult),
    /// Results of a batch, in request order. `total_disk_accesses` is
    /// the sum of the items' disk accesses.
    Batch {
        total_disk_accesses: u64,
        items: Vec<MeshResult>,
    },
    /// One frame of a delta-streamed session answer (full reset or
    /// patch); the client's [`crate::stream::FrontMirror`] reconstructs
    /// the monolithic result.
    FrameDelta(FrameDelta),
    /// One coarse-to-fine slice of a chunked cold answer. A chunked
    /// request is answered by several of these on one connection, in
    /// order, ending with `last == true`.
    MeshChunk(MeshChunk),
    SessionOpened {
        session: u64,
    },
    SessionClosed,
    Stats {
        stats: DbStats,
        resolved_e: Vec<f64>,
        /// Streaming counters of the requesting connection.
        conn: StreamCounters,
        /// Server-lifetime aggregate streaming counters.
        totals: StreamCounters,
    },
    /// Per-region world-catalog counters, in manifest order.
    WorldStats {
        regions: Vec<RegionWireStats>,
    },
    Error {
        code: ErrorCode,
        message: String,
    },
    /// Admission control refused the request; retry after the hint.
    Overloaded {
        retry_after_ms: u64,
    },
    ShutdownAck,
}

fn put_rect(w: &mut Writer, r: &Rect) {
    w.f64(r.min.x);
    w.f64(r.min.y);
    w.f64(r.max.x);
    w.f64(r.max.y);
}

fn get_rect(r: &mut Reader) -> WireResult<Rect> {
    Ok(Rect {
        min: Vec2::new(r.f64()?, r.f64()?),
        max: Vec2::new(r.f64()?, r.f64()?),
    })
}

fn put_target(w: &mut Writer, t: &PlaneTarget) {
    w.f64(t.origin.x);
    w.f64(t.origin.y);
    w.f64(t.dir.x);
    w.f64(t.dir.y);
    w.f64(t.e_min);
    w.f64(t.slope);
    w.f64(t.e_max);
}

fn get_target(r: &mut Reader) -> WireResult<PlaneTarget> {
    Ok(PlaneTarget {
        origin: Vec2::new(r.f64()?, r.f64()?),
        dir: Vec2::new(r.f64()?, r.f64()?),
        e_min: r.f64()?,
        slope: r.f64()?,
        e_max: r.f64()?,
    })
}

fn put_vd_query(w: &mut Writer, q: &VdQuery) {
    put_rect(w, &q.roi);
    put_target(w, &q.target);
}

fn get_vd_query(r: &mut Reader) -> WireResult<VdQuery> {
    Ok(VdQuery {
        roi: get_rect(r)?,
        target: get_target(r)?,
    })
}

fn put_policy(w: &mut Writer, p: BoundaryPolicy) {
    w.u8(match p {
        BoundaryPolicy::Skip => 0,
        BoundaryPolicy::FetchOnMiss => 1,
    });
}

fn get_policy(r: &mut Reader) -> WireResult<BoundaryPolicy> {
    match r.u8()? {
        0 => Ok(BoundaryPolicy::Skip),
        1 => Ok(BoundaryPolicy::FetchOnMiss),
        other => Err(WireError::Malformed(format!("boundary policy {other}"))),
    }
}

fn put_opts(w: &mut Writer, o: QueryOpts) {
    w.bool(o.cold);
    w.bool(o.degraded);
    w.bool(o.chunked);
    put_scope(w, o.scope);
}

fn get_opts(r: &mut Reader) -> WireResult<QueryOpts> {
    Ok(QueryOpts {
        cold: r.bool()?,
        degraded: r.bool()?,
        chunked: r.bool()?,
        scope: get_scope(r)?,
    })
}

impl Request {
    /// Frame kind byte for this request.
    pub fn kind(&self) -> u8 {
        match self {
            Request::ViQuery { .. } => REQ_VI,
            Request::VdQuery { .. } => REQ_VD,
            Request::BatchQuery { .. } => REQ_BATCH,
            Request::OpenSession { .. } => REQ_OPEN_SESSION,
            Request::FrameQuery { .. } => REQ_FRAME,
            Request::CloseSession { .. } => REQ_CLOSE_SESSION,
            Request::Stats { .. } => REQ_STATS,
            Request::WorldStats => REQ_WORLD_STATS,
            Request::Shutdown => REQ_SHUTDOWN,
        }
    }

    /// Serialize to a payload (pair with [`Self::kind`] for the frame).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            Request::ViQuery { opts, roi, e } => {
                put_opts(&mut w, *opts);
                put_rect(&mut w, roi);
                w.f64(*e);
            }
            Request::VdQuery {
                opts,
                query,
                policy,
                max_cubes,
            } => {
                put_opts(&mut w, *opts);
                put_vd_query(&mut w, query);
                put_policy(&mut w, *policy);
                w.varint(u64::from(*max_cubes));
            }
            Request::BatchQuery { opts, queries } => {
                put_opts(&mut w, *opts);
                w.varint(1); // the retired `threads` field
                w.varint(queries.len() as u64);
                for (roi, e) in queries {
                    put_rect(&mut w, roi);
                    w.f64(*e);
                }
            }
            Request::OpenSession {
                policy,
                max_cubes,
                full_requery,
            } => {
                put_policy(&mut w, *policy);
                w.varint(u64::from(*max_cubes));
                w.bool(*full_requery);
            }
            Request::FrameQuery {
                session,
                query,
                degraded,
                stream,
            } => {
                w.varint(*session);
                put_vd_query(&mut w, query);
                w.bool(*degraded);
                w.u8(stream.code());
            }
            Request::CloseSession { session } => w.varint(*session),
            Request::Stats { resolve_keep } => {
                w.varint(resolve_keep.len() as u64);
                for k in resolve_keep {
                    w.f64(*k);
                }
            }
            Request::WorldStats => {}
            Request::Shutdown => {}
        }
        w.into_inner()
    }

    /// Parse a received frame into a request.
    pub fn decode(frame: &Frame) -> WireResult<Request> {
        let mut r = Reader::new(&frame.payload);
        let req = match frame.kind {
            REQ_VI => Request::ViQuery {
                opts: get_opts(&mut r)?,
                roi: get_rect(&mut r)?,
                e: r.f64()?,
            },
            REQ_VD => Request::VdQuery {
                opts: get_opts(&mut r)?,
                query: get_vd_query(&mut r)?,
                policy: get_policy(&mut r)?,
                max_cubes: r.varint_u32("max_cubes")?,
            },
            REQ_BATCH => {
                let opts = get_opts(&mut r)?;
                r.varint_u32("threads")?; // retired: read and discarded
                let n = r.varint()? as usize;
                if n > r.remaining() {
                    return Err(WireError::Malformed(format!(
                        "batch count {n} exceeds payload"
                    )));
                }
                let mut queries = Vec::with_capacity(n);
                for _ in 0..n {
                    let roi = get_rect(&mut r)?;
                    let e = r.f64()?;
                    queries.push((roi, e));
                }
                Request::BatchQuery { opts, queries }
            }
            REQ_OPEN_SESSION => Request::OpenSession {
                policy: get_policy(&mut r)?,
                max_cubes: r.varint_u32("max_cubes")?,
                full_requery: r.bool()?,
            },
            REQ_FRAME => Request::FrameQuery {
                session: r.varint()?,
                query: get_vd_query(&mut r)?,
                degraded: r.bool()?,
                stream: StreamMode::from_code(r.u8()?)?,
            },
            REQ_CLOSE_SESSION => Request::CloseSession {
                session: r.varint()?,
            },
            REQ_STATS => {
                let n = r.varint()? as usize;
                if n > r.remaining() {
                    return Err(WireError::Malformed(format!(
                        "keep-fraction count {n} exceeds payload"
                    )));
                }
                let mut resolve_keep = Vec::with_capacity(n);
                for _ in 0..n {
                    resolve_keep.push(r.f64()?);
                }
                Request::Stats { resolve_keep }
            }
            REQ_WORLD_STATS => Request::WorldStats,
            REQ_SHUTDOWN => Request::Shutdown,
            other => return Err(WireError::UnknownKind(other)),
        };
        r.finish()?;
        Ok(req)
    }
}

fn put_db_stats(w: &mut Writer, s: &DbStats) {
    w.varint(u64::from(s.catalog_version));
    w.u8(s.codec.tag());
    w.varint(s.n_records);
    w.varint(s.n_leaves);
    w.varint(s.n_roots);
    w.varint(s.heap_pages);
    w.varint(s.total_pages);
    w.varint(u64::from(s.id_index_levels));
    w.varint(s.id_index_entries);
    w.varint(s.rtree_nodes);
    w.varint(u64::from(s.rtree_height));
    w.varint(s.rtree_len);
    w.f64(s.e_max);
    put_rect(w, &s.bounds);
}

fn get_db_stats(r: &mut Reader) -> WireResult<DbStats> {
    let catalog_version = r.varint_u32("catalog version")?;
    let tag = r.u8()?;
    let codec = RecordCodec::from_tag(tag)
        .ok_or_else(|| WireError::Malformed(format!("record codec tag {tag}")))?;
    Ok(DbStats {
        catalog_version,
        codec,
        n_records: r.varint()?,
        n_leaves: r.varint()?,
        n_roots: r.varint()?,
        heap_pages: r.varint()?,
        total_pages: r.varint()?,
        id_index_levels: r.varint_u32("id index levels")?,
        id_index_entries: r.varint()?,
        rtree_nodes: r.varint()?,
        rtree_height: r.varint_u32("rtree height")?,
        rtree_len: r.varint()?,
        e_max: r.f64()?,
        bounds: get_rect(r)?,
    })
}

impl Response {
    /// Frame kind byte for this response.
    pub fn kind(&self) -> u8 {
        match self {
            Response::Mesh(_) => RESP_MESH,
            Response::FrameDelta(_) => RESP_FRAME_DELTA,
            Response::MeshChunk(_) => RESP_MESH_CHUNK,
            Response::Batch { .. } => RESP_BATCH,
            Response::SessionOpened { .. } => RESP_SESSION_OPENED,
            Response::SessionClosed => RESP_SESSION_CLOSED,
            Response::Stats { .. } => RESP_STATS,
            Response::WorldStats { .. } => RESP_WORLD_STATS,
            Response::Error { .. } => RESP_ERROR,
            Response::Overloaded { .. } => RESP_OVERLOADED,
            Response::ShutdownAck => RESP_SHUTDOWN_ACK,
        }
    }

    /// Serialize to a payload (pair with [`Self::kind`] for the frame).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            Response::Mesh(m) => m.encode(&mut w),
            Response::FrameDelta(d) => d.encode(&mut w),
            Response::MeshChunk(c) => c.encode(&mut w),
            Response::Batch {
                total_disk_accesses,
                items,
            } => {
                w.varint(*total_disk_accesses);
                w.varint(items.len() as u64);
                for m in items {
                    m.encode(&mut w);
                }
            }
            Response::SessionOpened { session } => w.varint(*session),
            Response::SessionClosed => {}
            Response::Stats {
                stats,
                resolved_e,
                conn,
                totals,
            } => {
                put_db_stats(&mut w, stats);
                w.varint(resolved_e.len() as u64);
                for e in resolved_e {
                    w.f64(*e);
                }
                put_stream_counters(&mut w, conn);
                put_stream_counters(&mut w, totals);
            }
            Response::WorldStats { regions } => {
                w.varint(regions.len() as u64);
                for s in regions {
                    put_region_stats(&mut w, s);
                }
            }
            Response::Error { code, message } => {
                w.u8(code.code());
                w.string(message);
            }
            Response::Overloaded { retry_after_ms } => w.varint(*retry_after_ms),
            Response::ShutdownAck => {}
        }
        w.into_inner()
    }

    /// Parse a received frame into a response.
    pub fn decode(frame: &Frame) -> WireResult<Response> {
        let mut r = Reader::new(&frame.payload);
        let resp = match frame.kind {
            RESP_MESH => Response::Mesh(MeshResult::decode(&mut r)?),
            RESP_FRAME_DELTA => Response::FrameDelta(FrameDelta::decode(&mut r)?),
            RESP_MESH_CHUNK => Response::MeshChunk(MeshChunk::decode(&mut r)?),
            RESP_BATCH => {
                let total_disk_accesses = r.varint()?;
                let n = r.varint()? as usize;
                if n > r.remaining() {
                    return Err(WireError::Malformed(format!(
                        "batch item count {n} exceeds payload"
                    )));
                }
                let mut items = Vec::with_capacity(n);
                for _ in 0..n {
                    items.push(MeshResult::decode(&mut r)?);
                }
                Response::Batch {
                    total_disk_accesses,
                    items,
                }
            }
            RESP_SESSION_OPENED => Response::SessionOpened {
                session: r.varint()?,
            },
            RESP_SESSION_CLOSED => Response::SessionClosed,
            RESP_STATS => {
                let stats = get_db_stats(&mut r)?;
                let n = r.varint()? as usize;
                if n > r.remaining() {
                    return Err(WireError::Malformed(format!(
                        "resolved-LOD count {n} exceeds payload"
                    )));
                }
                let mut resolved_e = Vec::with_capacity(n);
                for _ in 0..n {
                    resolved_e.push(r.f64()?);
                }
                let conn = get_stream_counters(&mut r)?;
                let totals = get_stream_counters(&mut r)?;
                Response::Stats {
                    stats,
                    resolved_e,
                    conn,
                    totals,
                }
            }
            RESP_WORLD_STATS => {
                let n = r.varint()? as usize;
                if n > r.remaining() {
                    return Err(WireError::Malformed(format!(
                        "region count {n} exceeds payload"
                    )));
                }
                let mut regions = Vec::with_capacity(n);
                for _ in 0..n {
                    regions.push(get_region_stats(&mut r)?);
                }
                Response::WorldStats { regions }
            }
            RESP_ERROR => {
                let raw = r.u8()?;
                let code = ErrorCode::from_code(raw)
                    .ok_or_else(|| WireError::Malformed(format!("error code {raw}")))?;
                Response::Error {
                    code,
                    message: r.string()?,
                }
            }
            RESP_OVERLOADED => Response::Overloaded {
                retry_after_ms: r.varint()?,
            },
            RESP_SHUTDOWN_ACK => Response::ShutdownAck,
            other => return Err(WireError::UnknownKind(other)),
        };
        r.finish()?;
        Ok(resp)
    }

    /// Convert an error-class response into the matching [`WireError`],
    /// passing successful responses through.
    pub fn into_result(self) -> WireResult<Response> {
        match self {
            Response::Error { code, message } => Err(WireError::Remote {
                code: code.code(),
                message,
            }),
            Response::Overloaded { retry_after_ms } => {
                Err(WireError::Overloaded { retry_after_ms })
            }
            other => Ok(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{encode_frame, read_frame, FrameEvent};
    use std::io::Cursor;

    fn frame_of(kind: u8, payload: Vec<u8>) -> Frame {
        let bytes = encode_frame(kind, &payload);
        match read_frame(&mut Cursor::new(bytes)).unwrap() {
            FrameEvent::Frame(f) => f,
            other => panic!("expected frame, got {other:?}"),
        }
    }

    #[test]
    fn request_roundtrip_all_variants() {
        let roi = Rect {
            min: Vec2::new(-3.0, 2.5),
            max: Vec2::new(10.0, 20.0),
        };
        let q = VdQuery {
            roi,
            target: PlaneTarget {
                origin: Vec2::new(0.0, 1.0),
                dir: Vec2::new(0.6, 0.8),
                e_min: 0.01,
                slope: 0.05,
                e_max: 0.9,
            },
        };
        let reqs = vec![
            Request::ViQuery {
                opts: QueryOpts {
                    cold: true,
                    degraded: false,
                    chunked: false,
                    scope: QueryScope::Region(u32::MAX),
                },
                roi,
                e: 0.125,
            },
            Request::VdQuery {
                opts: QueryOpts::default(),
                query: q,
                policy: BoundaryPolicy::FetchOnMiss,
                max_cubes: 12,
            },
            Request::BatchQuery {
                opts: QueryOpts {
                    cold: false,
                    degraded: true,
                    chunked: true,
                    scope: QueryScope::Region(3),
                },
                queries: vec![(roi, 0.1), (roi, f64::NAN)],
            },
            Request::OpenSession {
                policy: BoundaryPolicy::Skip,
                max_cubes: 6,
                full_requery: true,
            },
            Request::FrameQuery {
                session: u64::MAX,
                query: q,
                degraded: true,
                stream: StreamMode::Auto,
            },
            Request::CloseSession { session: 7 },
            Request::Stats {
                resolve_keep: vec![0.05, 0.25, 1.0],
            },
            Request::WorldStats,
            Request::Shutdown,
        ];
        for req in reqs {
            let frame = frame_of(req.kind(), req.encode());
            let back = Request::decode(&frame).unwrap();
            match (&req, &back) {
                // NaN-bearing batch compares by bits below.
                (
                    Request::BatchQuery { queries: a, .. },
                    Request::BatchQuery { queries: b, .. },
                ) => {
                    assert_eq!(a.len(), b.len());
                    for ((ra, ea), (rb, eb)) in a.iter().zip(b) {
                        assert_eq!(ra, rb);
                        assert_eq!(ea.to_bits(), eb.to_bits());
                    }
                }
                _ => assert_eq!(req, back),
            }
        }
    }

    #[test]
    fn response_roundtrip_all_variants() {
        let mesh = MeshResult {
            fetched_records: 11,
            disk_accesses: 3,
            cubes: 1,
            ..MeshResult::default()
        };
        let stats = DbStats {
            catalog_version: 3,
            codec: RecordCodec::Compact,
            n_records: 100,
            n_leaves: 60,
            n_roots: 2,
            heap_pages: 9,
            total_pages: 40,
            id_index_levels: 1,
            id_index_entries: 100,
            rtree_nodes: 12,
            rtree_height: 3,
            rtree_len: 100,
            e_max: 0.75,
            bounds: Rect {
                min: Vec2::new(0.0, 0.0),
                max: Vec2::new(32.0, 32.0),
            },
        };
        let resps = vec![
            Response::Mesh(mesh.clone()),
            Response::FrameDelta(FrameDelta {
                seq: 3,
                base_seq: 2,
                is_delta: true,
                removed_vertices: vec![4, 9],
                added_vertices: vec![crate::mesh::WireVertex {
                    id: 5,
                    x: 1.0,
                    y: 2.0,
                    z: 3.0,
                }],
                removed_faces: vec![[4, 9, 10]],
                added_faces: vec![[5, 10, 11]],
                tail: mesh.tail(),
            }),
            Response::MeshChunk(MeshChunk {
                seq: 1,
                last: true,
                vertices: vec![crate::mesh::WireVertex {
                    id: 8,
                    x: -1.0,
                    y: 0.5,
                    z: 2.5,
                }],
                faces: vec![[8, 9, 10]],
                tail: mesh.tail(),
            }),
            Response::Batch {
                total_disk_accesses: 19,
                items: vec![mesh.clone(), mesh],
            },
            Response::SessionOpened { session: 42 },
            Response::SessionClosed,
            Response::Stats {
                stats,
                resolved_e: vec![0.02, 0.4],
                conn: StreamCounters {
                    bytes_in: 100,
                    bytes_out: 9000,
                    delta_frames: 30,
                    full_frames: 2,
                },
                totals: StreamCounters {
                    bytes_in: 400,
                    bytes_out: 36000,
                    delta_frames: 120,
                    full_frames: 8,
                },
            },
            Response::WorldStats {
                regions: vec![
                    RegionWireStats {
                        id: 0,
                        opens: 2,
                        evictions: 1,
                        hits: 40,
                        queries: 41,
                        resident_pages: 512,
                        open: true,
                    },
                    RegionWireStats {
                        id: 7,
                        ..RegionWireStats::default()
                    },
                ],
            },
            Response::Error {
                code: ErrorCode::DataLoss,
                message: "2 pages lost".to_string(),
            },
            Response::Overloaded {
                retry_after_ms: 150,
            },
            Response::ShutdownAck,
        ];
        for resp in resps {
            let frame = frame_of(resp.kind(), resp.encode());
            assert_eq!(Response::decode(&frame).unwrap(), resp);
        }
    }

    #[test]
    fn unknown_kind_is_rejected() {
        let frame = frame_of(0x7E, Vec::new());
        assert!(matches!(
            Request::decode(&frame),
            Err(WireError::UnknownKind(0x7E))
        ));
        assert!(matches!(
            Response::decode(&frame),
            Err(WireError::UnknownKind(0x7E))
        ));
    }

    #[test]
    fn scope_roundtrips_and_overflow_is_rejected() {
        for scope in [
            QueryScope::World,
            QueryScope::Region(0),
            QueryScope::Region(u32::MAX),
        ] {
            let mut w = Writer::new();
            put_scope(&mut w, scope);
            let bytes = w.into_inner();
            let mut r = Reader::new(&bytes);
            assert_eq!(get_scope(&mut r).unwrap(), scope);
            r.finish().unwrap();
        }
        // u32::MAX + 2 encodes a region id that does not fit in u32.
        let mut w = Writer::new();
        w.varint(u64::from(u32::MAX) + 2);
        let bytes = w.into_inner();
        let mut r = Reader::new(&bytes);
        assert!(matches!(get_scope(&mut r), Err(WireError::Malformed(_))));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let req = Request::CloseSession { session: 1 };
        let mut payload = req.encode();
        payload.push(0);
        let frame = frame_of(req.kind(), payload);
        assert!(matches!(
            Request::decode(&frame),
            Err(WireError::Malformed(_))
        ));
    }
}
