//! Blocking client for the Direct Mesh query service.
//!
//! [`Client`] owns one TCP connection and speaks one request/response
//! pair at a time. Transient failures are absorbed here so callers see
//! them rarely:
//!
//! * connect attempts back off exponentially (cold servers, races with
//!   a listener still binding),
//! * **idempotent** requests (VI/VD/batch/stats/shutdown) are replayed
//!   over a fresh connection after an I/O error — a re-run query
//!   returns the same bytes, so replay is safe,
//! * [`Response::Overloaded`] answers are retried after the server's
//!   `retry_after_ms` hint.
//!
//! Session-scoped requests are **not** replayed: sessions live on the
//! connection that opened them, so after a drop the walkthrough must be
//! restarted by the caller.

use std::io::BufWriter;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use dm_core::{BoundaryPolicy, DbStats, VdQuery};
use dm_geom::Rect;

use crate::frame::{read_frame, write_frame, Frame, FrameEvent, HEADER_LEN};
use crate::mesh::MeshResult;
use crate::proto::{QueryOpts, RegionWireStats, Request, Response, StreamCounters};
use crate::stream::{ChunkAssembler, FrontMirror, StreamMode};
use crate::wire::{WireError, WireResult};

/// Bytes a frame occupies on the wire (header + payload + CRC).
fn frame_wire_size(f: &Frame) -> usize {
    HEADER_LEN + f.payload.len() + 4
}

/// Bytes a request with this payload occupies on the wire.
fn request_wire_size(payload: &[u8]) -> usize {
    HEADER_LEN + payload.len() + 4
}

/// Client-side retry and timeout policy.
#[derive(Clone, Debug)]
pub struct ClientConfig {
    /// Connection attempts before giving up.
    pub connect_attempts: u32,
    /// Initial backoff between attempts; doubles per retry, capped at 1 s.
    pub initial_backoff: Duration,
    /// Reconnect-and-replay attempts for idempotent requests that hit an
    /// I/O error.
    pub io_retries: u32,
    /// Retries when the server answers `Overloaded`.
    pub overload_retries: u32,
    /// Socket read timeout (bounds how long one response may take).
    pub read_timeout: Duration,
    /// Socket write timeout.
    pub write_timeout: Duration,
}

impl Default for ClientConfig {
    fn default() -> ClientConfig {
        ClientConfig {
            connect_attempts: 10,
            initial_backoff: Duration::from_millis(25),
            io_retries: 2,
            overload_retries: 8,
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(10),
        }
    }
}

/// Wire accounting for one streamed navigation frame
/// ([`Client::frame_query_streamed`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct StreamedFrame {
    /// Request bytes written, framing included (both requests if the
    /// frame resynced).
    pub bytes_sent: usize,
    /// Response bytes read, framing included.
    pub bytes_received: usize,
    /// The server answered with a delta patch rather than a full reset
    /// or monolithic mesh.
    pub was_delta: bool,
    /// The delta could not be applied; the frame was re-fetched in
    /// full-frame mode and the mirror re-primed.
    pub resynced: bool,
}

/// Wire accounting for one chunked (coarse-to-fine) mesh download.
#[derive(Clone, Copy, Debug, Default)]
pub struct ChunkedFetch {
    /// Chunk frames received.
    pub chunks: u32,
    /// Request bytes written, framing included.
    pub bytes_sent: usize,
    /// Response bytes read, framing included.
    pub bytes_received: usize,
    /// Bytes read up to and including the first chunk that completed a
    /// triangle (0 if the mesh has none).
    pub bytes_to_first_triangle: usize,
    /// Wall time from request write to that first-triangle chunk.
    pub time_to_first_triangle: Option<Duration>,
}

/// A blocking connection to a `dm serve` instance.
pub struct Client {
    addr: String,
    config: ClientConfig,
    stream: Option<TcpStream>,
}

impl Client {
    /// Connect with the default policy.
    pub fn connect(addr: &str) -> WireResult<Client> {
        Client::connect_with(addr, ClientConfig::default())
    }

    /// Connect with an explicit policy; retries with exponential backoff.
    pub fn connect_with(addr: &str, config: ClientConfig) -> WireResult<Client> {
        let mut client = Client {
            addr: addr.to_string(),
            config,
            stream: None,
        };
        client.reconnect()?;
        Ok(client)
    }

    fn reconnect(&mut self) -> WireResult<()> {
        self.stream = None;
        let mut backoff = self.config.initial_backoff;
        let mut last_err: Option<std::io::Error> = None;
        for attempt in 0..self.config.connect_attempts.max(1) {
            if attempt > 0 {
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(Duration::from_secs(1));
            }
            match self
                .addr
                .to_socket_addrs()
                .and_then(|mut addrs| {
                    addrs.next().ok_or_else(|| {
                        std::io::Error::new(
                            std::io::ErrorKind::InvalidInput,
                            "address resolved to nothing",
                        )
                    })
                })
                .and_then(TcpStream::connect)
            {
                Ok(stream) => {
                    stream.set_nodelay(true).ok();
                    stream.set_read_timeout(Some(self.config.read_timeout))?;
                    stream.set_write_timeout(Some(self.config.write_timeout))?;
                    self.stream = Some(stream);
                    return Ok(());
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(WireError::Io(last_err.unwrap_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::NotConnected, "connect failed")
        })))
    }

    /// One request → one raw response frame over the live connection.
    /// On any I/O error the stream is dropped so the next call
    /// reconnects.
    fn exchange_raw(&mut self, kind: u8, payload: &[u8]) -> WireResult<Frame> {
        if self.stream.is_none() {
            self.reconnect()?;
        }
        let result = (|| {
            let stream = self.stream.as_mut().expect("reconnect populated stream");
            {
                let mut w = BufWriter::new(&mut *stream);
                write_frame(&mut w, kind, payload)?;
            }
            match read_frame(stream)? {
                FrameEvent::Frame(f) => Ok(f),
                FrameEvent::Eof => Err(WireError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ))),
                FrameEvent::Idle => Err(WireError::Io(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    "timed out waiting for response",
                ))),
            }
        })();
        if matches!(result, Err(WireError::Io(_))) {
            self.stream = None;
        }
        result
    }

    /// One request → one response over the live connection.
    fn exchange(&mut self, kind: u8, payload: &[u8]) -> WireResult<Response> {
        let frame = self.exchange_raw(kind, payload)?;
        Response::decode(&frame)
    }

    /// One request → one decoded non-overload response, with wire-byte
    /// accounting. Overload answers are retried after the server's hint
    /// (their bytes still count — they crossed the wire); no I/O replay
    /// is attempted, matching [`Self::roundtrip`]'s session semantics.
    fn exchange_counted(&mut self, req: &Request) -> WireResult<(Response, usize, usize)> {
        let payload = req.encode();
        let mut sent = 0usize;
        let mut received = 0usize;
        let mut overload_attempts = 0u32;
        loop {
            sent += request_wire_size(&payload);
            let frame = self.exchange_raw(req.kind(), &payload)?;
            received += frame_wire_size(&frame);
            match Response::decode(&frame)? {
                Response::Overloaded { retry_after_ms }
                    if overload_attempts < self.config.overload_retries =>
                {
                    overload_attempts += 1;
                    std::thread::sleep(Duration::from_millis(retry_after_ms.clamp(1, 1000)));
                }
                resp => return Ok((resp.into_result()?, sent, received)),
            }
        }
    }

    /// Send a request, absorbing overload backoff and (for idempotent
    /// requests) transient I/O errors. Error-class responses surface as
    /// `Err` ([`WireError::Remote`] / [`WireError::Overloaded`]).
    pub fn roundtrip(&mut self, req: &Request) -> WireResult<Response> {
        let payload = req.encode();
        let kind = req.kind();
        let replayable = matches!(
            req,
            Request::ViQuery { .. }
                | Request::VdQuery { .. }
                | Request::BatchQuery { .. }
                | Request::Stats { .. }
                | Request::Shutdown
        );
        let mut io_attempts = 0u32;
        let mut overload_attempts = 0u32;
        loop {
            match self.exchange(kind, &payload) {
                Ok(Response::Overloaded { retry_after_ms })
                    if overload_attempts < self.config.overload_retries =>
                {
                    overload_attempts += 1;
                    std::thread::sleep(Duration::from_millis(retry_after_ms.clamp(1, 1000)));
                }
                Ok(resp) => return resp.into_result(),
                Err(WireError::Io(_)) if replayable && io_attempts < self.config.io_retries => {
                    io_attempts += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Send many requests down one connection with up to `window`
    /// requests in flight before the first response is read, then keep
    /// the window full (read one, write one). Responses come back in
    /// request order — the server executes one connection's requests
    /// strictly serially — so the returned vector lines up with `reqs`.
    ///
    /// No replay or overload backoff is applied: every response
    /// (including `Overloaded` and error frames) is returned verbatim in
    /// position. On an I/O error the stream is dropped and the whole
    /// call fails; pipelined exchanges are not idempotent as a unit.
    pub fn exchange_pipelined(
        &mut self,
        reqs: &[Request],
        window: usize,
    ) -> WireResult<Vec<Response>> {
        if reqs.is_empty() {
            return Ok(Vec::new());
        }
        let window = window.max(1);
        if self.stream.is_none() {
            self.reconnect()?;
        }
        let result = (|| {
            let stream = self.stream.as_mut().expect("reconnect populated stream");
            let mut responses = Vec::with_capacity(reqs.len());
            let mut sent = 0usize;
            while responses.len() < reqs.len() {
                // Top up the window. Request frames are small, so these
                // blocking writes cannot deadlock against our unread
                // responses in any practical socket-buffer regime.
                while sent < reqs.len() && sent - responses.len() < window {
                    let req = &reqs[sent];
                    let mut w = BufWriter::new(&mut *stream);
                    write_frame(&mut w, req.kind(), &req.encode())?;
                    sent += 1;
                }
                match read_frame(stream)? {
                    FrameEvent::Frame(f) => responses.push(Response::decode(&f)?),
                    FrameEvent::Eof => {
                        return Err(WireError::Io(std::io::Error::new(
                            std::io::ErrorKind::UnexpectedEof,
                            "server closed the connection mid-pipeline",
                        )))
                    }
                    FrameEvent::Idle => {
                        return Err(WireError::Io(std::io::Error::new(
                            std::io::ErrorKind::TimedOut,
                            "timed out waiting for pipelined response",
                        )))
                    }
                }
            }
            Ok(responses)
        })();
        if matches!(result, Err(WireError::Io(_))) {
            self.stream = None;
        }
        result
    }

    /// Pipeline `rois.len()` VI queries (same opts) and return the
    /// meshes in request order. Error-class responses fail the call.
    pub fn vi_query_pipelined(
        &mut self,
        opts: QueryOpts,
        rois: &[(Rect, f64)],
        window: usize,
    ) -> WireResult<Vec<MeshResult>> {
        let reqs: Vec<Request> = rois
            .iter()
            .map(|&(roi, e)| Request::ViQuery { opts, roi, e })
            .collect();
        self.exchange_pipelined(&reqs, window)?
            .into_iter()
            .map(|resp| Self::expect_mesh(resp.into_result()?))
            .collect()
    }

    fn expect_mesh(resp: Response) -> WireResult<MeshResult> {
        match resp {
            Response::Mesh(m) => Ok(m),
            other => Err(WireError::Protocol(format!(
                "expected mesh response, got kind {:#04x}",
                other.kind()
            ))),
        }
    }

    /// Viewpoint-independent query.
    pub fn vi_query(&mut self, opts: QueryOpts, roi: Rect, e: f64) -> WireResult<MeshResult> {
        Self::expect_mesh(self.roundtrip(&Request::ViQuery { opts, roi, e })?)
    }

    /// Viewpoint-dependent multi-base query.
    pub fn vd_query(
        &mut self,
        opts: QueryOpts,
        query: VdQuery,
        policy: BoundaryPolicy,
        max_cubes: u32,
    ) -> WireResult<MeshResult> {
        Self::expect_mesh(self.roundtrip(&Request::VdQuery {
            opts,
            query,
            policy,
            max_cubes,
        })?)
    }

    /// Batched VI queries; returns the pool-level disk-access total and
    /// the per-query results in request order.
    pub fn batch_query(
        &mut self,
        opts: QueryOpts,
        queries: Vec<(Rect, f64)>,
    ) -> WireResult<(u64, Vec<MeshResult>)> {
        match self.roundtrip(&Request::BatchQuery { opts, queries })? {
            Response::Batch {
                total_disk_accesses,
                items,
            } => Ok((total_disk_accesses, items)),
            other => Err(WireError::Protocol(format!(
                "expected batch response, got kind {:#04x}",
                other.kind()
            ))),
        }
    }

    /// Open a server-side navigation session; returns its id.
    /// `full_requery` still travels on the wire but the server ignores
    /// it: every session frame is a full requery of its cubes.
    pub fn open_session(
        &mut self,
        policy: BoundaryPolicy,
        max_cubes: u32,
        full_requery: bool,
    ) -> WireResult<u64> {
        match self.roundtrip(&Request::OpenSession {
            policy,
            max_cubes,
            full_requery,
        })? {
            Response::SessionOpened { session } => Ok(session),
            other => Err(WireError::Protocol(format!(
                "expected session-opened response, got kind {:#04x}",
                other.kind()
            ))),
        }
    }

    /// Advance a session to a new viewpoint (full-frame answer).
    pub fn frame_query(
        &mut self,
        session: u64,
        query: VdQuery,
        degraded: bool,
    ) -> WireResult<MeshResult> {
        Self::expect_mesh(self.roundtrip(&Request::FrameQuery {
            session,
            query,
            degraded,
            stream: StreamMode::Full,
        })?)
    }

    /// Advance a session to a new viewpoint under an explicit stream
    /// mode, maintaining `mirror` so delta answers reconstruct the full
    /// mesh. Returns the reconstructed mesh — byte-identical to what a
    /// full-frame query would have answered — plus wire accounting.
    ///
    /// If a delta cannot be applied (stale mirror, corrupt patch), the
    /// mirror resets and the frame is re-fetched in full-frame mode: the
    /// session's front is already at the target viewpoint, so the re-run
    /// move is a no-op that answers the same mesh. Deltas are an
    /// optimization, never the sole source of truth.
    pub fn frame_query_streamed(
        &mut self,
        session: u64,
        query: VdQuery,
        degraded: bool,
        stream: StreamMode,
        mirror: &mut FrontMirror,
    ) -> WireResult<(MeshResult, StreamedFrame)> {
        let req = Request::FrameQuery {
            session,
            query,
            degraded,
            stream,
        };
        let (resp, sent, received) = self.exchange_counted(&req)?;
        let mut info = StreamedFrame {
            bytes_sent: sent,
            bytes_received: received,
            was_delta: false,
            resynced: false,
        };
        match resp {
            Response::Mesh(m) => {
                mirror.prime_full(mirror.seq().wrapping_add(1), &m);
                Ok((m, info))
            }
            Response::FrameDelta(d) => {
                info.was_delta = d.is_delta;
                match mirror.apply(&d) {
                    Ok(m) => Ok((m, info)),
                    Err(_) => {
                        // Mirror already reset itself; resync in full.
                        info.resynced = true;
                        info.was_delta = false;
                        let resync = Request::FrameQuery {
                            session,
                            query,
                            degraded,
                            stream: StreamMode::Full,
                        };
                        let (resp, sent, received) = self.exchange_counted(&resync)?;
                        info.bytes_sent += sent;
                        info.bytes_received += received;
                        let m = Self::expect_mesh(resp)?;
                        mirror.prime_full(d.seq, &m);
                        Ok((m, info))
                    }
                }
            }
            other => Err(WireError::Protocol(format!(
                "expected mesh or frame-delta response, got kind {:#04x}",
                other.kind()
            ))),
        }
    }

    /// Viewpoint-independent query streamed as coarse-to-fine chunks.
    /// The reassembled mesh is byte-identical to [`Self::vi_query`]'s
    /// monolithic answer.
    pub fn vi_query_chunked(
        &mut self,
        opts: QueryOpts,
        roi: Rect,
        e: f64,
    ) -> WireResult<(MeshResult, ChunkedFetch)> {
        let opts = QueryOpts {
            chunked: true,
            ..opts
        };
        self.query_chunked(&Request::ViQuery { opts, roi, e })
    }

    /// Viewpoint-dependent query streamed as coarse-to-fine chunks.
    pub fn vd_query_chunked(
        &mut self,
        opts: QueryOpts,
        query: VdQuery,
        policy: BoundaryPolicy,
        max_cubes: u32,
    ) -> WireResult<(MeshResult, ChunkedFetch)> {
        let opts = QueryOpts {
            chunked: true,
            ..opts
        };
        self.query_chunked(&Request::VdQuery {
            opts,
            query,
            policy,
            max_cubes,
        })
    }

    /// Issue a chunk-mode query and reassemble the response stream.
    /// Overload answers retry the whole exchange; a monolithic mesh
    /// answer (small results, older servers) is accepted as-is.
    fn query_chunked(&mut self, req: &Request) -> WireResult<(MeshResult, ChunkedFetch)> {
        let mut overload_attempts = 0u32;
        loop {
            match self.query_chunked_once(req) {
                Err(WireError::Overloaded { retry_after_ms })
                    if overload_attempts < self.config.overload_retries =>
                {
                    overload_attempts += 1;
                    std::thread::sleep(Duration::from_millis(retry_after_ms.clamp(1, 1000)));
                }
                other => return other,
            }
        }
    }

    fn query_chunked_once(&mut self, req: &Request) -> WireResult<(MeshResult, ChunkedFetch)> {
        let payload = req.encode();
        let mut fetch = ChunkedFetch {
            bytes_sent: request_wire_size(&payload),
            ..ChunkedFetch::default()
        };
        if self.stream.is_none() {
            self.reconnect()?;
        }
        let start = Instant::now();
        let result = (|| {
            let stream = self.stream.as_mut().expect("reconnect populated stream");
            {
                let mut w = BufWriter::new(&mut *stream);
                write_frame(&mut w, req.kind(), &payload)?;
            }
            let mut asm = ChunkAssembler::new();
            loop {
                let frame = match read_frame(stream)? {
                    FrameEvent::Frame(f) => f,
                    FrameEvent::Eof => {
                        return Err(WireError::Io(std::io::Error::new(
                            std::io::ErrorKind::UnexpectedEof,
                            "server closed the connection mid-stream",
                        )))
                    }
                    FrameEvent::Idle => {
                        return Err(WireError::Io(std::io::Error::new(
                            std::io::ErrorKind::TimedOut,
                            "timed out waiting for mesh chunk",
                        )))
                    }
                };
                fetch.bytes_received += frame_wire_size(&frame);
                match Response::decode(&frame)?.into_result()? {
                    Response::MeshChunk(chunk) => {
                        fetch.chunks += 1;
                        let done = asm.push(chunk)?;
                        if fetch.time_to_first_triangle.is_none() && asm.triangles_so_far() > 0 {
                            fetch.bytes_to_first_triangle = fetch.bytes_received;
                            fetch.time_to_first_triangle = Some(start.elapsed());
                        }
                        if let Some(mesh) = done {
                            return Ok(mesh);
                        }
                    }
                    Response::Mesh(m) => {
                        if fetch.time_to_first_triangle.is_none() && !m.faces.is_empty() {
                            fetch.bytes_to_first_triangle = fetch.bytes_received;
                            fetch.time_to_first_triangle = Some(start.elapsed());
                        }
                        return Ok(m);
                    }
                    other => {
                        return Err(WireError::Protocol(format!(
                            "expected mesh chunk, got kind {:#04x}",
                            other.kind()
                        )))
                    }
                }
            }
        })();
        if matches!(result, Err(WireError::Io(_))) {
            self.stream = None;
        }
        result.map(|mesh| (mesh, fetch))
    }

    /// Close a session.
    pub fn close_session(&mut self, session: u64) -> WireResult<()> {
        match self.roundtrip(&Request::CloseSession { session })? {
            Response::SessionClosed => Ok(()),
            other => Err(WireError::Protocol(format!(
                "expected session-closed response, got kind {:#04x}",
                other.kind()
            ))),
        }
    }

    /// Database summary plus the LODs the keep-fractions resolve to.
    pub fn stats(&mut self, resolve_keep: Vec<f64>) -> WireResult<(DbStats, Vec<f64>)> {
        let (stats, resolved_e, _, _) = self.stats_with_counters(resolve_keep)?;
        Ok((stats, resolved_e))
    }

    /// Like [`Self::stats`], additionally returning this connection's
    /// and the server-aggregate streaming byte/frame counters.
    pub fn stats_with_counters(
        &mut self,
        resolve_keep: Vec<f64>,
    ) -> WireResult<(DbStats, Vec<f64>, StreamCounters, StreamCounters)> {
        match self.roundtrip(&Request::Stats { resolve_keep })? {
            Response::Stats {
                stats,
                resolved_e,
                conn,
                totals,
            } => Ok((stats, resolved_e, conn, totals)),
            other => Err(WireError::Protocol(format!(
                "expected stats response, got kind {:#04x}",
                other.kind()
            ))),
        }
    }

    /// Per-region world-catalog counters, in manifest order. A
    /// single-terrain server answers `BadRequest` (surfaced as
    /// [`WireError::Remote`]).
    pub fn world_stats(&mut self) -> WireResult<Vec<RegionWireStats>> {
        match self.roundtrip(&Request::WorldStats)? {
            Response::WorldStats { regions } => Ok(regions),
            other => Err(WireError::Protocol(format!(
                "expected world-stats response, got kind {:#04x}",
                other.kind()
            ))),
        }
    }

    /// Ask the server to shut down; resolves once it acknowledges.
    pub fn shutdown_server(&mut self) -> WireResult<()> {
        match self.roundtrip(&Request::Shutdown)? {
            Response::ShutdownAck => Ok(()),
            other => Err(WireError::Protocol(format!(
                "expected shutdown ack, got kind {:#04x}",
                other.kind()
            ))),
        }
    }
}
