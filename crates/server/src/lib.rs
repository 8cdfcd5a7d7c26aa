//! dm-server: a TCP query service over one [`DirectMeshDb`].
//!
//! Architecture — a non-blocking readiness event loop in front of a
//! bounded execute pool:
//!
//! * one **reactor thread** (the [`Server::serve`] caller) multiplexes
//!   *all* connections through a vendored epoll/poll shim
//!   ([`polling::Poller`]): it accepts, reads whatever bytes each socket
//!   has, reassembles frames incrementally
//!   ([`dm_net::frame::FrameAssembler`]), decodes requests, and drains
//!   per-connection write queues — never blocking on any one peer,
//! * a **bounded worker pool** executes requests: the reactor hands a
//!   worker one `(connection, request)` job at a time and the worker
//!   hands back a pre-encoded response frame, waking the reactor via
//!   [`polling::Poller::notify`]. Decode (reactor) → execute (worker) →
//!   encode (worker) → write (reactor) are decoupled stages, so a query
//!   worker never blocks on a slow socket,
//! * **pipelining**: a connection may send many requests back-to-back;
//!   the reactor queues up to `max_pipeline` decoded requests and
//!   dispatches them **strictly serially per connection** (one request on
//!   one worker thread at a time), so responses come back in request
//!   order and the thread-attributed disk-read counter
//!   ([`dm_storage::thread_reads`]) stays exact per request,
//! * **slow-reader defense by byte budget**: responses queue per
//!   connection; a peer that reads too slowly to keep its queue under
//!   `write_budget` bytes is disconnected (counted, typed) — neither the
//!   reactor nor any worker ever wedges on it. A peer that stalls
//!   mid-frame longer than `frame_stall_timeout` is likewise shed,
//! * **admission control**: a global in-flight permit counter; when
//!   `max_inflight` query-class requests are already executing, further
//!   ones get a typed `Overloaded` response (with a retry hint) instead
//!   of queueing unboundedly. Permits are taken at dispatch time on the
//!   reactor, so refusals still come back in request order,
//! * **sessions**: `OpenSession` creates a server-side
//!   [`NavigationSession`] over the host's record store — a world
//!   session also pins the regions under its latest frame
//!   ([`WorldSession`]); frames advance it exactly like a local
//!   walkthrough. Sessions are connection-scoped and bounded;
//!   their state travels with each job and returns with its completion,
//!   preserving the one-request-one-thread attribution contract.

#![forbid(unsafe_code)]

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use dm_core::parallel::par_map;
use dm_core::query::{vd_multi_base, vi_query_flat};
use dm_core::{
    BoundaryPolicy, DirectMeshDb, FetchCounters, NavigationSession, RecordStore, VdQuery,
};
use dm_geom::Rect;
use dm_net::frame::{encode_frame, FrameAssembler};
use dm_net::mesh::{
    canonical_flat, canonical_mesh, canonical_mesh_into, MeshResult, ResultTail, WireVertex,
};
use dm_net::proto::{ErrorCode, QueryScope, RegionWireStats, Request, Response, StreamCounters};
use dm_net::stream::{
    diff_frames, split_coarse_to_fine, FrameDelta, StreamMode, FIRST_CHUNK_VERTICES,
};
use dm_net::wire::Writer;
use dm_world::{WorldDb, WorldSession};
use polling::{Interest, Poller};

/// What a server instance hosts: one terrain store, or a whole world
/// catalog of regions behind [`WorldDb`]. `Copy` — every worker and the
/// reactor hold the same borrowed handle.
#[derive(Clone, Copy)]
pub enum Host<'db> {
    Single(&'db DirectMeshDb),
    World(&'db WorldDb),
}

impl Host<'_> {
    /// Run `f` over the query seam the request's scope names — the
    /// store, the whole world, or one region of it — after the
    /// paper-protocol flush + statistics reset when `cold` is set.
    /// Region scope on a single-terrain server, and an unknown region id
    /// on a world server, are typed `BadRequest`s.
    fn with_scope<R>(
        self,
        scope: QueryScope,
        cold: bool,
        f: impl FnOnce(&dyn RecordStore) -> Result<R, Box<Response>>,
    ) -> Result<R, Box<Response>> {
        match self {
            Host::Single(db) => {
                if let QueryScope::Region(id) = scope {
                    return Err(bad_request(format!(
                        "region scope {id} on a single-terrain server"
                    )));
                }
                if cold {
                    db.try_cold_start().map_err(storage_error)?;
                }
                f(db)
            }
            Host::World(w) => {
                let region = match scope {
                    QueryScope::World => None,
                    QueryScope::Region(id) => Some(
                        w.resolve_region_id(id)
                            .ok_or_else(|| bad_request(format!("unknown region id {id}")))?,
                    ),
                };
                if cold {
                    w.try_cold_start().map_err(storage_error)?;
                }
                f(&w.scoped(region))
            }
        }
    }
}

/// Reactor poll tick: bounds how stale shutdown/stall checks can get.
const TICK: Duration = Duration::from_millis(25);
/// Poller key reserved for the listener.
const LISTEN_KEY: usize = 0;

/// Tuning knobs for [`Server`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Worker threads executing requests (the reactor runs besides them).
    pub workers: usize,
    /// Query-class requests allowed to execute concurrently before the
    /// server answers `Overloaded`.
    pub max_inflight: usize,
    /// Bytes of encoded responses one connection may have queued before
    /// it is disconnected as a slow reader.
    pub write_budget: usize,
    /// How long a peer may stall mid-frame (bytes owed, none arriving)
    /// before the connection is shed.
    pub frame_stall_timeout: Duration,
    /// Decoded requests one connection may have waiting for dispatch;
    /// beyond this the reactor stops reading the socket (backpressure).
    pub max_pipeline: usize,
    /// Navigation sessions one connection may hold open.
    pub max_sessions_per_conn: usize,
    /// Retry hint carried by `Overloaded` responses.
    pub retry_after_ms: u64,
    /// After shutdown, how long connections get to finish queued work
    /// and flush before they are force-closed.
    pub drain_grace: Duration,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: 4,
            max_inflight: 8,
            write_budget: 32 << 20,
            frame_stall_timeout: Duration::from_secs(30),
            max_pipeline: 64,
            max_sessions_per_conn: 8,
            retry_after_ms: 50,
            drain_grace: Duration::from_secs(1),
        }
    }
}

/// Counters [`Server::serve`] returns once the server has drained.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted.
    pub connections: u64,
    /// Frames successfully received and dispatched.
    pub requests: u64,
    /// Error-class responses sent (bad requests, storage failures, …).
    pub errors: u64,
    /// Requests refused by admission control.
    pub overloaded: u64,
    /// Connections dropped for exceeding their response-queue byte
    /// budget (peer reads too slowly or not at all).
    pub slow_disconnects: u64,
    /// Connections dropped for stalling mid-frame past the deadline.
    pub stalled_disconnects: u64,
    /// Request bytes read off all sockets, framing included.
    pub bytes_in: u64,
    /// Response bytes written to all sockets, framing included.
    pub bytes_out: u64,
    /// Navigation frames answered as delta patches.
    pub delta_frames: u64,
    /// Navigation frames answered in full (monolithic mesh or reset).
    pub full_frames: u64,
}

/// Clonable handle that asks a running [`Server::serve`] call to stop
/// accepting work and drain.
#[derive(Clone)]
pub struct ShutdownHandle(Arc<AtomicBool>);

impl ShutdownHandle {
    pub fn shutdown(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    pub fn is_shutdown(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// Global in-flight permit counter (admission control). Acquired on the
/// reactor at dispatch time, released by the worker after execution.
struct Admission {
    inflight: AtomicUsize,
    max: usize,
}

impl Admission {
    fn try_acquire(&self) -> bool {
        let mut cur = self.inflight.load(Ordering::Acquire);
        loop {
            if cur >= self.max {
                return false;
            }
            match self.inflight.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return true,
                Err(now) => cur = now,
            }
        }
    }

    fn release(&self) {
        self.inflight.fetch_sub(1, Ordering::Release);
    }
}

#[derive(Default)]
struct Counters {
    connections: AtomicU64,
    requests: AtomicU64,
    errors: AtomicU64,
    overloaded: AtomicU64,
    slow_disconnects: AtomicU64,
    stalled_disconnects: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    delta_frames: AtomicU64,
    full_frames: AtomicU64,
}

/// State the reactor and all workers share.
struct Shared {
    config: ServerConfig,
    shutdown: Arc<AtomicBool>,
    admission: Admission,
    counters: Counters,
}

/// Per-session delta-stream state: the previous frame's canonical form
/// (the diff base) plus scratch buffers reused across frames so the
/// per-frame canonicalize/encode path stops reallocating.
struct StreamState {
    /// Sequence number of the last delta-class answer.
    seq: u64,
    /// `prev_*` hold a valid diff base. Cleared by full-frame answers
    /// and by error responses: the delta chain only spans consecutive
    /// delta-mode frames the client provably saw.
    has_prev: bool,
    prev_vertices: Vec<WireVertex>,
    prev_faces: Vec<[u32; 3]>,
    scratch_vertices: Vec<WireVertex>,
    scratch_faces: Vec<[u32; 3]>,
    /// Reused encoder for the full form in the delta-vs-full size cutover.
    enc: Writer,
}

impl Default for StreamState {
    fn default() -> StreamState {
        StreamState {
            seq: 0,
            has_prev: false,
            prev_vertices: Vec::new(),
            prev_faces: Vec::new(),
            scratch_vertices: Vec::new(),
            scratch_faces: Vec::new(),
            enc: Writer::new(),
        }
    }
}

/// The pins of a session over a world ([`WorldSession`]). Dropping the
/// guard releases them — on explicit close, on connection teardown and
/// on server drain alike — so eviction never wedges on a vanished
/// client.
struct WorldPins<'db> {
    world: &'db WorldDb,
    session: WorldSession,
}

impl Drop for WorldPins<'_> {
    fn drop(&mut self) {
        self.session.close(self.world);
    }
}

/// A navigation session over the host's record store, the pins it holds
/// on a world host, and its wire-stream state.
struct SessionSlot<'db> {
    nav: NavigationSession<'db, dyn RecordStore + 'db>,
    pins: Option<WorldPins<'db>>,
    stream: StreamState,
}

impl SessionSlot<'_> {
    /// Advance the session one frame, inside its pins on a world host,
    /// and hand back the frame's accounting tail; the frame's mesh is
    /// then `self.nav.front()`.
    fn advance(&mut self, q: &VdQuery) -> dm_storage::StorageResult<ResultTail> {
        let nav = &mut self.nav;
        let (stats, report) = match &mut self.pins {
            Some(p) => p
                .session
                .pinned_around(p.world, &q.roi, || nav.try_move_to(q))?,
            None => nav.try_move_to(q)?,
        };
        Ok(ResultTail {
            fetched_records: stats.fetched_records as u64,
            disk_accesses: stats.disk_accesses,
            cubes: stats.cubes as u32,
            counters: FetchCounters {
                pages_scanned: stats.pages_scanned,
                records_examined: stats.examined_records,
                records_decoded: stats.decoded_records,
            },
            report,
        })
    }
}

/// Per-connection state: the navigation sessions this client opened.
/// Travels with each dispatched job (per-connection execution is serial,
/// so exactly one of reactor/worker holds it at any time).
struct ConnState<'db> {
    sessions: HashMap<u64, SessionSlot<'db>>,
    next_session: u64,
    /// Streaming counters reported by `Stats`: byte totals are
    /// snapshotted from the reactor's `Conn` at dispatch time (exact —
    /// per-connection execution is serial), frame counts are maintained
    /// here by the worker.
    counters: StreamCounters,
    /// Payload of the one response the request in flight returns, when
    /// its handler had to serialize it anyway (the `Auto` size cutover):
    /// the worker frames these bytes instead of encoding again.
    encoded: Option<Vec<u8>>,
}

/// One unit of work for the execute pool.
struct Job<'db> {
    token: usize,
    req: Request,
    state: ConnState<'db>,
    /// Whether this job holds an admission permit to release.
    permit: bool,
}

/// A (possibly partial) job result. Chunked answers post one completion
/// per frame *as each is encoded*, so the coarse prefix reaches the wire
/// while the worker is still encoding the fine tail; the connection
/// state rides only the final completion (`state: Some`), which is also
/// what re-opens dispatch for the connection.
struct Completion<'db> {
    token: usize,
    state: Option<ConnState<'db>>,
    frames: Vec<Vec<u8>>,
}

/// Jobs waiting for a worker.
struct JobQueue<'db> {
    state: Mutex<(VecDeque<Job<'db>>, bool)>,
    ready: Condvar,
}

impl<'db> JobQueue<'db> {
    fn new() -> Self {
        JobQueue {
            state: Mutex::new((VecDeque::new(), false)),
            ready: Condvar::new(),
        }
    }

    fn push(&self, job: Job<'db>) {
        let mut g = self.state.lock().unwrap();
        g.0.push_back(job);
        self.ready.notify_one();
    }

    fn pop(&self) -> Option<Job<'db>> {
        let mut g = self.state.lock().unwrap();
        loop {
            if let Some(job) = g.0.pop_front() {
                return Some(job);
            }
            if g.1 {
                return None;
            }
            g = self.ready.wait(g).unwrap();
        }
    }

    fn close(&self) {
        let mut g = self.state.lock().unwrap();
        g.1 = true;
        self.ready.notify_all();
    }
}

/// An entry in a connection's ordered pending queue: either a request to
/// execute or a response already produced on the reactor (overload
/// refusals, shutdown acks, teardown errors) that must still go out in
/// arrival order behind earlier requests.
enum PendingItem {
    Exec(Request),
    Reply(Vec<u8>),
}

/// Reactor-side connection record.
struct Conn<'db> {
    stream: TcpStream,
    asm: FrameAssembler,
    pending: VecDeque<PendingItem>,
    write_q: VecDeque<Vec<u8>>,
    /// Bytes of `write_q.front()` already written.
    write_off: usize,
    queued_bytes: usize,
    /// `None` exactly while a job for this connection is executing.
    state: Option<ConnState<'db>>,
    inflight: bool,
    /// Reader side open: new frames are still being accepted.
    reading: bool,
    /// Close once pending work is done and the write queue is flushed.
    close_after_flush: bool,
    last_byte: Instant,
    interest: Interest,
    /// Request bytes read off this socket, framing included.
    bytes_in: u64,
    /// Response bytes written to this socket, framing included.
    bytes_out: u64,
}

/// A bound-but-not-yet-serving query server.
pub struct Server {
    listener: TcpListener,
    config: ServerConfig,
    shutdown: Arc<AtomicBool>,
}

impl Server {
    /// Bind the listener. `addr` may use port 0 to let the OS pick; read
    /// the result back with [`Self::local_addr`].
    pub fn bind(addr: &str, config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(Server {
            listener,
            config,
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Handle for asking the server to drain (from another thread or
    /// from a `Shutdown` request, which uses the same flag).
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle(Arc::clone(&self.shutdown))
    }

    /// Serve `db` until shut down. Blocks the calling thread (the
    /// reactor runs on it); workers run inside a [`std::thread::scope`]
    /// and are all joined before this returns.
    pub fn serve(&self, db: &DirectMeshDb) -> io::Result<ServerStats> {
        self.serve_host(Host::Single(db))
    }

    /// Serve a multi-region world catalog until shut down. Queries fan
    /// out across regions (or one region under `QueryScope::Region`);
    /// sessions pin the regions they touch, released on close *and* on
    /// connection teardown so eviction can proceed.
    pub fn serve_world(&self, world: &WorldDb) -> io::Result<ServerStats> {
        self.serve_host(Host::World(world))
    }

    fn serve_host(&self, host: Host<'_>) -> io::Result<ServerStats> {
        let shared = Shared {
            config: self.config.clone(),
            shutdown: Arc::clone(&self.shutdown),
            admission: Admission {
                inflight: AtomicUsize::new(0),
                max: self.config.max_inflight,
            },
            counters: Counters::default(),
        };
        let jobs = JobQueue::new();
        let completions: Mutex<Vec<Completion<'_>>> = Mutex::new(Vec::new());
        let poller = Poller::new()?;
        let workers = self.config.workers.max(1);

        let run = std::thread::scope(|s| {
            for _ in 0..workers {
                let jobs = &jobs;
                let completions = &completions;
                let shared = &shared;
                let poller = &poller;
                s.spawn(move || worker_loop(host, jobs, completions, shared, poller));
            }
            let mut reactor = Reactor {
                poller: &poller,
                listener: &self.listener,
                shared: &shared,
                jobs: &jobs,
                completions: &completions,
                conns: HashMap::new(),
                next_token: LISTEN_KEY + 1,
                accepting: true,
                drain_deadline: None,
            };
            let out = reactor.run();
            jobs.close();
            out
        });
        run?;

        Ok(ServerStats {
            connections: shared.counters.connections.load(Ordering::Relaxed),
            requests: shared.counters.requests.load(Ordering::Relaxed),
            errors: shared.counters.errors.load(Ordering::Relaxed),
            overloaded: shared.counters.overloaded.load(Ordering::Relaxed),
            slow_disconnects: shared.counters.slow_disconnects.load(Ordering::Relaxed),
            stalled_disconnects: shared.counters.stalled_disconnects.load(Ordering::Relaxed),
            bytes_in: shared.counters.bytes_in.load(Ordering::Relaxed),
            bytes_out: shared.counters.bytes_out.load(Ordering::Relaxed),
            delta_frames: shared.counters.delta_frames.load(Ordering::Relaxed),
            full_frames: shared.counters.full_frames.load(Ordering::Relaxed),
        })
    }
}

/// Does this request class consume an admission permit? Queries do;
/// session bookkeeping, stats and shutdown are cheap and always answered.
fn needs_permit(req: &Request) -> bool {
    matches!(
        req,
        Request::ViQuery { .. }
            | Request::VdQuery { .. }
            | Request::BatchQuery { .. }
            | Request::FrameQuery { .. }
    )
}

fn worker_loop<'db>(
    host: Host<'db>,
    jobs: &JobQueue<'db>,
    completions: &Mutex<Vec<Completion<'db>>>,
    shared: &Shared,
    poller: &Poller,
) {
    while let Some(job) = jobs.pop() {
        let Job {
            token,
            req,
            mut state,
            permit,
        } = job;
        let resps = handle_request(host, req, &mut state, shared);
        if permit {
            shared.admission.release();
        }
        if resps.iter().any(|r| matches!(r, Response::Error { .. })) {
            shared.counters.errors.fetch_add(1, Ordering::Relaxed);
        }
        // Encode on the worker: the reactor only moves finished bytes.
        // Multi-frame answers (chunked meshes) ship each frame the
        // moment it is encoded — time-to-first-triangle must not wait
        // for the fine tail of the payload to be serialized. The state
        // rides the *final* completion, which re-opens dispatch.
        let mut encoded = state.encoded.take();
        let mut state = Some(state);
        let last = resps.len().saturating_sub(1);
        if resps.is_empty() {
            completions.lock().unwrap().push(Completion {
                token,
                state: state.take(),
                frames: Vec::new(),
            });
            poller.notify().ok();
        }
        for (i, r) in resps.iter().enumerate() {
            let payload = encoded.take().unwrap_or_else(|| r.encode());
            let frame = encode_frame(r.kind(), &payload);
            completions.lock().unwrap().push(Completion {
                token,
                state: if i == last { state.take() } else { None },
                frames: vec![frame],
            });
            poller.notify().ok();
        }
    }
}

struct Reactor<'db, 'env> {
    poller: &'env Poller,
    listener: &'env TcpListener,
    shared: &'env Shared,
    jobs: &'env JobQueue<'db>,
    completions: &'env Mutex<Vec<Completion<'db>>>,
    conns: HashMap<usize, Conn<'db>>,
    next_token: usize,
    accepting: bool,
    drain_deadline: Option<Instant>,
}

impl<'db> Reactor<'db, '_> {
    fn run(&mut self) -> io::Result<()> {
        self.poller
            .add(self.listener.as_raw_fd(), LISTEN_KEY, Interest::READ)?;
        let mut events = Vec::new();
        loop {
            self.drain_completions();

            if self.shared.shutdown.load(Ordering::SeqCst) {
                self.begin_drain();
                if self.conns.is_empty() {
                    break;
                }
                if self
                    .drain_deadline
                    .is_some_and(|deadline| Instant::now() >= deadline)
                {
                    let tokens: Vec<usize> = self.conns.keys().copied().collect();
                    for token in tokens {
                        self.close(token);
                    }
                    break;
                }
            }

            events.clear();
            self.poller.wait(&mut events, Some(TICK))?;
            for &ev in &events {
                if ev.key == LISTEN_KEY {
                    self.accept_ready();
                    continue;
                }
                if !self.conns.contains_key(&ev.key) {
                    continue; // closed earlier this round
                }
                if ev.readable {
                    self.handle_readable(ev.key);
                }
                if ev.writable {
                    self.handle_writable(ev.key);
                }
            }
            self.check_stalls();
        }
        self.poller.delete(self.listener.as_raw_fd()).ok();
        Ok(())
    }

    fn begin_drain(&mut self) {
        if self.drain_deadline.is_some() {
            return;
        }
        self.drain_deadline = Some(Instant::now() + self.shared.config.drain_grace);
        if self.accepting {
            self.accepting = false;
            self.poller.delete(self.listener.as_raw_fd()).ok();
        }
        // Existing connections finish queued work and flush, then close.
        let tokens: Vec<usize> = self.conns.keys().copied().collect();
        for token in tokens {
            if let Some(conn) = self.conns.get_mut(&token) {
                conn.close_after_flush = true;
            }
            self.after_io(token);
        }
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    if !self.accepting {
                        continue; // drained while the event was in flight
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    stream.set_nodelay(true).ok();
                    let token = self.next_token;
                    self.next_token += 1;
                    if self
                        .poller
                        .add(stream.as_raw_fd(), token, Interest::READ)
                        .is_err()
                    {
                        continue;
                    }
                    self.shared
                        .counters
                        .connections
                        .fetch_add(1, Ordering::Relaxed);
                    self.conns.insert(
                        token,
                        Conn {
                            stream,
                            asm: FrameAssembler::new(),
                            pending: VecDeque::new(),
                            write_q: VecDeque::new(),
                            write_off: 0,
                            queued_bytes: 0,
                            state: Some(ConnState {
                                sessions: HashMap::new(),
                                next_session: 1,
                                counters: StreamCounters::default(),
                                encoded: None,
                            }),
                            inflight: false,
                            reading: true,
                            close_after_flush: false,
                            last_byte: Instant::now(),
                            interest: Interest::READ,
                            bytes_in: 0,
                            bytes_out: 0,
                        },
                    );
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    /// Read everything the socket has, reassemble frames, decode and
    /// queue requests. Never blocks: the socket is non-blocking and the
    /// loop exits on `WouldBlock`.
    fn handle_readable(&mut self, token: usize) {
        let mut buf = [0u8; 64 * 1024];
        let shared = self.shared;
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let mut saw_eof = false;
        loop {
            match conn.stream.read(&mut buf) {
                Ok(0) => {
                    saw_eof = true;
                    break;
                }
                Ok(n) => {
                    conn.asm.push(&buf[..n]);
                    conn.bytes_in += n as u64;
                    shared
                        .counters
                        .bytes_in
                        .fetch_add(n as u64, Ordering::Relaxed);
                    conn.last_byte = Instant::now();
                    // Cap how much we buffer ahead of the parser.
                    if conn.asm.buffered() > (64 << 20) + (64 * 1024) {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(token);
                    return;
                }
            }
        }
        // Parse what we buffered *before* honoring EOF, so a peer that
        // writes and immediately closes still gets its frames handled.
        self.parse_frames(token);
        if saw_eof {
            if let Some(conn) = self.conns.get_mut(&token) {
                // Clean EOF: finish queued work, flush, then close.
                conn.reading = false;
                conn.close_after_flush = true;
            }
        }
        self.try_dispatch(token);
        self.after_io(token);
    }

    /// Decode as many complete frames as the assembler holds into
    /// pending items (in arrival order).
    fn parse_frames(&mut self, token: usize) {
        let shared = self.shared;
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        while conn.reading {
            match conn.asm.next_frame() {
                Ok(None) => break,
                Ok(Some(frame)) => {
                    shared.counters.requests.fetch_add(1, Ordering::Relaxed);
                    match Request::decode(&frame) {
                        Ok(Request::Shutdown) => {
                            // Fast-path on the reactor: flip the flag now,
                            // acknowledge in order behind earlier requests.
                            shared.shutdown.store(true, Ordering::SeqCst);
                            let ack = Response::ShutdownAck;
                            conn.pending.push_back(PendingItem::Reply(encode_frame(
                                ack.kind(),
                                &ack.encode(),
                            )));
                            conn.reading = false;
                            conn.close_after_flush = true;
                        }
                        Ok(req) => {
                            if shared.shutdown.load(Ordering::SeqCst) {
                                let resp = Response::Error {
                                    code: ErrorCode::ShuttingDown,
                                    message: "server is draining".to_string(),
                                };
                                conn.pending.push_back(PendingItem::Reply(encode_frame(
                                    resp.kind(),
                                    &resp.encode(),
                                )));
                                conn.reading = false;
                                conn.close_after_flush = true;
                            } else {
                                conn.pending.push_back(PendingItem::Exec(req));
                            }
                        }
                        Err(e) => {
                            shared.counters.errors.fetch_add(1, Ordering::Relaxed);
                            let resp = Response::Error {
                                code: ErrorCode::BadRequest,
                                message: format!("bad request: {e}"),
                            };
                            conn.pending.push_back(PendingItem::Reply(encode_frame(
                                resp.kind(),
                                &resp.encode(),
                            )));
                            conn.reading = false;
                            conn.close_after_flush = true;
                        }
                    }
                }
                Err(e) => {
                    // Framing is desynchronized (bad magic, CRC): answer
                    // in order if possible, then drop the connection.
                    shared.counters.errors.fetch_add(1, Ordering::Relaxed);
                    let resp = Response::Error {
                        code: ErrorCode::BadRequest,
                        message: format!("unreadable frame: {e}"),
                    };
                    conn.pending.push_back(PendingItem::Reply(encode_frame(
                        resp.kind(),
                        &resp.encode(),
                    )));
                    conn.reading = false;
                    conn.close_after_flush = true;
                }
            }
        }
    }

    /// Dispatch pending items while the connection has no request in
    /// flight: pre-encoded replies go straight to the write queue;
    /// requests go to the worker pool (at most one at a time, preserving
    /// response order and per-request counter attribution).
    fn try_dispatch(&mut self, token: usize) {
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if conn.inflight {
                return;
            }
            match conn.pending.front() {
                None => return,
                Some(PendingItem::Reply(_)) => {
                    let Some(PendingItem::Reply(bytes)) = conn.pending.pop_front() else {
                        unreachable!("front() said Reply");
                    };
                    if !self.enqueue_bytes(token, bytes) {
                        return; // connection was shed or died
                    }
                }
                Some(PendingItem::Exec(req)) => {
                    let permit = needs_permit(req);
                    if permit && !self.shared.admission.try_acquire() {
                        self.shared
                            .counters
                            .overloaded
                            .fetch_add(1, Ordering::Relaxed);
                        conn.pending.pop_front();
                        let resp = Response::Overloaded {
                            retry_after_ms: self.shared.config.retry_after_ms,
                        };
                        let bytes = encode_frame(resp.kind(), &resp.encode());
                        if !self.enqueue_bytes(token, bytes) {
                            return;
                        }
                        continue;
                    }
                    let Some(PendingItem::Exec(req)) = conn.pending.pop_front() else {
                        unreachable!("front() said Exec");
                    };
                    let mut state = conn
                        .state
                        .take()
                        .expect("connection state present while idle");
                    // Snapshot byte totals for `Stats` answers; exact
                    // because this connection executes serially.
                    state.counters.bytes_in = conn.bytes_in;
                    state.counters.bytes_out = conn.bytes_out;
                    conn.inflight = true;
                    self.jobs.push(Job {
                        token,
                        req,
                        state,
                        permit,
                    });
                }
            }
        }
    }

    /// Hand finished jobs' responses back to their connections. A
    /// multi-frame answer (chunked mesh) enters the write queue as
    /// separate entries, each subject to the byte budget.
    fn drain_completions(&mut self) {
        let done: Vec<Completion<'db>> = std::mem::take(&mut *self.completions.lock().unwrap());
        for completion in done {
            let Some(conn) = self.conns.get_mut(&completion.token) else {
                // Connection closed while the job ran: its state comes
                // home here and drops, releasing any world-session pins.
                continue;
            };
            if let Some(state) = completion.state {
                conn.state = Some(state);
                conn.inflight = false;
            }
            let token = completion.token;
            let mut alive = true;
            for bytes in completion.frames {
                if !self.enqueue_bytes(token, bytes) {
                    alive = false;
                    break; // connection was shed or died
                }
            }
            if !alive {
                continue;
            }
            self.try_dispatch(token);
            self.after_io(token);
        }
    }

    /// Queue an encoded response frame and opportunistically flush.
    /// Returns false when the connection was closed (slow-reader shed or
    /// I/O failure) — the caller must not touch it again.
    fn enqueue_bytes(&mut self, token: usize, bytes: Vec<u8>) -> bool {
        let budget = self.shared.config.write_budget;
        let shared = self.shared;
        let Some(conn) = self.conns.get_mut(&token) else {
            return false;
        };
        conn.queued_bytes += bytes.len();
        conn.write_q.push_back(bytes);
        match flush_writes(conn) {
            Ok(n) => shared.counters.bytes_out.fetch_add(n, Ordering::Relaxed),
            Err(_) => {
                self.close(token);
                return false;
            }
        };
        let conn = self.conns.get_mut(&token).expect("conn still present");
        if conn.queued_bytes > budget {
            // The peer is not reading fast enough to keep its response
            // queue bounded: shed it rather than buffer without limit.
            self.shared
                .counters
                .slow_disconnects
                .fetch_add(1, Ordering::Relaxed);
            self.close(token);
            return false;
        }
        true
    }

    fn handle_writable(&mut self, token: usize) {
        let shared = self.shared;
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        match flush_writes(conn) {
            Ok(n) => shared.counters.bytes_out.fetch_add(n, Ordering::Relaxed),
            Err(_) => {
                self.close(token);
                return;
            }
        };
        self.after_io(token);
    }

    /// Re-derive poller interest from the connection's current needs and
    /// close it if its teardown conditions are met.
    fn after_io(&mut self, token: usize) {
        let max_pipeline = self.shared.config.max_pipeline.max(1);
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.close_after_flush
            && !conn.inflight
            && conn.pending.is_empty()
            && conn.write_q.is_empty()
        {
            self.close(token);
            return;
        }
        let want = Interest {
            readable: conn.reading && conn.pending.len() < max_pipeline,
            writable: !conn.write_q.is_empty(),
        };
        if want != conn.interest {
            if self
                .poller
                .modify(conn.stream.as_raw_fd(), token, want)
                .is_err()
            {
                self.close(token);
                return;
            }
            conn.interest = want;
        }
    }

    /// Shed peers that owe us the rest of a frame but have sent nothing
    /// for longer than the stall deadline (e.g. a hostile trickler that
    /// simply stopped). Idle peers *between* frames are left alone.
    fn check_stalls(&mut self) {
        let deadline = self.shared.config.frame_stall_timeout;
        let stalled: Vec<usize> = self
            .conns
            .iter()
            .filter(|(_, c)| c.asm.mid_frame() && c.last_byte.elapsed() >= deadline)
            .map(|(&t, _)| t)
            .collect();
        for token in stalled {
            self.shared
                .counters
                .stalled_disconnects
                .fetch_add(1, Ordering::Relaxed);
            self.close(token);
        }
    }

    fn close(&mut self, token: usize) {
        // Dropping the connection drops its sessions, which releases
        // their region pins so LRU eviction can proceed. If a job is in
        // flight the state rides its completion instead (see
        // `drain_completions`).
        if let Some(conn) = self.conns.remove(&token) {
            self.poller.delete(conn.stream.as_raw_fd()).ok();
        }
    }
}

/// Write queued response bytes until the socket would block or the queue
/// empties; returns how many bytes went out. `Err` means the connection
/// is dead.
fn flush_writes(conn: &mut Conn<'_>) -> io::Result<u64> {
    let mut written = 0u64;
    while let Some(front) = conn.write_q.front() {
        match conn.stream.write(&front[conn.write_off..]) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "peer stopped accepting bytes",
                ))
            }
            Ok(n) => {
                conn.write_off += n;
                conn.queued_bytes -= n;
                written += n as u64;
                conn.bytes_out += n as u64;
                if conn.write_off == front.len() {
                    conn.write_q.pop_front();
                    conn.write_off = 0;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(written)
}

fn storage_error(e: impl std::fmt::Display) -> Box<Response> {
    Box::new(Response::Error {
        code: ErrorCode::Storage,
        message: format!("storage: {e}"),
    })
}

fn bad_request(message: String) -> Box<Response> {
    Box::new(Response::Error {
        code: ErrorCode::BadRequest,
        message,
    })
}

/// Run one VI query on this thread with exact per-request accounting.
/// Uses the flat fast path: canonical vertices and faces come straight
/// from the uniform cut, bit-identical to `canonical_mesh` over the
/// assembled front (same construction, see `try_vi_query_flat_counted`).
fn exec_vi(
    store: &dyn RecordStore,
    roi: &Rect,
    e: f64,
    degraded: bool,
    coarseness: Option<&mut Vec<f64>>,
) -> Result<MeshResult, Box<Response>> {
    let reads_before = dm_storage::thread_reads();
    let mut counters = FetchCounters::default();
    let (res, report) = vi_query_flat(store, roi, e, &mut counters).map_err(storage_error)?;
    if !degraded && !report.is_clean() {
        return Err(Box::new(Response::Error {
            code: ErrorCode::DataLoss,
            message: format!("vi query lost data: {report}"),
        }));
    }
    let (vertices, faces) = canonical_flat(&res.nodes, &res.faces);
    if let Some(c) = coarseness {
        // `canonical_flat` preserves the node order, so coarseness
        // aligns with the canonical vertex list by index.
        c.clear();
        c.extend(res.nodes.iter().map(|n| n.e_lo));
    }
    Ok(MeshResult {
        vertices,
        faces,
        fetched_records: res.fetched_records as u64,
        disk_accesses: dm_storage::thread_reads() - reads_before,
        cubes: 1,
        counters,
        report,
    })
}

fn exec_vd(
    store: &dyn RecordStore,
    query: &VdQuery,
    policy: BoundaryPolicy,
    max_cubes: u32,
    degraded: bool,
    coarseness: Option<&mut Vec<f64>>,
) -> Result<MeshResult, Box<Response>> {
    let reads_before = dm_storage::thread_reads();
    let mut counters = FetchCounters::default();
    let max_cubes = max_cubes.max(1) as usize;
    let (res, report) =
        vd_multi_base(store, query, policy, max_cubes, &mut counters).map_err(storage_error)?;
    if !degraded && !report.is_clean() {
        return Err(Box::new(Response::Error {
            code: ErrorCode::DataLoss,
            message: format!("vd query lost data: {report}"),
        }));
    }
    let (vertices, faces) = canonical_mesh(&res.front);
    if let Some(c) = coarseness {
        c.clear();
        c.extend(
            vertices
                .iter()
                .map(|v| res.front.node(v.id).map_or(0.0, |n| n.e_lo)),
        );
    }
    Ok(MeshResult {
        vertices,
        faces,
        fetched_records: res.fetched_records as u64,
        disk_accesses: dm_storage::thread_reads() - reads_before,
        cubes: res.cubes.len() as u32,
        counters,
        report,
    })
}

/// Split a finished mesh answer into coarse-to-fine chunk responses.
fn chunk_mesh(m: MeshResult, coarseness: &[f64]) -> Vec<Response> {
    let tail = m.tail();
    split_coarse_to_fine(
        &m.vertices,
        coarseness,
        &m.faces,
        tail,
        FIRST_CHUNK_VERTICES,
    )
    .into_iter()
    .map(Response::MeshChunk)
    .collect()
}

/// A finished VI/VD answer as its response frames: one `Mesh`, or the
/// coarse-to-fine `MeshChunk` sequence when the request asked for it.
fn mesh_answer(
    done: Result<MeshResult, Box<Response>>,
    chunked: bool,
    coarseness: &[f64],
) -> Vec<Response> {
    match done {
        Ok(m) if chunked => chunk_mesh(m, coarseness),
        Ok(m) => vec![Response::Mesh(m)],
        Err(resp) => vec![*resp],
    }
}

/// Fan a batch of VI queries over up to `threads` workers (contiguous
/// chunks, one spawned task per worker, input order — [`par_map`]). Each
/// item runs entirely on one thread, so its thread-attributed counters
/// stay exact even under parallel execution.
fn exec_batch(
    store: &dyn RecordStore,
    queries: &[(Rect, f64)],
    threads: u32,
    degraded: bool,
) -> Result<(u64, Vec<MeshResult>), Box<Response>> {
    let results = par_map(queries, threads as usize, |(roi, e)| {
        exec_vi(store, roi, *e, degraded, None)
    });
    let mut items = Vec::with_capacity(results.len());
    let mut total = 0u64;
    for (i, r) in results.into_iter().enumerate() {
        match r {
            Ok(m) => {
                total += m.disk_accesses;
                items.push(m);
            }
            Err(resp) => {
                return Err(match *resp {
                    Response::Error { code, message } => Box::new(Response::Error {
                        code,
                        message: format!("batch item {i}: {message}"),
                    }),
                    other => Box::new(other),
                });
            }
        }
    }
    Ok((total, items))
}

/// Execute one request into its response frame sequence — a single
/// response for everything except chunked queries, which stream several
/// `MeshChunk` frames.
fn handle_request<'db>(
    host: Host<'db>,
    req: Request,
    conn: &mut ConnState<'db>,
    shared: &Shared,
) -> Vec<Response> {
    match req {
        Request::ViQuery { opts, roi, e } => {
            let mut coarseness = Vec::new();
            let co = opts.chunked.then_some(&mut coarseness);
            let done = host.with_scope(opts.scope, opts.cold, |store| {
                exec_vi(store, &roi, e, opts.degraded, co)
            });
            mesh_answer(done, opts.chunked, &coarseness)
        }
        Request::VdQuery {
            opts,
            query,
            policy,
            max_cubes,
        } => {
            let mut coarseness = Vec::new();
            let co = opts.chunked.then_some(&mut coarseness);
            let done = host.with_scope(opts.scope, opts.cold, |store| {
                exec_vd(store, &query, policy, max_cubes, opts.degraded, co)
            });
            mesh_answer(done, opts.chunked, &coarseness)
        }
        Request::BatchQuery {
            opts,
            queries,
            threads,
        } => {
            // An empty batch is answered (after the scope check) without
            // the cold flush.
            let cold = opts.cold && !queries.is_empty();
            let done = host.with_scope(opts.scope, cold, |store| {
                exec_batch(store, &queries, threads, opts.degraded)
            });
            match done {
                Ok((total_disk_accesses, items)) => vec![Response::Batch {
                    total_disk_accesses,
                    items,
                }],
                Err(resp) => vec![*resp],
            }
        }
        // `full_requery` is accepted and ignored: every session frame is
        // a full requery of its cubes.
        Request::OpenSession {
            policy, max_cubes, ..
        } => {
            if conn.sessions.len() >= shared.config.max_sessions_per_conn {
                return vec![Response::Error {
                    code: ErrorCode::TooManySessions,
                    message: format!("connection already holds {} sessions", conn.sessions.len()),
                }];
            }
            let id = conn.next_session;
            conn.next_session += 1;
            let max_cubes = max_cubes.max(1) as usize;
            let (store, pins): (&'db dyn RecordStore, _) = match host {
                Host::Single(db) => (db, None),
                Host::World(world) => (
                    world,
                    Some(WorldPins {
                        world,
                        session: WorldSession::new(policy, max_cubes),
                    }),
                ),
            };
            conn.sessions.insert(
                id,
                SessionSlot {
                    nav: NavigationSession::new(store, policy).with_max_cubes(max_cubes),
                    pins,
                    stream: StreamState::default(),
                },
            );
            vec![Response::SessionOpened { session: id }]
        }
        Request::FrameQuery {
            session,
            query,
            degraded,
            stream,
        } => {
            let Some(slot) = conn.sessions.get_mut(&session) else {
                return vec![Response::Error {
                    code: ErrorCode::UnknownSession,
                    message: format!("session {session} is not open on this connection"),
                }];
            };
            // Advance the session, leaving the frame's canonical mesh in
            // the scratch buffers. Errors break the delta chain — the
            // client never saw this frame, so the next answer resets.
            let advanced = match slot.advance(&query) {
                Err(e) => Err(*storage_error(e)),
                Ok(tail) if !degraded && !tail.report.is_clean() => Err(Response::Error {
                    code: ErrorCode::DataLoss,
                    message: format!("frame lost data: {}", tail.report),
                }),
                Ok(tail) => {
                    canonical_mesh_into(
                        slot.nav.front(),
                        &mut slot.stream.scratch_vertices,
                        &mut slot.stream.scratch_faces,
                    );
                    Ok(tail)
                }
            };
            let st = &mut slot.stream;
            match advanced {
                Err(resp) => {
                    st.has_prev = false;
                    vec![resp]
                }
                Ok(tail) => {
                    if stream == StreamMode::Full {
                        // Monolithic answer; it carries no sequence
                        // number, so the delta chain breaks here.
                        st.has_prev = false;
                        conn.counters.full_frames += 1;
                        shared.counters.full_frames.fetch_add(1, Ordering::Relaxed);
                        return vec![Response::Mesh(MeshResult::from_parts(
                            st.scratch_vertices.clone(),
                            st.scratch_faces.clone(),
                            tail,
                        ))];
                    }
                    let next_seq = st.seq.wrapping_add(1);
                    let delta = if st.has_prev {
                        let (removed_vertices, added_vertices, removed_faces, added_faces) =
                            diff_frames(
                                &st.prev_vertices,
                                &st.prev_faces,
                                &st.scratch_vertices,
                                &st.scratch_faces,
                            );
                        let patch = FrameDelta {
                            seq: next_seq,
                            base_seq: st.seq,
                            is_delta: true,
                            removed_vertices,
                            added_vertices,
                            removed_faces,
                            added_faces,
                            tail: tail.clone(),
                        };
                        if stream == StreamMode::Auto {
                            // Size cutover: both forms answer the same
                            // frame; ship whichever encodes smaller. The
                            // full form is sized from the borrowed scratch
                            // buffers, and the winner's bytes go to the
                            // write path as they are.
                            let mut patch_bytes = Writer::new();
                            patch.encode(&mut patch_bytes);
                            st.enc.reset();
                            FrameDelta::encode_full_reset(
                                &mut st.enc,
                                next_seq,
                                &st.scratch_vertices,
                                &st.scratch_faces,
                                &tail,
                            );
                            if patch_bytes.len() <= st.enc.len() {
                                conn.encoded = Some(patch_bytes.into_inner());
                                patch
                            } else {
                                conn.encoded = Some(std::mem::take(&mut st.enc).into_inner());
                                FrameDelta::full_reset(
                                    next_seq,
                                    st.scratch_vertices.clone(),
                                    st.scratch_faces.clone(),
                                    tail,
                                )
                            }
                        } else {
                            patch
                        }
                    } else {
                        FrameDelta::full_reset(
                            next_seq,
                            st.scratch_vertices.clone(),
                            st.scratch_faces.clone(),
                            tail,
                        )
                    };
                    st.seq = next_seq;
                    std::mem::swap(&mut st.prev_vertices, &mut st.scratch_vertices);
                    std::mem::swap(&mut st.prev_faces, &mut st.scratch_faces);
                    st.has_prev = true;
                    if delta.is_delta {
                        conn.counters.delta_frames += 1;
                        shared.counters.delta_frames.fetch_add(1, Ordering::Relaxed);
                    } else {
                        conn.counters.full_frames += 1;
                        shared.counters.full_frames.fetch_add(1, Ordering::Relaxed);
                    }
                    vec![Response::FrameDelta(delta)]
                }
            }
        }
        Request::CloseSession { session } => {
            if conn.sessions.remove(&session).is_some() {
                vec![Response::SessionClosed]
            } else {
                vec![Response::Error {
                    code: ErrorCode::UnknownSession,
                    message: format!("session {session} is not open on this connection"),
                }]
            }
        }
        Request::Stats { resolve_keep } => {
            // Resolving a keep fraction may scan the heap for the interval
            // statistics (first use on a reattached store): an unreadable
            // page there is this request's error, not the server's.
            let resolve = |e_for: &dyn Fn(f64) -> dm_storage::StorageResult<f64>| {
                resolve_keep
                    .iter()
                    .map(|&k| e_for(k))
                    .collect::<dm_storage::StorageResult<Vec<f64>>>()
            };
            let resolved = match host {
                Host::Single(db) => resolve(&|k| db.try_e_for_points_fraction(k))
                    .map(|resolved| (db.stats_summary(), resolved)),
                Host::World(w) => w
                    .stats_summary()
                    .and_then(|stats| Ok((stats, resolve(&|k| w.e_for_points_fraction(k))?))),
            };
            let (stats, resolved_e) = match resolved {
                Ok(answer) => answer,
                Err(e) => return vec![*storage_error(e)],
            };
            vec![Response::Stats {
                stats,
                resolved_e,
                conn: conn.counters,
                totals: StreamCounters {
                    bytes_in: shared.counters.bytes_in.load(Ordering::Relaxed),
                    bytes_out: shared.counters.bytes_out.load(Ordering::Relaxed),
                    delta_frames: shared.counters.delta_frames.load(Ordering::Relaxed),
                    full_frames: shared.counters.full_frames.load(Ordering::Relaxed),
                },
            }]
        }
        Request::WorldStats => {
            let Host::World(w) = host else {
                return vec![*bad_request(
                    "world stats on a single-terrain server".to_string(),
                )];
            };
            vec![Response::WorldStats {
                regions: w
                    .region_stats()
                    .into_iter()
                    .map(|s| RegionWireStats {
                        id: s.id,
                        opens: s.opens,
                        evictions: s.evictions,
                        hits: s.hits,
                        queries: s.queries,
                        resident_pages: s.resident_pages,
                        open: s.open,
                    })
                    .collect(),
            }]
        }
        // Handled by the reactor before dispatch.
        Request::Shutdown => vec![Response::ShutdownAck],
    }
}

/// Test helper: the first 6 bytes of a valid frame (magic + version) —
/// a prefix that obliges the server to wait for the rest.
#[cfg(test)]
fn super_valid_prefix() -> Vec<u8> {
    let mut v = Vec::new();
    v.extend_from_slice(&dm_net::frame::MAGIC.to_le_bytes());
    v.extend_from_slice(&dm_net::frame::VERSION.to_le_bytes());
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use dm_core::DmBuildOptions;
    use dm_mtm::builder::{build_pm, PmBuildConfig};
    use dm_net::client::{Client, ClientConfig};
    use dm_net::frame::write_frame;
    use dm_net::proto::QueryOpts;
    use dm_net::wire::WireError;
    use dm_storage::{BufferPool, MemStore};
    use dm_terrain::{generate, TriMesh};

    fn tiny_db() -> DirectMeshDb {
        let hf = generate::fractal_terrain(17, 17, 7);
        let pm = build_pm(TriMesh::from_heightfield(&hf), &PmBuildConfig::default());
        let pool = Arc::new(BufferPool::new(Box::new(MemStore::new()), 4096));
        DirectMeshDb::build(pool, &pm, &DmBuildOptions::default())
    }

    fn with_server<R>(
        config: ServerConfig,
        f: impl FnOnce(&str, &DirectMeshDb) -> R + Send,
    ) -> (R, ServerStats)
    where
        R: Send,
    {
        let db = tiny_db();
        let server = Server::bind("127.0.0.1:0", config).unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let handle = server.shutdown_handle();
        std::thread::scope(|s| {
            let srv = s.spawn(|| server.serve(&db).unwrap());
            let out = f(&addr, &db);
            handle.shutdown();
            (out, srv.join().unwrap())
        })
    }

    #[test]
    fn stats_roundtrip_and_clean_shutdown() {
        let (got, stats) = with_server(ServerConfig::default(), |addr, db| {
            let mut c = Client::connect(addr).unwrap();
            let (remote, resolved) = c.stats(vec![0.25]).unwrap();
            assert_eq!(remote, db.stats_summary());
            assert_eq!(resolved, vec![db.e_for_points_fraction(0.25)]);
            c.shutdown_server().unwrap();
            remote.n_records
        });
        assert!(got > 0);
        assert_eq!(stats.connections, 1);
        assert!(stats.requests >= 2);
        assert_eq!(stats.errors, 0);
    }

    #[test]
    fn zero_inflight_budget_answers_overloaded() {
        let config = ServerConfig {
            max_inflight: 0,
            ..ServerConfig::default()
        };
        let ((), stats) = with_server(config, |addr, db| {
            let mut c = Client::connect_with(
                addr,
                ClientConfig {
                    overload_retries: 1,
                    ..ClientConfig::default()
                },
            )
            .unwrap();
            let err = c
                .vi_query(QueryOpts::default(), db.bounds, 0.5)
                .unwrap_err();
            assert!(matches!(err, WireError::Overloaded { .. }), "{err}");
        });
        assert!(stats.overloaded >= 1);
    }

    #[test]
    fn unknown_session_is_a_typed_error() {
        let ((), _stats) = with_server(ServerConfig::default(), |addr, db| {
            let mut c = Client::connect(addr).unwrap();
            let q = VdQuery {
                roi: db.bounds,
                target: dm_mtm::PlaneTarget {
                    origin: db.bounds.min,
                    dir: dm_geom::Vec2::new(1.0, 0.0),
                    e_min: 0.05,
                    slope: 0.01,
                    e_max: 0.5,
                },
            };
            let err = c.frame_query(99, q, false).unwrap_err();
            match err {
                WireError::Remote { code, .. } => {
                    assert_eq!(code, ErrorCode::UnknownSession.code());
                }
                other => panic!("expected remote error, got {other}"),
            }
        });
    }

    #[test]
    fn slow_reader_is_disconnected_not_hung() {
        let config = ServerConfig {
            // Tight byte budget so the shed triggers quickly.
            write_budget: 64 * 1024,
            ..ServerConfig::default()
        };
        let ((), stats) = with_server(config, |addr, db| {
            // A peer that pipelines many full-detail queries and never
            // reads a single response byte: responses pile up in its
            // write queue until the byte budget sheds the connection —
            // without ever wedging the reactor or a worker.
            let mut evil = TcpStream::connect(addr).unwrap();
            let e = db.e_for_points_fraction(1.0);
            let req = Request::ViQuery {
                opts: QueryOpts::default(),
                roi: db.bounds,
                e,
            };
            let payload = req.encode();
            // Pipeline until the server sheds us: once the budget trips
            // it drops the connection, our unread data turns the close
            // into a reset, and our writes start failing.
            let mut dropped = false;
            for _ in 0..200_000 {
                if write_frame(&mut evil, req.kind(), &payload).is_err() {
                    dropped = true;
                    break;
                }
            }
            assert!(dropped, "server never disconnected the non-reading peer");
            // The server must remain responsive to well-behaved clients
            // while (and after) shedding the slow reader.
            let mut c = Client::connect(addr).unwrap();
            let (remote, _) = c.stats(Vec::new()).unwrap();
            assert_eq!(remote, db.stats_summary());
            drop(evil);
        });
        assert!(
            stats.slow_disconnects >= 1,
            "expected a typed slow-reader disconnect, got {stats:?}"
        );
    }

    #[test]
    fn mid_frame_staller_is_shed_on_deadline() {
        let config = ServerConfig {
            frame_stall_timeout: Duration::from_millis(150),
            ..ServerConfig::default()
        };
        let ((), stats) = with_server(config, |addr, _db| {
            // Send half a valid frame header, then go silent: the peer
            // owes the server bytes it will never send.
            let mut staller = TcpStream::connect(addr).unwrap();
            staller.write_all(&super::super_valid_prefix()).unwrap();
            // Meanwhile a healthy client keeps getting answers.
            let mut c = Client::connect(addr).unwrap();
            let t0 = Instant::now();
            while t0.elapsed() < Duration::from_secs(5) {
                c.stats(Vec::new()).unwrap();
                std::thread::sleep(Duration::from_millis(50));
                // Probe whether the staller was dropped yet.
                let mut probe = [0u8; 1];
                staller.set_nonblocking(true).unwrap();
                match staller.read(&mut probe) {
                    Ok(_) => break, // EOF: shed
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                    Err(_) => break, // reset: shed
                }
            }
        });
        assert!(
            stats.stalled_disconnects >= 1,
            "expected a stall shed, got {stats:?}"
        );
    }

    #[test]
    fn garbage_bytes_do_not_crash_the_server() {
        let ((), stats) = with_server(ServerConfig::default(), |addr, _db| {
            let mut raw = TcpStream::connect(addr).unwrap();
            raw.write_all(b"this is not a DMNT frame at all").unwrap();
            drop(raw);
            // The server must still answer a well-formed client.
            let mut c = Client::connect(addr).unwrap();
            c.stats(Vec::new()).unwrap();
        });
        assert!(stats.errors >= 1);
        assert_eq!(stats.connections, 2);
    }

    #[test]
    fn pipelined_requests_answer_in_order() {
        let ((), stats) = with_server(ServerConfig::default(), |addr, db| {
            let e = db.e_for_points_fraction(0.5);
            let reqs: Vec<Request> = (0..8)
                .map(|_| Request::ViQuery {
                    opts: QueryOpts::default(),
                    roi: db.bounds,
                    e,
                })
                .collect();
            let mut c = Client::connect(addr).unwrap();
            let pipelined = c.exchange_pipelined(&reqs, 8).unwrap();
            assert_eq!(pipelined.len(), reqs.len());
            let serial = c.vi_query(QueryOpts::default(), db.bounds, e).unwrap();
            for (i, resp) in pipelined.iter().enumerate() {
                match resp {
                    Response::Mesh(m) => {
                        assert_eq!(m.vertices, serial.vertices, "response {i}");
                        assert_eq!(m.faces, serial.faces, "response {i}");
                    }
                    other => panic!(
                        "response {i}: expected mesh, got kind {:#04x}",
                        other.kind()
                    ),
                }
            }
        });
        assert!(stats.requests >= 9);
        assert_eq!(stats.errors, 0);
    }
}
