//! The one file that calls into the Direct Mesh crates.
//!
//! Everything the benchmark needs from `dm-*` is imported, re-exported
//! or wrapped here, and only through the fallible `try_*` / `*_counted`
//! entry points — so a change to the library's API breaks the build in
//! this file and nowhere else. The traced replays live here too: they
//! are the per-layer decomposition of a request, written as calls into
//! public functions with a span around each.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dm_core::live::encode_edit;
use dm_core::query::uniform_cut;
use dm_core::{verify_store, DmBuildOptions, LiveOptions, RecoveryInfo};
use dm_mtm::builder::{build_pm as mtm_build_pm, PmBuildConfig};
use dm_mtm::{PlaneTarget, PmBuild};
use dm_net::frame::{encode_frame, FrameAssembler, HEADER_LEN};
use dm_net::mesh::{canonical_flat, canonical_mesh, canonical_mesh_into};
use dm_net::proto::{Request, Response, RESP_FRAME_DELTA, RESP_MESH, RESP_MESH_CHUNK};
use dm_net::stream::{
    diff_frames, split_coarse_to_fine, ChunkAssembler, FrameDelta, FIRST_CHUNK_VERTICES,
};
use dm_net::wire::Writer;
use dm_net::ResultTail;
use dm_server::{Server, ServerConfig};
use dm_storage::wal::{root_path, wal_path, WAL_HEADER};
use dm_storage::{thread_reads, thread_retries, BufferPool, FaultConfig, FileStore, PageId};
use dm_terrain::{generate, Heightfield, TriMesh};
use dm_world::{open_region_store, write_split_world, WorldOptions, WorldSession};

use dm_core::{BoundaryPolicy, FetchCounters, NavigationSession};
use dm_geom::Box3;
use dm_net::{Client, FrontMirror, QueryOpts, StreamMode};

pub use dm_core::{DirectMeshDb, EditOp, LiveDb, VdQuery};
pub use dm_geom::{Rect, Vec2};
pub use dm_net::{MeshResult, WireVertex};
pub use dm_server::ServerStats;
pub use dm_world::WorldDb;

use crate::trace::Tracer;

/// Cubes a viewpoint-dependent query or session may plan.
pub const MAX_CUBES: usize = 16;
/// Boundary policy of one-shot VD queries: the paper's default, ROI
/// borders left slightly coarser. (`FetchOnMiss` one-shots can answer a
/// front with a face whose corner is not among its vertices — seen on
/// the 129² terrain — which the chunk reassembly rightly refuses.)
pub const ONE_SHOT_POLICY: BoundaryPolicy = BoundaryPolicy::Skip;
/// Boundary policy of the single-store viewer session: borders fetched.
pub const SESSION_POLICY: BoundaryPolicy = BoundaryPolicy::FetchOnMiss;
/// Boundary policy of the world session. A split world shares one id
/// space, so `FetchOnMiss` resolves each miss by probing the regions in
/// order — opening every closed one it passes. Under a handle cap below
/// the tile count that reopens regions per missing record, and a single
/// frame takes minutes; the world viewer therefore leaves ROI borders
/// coarser, as the paper's own plots do.
pub const WORLD_POLICY: BoundaryPolicy = BoundaryPolicy::Skip;
/// Pool size used while a store is being built (discarded afterwards).
const BUILD_POOL_PAGES: usize = 4096;

pub type Mesh = (Vec<WireVertex>, Vec<[u32; 3]>);

fn other<E: std::fmt::Display>(e: E) -> io::Error {
    io::Error::other(e.to_string())
}

// ---------------------------------------------------------------- set-up

pub fn generate_terrain(side: usize, seed: u64) -> Heightfield {
    generate::fractal_terrain(side, side, seed)
}

pub fn build_pm(hf: &Heightfield) -> PmBuild {
    mtm_build_pm(TriMesh::from_heightfield(hf), &PmBuildConfig::default())
}

/// Build the v3 store file at `path` from a finished PM.
pub fn build_store(path: &Path, pm: &PmBuild) -> io::Result<()> {
    let pool = Arc::new(BufferPool::new(
        Box::new(FileStore::create(path)?),
        BUILD_POOL_PAGES,
    ));
    DirectMeshDb::create_in(pool, pm, &DmBuildOptions::default());
    Ok(())
}

pub fn open_store(path: &Path, pool_pages: usize) -> io::Result<DirectMeshDb> {
    let pool = Arc::new(BufferPool::new(
        Box::new(FileStore::open(path)?),
        pool_pages,
    ));
    DirectMeshDb::open(pool).map_err(other)
}

/// Split `db` into four west-to-east strips, file-backed, under `dir`;
/// returns the manifest path.
pub fn split_world(db: &DirectMeshDb, dir: &Path) -> io::Result<PathBuf> {
    write_split_world(db, 4, 1, dir, &DmBuildOptions::default()).map_err(other)
}

/// Open a world with three handles for its four strips. The catalog
/// closes a region only while opening another, and never a pinned one:
/// a viewer whose window reaches more regions than there are spare
/// handles pushes the catalog over its cap for good, after which nothing
/// is ever evicted. Strips wider than the viewer's window keep the
/// session's pins at two, so every lap evicts and reopens. The
/// per-region fan-out stays on the calling thread, so a response's
/// thread-attributed `disk_accesses` is the whole request's and LRU
/// order is deterministic.
pub fn open_world(manifest: &Path, page_budget: usize) -> io::Result<WorldDb> {
    WorldDb::open(
        manifest,
        WorldOptions {
            max_open: 3,
            page_budget,
            threads: 1,
            ..WorldOptions::default()
        },
    )
    .map_err(other)
}

pub fn open_live(path: &Path, cache_pages: usize) -> io::Result<(LiveDb, RecoveryInfo)> {
    LiveDb::open(
        path,
        &LiveOptions {
            cache_pages,
            fault: None,
        },
    )
    .map_err(other)
}

/// Open `path` with a store that dies on its first page write after the
/// WAL append, apply one edit (which must fail), and drop the handle: a
/// crash that leaves exactly one WAL entry for the next open to replay.
pub fn crash_mid_edit(path: &Path, cache_pages: usize, region: &Rect) -> io::Result<()> {
    let (live, _) = LiveDb::open(
        path,
        &LiveOptions {
            cache_pages,
            fault: Some(FaultConfig::new(99).with_fail_writes_after(1)),
        },
    )
    .map_err(other)?;
    match live.apply_patch(region, &EditOp::Raise(-1.0)) {
        Err(_) => Ok(()),
        Ok(_) => Err(io::Error::other("injected crash did not fail the edit")),
    }
}

/// Bytes of the store file plus its WAL and root siblings.
pub fn store_file_bytes(path: &Path) -> u64 {
    [path.to_path_buf(), wal_path(path), root_path(path)]
        .iter()
        .filter_map(|p| std::fs::metadata(p).ok())
        .map(|m| m.len())
        .sum()
}

/// Scrub the committed version of a (closed) store file; true when
/// clean.
pub fn store_is_clean(path: &Path) -> io::Result<bool> {
    let (pool, catalog) = open_region_store(path, BUILD_POOL_PAGES, None).map_err(other)?;
    Ok(verify_store(&pool, catalog).map_err(other)?.ok())
}

// --------------------------------------------------------------- serving

#[derive(Clone, Copy)]
pub enum Host<'a> {
    Single(&'a DirectMeshDb),
    World(&'a WorldDb),
}

/// Serve `host` on a loopback port for the duration of `f`, then shut
/// the server down and return its drain counters. One worker and room
/// for 64 requests in flight: the sizing every workload shares.
pub fn serve<R>(host: Host<'_>, f: impl FnOnce(&str) -> R) -> io::Result<(R, ServerStats)> {
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            max_inflight: 64,
            ..ServerConfig::default()
        },
    )?;
    let addr = server.local_addr()?.to_string();
    std::thread::scope(|s| {
        let server = &server;
        let handle = s.spawn(move || match host {
            Host::Single(db) => server.serve(db),
            Host::World(w) => server.serve_world(w),
        });
        let out = f(&addr);
        let down = Client::connect(&addr).and_then(|mut c| c.shutdown_server());
        if down.is_err() {
            server.shutdown_handle().shutdown();
        }
        let stats = handle
            .join()
            .map_err(|_| io::Error::other("server thread panicked"))??;
        Ok((out, stats))
    })
}

// ---------------------------------------------------------------- client

/// One operation as the client saw it.
pub struct Answer {
    pub mesh: MeshResult,
    /// Send → fully decoded (and, for a session frame, applied).
    pub latency: Duration,
    /// Send → first decodable triangle: the first such chunk of a chunked
    /// answer, the whole answer otherwise.
    pub ttft: Duration,
    /// Bytes sent + received, framing included.
    pub bytes: usize,
    /// Bytes received up to the first triangle (chunked answers only).
    pub first_bytes: usize,
    /// A session delta did not apply and the frame was fetched again.
    pub resynced: bool,
}

/// A served navigation session and the client's mirror of its front.
pub struct Session {
    id: u64,
    mirror: FrontMirror,
}

/// One client connection.
pub struct Wire(Client);

impl Wire {
    pub fn connect(addr: &str) -> io::Result<Wire> {
        Client::connect(addr).map(Wire).map_err(other)
    }

    /// Monolithic VI query, keep as resolved in `e`.
    pub fn vi(&mut self, roi: Rect, e: f64) -> io::Result<Answer> {
        let opts = QueryOpts::default();
        let t0 = Instant::now();
        let mesh = self.0.vi_query(opts, roi, e).map_err(other)?;
        let latency = t0.elapsed();
        // `vi_query` does not report what it moved; the sizes follow
        // from the encodings (computed after the clock has stopped).
        let req = Request::ViQuery { opts, roi, e }.encode().len();
        let mut w = Writer::new();
        mesh.encode(&mut w);
        Ok(Answer {
            bytes: 2 * (HEADER_LEN + 4) + req + w.len(),
            mesh,
            latency,
            ttft: latency,
            first_bytes: 0,
            resynced: false,
        })
    }

    pub fn vi_chunked(&mut self, roi: Rect, e: f64) -> io::Result<Answer> {
        let t0 = Instant::now();
        let r = self.0.vi_query_chunked(QueryOpts::default(), roi, e);
        chunked_answer(t0, r)
    }

    pub fn vd_chunked(&mut self, q: VdQuery) -> io::Result<Answer> {
        let t0 = Instant::now();
        let r = self
            .0
            .vd_query_chunked(QueryOpts::default(), q, ONE_SHOT_POLICY, MAX_CUBES as u32);
        chunked_answer(t0, r)
    }

    /// One pipelined lap of VI queries with `window` in flight; the
    /// meshes come back in request order.
    pub fn vi_pipelined(
        &mut self,
        queries: &[(Rect, f64)],
        window: usize,
    ) -> io::Result<Vec<MeshResult>> {
        self.0
            .vi_query_pipelined(QueryOpts::default(), queries, window)
            .map_err(other)
    }

    /// Open a session. (The wire carries policy, cube cap and a
    /// full-requery flag but no plan mode: served sessions plan
    /// incrementally.)
    pub fn open_session(&mut self, policy: BoundaryPolicy) -> io::Result<Session> {
        let id = self
            .0
            .open_session(policy, MAX_CUBES as u32, false)
            .map_err(other)?;
        Ok(Session {
            id,
            mirror: FrontMirror::new(),
        })
    }

    /// One `StreamMode::Auto` frame, applied to the session's mirror.
    pub fn frame(&mut self, session: &mut Session, q: VdQuery) -> io::Result<Answer> {
        let t0 = Instant::now();
        let (mesh, info) = self
            .0
            .frame_query_streamed(session.id, q, false, StreamMode::Auto, &mut session.mirror)
            .map_err(other)?;
        let latency = t0.elapsed();
        Ok(Answer {
            mesh,
            latency,
            ttft: latency,
            bytes: info.bytes_sent + info.bytes_received,
            first_bytes: 0,
            resynced: info.resynced,
        })
    }

    pub fn close_session(&mut self, session: Session) -> io::Result<()> {
        self.0.close_session(session.id).map_err(other)
    }
}

fn chunked_answer(
    t0: Instant,
    r: dm_net::WireResult<(MeshResult, dm_net::ChunkedFetch)>,
) -> io::Result<Answer> {
    let (mesh, fetch) = r.map_err(other)?;
    let latency = t0.elapsed();
    Ok(Answer {
        mesh,
        latency,
        ttft: fetch.time_to_first_triangle.unwrap_or(latency),
        bytes: fetch.bytes_sent + fetch.bytes_received,
        first_bytes: fetch.bytes_to_first_triangle,
        resynced: false,
    })
}

// --------------------------------------------------------------- queries

/// The LOD thresholds the workloads query at, resolved once per store.
#[derive(Clone, Copy, Debug)]
pub struct Lods {
    /// VI keep-fractions 0.35 / 0.10 / 0.02 (cold_query cycles them).
    pub vi_cycle: [f64; 3],
    /// VI keep 0.25 — the `BENCH_server.json` request.
    pub vi_quarter: f64,
    /// VD near plane, keep 0.4.
    pub near: f64,
    /// VD far plane, keep 0.05.
    pub far: f64,
}

pub fn resolve_lods(db: &DirectMeshDb) -> Lods {
    let near = db.e_for_points_fraction(0.4);
    Lods {
        vi_cycle: [0.35, 0.10, 0.02].map(|k| db.e_for_points_fraction(k)),
        vi_quarter: db.e_for_points_fraction(0.25),
        near,
        far: db.e_for_points_fraction(0.05).max(near),
    }
}

/// A viewer at the south (or, `eastward`, the west) edge of `roi`
/// looking across it: detail `near` at its feet, falling off linearly
/// to `far` at the opposite edge.
pub fn vd_query(roi: Rect, lods: &Lods, eastward: bool) -> VdQuery {
    let (dir, run) = if eastward {
        (Vec2::new(1.0, 0.0), roi.width())
    } else {
        (Vec2::new(0.0, 1.0), roi.height())
    };
    VdQuery {
        roi,
        target: PlaneTarget {
            origin: roi.min,
            dir,
            e_min: lods.near,
            slope: (lods.far - lods.near) / run.max(1e-9),
            e_max: lods.far,
        },
    }
}

/// Local reference answer of a VI query, canonical form.
pub fn local_vi(db: &DirectMeshDb, roi: &Rect, e: f64) -> io::Result<Mesh> {
    let mut counters = FetchCounters::default();
    let (res, report) = db
        .try_vi_query_flat_counted(roi, e, &mut counters)
        .map_err(other)?;
    if !report.is_clean() {
        return Err(io::Error::other(format!("local VI lost data: {report}")));
    }
    Ok(canonical_flat(&res.nodes, &res.faces))
}

/// Local reference answer of a multi-base VD query, canonical form.
pub fn local_vd(db: &DirectMeshDb, q: &VdQuery) -> io::Result<Mesh> {
    let mut counters = FetchCounters::default();
    let (res, report) = db
        .try_vd_multi_base_counted(q, ONE_SHOT_POLICY, MAX_CUBES, &mut counters)
        .map_err(other)?;
    if !report.is_clean() {
        return Err(io::Error::other(format!("local VD lost data: {report}")));
    }
    Ok(canonical_mesh(&res.front))
}

/// A local walkthrough that shadows a served session frame by frame.
pub struct Shadow<'a>(NavigationSession<'a>);

impl<'a> Shadow<'a> {
    pub fn new(db: &'a DirectMeshDb) -> Shadow<'a> {
        Shadow(NavigationSession::new(db, SESSION_POLICY).with_max_cubes(MAX_CUBES))
    }

    pub fn frame(&mut self, q: &VdQuery) -> io::Result<Mesh> {
        let (_, report) = self.0.try_move_to(q).map_err(other)?;
        if !report.is_clean() {
            return Err(io::Error::other(format!(
                "shadow frame lost data: {report}"
            )));
        }
        Ok(canonical_mesh(self.0.front()))
    }
}

pub fn cold_start(db: &DirectMeshDb) -> io::Result<()> {
    db.try_cold_start().map_err(other)
}

/// Pages the store's pool has fetched since its statistics were reset
/// (a cold start resets them).
pub fn pool_reads(db: &DirectMeshDb) -> u64 {
    db.pool().stats().reads
}

/// Plan-view bounds and record count of a store.
pub fn store_shape(db: &DirectMeshDb) -> (Rect, usize) {
    (db.bounds, db.n_records)
}

/// The live store's latest committed version, pinned.
pub fn snapshot(live: &LiveDb) -> Arc<DirectMeshDb> {
    live.snapshot()
}

/// Durably apply one edit.
pub fn apply_patch(live: &LiveDb, region: &Rect, edit: &EditOp) -> io::Result<()> {
    live.apply_patch(region, edit).map(|_| ()).map_err(other)
}

// ------------------------------------------------------- traced replays

/// Counts gathered at layer boundaries during a traced replay, summed
/// over the sample; the workload divides by ops, frames or patches.
#[derive(Default)]
pub struct Counts(pub std::collections::BTreeMap<&'static str, f64>);

impl Counts {
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.0.entry(name).or_insert(0.0) += v;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

fn add_fetch_counters(c: &mut Counts, f: &FetchCounters) {
    c.add("pages_scanned", f.pages_scanned as f64);
    c.add("records_examined", f.records_examined as f64);
    c.add("records_decoded", f.records_decoded as f64);
}

/// How a replayed answer travels to its consumer.
#[derive(Clone, Copy, PartialEq)]
pub enum Transport {
    /// In-process consumer: no encoding at all.
    None,
    /// One monolithic mesh frame.
    Mesh,
    /// Coarse-to-fine chunk frames.
    Chunked,
}

/// Encode `payload` into a frame and parse it back the way a peer
/// would: CRC on the way out, CRC check and copy on the way in.
fn frame_round_trip(
    t: &mut Tracer,
    c: &mut Counts,
    kind: u8,
    payload: &[u8],
) -> io::Result<dm_net::Frame> {
    let bytes = t.span("net.frame_crc", |_| encode_frame(kind, payload));
    c.add("frame_bytes", bytes.len() as f64);
    let mut asm = FrameAssembler::new();
    asm.push(&bytes);
    asm.next_frame()
        .map_err(other)?
        .ok_or_else(|| io::Error::other("frame did not reassemble"))
}

/// Ship a finished mesh the monolithic way: encode, frame, decode.
fn replay_mesh_transport(t: &mut Tracer, c: &mut Counts, m: &MeshResult) -> io::Result<MeshResult> {
    let mut w = Writer::new();
    t.span("net.encode", |_| m.encode(&mut w));
    c.add("mesh_bytes", w.len() as f64);
    let payload = w.into_inner();
    let frame = frame_round_trip(t, c, RESP_MESH, &payload)?;
    t.span("net.decode", |_| match Response::decode(&frame) {
        Ok(Response::Mesh(m)) => Ok(m),
        Ok(_) => Err(io::Error::other("replayed frame is not a mesh")),
        Err(e) => Err(other(e)),
    })
}

/// Ship a finished mesh the chunked way: split coarse to fine, encode
/// and frame each chunk, reassemble.
fn replay_chunk_transport(
    t: &mut Tracer,
    c: &mut Counts,
    m: &MeshResult,
    coarseness: &[f64],
) -> io::Result<MeshResult> {
    let chunks = t.span("net.chunk", |_| {
        split_coarse_to_fine(
            &m.vertices,
            coarseness,
            &m.faces,
            m.tail(),
            FIRST_CHUNK_VERTICES,
        )
    });
    c.add("chunks", chunks.len() as f64);
    let mut asm = ChunkAssembler::new();
    let mut done = None;
    for chunk in chunks {
        let mut w = Writer::new();
        t.span("net.encode", |_| chunk.encode(&mut w));
        c.add("mesh_bytes", w.len() as f64);
        let payload = w.into_inner();
        let frame = frame_round_trip(t, c, RESP_MESH_CHUNK, &payload)?;
        let chunk = t.span("net.decode", |_| match Response::decode(&frame) {
            Ok(Response::MeshChunk(ch)) => Ok(ch),
            Ok(_) => Err(io::Error::other("replayed frame is not a chunk")),
            Err(e) => Err(other(e)),
        })?;
        done = t
            .span("net.chunk_assemble", |_| asm.push(chunk))
            .map_err(other)?;
    }
    done.ok_or_else(|| io::Error::other("chunk stream did not complete"))
}

/// One served VI query, in-process. With spans off this is what the
/// server's worker and the client run — the one-call query, canonical
/// form, encode, frame, decode. With spans on the query is taken apart
/// into the chain the one call hides, a span around each layer: index
/// descent → page touches → record decode → cut assembly. (Staging
/// repeats the descent and touches every page twice; that, with the
/// spans, is the overhead `bench.trace_overhead_ratio` reports.)
/// Returns the mesh the client side ends up with; the caller checks it
/// against the verified answer, outside the timing.
pub fn replay_vi(
    t: &mut Tracer,
    c: &mut Counts,
    db: &DirectMeshDb,
    roi: &Rect,
    e: f64,
    transport: Transport,
) -> io::Result<MeshResult> {
    let e = db.clamp_e(e);
    let reads0 = thread_reads();
    let retries0 = thread_retries();
    let mut report = Default::default();
    let mut counters = FetchCounters::default();
    let (nodes, faces, fetched) = if t.enabled() {
        let plane = Box3::prism(*roi, e, e);
        let set = staged_fetch(t, c, db, &plane, &mut report, &mut counters)?;
        let (nodes, faces) = t.span("core.assemble", |_| uniform_cut(&set, roi, e));
        (nodes, faces, set.len())
    } else {
        let (res, rep) = db
            .try_vi_query_flat_counted(roi, e, &mut counters)
            .map_err(other)?;
        report = rep;
        (res.nodes, res.faces, res.fetched_records)
    };
    add_fetch_counters(c, &counters);
    let (vertices, cfaces) = t.span("net.canonical", |_| canonical_flat(&nodes, &faces));
    c.add("page_reads", (thread_reads() - reads0) as f64);
    c.add("retries", (thread_retries() - retries0) as f64);
    c.add("front_vertices", vertices.len() as f64);

    let answer = MeshResult {
        vertices,
        faces: cfaces,
        fetched_records: fetched as u64,
        disk_accesses: thread_reads() - reads0,
        cubes: 1,
        counters,
        report,
    };
    match transport {
        Transport::None => Ok(answer),
        Transport::Mesh => replay_mesh_transport(t, c, &answer),
        Transport::Chunked => {
            let coarseness: Vec<f64> = nodes.iter().map(|n| n.e_lo).collect();
            replay_chunk_transport(t, c, &answer, &coarseness)
        }
    }
}

/// `fetch_box_flat_counted` taken apart: the index descent, then one
/// timed pool read per candidate page (hit or miss known beforehand),
/// then the record scan over the now-resident pages.
fn staged_fetch(
    t: &mut Tracer,
    c: &mut Counts,
    db: &DirectMeshDb,
    plane: &Box3,
    report: &mut dm_core::IntegrityReport,
    counters: &mut FetchCounters,
) -> io::Result<dm_core::FetchedSet> {
    let reads0 = thread_reads();
    let pages = t
        .span("index.descent", |_| db.candidate_pages(plane))
        .map_err(other)?;
    c.add("index_ops", 1.0);
    c.add("index_node_reads", (thread_reads() - reads0) as f64);
    c.add("index_candidates", pages.len() as f64);

    let ids: Vec<PageId> = pages.iter().map(|&p| p as PageId).collect();
    let resident = db.pool().residency(&ids);
    c.add(
        "heap_resident",
        resident.iter().filter(|&&r| r).count() as f64,
    );
    t.span("storage.touch", |t| -> io::Result<()> {
        for (&id, &hit) in ids.iter().zip(&resident) {
            let t0 = Instant::now();
            db.pool().try_read(id, |_| ()).map_err(other)?;
            let t1 = Instant::now();
            let (span, n, ns) = if hit {
                ("storage.fetch_hit", "page_hits", "hit_ns")
            } else {
                ("storage.fetch_miss", "page_misses", "miss_ns")
            };
            t.record(span, t0, t1);
            c.add(n, 1.0);
            c.add(ns, (t1 - t0).as_nanos() as f64);
        }
        Ok(())
    })?;
    t.span("core.decode", |_| {
        db.fetch_box_flat_counted(plane, report, counters)
    })
    .map_err(other)
}

/// One served, chunked multi-base VD query: planner and whole-call
/// spans, then the chunk transport.
pub fn replay_vd(
    t: &mut Tracer,
    c: &mut Counts,
    db: &DirectMeshDb,
    q: &VdQuery,
) -> io::Result<MeshResult> {
    let reads0 = thread_reads();
    let retries0 = thread_retries();
    // The planner runs inside the whole-call entry point; when tracing
    // it is timed on its own first so its share of `core.vd` is known.
    if t.enabled() {
        t.span("core.plan", |_| db.plan_multi_base(q, MAX_CUBES));
    }
    let mut counters = FetchCounters::default();
    let (res, report) = t
        .span("core.vd", |_| {
            db.try_vd_multi_base_counted(q, ONE_SHOT_POLICY, MAX_CUBES, &mut counters)
        })
        .map_err(other)?;
    add_fetch_counters(c, &counters);
    c.add("refine_splits", res.refine.splits as f64);
    c.add("refine_blocked", res.refine.blocked as f64);
    let (vertices, faces) = t.span("net.canonical", |_| canonical_mesh(&res.front));
    c.add("page_reads", (thread_reads() - reads0) as f64);
    c.add("retries", (thread_retries() - retries0) as f64);
    c.add("front_vertices", vertices.len() as f64);
    let coarseness: Vec<f64> = vertices
        .iter()
        .map(|v| res.front.node(v.id).map_or(0.0, |n| n.e_lo))
        .collect();
    let staged = MeshResult {
        vertices,
        faces,
        fetched_records: res.fetched_records as u64,
        disk_accesses: thread_reads() - reads0,
        cubes: res.cubes.len() as u32,
        counters,
        report,
    };
    replay_chunk_transport(t, c, &staged, &coarseness)
}

/// Server- and client-side state of one replayed streamed session.
pub struct SessionReplay<'a> {
    nav: SessionNav<'a>,
    prev: Mesh,
    scratch: Mesh,
    has_prev: bool,
    seq: u64,
    mirror: FrontMirror,
}

enum SessionNav<'a> {
    Single(&'a DirectMeshDb, Box<NavigationSession<'a>>),
    World(&'a WorldDb, WorldSession),
}

impl<'a> SessionReplay<'a> {
    pub fn single(db: &'a DirectMeshDb) -> SessionReplay<'a> {
        SessionReplay::new(SessionNav::Single(
            db,
            Box::new(NavigationSession::new(db, SESSION_POLICY).with_max_cubes(MAX_CUBES)),
        ))
    }

    pub fn world(world: &'a WorldDb) -> SessionReplay<'a> {
        SessionReplay::new(SessionNav::World(
            world,
            WorldSession::new(WORLD_POLICY, MAX_CUBES),
        ))
    }

    fn new(nav: SessionNav<'a>) -> SessionReplay<'a> {
        SessionReplay {
            nav,
            prev: Default::default(),
            scratch: Default::default(),
            has_prev: false,
            seq: 0,
            mirror: FrontMirror::new(),
        }
    }

    /// One `StreamMode::Auto` frame: advance the session, canonicalize,
    /// diff against the previous frame, ship the smaller of patch and
    /// full reset, apply it to the mirror.
    pub fn frame(&mut self, t: &mut Tracer, c: &mut Counts, q: &VdQuery) -> io::Result<MeshResult> {
        let reads0 = thread_reads();
        let retries0 = thread_retries();
        let scratch = &mut self.scratch;
        let tail = match &mut self.nav {
            SessionNav::Single(db, nav) => {
                // The planner also runs inside `try_move_to`; when
                // tracing it is timed alone first so its share of the
                // frame is known.
                if t.enabled() {
                    t.span("core.plan", |_| db.plan_multi_base(q, MAX_CUBES));
                }
                let (stats, report) = t
                    .span("core.frame", |_| nav.try_move_to(q))
                    .map_err(other)?;
                c.add(
                    "seeds_spliced",
                    (stats.seeds_added + stats.seeds_removed) as f64,
                );
                c.add("plan_full", f64::from(u8::from(stats.plan.chose_full)));
                c.add("refine_splits", stats.refine.splits as f64);
                c.add("refine_blocked", stats.refine.blocked as f64);
                let counters = FetchCounters {
                    pages_scanned: stats.pages_scanned,
                    records_examined: stats.examined_records,
                    records_decoded: stats.decoded_records,
                };
                add_fetch_counters(c, &counters);
                t.span("net.canonical", |_| {
                    canonical_mesh_into(nav.front(), &mut scratch.0, &mut scratch.1)
                });
                ResultTail {
                    fetched_records: stats.fetched_records as u64,
                    disk_accesses: thread_reads() - reads0,
                    cubes: 0,
                    counters,
                    report,
                }
            }
            SessionNav::World(world, ws) => {
                let probe = Box3::prism(q.roi, 0.0, world.e_cap());
                let regions = t
                    .span("world.route", |_| world.regions_for(&probe))
                    .map_err(other)?;
                c.add("route_ops", 1.0);
                c.add("regions", regions.len() as f64);
                let mut counters = FetchCounters::default();
                let (res, report) = t
                    .span("core.frame", |_| ws.frame(world, q, &mut counters))
                    .map_err(other)?;
                add_fetch_counters(c, &counters);
                c.add("refine_splits", res.refine.splits as f64);
                c.add("refine_blocked", res.refine.blocked as f64);
                t.span("net.canonical", |_| {
                    canonical_mesh_into(&res.front, &mut scratch.0, &mut scratch.1)
                });
                ResultTail {
                    fetched_records: res.fetched_records as u64,
                    disk_accesses: thread_reads() - reads0,
                    cubes: res.cubes.len() as u32,
                    counters,
                    report,
                }
            }
        };
        c.add("frames", 1.0);
        c.add("page_reads", (thread_reads() - reads0) as f64);
        c.add("retries", (thread_retries() - retries0) as f64);
        c.add("front_vertices", self.scratch.0.len() as f64);

        let next_seq = self.seq + 1;
        let full = |scratch: &Mesh, tail: ResultTail| {
            FrameDelta::full_reset(next_seq, scratch.0.clone(), scratch.1.clone(), tail)
        };
        let encode = |t: &mut Tracer, d: &FrameDelta| {
            let mut w = Writer::new();
            t.span("net.encode", |_| d.encode(&mut w));
            w.into_inner()
        };
        let (delta, payload) = if self.has_prev {
            let (rv, av, rf, af) = t.span("net.diff", |_| {
                diff_frames(&self.prev.0, &self.prev.1, &self.scratch.0, &self.scratch.1)
            });
            let patch = FrameDelta {
                seq: next_seq,
                base_seq: self.seq,
                is_delta: true,
                removed_vertices: rv,
                added_vertices: av,
                removed_faces: rf,
                added_faces: af,
                tail: tail.clone(),
            };
            let reset = full(&self.scratch, tail);
            let (pb, rb) = (encode(t, &patch), encode(t, &reset));
            if pb.len() <= rb.len() {
                (patch, pb)
            } else {
                (reset, rb)
            }
        } else {
            let reset = full(&self.scratch, tail);
            let rb = encode(t, &reset);
            (reset, rb)
        };
        c.add("mesh_bytes", payload.len() as f64);
        if delta.is_delta {
            c.add("delta_frames", 1.0);
            c.add("delta_bytes", payload.len() as f64);
        }
        self.seq = next_seq;
        std::mem::swap(&mut self.prev, &mut self.scratch);
        self.has_prev = true;

        let frame = frame_round_trip(t, c, RESP_FRAME_DELTA, &payload)?;
        let d = t.span("net.decode", |_| match Response::decode(&frame) {
            Ok(Response::FrameDelta(d)) => Ok(d),
            Ok(_) => Err(io::Error::other("replayed frame is not a delta")),
            Err(e) => Err(other(e)),
        })?;
        match t.span("net.mirror_apply", |_| self.mirror.apply(&d)) {
            Ok(m) => Ok(m),
            Err(_) => {
                // What `Client::frame_query_streamed` does when a patch
                // does not apply: fetch the frame again in full, which
                // also restarts the server's delta chain.
                c.add("resyncs", 1.0);
                let full = MeshResult::from_parts(self.prev.0.clone(), self.prev.1.clone(), d.tail);
                self.has_prev = false;
                let m = replay_mesh_transport(t, c, &full)?;
                self.mirror.prime_full(d.seq, &m);
                Ok(m)
            }
        }
    }

    /// Release world pins (no-op for a single store).
    pub fn close(&mut self) {
        if let SessionNav::World(world, ws) = &mut self.nav {
            ws.close(world);
        }
    }
}

/// One world-scope one-shot VI through the catalog, with the routing
/// and any region open timed apart.
pub fn replay_world_vi(
    t: &mut Tracer,
    c: &mut Counts,
    world: &WorldDb,
    roi: &Rect,
    e: f64,
) -> io::Result<MeshResult> {
    let reads0 = thread_reads();
    let plane = Box3::prism(*roi, world.clamp_e(e), world.clamp_e(e));
    let regions = t
        .span("world.route", |_| world.regions_for(&plane))
        .map_err(other)?;
    c.add("route_ops", 1.0);
    c.add("regions", regions.len() as f64);
    // Open what the query will need, one region at a time, so a lazy
    // open (and the eviction it forces) is timed as such and not as
    // part of the fetch.
    let before = world.region_stats();
    for &i in &regions {
        if !before[i].open {
            t.span("world.open", |_| world.region(i)).map_err(other)?;
            c.add("opens_timed", 1.0);
        }
    }
    let mut counters = FetchCounters::default();
    let t0 = Instant::now();
    let (res, report) = t
        .span("world.vi", |_| {
            world.try_vi_query_flat_counted(roi, e, &mut counters)
        })
        .map_err(other)?;
    let world_ns = t0.elapsed().as_nanos() as f64;
    add_fetch_counters(c, &counters);
    let (vertices, faces) = t.span("net.canonical", |_| canonical_flat(&res.nodes, &res.faces));
    c.add("page_reads", (thread_reads() - reads0) as f64);
    c.add("front_vertices", vertices.len() as f64);

    c.add("world_vi_ns", world_ns);
    let staged = MeshResult {
        vertices,
        faces,
        fetched_records: res.fetched_records as u64,
        disk_accesses: thread_reads() - reads0,
        cubes: 1,
        counters,
        report,
    };
    replay_mesh_transport(t, c, &staged)
}

/// Sum of region opens and evictions so far.
pub fn world_lifecycle(world: &WorldDb) -> (u64, u64) {
    let stats = world.region_stats();
    (
        stats.iter().map(|r| r.opens).sum(),
        stats.iter().map(|r| r.evictions).sum(),
    )
}

/// One committed patch with its write-path counts.
pub fn replay_patch(
    t: &mut Tracer,
    c: &mut Counts,
    live: &LiveDb,
    region: &Rect,
    edit: &EditOp,
) -> io::Result<()> {
    let pool = live.pool();
    let (stats0, pages0) = (pool.stats(), pool.num_pages());
    let wal_bytes = WAL_HEADER + encode_edit(live.epoch() + 1, region, edit).len();
    let stats = t
        .span("core.patch", |_| live.apply_patch(region, edit))
        .map_err(other)?;
    c.add("patches", 1.0);
    c.add("pages_rewritten", stats.pages_rewritten as f64);
    c.add("records_updated", stats.records_updated as f64);
    c.add("wal_bytes", wal_bytes as f64);
    c.add("page_writes", pool.stats().since(&stats0).writes as f64);
    c.add("store_growth_pages", f64::from(pool.num_pages() - pages0));
    Ok(())
}

/// A reader's query beside the edits: pin the latest snapshot, run the
/// VI chain on it.
pub fn replay_snapshot_read(
    t: &mut Tracer,
    c: &mut Counts,
    live: &LiveDb,
    roi: &Rect,
    e: f64,
) -> io::Result<MeshResult> {
    let snap = t.span("core.snapshot", |_| live.snapshot());
    c.add("snapshots", 1.0);
    replay_vi(t, c, &snap, roi, e, Transport::None)
}
