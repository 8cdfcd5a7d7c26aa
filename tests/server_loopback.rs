//! Loopback integration tests: the served query path must be
//! observationally identical to calling the library directly.
//!
//! A real `dm-server` instance answers over a loopback TCP socket while
//! the test holds a reference to the *same* database object, so every
//! remote answer can be compared bit-for-bit against a local run —
//! canonical vertex/face sets, fetched-record counts, and (for serial
//! cold queries) the logical disk-access counts the paper's cost model
//! is built on.
//!
//! A second group serves a fault-injected file store and checks the
//! degradation contract across the wire: degraded queries answer with
//! loss reports, strict queries fail with a *typed* error, and the
//! connection (and server) survive both.

use std::sync::Arc;

use dm_core::{
    BoundaryPolicy, DirectMeshDb, DmBuildOptions, FetchCounters, IntegrityReport, VdQuery,
};
use dm_geom::{Rect, Vec2};
use dm_mtm::builder::{build_pm, PmBuildConfig};
use dm_mtm::PlaneTarget;
use dm_net::{canonical_mesh, Client, MeshResult, QueryOpts, QueryScope, WireError};
use dm_server::{Server, ServerConfig};
use dm_storage::{
    thread_reads, BufferPool, FaultConfig, FaultInjector, FileStore, MemStore, PageStore,
};
use dm_terrain::{generate, TriMesh};

const POOL_PAGES: usize = 4096;

fn build_db(side: usize, seed: u64) -> DirectMeshDb {
    let hf = generate::fractal_terrain(side, side, seed);
    let pm = build_pm(TriMesh::from_heightfield(&hf), &PmBuildConfig::default());
    let pool = Arc::new(BufferPool::new(Box::new(MemStore::new()), POOL_PAGES));
    DirectMeshDb::build(pool, &pm, &DmBuildOptions::default())
}

/// Serve `db` on a loopback socket for the duration of `f`. Shutdown is
/// signalled through the handle even when `f` panics, so a failing
/// assertion aborts the test instead of deadlocking the scope.
fn with_server<R>(db: &DirectMeshDb, f: impl FnOnce(&str) -> R) -> R {
    with_server_cfg(
        db,
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
        f,
    )
}

/// Like [`with_server`] but with explicit knobs (tight write budgets,
/// short stall deadlines) for the adversarial-client tests.
fn with_server_cfg<R>(db: &DirectMeshDb, config: ServerConfig, f: impl FnOnce(&str) -> R) -> R {
    let server = Server::bind("127.0.0.1:0", config).expect("bind loopback");
    let addr = server.local_addr().expect("local addr").to_string();
    let ctl = server.shutdown_handle();
    std::thread::scope(|s| {
        let handle = s.spawn(|| server.serve(db).expect("serve"));
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&addr)));
        ctl.shutdown();
        handle.join().expect("server thread");
        match out {
            Ok(v) => v,
            Err(p) => std::panic::resume_unwind(p),
        }
    })
}

fn vd_query(db: &DirectMeshDb, roi: Rect) -> VdQuery {
    let e_min = db.e_for_points_fraction(0.4);
    let e_far = db.e_for_points_fraction(0.05).max(e_min);
    VdQuery {
        roi,
        target: PlaneTarget {
            origin: roi.min,
            dir: Vec2::new(0.0, 1.0),
            e_min,
            slope: (e_far - e_min) / roi.height().max(1e-9),
            e_max: e_far,
        },
    }
}

fn assert_same_mesh(label: &str, remote: &MeshResult, front: &dm_mtm::FrontMesh) {
    let (lv, lf) = canonical_mesh(front);
    assert_eq!(remote.vertices, lv, "{label}: vertex sets differ");
    assert_eq!(remote.faces, lf, "{label}: face sets differ");
}

const COLD: QueryOpts = QueryOpts {
    cold: true,
    degraded: false,
    chunked: false,
    scope: QueryScope::World,
};

#[test]
fn remote_vi_vd_and_batch_match_local_bit_for_bit() {
    let db = build_db(33, 9);
    let e = db.e_for_points_fraction(0.3);
    let b = db.bounds;
    let span = Vec2::new(b.width(), b.height());
    let rois = [
        b,
        Rect {
            min: b.min,
            max: Vec2::new(b.min.x + span.x * 0.4, b.min.y + span.y * 0.4),
        },
        Rect {
            min: Vec2::new(b.min.x + span.x * 0.3, b.min.y + span.y * 0.5),
            max: Vec2::new(b.min.x + span.x * 0.9, b.min.y + span.y * 0.95),
        },
    ];

    // One worker: a batch runs in order on the worker that takes it.
    let one_worker = ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    };
    with_server_cfg(&db, one_worker, |addr| {
        let mut client = Client::connect(addr).expect("connect");

        // --- VI: mesh, fetch count and cold disk accesses all match. ---
        for (i, roi) in rois.iter().enumerate() {
            let remote = client.vi_query(COLD, *roi, e).expect("remote VI");
            assert!(remote.report.is_clean());

            db.try_cold_start().unwrap();
            let reads0 = thread_reads();
            let mut counters = FetchCounters::default();
            let (local, report) = db
                .try_vi_query_flat_counted(roi, e, &mut counters)
                .expect("local VI");
            assert!(report.is_clean());
            let local_disk = thread_reads() - reads0;

            let front = dm_mtm::FrontMesh::from_parts(local.nodes, &local.faces);
            assert_same_mesh(&format!("VI roi {i}"), &remote, &front);
            assert_eq!(remote.fetched_records, local.fetched_records as u64);
            assert_eq!(
                remote.disk_accesses, local_disk,
                "VI roi {i}: disk accesses"
            );
            assert_eq!(remote.counters, counters, "VI roi {i}: fetch counters");
        }

        // --- VD multi-base: same equality across both policies. ---
        for (i, roi) in rois.iter().enumerate() {
            let q = vd_query(&db, *roi);
            for policy in [BoundaryPolicy::Skip, BoundaryPolicy::FetchOnMiss] {
                let remote = client.vd_query(COLD, q, policy, 8).expect("remote VD");
                db.try_cold_start().unwrap();
                let reads0 = thread_reads();
                let mut counters = FetchCounters::default();
                let (local, report) = db
                    .try_vd_multi_base_counted(&q, policy, 8, &mut counters)
                    .expect("local VD");
                assert!(report.is_clean());
                let local_disk = thread_reads() - reads0;

                assert_same_mesh(&format!("VD roi {i} {policy:?}"), &remote, &local.front);
                assert_eq!(remote.fetched_records, local.fetched_records as u64);
                assert_eq!(remote.cubes as usize, local.cubes.len());
                assert_eq!(
                    remote.disk_accesses, local_disk,
                    "VD roi {i}: disk accesses"
                );
            }
        }

        // --- Batch (cold): per-item meshes and the disk-access total
        // both match a local serial run, and a raw frame asking for
        // u32::MAX threads gets the same bytes. ---
        let flight = dm_core::navigation::flight_path(&b, 0.5, 13);
        let batch: Vec<(Rect, f64)> = rois.iter().chain(&flight).map(|r| (*r, e)).collect();
        let (remote_total, items) = client
            .batch_query(COLD, batch.clone())
            .expect("remote batch");
        assert_eq!(items.len(), 16);
        let req = Request::BatchQuery {
            opts: COLD,
            queries: batch.clone(),
        };
        // The retired `threads` varint follows the options, which an
        // empty batch ends with; the encoder writes it as 1.
        let empty = Request::BatchQuery {
            opts: COLD,
            queries: Vec::new(),
        };
        let at = empty.encode().len() - 2;
        let mut older = req.encode();
        assert_eq!(older[at], 1);
        let mut w = dm_net::Writer::new();
        w.varint(u64::from(u32::MAX));
        older.splice(at..at + 1, w.into_inner());
        let mut raw = TcpStream::connect(addr).unwrap();
        write_frame(&mut raw, req.kind(), &older).unwrap();
        let Ok(FrameEvent::Frame(f)) = read_frame(&mut raw) else {
            panic!("raw batch unanswered");
        };
        let expected = Response::Batch {
            total_disk_accesses: remote_total,
            items: items.clone(),
        };
        assert_eq!(f.payload, expected.encode(), "raw batch answer bytes");

        db.try_cold_start().unwrap();
        let reads0 = thread_reads();
        for (i, ((roi, e), item)) in batch.iter().zip(&items).enumerate() {
            let (local, _report) = db.try_vi_query(roi, *e).expect("local batch item");
            assert_same_mesh(&format!("batch item {i}"), item, &local.front);
            assert_eq!(item.fetched_records, local.fetched_records as u64);
        }
        let local_total = thread_reads() - reads0;
        assert_eq!(remote_total, local_total, "batch disk-access total");
    });
}

#[test]
fn remote_walkthrough_matches_local_session_frame_by_frame() {
    let db = build_db(33, 21);
    let policy = BoundaryPolicy::FetchOnMiss;
    let rois = dm_core::navigation::flight_path(&db.bounds, 0.5, 8);
    let e_min = db.e_for_points_fraction(0.4);
    let e_far = db.e_for_points_fraction(0.05).max(e_min);
    let queries: Vec<VdQuery> = rois
        .iter()
        .map(|roi| {
            let mut q = vd_query(&db, *roi);
            q.target.e_min = e_min;
            q.target.e_max = e_far;
            q.target.slope = (e_far - e_min) / roi.height().max(1e-9);
            q
        })
        .collect();

    with_server(&db, |addr| {
        let mut client = Client::connect(addr).expect("connect");
        let session = client.open_session(policy, 8, false).expect("open session");
        let mut local = dm_core::NavigationSession::new(&db, policy).with_max_cubes(8);
        for (i, q) in queries.iter().enumerate() {
            let remote = client
                .frame_query(session, *q, false)
                .expect("remote frame");
            let (stats, report) = local.try_move_to(q).expect("local frame");
            assert!(report.is_clean());
            assert_same_mesh(&format!("frame {i}"), &remote, local.front());
            assert_eq!(
                remote.fetched_records, stats.fetched_records as u64,
                "frame {i}: fetched records"
            );
        }
        client.close_session(session).expect("close session");

        // The session is gone: the next frame is a typed error, and the
        // connection remains usable for other requests.
        let err = client
            .frame_query(session, queries[0], false)
            .expect_err("closed session must not answer");
        assert!(
            matches!(err, WireError::Remote { .. }),
            "expected typed remote error, got {err:?}"
        );
        let (stats, _) = client.stats(vec![]).expect("connection survives");
        assert_eq!(stats.n_records, db.n_records as u64);
    });
}

/// Build a file-backed copy of a small terrain, then reopen it through a
/// deterministic fault injector.
fn faulty_db(name: &str, rate: f64, seed: u64) -> DirectMeshDb {
    let path = std::env::temp_dir().join(format!("dm_loopback_{}_{name}.db", std::process::id()));
    let _ = std::fs::remove_file(&path);
    {
        let hf = generate::fractal_terrain(33, 33, 3);
        let pm = build_pm(TriMesh::from_heightfield(&hf), &PmBuildConfig::default());
        let pool = Arc::new(BufferPool::new(
            Box::new(FileStore::create(&path).unwrap()),
            POOL_PAGES,
        ));
        let _ = DirectMeshDb::create_in(pool, &pm, &DmBuildOptions::default());
    }
    let injector: Box<dyn PageStore> = Box::new(FaultInjector::new(
        Box::new(FileStore::open(&path).unwrap()),
        FaultConfig::new(seed).with_read_fail_rate(rate),
    ));
    // One retry: enough that most reads eventually land, while double
    // faults still surface as losses / typed errors. The degraded open
    // keeps a faulty catalog read from failing the test setup.
    let pool = Arc::new(BufferPool::new(injector, POOL_PAGES).with_max_retries(1));
    let mut report = IntegrityReport::default();
    DirectMeshDb::open_degraded(pool, &mut report).expect("catalog intact")
}

#[test]
fn fault_injected_server_degrades_instead_of_crashing() {
    let db = faulty_db("degrade", 0.3, 77);
    let e = db.e_for_points_fraction(0.3);
    let roi = db.bounds;

    with_server(&db, |addr| {
        let mut client = Client::connect(addr).expect("connect");
        let mut degraded_ok = 0u64;
        let mut losses = 0u64;
        let mut typed_errors = 0u64;

        // The degradation contract across the wire mirrors the library:
        // lost *heap* pages degrade into loss reports, while an unreadable
        // *index* page is a typed storage error. Either way the server
        // keeps answering — no crash, no dropped connection, no untyped
        // failure.
        for i in 0..24 {
            match client.vi_query(
                QueryOpts {
                    cold: i % 2 == 0,
                    degraded: true,
                    ..QueryOpts::default()
                },
                roi,
                e,
            ) {
                Ok(m) => {
                    degraded_ok += 1;
                    losses += m.report.pages_lost;
                }
                Err(WireError::Remote { .. }) => typed_errors += 1,
                Err(other) => panic!("degraded query died untypedly: {other:?}"),
            }

            // Strict queries on a faulty store either succeed cleanly or
            // fail with a typed error — partial data is never silent.
            match client.vi_query(COLD, roi, e) {
                Ok(m) => assert!(m.report.is_clean(), "strict query returned losses"),
                Err(WireError::Remote { .. }) => typed_errors += 1,
                Err(other) => panic!("strict query died untypedly: {other:?}"),
            }
        }
        assert!(degraded_ok > 0, "no degraded query ever answered");
        assert!(
            losses + typed_errors > 0,
            "fault rate 0.3 over 48 queries had no observable effect"
        );

        // The same connection still answers after all of that.
        let (stats, _) = client.stats(vec![]).expect("connection survives faults");
        assert_eq!(stats.n_records, db.n_records as u64);
    });
}

/// A strict open reads no heap page, so the first `Stats` that resolves
/// a keep fraction is what scans the heap for the interval statistics.
/// On a store whose every heap read fails, that is a typed error for
/// the one request — not a panic in a worker — and the server keeps
/// serving.
#[test]
fn stats_keep_resolution_over_an_unreadable_heap_is_a_typed_error() {
    let path = std::env::temp_dir().join(format!("dm_loopback_{}_deadheap.db", std::process::id()));
    let _ = std::fs::remove_file(&path);
    {
        let hf = generate::fractal_terrain(33, 33, 3);
        let pm = build_pm(TriMesh::from_heightfield(&hf), &PmBuildConfig::default());
        let pool = Arc::new(BufferPool::new(
            Box::new(FileStore::create(&path).unwrap()),
            POOL_PAGES,
        ));
        let _ = DirectMeshDb::create_in(pool, &pm, &DmBuildOptions::default());
    }
    // The device dies right after the pages an open needs: every heap
    // read fails, the resident catalog and index keep answering.
    let open_reads = {
        let pool = Arc::new(BufferPool::new(
            Box::new(FileStore::open(&path).unwrap()),
            POOL_PAGES,
        ));
        DirectMeshDb::open(Arc::clone(&pool)).unwrap();
        pool.stats().reads
    };
    let injector: Box<dyn PageStore> = Box::new(FaultInjector::new(
        Box::new(FileStore::open(&path).unwrap()),
        FaultConfig::new(1).with_fail_reads_after(open_reads),
    ));
    let db = DirectMeshDb::open(Arc::new(BufferPool::new(injector, POOL_PAGES)))
        .expect("an open reads the catalog and the index only");

    with_server(&db, |addr| {
        let mut client = Client::connect(addr).expect("connect");
        for _ in 0..2 {
            match client.stats(vec![0.25, 0.05]) {
                Err(WireError::Remote { message, .. }) => {
                    assert!(message.contains("storage"), "{message}")
                }
                other => panic!("expected a typed storage error, got {other:?}"),
            }
        }
        let (stats, resolved) = client.stats(vec![]).expect("server keeps serving");
        assert_eq!(stats.n_records, db.n_records as u64);
        assert!(resolved.is_empty());
    });
    std::fs::remove_file(&path).ok();
}

// ---------------------------------------------------------------------------
// Adversarial clients. A hostile peer — one that never reads, one that
// trickles and stalls, one that sends garbage — must be shed cleanly
// (typed error or disconnect, never a wedged server), while a
// well-behaved client sharing the server keeps getting answers that are
// bit-identical to local execution.
// ---------------------------------------------------------------------------

use dm_net::frame::{read_frame, write_frame, FrameEvent};
use dm_net::proto::{ErrorCode, Request, Response};
use std::io::Write as _;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// One clean warm VI query over the wire, compared bit-for-bit against
/// the same query run locally on the shared database object.
fn assert_clean_query_matches(client: &mut Client, db: &DirectMeshDb, roi: Rect, e: f64) {
    let remote = client
        .vi_query(QueryOpts::default(), roi, e)
        .expect("clean client query");
    let (local, report) = db.try_vi_query(&roi, e).expect("local query");
    assert!(report.is_clean());
    assert_same_mesh("clean client under attack", &remote, &local.front);
    assert_eq!(remote.fetched_records, local.fetched_records as u64);
}

#[test]
fn stalled_reader_is_shed_while_clean_client_stays_bit_identical() {
    let db = build_db(33, 5);
    let e_full = db.e_for_points_fraction(1.0);
    let e_mid = db.e_for_points_fraction(0.3);
    let roi = db.bounds;
    let cfg = ServerConfig {
        workers: 2,
        // Tight budget so the non-reading peer is shed quickly.
        write_budget: 64 * 1024,
        ..ServerConfig::default()
    };
    with_server_cfg(&db, cfg, |addr| {
        let evil_done = AtomicBool::new(false);
        std::thread::scope(|s| {
            let evil = s.spawn(|| {
                // Pipeline full-detail queries and never read a byte:
                // responses pile up against the write budget until the
                // server sheds the connection, which turns our next
                // blocked write into an error.
                let mut sock = TcpStream::connect(addr).unwrap();
                let req = Request::ViQuery {
                    opts: QueryOpts::default(),
                    roi,
                    e: e_full,
                };
                let payload = req.encode();
                let mut dropped = false;
                for _ in 0..200_000 {
                    if write_frame(&mut sock, req.kind(), &payload).is_err() {
                        dropped = true;
                        break;
                    }
                }
                evil_done.store(true, Ordering::SeqCst);
                dropped
            });
            // The clean client keeps querying while the attack runs.
            let mut client = Client::connect(addr).expect("clean connect");
            let t0 = Instant::now();
            while !evil_done.load(Ordering::SeqCst) && t0.elapsed() < Duration::from_secs(30) {
                assert_clean_query_matches(&mut client, &db, roi, e_mid);
            }
            assert!(
                evil.join().expect("evil thread"),
                "server never shed the non-reading peer"
            );
            // And still answers bit-identically after the shed.
            assert_clean_query_matches(&mut client, &db, roi, e_mid);
        });
    });
}

#[test]
fn trickle_writer_is_served_but_mid_frame_staller_is_shed() {
    let db = build_db(33, 5);
    let e = db.e_for_points_fraction(0.3);
    let roi = db.bounds;
    let cfg = ServerConfig {
        workers: 2,
        frame_stall_timeout: Duration::from_millis(100),
        ..ServerConfig::default()
    };
    with_server_cfg(&db, cfg, |addr| {
        // A 1-byte-at-a-time writer that keeps making progress is a slow
        // peer, not a hostile one: the event loop reassembles its frame
        // without ever blocking a worker on it, and the answer is
        // bit-identical to local execution.
        let req = Request::ViQuery {
            opts: QueryOpts::default(),
            roi,
            e,
        };
        let mut frame_bytes = Vec::new();
        write_frame(&mut frame_bytes, req.kind(), &req.encode()).unwrap();
        let mut trickler = TcpStream::connect(addr).unwrap();
        trickler
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        for byte in &frame_bytes {
            trickler.write_all(std::slice::from_ref(byte)).unwrap();
            std::thread::sleep(Duration::from_millis(1));
        }
        match read_frame(&mut trickler).expect("trickled query answered") {
            FrameEvent::Frame(f) => {
                let resp = Response::decode(&f).expect("decode trickled response");
                let Response::Mesh(remote) = resp else {
                    panic!("expected mesh for trickled query");
                };
                let (local, _) = db.try_vi_query(&roi, e).expect("local query");
                assert_same_mesh("trickled query", &remote, &local.front);
            }
            other => panic!("expected a response frame, got {other:?}"),
        }
        drop(trickler);

        // A peer that goes silent *mid-frame* owes the server bytes it
        // never sends: the stall deadline sheds it. A clean client on
        // the same server is never disturbed.
        let mut staller = TcpStream::connect(addr).unwrap();
        staller.write_all(&frame_bytes[..7]).unwrap();
        let mut client = Client::connect(addr).expect("clean connect");
        staller.set_nonblocking(true).unwrap();
        let t0 = Instant::now();
        let mut shed = false;
        while t0.elapsed() < Duration::from_secs(10) {
            assert_clean_query_matches(&mut client, &db, roi, e);
            let mut probe = [0u8; 1];
            match std::io::Read::read(&mut staller, &mut probe) {
                Ok(_) => {
                    shed = true; // EOF: the server dropped us
                    break;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(_) => {
                    shed = true; // reset
                    break;
                }
            }
        }
        assert!(shed, "server never shed the mid-frame staller");
    });
}

#[test]
fn garbage_and_truncated_frames_get_typed_errors_not_crashes() {
    let db = build_db(33, 5);
    let e = db.e_for_points_fraction(0.3);
    let roi = db.bounds;
    with_server(&db, |addr| {
        // Garbage bytes: the server answers with a *typed* BadRequest
        // error frame before dropping the connection.
        let mut garbage = TcpStream::connect(addr).unwrap();
        garbage
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        garbage
            .write_all(b"these bytes are not a frame of any kind")
            .unwrap();
        match read_frame(&mut garbage).expect("typed error answered") {
            FrameEvent::Frame(f) => match Response::decode(&f).expect("decode error frame") {
                Response::Error { code, .. } => {
                    assert_eq!(code, ErrorCode::BadRequest, "garbage gets BadRequest");
                }
                other => panic!("expected error response, got kind {:#04x}", other.kind()),
            },
            other => panic!("expected a typed error frame, got {other:?}"),
        }
        // ...and then EOF: the connection is closed, not wedged.
        match read_frame(&mut garbage).expect("read after error") {
            FrameEvent::Eof => {}
            other => panic!("expected EOF after typed error, got {other:?}"),
        }

        // Truncated frame: a valid header promising more bytes than ever
        // arrive, then an abrupt close. The server just drops the
        // half-open connection; nothing crashes or leaks.
        let req = Request::ViQuery {
            opts: QueryOpts::default(),
            roi,
            e,
        };
        let mut frame_bytes = Vec::new();
        write_frame(&mut frame_bytes, req.kind(), &req.encode()).unwrap();
        let mut trunc = TcpStream::connect(addr).unwrap();
        trunc
            .write_all(&frame_bytes[..frame_bytes.len() / 2])
            .unwrap();
        drop(trunc);

        // A well-behaved client is still answered bit-identically.
        let mut client = Client::connect(addr).expect("clean connect");
        assert_clean_query_matches(&mut client, &db, roi, e);
    });
}
