//! Delta-frame streaming equivalence: a navigation session streamed as
//! ΔROI patches must reconstruct, frame by frame, the **exact** mesh the
//! monolithic full-frame transport ships — bit-for-bit vertices and
//! faces, same fetched-record counts, same integrity reports.
//!
//! The property is checked three ways, mirroring the repo's degradation
//! ladder: on a clean store, on a store injecting 1% transient read
//! faults (masked by the pool's retry budget, so determinism must
//! survive the retries), and on a truncated store serving a degraded
//! prefix (permanent, deterministic losses — the loss reports must
//! route identically through the delta tail). A final group fuzzes the
//! `FrameDelta` wire image (truncation + bit flips: typed errors, never
//! a panic) and proves a live session survives a client-side stream
//! corruption through the full-frame resync path.

use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

use dm_core::{BoundaryPolicy, DirectMeshDb, DmBuildOptions, IntegrityReport, VdQuery};
use dm_geom::{Rect, Vec2};
use dm_mtm::builder::{build_pm, PmBuildConfig};
use dm_mtm::PlaneTarget;
use dm_net::wire::{Reader, Writer};
use dm_net::{
    canonical_mesh, canonical_mesh_into, diff_frames, Client, FrameDelta, FrontMirror, MeshResult,
    ResultTail, StreamMode,
};
use dm_server::{Server, ServerConfig};
use dm_storage::{BufferPool, FaultConfig, FaultInjector, FileStore, MemStore, PageStore};
use dm_terrain::{generate, TriMesh};
use proptest::collection;
use proptest::prelude::*;

const POOL_PAGES: usize = 4096;

static CLEAN: OnceLock<DirectMeshDb> = OnceLock::new();
static FAULTY: OnceLock<DirectMeshDb> = OnceLock::new();
static DEGRADED: OnceLock<DirectMeshDb> = OnceLock::new();

fn clean_db() -> &'static DirectMeshDb {
    CLEAN.get_or_init(|| {
        let hf = generate::fractal_terrain(33, 33, 7);
        let pm = build_pm(TriMesh::from_heightfield(&hf), &PmBuildConfig::default());
        let pool = Arc::new(BufferPool::new(Box::new(MemStore::new()), POOL_PAGES));
        DirectMeshDb::build(pool, &pm, &DmBuildOptions::default())
    })
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dm_stream_{}_{name}.db", std::process::id()))
}

fn build_file_db(path: &PathBuf) {
    let _ = std::fs::remove_file(path);
    let hf = generate::fractal_terrain(33, 33, 7);
    let pm = build_pm(TriMesh::from_heightfield(&hf), &PmBuildConfig::default());
    let pool = Arc::new(BufferPool::new(
        Box::new(FileStore::create(path).unwrap()),
        POOL_PAGES,
    ));
    let _ = DirectMeshDb::create_in(pool, &pm, &DmBuildOptions::default());
}

/// The same terrain behind a 1% transient-fault injector with the
/// default retry budget: every read eventually lands, so query results
/// must be *identical* to the clean store no matter how the two
/// sessions' reads interleave with the fault stream.
fn faulty_db() -> &'static DirectMeshDb {
    FAULTY.get_or_init(|| {
        let path = tmp("transient");
        build_file_db(&path);
        let injector: Box<dyn PageStore> = Box::new(FaultInjector::new(
            Box::new(FileStore::open(&path).unwrap()),
            FaultConfig::new(41).with_read_fail_rate(0.01),
        ));
        let pool = Arc::new(BufferPool::new(injector, POOL_PAGES));
        DirectMeshDb::open(pool).expect("transient faults are retried")
    })
}

/// The same terrain truncated mid-heap and opened degraded: permanent,
/// deterministic page losses that both transports must report alike.
fn degraded_db() -> &'static DirectMeshDb {
    DEGRADED.get_or_init(|| {
        let src = tmp("degraded_src");
        build_file_db(&src);
        let cut = tmp("degraded_cut");
        let _ = std::fs::remove_file(&cut);
        std::fs::copy(&src, &cut).unwrap();
        let pages = std::fs::metadata(&cut).unwrap().len() / dm_storage::PAGE_SIZE as u64;
        let f = std::fs::OpenOptions::new().write(true).open(&cut).unwrap();
        f.set_len(pages * 4 / 5 * dm_storage::PAGE_SIZE as u64)
            .unwrap();
        f.sync_all().unwrap();
        let pool = Arc::new(BufferPool::new(
            Box::new(FileStore::open_locked(&cut, false).unwrap()),
            POOL_PAGES,
        ));
        let mut report = IntegrityReport::default();
        DirectMeshDb::open_degraded(pool, &mut report).expect("catalog survives the cut")
    })
}

fn with_server<R>(db: &DirectMeshDb, f: impl FnOnce(&str) -> R) -> R {
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
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

/// A viewpoint query over a sub-window derived from four unit fractions.
fn query_from_fracs(db: &DirectMeshDb, fx: f64, fy: f64, fw: f64, fh: f64) -> VdQuery {
    let b = db.bounds;
    let span = Vec2::new(b.width(), b.height());
    let min = Vec2::new(b.min.x + span.x * fx * 0.5, b.min.y + span.y * fy * 0.5);
    let roi = Rect {
        min,
        max: Vec2::new(
            min.x + span.x * (0.2 + 0.8 * fw) * 0.5,
            min.y + span.y * (0.2 + 0.8 * fh) * 0.5,
        ),
    };
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

/// Bit-level equality: coordinates compared as bit patterns so a NaN in
/// the terrain can never mask a reconstruction divergence.
fn assert_bit_identical(label: &str, a: &MeshResult, b: &MeshResult) {
    assert_eq!(a.vertices.len(), b.vertices.len(), "{label}: vertex count");
    for (x, y) in a.vertices.iter().zip(&b.vertices) {
        assert!(
            x.id == y.id
                && x.x.to_bits() == y.x.to_bits()
                && x.y.to_bits() == y.y.to_bits()
                && x.z.to_bits() == y.z.to_bits(),
            "{label}: vertex {} differs",
            x.id
        );
    }
    assert_eq!(a.faces, b.faces, "{label}: face sets differ");
    assert_eq!(a.fetched_records, b.fetched_records, "{label}: fetch count");
    assert_eq!(a.cubes, b.cubes, "{label}: cube count");
    assert_eq!(a.report, b.report, "{label}: integrity reports differ");
}

/// Drive two sessions on one server down the same path — one on the
/// monolithic transport, one streamed with the given per-frame modes —
/// and assert every reconstructed frame is bit-identical, including a
/// local shadow session as the ground truth.
fn assert_stream_equivalence(
    db: &DirectMeshDb,
    queries: &[VdQuery],
    modes: &[StreamMode],
    degraded: bool,
) {
    with_server(db, |addr| {
        let mut client = Client::connect(addr).expect("connect");
        let full_session = client
            .open_session(BoundaryPolicy::FetchOnMiss, 8, false)
            .expect("open full session");
        let delta_session = client
            .open_session(BoundaryPolicy::FetchOnMiss, 8, false)
            .expect("open delta session");
        let mut shadow =
            dm_core::NavigationSession::new(db, BoundaryPolicy::FetchOnMiss).with_max_cubes(8);
        let mut mirror = FrontMirror::new();
        let mut saw_delta = false;
        for (i, q) in queries.iter().enumerate() {
            let full = client
                .frame_query(full_session, *q, degraded)
                .expect("full frame");
            let mode = modes[i % modes.len()];
            let (streamed, info) = client
                .frame_query_streamed(delta_session, *q, degraded, mode, &mut mirror)
                .expect("streamed frame");
            saw_delta |= info.was_delta;
            assert_bit_identical(&format!("frame {i} ({mode:?})"), &streamed, &full);
            if degraded {
                let (_, report) = shadow.try_move_to(q).expect("shadow frame");
                assert_eq!(streamed.report, report, "frame {i}: shadow report");
            } else {
                let (stats, report) = shadow.try_move_to(q).expect("shadow frame");
                assert!(report.is_clean(), "clean store produced losses");
                let (lv, lf) = canonical_mesh(shadow.front());
                assert_eq!(streamed.vertices, lv, "frame {i}: shadow vertices");
                assert_eq!(streamed.faces, lf, "frame {i}: shadow faces");
                assert_eq!(
                    streamed.fetched_records, stats.fetched_records as u64,
                    "frame {i}: shadow fetch count"
                );
            }
        }
        // Mixed modes may legitimately never ship a patch (a Delta frame
        // right after a Full one is a full reset), but an all-delta walk
        // of two or more frames must.
        if queries.len() > 1 && modes.iter().all(|m| matches!(m, StreamMode::Delta)) {
            assert!(
                saw_delta,
                "all-delta multi-frame walk never shipped a delta"
            );
        }
        client.close_session(full_session).expect("close full");
        client.close_session(delta_session).expect("close delta");
    });
}

fn arb_mode() -> impl Strategy<Value = StreamMode> {
    (0u8..3).prop_map(|s| match s {
        0 => StreamMode::Delta,
        1 => StreamMode::Auto,
        _ => StreamMode::Full,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random paths, random per-frame transport modes, clean store.
    #[test]
    fn delta_stream_reconstructs_full_frames(
        fracs in collection::vec((0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0), 2..7),
        modes in collection::vec(arb_mode(), 1..4),
    ) {
        let db = clean_db();
        let queries: Vec<VdQuery> = fracs
            .iter()
            .map(|&(x, y, w, h)| query_from_fracs(db, x, y, w, h))
            .collect();
        assert_stream_equivalence(db, &queries, &modes, false);
    }

    /// Same property with 1% transient read faults underneath: retries
    /// mask them, so the streamed reconstruction must stay identical.
    #[test]
    fn delta_stream_survives_transient_faults(
        fracs in collection::vec((0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0), 2..5),
    ) {
        let db = faulty_db();
        let queries: Vec<VdQuery> = fracs
            .iter()
            .map(|&(x, y, w, h)| query_from_fracs(db, x, y, w, h))
            .collect();
        assert_stream_equivalence(db, &queries, &[StreamMode::Delta], false);
    }

    /// Decoding a truncated or bit-flipped `FrameDelta` image returns a
    /// typed error or a (harmless) different value — it never panics.
    #[test]
    fn corrupted_frame_delta_images_never_panic(
        cut_frac in 0.0f64..1.0,
        flip_bit in any::<usize>(),
        seq in any::<u64>(),
    ) {
        let d = FrameDelta {
            seq,
            base_seq: seq.wrapping_sub(1),
            is_delta: true,
            removed_vertices: vec![1, 8, 20],
            added_vertices: vec![dm_net::WireVertex { id: 2, x: 0.5, y: -1.0, z: 3.25 }],
            removed_faces: vec![[1, 8, 20]],
            added_faces: vec![[2, 9, 30], [2, 30, 31]],
            tail: dm_net::ResultTail::default(),
        };
        let mut w = Writer::new();
        d.encode(&mut w);
        let mut bytes = w.into_inner();

        // Truncation: every proper prefix must fail cleanly.
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        let mut r = Reader::new(&bytes[..cut.min(bytes.len().saturating_sub(1))]);
        let _ = FrameDelta::decode(&mut r).and_then(|_| r.finish());

        // Bit flip: decode may fail or may yield a different delta; a
        // FrontMirror applying it must also never panic.
        let bit = flip_bit % (bytes.len() * 8);
        bytes[bit / 8] ^= 1 << (bit % 8);
        let mut r = Reader::new(&bytes);
        if let Ok(mangled) = FrameDelta::decode(&mut r).and_then(|v| r.finish().map(|()| v)) {
            let mut mirror = FrontMirror::new();
            let _ = mirror.apply(&mangled);
        }
    }
}

/// Degraded store: page losses are permanent and deterministic, so both
/// transports must ship the same meshes *and the same loss reports* —
/// the `IntegrityReport` rides the delta tail unchanged.
#[test]
fn delta_stream_matches_full_frames_on_a_degraded_store() {
    let db = degraded_db();
    let queries: Vec<VdQuery> = [
        (0.1, 0.1, 0.8, 0.8),
        (0.3, 0.2, 0.7, 0.7),
        (0.5, 0.4, 0.6, 0.9),
        (0.6, 0.6, 0.9, 0.5),
        (0.2, 0.8, 0.5, 0.6),
    ]
    .iter()
    .map(|&(x, y, w, h)| query_from_fracs(db, x, y, w, h))
    .collect();
    assert_stream_equivalence(db, &queries, &[StreamMode::Delta, StreamMode::Auto], true);
}

/// A client whose mirror is corrupted mid-walk (standing in for any
/// stream-level corruption that survives decode) must resync through a
/// full-frame re-request — transparently, on the same session, with the
/// reconstructed frame still bit-identical to the shadow session.
#[test]
fn corrupted_mirror_resyncs_through_a_full_frame() {
    let db = clean_db();
    let queries: Vec<VdQuery> = (0..6)
        .map(|i| query_from_fracs(db, f64::from(i) / 6.0, f64::from(i) / 8.0, 0.6, 0.6))
        .collect();
    with_server(db, |addr| {
        let mut client = Client::connect(addr).expect("connect");
        let session = client
            .open_session(BoundaryPolicy::FetchOnMiss, 8, false)
            .expect("open session");
        let mut shadow =
            dm_core::NavigationSession::new(db, BoundaryPolicy::FetchOnMiss).with_max_cubes(8);
        let mut mirror = FrontMirror::new();
        for (i, q) in queries.iter().enumerate() {
            // Clobber the client's base state mid-walk: the next delta
            // can no longer apply and must trigger the resync path.
            if i == 3 {
                mirror.reset();
            }
            let (m, info) = client
                .frame_query_streamed(session, *q, false, StreamMode::Delta, &mut mirror)
                .expect("streamed frame");
            if i == 3 {
                assert!(info.resynced, "frame 3 must resync after corruption");
            }
            // Frame 4 is a full reset (the resync answer cleared the
            // server's delta base); everything else ships as a delta.
            if i > 0 && i != 3 && i != 4 {
                assert!(info.was_delta, "frame {i} should ship as a delta");
                assert!(!info.resynced, "frame {i} resynced unexpectedly");
            }
            shadow.try_move_to(q).expect("shadow frame");
            let (lv, lf) = canonical_mesh(shadow.front());
            assert_eq!(m.vertices, lv, "frame {i}: vertices");
            assert_eq!(m.faces, lf, "frame {i}: faces");
        }
        client.close_session(session).expect("close session");
    });
}

/// A single-store session frame reports the cubes its plan fetched, on
/// the streamed and the monolithic transport alike: the count a cold
/// multi-base query over the same window executes.
#[test]
fn streamed_session_frames_report_their_cubes() {
    let db = clean_db();
    let queries: Vec<VdQuery> = (0..4)
        .map(|i| query_from_fracs(db, f64::from(i) / 4.0, 0.1, 0.9, 0.9))
        .collect();
    with_server(db, |addr| {
        let mut client = Client::connect(addr).expect("connect");
        let session = client
            .open_session(BoundaryPolicy::FetchOnMiss, 8, false)
            .expect("open session");
        let mut mirror = FrontMirror::new();
        for (i, q) in queries.iter().enumerate() {
            let (cold, _) = db
                .try_vd_multi_base(q, BoundaryPolicy::FetchOnMiss, 8)
                .expect("cold query");
            let (streamed, _) = client
                .frame_query_streamed(session, *q, false, StreamMode::Auto, &mut mirror)
                .expect("streamed frame");
            assert_eq!(streamed.cubes as usize, cold.cubes.len(), "frame {i}");
            let full = client.frame_query(session, *q, false).expect("full frame");
            assert_eq!(full.cubes as usize, cold.cubes.len(), "frame {i}");
        }
        client.close_session(session).expect("close session");
    });
}

/// The per-frame server flow — canonicalize into reused buffers, diff
/// against the previous frame, encode into a reused writer — reaches a
/// steady state: a second pass down the same tour starts at the first
/// pass's high-water capacities and ends there too.
#[test]
fn frame_scratch_buffers_stop_growing_on_a_repeated_tour() {
    let db = clean_db();
    let queries: Vec<VdQuery> = (0..8)
        .map(|i| query_from_fracs(db, f64::from(i) / 8.0, f64::from(i) / 10.0, 0.6, 0.6))
        .collect();
    let (mut prev_v, mut prev_f) = (Vec::new(), Vec::new());
    let (mut next_v, mut next_f) = (Vec::new(), Vec::new());
    let mut enc = Writer::new();
    let mut caps = Vec::new();
    for _pass in 0..2 {
        let mut nav =
            dm_core::NavigationSession::new(db, BoundaryPolicy::FetchOnMiss).with_max_cubes(8);
        for (i, q) in queries.iter().enumerate() {
            nav.try_move_to(q).expect("local frame");
            canonical_mesh_into(nav.front(), &mut next_v, &mut next_f);
            if i > 0 {
                let (rv, av, rf, af) = diff_frames(&prev_v, &prev_f, &next_v, &next_f);
                let patch = FrameDelta {
                    seq: i as u64,
                    base_seq: i as u64 - 1,
                    is_delta: true,
                    removed_vertices: rv,
                    added_vertices: av,
                    removed_faces: rf,
                    added_faces: af,
                    tail: ResultTail::default(),
                };
                enc.reset();
                patch.encode(&mut enc);
            }
            std::mem::swap(&mut prev_v, &mut next_v);
            std::mem::swap(&mut prev_f, &mut next_f);
        }
        caps.push([
            prev_v.capacity(),
            prev_f.capacity(),
            next_v.capacity(),
            next_f.capacity(),
        ]);
    }
    assert_eq!(caps[0], caps[1], "scratch buffers grew on the second pass");
}
