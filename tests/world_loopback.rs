//! World-server loopback tests: a `dm-server` serving a [`WorldDb`]
//! over TCP must answer exactly like the library — cross-tile VI/VD
//! queries bit-identical to local world execution, region-scoped
//! queries equal to their scoped local twins, per-region stats faithful
//! over the wire — and must release every session's region pins on
//! CloseSession *and* on abrupt disconnect, so LRU eviction is never
//! wedged by a dead client.

use std::sync::Arc;
use std::time::{Duration, Instant};

use dm_core::query::vi_query_flat;
use dm_core::{BoundaryPolicy, DirectMeshDb, DmBuildOptions, FetchCounters, VdQuery};
use dm_geom::{Rect, Vec2};
use dm_mtm::builder::{build_pm, PmBuildConfig};
use dm_net::{
    canonical_flat, canonical_mesh, Client, ErrorCode, MeshResult, QueryOpts, QueryScope, WireError,
};
use dm_server::{Server, ServerConfig};
use dm_storage::{BufferPool, MemStore};
use dm_terrain::{generate, TriMesh};
use dm_world::{write_split_world, WorldDb, WorldOptions, WorldSession};

fn build_db(side: usize, seed: u64) -> DirectMeshDb {
    let hf = generate::fractal_terrain(side, side, seed);
    let pm = build_pm(TriMesh::from_heightfield(&hf), &PmBuildConfig::default());
    let pool = Arc::new(BufferPool::new(Box::new(MemStore::new()), 8192));
    DirectMeshDb::build(pool, &pm, &DmBuildOptions::default())
}

/// Split `db` 2×2 into file-backed tiles under a fresh temp dir and open
/// the world over them. The caller removes `dir` when done.
fn split_world(db: &DirectMeshDb, name: &str, opts: WorldOptions) -> (WorldDb, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("dm_world_loop_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let manifest = write_split_world(db, 2, 2, &dir, &DmBuildOptions::default()).unwrap();
    let world = WorldDb::open(&manifest, opts).unwrap();
    (world, dir)
}

/// Serve `world` on a loopback socket for the duration of `f`; shutdown
/// is signalled even when `f` panics so a failing assertion aborts the
/// test instead of deadlocking the scope.
fn with_world_server<R>(world: &WorldDb, f: impl FnOnce(&str) -> R) -> R {
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
        let handle = s.spawn(|| server.serve_world(world).expect("serve world"));
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
    VdQuery::from_viewpoint(roi, roi.center(), db.e_max / 40.0, db.e_max)
}

fn scope_opts(scope: QueryScope) -> QueryOpts {
    QueryOpts {
        scope,
        ..QueryOpts::default()
    }
}

fn assert_mesh_eq(
    label: &str,
    remote: &MeshResult,
    vertices: &[dm_net::WireVertex],
    faces: &[[u32; 3]],
) {
    assert_eq!(remote.vertices, vertices, "{label}: vertex sets differ");
    assert_eq!(remote.faces, faces, "{label}: face sets differ");
}

#[test]
fn remote_world_queries_match_local_bit_for_bit() {
    let db = build_db(33, 13);
    let (world, dir) = split_world(&db, "bitident", WorldOptions::default());
    let b = db.bounds;
    // Three ROIs: the whole world, one crossing both seams, one inside a
    // single tile.
    let rois = [
        b,
        Rect::from_corners(
            Vec2::new(b.min.x + b.width() * 0.25, b.min.y + b.height() * 0.3),
            Vec2::new(b.min.x + b.width() * 0.8, b.min.y + b.height() * 0.85),
        ),
        Rect::from_corners(
            Vec2::new(b.min.x + b.width() * 0.05, b.min.y + b.height() * 0.05),
            Vec2::new(b.min.x + b.width() * 0.4, b.min.y + b.height() * 0.4),
        ),
    ];
    let e = db.e_for_points_fraction(0.3);

    with_world_server(&world, |addr| {
        let mut client = Client::connect(addr).expect("connect");

        // --- Cross-tile VI, world scope. ---
        for (i, roi) in rois.iter().enumerate() {
            let remote = client
                .vi_query(QueryOpts::default(), *roi, e)
                .expect("remote world VI");
            assert!(remote.report.is_clean());
            let mut ctr = FetchCounters::default();
            let (local, report) = world
                .try_vi_query_flat_counted(roi, e, &mut ctr)
                .expect("local world VI");
            assert!(report.is_clean());
            let (lv, lf) = canonical_flat(&local.nodes, &local.faces);
            assert_mesh_eq(&format!("world VI roi {i}"), &remote, &lv, &lf);
            assert_eq!(remote.fetched_records, local.fetched_records as u64);
        }

        // --- Cross-tile VD, both policies. ---
        for (i, roi) in rois.iter().enumerate() {
            let q = vd_query(&db, *roi);
            for policy in [BoundaryPolicy::Skip, BoundaryPolicy::FetchOnMiss] {
                let remote = client
                    .vd_query(QueryOpts::default(), q, policy, 8)
                    .expect("remote world VD");
                let mut ctr = FetchCounters::default();
                let (local, report) = world
                    .try_vd_query_counted(&q, policy, 8, &mut ctr)
                    .expect("local world VD");
                assert!(report.is_clean());
                let (lv, lf) = canonical_mesh(&local.front);
                assert_mesh_eq(&format!("world VD roi {i} {policy:?}"), &remote, &lv, &lf);
                assert_eq!(remote.fetched_records, local.fetched_records as u64);
                assert_eq!(remote.cubes as usize, local.cubes.len());
            }
        }

        // --- Region scope: each region answers exactly its scoped local
        // twin, and an unknown region id is a typed BadRequest. ---
        let seam = rois[1];
        for idx in 0..world.n_regions() {
            let id = world.region_meta(idx).id;
            let remote = client
                .vi_query(scope_opts(QueryScope::Region(id)), seam, e)
                .expect("remote scoped VI");
            let mut ctr = FetchCounters::default();
            let (local, _) = vi_query_flat(&world.scoped(Some(idx)), &seam, e, &mut ctr)
                .expect("local scoped VI");
            let (lv, lf) = canonical_flat(&local.nodes, &local.faces);
            assert_mesh_eq(&format!("region {id} VI"), &remote, &lv, &lf);
        }
        match client.vi_query(scope_opts(QueryScope::Region(999)), seam, e) {
            Err(WireError::Remote { code, .. }) => {
                assert_eq!(code, ErrorCode::BadRequest.code(), "unknown region id");
            }
            other => panic!("unknown region id must be BadRequest, got {other:?}"),
        }

        // --- Per-region stats over the wire mirror the library's. ---
        let wire = client.world_stats().expect("world stats");
        let local = world.region_stats();
        assert_eq!(wire.len(), local.len());
        for (w, l) in wire.iter().zip(&local) {
            assert_eq!(w.id, l.id);
            assert_eq!(w.opens, l.opens);
            assert_eq!(w.evictions, l.evictions);
            assert_eq!(w.hits, l.hits);
            assert_eq!(w.queries, l.queries);
            assert_eq!(w.resident_pages, l.resident_pages);
            assert_eq!(w.open, l.open);
        }
        assert!(wire.iter().any(|r| r.opens > 0), "queries opened regions");
    });
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn world_sessions_match_local_and_release_pins_on_close() {
    let db = build_db(33, 29);
    let (world, dir) = split_world(&db, "sessions", WorldOptions::default());
    let rois = dm_core::navigation::flight_path(&db.bounds, 0.5, 6);
    let policy = BoundaryPolicy::FetchOnMiss;

    with_world_server(&world, |addr| {
        let mut client = Client::connect(addr).expect("connect");
        let session = client.open_session(policy, 8, false).expect("open session");
        let mut local = WorldSession::new(policy, 8);
        for (i, roi) in rois.iter().enumerate() {
            let q = vd_query(&db, *roi);
            let remote = client.frame_query(session, q, false).expect("remote frame");
            let mut ctr = FetchCounters::default();
            let (res, report) = local.frame(&world, &q, &mut ctr).expect("local frame");
            assert!(report.is_clean());
            let (lv, lf) = canonical_mesh(&res.front);
            assert_mesh_eq(&format!("world frame {i}"), &remote, &lv, &lf);
            assert_eq!(remote.fetched_records, res.fetched_records as u64);
        }
        // The flight path crosses tiles, so the server session holds
        // pins: our local twin pinned the same regions, hence counts are
        // doubled on the regions both touched.
        assert!(!local.regions().is_empty(), "path never touched a region");
        for &idx in local.regions() {
            assert!(
                world.region_pins(idx) >= 2,
                "server session must pin region {idx} alongside the local twin"
            );
        }
        local.close(&world);

        // CloseSession releases the server session's pins.
        client.close_session(session).expect("close session");
        for idx in 0..world.n_regions() {
            assert_eq!(
                world.region_pins(idx),
                0,
                "region {idx} still pinned after CloseSession"
            );
        }
    });
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn abrupt_disconnect_releases_pins_and_eviction_proceeds() {
    let db = build_db(33, 41);
    let (world, dir) = split_world(
        &db,
        "teardown",
        WorldOptions {
            max_open: 1,
            ..WorldOptions::default()
        },
    );
    // An ROI strictly inside region 0's footprint: the session pins
    // exactly that region.
    let wb = world.region_meta(0).world_bounds();
    let roi = Rect::from_corners(
        Vec2::new(wb.min.x + wb.width() * 0.2, wb.min.y + wb.height() * 0.2),
        Vec2::new(wb.min.x + wb.width() * 0.8, wb.min.y + wb.height() * 0.8),
    );

    with_world_server(&world, |addr| {
        {
            let mut client = Client::connect(addr).expect("connect");
            let session = client
                .open_session(BoundaryPolicy::Skip, 8, false)
                .expect("open session");
            let q = vd_query(&db, roi);
            client.frame_query(session, q, false).expect("frame");
            assert!(
                world.region_pins(0) > 0,
                "an active session must pin the region it reads"
            );
            // No CloseSession: the connection dies with the session open.
        }
        // The reactor notices the dead peer and releases the session's
        // pins; poll rather than sleep — teardown is asynchronous.
        let t0 = Instant::now();
        while world.region_pins(0) > 0 {
            assert!(
                t0.elapsed() < Duration::from_secs(10),
                "pins never released after abrupt disconnect"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        // With the pin gone, LRU eviction proceeds: opening another
        // region under max_open=1 evicts region 0 instead of wedging.
        let evictions_before: u64 = world.region_stats().iter().map(|r| r.evictions).sum();
        world.region(1).expect("open another region");
        let stats = world.region_stats();
        assert!(
            !stats[0].open,
            "region 0 must be evicted once its dead session's pin is gone"
        );
        let evictions_after: u64 = stats.iter().map(|r| r.evictions).sum();
        assert!(evictions_after > evictions_before);
        assert_eq!(world.open_count(), 1);
    });
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn single_terrain_server_rejects_region_scope_and_world_stats() {
    let db = build_db(25, 3);
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
        let handle = s.spawn(|| server.serve(&db).expect("serve"));
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut client = Client::connect(&addr).expect("connect");
            let e = db.e_for_points_fraction(0.3);
            match client.vi_query(scope_opts(QueryScope::Region(0)), db.bounds, e) {
                Err(WireError::Remote { code, .. }) => {
                    assert_eq!(code, ErrorCode::BadRequest.code());
                }
                other => panic!("region scope on single server must fail, got {other:?}"),
            }
            match client.world_stats() {
                Err(WireError::Remote { code, .. }) => {
                    assert_eq!(code, ErrorCode::BadRequest.code());
                }
                other => panic!("world stats on single server must fail, got {other:?}"),
            }
            // The connection survives both rejections, and an unscoped
            // query still answers bit-identically.
            let remote = client
                .vi_query(QueryOpts::default(), db.bounds, e)
                .expect("unscoped query after rejections");
            let (local, _) = db.try_vi_query(&db.bounds, e).expect("local");
            let (lv, lf) = canonical_mesh(&local.front);
            assert_mesh_eq("single server after rejections", &remote, &lv, &lf);
        }));
        ctl.shutdown();
        handle.join().expect("server thread");
        if let Err(p) = out {
            std::panic::resume_unwind(p);
        }
    });
}
