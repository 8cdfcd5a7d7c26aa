//! Wire-cost benchmark for delta-frame streaming.
//!
//! Serves the mining dataset over loopback TCP and flies the same warm
//! 32-frame walkthrough three times — monolithic full frames, ΔROI
//! delta patches, and the per-frame auto cutover — counting every byte
//! that crosses the socket in both directions. Every reconstructed
//! frame is asserted **bit-identical** to a lockstep local
//! `NavigationSession`, so the wire savings can never come from
//! answering a different mesh.
//!
//! A second group measures time-to-first-triangle on a cold
//! viewpoint-independent query: the monolithic response arrives all at
//! once, the chunked response is split coarse-to-fine by PM level so a
//! renderable closed prefix decodes long before the full payload.
//!
//! A third group drives the scratch-buffer reuse path (canonicalize →
//! diff → encode, the per-frame server flow) through the walkthrough
//! twice and asserts the reused buffers reach a steady state: their
//! capacities after the second pass must not exceed the first — i.e.
//! no per-frame allocation growth.
//!
//! Results land in `BENCH_streaming.json` (override with
//! `DM_STREAM_OUT`).

use std::sync::Arc;
use std::time::Instant;

use dm_bench::Scale;
use dm_core::{BoundaryPolicy, DirectMeshDb, DmBuildOptions, VdQuery};
use dm_geom::Vec2;
use dm_mtm::builder::{build_pm, PmBuildConfig};
use dm_mtm::PlaneTarget;
use dm_net::wire::Writer;
use dm_net::{
    canonical_mesh, canonical_mesh_into, diff_frames, Client, FrameDelta, FrontMirror, QueryOpts,
    ResultTail, StreamMode,
};
use dm_server::{Server, ServerConfig};
use dm_storage::{BufferPool, MemStore};
use dm_terrain::{generate, TriMesh};

const FRAMES: usize = 32;

struct WalkCost {
    mode: StreamMode,
    wire_bytes: u64,
    delta_frames: u64,
    verified: usize,
}

fn vd_queries(db: &DirectMeshDb) -> Vec<VdQuery> {
    let rois = dm_core::navigation::flight_path(&db.bounds, 0.5, FRAMES);
    let e_min = db.e_for_points_fraction(0.4);
    let e_far = db.e_for_points_fraction(0.05).max(e_min);
    rois.into_iter()
        .map(|roi| VdQuery {
            roi,
            target: PlaneTarget {
                origin: roi.min,
                dir: Vec2::new(0.0, 1.0),
                e_min,
                slope: (e_far - e_min) / roi.height().max(1e-9),
                e_max: e_far,
            },
        })
        .collect()
}

/// Fly the walkthrough in one transport mode, counting wire bytes and
/// verifying every frame bit-for-bit against a local shadow session.
fn run_walkthrough(
    addr: &str,
    db: &DirectMeshDb,
    queries: &[VdQuery],
    mode: StreamMode,
) -> WalkCost {
    let mut client = Client::connect(addr).expect("connect");
    let session = client
        .open_session(BoundaryPolicy::FetchOnMiss, 16, false)
        .expect("open session");
    let mut shadow =
        dm_core::NavigationSession::new(db, BoundaryPolicy::FetchOnMiss).with_max_cubes(16);
    let mut mirror = FrontMirror::new();
    let mut cost = WalkCost {
        mode,
        wire_bytes: 0,
        delta_frames: 0,
        verified: 0,
    };
    for (i, q) in queries.iter().enumerate() {
        let (m, info) = client
            .frame_query_streamed(session, *q, false, mode, &mut mirror)
            .expect("streamed frame");
        assert!(!info.resynced, "clean walkthrough must never resync");
        cost.wire_bytes += (info.bytes_sent + info.bytes_received) as u64;
        cost.delta_frames += u64::from(info.was_delta);

        let (stats, report) = shadow.try_move_to(q).expect("shadow frame");
        assert!(report.is_clean());
        let (lv, lf) = canonical_mesh(shadow.front());
        assert_eq!(m.vertices.len(), lv.len(), "frame {i}: vertex count");
        for (r, l) in m.vertices.iter().zip(&lv) {
            assert!(
                r.id == l.id
                    && r.x.to_bits() == l.x.to_bits()
                    && r.y.to_bits() == l.y.to_bits()
                    && r.z.to_bits() == l.z.to_bits(),
                "frame {i}: vertex {} diverged in {mode:?} mode",
                l.id
            );
        }
        assert_eq!(m.faces, lf, "frame {i}: face set diverged in {mode:?} mode");
        assert_eq!(
            m.fetched_records, stats.fetched_records as u64,
            "frame {i}: fetch count diverged"
        );
        cost.verified += 1;
    }
    client.close_session(session).expect("close session");
    cost
}

fn main() {
    let scale = Scale::from_env();
    let side = scale.small;
    let hf = generate::fractal_terrain(side, side, 42);
    let pm = build_pm(TriMesh::from_heightfield(&hf), &PmBuildConfig::default());
    let pool = Arc::new(BufferPool::new(
        Box::new(MemStore::new()),
        dm_bench::POOL_PAGES,
    ));
    let db = DirectMeshDb::build(pool, &pm, &DmBuildOptions::default());
    eprintln!(
        "# streaming: {side}×{side} mining terrain, {} records, {} pages",
        db.n_records,
        db.pool().num_pages()
    );
    let queries = vd_queries(&db);

    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr().expect("local addr").to_string();

    let mut costs: Vec<WalkCost> = Vec::new();
    let mut ttft_monolithic_us = u64::MAX;
    let mut ttft_chunked_us = u64::MAX;
    let mut chunked_chunks = 0u32;
    let mut chunked_first_bytes = 0usize;
    let mut chunked_total_bytes = 0usize;
    std::thread::scope(|s| {
        let server = &server;
        let db_ref = &db;
        let handle = s.spawn(move || server.serve(db_ref).expect("serve"));

        // Warm the pool once so all three transports race on identical
        // residency (the first walkthrough would otherwise pay the
        // cold-read cost for the others).
        run_walkthrough(&addr, db_ref, &queries, StreamMode::Full);

        for mode in [StreamMode::Full, StreamMode::Delta, StreamMode::Auto] {
            let cost = run_walkthrough(&addr, db_ref, &queries, mode);
            eprintln!(
                "# {mode:?}: {} B over {} frames ({:.0} B/frame, {} delta frames, {} verified)",
                cost.wire_bytes,
                FRAMES,
                cost.wire_bytes as f64 / FRAMES as f64,
                cost.delta_frames,
                cost.verified
            );
            costs.push(cost);
        }

        // --- Time-to-first-triangle: cold VI query, monolithic vs
        // chunked coarse-to-fine. Best of five to damp scheduler noise. ---
        let e = db_ref.e_for_points_fraction(0.25);
        let roi = db_ref.bounds;
        let cold = QueryOpts {
            cold: true,
            ..QueryOpts::default()
        };
        let mut client = Client::connect(&addr).expect("connect ttft");
        let reference = client.vi_query(cold, roi, e).expect("monolithic VI");
        for _ in 0..5 {
            let t0 = Instant::now();
            let m = client.vi_query(cold, roi, e).expect("monolithic VI");
            // The monolithic transport renders nothing until the whole
            // frame has arrived: its TTFT is the full response time.
            ttft_monolithic_us = ttft_monolithic_us.min(t0.elapsed().as_micros() as u64);
            assert_eq!(m.faces.len(), reference.faces.len());

            let (cm, fetch) = client.vi_query_chunked(cold, roi, e).expect("chunked VI");
            let t = fetch
                .time_to_first_triangle
                .expect("chunked answer produced no triangles");
            ttft_chunked_us = ttft_chunked_us.min(t.as_micros() as u64);
            chunked_chunks = fetch.chunks;
            chunked_first_bytes = fetch.bytes_to_first_triangle;
            chunked_total_bytes = fetch.bytes_received;
            assert_eq!(cm.vertices, reference.vertices, "chunked vertices diverged");
            assert_eq!(cm.faces, reference.faces, "chunked faces diverged");
        }
        eprintln!(
            "# ttft: monolithic {ttft_monolithic_us} µs, chunked {ttft_chunked_us} µs \
             (first triangle after {chunked_first_bytes} of {chunked_total_bytes} B, \
             {chunked_chunks} chunks)"
        );

        let mut shut = Client::connect(&addr).expect("connect");
        shut.shutdown_server().expect("shutdown");
        handle.join().expect("server thread");
    });

    // --- Scratch steady state: the per-frame server flow (canonicalize
    // into reused buffers → diff → encode with a reused writer) must not
    // grow its allocations frame over frame. Two passes down the same
    // path: pass 2 starts at pass 1's high-water capacities and must end
    // there too. ---
    let mut prev_v = Vec::new();
    let mut prev_f = Vec::new();
    let mut scratch_v = Vec::new();
    let mut scratch_f = Vec::new();
    let mut enc = Writer::new();
    let mut caps_after_pass = [(0usize, 0usize, 0usize, 0usize); 2];
    for (pass, caps) in caps_after_pass.iter_mut().enumerate() {
        let mut nav =
            dm_core::NavigationSession::new(&db, BoundaryPolicy::FetchOnMiss).with_max_cubes(16);
        for (i, q) in queries.iter().enumerate() {
            nav.try_move_to(q).expect("local frame");
            canonical_mesh_into(nav.front(), &mut scratch_v, &mut scratch_f);
            if i > 0 {
                let (rv, av, rf, af) = diff_frames(&prev_v, &prev_f, &scratch_v, &scratch_f);
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
            std::mem::swap(&mut prev_v, &mut scratch_v);
            std::mem::swap(&mut prev_f, &mut scratch_f);
        }
        *caps = (
            prev_v.capacity(),
            prev_f.capacity(),
            scratch_v.capacity(),
            scratch_f.capacity(),
        );
        eprintln!("# scratch capacities after pass {pass}: {caps:?}");
    }
    assert_eq!(
        caps_after_pass[0], caps_after_pass[1],
        "scratch buffers grew on the second pass — per-frame allocation creep"
    );

    // --- Report. ---
    let full = costs
        .iter()
        .find(|c| matches!(c.mode, StreamMode::Full))
        .unwrap();
    let delta = costs
        .iter()
        .find(|c| matches!(c.mode, StreamMode::Delta))
        .unwrap();
    let auto = costs
        .iter()
        .find(|c| matches!(c.mode, StreamMode::Auto))
        .unwrap();
    let reduction = 100.0 * (1.0 - delta.wire_bytes as f64 / full.wire_bytes.max(1) as f64);

    println!("\n## Delta-frame streaming — warm {FRAMES}-frame walkthrough over loopback TCP");
    println!(
        "{}",
        dm_bench::row(
            "transport",
            &[
                "wire bytes".into(),
                "B/frame".into(),
                "delta frames".into(),
                "verified".into(),
            ]
        )
    );
    for c in &costs {
        println!(
            "{}",
            dm_bench::row(
                &format!("{:?}", c.mode).to_lowercase(),
                &[
                    format!("{}", c.wire_bytes),
                    format!("{:.0}", c.wire_bytes as f64 / FRAMES as f64),
                    format!("{}", c.delta_frames),
                    format!("{}", c.verified),
                ]
            )
        );
    }
    println!("delta vs full: {reduction:.1}% fewer bytes on the wire");
    println!(
        "ttft (cold VI): monolithic {ttft_monolithic_us} µs, chunked {ttft_chunked_us} µs \
         ({chunked_chunks} chunks, first triangle after {chunked_first_bytes} B)"
    );

    let mut json = String::from("{\n  \"bench\": \"streaming\",\n");
    json.push_str(&format!("  \"dataset\": \"mining-{side}\",\n"));
    json.push_str(&format!("  \"frames\": {FRAMES},\n"));
    json.push_str("  \"walkthrough\": [\n");
    for (i, c) in costs.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"mode\": \"{}\", \"wire_bytes\": {}, \"bytes_per_frame\": {:.1}, \
             \"delta_frames\": {}, \"verified_frames\": {}}}{}\n",
            format!("{:?}", c.mode).to_lowercase(),
            c.wire_bytes,
            c.wire_bytes as f64 / FRAMES as f64,
            c.delta_frames,
            c.verified,
            if i + 1 == costs.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!("  \"full_bytes\": {},\n", full.wire_bytes));
    json.push_str(&format!("  \"delta_bytes\": {},\n", delta.wire_bytes));
    json.push_str(&format!("  \"auto_bytes\": {},\n", auto.wire_bytes));
    json.push_str(&format!(
        "  \"delta_vs_full_reduction_pct\": {reduction:.2},\n"
    ));
    json.push_str(&format!(
        "  \"ttft\": {{\"monolithic_us\": {ttft_monolithic_us}, \"chunked_us\": {ttft_chunked_us}, \
         \"chunks\": {chunked_chunks}, \"bytes_to_first_triangle\": {chunked_first_bytes}, \
         \"total_bytes\": {chunked_total_bytes}}},\n"
    ));
    json.push_str("  \"lockstep_bit_identity\": true,\n");
    json.push_str("  \"scratch_steady_state\": true\n}\n");
    dm_bench::write_bench_json(Some("DM_STREAM_OUT"), "BENCH_streaming.json", &json);
}
