//! Pipelining equivalence: N requests pipelined down one connection are
//! answered **byte-for-byte identically** to the same N requests sent
//! one-at-a-time — same canonical meshes, same fetch counters, same
//! cold disk-access counts, in request order.
//!
//! This is the correctness contract the event-loop server's throughput
//! win rests on: the reactor may buffer and interleave I/O however it
//! likes, but one connection's requests execute strictly serially on
//! one worker at a time, so observable behaviour (including the
//! thread-attributed read counters) cannot depend on delivery timing.
//! Comparing the *encoded response frames* makes the check strictly
//! stronger than structural equality.

use std::sync::Arc;

use dm_core::{DirectMeshDb, DmBuildOptions, VdQuery};
use dm_geom::{Rect, Vec2};
use dm_mtm::builder::{build_pm, PmBuildConfig};
use dm_mtm::PlaneTarget;
use dm_net::{Client, QueryOpts, QueryScope, Request, Response, StreamCounters};
use dm_server::{Server, ServerConfig};
use dm_storage::{BufferPool, MemStore};
use dm_terrain::{generate, TriMesh};
use proptest::collection;
use proptest::prelude::*;

/// A store (and buffer pool) of the caller's own. Every `cold` request
/// flushes the served store's whole pool, so two servers sharing one
/// store — the tests in this binary run concurrently — would evict each
/// other's pages mid-query and skew the disk-access counts compared.
fn build_db() -> DirectMeshDb {
    let hf = generate::fractal_terrain(17, 17, 11);
    let pm = build_pm(TriMesh::from_heightfield(&hf), &PmBuildConfig::default());
    let pool = Arc::new(BufferPool::new(Box::new(MemStore::new()), 4096));
    DirectMeshDb::build(pool, &pm, &DmBuildOptions::default())
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

/// A sub-rectangle of the terrain bounds from four unit fractions.
fn roi_from_fracs(b: &Rect, fx: f64, fy: f64, fw: f64, fh: f64) -> Rect {
    let span = Vec2::new(b.width(), b.height());
    let min = Vec2::new(b.min.x + span.x * fx * 0.5, b.min.y + span.y * fy * 0.5);
    Rect {
        min,
        max: Vec2::new(
            min.x + span.x * (0.2 + 0.8 * fw) * 0.5,
            min.y + span.y * (0.2 + 0.8 * fh) * 0.5,
        ),
    }
}

/// One generated request: a cold VI, a cold VD, or a stats call. Cold
/// queries reset the buffer pool before running, so a serial replay of
/// the same sequence reproduces the exact disk-access counts.
#[derive(Clone, Debug)]
struct GenReq {
    sel: u8,
    fracs: (f64, f64, f64, f64),
    keep: f64,
}

fn arb_req() -> impl Strategy<Value = GenReq> {
    (
        0u8..8,
        (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0),
        0.05f64..1.0,
    )
        .prop_map(|(sel, fracs, keep)| GenReq { sel, fracs, keep })
}

const COLD: QueryOpts = QueryOpts {
    cold: true,
    degraded: false,
    chunked: false,
    scope: QueryScope::World,
};

/// Zero the streaming byte counters in `Stats` answers before comparing:
/// they *measure* socket I/O, so they are the one part of a response that
/// legitimately depends on connection identity and delivery timing.
fn normalized(r: &Response) -> Response {
    match r {
        Response::Stats {
            stats, resolved_e, ..
        } => Response::Stats {
            stats: stats.clone(),
            resolved_e: resolved_e.clone(),
            conn: StreamCounters::default(),
            totals: StreamCounters::default(),
        },
        other => other.clone(),
    }
}

fn materialize(d: &DirectMeshDb, g: &GenReq) -> Request {
    let roi = roi_from_fracs(&d.bounds, g.fracs.0, g.fracs.1, g.fracs.2, g.fracs.3);
    let e = d.e_for_points_fraction(g.keep);
    match g.sel {
        // Weight towards VI queries: they dominate real workloads.
        0..=4 => Request::ViQuery { opts: COLD, roi, e },
        5 | 6 => {
            let e_min = d.e_for_points_fraction(g.keep.max(0.3));
            let e_max = d.e_for_points_fraction(0.05).max(e_min);
            Request::VdQuery {
                opts: COLD,
                query: VdQuery {
                    roi,
                    target: PlaneTarget {
                        origin: roi.min,
                        dir: Vec2::new(0.0, 1.0),
                        e_min,
                        slope: (e_max - e_min) / roi.height().max(1e-9),
                        e_max,
                    },
                },
                policy: dm_core::BoundaryPolicy::FetchOnMiss,
                max_cubes: 4,
            }
        }
        _ => Request::Stats {
            resolve_keep: vec![g.keep],
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Pipelined ≡ serial, at every window size, byte for byte.
    #[test]
    fn pipelined_equals_serial_byte_for_byte(
        gens in collection::vec(arb_req(), 1..10),
        window_seed in any::<usize>(),
    ) {
        let db = build_db();
        let reqs: Vec<Request> = gens.iter().map(|g| materialize(&db, g)).collect();
        let window = 1 + window_seed % reqs.len().max(1);
        with_server(&db, |addr| {
            // Serial reference: same connection, one request in flight.
            let mut serial_client = Client::connect(addr).expect("connect serial");
            let mut serial = Vec::with_capacity(reqs.len());
            for req in &reqs {
                let mut got = serial_client
                    .exchange_pipelined(std::slice::from_ref(req), 1)
                    .expect("serial exchange");
                serial.push(got.pop().expect("one response"));
            }

            // Pipelined run: same requests, up to `window` in flight.
            let mut pipe_client = Client::connect(addr).expect("connect pipelined");
            let piped = pipe_client
                .exchange_pipelined(&reqs, window)
                .expect("pipelined exchange");

            assert_eq!(piped.len(), serial.len());
            for (i, (p, s)) in piped.iter().zip(&serial).enumerate() {
                assert_eq!(p.kind(), s.kind(), "response {i}: kind (window {window})");
                assert_eq!(
                    normalized(p).encode(),
                    normalized(s).encode(),
                    "response {i}: encoded bytes differ (window {window})"
                );
            }
        });
    }
}

/// Deterministic smoke for the same property, pinned at the largest
/// window — runs even when proptest shrinks elsewhere.
#[test]
fn eight_pipelined_cold_queries_match_serial() {
    let d = build_db();
    let e = d.e_for_points_fraction(0.5);
    let reqs: Vec<Request> = (0..8)
        .map(|i| Request::ViQuery {
            opts: COLD,
            roi: roi_from_fracs(&d.bounds, (i as f64) / 8.0, 0.25, 0.8, 0.8),
            e,
        })
        .collect();
    with_server(&d, |addr| {
        let mut c = Client::connect(addr).expect("connect");
        let mut serial = Vec::new();
        for req in &reqs {
            serial.extend(
                c.exchange_pipelined(std::slice::from_ref(req), 1)
                    .expect("serial"),
            );
        }
        let piped = c.exchange_pipelined(&reqs, 8).expect("pipelined");
        for (i, (p, s)) in piped.iter().zip(&serial).enumerate() {
            assert_eq!(p.encode(), s.encode(), "response {i} differs");
        }
    });
}
