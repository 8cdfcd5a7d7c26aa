//! Criterion micro-benchmarks: CPU-side costs of the moving parts.
//!
//! The paper notes the CPU cost of mesh construction is small next to the
//! I/O cost; these benches quantify our CPU side so that claim can be
//! checked against the disk-access counts from the figure benches.

use criterion::{criterion_group, criterion_main, Criterion};
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;

use dm_bench::{build_dataset, vd_query, Terrain};
use dm_core::faces::{extract_faces_dense_owned, DenseAdjacency};
use dm_core::navigation::waypoint_path;
use dm_core::query::uniform_cut;
use dm_core::{
    BoundaryPolicy, DirectMeshDb, DmBuildOptions, FetchCounters, FetchedSet, IntegrityReport,
    NavigationSession, VdQuery,
};
use dm_geom::{Box3, Rect, Vec2};
use dm_mtm::builder::{build_pm, PmBuildConfig};
use dm_mtm::PlaneTarget;
use dm_storage::{BufferPool, MemStore};
use dm_terrain::{generate, TriMesh};

fn bench_pm_build(c: &mut Criterion) {
    let hf = generate::fractal_terrain(65, 65, 42);
    c.bench_function("pm_build_65x65", |b| {
        b.iter(|| {
            let mesh = TriMesh::from_heightfield(black_box(&hf));
            build_pm(mesh, &PmBuildConfig::default())
        })
    });
}

/// The set-up every `dmbench` workload pays: the 257² PM build (large
/// enough for the collapse queue's stale-entry sweeps to matter), then
/// the v3 store over it.
fn bench_build_257(c: &mut Criterion) {
    let hf = generate::fractal_terrain(257, 257, 42);
    c.bench_function("pm_build_257x257", |b| {
        b.iter(|| {
            build_pm(
                TriMesh::from_heightfield(black_box(&hf)),
                &PmBuildConfig::default(),
            )
        })
    });
    let pm = build_pm(TriMesh::from_heightfield(&hf), &PmBuildConfig::default());
    c.bench_function("store_build_257x257", |b| {
        b.iter(|| {
            let pool = Arc::new(BufferPool::new(Box::new(MemStore::new()), 4096));
            DirectMeshDb::create_in(pool, black_box(&pm), &DmBuildOptions::default())
        })
    });
}

fn bench_queries(c: &mut Criterion) {
    // One modest dataset shared by the query benches.
    let d = build_dataset(Terrain::Mining, 129, 42);
    let roi = dm_geom::Rect::centered_square(d.dm.bounds.center(), d.dm.bounds.width() * 0.3);

    c.bench_function("dm_vi_query_129", |b| {
        b.iter(|| {
            d.dm.try_cold_start().unwrap();
            black_box(d.dm.try_vi_query(black_box(&roi), d.avg_lod).unwrap().0)
        })
    });

    c.bench_function("dm_vi_query_warm_129", |b| {
        b.iter(|| black_box(d.dm.try_vi_query(black_box(&roi), d.avg_lod).unwrap().0))
    });

    let q = vd_query(&roi, d.dm.e_max, d.dm.e_max * 0.01, 0.5);
    c.bench_function("dm_vd_single_base_129", |b| {
        b.iter(|| {
            d.dm.try_cold_start().unwrap();
            black_box(
                d.dm.try_vd_single_base(black_box(&q), BoundaryPolicy::Skip)
                    .unwrap()
                    .0,
            )
        })
    });

    c.bench_function("dm_vd_multi_base_129", |b| {
        b.iter(|| {
            d.dm.try_cold_start().unwrap();
            black_box(
                d.dm.try_vd_multi_base(black_box(&q), BoundaryPolicy::Skip, 16)
                    .unwrap()
                    .0,
            )
        })
    });

    c.bench_function("pm_vi_query_129", |b| {
        b.iter(|| {
            d.pm.cold_start();
            black_box(d.pm.vi_query(black_box(&roi), d.avg_lod))
        })
    });

    let plane = dm_geom::Box3::prism(roi, d.avg_lod, d.avg_lod);
    c.bench_function("rtree_plane_query_129", |b| {
        b.iter(|| {
            let mut n = 0u64;
            d.dm.rtree().query(black_box(&plane), |_, _| n += 1);
            black_box(n)
        })
    });

    // A warm VI request's assembly apart from its fetch: a 4×4 grid of
    // ROIs of 1/16 of the terrain at keep 0.25, each plane fetched once,
    // then only the cut (id → dense adjacency, ring sort, face loop) is
    // timed — one iteration is all sixteen cuts.
    let e = d.dm.clamp_e(d.dm.e_for_points_fraction(0.25));
    let fetch = |r: &Rect| -> FetchedSet {
        d.dm.fetch_box_flat_counted(
            &Box3::prism(*r, e, e),
            &mut IntegrityReport::default(),
            &mut FetchCounters::default(),
        )
        .expect("clean store")
    };
    let b = d.dm.bounds;
    let side = b.width() / 4.0;
    let rois: Vec<Rect> = (0..16)
        .map(|i| {
            let min = Vec2::new(
                b.min.x + (i % 4) as f64 * side,
                b.min.y + (i / 4) as f64 * side,
            );
            Rect::new(min, min + Vec2::new(side, side))
        })
        .collect();
    let sets: Vec<FetchedSet> = rois.iter().map(fetch).collect();
    c.bench_function("uniform_cut_warm_129", |bch| {
        bch.iter(|| {
            for (set, r) in sets.iter().zip(&rois) {
                black_box(uniform_cut(set, r, e));
            }
        })
    });

    // The face-extraction kernel alone on the whole terrain's cut at the
    // same LOD: the adjacency is built once and cloned into every
    // iteration (the kernel sorts its rings in place).
    let whole = fetch(&b);
    let mut cut: Vec<usize> = (0..whole.len())
        .filter(|&s| whole.nodes[s].interval().contains(e))
        .collect();
    cut.sort_by_key(|&s| whole.nodes[s].id);
    let dense_of: HashMap<u32, u32> = cut
        .iter()
        .enumerate()
        .map(|(k, &s)| (whole.nodes[s].id, k as u32))
        .collect();
    let pos: Vec<Vec2> = cut.iter().map(|&s| whole.nodes[s].pos.xy()).collect();
    let mut adj = DenseAdjacency::with_capacity(cut.len(), 0);
    for &s in &cut {
        adj.push_probed(whole.conn_of(s), |id| {
            dense_of.get(&id).map_or((false, 0), |&k| (true, k))
        });
    }
    c.bench_function("extract_faces_dense_129", |bch| {
        bch.iter(|| black_box(extract_faces_dense_owned(&pos, adj.clone())))
    });

    // The `FetchOnMiss` boundary lookup on a resident store: one
    // id-directory page hit and one heap page hit, the node decoded from
    // the page's bytes. One iteration is one lookup.
    let ids = id_orders(d.dm.n_records as u32);
    for (order, ids) in &ids {
        for &id in ids {
            d.dm.try_fetch_node_by_id(id).expect("clean store");
        }
        let mut next = ids.iter().cycle();
        let name = format!("fetch_node_by_id_resident_{order}");
        c.bench_function(&name, |bch| {
            bch.iter(|| {
                let id = *next.next().expect("cycle");
                black_box(d.dm.try_fetch_node_by_id(id).expect("clean store"))
            })
        });
    }

    // One walkthrough frame on a resident store: a `FetchOnMiss` session
    // with 16 cubes flies a closed 32-frame loop of 0.35-wide windows,
    // one lap before timing, so every page it touches is resident. Each
    // window is seen like `warm_walkthrough` sees it: the detail of the
    // keep-0.4 cut at its south edge, falling off to keep 0.05 at the
    // north. One iteration is one frame: plan, fetch, record arena, seed
    // front, refinement.
    let at = |fx: f64, fy: f64| Vec2::new(b.min.x + fx * b.width(), b.min.y + fy * b.height());
    let corners = [
        at(0.3, 0.3),
        at(0.7, 0.3),
        at(0.7, 0.7),
        at(0.3, 0.7),
        at(0.3, 0.3),
    ];
    let (near, far) = (
        d.dm.e_for_points_fraction(0.4),
        d.dm.e_for_points_fraction(0.05),
    );
    let tour: Vec<VdQuery> = waypoint_path(&corners, b.width().min(b.height()) * 0.35, 33)[..32]
        .iter()
        .map(|&roi| VdQuery {
            roi,
            target: PlaneTarget {
                origin: roi.min,
                dir: Vec2::new(0.0, 1.0),
                e_min: near,
                slope: (far - near) / roi.height(),
                e_max: far,
            },
        })
        .collect();
    let mut session = NavigationSession::new(&d.dm, BoundaryPolicy::FetchOnMiss).with_max_cubes(16);
    for q in &tour {
        session.try_move_to(q).expect("clean store");
    }
    let reads = d.dm.pool().stats().reads;
    let mut next = tour.iter().cycle();
    c.bench_function("nav_frame_resident_129", |bch| {
        bch.iter(|| {
            let q = next.next().expect("cycle");
            black_box(session.try_move_to(q).expect("clean store").0.vertices)
        })
    });
    assert_eq!(
        d.dm.pool().stats().reads,
        reads,
        "every timed frame was resident"
    );
}

/// Ids `0..n` in construction order (spatially coherent, like a frame's
/// boundary) and scattered by a multiplicative hash.
fn id_orders(n: u32) -> [(&'static str, Vec<u32>); 2] {
    let scattered = (0..n)
        .map(|k| (u64::from(k) * 2_654_435_761 % u64::from(n)) as u32)
        .collect();
    [("coherent", (0..n).collect()), ("random", scattered)]
}

/// One buffer-pool hit: the shard lock, the page-id probe and the
/// recency update, on a pool of 1024 resident pages over 16 shards.
fn bench_pool_hit(c: &mut Criterion) {
    let pool = BufferPool::new(Box::new(MemStore::new()), 1024);
    for _ in 0..1024 {
        pool.allocate();
    }
    for (order, ids) in id_orders(pool.num_pages()) {
        let mut next = ids.iter().cycle();
        c.bench_function(&format!("pool_hit_resident_{order}"), |bch| {
            bch.iter(|| {
                let id = *next.next().expect("cycle");
                black_box(pool.try_read(id, |buf| buf[0]).expect("resident"))
            })
        });
    }
    assert_eq!(pool.stats().reads, 0, "every visit was a hit");
}

fn bench_refinement(c: &mut Criterion) {
    let hf = generate::fractal_terrain(65, 65, 7);
    let mesh = TriMesh::from_heightfield(&hf);
    let pm = build_pm(mesh, &PmBuildConfig::default());
    let h = &pm.hierarchy;
    c.bench_function("refine_root_to_full_65x65", |b| {
        b.iter(|| {
            let records: Vec<dm_mtm::PmNode> = h.roots.iter().map(|&r| *h.node(r)).collect();
            let mut front = dm_mtm::FrontMesh::from_parts(records, &h.root_mesh);
            let mut src: &dm_mtm::PmHierarchy = h;
            dm_mtm::refine::refine(&mut front, &mut src, &dm_mtm::UniformTarget(0.0));
            black_box(front.num_triangles())
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_pm_build, bench_build_257, bench_queries, bench_pool_hit, bench_refinement
}
criterion_main!(benches);
