//! Flyover: a sequence of viewpoint-dependent queries along a flight
//! path, comparing cold single-base, cold multi-base, and a warm
//! [`NavigationSession`] per frame.
//!
//! The viewer moves across the terrain; each frame asks for a mesh that
//! is fine near the viewer and coarse in the distance (the paper's tilted
//! query plane). Watch the disk-access counts: multi-base fetches several
//! small staircase cubes instead of one tall one, and the session's warm
//! buffer pool amortizes almost everything after the first frame.
//!
//! ```text
//! cargo run --release -p dm-examples --example flyover
//! ```

use std::sync::Arc;

use dm_core::{BoundaryPolicy, DirectMeshDb, DmBuildOptions, NavigationSession, VdQuery};
use dm_geom::{Rect, Vec2};
use dm_mtm::builder::{build_pm, PmBuildConfig};
use dm_mtm::PlaneTarget;
use dm_storage::{BufferPool, MemStore};
use dm_terrain::{generate, TriMesh};

fn main() {
    let hf = generate::crater_terrain(129, 129, 99);
    let mesh = TriMesh::from_heightfield(&hf);
    let pm = build_pm(mesh, &PmBuildConfig::default());
    let pool = Arc::new(BufferPool::new(Box::new(MemStore::new()), 4096));
    let db = DirectMeshDb::build(pool, &pm, &DmBuildOptions::default());
    println!(
        "crater terrain loaded: {} records, e_max {:.2}\n",
        db.n_records, db.e_max
    );

    // The viewer flies south→north; every frame views a window ahead of
    // it with LOD degrading over distance.
    let bounds = db.bounds;
    let window = bounds.height() * 0.35;
    let frames = 8;
    // Build the per-frame queries up front; the cold measurements flush
    // the shared buffer pool, so the warm session runs as a second pass.
    let mut queries: Vec<VdQuery> = Vec::new();
    println!(
        "{:>5} {:>10} {:>10} {:>10} {:>10} {:>10} {:>8}",
        "frame", "SB-DA", "MB-DA", "warm-DA", "points", "tris", "cubes"
    );
    for f in 0..frames {
        let y0 = bounds.min.y + (bounds.height() - window) * f as f64 / (frames - 1) as f64;
        let roi = Rect::new(
            Vec2::new(bounds.min.x + bounds.width() * 0.3, y0),
            Vec2::new(bounds.max.x - bounds.width() * 0.3, y0 + window),
        );
        let e_min = db.e_for_points_fraction(0.4); // fine near the viewer
        let e_far = db.e_for_points_fraction(0.05); // coarse in the distance
        let slope = (e_far - e_min).max(0.0) / window;
        let q = VdQuery {
            roi,
            target: PlaneTarget {
                origin: Vec2::new(roi.min.x, y0),
                dir: Vec2::new(0.0, 1.0),
                e_min,
                slope,
                e_max: e_min + slope * window,
            },
        };

        db.try_cold_start().unwrap();
        let sb = db.try_vd_single_base(&q, BoundaryPolicy::Skip).unwrap().0;
        let sb_da = db.disk_accesses();

        db.try_cold_start().unwrap();
        let mb = db
            .try_vd_multi_base(&q, BoundaryPolicy::Skip, 16)
            .unwrap()
            .0;
        let mb_da = db.disk_accesses();

        println!(
            "{:>5} {:>10} {:>10} {:>10} {:>10} {:>10} {:>8}",
            f,
            sb_da,
            mb_da,
            "-",
            mb.front.num_vertices(),
            mb.front.num_triangles(),
            mb.cubes.len()
        );
        let (mesh, _) = sb.front.to_trimesh();
        mesh.validate().expect("frame mesh valid");
        queries.push(q);
    }

    // Second pass: the warm navigation session over the same path. Pages
    // fetched for earlier frames stay in the buffer pool, so per-frame
    // disk accesses collapse after frame 0.
    println!("\nwarm navigation session over the same path:");
    db.try_cold_start().unwrap();
    let mut session = NavigationSession::new(&db, BoundaryPolicy::FetchOnMiss);
    for (f, q) in queries.iter().enumerate() {
        let warm = session.try_move_to(q).unwrap().0;
        println!(
            "{:>5} {:>10} {:>10} {:>10}",
            f, "-", "-", warm.disk_accesses
        );
        let (mesh, _) = session.front().to_trimesh();
        mesh.validate().expect("warm frame mesh valid");
    }
    println!("\nall frame meshes validated (manifold, CCW, consistent)");
}
