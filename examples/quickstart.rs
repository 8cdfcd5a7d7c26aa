//! Quickstart: build a Direct Mesh database from synthetic terrain and
//! run one viewpoint-independent query.
//!
//! ```text
//! cargo run --release -p dm-examples --example quickstart
//! ```

use std::sync::Arc;

use dm_core::{DirectMeshDb, DmBuildOptions};
use dm_geom::Rect;
use dm_mtm::builder::{build_pm, PmBuildConfig};
use dm_storage::{BufferPool, MemStore};
use dm_terrain::{generate, TriMesh};

fn main() {
    // 1. Terrain: a 129×129 fractal heightfield (~16.6k points).
    let hf = generate::fractal_terrain(129, 129, 7);
    println!(
        "terrain: {}×{} samples, z ∈ {:?}",
        hf.width(),
        hf.height(),
        hf.z_range()
    );

    // 2. Multiresolution hierarchy: QEM edge collapses down to a handful
    //    of root vertices, every collapse recorded as a PM node.
    let mesh = TriMesh::from_heightfield(&hf);
    let pm = build_pm(mesh, &PmBuildConfig::default());
    println!(
        "hierarchy: {} nodes ({} leaves, {} roots), max LOD {:.2}",
        pm.hierarchy.len(),
        pm.hierarchy.n_leaves,
        pm.hierarchy.roots.len(),
        pm.hierarchy.e_max
    );

    // 3. The Direct Mesh database: heap table + id directory + 3D R*-tree,
    //    every node carrying its LOD interval and connection list.
    let pool = Arc::new(BufferPool::new(Box::new(MemStore::new()), 4096));
    let db = DirectMeshDb::build(pool, &pm, &DmBuildOptions::default());
    println!(
        "database: {} records over {} pages",
        db.n_records,
        db.pool().num_pages()
    );

    // 4. A viewpoint-independent query: centre 10% of the terrain at a
    //    mid LOD — one range query, topology from the connection lists.
    let roi = Rect::centered_square(db.bounds.center(), db.bounds.width() * 0.32);
    // Ask for the LOD that keeps ~25 % of the original points.
    let e = db.e_for_points_fraction(0.25);
    db.try_cold_start().unwrap();
    // The answer comes with an integrity report of any page it could not
    // read; on a healthy store it is clean.
    let (res, report) = db.try_vi_query(&roi, e).unwrap();
    assert!(report.is_clean(), "{report}");
    println!(
        "query: ROI 10% at LOD {:.3} → {} points, {} triangles, {} disk accesses",
        e,
        res.points,
        res.front.num_triangles(),
        db.disk_accesses()
    );

    // 5. The result is a real mesh: validate and show a corner of it.
    let (mesh, ids) = res.front.to_trimesh();
    mesh.validate()
        .expect("reconstructed mesh is a valid triangulation");
    println!("mesh valid; first vertices: {:?}", &ids[..ids.len().min(5)]);
}
