//! Terrain analysis: accuracy vs size across LOD levels.
//!
//! Retrieves the same region at a ladder of LODs and measures each
//! approximation against the source heightfield: vertical RMSE and
//! maximum error fall as the LOD value (error bound) falls, while point
//! counts and retrieval cost rise — the multiresolution trade-off the
//! whole structure exists to navigate.
//!
//! ```text
//! cargo run --release -p dm-examples --example terrain_analysis
//! ```

use std::sync::Arc;

use dm_core::{DirectMeshDb, DmBuildOptions};
use dm_mtm::builder::{build_pm, PmBuildConfig};
use dm_storage::{BufferPool, MemStore};
use dm_terrain::{generate, metrics, TriMesh};

fn main() {
    let hf = generate::fractal_terrain(129, 129, 21);
    let mesh = TriMesh::from_heightfield(&hf);
    let pm = build_pm(mesh, &PmBuildConfig::default());
    let pool = Arc::new(BufferPool::new(Box::new(MemStore::new()), 4096));
    let db = DirectMeshDb::build(pool, &pm, &DmBuildOptions::default());

    let (zlo, zhi) = hf.z_range();
    println!(
        "terrain 129×129, relief {:.1}; querying the full extent at 6 LODs\n",
        zhi - zlo
    );
    println!(
        "{:>10} {:>8} {:>8} {:>10} {:>10} {:>8}",
        "LOD(e)", "points", "tris", "rmse", "max-err", "DA"
    );
    for keep in [1.0, 0.5, 0.25, 0.1, 0.05, 0.01] {
        let e = db.e_for_points_fraction(keep);
        db.try_cold_start().unwrap();
        let res = db.try_vi_query(&db.bounds, e).unwrap().0;
        let da = db.disk_accesses();
        let (tri_mesh, _) = res.front.to_trimesh();
        tri_mesh.validate().expect("valid approximation");
        let err = metrics::mesh_error(&tri_mesh, &hf, 2);
        println!(
            "{:>10.3} {:>8} {:>8} {:>10.3} {:>10.3} {:>8}",
            e,
            res.points,
            res.front.num_triangles(),
            err.rmse,
            err.max,
            da
        );
    }
    println!("\nthe error bound e is honoured: rmse and max error shrink with e");
}
