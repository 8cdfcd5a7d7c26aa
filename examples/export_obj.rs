//! Export terrain approximations at several LODs as Wavefront OBJ files
//! (viewable in Blender, MeshLab, etc.).
//!
//! ```text
//! cargo run --release -p dm-examples --example export_obj [out_dir]
//! ```

use std::sync::Arc;

use dm_core::{DirectMeshDb, DmBuildOptions};
use dm_mtm::builder::{build_pm, PmBuildConfig};
use dm_storage::{BufferPool, MemStore};
use dm_terrain::{generate, obj, TriMesh};

fn main() -> std::io::Result<()> {
    let out_dir = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "target/obj".to_string());
    std::fs::create_dir_all(&out_dir)?;

    let hf = generate::crater_terrain(129, 129, 5);
    let mesh = TriMesh::from_heightfield(&hf);
    let pm = build_pm(mesh, &PmBuildConfig::default());
    let pool = Arc::new(BufferPool::new(Box::new(MemStore::new()), 4096));
    let db = DirectMeshDb::build(pool, &pm, &DmBuildOptions::default());

    for (name, keep) in [("fine", 0.6), ("medium", 0.15), ("coarse", 0.03)] {
        let e = db.e_for_points_fraction(keep);
        let res = db.try_vi_query(&db.bounds, e).unwrap().0;
        let (tri_mesh, _) = res.front.to_trimesh();
        tri_mesh.validate().expect("valid mesh");
        let path = format!("{out_dir}/crater_{name}.obj");
        let mut file = std::fs::File::create(&path)?;
        obj::write_obj(&tri_mesh, &mut file)?;
        println!(
            "{path}: {} vertices, {} triangles (e = {:.3})",
            tri_mesh.num_live_vertices(),
            tri_mesh.num_live_triangles(),
            e
        );
    }
    println!("\nopen the files in any OBJ viewer to see the LOD ladder");
    Ok(())
}
