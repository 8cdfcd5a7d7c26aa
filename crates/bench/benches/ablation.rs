//! Ablations for the design choices called out in DESIGN.md §4.
//!
//! A1 — `BoundaryPolicy::Skip` vs `FetchOnMiss` on viewpoint-dependent
//!      queries (border quality vs extra point fetches);
//! A2 — R\*-tree STR bulk load vs dynamic R\* insertion (index quality);
//! A3 — Hilbert heap clustering vs id-order placement;
//! A4 — cost-model-driven multi-base plan vs fixed 2/4/8 equal strips.

use std::sync::Arc;

use dm_bench::{build_dataset, mean, random_rois, row, vd_query, Scale, Terrain};
use dm_core::query::{equal_strips, vd_with_strips};
use dm_core::{BoundaryPolicy, DirectMeshDb, DmBuildOptions, FetchCounters};
use dm_storage::{BufferPool, MemStore};

fn main() {
    let scale = Scale::from_env();
    let d = build_dataset(Terrain::Mining, scale.small, 42);
    eprintln!("# {} built: {} nodes", d.name, d.dm.n_records);
    let rois = random_rois(&d.dm.bounds, 0.05, scale.locations, 31);

    // --- A1: boundary policy -------------------------------------------
    println!("\n## A1 — boundary policy (VD single-base, ROI 5%)");
    println!(
        "{}",
        row(
            "policy",
            &[
                "DA".into(),
                "points".into(),
                "blocked".into(),
                "fetches".into()
            ]
        )
    );
    for (label, policy) in [
        ("skip", BoundaryPolicy::Skip),
        ("fetch", BoundaryPolicy::FetchOnMiss),
    ] {
        let (mut da, mut pts, mut blocked, mut fetches) = (vec![], 0usize, 0usize, 0usize);
        for roi in &rois {
            let q = vd_query(roi, d.dm.e_max, d.e_at_cut(0.3), 0.5);
            d.dm.try_cold_start().unwrap();
            let res = d.dm.try_vd_single_base(&q, policy).unwrap().0;
            da.push(d.dm.disk_accesses());
            pts += res.front.num_vertices();
            blocked += res.refine.blocked;
            fetches += res.boundary_fetches;
        }
        println!(
            "{}",
            row(
                label,
                &[
                    format!("{:.1}", mean(&da)),
                    format!("{}", pts / rois.len()),
                    format!("{}", blocked / rois.len()),
                    format!("{}", fetches / rois.len()),
                ],
            )
        );
    }

    // --- A2 / A3: index build and clustering ----------------------------
    println!("\n## A2/A3 — index construction & heap clustering (VI, ROI 5%, avg LOD)");
    println!("{}", row("variant", &["DA".into()]));
    let variants: Vec<(&str, DmBuildOptions)> = vec![
        ("str-leaf", DmBuildOptions::default()),
        (
            "dynamic-R*",
            DmBuildOptions {
                dynamic_rtree: true,
                ..DmBuildOptions::default()
            },
        ),
        (
            "hilbert",
            DmBuildOptions {
                clustering: dm_core::store::Clustering::Hilbert,
                ..DmBuildOptions::default()
            },
        ),
        (
            "id-order",
            DmBuildOptions {
                clustering: dm_core::store::Clustering::IdOrder,
                ..DmBuildOptions::default()
            },
        ),
    ];
    for (label, opts) in variants {
        let pool = Arc::new(BufferPool::new(
            Box::new(MemStore::new()),
            dm_bench::POOL_PAGES,
        ));
        let db = DirectMeshDb::build(pool, &d.pm_build, &opts);
        let mut da = Vec::new();
        for roi in &rois {
            db.try_cold_start().unwrap();
            db.try_vi_query(roi, d.avg_lod).unwrap();
            da.push(db.disk_accesses());
        }
        println!("{}", row(label, &[format!("{:.1}", mean(&da))]));
    }

    // --- A4: optimizer vs fixed strips -----------------------------------
    println!("\n## A4 — multi-base plan (VD, ROI 10%, angle 50%, emin 1%)");
    println!("{}", row("plan", &["DA".into(), "cubes".into()]));
    let rois10 = random_rois(&d.dm.bounds, 0.10, scale.locations, 37);
    let run = |label: String, plan: &dyn Fn(&dm_core::VdQuery) -> Vec<dm_geom::Rect>| {
        let mut da = Vec::new();
        let mut cubes = 0usize;
        for roi in &rois10 {
            let q = vd_query(roi, d.dm.e_max, d.e_at_cut(0.3), 0.5);
            let strips = plan(&q);
            d.dm.try_cold_start().unwrap();
            let res = vd_with_strips(
                &d.dm,
                &q,
                BoundaryPolicy::Skip,
                &strips,
                &mut FetchCounters::default(),
            )
            .unwrap()
            .0;
            da.push(d.dm.disk_accesses());
            cubes += res.cubes.len();
        }
        println!(
            "{}",
            row(
                &label,
                &[
                    format!("{:.1}", mean(&da)),
                    format!("{:.1}", cubes as f64 / rois10.len() as f64)
                ],
            )
        );
    };
    run("optimizer".into(), &|q| d.dm.plan_multi_base(q, 16));
    for n in [1usize, 2, 4, 8] {
        run(format!("fixed-{n}"), &move |q: &dm_core::VdQuery| {
            equal_strips(&q.roi, n, false)
        });
    }
}
