//! §5.3: accuracy of the R-tree disk-access cost model (paper eq. 1) and
//! the benefit of the multi-base optimizer it drives.
//!
//! Part 1 compares predicted vs measured R-tree node accesses for range
//! cubes of assorted sizes. Part 2 sweeps the query-plane angle and
//! reports the optimizer's strip count plus measured single-base vs
//! multi-base disk accesses (paper eq. 3–9: split while predicted DA
//! drops, cutting the top plane in the middle).

use dm_bench::{build_dataset, mean, random_rois, row, vd_query, Scale, Terrain};
use dm_core::BoundaryPolicy;
use dm_geom::Box3;

fn main() {
    let scale = Scale::from_env();
    let d = build_dataset(Terrain::Mining, scale.small, 42);
    eprintln!("# {} built: {} nodes", d.name, d.dm.n_records);

    // --- Part 1: predicted vs measured node accesses -------------------
    println!("\n## Cost model accuracy (eq. 1): R-tree node accesses");
    println!(
        "{}",
        row(
            "query",
            &[
                "eq1".into(),
                "exact".into(),
                "measured".into(),
                "eq1-err%".into()
            ],
        )
    );
    let cases: Vec<(&str, f64, f64, f64)> = vec![
        // (label, roi fraction, e-lo fraction, e-hi fraction)
        ("tiny", 0.01, 0.0, 0.05),
        ("plane", 0.05, 0.02, 0.02),
        ("mid", 0.05, 0.0, 0.3),
        ("tall", 0.05, 0.0, 1.0),
        ("wide", 0.25, 0.0, 0.1),
        ("all", 1.0, 0.0, 1.0),
    ];
    for (label, roi_frac, elo, ehi) in cases {
        let rois = random_rois(&d.dm.bounds, roi_frac, scale.locations, 23);
        let mut pred = Vec::new();
        let mut exact = Vec::new();
        let mut meas = Vec::new();
        for roi in &rois {
            let q = Box3::prism(*roi, d.dm.e_max * elo, d.dm.e_max * ehi);
            pred.push(d.dm.cost_model().estimate(&q));
            exact.push(d.dm.cost_model().count_intersecting(&q) as f64);
            d.dm.try_cold_start().unwrap();
            // The exact count prices data-page touches; the measured run
            // adds the index descent itself.
            let mut pages = Vec::new();
            d.dm.rtree().query(&q, |_, p| pages.push(p));
            meas.push(d.dm.disk_accesses());
        }
        let p = pred.iter().sum::<f64>() / pred.len() as f64;
        let x = exact.iter().sum::<f64>() / exact.len() as f64;
        let m = mean(&meas);
        println!(
            "{}",
            row(
                label,
                &[
                    format!("{p:.1}"),
                    format!("{x:.1}"),
                    format!("{m:.1}"),
                    format!("{:+.0}%", (p - m) / m.max(1.0) * 100.0),
                ],
            )
        );
    }

    // --- Part 2: optimizer benefit --------------------------------------
    println!("\n## Multi-base optimizer (eq. 3–9): strips chosen and measured DA");
    println!(
        "{}",
        row(
            "angle%",
            &[
                "strips".into(),
                "SB-DA".into(),
                "MB-DA".into(),
                "gain%".into()
            ],
        )
    );
    for angle_frac in [0.1, 0.25, 0.5, 0.75, 0.9] {
        let rois = random_rois(&d.dm.bounds, 0.10, scale.locations, 29);
        let mut strips = Vec::new();
        let mut sb = Vec::new();
        let mut mb = Vec::new();
        for roi in &rois {
            let q = vd_query(roi, d.dm.e_max, d.e_at_cut(0.5), angle_frac);
            strips.push(d.dm.plan_multi_base(&q, 16).len() as u64);
            d.dm.try_cold_start().unwrap();
            d.dm.try_vd_single_base(&q, BoundaryPolicy::Skip).unwrap();
            sb.push(d.dm.disk_accesses());
            d.dm.try_cold_start().unwrap();
            d.dm.try_vd_multi_base(&q, BoundaryPolicy::Skip, 16)
                .unwrap();
            mb.push(d.dm.disk_accesses());
        }
        let (s, m) = (mean(&sb), mean(&mb));
        println!(
            "{}",
            row(
                &format!("{:.0}%", angle_frac * 100.0),
                &[
                    format!("{:.1}", mean(&strips)),
                    format!("{s:.1}"),
                    format!("{m:.1}"),
                    format!("{:+.0}%", (s - m) / s.max(1.0) * 100.0),
                ],
            )
        );
    }
}
