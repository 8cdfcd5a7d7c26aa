//! Figure 6: viewpoint-independent ("uniform mesh") query performance.
//!
//! Panels (a)/(c): disk accesses vs ROI size (2–10 % of the dataset area
//! for the small dataset, 1–5 % for the large one) at the dataset's
//! average LOD. Panels (b)/(d): disk accesses vs LOD (as a percentage of
//! the maximum LOD) at a fixed ROI (10 % / 5 %).
//!
//! Series: DM (single-base is the only applicable DM method for uniform
//! meshes), PM + LOD-quadtree, HDoV-tree. Each point averages the paper's
//! 20 random query locations after a buffer flush.

use dm_bench::{build_dataset, mean, measure_vi, random_rois, row, Scale, Terrain};

fn main() {
    let scale = Scale::from_env();
    let configs = [
        (
            Terrain::Mining,
            scale.small,
            vec![0.02, 0.04, 0.06, 0.08, 0.10],
            0.10,
            "6(a)",
            "6(b)",
        ),
        (
            Terrain::Crater,
            scale.large,
            vec![0.01, 0.02, 0.03, 0.04, 0.05],
            0.05,
            "6(c)",
            "6(d)",
        ),
    ];
    for (kind, side, roi_fracs, lod_roi, panel_roi, panel_lod) in configs {
        let t0 = std::time::Instant::now();
        let d = build_dataset(kind, side, 42);
        eprintln!(
            "# {} built: {} nodes, e_max {:.3} ({:.0}s)",
            d.name,
            d.dm.n_records,
            d.dm.e_max,
            t0.elapsed().as_secs_f64()
        );

        // --- varying ROI, LOD = dataset average ------------------------
        println!(
            "\n## Figure {panel_roi} — VI query, varying ROI ({})",
            d.name
        );
        println!(
            "{}",
            row(
                "roi%",
                &["DM".into(), "PM".into(), "HDoV".into(), "points".into()]
            )
        );
        for &frac in &roi_fracs {
            let rois = random_rois(&d.dm.bounds, frac, scale.locations, 7);
            let (mut dm, mut pm, mut hdov) = (vec![], vec![], vec![]);
            let mut pts = 0usize;
            for roi in &rois {
                let das = measure_vi(&d, roi, d.avg_lod);
                dm.push(das.dm);
                pm.push(das.pm);
                hdov.push(das.hdov);
                pts += d.dm.try_vi_query(roi, d.avg_lod).unwrap().0.points;
            }
            println!(
                "{}",
                row(
                    &format!("{:.0}%", frac * 100.0),
                    &[
                        format!("{:.1}", mean(&dm)),
                        format!("{:.1}", mean(&pm)),
                        format!("{:.1}", mean(&hdov)),
                        format!("{}", pts / rois.len()),
                    ],
                )
            );
        }

        // --- varying LOD, fixed ROI -------------------------------------
        println!(
            "\n## Figure {panel_lod} — VI query, varying LOD ({}); label = % of points kept",
            d.name
        );
        println!(
            "{}",
            row(
                "keep%",
                &["DM".into(), "PM".into(), "HDoV".into(), "points".into()]
            )
        );
        // Sweep positions chosen by cut size (fraction of the original
        // points still present); the paper likewise restricts the LOD
        // axis to "the range that contains a substantial number of
        // points". QEM errors are too skewed for %-of-max-LOD labels.
        for cut_frac in [0.5, 0.3, 0.2, 0.1, 0.05, 0.02] {
            let e = d.e_at_cut(cut_frac);
            let rois = random_rois(&d.dm.bounds, lod_roi, scale.locations, 11);
            let (mut dm, mut pm, mut hdov) = (vec![], vec![], vec![]);
            let mut pts = 0usize;
            for roi in &rois {
                let das = measure_vi(&d, roi, e);
                dm.push(das.dm);
                pm.push(das.pm);
                hdov.push(das.hdov);
                pts += d.dm.try_vi_query(roi, e).unwrap().0.points;
            }
            println!(
                "{}",
                row(
                    &format!("{:.0}%", cut_frac * 100.0),
                    &[
                        format!("{:.1}", mean(&dm)),
                        format!("{:.1}", mean(&pm)),
                        format!("{:.1}", mean(&hdov)),
                        format!("{}", pts / rois.len()),
                    ],
                )
            );
        }
    }
}
