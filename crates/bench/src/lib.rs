//! Experiment harness for the Direct Mesh reproduction.
//!
//! Builds the two benchmark datasets (synthetic stand-ins for the paper's
//! 2M-point mining DEM and 17M-point Crater Lake DEM), loads them into
//! all three systems (Direct Mesh, PM + LOD-quadtree, HDoV-tree) and
//! provides the measurement protocol of §6: flush the buffer, run the
//! query, read the disk-access counter, average over 20 random locations.
//!
//! Dataset scale is selected with the `DM_SCALE` environment variable:
//! `ci` (tiny, seconds — used by `cargo test`), `default` (the shipped
//! bench setting) or `paper` (the paper's full cardinalities; expect a
//! long preprocessing phase).

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::sync::Arc;

use dm_baselines::{HdovDb, PmDb};
use dm_core::{DirectMeshDb, DmBuildOptions};
use dm_geom::{Rect, Vec2};
use dm_mtm::builder::{build_pm, PmBuild, PmBuildConfig};
use dm_mtm::PlaneTarget;
use dm_storage::{BufferPool, MemStore};
use dm_terrain::{generate, Heightfield, TriMesh};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Write a bench's JSON report to the path in the environment variable
/// `var` when it is set, else to `name` at the workspace root, where the
/// committed `BENCH_*.json` files live (`cargo bench` runs in this crate).
pub fn write_bench_json(var: Option<&str>, name: &str, json: &str) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let out = var
        .and_then(std::env::var_os)
        .map_or(root.join(name), PathBuf::from);
    std::fs::write(&out, json).unwrap_or_else(|e| panic!("write {}: {e}", out.display()));
    eprintln!("# wrote {}", out.display());
}

/// Grid sizes for the two datasets and the query repeat count.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Grid side of the "2M" stand-in (fractal mining terrain).
    pub small: usize,
    /// Grid side of the "17M" stand-in (crater terrain).
    pub large: usize,
    /// Random query locations per configuration (the paper uses 20).
    pub locations: usize,
}

impl Scale {
    /// Read `DM_SCALE` (`ci` | `default` | `paper`).
    pub fn from_env() -> Scale {
        match std::env::var("DM_SCALE").as_deref() {
            Ok("ci") => Scale {
                small: 65,
                large: 129,
                locations: 5,
            },
            Ok("paper") => Scale {
                small: 1449,
                large: 4097,
                locations: 20,
            },
            _ => Scale {
                small: 513,
                large: 1025,
                locations: 20,
            },
        }
    }
}

/// Which of the two paper datasets to generate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Terrain {
    /// Fractal relief — stands in for the 2M-point mining DEM.
    Mining,
    /// Caldera — stands in for the 17M-point USGS Crater Lake DEM.
    Crater,
}

/// One dataset loaded into all three systems (each with its own buffer
/// pool, so disk-access counters are independent).
pub struct Dataset {
    pub name: &'static str,
    pub hf: Heightfield,
    pub pm_build: PmBuild,
    pub dm: DirectMeshDb,
    pub pm: PmDb,
    pub hdov: HdovDb,
    /// Average normalized LOD over all nodes (the paper's default query
    /// LOD for the varying-ROI experiments).
    pub avg_lod: f64,
    /// Sorted interval bounds for cut-size computation.
    lo_sorted: Vec<f64>,
    hi_sorted: Vec<f64>,
}

impl Dataset {
    /// Size of the uniform cut at LOD `e` (number of mesh points).
    pub fn cut_size(&self, e: f64) -> usize {
        let below_lo = self.lo_sorted.partition_point(|&v| v <= e);
        let below_hi = self.hi_sorted.partition_point(|&v| v <= e);
        below_lo - below_hi
    }

    /// The LOD whose uniform cut holds about `frac` of the original
    /// points. QEM errors are heavily skewed, so the figure sweeps pick
    /// their positions by cut size — the paper likewise restricts its LOD
    /// axes to "the range that contains a substantial number of points".
    pub fn e_at_cut(&self, frac: f64) -> f64 {
        let target = ((self.pm_build.hierarchy.n_leaves as f64) * frac) as usize;
        let mut lo = 0.0f64;
        let mut hi = self.dm.e_max * 1.001;
        for _ in 0..60 {
            let mid = (lo + hi) / 2.0;
            if self.cut_size(mid) > target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        hi
    }
}

/// Buffer pool capacity (pages) used for every system.
pub const POOL_PAGES: usize = 4096;

/// Generate a dataset and load every system.
pub fn build_dataset(kind: Terrain, side: usize, seed: u64) -> Dataset {
    let (name, hf) = match kind {
        Terrain::Mining => ("mining-2M", generate::fractal_terrain(side, side, seed)),
        Terrain::Crater => ("crater-17M", generate::crater_terrain(side, side, seed)),
    };
    let mesh = TriMesh::from_heightfield(&hf);
    let pm_build = build_pm(mesh, &PmBuildConfig::default());
    let h = &pm_build.hierarchy;
    let avg_lod = h.nodes.iter().map(|n| n.e_lo).sum::<f64>() / h.len() as f64;

    let mk_pool = || Arc::new(BufferPool::new(Box::new(MemStore::new()), POOL_PAGES));
    let dm = DirectMeshDb::build(mk_pool(), &pm_build, &DmBuildOptions::default());
    let pm = PmDb::build(mk_pool(), &pm_build);
    let hdov = HdovDb::build(mk_pool(), &pm_build, &hf);
    let mut lo_sorted: Vec<f64> = pm_build.hierarchy.nodes.iter().map(|n| n.e_lo).collect();
    let mut hi_sorted: Vec<f64> = pm_build
        .hierarchy
        .nodes
        .iter()
        .filter(|n| n.e_hi.is_finite())
        .map(|n| n.e_hi)
        .collect();
    lo_sorted.sort_by(f64::total_cmp);
    hi_sorted.sort_by(f64::total_cmp);
    Dataset {
        name,
        hf,
        pm_build,
        dm,
        pm,
        hdov,
        avg_lod,
        lo_sorted,
        hi_sorted,
    }
}

/// Random square ROIs covering `area_frac` of the dataset area.
pub fn random_rois(bounds: &Rect, area_frac: f64, n: usize, seed: u64) -> Vec<Rect> {
    let mut rng = StdRng::seed_from_u64(seed);
    let side = (bounds.area() * area_frac).sqrt();
    (0..n)
        .map(|_| {
            let x = rng.random_range(bounds.min.x..(bounds.max.x - side).max(bounds.min.x + 1e-9));
            let y = rng.random_range(bounds.min.y..(bounds.max.y - side).max(bounds.min.y + 1e-9));
            Rect::new(Vec2::new(x, y), Vec2::new(x + side, y + side))
        })
        .collect()
}

/// A viewpoint-dependent query over `roi`: LOD plane rising along +y from
/// `e_min` with `angle_frac` of the paper's θmax.
pub fn vd_query(roi: &Rect, e_max_dataset: f64, e_min: f64, angle_frac: f64) -> dm_core::VdQuery {
    let run = roi.height().max(1e-9);
    // θmax = arctan(LOD_max / |ROI|) in the paper's normalized space: the
    // plane that climbs from 0 to the dataset maximum across the ROI.
    let full_slope = e_max_dataset / run;
    let slope = full_slope * angle_frac;
    dm_core::VdQuery {
        roi: *roi,
        target: PlaneTarget {
            origin: roi.min,
            dir: Vec2::new(0.0, 1.0),
            e_min,
            slope,
            e_max: (e_min + slope * run).min(e_max_dataset),
        },
    }
}

/// Disk accesses of one viewpoint-independent query on each system.
#[derive(Clone, Copy, Debug, Default)]
pub struct ViDas {
    pub dm: u64,
    pub pm: u64,
    pub hdov: u64,
}

/// Run the §6 measurement protocol for a VI query on all systems.
pub fn measure_vi(d: &Dataset, roi: &Rect, e: f64) -> ViDas {
    d.dm.try_cold_start().unwrap();
    d.dm.try_vi_query(roi, e).unwrap();
    let dm = d.dm.disk_accesses();
    d.pm.cold_start();
    let _ = d.pm.vi_query(roi, e);
    let pm = d.pm.disk_accesses();
    d.hdov.cold_start();
    let _ = d.hdov.vi_query(roi, e);
    let hdov = d.hdov.disk_accesses();
    ViDas { dm, pm, hdov }
}

/// Disk accesses of one viewpoint-dependent query on each method.
#[derive(Clone, Copy, Debug, Default)]
pub struct VdDas {
    pub sb: u64,
    pub mb: u64,
    pub pm: u64,
    pub hdov: u64,
}

/// Run the §6 measurement protocol for a VD query: DM single-base, DM
/// multi-base (cost-model plan, up to 16 cubes), PM and HDoV.
pub fn measure_vd(d: &Dataset, roi: &Rect, e_min: f64, angle_frac: f64) -> VdDas {
    let q = vd_query(roi, d.dm.e_max, e_min, angle_frac);
    d.dm.try_cold_start().unwrap();
    d.dm.try_vd_single_base(&q, dm_core::BoundaryPolicy::Skip)
        .unwrap();
    let sb = d.dm.disk_accesses();
    d.dm.try_cold_start().unwrap();
    d.dm.try_vd_multi_base(&q, dm_core::BoundaryPolicy::Skip, 16)
        .unwrap();
    let mb = d.dm.disk_accesses();
    d.pm.cold_start();
    let _ = d.pm.vd_query(roi, &q.target);
    let pm = d.pm.disk_accesses();
    d.hdov.cold_start();
    let _ = d.hdov.vd_query(roi, &q.target);
    let hdov = d.hdov.disk_accesses();
    VdDas { sb, mb, pm, hdov }
}

/// Mean of a per-location measurement.
pub fn mean(xs: &[u64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<u64>() as f64 / xs.len() as f64
}

/// Render one table row with fixed-width columns.
pub fn row(label: &str, cells: &[String]) -> String {
    let mut s = format!("{label:>10}");
    for c in cells {
        s.push_str(&format!("{c:>12}"));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_parse() {
        // Only checks the default: env manipulation is racy across tests.
        let s = Scale::from_env();
        assert!(s.small >= 33 && s.large > s.small);
    }

    #[test]
    fn rois_are_inside_bounds() {
        let b = Rect::new(Vec2::new(0.0, 0.0), Vec2::new(100.0, 100.0));
        for roi in random_rois(&b, 0.05, 50, 9) {
            assert!(b.contains_rect(&roi), "{roi:?}");
            assert!((roi.area() / b.area() - 0.05).abs() < 0.001);
        }
    }

    #[test]
    fn vd_query_angle_scales_slope() {
        let roi = Rect::new(Vec2::new(0.0, 0.0), Vec2::new(10.0, 10.0));
        let a = vd_query(&roi, 100.0, 1.0, 0.2);
        let b = vd_query(&roi, 100.0, 1.0, 0.8);
        assert!(b.target.slope > a.target.slope);
        assert!(b.target.e_max <= 100.0);
    }

    #[test]
    fn tiny_dataset_builds_for_all_systems() {
        let d = build_dataset(Terrain::Mining, 33, 7);
        assert!(d.dm.n_records > 33 * 33);
        assert_eq!(d.pm.n_records, d.dm.n_records);
        assert!(d.hdov.num_nodes() >= 1);
        assert!(d.avg_lod > 0.0 && d.avg_lod < d.dm.e_max);
    }
}
