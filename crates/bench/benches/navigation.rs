//! Navigation under pool pressure.
//!
//! Walks a fixed waypoint path over the mining terrain with one
//! [`NavigationSession`] per buffer-pool capacity: 100 %, 25 %, 10 % and
//! 5 % of the store's pages. Every frame fetches its whole cube set, so
//! what a warm frame reads from disk is exactly what the pool no longer
//! holds. Two facts are *asserted*, not just reported:
//!
//! * per-frame vertex counts agree at every capacity (pool pressure
//!   changes cost, never answers), and
//! * warm disk accesses never fall as the pool shrinks (the pool is LRU
//!   per shard, and the page reference string does not depend on the
//!   capacity).
//!
//! Numbers land in `BENCH_navigation.json`. `DM_NAV_FRAMES` overrides the
//! path length (default 32); `DM_SCALE` picks the terrain size.

use std::sync::Arc;

use dm_bench::{vd_query, Scale, POOL_PAGES};
use dm_core::navigation::waypoint_path;
use dm_core::{BoundaryPolicy, DirectMeshDb, DmBuildOptions, FrameStats, NavigationSession};
use dm_geom::Rect;
use dm_geom::Vec2;
use dm_mtm::builder::{build_pm, PmBuildConfig};
use dm_storage::{BufferPool, MemStore};
use dm_terrain::{generate, TriMesh};

/// Pool capacities walked, in percent of the store's pages.
const POOL_PCTS: [usize; 4] = [100, 25, 10, 5];

struct Frame {
    stats: FrameStats,
    secs: f64,
}

fn walk(db: &DirectMeshDb, path: &[Rect], e_min: f64) -> Vec<Frame> {
    db.try_cold_start().unwrap();
    let mut session = NavigationSession::new(db, BoundaryPolicy::Skip).with_max_cubes(16);
    path.iter()
        .map(|roi| {
            let q = vd_query(roi, db.e_max, e_min, 0.5);
            let t0 = std::time::Instant::now();
            let (stats, report) = session.try_move_to(&q).unwrap();
            assert!(report.is_clean(), "{report}");
            Frame {
                stats,
                secs: t0.elapsed().as_secs_f64(),
            }
        })
        .collect()
}

#[derive(Default)]
struct Totals {
    disk: u64,
    dec: u64,
    exam: u64,
    secs: f64,
}

fn totals(frames: &[Frame]) -> Totals {
    frames.iter().fold(Totals::default(), |acc, f| Totals {
        disk: acc.disk + f.stats.disk_accesses,
        dec: acc.dec + f.stats.decoded_records,
        exam: acc.exam + f.stats.examined_records,
        secs: acc.secs + f.secs,
    })
}

fn json_array<T: std::fmt::Display>(xs: impl Iterator<Item = T>) -> String {
    let items: Vec<String> = xs.map(|x| x.to_string()).collect();
    format!("[{}]", items.join(", "))
}

fn main() {
    let scale = Scale::from_env();
    let frames: usize = std::env::var("DM_NAV_FRAMES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(32);
    let side = scale.small;
    let hf = generate::fractal_terrain(side, side, 42);
    let pm = build_pm(TriMesh::from_heightfield(&hf), &PmBuildConfig::default());
    let pool = Arc::new(BufferPool::new(Box::new(MemStore::new()), POOL_PAGES));
    let db = DirectMeshDb::build(pool, &pm, &DmBuildOptions::default());
    let store_pages = db.pool().num_pages() as usize;
    eprintln!(
        "# navigation: {side}×{side} mining terrain, {} records, {store_pages} pages, \
         {frames} frames",
        db.n_records
    );

    // An L-shaped sweep with a return leg: forward motion, a turn, and a
    // partial revisit — the regimes an interactive walkthrough mixes.
    let b = db.bounds;
    let window = b.width().min(b.height()) * 0.35;
    // Leg lengths sized so one frame advances a few percent of the
    // window — the regime of an interactive walkthrough (at 30 fps even
    // fast flight moves ≪10% of the view per frame).
    let pts = [
        Vec2::new(b.min.x + 0.38 * b.width(), b.min.y + 0.38 * b.height()),
        Vec2::new(b.min.x + 0.62 * b.width(), b.min.y + 0.40 * b.height()),
        Vec2::new(b.min.x + 0.60 * b.width(), b.min.y + 0.62 * b.height()),
        Vec2::new(b.min.x + 0.42 * b.width(), b.min.y + 0.48 * b.height()),
    ];
    let path = waypoint_path(&pts, window, frames);
    // Near-viewer LOD: the plane starts at the cut holding ~35% of the
    // original points (QEM errors are skewed; fixed e_max fractions land
    // on trivially coarse cuts) and coarsens across the window.
    let e_min = db.e_for_points_fraction(0.35);

    let walks: Vec<(usize, usize, Vec<Frame>)> = POOL_PCTS
        .iter()
        .map(|&pct| {
            db.pool().set_capacity((store_pages * pct / 100).max(1));
            (pct, db.pool().capacity(), walk(&db, &path, e_min))
        })
        .collect();

    let (_, _, roomy) = &walks[0];
    // Warm-frame totals (frame 0 is a cold start in every walk).
    let warm: Vec<Totals> = walks.iter().map(|(_, _, w)| totals(&w[1..])).collect();
    for (k, (pct, _, w)) in walks.iter().enumerate().skip(1) {
        for i in 0..path.len() {
            assert_eq!(
                w[i].stats.vertices, roomy[i].stats.vertices,
                "frame {i}: a {pct} % pool changed the answer"
            );
        }
        assert!(
            warm[k].disk >= warm[k - 1].disk,
            "a {pct} % pool read {} pages over warm frames, a larger one {}",
            warm[k].disk,
            warm[k - 1].disk
        );
    }

    println!("\n## Navigation — {frames}-frame walkthrough, window 35%, {store_pages}-page store");
    println!(
        "{}",
        dm_bench::row(
            "pool",
            &[
                "pages".into(),
                "warm DA".into(),
                "decoded".into(),
                "examined".into(),
                "secs".into(),
            ]
        )
    );
    for ((pct, cap, _), t) in walks.iter().zip(&warm) {
        println!(
            "{}",
            dm_bench::row(
                &format!("{pct} %"),
                &[
                    cap.to_string(),
                    t.disk.to_string(),
                    t.dec.to_string(),
                    t.exam.to_string(),
                    format!("{:.4}", t.secs),
                ]
            )
        );
    }

    let capacity_json = |(pct, cap, fs): &(usize, usize, Vec<Frame>), t: &Totals| {
        format!(
            "    {{\"pool_pct\": {pct}, \"pool_pages\": {cap}, \
             \"warm_totals\": {{\"disk_accesses\": {}, \"decoded_records\": {}, \
             \"examined_records\": {}, \"secs\": {:.6}}},\n      \
             \"disk_accesses\": {},\n      \"frame_secs\": {}}}",
            t.disk,
            t.dec,
            t.exam,
            t.secs,
            json_array(fs.iter().map(|f| f.stats.disk_accesses)),
            json_array(fs.iter().map(|f| format!("{:.6}", f.secs))),
        )
    };
    let rows: Vec<String> = walks
        .iter()
        .zip(&warm)
        .map(|(w, t)| capacity_json(w, t))
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"navigation\",\n  \"dataset\": \"mining-{side}\",\n  \
         \"frames\": {frames},\n  \"window_frac\": 0.35,\n  \"max_cubes\": 16,\n  \
         \"store_pages\": {store_pages},\n  \"fetched_records\": {},\n  \
         \"vertices\": {},\n  \"capacities\": [\n{}\n  ]\n}}\n",
        json_array(roomy.iter().map(|f| f.stats.fetched_records)),
        json_array(roomy.iter().map(|f| f.stats.vertices)),
        rows.join(",\n"),
    );
    dm_bench::write_bench_json(Some("DM_NAV_OUT"), "BENCH_navigation.json", &json);
}
