//! Thread-scaling of the parallel batch query engine.
//!
//! Runs a fig-6-style batch of viewpoint-independent queries (random
//! ROIs at the dataset's average LOD) plus a batch of viewpoint-dependent
//! single-base queries through `dm_core::parallel` at 1/2/4/8 worker
//! threads over one shared database, and reports wall-clock throughput.
//!
//! Two invariants are *asserted*, not just reported:
//!
//! * results are identical at every thread count (point totals), and
//! * the counted logical disk accesses do not change with the thread
//!   count — parallelism may only move wall-clock time, never the
//!   paper's cost metric. (The pool is sized to hold the whole database
//!   so the access counts are order-independent.)
//!
//! The measured speedup depends on the machine: on a single-core runner
//! every thread count collapses to ~1×. Numbers land in
//! `BENCH_scaling.json` for whatever hardware ran the bench.

use std::sync::Arc;

use dm_bench::{random_rois, vd_query, Scale};
use dm_core::{parallel, BoundaryPolicy, DirectMeshDb, DmBuildOptions, VdQuery};
use dm_geom::Rect;
use dm_mtm::builder::{build_pm, PmBuildConfig};
use dm_storage::{BufferPool, MemStore};
use dm_terrain::{generate, TriMesh};

struct Run {
    threads: usize,
    vi_secs: f64,
    vd_secs: f64,
    vi_points: u64,
    vd_points: u64,
    disk_accesses: u64,
}

fn main() {
    let scale = Scale::from_env();
    let side = scale.small;
    let hf = generate::fractal_terrain(side, side, 42);
    let pm = build_pm(TriMesh::from_heightfield(&hf), &PmBuildConfig::default());
    // Size the pool to the whole database: with no capacity evictions the
    // logical access count of a batch is independent of execution order,
    // making the cross-thread-count assertion exact.
    let pool = Arc::new(BufferPool::new(Box::new(MemStore::new()), 1 << 17));
    let db = DirectMeshDb::build(pool, &pm, &DmBuildOptions::default());
    eprintln!(
        "# scaling: {side}×{side} mining terrain, {} records, {} pages",
        db.n_records,
        db.pool().num_pages()
    );

    // Fig-6-style batch: random ROIs at the average LOD (VI) and tilted
    // planes over random ROIs (VD). Big enough that every thread count
    // has work for each worker.
    let avg_lod = db.e_for_points_fraction(0.25);
    let n_queries = (scale.locations * 8).max(32);
    let vi_batch: Vec<(Rect, f64)> = random_rois(&db.bounds, 0.05, n_queries, 7)
        .into_iter()
        .map(|r| (r, avg_lod))
        .collect();
    let vd_batch: Vec<VdQuery> = random_rois(&db.bounds, 0.05, n_queries, 11)
        .iter()
        .map(|r| vd_query(r, db.e_max, db.e_max * 0.02, 0.5))
        .collect();

    let mut runs: Vec<Run> = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        db.try_cold_start().unwrap();
        let t0 = std::time::Instant::now();
        let vi = parallel::vi_query_batch(&db, &vi_batch, threads);
        let vi_secs = t0.elapsed().as_secs_f64();
        let t1 = std::time::Instant::now();
        let vd = parallel::vd_query_batch(&db, &vd_batch, BoundaryPolicy::Skip, threads);
        let vd_secs = t1.elapsed().as_secs_f64();
        let disk_accesses = db.disk_accesses();
        let vi_points: u64 = vi
            .iter()
            .map(|r| r.as_ref().expect("clean store").0.points as u64)
            .sum();
        let vd_points: u64 = vd
            .iter()
            .map(|r| r.as_ref().expect("clean store").0.front.num_vertices() as u64)
            .sum();
        runs.push(Run {
            threads,
            vi_secs,
            vd_secs,
            vi_points,
            vd_points,
            disk_accesses,
        });
    }

    let base = &runs[0];
    for r in &runs[1..] {
        assert_eq!(
            (r.vi_points, r.vd_points),
            (base.vi_points, base.vd_points),
            "{} threads changed query results",
            r.threads
        );
        assert_eq!(
            r.disk_accesses, base.disk_accesses,
            "{} threads changed the logical disk-access count",
            r.threads
        );
    }

    println!("\n## Thread scaling — {n_queries} VI + {n_queries} VD queries per run");
    println!(
        "{}",
        dm_bench::row(
            "threads",
            &[
                "VI s".into(),
                "VD s".into(),
                "q/s".into(),
                "speedup".into(),
                "accesses".into(),
            ]
        )
    );
    let mut json = String::from("{\n  \"bench\": \"scaling\",\n");
    json.push_str(&format!("  \"dataset\": \"mining-{side}\",\n"));
    json.push_str(&format!("  \"queries_per_kind\": {n_queries},\n"));
    json.push_str(&format!("  \"disk_accesses\": {},\n", base.disk_accesses));
    json.push_str("  \"runs\": [\n");
    let base_total = base.vi_secs + base.vd_secs;
    for (i, r) in runs.iter().enumerate() {
        let total = r.vi_secs + r.vd_secs;
        let qps = (2 * n_queries) as f64 / total.max(1e-9);
        let speedup = base_total / total.max(1e-9);
        println!(
            "{}",
            dm_bench::row(
                &r.threads.to_string(),
                &[
                    format!("{:.3}", r.vi_secs),
                    format!("{:.3}", r.vd_secs),
                    format!("{qps:.1}"),
                    format!("{speedup:.2}x"),
                    format!("{}", r.disk_accesses),
                ]
            )
        );
        json.push_str(&format!(
            "    {{\"threads\": {}, \"vi_secs\": {:.6}, \"vd_secs\": {:.6}, \
             \"queries_per_sec\": {qps:.2}, \"speedup\": {speedup:.3}}}{}\n",
            r.threads,
            r.vi_secs,
            r.vd_secs,
            if i + 1 == runs.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    dm_bench::write_bench_json(None, "BENCH_scaling.json", &json);
}
