//! Concurrency stress tests for the sharded buffer pool and the shared
//! read-only database:
//!
//! * many threads hammering overlapping queries — no panics, no spurious
//!   failures (a checksum false positive under concurrency would surface
//!   as a strict-query error),
//! * per-shard access counters partition the global ones, and the
//!   concurrent logical disk-access count equals the sequential count of
//!   the same workload (parallelism must not change the paper's metric),
//! * retry accounting stays exact when several workers retry the same
//!   pages: per-operation reports sum to the global retry counter, and
//!   retries never leak into the logical-read figures,
//! * concurrent ≡ serial: every VI and VD answer that workers compute
//!   concurrently on a store with 5% transient faults is the clean
//!   store's sequential answer (same vertices, same triangles).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dm_core::{BoundaryPolicy, DirectMeshDb, DmBuildOptions, VdQuery};
use dm_geom::{Rect, Vec2};
use dm_mtm::builder::{build_pm, PmBuildConfig};
use dm_mtm::PlaneTarget;
use dm_net::canonical_mesh;
use dm_storage::{BufferPool, FaultConfig, FaultInjector, MemStore, StatsSnapshot};
use dm_terrain::{generate, TriMesh};

const THREADS: usize = 8;

fn build_db(pool: Arc<BufferPool>) -> DirectMeshDb {
    let hf = generate::fractal_terrain(17, 17, 5);
    let pm = build_pm(TriMesh::from_heightfield(&hf), &PmBuildConfig::default());
    DirectMeshDb::build(pool, &pm, &DmBuildOptions::default())
}

/// A fixed set of overlapping (ROI, LOD) probes covering coarse and fine
/// levels, interior and border regions.
fn workload(db: &DirectMeshDb) -> Vec<(Rect, f64)> {
    let b = db.bounds;
    let mut qs = Vec::new();
    for i in 0..16 {
        let f = 0.02 + 0.05 * i as f64;
        let side = b.width() * (0.25 + 0.05 * (i % 8) as f64);
        let c = Vec2::new(
            b.min.x + b.width() * (0.2 + 0.04 * i as f64),
            b.min.y + b.height() * (0.8 - 0.04 * i as f64),
        );
        qs.push((Rect::centered_square(c, side), db.e_max * f.min(0.85)));
    }
    qs
}

/// Viewpoint-dependent twins of [`workload`]: the viewer on each ROI's
/// south edge, the LOD plane rising from a fifth of the probe's LOD to
/// the coarsest level at the far edge.
fn vd_workload(db: &DirectMeshDb) -> Vec<VdQuery> {
    workload(db)
        .into_iter()
        .map(|(roi, e)| VdQuery {
            roi,
            target: PlaneTarget {
                origin: roi.min,
                dir: Vec2::new(0.0, 1.0),
                e_min: e * 0.2,
                slope: (db.e_max - e * 0.2) / roi.height().max(1e-9),
                e_max: db.e_max,
            },
        })
        .collect()
}

fn sum_shards(per_shard: &[StatsSnapshot]) -> StatsSnapshot {
    per_shard
        .iter()
        .fold(StatsSnapshot::default(), |a, s| StatsSnapshot {
            reads: a.reads + s.reads,
            writes: a.writes + s.writes,
            retries: a.retries + s.retries,
        })
}

#[test]
fn stress_shared_db_no_panics_no_false_positives_stable_counts() {
    let pool = Arc::new(BufferPool::new(Box::new(MemStore::new()), 8192));
    let db = build_db(pool);
    let qs = workload(&db);

    // Sequential reference: signatures and the cold logical-read count.
    db.try_cold_start().unwrap();
    let reference: Vec<(usize, usize)> = qs
        .iter()
        .map(|(roi, e)| {
            let (res, rep) = db.try_vi_query(roi, *e).expect("clean store");
            assert!(rep.is_clean());
            (res.points, res.front.num_triangles())
        })
        .collect();
    let sequential_reads = db.disk_accesses();
    assert!(sequential_reads > 0);

    // Concurrent run of the same workload from cold: 8 threads, hundreds
    // of iterations each, all queries strict — any torn read, checksum
    // false positive, or lock-ordering deadlock fails the test.
    db.try_cold_start().unwrap();
    let iters = 150usize;
    let executed = AtomicU64::new(0);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let db = &db;
            let qs = &qs;
            let reference = &reference;
            let executed = &executed;
            s.spawn(move || {
                for i in 0..iters {
                    // Rotate the starting offset per thread so different
                    // threads collide on different queries.
                    for k in 0..qs.len() {
                        let idx = (k + t * 3 + i) % qs.len();
                        let (roi, e) = &qs[idx];
                        let (res, rep) = db
                            .try_vi_query(roi, *e)
                            .expect("strict query must never fail on a clean store");
                        assert!(rep.is_clean());
                        assert_eq!(
                            (res.points, res.front.num_triangles()),
                            reference[idx],
                            "thread {t} iteration {i} query {idx} diverged"
                        );
                        executed.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    assert_eq!(
        executed.load(Ordering::Relaxed),
        (THREADS * iters * qs.len()) as u64
    );

    // The pool holds the whole database, so every page is fetched at most
    // once per cold period regardless of interleaving: the concurrent
    // logical disk-access count must equal the sequential one.
    let global = db.pool().stats();
    assert_eq!(
        global.reads, sequential_reads,
        "concurrency changed the logical disk-access count"
    );
    assert_eq!(global.retries, 0, "no faults were injected");
    let shard_sum = sum_shards(&db.pool().shard_stats());
    assert_eq!(
        shard_sum, global,
        "per-shard counters must partition the global ones"
    );
    assert!(
        db.pool().num_shards() > 1,
        "stress must actually exercise multiple shards"
    );
}

#[test]
fn concurrent_retry_accounting_is_exact() {
    // A store that fails 5% of reads transiently (plus rare bit flips):
    // workers retrying the *same* pages concurrently must each report
    // exactly their own retry spend — the per-operation reports sum to
    // the pool's global retry counter, with nothing double-counted and
    // nothing leaked into the logical-read figures. Every answer they
    // compute is the clean store's sequential one.
    let clean_pool = Arc::new(BufferPool::new(Box::new(MemStore::new()), 8192));
    let clean_db = build_db(clean_pool);
    let vi_reference: Vec<_> = workload(&clean_db)
        .iter()
        .map(|(roi, e)| canonical_mesh(&clean_db.try_vi_query(roi, *e).unwrap().0.front))
        .collect();
    let vd_reference: Vec<_> = vd_workload(&clean_db)
        .iter()
        .map(|q| {
            clean_db
                .try_vd_single_base(q, BoundaryPolicy::Skip)
                .unwrap()
                .0
        })
        .map(|res| canonical_mesh(&res.front))
        .collect();

    let injector = FaultInjector::new(
        Box::new(MemStore::new()),
        FaultConfig::new(3)
            .with_read_fail_rate(0.05)
            .with_bit_flip_rate(0.005),
    );
    let pool = Arc::new(BufferPool::new(Box::new(injector), 8192).with_max_retries(16));
    let db = build_db(pool);
    let qs = workload(&db);
    let vds = vd_workload(&db);

    db.try_cold_start().unwrap();
    let reported_retries = AtomicU64::new(0);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let (db, qs, vds) = (&db, &qs, &vds);
            let (vi_reference, vd_reference) = (&vi_reference, &vd_reference);
            let reported_retries = &reported_retries;
            s.spawn(move || {
                for i in 0..40 {
                    for k in 0..qs.len() {
                        let idx = (k + t + i) % qs.len();
                        let (roi, e) = &qs[idx];
                        let (res, rep) = db
                            .try_vi_query(roi, *e)
                            .expect("faults must heal within the retry budget");
                        assert!(rep.is_clean(), "healed faults must not report loss");
                        assert_eq!(canonical_mesh(&res.front), vi_reference[idx], "VI {idx}");
                        reported_retries.fetch_add(rep.retries, Ordering::Relaxed);
                    }
                    let idx = (t + i) % vds.len();
                    let (res, rep) = db
                        .try_vd_single_base(&vds[idx], BoundaryPolicy::Skip)
                        .expect("faults must heal within the retry budget");
                    assert!(rep.is_clean(), "healed faults must not report loss");
                    assert_eq!(canonical_mesh(&res.front), vd_reference[idx], "VD {idx}");
                    reported_retries.fetch_add(rep.retries, Ordering::Relaxed);
                }
            });
        }
    });

    let global = db.pool().stats();
    assert!(global.retries > 0, "the fault rate must have fired");
    assert_eq!(
        reported_retries.load(Ordering::Relaxed),
        global.retries,
        "per-operation retry reports must partition the global counter \
         (a delta of the shared counter would double-count across threads)"
    );
    assert_eq!(
        sum_shards(&db.pool().shard_stats()),
        global,
        "shard counters must partition the global ones under faults too"
    );

    // Retries are not logical disk accesses: the same workload on a
    // fault-free store reads exactly as many pages.
    clean_db.try_cold_start().unwrap();
    for (roi, e) in &workload(&clean_db) {
        let _ = clean_db.try_vi_query(roi, *e).expect("clean store");
    }
    db.try_cold_start().unwrap();
    for (roi, e) in &qs {
        let _ = db.try_vi_query(roi, *e).expect("faults heal");
    }
    assert_eq!(
        db.disk_accesses(),
        clean_db.disk_accesses(),
        "retries leaked into the logical disk-access count"
    );
}

#[test]
fn two_workers_retrying_the_same_page_do_not_cross_account() {
    // Regression for the stats-accounting seam: a tiny single-page-ish
    // working set forces both workers onto the same faulty pages at the
    // same time. Each worker's per-op deltas must still sum (with the
    // other's) to the global counter — the thread-local attribution in
    // `dm_storage::stats` is what makes this exact.
    let injector = FaultInjector::new(
        Box::new(MemStore::new()),
        FaultConfig::new(11).with_read_fail_rate(0.30),
    );
    let pool = Arc::new(BufferPool::new(Box::new(injector), 4096).with_max_retries(32));
    let db = build_db(pool);
    let plane = (db.bounds, db.e_max * 0.3);

    db.try_cold_start().unwrap();
    let per_worker: Vec<AtomicU64> = (0..2).map(|_| AtomicU64::new(0)).collect();
    std::thread::scope(|s| {
        for slot in &per_worker {
            let db = &db;
            let (roi, e) = &plane;
            s.spawn(move || {
                for _ in 0..60 {
                    // Both workers flush-and-refetch the same pages, so
                    // their retries overlap in time on the same shards.
                    let _ = db.pool().try_flush_all();
                    let (_res, rep) = db.try_vi_query(roi, *e).expect("faults heal");
                    slot.fetch_add(rep.retries, Ordering::Relaxed);
                }
            });
        }
    });
    let a = per_worker[0].load(Ordering::Relaxed);
    let b = per_worker[1].load(Ordering::Relaxed);
    let global = db.pool().stats().retries;
    assert!(global > 0, "the 30% fault rate must have fired");
    assert_eq!(
        a + b,
        global,
        "workers double- or under-counted shared-page retries ({a} + {b} != {global})"
    );
}
