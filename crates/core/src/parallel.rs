//! Parallel query execution over one shared, read-only [`DirectMeshDb`].
//!
//! After construction the database is never mutated — every fetch path
//! takes `&self` — so a batch of queries can fan out across threads over
//! a single instance: the sharded buffer pool serializes only same-shard
//! page accesses, and the R\*-tree / id directory / heap read paths hold no
//! locks of their own above the pool.
//!
//! Determinism: every function here returns results in **input order**,
//! bit-identical to running the same queries sequentially (assuming the
//! underlying store heals any injected faults within the retry budget —
//! with unhealable faults, *which* page read fails can depend on cache
//! state, exactly as it does sequentially under a different query order).
//! Batches are split into at most `threads` contiguous chunks, one task
//! per worker — never one task per item — matching the vendored `rayon`
//! shim, where each `spawn` is one OS thread.

use dm_geom::Rect;
use dm_storage::StorageResult;

use crate::query::{
    assemble_refine, staircase, BoundaryPolicy, RecordStore, VdQuery, VdResult, ViResult,
};
use crate::record::FetchedSet;
use crate::store::{DirectMeshDb, FetchCounters, IntegrityReport};

/// Resolve a caller-facing thread count: `0` means "use the current
/// rayon context width" (the installed pool inside
/// `ThreadPool::install`, otherwise the hardware parallelism).
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        rayon::current_num_threads().max(1)
    } else {
        threads
    }
}

/// Map `f` over `items` with at most `threads` workers, preserving input
/// order. Items are split into contiguous chunks, one spawned task per
/// chunk; each task writes into its own disjoint slice of the output, so
/// the result order never depends on scheduling. Public so the world
/// catalog's per-region fan-out can reuse the same machinery (and its
/// determinism argument) instead of growing a second one.
pub fn par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = resolve_threads(threads).min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let chunk = items.len().div_ceil(workers);
    let mut out: Vec<Option<R>> = Vec::with_capacity(items.len());
    out.resize_with(items.len(), || None);
    rayon::scope(|s| {
        for (in_chunk, out_chunk) in items.chunks(chunk).zip(out.chunks_mut(chunk)) {
            let f = &f;
            s.spawn(move |_| {
                for (item, slot) in in_chunk.iter().zip(out_chunk.iter_mut()) {
                    *slot = Some(f(item));
                }
            });
        }
    });
    out.into_iter()
        .map(|r| r.expect("every slot written by its chunk's task"))
        .collect()
}

/// Run a batch of viewpoint-independent queries `(roi, e)` across up to
/// `threads` workers (`0` = context default) over one shared database.
///
/// Results arrive in input order and are identical to calling
/// [`DirectMeshDb::try_vi_query`] on each element sequentially; each
/// query gets its own [`IntegrityReport`] with thread-attributed retry
/// counts.
pub fn vi_query_batch(
    db: &DirectMeshDb,
    queries: &[(Rect, f64)],
    threads: usize,
) -> Vec<StorageResult<(ViResult, IntegrityReport)>> {
    par_map(queries, threads, |(roi, e)| db.try_vi_query(roi, *e))
}

/// Run a batch of viewpoint-dependent single-base queries across up to
/// `threads` workers (`0` = context default). Same ordering and
/// equivalence guarantees as [`vi_query_batch`].
pub fn vd_query_batch(
    db: &DirectMeshDb,
    queries: &[VdQuery],
    policy: BoundaryPolicy,
    threads: usize,
) -> Vec<StorageResult<(VdResult, IntegrityReport)>> {
    par_map(queries, threads, |q| db.try_vd_single_base(q, policy))
}

/// Parallel multi-base query: plan the strip decomposition like
/// [`DirectMeshDb::try_vd_multi_base`], fetch the per-strip cubes on up
/// to `threads` workers, then stitch deterministically — the shared tail
/// absorbs the per-strip arenas in strip order (keeping the first
/// strip's copy of a shared id, matching the sequential pass) and the
/// per-strip [`IntegrityReport`]s merge in the same order — before the
/// single global refinement.
pub fn vd_multi_base_parallel(
    db: &DirectMeshDb,
    q: &VdQuery,
    policy: BoundaryPolicy,
    max_cubes: usize,
    threads: usize,
) -> StorageResult<(VdResult, IntegrityReport)> {
    let strips = db.plan_multi_base(q, max_cubes);
    let cubes = staircase(db, q, &strips);

    // Fan the strip fetches out; each worker degrades and accounts into
    // its own report (retry deltas are thread-attributed, so concurrent
    // retries on a shared page never double-count).
    type StripFetch = StorageResult<(FetchedSet, IntegrityReport)>;
    let fetched: Vec<StripFetch> = par_map(&cubes, threads, |cube| {
        let mut report = IntegrityReport::default();
        let set = db.fetch(
            std::slice::from_ref(cube),
            &mut report,
            &mut FetchCounters::default(),
        )?;
        Ok((set, report))
    });

    // Deterministic stitch in strip order. An index-descent error in any
    // strip fails the query with the *first* strip's error, exactly as
    // the sequential loop would have.
    let mut report = IntegrityReport::default();
    let mut sets: Vec<FetchedSet> = Vec::with_capacity(fetched.len());
    for strip in fetched {
        let (set, strip_report) = strip?;
        report.merge(strip_report);
        sets.push(set);
    }
    Ok(assemble_refine(db, q, policy, cubes, &sets, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::DmBuildOptions;
    use dm_geom::Vec2;
    use dm_mtm::builder::{build_pm, PmBuildConfig};
    use dm_mtm::PlaneTarget;
    use dm_storage::{BufferPool, MemStore};
    use dm_terrain::{generate, TriMesh};
    use std::sync::Arc;

    fn small_db() -> DirectMeshDb {
        let hf = generate::fractal_terrain(17, 17, 3);
        let pm = build_pm(TriMesh::from_heightfield(&hf), &PmBuildConfig::default());
        let pool = Arc::new(BufferPool::new(Box::new(MemStore::new()), 4096));
        DirectMeshDb::build(pool, &pm, &DmBuildOptions::default())
    }

    fn vd_query(db: &DirectMeshDb, angle_frac: f64) -> VdQuery {
        let roi = db.bounds;
        let e_min = db.e_max * 0.02;
        let run = roi.height().max(1.0);
        let slope = ((db.e_max / run).atan() * angle_frac).tan();
        VdQuery {
            roi,
            target: PlaneTarget {
                origin: roi.min,
                dir: Vec2::new(0.0, 1.0),
                e_min,
                slope,
                e_max: (e_min + slope * run).min(db.e_max),
            },
        }
    }

    fn vi_batch(db: &DirectMeshDb) -> Vec<(Rect, f64)> {
        let b = db.bounds;
        let mut qs = Vec::new();
        for i in 0..10 {
            let f = 0.05 + 0.08 * i as f64;
            let side = b.width() * (0.2 + 0.07 * (i % 5) as f64);
            let c = Vec2::new(
                b.min.x + b.width() * (0.25 + 0.05 * i as f64),
                b.min.y + b.height() * (0.7 - 0.04 * i as f64),
            );
            qs.push((Rect::centered_square(c, side), db.e_max * f));
        }
        qs
    }

    fn vi_signature(r: &StorageResult<(ViResult, IntegrityReport)>) -> (usize, usize, Vec<u32>) {
        let (res, _) = r.as_ref().expect("clean db");
        let mut ids: Vec<u32> = res.front.vertex_ids().collect();
        ids.sort_unstable();
        (res.fetched_records, res.front.num_triangles(), ids)
    }

    #[test]
    fn vi_batch_matches_sequential() {
        let db = small_db();
        let qs = vi_batch(&db);
        let seq: Vec<_> = qs.iter().map(|(r, e)| db.try_vi_query(r, *e)).collect();
        let par = vi_query_batch(&db, &qs, 4);
        assert_eq!(seq.len(), par.len());
        for (s, p) in seq.iter().zip(&par) {
            assert_eq!(vi_signature(s), vi_signature(p));
        }
    }

    #[test]
    fn vd_batch_matches_sequential() {
        let db = small_db();
        let qs: Vec<VdQuery> = [0.2, 0.5, 0.8, 0.35, 0.65]
            .iter()
            .map(|&f| vd_query(&db, f))
            .collect();
        let seq: Vec<_> = qs
            .iter()
            .map(|q| db.try_vd_single_base(q, BoundaryPolicy::Skip))
            .collect();
        let par = vd_query_batch(&db, &qs, BoundaryPolicy::Skip, 3);
        for (s, p) in seq.iter().zip(&par) {
            let (sr, _) = s.as_ref().unwrap();
            let (pr, _) = p.as_ref().unwrap();
            assert_eq!(sr.fetched_records, pr.fetched_records);
            let mut si: Vec<u32> = sr.front.vertex_ids().collect();
            let mut pi: Vec<u32> = pr.front.vertex_ids().collect();
            si.sort_unstable();
            pi.sort_unstable();
            assert_eq!(si, pi);
            assert_eq!(sr.front.num_triangles(), pr.front.num_triangles());
        }
    }

    #[test]
    fn multi_base_parallel_matches_sequential() {
        let db = small_db();
        for frac in [0.3, 0.8] {
            let q = vd_query(&db, frac);
            let (seq, seq_rep) = db
                .try_vd_multi_base(&q, BoundaryPolicy::Skip, 8)
                .expect("clean db");
            let (par, par_rep) =
                vd_multi_base_parallel(&db, &q, BoundaryPolicy::Skip, 8, 4).expect("clean db");
            assert_eq!(seq.cubes, par.cubes, "same plan, same cubes");
            assert_eq!(seq.fetched_records, par.fetched_records);
            let mut si: Vec<u32> = seq.front.vertex_ids().collect();
            let mut pi: Vec<u32> = par.front.vertex_ids().collect();
            si.sort_unstable();
            pi.sort_unstable();
            assert_eq!(si, pi);
            assert_eq!(seq.front.num_triangles(), par.front.num_triangles());
            assert!(seq_rep.is_clean() && par_rep.is_clean());
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let db = small_db();
        assert!(vi_query_batch(&db, &[], 4).is_empty());
        assert!(vd_query_batch(&db, &[], BoundaryPolicy::Skip, 4).is_empty());
    }

    #[test]
    fn single_thread_path_is_used_for_tiny_batches() {
        let db = small_db();
        let qs = vec![(db.bounds, db.e_max * 0.3)];
        let out = vi_query_batch(&db, &qs, 8);
        assert_eq!(out.len(), 1);
        assert!(out[0].is_ok());
    }

    #[test]
    fn zero_threads_resolves_to_context() {
        assert!(resolve_threads(0) >= 1);
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(3)
            .build()
            .unwrap();
        let seen = pool.install(|| resolve_threads(0));
        assert_eq!(seen, 3);
        assert_eq!(resolve_threads(5), 5);
    }

    #[test]
    fn db_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DirectMeshDb>();
        assert_send_sync::<Arc<DirectMeshDb>>();
    }
}
