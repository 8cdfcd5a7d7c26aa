//! World-catalog benchmark: many regions, one process, bounded handles
//! and pages.
//!
//! Builds six independent file-backed terrain stores, assembles them
//! into a world laid out along `x`, and opens the world with a handle
//! cap (`max_open = 3`) and a page budget well below the world's total
//! page count — the configuration the catalog exists for: a world that
//! cannot fit in memory, served anyway.
//!
//! Three measured phases:
//!
//! 1. **Cold sweep** — a west→east walkthrough session crossing every
//!    region. Regions open lazily on first touch; the LRU cap forces
//!    evictions behind the viewer while the session's pins protect the
//!    regions under it.
//! 2. **Warm sweep** — the same path again: regions evicted behind the
//!    first pass re-open (opens grow), regions still resident answer
//!    from their pools (hits grow).
//! 3. **Isolation drill** — one region is hammered with queries while a
//!    colder open region is watched: because the page budget is split
//!    into physically separate per-region pools, the hot region's
//!    traffic must not move a single resident page of the cold one.
//!
//! Between the sweeps and the drill, a **reopen** block cycles through
//! the regions with no session pinning anything, so every touch evicts a
//! region and reopens another: time and page reads per evict→reopen,
//! with the check that a reopen leaves no heap page resident (an open
//! reads the catalog and the index).
//!
//! The bench asserts the structural invariants inline (lazy opens, cap
//! respected, evictions happened, cold-region residency untouched) and
//! writes `BENCH_world.json` (override with `DM_WORLD_OUT`) for the CI
//! regression guard.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use dm_bench::Scale;
use dm_core::{BoundaryPolicy, DirectMeshDb, DmBuildOptions, FetchCounters, VdQuery};
use dm_geom::Vec2;
use dm_mtm::builder::{build_pm, PmBuildConfig};
use dm_storage::{BufferPool, FileStore, PAGE_SIZE};
use dm_terrain::{generate, TriMesh};
use dm_world::{assemble_manifest, WorldDb, WorldOptions, WorldSession};

const REGIONS: usize = 6;
const MAX_OPEN: usize = 3;

struct SweepCost {
    secs: f64,
    frames: usize,
    fetched_records: u64,
    pages_scanned: u64,
    opens: u64,
    evictions: u64,
    hits: u64,
    max_open_seen: usize,
}

/// Fly a west→east walkthrough across the whole world, one session, and
/// report the region-lifecycle deltas this pass caused.
fn sweep(world: &WorldDb, frames: usize) -> SweepCost {
    let before = world.region_stats();
    let b = *world.bounds();
    // Half a region wide: each frame touches at most two adjacent
    // regions, so the session's pins never exceed the handle cap and
    // LRU eviction stays live behind the viewer.
    let window = b.width() / REGIONS as f64 * 0.5;
    let path = dm_core::navigation::waypoint_path(
        &[
            Vec2::new(b.min.x + window * 0.5, b.center().y),
            Vec2::new(b.max.x - window * 0.5, b.center().y),
        ],
        window,
        frames,
    );
    let mut session = WorldSession::new(BoundaryPolicy::FetchOnMiss, 8);
    let mut counters = FetchCounters::default();
    let mut fetched = 0u64;
    let mut max_open_seen = 0usize;
    let t0 = Instant::now();
    for roi in &path {
        let q = VdQuery::from_viewpoint(*roi, roi.center(), world.e_max() / 40.0, world.e_max());
        let (res, report) = session.frame(world, &q, &mut counters).expect("frame");
        assert!(report.is_clean(), "clean stores must answer cleanly");
        assert!(
            res.front.vertex_ids().next().is_some(),
            "empty frame at {roi:?}"
        );
        fetched += res.fetched_records as u64;
        max_open_seen = max_open_seen.max(world.open_count());
    }
    let secs = t0.elapsed().as_secs_f64();
    session.close(world);
    let after = world.region_stats();
    let delta = |f: fn(&dm_world::RegionStats) -> u64| -> u64 {
        after.iter().map(f).sum::<u64>() - before.iter().map(f).sum::<u64>()
    };
    SweepCost {
        secs,
        frames: path.len(),
        fetched_records: fetched,
        pages_scanned: counters.pages_scanned,
        opens: delta(|r| r.opens),
        evictions: delta(|r| r.evictions),
        hits: delta(|r| r.hits),
        max_open_seen,
    }
}

fn main() {
    let scale = Scale::from_env();
    // Six regions at roughly half the "small" dataset side each: big
    // enough that the world dwarfs the page budget, small enough that
    // six builds stay reasonable.
    let side = (scale.small / 2 + 1).max(33);
    let dir = std::env::temp_dir().join(format!("dm_bench_world_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("bench dir");

    let mut paths: Vec<PathBuf> = Vec::new();
    for i in 0..REGIONS {
        let hf = generate::fractal_terrain(side, side, 1000 + i as u64);
        let pm = build_pm(TriMesh::from_heightfield(&hf), &PmBuildConfig::default());
        let path = dir.join(format!("region_{i}.dmdb"));
        let pool = Arc::new(BufferPool::new(
            Box::new(FileStore::create(&path).expect("create store")),
            dm_bench::POOL_PAGES,
        ));
        DirectMeshDb::create_in(pool, &pm, &DmBuildOptions::default());
        paths.push(path);
    }
    let total_pages: u64 = paths
        .iter()
        .map(|p| std::fs::metadata(p).expect("store metadata").len() / PAGE_SIZE as u64)
        .sum();
    // A pool one third the world's size: serving the whole sweep forces
    // both handle eviction (6 regions, 3 handles) and page pressure.
    // The lower bound keeps every open region at its 32-page floor even
    // at ci scale, where the whole world is only a few hundred pages.
    let page_budget = (total_pages as usize / 3).max(MAX_OPEN * 32);
    assert!(
        (page_budget as u64) < total_pages,
        "the world must not fit in the pool"
    );

    let manifest = assemble_manifest(&paths, 16.0).expect("assemble world");
    let manifest_path = dir.join("world.dmwm");
    manifest.write(&manifest_path).expect("write manifest");
    let world = WorldDb::open(
        &manifest_path,
        WorldOptions {
            max_open: MAX_OPEN,
            page_budget,
            region_floor: 32,
            ..WorldOptions::default()
        },
    )
    .expect("open world");
    eprintln!(
        "# world: {REGIONS} × {side}×{side} regions, {} records, {total_pages} pages total, \
         budget {page_budget} pages, {MAX_OPEN} max open",
        world.n_records()
    );

    // Lazy open: the manifest alone opens nothing.
    assert_eq!(world.open_count(), 0, "regions must open lazily");
    assert!(world.region_stats().iter().all(|r| r.opens == 0));

    let frames = 4 * REGIONS;
    let cold = sweep(&world, frames);
    let warm = sweep(&world, frames);
    for (label, c) in [("cold", &cold), ("warm", &warm)] {
        eprintln!(
            "# {label} sweep: {:.3}s over {} frames, {} records fetched, {} pages scanned, \
             {} opens, {} evictions, {} hits, max {} open",
            c.secs,
            c.frames,
            c.fetched_records,
            c.pages_scanned,
            c.opens,
            c.evictions,
            c.hits,
            c.max_open_seen
        );
    }

    // The catalog's contract, asserted where the numbers were made:
    // every region opened exactly once on the cold sweep (lazy, no
    // re-open while resident), the handle cap held throughout, and the
    // cap forced real evictions behind the viewer.
    assert_eq!(
        cold.opens, REGIONS as u64,
        "cold sweep opens each region once"
    );
    assert!(cold.max_open_seen <= MAX_OPEN, "handle cap violated");
    assert!(warm.max_open_seen <= MAX_OPEN, "handle cap violated warm");
    assert!(
        cold.evictions > 0,
        "six regions behind three handles must evict"
    );
    assert!(warm.hits > 0, "warm sweep must hit resident regions");
    assert!(
        warm.opens < cold.opens + REGIONS as u64,
        "warm opens are re-opens, bounded"
    );

    // --- Reopen: REGIONS > MAX_OPEN and nothing is pinned, so a round
    // robin over the regions misses on every touch. ---
    let reopen_rounds = 5;
    let mut reopen_us: Vec<f64> = Vec::new();
    let mut reopen_reads = 0u64;
    let mut heap_resident_after_open = 0usize;
    let lifecycle = |w: &WorldDb| -> u64 { w.region_stats().iter().map(|r| r.opens).sum() };
    let opens_before = lifecycle(&world);
    for i in (0..REGIONS).cycle().take(reopen_rounds * REGIONS) {
        let reads_before = dm_storage::thread_reads();
        let t0 = Instant::now();
        let db = world.region(i).expect("reopen");
        reopen_us.push(t0.elapsed().as_secs_f64() * 1e6);
        reopen_reads += dm_storage::thread_reads() - reads_before;
        heap_resident_after_open += db.pool().resident_among(db.heap_pages());
    }
    let reopens = lifecycle(&world) - opens_before;
    assert_eq!(
        reopens,
        (reopen_rounds * REGIONS) as u64,
        "every touch of the round robin must reopen"
    );
    assert_eq!(
        heap_resident_after_open, 0,
        "a region open must not read heap pages"
    );
    reopen_us.sort_by(f64::total_cmp);
    let reopen_us_p50 = reopen_us[reopen_us.len() / 2];
    let reopen_reads_per_open = reopen_reads as f64 / reopens as f64;
    let heap_pages_per_region = total_pages as f64 / REGIONS as f64;
    eprintln!(
        "# reopen: {reopens} evict→reopen cycles, {reopen_us_p50:.0} µs each (median), \
         {reopen_reads_per_open:.1} page reads each, of ~{heap_pages_per_region:.0} pages a region"
    );

    // --- Isolation drill: hammer the most-recently-used open region,
    // watch a colder open region's residency. Separate per-region pools
    // mean the hot region's traffic cannot evict the cold one's pages —
    // only an explicit rebalance (on open/evict, and none happens here)
    // moves capacity. ---
    // Resolving `e` touches region 0 (the histogram lives in its
    // catalog) and may evict an LRU region — do it before choosing the
    // regions to watch.
    let e = world.e_for_points_fraction(0.2).expect("e");
    let stats = world.region_stats();
    let open_idxs: Vec<usize> = (0..world.n_regions()).filter(|&i| stats[i].open).collect();
    assert!(open_idxs.len() >= 2, "need two open regions for the drill");
    let hot = *open_idxs.last().unwrap();
    let cold_idx = open_idxs[0];
    let cold_resident_before = stats[cold_idx].resident_pages;
    let hot_wb = world.region_meta(hot).world_bounds();
    let hammer_queries = 16 * scale.locations.max(1);
    let t0 = Instant::now();
    let mut hammer_ctr = FetchCounters::default();
    for _ in 0..hammer_queries {
        let (res, report) = world
            .try_vi_query_flat_counted(&hot_wb, e, &mut hammer_ctr)
            .expect("hammer query");
        assert!(report.is_clean());
        assert!(!res.nodes.is_empty());
    }
    let hammer_secs = t0.elapsed().as_secs_f64();
    let stats_after = world.region_stats();
    let cold_resident_after = stats_after[cold_idx].resident_pages;
    let isolation_held = cold_resident_after == cold_resident_before;
    eprintln!(
        "# isolation: {hammer_queries} queries on region {hot} in {hammer_secs:.3}s; \
         region {cold_idx} residency {cold_resident_before} → {cold_resident_after} pages"
    );
    assert!(
        isolation_held,
        "hot region {hot} traffic moved cold region {cold_idx}'s pages \
         ({cold_resident_before} → {cold_resident_after})"
    );
    assert!(
        stats_after[hot].queries > stats[hot].queries,
        "hammer queries must be attributed to the hot region"
    );

    // --- Report. ---
    println!(
        "\n## World catalog — {REGIONS} regions, {MAX_OPEN} handles, {page_budget}-page budget"
    );
    println!(
        "{}",
        dm_bench::row(
            "sweep",
            &[
                "secs".into(),
                "frames".into(),
                "opens".into(),
                "evictions".into(),
                "hits".into(),
                "max open".into(),
            ]
        )
    );
    for (label, c) in [("cold", &cold), ("warm", &warm)] {
        println!(
            "{}",
            dm_bench::row(
                label,
                &[
                    format!("{:.3}", c.secs),
                    format!("{}", c.frames),
                    format!("{}", c.opens),
                    format!("{}", c.evictions),
                    format!("{}", c.hits),
                    format!("{}", c.max_open_seen),
                ]
            )
        );
    }
    println!(
        "isolation: cold region residency {cold_resident_before} → {cold_resident_after} pages \
         under {hammer_queries} hot-region queries"
    );

    let mut json = String::from("{\n  \"bench\": \"world\",\n");
    json.push_str(&format!("  \"regions\": {REGIONS},\n"));
    json.push_str(&format!("  \"region_side\": {side},\n"));
    json.push_str(&format!("  \"total_pages\": {total_pages},\n"));
    json.push_str(&format!("  \"page_budget\": {page_budget},\n"));
    json.push_str(&format!("  \"max_open\": {MAX_OPEN},\n"));
    for (label, c) in [("cold", &cold), ("warm", &warm)] {
        json.push_str(&format!(
            "  \"{label}\": {{\"secs\": {:.6}, \"frames\": {}, \"fetched_records\": {}, \
             \"pages_scanned\": {}, \"opens\": {}, \"evictions\": {}, \"hits\": {}, \
             \"max_open_seen\": {}}},\n",
            c.secs,
            c.frames,
            c.fetched_records,
            c.pages_scanned,
            c.opens,
            c.evictions,
            c.hits,
            c.max_open_seen
        ));
    }
    json.push_str(&format!(
        "  \"reopen\": {{\"opens\": {reopens}, \"us_per_open_p50\": {reopen_us_p50:.1}, \
         \"page_reads_per_open\": {reopen_reads_per_open:.2}, \
         \"heap_pages_resident_after_open\": {heap_resident_after_open}, \
         \"store_pages_per_region\": {heap_pages_per_region:.0}}},\n"
    ));
    json.push_str(&format!(
        "  \"isolation\": {{\"hammer_queries\": {hammer_queries}, \"hammer_secs\": {hammer_secs:.6}, \
         \"cold_resident_before\": {cold_resident_before}, \
         \"cold_resident_after\": {cold_resident_after}, \"held\": {isolation_held}}},\n"
    ));
    json.push_str("  \"lazy_open\": true,\n");
    json.push_str("  \"cap_respected\": true\n}\n");
    dm_bench::write_bench_json(Some("DM_WORLD_OUT"), "BENCH_world.json", &json);
    std::fs::remove_dir_all(&dir).ok();
}
