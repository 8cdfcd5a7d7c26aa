//! v3-compact record codec vs. the v2 flat layout.
//!
//! Builds the mining terrain once, loads it into two Direct Mesh stores
//! that differ only in record codec, and replays the paper's workloads —
//! viewpoint-independent window queries at several LODs, multi-base
//! viewpoint-dependent queries, and a short walkthrough — against both.
//!
//! Two facts are *asserted*, not just reported:
//!
//! * every query returns byte-identical results (vertex-id sets and
//!   triangle sets) on both codecs, and
//! * the compact store touches at least 25% fewer heap pages per query
//!   (the heap-page component is isolated from index I/O by replaying
//!   each query's exact boxes through `candidate_pages`).
//!
//! Numbers land in `BENCH_compact.json` (override with `DM_COMPACT_OUT`);
//! `DM_SCALE` picks the terrain size.

use std::sync::Arc;

use dm_bench::{mean, random_rois, vd_query, Scale, POOL_PAGES};
use dm_core::navigation::waypoint_path;
use dm_core::record::RecordCodec;
use dm_core::{
    BoundaryPolicy, DirectMeshDb, DmBuildOptions, NavigationSession, VdResult, ViResult,
};
use dm_geom::{Box3, Rect, Vec2};
use dm_mtm::builder::{build_pm, PmBuild, PmBuildConfig};
use dm_storage::{BufferPool, MemStore, PAGE_SIZE};
use dm_terrain::{generate, TriMesh};

fn build_db(pm: &PmBuild, codec: RecordCodec) -> DirectMeshDb {
    let pool = Arc::new(BufferPool::new(Box::new(MemStore::new()), POOL_PAGES));
    DirectMeshDb::build(
        pool,
        pm,
        &DmBuildOptions {
            codec,
            ..Default::default()
        },
    )
}

/// Canonical form of a front mesh: sorted vertex ids + sorted triangles.
fn canon(front: &dm_mtm::refine::FrontMesh) -> (Vec<u32>, Vec<[u32; 3]>) {
    let mut verts: Vec<u32> = front.vertex_ids().collect();
    verts.sort_unstable();
    let mut tris: Vec<[u32; 3]> = front.triangles().collect();
    tris.sort_unstable();
    (verts, tris)
}

fn assert_same_vi(label: &str, a: &ViResult, b: &ViResult) {
    assert_eq!(canon(&a.front), canon(&b.front), "{label}: VI mesh differs");
    assert_eq!(
        a.fetched_records, b.fetched_records,
        "{label}: VI fetched-record counts differ"
    );
}

fn assert_same_vd(label: &str, a: &VdResult, b: &VdResult) {
    assert_eq!(canon(&a.front), canon(&b.front), "{label}: VD mesh differs");
    assert_eq!(
        a.fetched_records, b.fetched_records,
        "{label}: VD fetched-record counts differ"
    );
    assert_eq!(a.cubes, b.cubes, "{label}: cube decomposition differs");
}

/// Heap pages one query touches: the union of candidate pages over its
/// boxes — a page shared by neighbouring cubes costs one cold disk
/// access, exactly as the buffer pool fetches it once per query.
/// Independent of pool state.
fn heap_pages(db: &DirectMeshDb, boxes: &[Box3]) -> u64 {
    let mut pages = std::collections::HashSet::new();
    for q in boxes {
        pages.extend(db.candidate_pages(q).expect("replay descent"));
    }
    pages.len() as u64
}

struct WorkloadTotals {
    heap_v2: u64,
    heap_v3: u64,
    disk_v2: Vec<u64>,
    disk_v3: Vec<u64>,
}

impl WorkloadTotals {
    fn new() -> Self {
        WorkloadTotals {
            heap_v2: 0,
            heap_v3: 0,
            disk_v2: Vec::new(),
            disk_v3: Vec::new(),
        }
    }

    fn saved_pct(&self) -> f64 {
        100.0 * (1.0 - self.heap_v3 as f64 / self.heap_v2.max(1) as f64)
    }
}

/// Walk the path with a single-cube budget: `move_to` replans through the
/// cost model every frame, and page statistics differ across codecs, so
/// any larger budget would compare different query plans. With one cube
/// the plan is the ROI itself on both stores and meshes must agree.
fn walk_disk(db: &DirectMeshDb, path: &[Rect], e_min: f64) -> (u64, Vec<usize>) {
    db.cold_start();
    let mut session = NavigationSession::new(db, BoundaryPolicy::Skip).with_max_cubes(1);
    let mut verts = Vec::new();
    let mut disk = 0u64;
    for roi in path {
        let q = vd_query(roi, db.e_max, e_min, 0.5);
        let stats = session.move_to(&q);
        disk += stats.disk_accesses;
        verts.push(stats.vertices);
    }
    (disk, verts)
}

fn main() {
    let scale = Scale::from_env();
    let side = scale.small;
    let hf = generate::fractal_terrain(side, side, 42);
    let pm = build_pm(TriMesh::from_heightfield(&hf), &PmBuildConfig::default());
    let v2 = build_db(&pm, RecordCodec::Flat);
    let v3 = build_db(&pm, RecordCodec::Compact);
    assert_eq!(v2.n_records, v3.n_records);
    let n = v2.n_records as f64;
    let (hp2, hp3) = (v2.n_heap_pages(), v3.n_heap_pages());
    let bpr2 = hp2 as f64 * PAGE_SIZE as f64 / n;
    let bpr3 = hp3 as f64 * PAGE_SIZE as f64 / n;
    eprintln!(
        "# compact: {side}×{side} mining terrain, {} records; heap {hp2}→{hp3} pages \
         ({:.1}→{:.1} B/record)",
        v2.n_records, bpr2, bpr3
    );

    // ── VI workload: random windows × three LOD cuts ────────────────────
    let rois = random_rois(&v2.bounds, 0.05, scale.locations, 1234);
    let keeps = [0.35, 0.1, 0.02];
    let mut vi = WorkloadTotals::new();
    for keep in keeps {
        let e = v2.e_for_points_fraction(keep);
        for (i, roi) in rois.iter().enumerate() {
            v2.cold_start();
            let ra = v2.vi_query(roi, e);
            vi.disk_v2.push(v2.disk_accesses());
            v3.cold_start();
            let rb = v3.vi_query(roi, e);
            vi.disk_v3.push(v3.disk_accesses());
            assert_same_vi(&format!("VI roi {i} keep {keep}"), &ra, &rb);
            // Replay the exact query prism to isolate heap-page I/O.
            let plane = Box3::prism(*roi, v2.clamp_e(e), v2.clamp_e(e));
            vi.heap_v2 += heap_pages(&v2, std::slice::from_ref(&plane));
            vi.heap_v3 += heap_pages(&v3, std::slice::from_ref(&plane));
        }
    }

    // ── VD workload: multi-base plans over larger windows ───────────────
    let vd_rois = random_rois(&v2.bounds, 0.15, scale.locations, 5678);
    let e_min = v2.e_for_points_fraction(0.35);
    let mut vd = WorkloadTotals::new();
    for (i, roi) in vd_rois.iter().enumerate() {
        let q = vd_query(roi, v2.e_max, e_min, 0.5);
        // Pin the strip decomposition: the cost model reads page
        // statistics, which the codec changes — letting each store plan
        // for itself would compare different query plans, not codecs.
        let strips = v2.plan_multi_base(&q, 16);
        v2.cold_start();
        let ra = v2.vd_multi_base_with_strips(&q, BoundaryPolicy::Skip, &strips);
        vd.disk_v2.push(v2.disk_accesses());
        v3.cold_start();
        let rb = v3.vd_multi_base_with_strips(&q, BoundaryPolicy::Skip, &strips);
        vd.disk_v3.push(v3.disk_accesses());
        assert_same_vd(&format!("VD roi {i}"), &ra, &rb);
        // Both plans are identical (asserted above): replay the cubes.
        vd.heap_v2 += heap_pages(&v2, &ra.cubes);
        vd.heap_v3 += heap_pages(&v3, &rb.cubes);
    }

    // ── Walkthrough: the navigation session on both codecs ──────────────
    let b = v2.bounds;
    let window = b.width().min(b.height()) * 0.35;
    let pts = [
        Vec2::new(b.min.x + 0.38 * b.width(), b.min.y + 0.38 * b.height()),
        Vec2::new(b.min.x + 0.62 * b.width(), b.min.y + 0.40 * b.height()),
        Vec2::new(b.min.x + 0.60 * b.width(), b.min.y + 0.62 * b.height()),
    ];
    let path = waypoint_path(&pts, window, 12);
    let (walk2, verts2) = walk_disk(&v2, &path, e_min);
    let (walk3, verts3) = walk_disk(&v3, &path, e_min);
    assert_eq!(verts2, verts3, "walkthrough meshes diverged across codecs");
    let walk_saved = 100.0 * (1.0 - walk3 as f64 / walk2.max(1) as f64);

    let vi_saved = vi.saved_pct();
    let vd_saved = vd.saved_pct();
    println!("\n## Record codec — v2 flat vs. v3 compact ({side}×{side} mining)");
    println!(
        "{}",
        dm_bench::row(
            "",
            &[
                "heap pages".into(),
                "B/record".into(),
                "VI pages".into(),
                "VD pages".into(),
                "VI disk".into(),
                "VD disk".into(),
                "walk disk".into(),
            ]
        )
    );
    for (name, hp, bpr, w_vi, w_vd, d_vi, d_vd, wd) in [
        (
            "v2 flat",
            hp2,
            bpr2,
            vi.heap_v2,
            vd.heap_v2,
            &vi.disk_v2,
            &vd.disk_v2,
            walk2,
        ),
        (
            "v3 compact",
            hp3,
            bpr3,
            vi.heap_v3,
            vd.heap_v3,
            &vi.disk_v3,
            &vd.disk_v3,
            walk3,
        ),
    ] {
        println!(
            "{}",
            dm_bench::row(
                name,
                &[
                    hp.to_string(),
                    format!("{bpr:.1}"),
                    w_vi.to_string(),
                    w_vd.to_string(),
                    format!("{:.1}", mean(d_vi)),
                    format!("{:.1}", mean(d_vd)),
                    wd.to_string(),
                ]
            )
        );
    }
    println!(
        "{:>10}  heap-page savings: VI {vi_saved:.1}%, VD {vd_saved:.1}%, \
         walkthrough disk {walk_saved:.1}%",
        "total"
    );

    // ── The tentpole claims ─────────────────────────────────────────────
    assert!(
        hp3 < hp2,
        "compact heap ({hp3} pages) not smaller than flat ({hp2})"
    );
    assert!(
        vi_saved >= 25.0,
        "VI heap-page saving {vi_saved:.1}% below the 25% bar \
         ({} vs {} pages)",
        vi.heap_v3,
        vi.heap_v2
    );
    assert!(
        vd_saved >= 25.0,
        "VD heap-page saving {vd_saved:.1}% below the 25% bar \
         ({} vs {} pages)",
        vd.heap_v3,
        vd.heap_v2
    );

    let json = format!(
        "{{\n  \"bench\": \"compact\",\n  \"dataset\": \"mining-{side}\",\n  \
         \"n_records\": {},\n  \"locations\": {},\n  \"keep_fracs\": [0.35, 0.1, 0.02],\n  \
         \"heap_pages_v2\": {hp2},\n  \"heap_pages_v3\": {hp3},\n  \
         \"bytes_per_record_v2\": {bpr2:.2},\n  \"bytes_per_record_v3\": {bpr3:.2},\n  \
         \"vi_heap_pages_v2\": {},\n  \"vi_heap_pages_v3\": {},\n  \
         \"vi_heap_saved_pct\": {vi_saved:.2},\n  \
         \"vi_disk_mean_v2\": {:.2},\n  \"vi_disk_mean_v3\": {:.2},\n  \
         \"vd_heap_pages_v2\": {},\n  \"vd_heap_pages_v3\": {},\n  \
         \"vd_heap_saved_pct\": {vd_saved:.2},\n  \
         \"vd_disk_mean_v2\": {:.2},\n  \"vd_disk_mean_v3\": {:.2},\n  \
         \"walk_disk_v2\": {walk2},\n  \"walk_disk_v3\": {walk3},\n  \
         \"walk_disk_saved_pct\": {walk_saved:.2}\n}}\n",
        v2.n_records,
        scale.locations,
        vi.heap_v2,
        vi.heap_v3,
        mean(&vi.disk_v2),
        mean(&vi.disk_v3),
        vd.heap_v2,
        vd.heap_v3,
        mean(&vd.disk_v2),
        mean(&vd.disk_v3),
    );
    let out = std::env::var("DM_COMPACT_OUT").unwrap_or_else(|_| "BENCH_compact.json".to_string());
    std::fs::write(&out, &json).unwrap_or_else(|e| panic!("write {out}: {e}"));
    eprintln!("# wrote {out}");
}
