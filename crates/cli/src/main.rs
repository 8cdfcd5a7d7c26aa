//! `dm` — the Direct Mesh command-line tool.
//!
//! ```text
//! dm generate --kind crater --size 257 --seed 42 -o crater.dmh
//! dm build crater.dmh -o crater.dmdb [--pm-cache crater.dmpm]
//! dm info crater.dmdb
//! dm query crater.dmdb --keep 0.2 [--roi x0,y0,x1,y1] -o mesh.obj
//! dm vd crater.dmdb --near-keep 0.4 --far-keep 0.05 -o view.obj
//! ```
//!
//! Terrain inputs: `.asc` (ESRI ASCII grid, the USGS interchange format)
//! or `.dmh` (this repo's binary heightfield). Databases are page files
//! with a self-describing catalog (reopenable without the source data).

#![forbid(unsafe_code)]

use std::process::ExitCode;
use std::sync::Arc;

use dm_core::{
    verify_store, BoundaryPolicy, DirectMeshDb, DmBuildOptions, EditOp, FetchCounters,
    IntegrityReport, LiveDb, LiveOptions, RecoveryInfo, VdQuery,
};
use dm_geom::{Rect, Vec2};
use dm_mtm::builder::{build_pm, PmBuildConfig};
use dm_mtm::PlaneTarget;
use dm_storage::{BufferPool, FaultConfig, FaultInjector, FileStore, PageStore, StorageResult};
use dm_terrain::{generate, io as tio, obj, Heightfield, TriMesh};

mod args;
use args::Args;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(argv: Vec<String>) -> Result<(), String> {
    let Some((cmd, rest)) = argv.split_first() else {
        print_help();
        return Ok(());
    };
    let args = Args::parse_with_flags(rest, &["degraded", "cold", "chunked", "world"])?;
    match cmd.as_str() {
        "generate" => cmd_generate(args),
        "build" => cmd_build(args),
        "info" => cmd_info(args),
        "stats" => cmd_stats(args),
        "query" => cmd_query(args),
        "vd" => cmd_vd(args),
        "walkthrough" => cmd_walkthrough(args),
        "patch" => cmd_patch(args),
        "recover" => cmd_recover(args),
        "verify" => cmd_verify(args),
        "world-build" => cmd_world_build(args),
        "world-verify" => cmd_world_verify(args),
        "serve" => cmd_serve(args),
        "remote-query" => cmd_remote_query(args),
        "remote-walkthrough" => cmd_remote_walkthrough(args),
        "remote-shutdown" => cmd_remote_shutdown(args),
        "help" | "--help" | "-h" => {
            print_help();
            Ok(())
        }
        other => Err(format!("unknown command {other:?}; try `dm help`")),
    }
}

fn print_help() {
    println!(
        "dm — Direct Mesh terrain databases

commands:
  generate --kind <mining|crater|ramp> --size <n> [--seed <s>] -o <file.dmh|.asc>
  build <terrain.dmh|.asc> -o <db.dmdb> [--pm-cache <file.dmpm>] [--codec v2|v3]
  info <db.dmdb>

build options:
  --codec <v2|v3>       on-disk record codec: v3 (default) packs records
                        with page-local delta compression; v2 writes the
                        flat layout. Either way the catalog is version 4
                        (id directory); `open` also reads the version-2/3
                        catalogs of older builds.
  query <db.dmdb> [--keep <frac> | --lod <e>] [--roi x0,y0,x1,y1] [-o mesh.obj]
  vd <db.dmdb> [--near-keep <frac>] [--far-keep <frac>] [--roi ...] [-o mesh.obj]
  walkthrough <db.dmdb> [--frames <n>] [--window <frac>]
              [--waypoints x0,y0;x1,y1;...] [-o last-frame.obj]

viewpoint-dependent options (vd / walkthrough):
  --policy <skip|fetch> boundary policy: leave ROI borders coarser, or
                        fetch missing records by id (default fetch)
  --max-cubes <n>       cap on the multi-base strip decomposition
                        (default 16)

walkthrough options:
  --frames <n>          navigation frames along the path (default 16)
  --window <frac>       window size as a fraction of the terrain
                        (default 0.5)
  --waypoints <list>    fly a polyline of x,y points (semicolon-
                        separated) instead of the south→north slide

parallel execution (query):
  --threads <n>         worker threads (default 1; 0 = all hardware
                        threads); results are identical to sequential
  --batch <n>           query only: split the ROI into an n×n grid of
                        sub-queries and fan them across the workers,
                        printing aggregate figures

fault tolerance (query / vd / walkthrough / info / serve):
  --degraded            open the database and complete queries past
                        unreadable data pages, printing an integrity
                        report instead of failing
  --max-retries <n>     page-read retry budget (default 4)
  --fault-rate <p>      inject transient read faults with probability p
  --fault-seed <s>      deterministic fault stream seed (default 1)

live edits (crash-safe, WAL-backed):
  patch <db.dmdb> --region x0,y0,x1,y1 --raise <dz>
        [--kill-after <n>] [--fault-seed <s>]
                        durably raise the terrain inside a region:
                        WAL-logged, copy-on-write, committed by atomic
                        root swap; --kill-after crashes the process
                        deterministically after n durable writes (for
                        recovery drills)
  recover <db.dmdb>     replay or discard the WAL tail and report the
                        committed epoch (also happens on every open)
  verify <db.dmdb> [--catalog <page>]
                        offline integrity scrub: decode every heap
                        record, cross-check the id directory and R*-tree
                        against the heap; exits nonzero on any
                        inconsistency

multi-terrain worlds:
  world-build <store1> <store2> ... -o <world.dmwm> [--gap <units>]
                        assemble independent stores into one world
                        manifest: regions are placed left-to-right with
                        --gap world units between them (default 16) and
                        receive disjoint record-id ranges; stores are
                        referenced, not copied
  world-verify <world.dmwm>
                        validate the manifest (version + checksum), then
                        run the offline integrity scrub on every region
                        store; exits nonzero if any region fails
  serve <world.dmwm> --world [--max-open <n>] [--page-budget <pages>]
                        [--region-floor <pages>] [...serve options]
                        serve every region from one process: region
                        stores open lazily on first touch and are
                        LRU-evicted past --max-open; --page-budget pool
                        pages are shared across open regions weighted by
                        size (never below --region-floor each), so one
                        hot region cannot evict the world

network service:
  stats <db.dmdb>       structural summary (catalog version, codec,
                        record/page/index-node counts)
  stats --addr <host:port>
                        same summary from a running server, plus the
                        streaming wire counters (bytes in/out, delta vs
                        full frames) for this connection and in total;
                        a world server adds a per-region table (opens,
                        evictions, hits, queries, resident pages)
  serve <db.dmdb> [--addr host:port] [--workers <n>] [--max-inflight <n>]
                  [--max-pipeline <n>] [--write-budget <bytes>]
                  [--port-file <file>]
                        serve the database over TCP (the dm-net binary
                        protocol) on an event-loop reactor; --addr
                        defaults to 127.0.0.1:0 and --port-file records
                        the bound address for scripts; --max-pipeline
                        and --write-budget bound one connection's queued
                        requests and unread response bytes
  remote-query --addr <host:port> [--keep <frac> | --lod <e>]
               [--roi ...] [--batch <n>] [--threads <n>] [--cold]
               [--pipeline <window>] [--degraded] [--chunked]
               [--region <id>] [--verify-local <db.dmdb>] [-o mesh.obj]
                        run VI queries against a server; --cold asks the
                        server to flush first (paper-protocol
                        measurement), --pipeline keeps a window of
                        requests in flight on one connection, --chunked
                        streams the answer coarse-to-fine (first chunk
                        is already a renderable closed mesh prefix),
                        --verify-local re-runs locally and asserts
                        byte-identical results
  remote-walkthrough --addr <host:port> [--frames <n>] [--window <frac>]
               [--near-keep <f>] [--far-keep <f>] [--policy ...]
               [--max-cubes <n>] [--degraded]
               [--stream <delta|full|auto>] [--verify-local <db.dmdb>]
                        fly a server-side navigation session; --stream
                        picks the frame transport: `delta` ships ΔROI
                        patches against the previous frame, `full` ships
                        whole meshes, `auto` (default) ships whichever
                        encodes smaller per frame; prints bytes on the
                        wire per frame, and --verify-local replays the
                        path locally asserting the reconstructed meshes
                        are bit-identical
  remote-shutdown --addr <host:port>
                        ask a server to drain and exit

terrain files: .asc (ESRI ASCII grid) or .dmh (binary heightfield)
databases:     page files with a self-describing catalog (page 0)"
    );
}

fn cmd_generate(args: Args) -> Result<(), String> {
    let kind = args.get("kind").unwrap_or("mining");
    let size: usize = args.parse_or("size", 257)?;
    let seed: u64 = args.parse_or("seed", 42)?;
    let out = args.require("o")?;
    let hf = match kind {
        "mining" => generate::fractal_terrain(size, size, seed),
        "crater" => generate::crater_terrain(size, size, seed),
        "ramp" => generate::ramp(size, size, 1.0),
        other => return Err(format!("unknown terrain kind {other:?}")),
    };
    write_heightfield(&hf, out)?;
    let (lo, hi) = hf.z_range();
    println!(
        "{out}: {}×{} samples, z ∈ [{lo:.1}, {hi:.1}]",
        hf.width(),
        hf.height()
    );
    Ok(())
}

fn cmd_build(args: Args) -> Result<(), String> {
    let input = args.positional(0)?;
    let out = args.require("o")?;
    let hf = read_heightfield(input)?;
    println!("terrain: {}×{} samples", hf.width(), hf.height());

    // PM construction, with an optional cache of the expensive part.
    let t0 = std::time::Instant::now();
    let pm = match args.get("pm-cache") {
        Some(cache) if std::path::Path::new(cache).exists() => {
            let f = std::fs::File::open(cache).map_err(|e| format!("{cache}: {e}"))?;
            let pm = dm_mtm::persist::load_pm(f).map_err(|e| format!("{cache}: {e}"))?;
            check_pm_terrain(&pm, &hf).map_err(|e| format!("{cache}: {e}"))?;
            println!(
                "loaded PM hierarchy from {cache} ({} nodes)",
                pm.hierarchy.len()
            );
            pm
        }
        cache => {
            let pm = build_pm(TriMesh::from_heightfield(&hf), &PmBuildConfig::default());
            let st = pm.stats;
            println!(
                "built PM hierarchy: {} nodes in {:.2}s ({} pops, {} stale, {} sweeps, peak queue {})",
                pm.hierarchy.len(),
                t0.elapsed().as_secs_f64(),
                st.pops,
                st.stale_pops,
                st.sweeps,
                st.peak_queue
            );
            if let Some(cache) = cache {
                let f = std::fs::File::create(cache).map_err(|e| format!("{cache}: {e}"))?;
                dm_mtm::persist::save_pm(&pm, f).map_err(|e| format!("{cache}: {e}"))?;
                println!("cached PM hierarchy to {cache}");
            }
            pm
        }
    };
    let pm_s = t0.elapsed().as_secs_f64();

    let codec = match args.get("codec").unwrap_or("v3") {
        "v2" | "flat" => dm_core::record::RecordCodec::Flat,
        "v3" | "compact" => dm_core::record::RecordCodec::Compact,
        other => return Err(format!("unknown --codec {other:?} (v2|v3)")),
    };
    let t1 = std::time::Instant::now();
    let store = FileStore::create(std::path::Path::new(out)).map_err(|e| format!("{out}: {e}"))?;
    let pool = Arc::new(BufferPool::new(Box::new(store), 4096));
    let db = DirectMeshDb::create_in(
        pool,
        &pm,
        &DmBuildOptions {
            codec,
            ..Default::default()
        },
    );
    let store_s = t1.elapsed().as_secs_f64();
    println!(
        "{out}: {} records over {} pages, {} codec (e_max {:.2})",
        db.n_records,
        db.pool().num_pages(),
        db.codec().name(),
        db.e_max
    );
    println!(
        "build time: PM {pm_s:.2}s, store {store_s:.2}s, total {:.2}s",
        pm_s + store_s
    );
    Ok(())
}

/// A cached PM must come from this very terrain: one leaf per sample, at
/// the sample's world position bit for bit.
fn check_pm_terrain(pm: &dm_mtm::PmBuild, hf: &Heightfield) -> Result<(), String> {
    let (w, h) = (hf.width(), hf.height());
    let n = pm.hierarchy.n_leaves;
    if n != w * h {
        return Err(format!(
            "cached PM has {n} leaves, the terrain {w}×{h} samples"
        ));
    }
    let bits = |p: dm_geom::Vec3| [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()];
    for (id, node) in pm.hierarchy.nodes[..n].iter().enumerate() {
        let (col, row) = (id % w, id / w);
        if bits(node.pos) != bits(hf.world(col, row)) {
            return Err(format!(
                "cached PM leaf {id} is not the terrain's sample ({col}, {row})"
            ));
        }
    }
    Ok(())
}

/// The catalog page the store's root file committed, or page 0 for a
/// store that has never been live-edited.
fn committed_catalog(store: &std::path::Path) -> Result<dm_storage::PageId, String> {
    let root = dm_storage::wal::root_path(store);
    if !root.exists() {
        return Ok(0);
    }
    let (_file, rec) =
        dm_storage::RootFile::open(&root).map_err(|e| format!("{}: {e}", root.display()))?;
    Ok(rec.map_or(0, |r| r.catalog_page))
}

/// A shared lock on the store file for as long as the returned store
/// lives, taken before the root is read: a writer elsewhere may reuse
/// any page a stale root names.
fn open_shared(path: &str) -> Result<FileStore, String> {
    FileStore::open_locked(std::path::Path::new(path), false).map_err(|e| format!("{path}: {e}"))
}

fn open_db(path: &str, args: &Args) -> Result<DirectMeshDb, String> {
    let store = open_shared(path)?;
    // Live-edited stores move their catalog on every commit; follow the
    // root pointer so reads see the last committed edit.
    let catalog = committed_catalog(std::path::Path::new(path))?;
    // Optional deterministic fault injection, for exercising the
    // degraded query paths against a real database file.
    let fault_rate: f64 = args.parse_or("fault-rate", 0.0)?;
    let store: Box<dyn PageStore> = if fault_rate > 0.0 {
        let seed: u64 = args.parse_or("fault-seed", 1)?;
        println!("injecting transient read faults: rate {fault_rate}, seed {seed}");
        Box::new(FaultInjector::new(
            Box::new(store),
            FaultConfig::new(seed).with_read_fail_rate(fault_rate),
        ))
    } else {
        Box::new(store)
    };
    let max_retries: u32 = args.parse_or("max-retries", 4)?;
    let pool = Arc::new(BufferPool::new(store, 4096).with_max_retries(max_retries));
    if args.has("degraded") {
        let mut report = IntegrityReport::default();
        let db = DirectMeshDb::open_degraded_at(pool, catalog, &mut report)
            .map_err(|e| format!("{path}: {e}"))?;
        if !report.is_clean() {
            println!("opened degraded: {report}");
            for e in &report.errors {
                println!("  lost: {e}");
            }
        }
        Ok(db)
    } else {
        DirectMeshDb::open_at(pool, catalog).map_err(|e| format!("{path}: {e}"))
    }
}

fn print_report(report: &IntegrityReport) {
    println!("integrity:  {report}");
    for e in &report.errors {
        println!("  lost: {e}");
    }
}

/// A one-shot query's answer as the CLI accepts it: under `--degraded`
/// whatever survived, with its integrity report printed; otherwise only
/// an answer that lost no data.
fn accept<T>(args: &Args, answer: StorageResult<(T, IntegrityReport)>) -> Result<T, String> {
    let (res, report) = answer.map_err(|e| e.to_string())?;
    if args.has("degraded") {
        print_report(&report);
    } else if !report.is_clean() {
        return Err(format!(
            "query lost data ({report}); rerun with --degraded to accept a partial mesh"
        ));
    }
    Ok(res)
}

fn cmd_info(args: Args) -> Result<(), String> {
    let path = args.positional(0)?;
    let db = open_db(path, &args)?;
    println!("database:   {path}");
    println!(
        "records:    {} ({} original points)",
        db.n_records, db.n_leaves
    );
    println!("roots:      {}", db.roots.len());
    println!("codec:      {}", db.codec().name());
    println!(
        "pages:      {} ({} heap)",
        db.pool().num_pages(),
        db.n_heap_pages()
    );
    println!(
        "bounds:     ({:.1}, {:.1}) .. ({:.1}, {:.1})",
        db.bounds.min.x, db.bounds.min.y, db.bounds.max.x, db.bounds.max.y
    );
    println!("max LOD:    {:.3}", db.e_max);
    for keep in [0.5, 0.25, 0.1, 0.02] {
        let e = keep_to_lod(&db, keep)?;
        println!(
            "  keep {:>4.0}% → e = {:<12.4} ({} points)",
            keep * 100.0,
            e,
            db.cut_size(e)
        );
    }
    Ok(())
}

/// The LOD keeping `keep` of the points. On a strictly opened store the
/// first resolution scans the heap for the interval statistics, so this
/// is where a damaged heap page first shows.
fn keep_to_lod(db: &DirectMeshDb, keep: f64) -> Result<f64, String> {
    db.try_e_for_points_fraction(keep)
        .map_err(|e| format!("{e} (try --degraded, or `dm verify`)"))
}

fn parse_rect_spec(spec: &str) -> Result<Rect, String> {
    let parts: Vec<f64> = spec
        .split(',')
        .map(|t| {
            t.trim()
                .parse::<f64>()
                .map_err(|e| format!("bad rect: {e}"))
        })
        .collect::<Result<_, _>>()?;
    if parts.len() != 4 {
        return Err("rect must be x0,y0,x1,y1".to_string());
    }
    Ok(Rect::from_corners(
        Vec2::new(parts[0], parts[1]),
        Vec2::new(parts[2], parts[3]),
    ))
}

fn parse_roi(args: &Args, bounds: Rect) -> Result<Rect, String> {
    match args.get("roi") {
        None => Ok(bounds),
        Some(spec) => parse_rect_spec(spec),
    }
}

/// Split `roi` into an `n × n` grid of sub-rectangles, row-major.
fn roi_grid(roi: &Rect, n: usize) -> Vec<Rect> {
    let n = n.max(1);
    let (w, h) = (roi.width() / n as f64, roi.height() / n as f64);
    let mut cells = Vec::with_capacity(n * n);
    for j in 0..n {
        for i in 0..n {
            let min = Vec2::new(roi.min.x + i as f64 * w, roi.min.y + j as f64 * h);
            cells.push(Rect::from_corners(min, Vec2::new(min.x + w, min.y + h)));
        }
    }
    cells
}

fn cmd_query(args: Args) -> Result<(), String> {
    let path = args.positional(0)?;
    let db = open_db(path, &args)?;
    let roi = parse_roi(&args, db.bounds)?;
    let e = match args.get("lod") {
        Some(v) => v.parse::<f64>().map_err(|e| format!("bad --lod: {e}"))?,
        None => {
            let keep: f64 = args.parse_or("keep", 0.25)?;
            keep_to_lod(&db, keep)?
        }
    };
    let threads: usize = args.parse_or("threads", 1)?;
    let batch: usize = args.parse_or("batch", 0)?;
    db.try_cold_start().map_err(|e| e.to_string())?;
    if batch > 1 {
        let queries: Vec<(Rect, f64)> = roi_grid(&roi, batch).into_iter().map(|r| (r, e)).collect();
        let mut merged = IntegrityReport::default();
        let (mut points, mut triangles, mut fetched) = (0usize, 0usize, 0usize);
        for r in dm_core::vi_query_batch(&db, &queries, threads) {
            let (res, report) = r.map_err(|e| e.to_string())?;
            merged.merge(report);
            points += res.points;
            triangles += res.front.num_triangles();
            fetched += res.fetched_records;
        }
        if args.has("degraded") {
            print_report(&merged);
        } else if !merged.is_clean() {
            return Err(format!(
                "batch lost data ({merged}); rerun with --degraded to accept partial results"
            ));
        }
        println!(
            "batch {batch}×{batch} at LOD {e:.4} on {} threads: {points} points, \
             {triangles} triangles, {fetched} records fetched, {} disk accesses",
            dm_core::parallel::resolve_threads(threads),
            db.disk_accesses()
        );
        return Ok(());
    }
    let res = accept(&args, db.try_vi_query(&roi, e))?;
    println!(
        "LOD {e:.4}: {} points, {} triangles, {} disk accesses",
        res.points,
        res.front.num_triangles(),
        db.disk_accesses()
    );
    maybe_export(&args, &res.front)
}

/// Parse `--policy skip|fetch` (default fetch-on-miss, matching the
/// interactive use case where borders should not stay coarse).
fn parse_policy(args: &Args) -> Result<BoundaryPolicy, String> {
    match args.get("policy").unwrap_or("fetch") {
        "skip" => Ok(BoundaryPolicy::Skip),
        "fetch" | "fetch-on-miss" => Ok(BoundaryPolicy::FetchOnMiss),
        other => Err(format!("unknown --policy {other:?} (skip|fetch)")),
    }
}

/// The walkthrough/vd query shape: viewer on the ROI edge, LOD plane
/// rising from `e_min` at the viewer to `e_far` at the far edge.
fn vd_query(roi: Rect, e_min: f64, e_far: f64) -> VdQuery {
    let run = roi.height().max(1e-9);
    VdQuery {
        roi,
        target: PlaneTarget {
            origin: roi.min,
            dir: Vec2::new(0.0, 1.0),
            e_min,
            slope: (e_far - e_min) / run,
            e_max: e_far,
        },
    }
}

fn cmd_vd(args: Args) -> Result<(), String> {
    let path = args.positional(0)?;
    let db = open_db(path, &args)?;
    let roi = parse_roi(&args, db.bounds)?;
    let near: f64 = args.parse_or("near-keep", 0.4)?;
    let far: f64 = args.parse_or("far-keep", 0.05)?;
    let policy = parse_policy(&args)?;
    let max_cubes: usize = args.parse_or("max-cubes", 16)?;
    let e_min = keep_to_lod(&db, near)?;
    let e_far = keep_to_lod(&db, far)?.max(e_min);
    let q = vd_query(roi, e_min, e_far);
    db.try_cold_start().map_err(|e| e.to_string())?;
    let res = accept(&args, db.try_vd_multi_base(&q, policy, max_cubes))?;
    println!(
        "viewpoint-dependent ({} → {} keep): {} points, {} triangles, {} cubes, {} disk accesses",
        near,
        far,
        res.front.num_vertices(),
        res.front.num_triangles(),
        res.cubes.len(),
        db.disk_accesses()
    );
    maybe_export(&args, &res.front)
}

fn parse_waypoints(spec: &str) -> Result<Vec<Vec2>, String> {
    spec.split(';')
        .map(|p| {
            let parts: Vec<f64> = p
                .split(',')
                .map(|t| {
                    t.trim()
                        .parse::<f64>()
                        .map_err(|e| format!("bad waypoint {p:?}: {e}"))
                })
                .collect::<Result<_, _>>()?;
            if parts.len() != 2 {
                return Err(format!("waypoint {p:?} must be x,y"));
            }
            if !parts.iter().all(|v| v.is_finite()) {
                return Err(format!("waypoint {p:?} is not a finite point"));
            }
            Ok(Vec2::new(parts[0], parts[1]))
        })
        .collect()
}

/// `--window <frac>` (default 0.5): a window that holds no terrain would
/// fly empty frames.
fn parse_window(args: &Args) -> Result<f64, String> {
    let frac: f64 = args.parse_or("window", 0.5)?;
    if frac.is_finite() && frac > 0.0 {
        Ok(frac)
    } else {
        Err(format!("--window {frac} must be a positive fraction"))
    }
}

/// Shared walkthrough setup: the frame ROIs and the LOD plane endpoints.
fn walkthrough_path(args: &Args, db: &DirectMeshDb) -> Result<(Vec<Rect>, f64, f64), String> {
    let frames: usize = args.parse_or("frames", 16)?;
    let window_frac = parse_window(args)?;
    let near: f64 = args.parse_or("near-keep", 0.4)?;
    let far: f64 = args.parse_or("far-keep", 0.05)?;
    let rois = match args.get("waypoints") {
        None => dm_core::navigation::flight_path(&db.bounds, window_frac, frames),
        Some(spec) => {
            let pts = parse_waypoints(spec)?;
            let window = db.bounds.width().min(db.bounds.height()) * window_frac;
            dm_core::navigation::waypoint_path(&pts, window, frames)
        }
    };
    let e_min = keep_to_lod(db, near)?;
    let e_far = keep_to_lod(db, far)?.max(e_min);
    Ok((rois, e_min, e_far))
}

fn cmd_walkthrough(args: Args) -> Result<(), String> {
    let path = args.positional(0)?;
    let db = open_db(path, &args)?;
    let window_frac = parse_window(&args)?;
    let policy = parse_policy(&args)?;
    let max_cubes: usize = args.parse_or("max-cubes", 16)?;
    let degraded = args.has("degraded");

    let (rois, e_min, e_far) = walkthrough_path(&args, &db)?;
    let mut session = dm_core::NavigationSession::new(&db, policy).with_max_cubes(max_cubes);
    db.try_cold_start().map_err(|e| e.to_string())?;

    println!(
        "walkthrough: {} frames, window {:.0}%, policy {:?}, max {} cubes",
        rois.len(),
        window_frac * 100.0,
        policy,
        max_cubes
    );
    println!(
        "frame    disk  fetched  decoded examined    +seed    -seed boundary  vertices      ms"
    );
    let (mut t_disk, mut t_fetched, mut t_decoded) = (0u64, 0usize, 0u64);
    let mut merged = IntegrityReport::default();
    for (i, roi) in rois.iter().enumerate() {
        let q = vd_query(*roi, e_min, e_far);
        let t0 = std::time::Instant::now();
        let (stats, report) = session.try_move_to(&q).map_err(|e| e.to_string())?;
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        if !report.is_clean() && !degraded {
            return Err(format!(
                "frame {i} lost data ({report}); rerun with --degraded to accept partial meshes"
            ));
        }
        merged.merge(report);
        t_disk += stats.disk_accesses;
        t_fetched += stats.fetched_records;
        t_decoded += stats.decoded_records;
        println!(
            "{i:>5} {:>7} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>9} {ms:>7.1}",
            stats.disk_accesses,
            stats.fetched_records,
            stats.decoded_records,
            stats.examined_records,
            stats.seeds_added,
            stats.seeds_removed,
            stats.boundary_fetches,
            stats.vertices,
        );
    }
    println!(
        "total {t_disk:>7} {t_fetched:>8} {t_decoded:>8}  ({:.1} disk accesses/frame; pool: {})",
        t_disk as f64 / rois.len().max(1) as f64,
        db.pool().decoded_stats()
    );
    if degraded {
        print_report(&merged);
    }
    maybe_export(&args, session.front())
}

fn maybe_export(args: &Args, front: &dm_mtm::FrontMesh) -> Result<(), String> {
    if let Some(out) = args.get("o") {
        let (mesh, _) = front.to_trimesh();
        mesh.validate()
            .map_err(|e| format!("reconstructed mesh invalid: {e}"))?;
        let mut f = std::fs::File::create(out).map_err(|e| format!("{out}: {e}"))?;
        obj::write_obj(&mesh, &mut f).map_err(|e| format!("{out}: {e}"))?;
        println!("wrote {out}");
    }
    Ok(())
}

fn report_recovery(info: &RecoveryInfo) {
    if info.replayed > 0 || info.discarded_tail {
        println!(
            "recovered:  replayed {} WAL entr{}, torn tail {}",
            info.replayed,
            if info.replayed == 1 { "y" } else { "ies" },
            if info.discarded_tail {
                "discarded"
            } else {
                "absent"
            },
        );
    }
}

fn cmd_patch(args: Args) -> Result<(), String> {
    let path = args.positional(0)?;
    let region = parse_rect_spec(args.require("region")?)?;
    let dz: f64 = args
        .require("raise")?
        .parse()
        .map_err(|e| format!("bad --raise: {e}"))?;
    let fault = match args.get("kill-after") {
        Some(n) => {
            let n: u64 = n.parse().map_err(|e| format!("bad --kill-after: {e}"))?;
            let seed: u64 = args.parse_or("fault-seed", 1)?;
            println!("crash drill: dying after {n} durable writes (seed {seed})");
            Some(FaultConfig::new(seed).with_fail_writes_after(n))
        }
        None => None,
    };
    let opts = LiveOptions {
        cache_pages: 4096,
        fault,
    };
    let (live, info) =
        LiveDb::open(std::path::Path::new(path), &opts).map_err(|e| format!("{path}: {e}"))?;
    report_recovery(&info);
    let stats = live
        .apply_patch(&region, &EditOp::Raise(dz))
        .map_err(|e| format!("patch failed: {e}"))?;
    println!(
        "committed:  epoch {}, {} record(s) raised by {dz}, {} heap page(s) rewritten, {} page(s) reused",
        stats.epoch, stats.records_updated, stats.pages_rewritten, stats.pages_reused
    );
    Ok(())
}

fn cmd_recover(args: Args) -> Result<(), String> {
    let path = args.positional(0)?;
    let (live, info) = LiveDb::open(std::path::Path::new(path), &LiveOptions::default())
        .map_err(|e| format!("{path}: {e}"))?;
    println!("epoch:      {}", info.epoch);
    println!("replayed:   {} WAL entries", info.replayed);
    println!(
        "torn tail:  {}",
        if info.discarded_tail {
            "discarded"
        } else {
            "absent"
        }
    );
    let db = live.snapshot();
    println!(
        "records:    {} over {} heap pages",
        db.n_records,
        db.n_heap_pages()
    );
    Ok(())
}

fn cmd_verify(args: Args) -> Result<(), String> {
    let path = args.positional(0)?;
    let store = open_shared(path)?;
    // Scrub the committed root when this store has one; a store that was
    // never live-edited keeps its catalog at page 0.
    let root_file = dm_storage::wal::root_path(std::path::Path::new(path));
    let committed = if root_file.exists() {
        dm_storage::RootFile::open(&root_file)
            .map_err(|e| format!("{}: {e}", root_file.display()))?
            .1
    } else {
        None
    };
    let catalog_page =
        args.parse_or("catalog", committed.as_ref().map_or(0, |r| r.catalog_page))?;
    let pool = Arc::new(BufferPool::new(Box::new(store), 4096));
    let report = verify_store(&pool, catalog_page)
        .map_err(|e| format!("{path}: catalog unreadable: {e}"))?;
    if let Some(r) = &committed {
        println!("epoch:      {}", r.epoch);
    }
    println!("crc32:      {}", dm_storage::checksum::kernel());
    println!("{report}");
    if report.ok() {
        Ok(())
    } else {
        Err(format!(
            "{path}: {} integrity error(s)",
            report.errors.len()
        ))
    }
}

fn cmd_world_build(args: Args) -> Result<(), String> {
    let stores: Vec<std::path::PathBuf> = args
        .positionals()
        .iter()
        .map(std::path::PathBuf::from)
        .collect();
    if stores.is_empty() {
        return Err("world-build needs at least one store file".to_string());
    }
    let out = args.require("o")?;
    let gap: f64 = args.parse_or("gap", 16.0)?;
    let manifest =
        dm_world::assemble_manifest(&stores, gap).map_err(|e| format!("world-build: {e}"))?;
    manifest
        .write(std::path::Path::new(out))
        .map_err(|e| format!("{out}: {e}"))?;
    println!(
        "world manifest {out}: {} regions, max LOD {:.3}",
        manifest.regions.len(),
        manifest.e_max
    );
    for r in &manifest.regions {
        let wb = r.world_bounds();
        println!(
            "  region {:>3}  {:<24} {:>9} records  ids {}..{}  world ({:.1}, {:.1}) .. ({:.1}, {:.1})",
            r.id,
            r.path.display(),
            r.n_records,
            r.id_base,
            u64::from(r.id_base) + u64::from(r.n_records),
            wb.min.x,
            wb.min.y,
            wb.max.x,
            wb.max.y
        );
    }
    Ok(())
}

fn cmd_world_verify(args: Args) -> Result<(), String> {
    let path = args.positional(0)?;
    // `read` validates the manifest's CRC and version and resolves
    // relative region paths against the manifest directory.
    let manifest = dm_world::WorldManifest::read(std::path::Path::new(path))
        .map_err(|e| format!("{path}: {e}"))?;
    println!("world manifest {path}: {} regions", manifest.regions.len());
    let mut failures = 0usize;
    for r in &manifest.regions {
        // Every region is an ordinary single-terrain store: follow its
        // committed root (if live-edited) and run the same offline scrub
        // `dm verify` applies to standalone databases.
        let verdict = dm_world::open_region_store(&r.path, 4096, None)
            .and_then(|(pool, catalog)| verify_store(&pool, catalog))
            .map_err(|e| e.to_string());
        match verdict {
            Ok(report) if report.ok() => {
                println!("  region {:>3}  {:<24} ok", r.id, r.path.display());
            }
            Ok(report) => {
                failures += 1;
                println!(
                    "  region {:>3}  {:<24} {} integrity error(s)",
                    r.id,
                    r.path.display(),
                    report.errors.len()
                );
                for e in &report.errors {
                    println!("    lost: {e}");
                }
            }
            Err(e) => {
                failures += 1;
                println!(
                    "  region {:>3}  {:<24} unreadable: {e}",
                    r.id,
                    r.path.display()
                );
            }
        }
    }
    if failures == 0 {
        Ok(())
    } else {
        Err(format!("{path}: {failures} region(s) failed verification"))
    }
}

fn cmd_stats(args: Args) -> Result<(), String> {
    // `dm stats --addr host:port` asks a running server instead of
    // opening a database file, and additionally reports the streaming
    // byte/frame counters for this connection and the whole server.
    if let Some(addr) = args.get("addr") {
        let mut client = dm_net::Client::connect(addr).map_err(|e| format!("{addr}: {e}"))?;
        let keep: f64 = args.parse_or("keep", 0.25)?;
        let (s, resolved, conn, totals) = client
            .stats_with_counters(vec![keep])
            .map_err(|e| e.to_string())?;
        println!("server:          {addr}");
        println!(
            "records:         {} ({} original points, {} roots)",
            s.n_records, s.n_leaves, s.n_roots
        );
        println!(
            "bounds:          ({:.1}, {:.1}) .. ({:.1}, {:.1})",
            s.bounds.min.x, s.bounds.min.y, s.bounds.max.x, s.bounds.max.y
        );
        println!(
            "max LOD:         {:.3} (keep {keep:.2} resolves to e {:.4})",
            s.e_max, resolved[0]
        );
        for (label, c) in [("this connection", &conn), ("server totals", &totals)] {
            println!(
                "{label:<16} {} B in, {} B out, {} delta frames, {} full frames",
                c.bytes_in, c.bytes_out, c.delta_frames, c.full_frames
            );
        }
        // A world server additionally reports per-region lifecycle
        // counters; a single-terrain server answers BadRequest, which
        // just means there is no region table to print.
        match client.world_stats() {
            Ok(regions) => {
                println!(
                    "regions:         {} ({} open)",
                    regions.len(),
                    regions.iter().filter(|r| r.open).count()
                );
                println!(
                    "  {:>6} {:>7} {:>9} {:>7} {:>8} {:>10}  state",
                    "region", "opens", "evictions", "hits", "queries", "res pages"
                );
                for r in &regions {
                    println!(
                        "  {:>6} {:>7} {:>9} {:>7} {:>8} {:>10}  {}",
                        r.id,
                        r.opens,
                        r.evictions,
                        r.hits,
                        r.queries,
                        r.resident_pages,
                        if r.open { "open" } else { "closed" }
                    );
                }
            }
            Err(dm_net::WireError::Remote { code, .. })
                if code == dm_net::ErrorCode::BadRequest.code() => {}
            Err(e) => return Err(format!("world stats: {e}")),
        }
        return Ok(());
    }
    let path = args.positional(0)?;
    let db = open_db(path, &args)?;
    let s = db.stats_summary();
    println!("database:        {path}");
    println!(
        "catalog:         version {} ({} codec)",
        s.catalog_version,
        s.codec.name()
    );
    println!(
        "records:         {} ({} original points, {} roots)",
        s.n_records, s.n_leaves, s.n_roots
    );
    println!(
        "heap pages:      {} of {} total",
        s.heap_pages, s.total_pages
    );
    match db.id_directory_walk().map_err(|e| format!("{path}: {e}"))? {
        Some(w) => println!(
            "id directory:    {} pages, {} entries, {} runs",
            w.pages, w.entries, w.runs
        ),
        None => println!(
            "b+-tree:         height {}, {} keyed records (the first patch writes an id directory)",
            s.id_index_levels, s.id_index_entries
        ),
    }
    println!(
        "r*-tree:         {} node pages, height {}, {} entries",
        s.rtree_nodes, s.rtree_height, s.rtree_len
    );
    println!(
        "bounds:          ({:.1}, {:.1}) .. ({:.1}, {:.1})",
        s.bounds.min.x, s.bounds.min.y, s.bounds.max.x, s.bounds.max.y
    );
    println!("max LOD:         {:.3}", s.e_max);
    Ok(())
}

fn cmd_serve(args: Args) -> Result<(), String> {
    let path = args.positional(0)?;
    // `--world` serves a multi-region world manifest instead of one
    // database: regions open lazily on first touch and are LRU-evicted
    // past --max-open, sharing --page-budget pool pages weighted by
    // region size (never below --region-floor each).
    let world = if args.has("world") {
        let defaults = dm_world::WorldOptions::default();
        let fault_rate: f64 = args.parse_or("fault-rate", 0.0)?;
        let opts = dm_world::WorldOptions {
            max_open: args.parse_or("max-open", defaults.max_open)?,
            page_budget: args.parse_or("page-budget", defaults.page_budget)?,
            region_floor: args.parse_or("region-floor", defaults.region_floor)?,
            threads: args.parse_or("threads", defaults.threads)?,
            degraded: args.has("degraded"),
            fault: if fault_rate > 0.0 {
                let seed: u64 = args.parse_or("fault-seed", 1)?;
                Some(FaultConfig::new(seed).with_read_fail_rate(fault_rate))
            } else {
                None
            },
        };
        Some(
            dm_world::WorldDb::open(std::path::Path::new(path), opts)
                .map_err(|e| format!("{path}: {e}"))?,
        )
    } else {
        None
    };
    let db = if world.is_none() {
        Some(open_db(path, &args)?)
    } else {
        None
    };
    let addr = args.get("addr").unwrap_or("127.0.0.1:0");
    let defaults = dm_server::ServerConfig::default();
    let config = dm_server::ServerConfig {
        workers: args.parse_or("workers", defaults.workers)?,
        max_inflight: args.parse_or("max-inflight", defaults.max_inflight)?,
        // Per-connection byte budget for queued-but-unread responses;
        // a reader that falls further behind is disconnected.
        write_budget: args.parse_or("write-budget", defaults.write_budget)?,
        // How many pipelined requests one connection may have queued
        // before the reactor stops reading from it (backpressure).
        max_pipeline: args.parse_or("max-pipeline", defaults.max_pipeline)?,
        ..defaults
    };
    let server =
        dm_server::Server::bind(addr, config.clone()).map_err(|e| format!("bind {addr}: {e}"))?;
    let bound = server.local_addr().map_err(|e| e.to_string())?;
    match &world {
        Some(w) => println!(
            "serving world {path} on {bound} ({} regions, {} max open, {} workers, {} max in-flight, crc32 {})",
            w.n_regions(),
            w.options().max_open,
            config.workers,
            config.max_inflight,
            dm_storage::checksum::kernel()
        ),
        None => println!(
            "serving {path} on {bound} ({} workers, {} max in-flight, {} max pipeline, {} B write budget, crc32 {})",
            config.workers,
            config.max_inflight,
            config.max_pipeline,
            config.write_budget,
            dm_storage::checksum::kernel()
        ),
    }
    if let Some(pf) = args.get("port-file") {
        std::fs::write(pf, format!("{bound}\n")).map_err(|e| format!("{pf}: {e}"))?;
    }
    let stats = match (&world, &db) {
        (Some(w), _) => server.serve_world(w).map_err(|e| e.to_string())?,
        (None, Some(db)) => server.serve(db).map_err(|e| e.to_string())?,
        (None, None) => unreachable!(),
    };
    let decoded = match (&world, &db) {
        (Some(w), _) => w.decoded_stats(),
        (None, Some(db)) => db.pool().decoded_stats(),
        (None, None) => unreachable!(),
    };
    println!(
        "server drained: {} connections, {} requests, {} errors, {} overloaded, {} slow, {} stalled; pool: {decoded}",
        stats.connections,
        stats.requests,
        stats.errors,
        stats.overloaded,
        stats.slow_disconnects,
        stats.stalled_disconnects
    );
    println!(
        "wire totals: {} B in, {} B out, {} delta frames, {} full frames",
        stats.bytes_in, stats.bytes_out, stats.delta_frames, stats.full_frames
    );
    if let Some(w) = &world {
        let rs = w.region_stats();
        let opens: u64 = rs.iter().map(|r| r.opens).sum();
        let evictions: u64 = rs.iter().map(|r| r.evictions).sum();
        let hits: u64 = rs.iter().map(|r| r.hits).sum();
        let queries: u64 = rs.iter().map(|r| r.queries).sum();
        println!(
            "world totals: {} region opens, {} evictions, {} hits, {} region queries, {} still open",
            opens,
            evictions,
            hits,
            queries,
            rs.iter().filter(|r| r.open).count()
        );
    }
    Ok(())
}

/// Bit-exact comparison of a remote mesh against a locally produced
/// canonical mesh (coordinates compared as bit patterns, so a NaN in the
/// terrain cannot mask a mismatch).
fn mesh_matches(
    label: &str,
    remote: &dm_net::MeshResult,
    local_vertices: &[dm_net::WireVertex],
    local_faces: &[[u32; 3]],
) -> Result<(), String> {
    if remote.vertices.len() != local_vertices.len() {
        return Err(format!(
            "{label}: vertex count differs (remote {} vs local {})",
            remote.vertices.len(),
            local_vertices.len()
        ));
    }
    for (r, l) in remote.vertices.iter().zip(local_vertices) {
        if r.id != l.id
            || r.x.to_bits() != l.x.to_bits()
            || r.y.to_bits() != l.y.to_bits()
            || r.z.to_bits() != l.z.to_bits()
        {
            return Err(format!("{label}: vertex {} differs", l.id));
        }
    }
    if remote.faces != local_faces {
        return Err(format!(
            "{label}: face set differs (remote {} vs local {})",
            remote.faces.len(),
            local_faces.len()
        ));
    }
    Ok(())
}

/// Convert a wire mesh back to a [`TriMesh`] (compact vertex indexing).
fn wire_mesh_to_trimesh(m: &dm_net::MeshResult) -> Result<TriMesh, String> {
    let index: std::collections::HashMap<u32, u32> = m
        .vertices
        .iter()
        .enumerate()
        .map(|(i, v)| (v.id, i as u32))
        .collect();
    let positions: Vec<dm_geom::Vec3> = m
        .vertices
        .iter()
        .map(|v| dm_geom::Vec3::new(v.x, v.y, v.z))
        .collect();
    let tris: Vec<[u32; 3]> = m
        .faces
        .iter()
        .map(|f| {
            let mut out = [0u32; 3];
            for (o, id) in out.iter_mut().zip(f) {
                *o = *index
                    .get(id)
                    .ok_or_else(|| format!("face references unknown vertex {id}"))?;
            }
            Ok(out)
        })
        .collect::<Result<_, String>>()?;
    Ok(TriMesh::from_parts(positions, &tris))
}

fn maybe_export_wire(args: &Args, m: &dm_net::MeshResult) -> Result<(), String> {
    if let Some(out) = args.get("o") {
        let mesh = wire_mesh_to_trimesh(m)?;
        mesh.validate()
            .map_err(|e| format!("received mesh invalid: {e}"))?;
        let mut f = std::fs::File::create(out).map_err(|e| format!("{out}: {e}"))?;
        obj::write_obj(&mesh, &mut f).map_err(|e| format!("{out}: {e}"))?;
        println!("wrote {out}");
    }
    Ok(())
}

/// `remote-query --verify-local <db>`: re-run `queries` on the local
/// store (after one flush when the remote run was `--cold`) and require
/// every remote answer to match its local twin — mesh bit for bit, and
/// the fetched-record count. Returns each local run's disk accesses.
fn verify_local(
    args: &Args,
    db_path: &str,
    label: &str,
    queries: &[(Rect, f64)],
    items: &[dm_net::MeshResult],
) -> Result<Vec<u64>, String> {
    let db = open_db(db_path, args)?;
    if args.has("cold") {
        db.try_cold_start().map_err(|e| e.to_string())?;
    }
    let mut local_disk = Vec::with_capacity(items.len());
    for (i, ((roi, e), item)) in queries.iter().zip(items).enumerate() {
        let reads_before = dm_storage::thread_reads();
        let (res, _report) = db
            .try_vi_query_flat_counted(roi, *e, &mut FetchCounters::default())
            .map_err(|e| e.to_string())?;
        local_disk.push(dm_storage::thread_reads() - reads_before);
        let (lv, lf) = dm_net::canonical_flat(&res.nodes, &res.faces);
        mesh_matches(&format!("{label} {i}"), item, &lv, &lf)?;
        if res.fetched_records as u64 != item.fetched_records {
            return Err(format!(
                "{label} {i}: fetched records differ: remote {} vs local {}",
                item.fetched_records, res.fetched_records
            ));
        }
    }
    Ok(local_disk)
}

fn cmd_remote_query(args: Args) -> Result<(), String> {
    let addr = args.require("addr")?;
    let mut client = dm_net::Client::connect(addr).map_err(|e| format!("{addr}: {e}"))?;
    let keep: f64 = args.parse_or("keep", 0.25)?;
    let (remote_stats, resolved) = client.stats(vec![keep]).map_err(|e| e.to_string())?;
    let e = match args.get("lod") {
        Some(v) => v.parse::<f64>().map_err(|e| format!("bad --lod: {e}"))?,
        None => resolved[0],
    };
    let roi = parse_roi(&args, remote_stats.bounds)?;
    let opts = dm_net::QueryOpts {
        cold: args.has("cold"),
        degraded: args.has("degraded"),
        chunked: args.has("chunked"),
        scope: match args.get("region") {
            Some(v) => dm_net::QueryScope::Region(
                v.parse::<u32>().map_err(|e| format!("bad --region: {e}"))?,
            ),
            None => dm_net::QueryScope::World,
        },
    };
    let threads: u32 = args.parse_or("threads", 1)?;
    let batch: usize = args.parse_or("batch", 0)?;
    let pipeline: usize = args.parse_or("pipeline", 1)?;
    if opts.chunked && (batch > 1 || pipeline > 1) {
        return Err("--chunked applies to single queries, not --batch or --pipeline".to_string());
    }

    if pipeline > 1 {
        // Client-side pipelining: sub-queries stream down one connection
        // with `pipeline` requests in flight (contrast --batch, which
        // sends one request the server fans out across its workers).
        let grid = if batch > 1 { batch } else { 4 };
        let queries: Vec<(Rect, f64)> = roi_grid(&roi, grid).into_iter().map(|r| (r, e)).collect();
        let items = client
            .vi_query_pipelined(opts, &queries, pipeline)
            .map_err(|e| e.to_string())?;
        let points: usize = items.iter().map(|m| m.vertices.len()).sum();
        let triangles: usize = items.iter().map(|m| m.faces.len()).sum();
        let fetched: u64 = items.iter().map(|m| m.fetched_records).sum();
        let disk: u64 = items.iter().map(|m| m.disk_accesses).sum();
        println!(
            "remote pipelined {grid}×{grid} at LOD {e:.4} (window {pipeline}): \
             {points} points, {triangles} triangles, {fetched} records fetched, \
             {disk} disk accesses"
        );
        if let Some(db_path) = args.get("verify-local") {
            verify_local(&args, db_path, "pipelined item", &queries, &items)?;
            println!(
                "remote ≡ local: {} pipelined sub-queries verified",
                items.len()
            );
        }
        return Ok(());
    }

    if batch > 1 {
        let queries: Vec<(Rect, f64)> = roi_grid(&roi, batch).into_iter().map(|r| (r, e)).collect();
        let (total_disk, items) = client
            .batch_query(opts, queries.clone(), threads)
            .map_err(|e| e.to_string())?;
        let points: usize = items.iter().map(|m| m.vertices.len()).sum();
        let triangles: usize = items.iter().map(|m| m.faces.len()).sum();
        let fetched: u64 = items.iter().map(|m| m.fetched_records).sum();
        println!(
            "remote batch {batch}×{batch} at LOD {e:.4} ({threads} server threads): \
             {points} points, {triangles} triangles, {fetched} records fetched, \
             {total_disk} disk accesses"
        );
        if let Some(db_path) = args.get("verify-local") {
            verify_local(&args, db_path, "batch item", &queries, &items)?;
            println!("remote ≡ local: {} sub-queries verified", items.len());
        }
        return Ok(());
    }

    let m = if opts.chunked {
        let (m, fetch) = client
            .vi_query_chunked(opts, roi, e)
            .map_err(|e| e.to_string())?;
        println!(
            "chunked: {} chunks, first triangle after {} of {} B{}",
            fetch.chunks,
            fetch.bytes_to_first_triangle,
            fetch.bytes_received,
            fetch
                .time_to_first_triangle
                .map(|t| format!(" ({} µs)", t.as_micros()))
                .unwrap_or_default()
        );
        m
    } else {
        client.vi_query(opts, roi, e).map_err(|e| e.to_string())?
    };
    if !m.report.is_clean() {
        print_report(&m.report);
    }
    println!(
        "remote LOD {e:.4}: {} points, {} triangles, {} records fetched, {} disk accesses \
         ({} pages scanned, {} records examined)",
        m.vertices.len(),
        m.faces.len(),
        m.fetched_records,
        m.disk_accesses,
        m.counters.pages_scanned,
        m.counters.records_examined
    );
    if let Some(db_path) = args.get("verify-local") {
        let local_disk = verify_local(
            &args,
            db_path,
            "query",
            &[(roi, e)],
            std::slice::from_ref(&m),
        )?[0];
        if opts.cold && local_disk != m.disk_accesses {
            return Err(format!(
                "cold disk accesses differ: remote {} vs local {local_disk}",
                m.disk_accesses
            ));
        }
        println!(
            "remote ≡ local verified ({} vertices, {} faces)",
            m.vertices.len(),
            m.faces.len()
        );
    }
    maybe_export_wire(&args, &m)
}

fn cmd_remote_walkthrough(args: Args) -> Result<(), String> {
    let addr = args.require("addr")?;
    let mut client = dm_net::Client::connect(addr).map_err(|e| format!("{addr}: {e}"))?;
    let frames: usize = args.parse_or("frames", 16)?;
    let window_frac = parse_window(&args)?;
    let near: f64 = args.parse_or("near-keep", 0.4)?;
    let far: f64 = args.parse_or("far-keep", 0.05)?;
    let policy = parse_policy(&args)?;
    let max_cubes: u32 = args.parse_or("max-cubes", 16)?;
    let degraded = args.has("degraded");
    let stream = match args.get("stream").unwrap_or("auto") {
        "delta" => dm_net::StreamMode::Delta,
        "full" => dm_net::StreamMode::Full,
        "auto" => dm_net::StreamMode::Auto,
        other => {
            return Err(format!(
                "bad --stream {other:?}: expected delta, full, or auto"
            ))
        }
    };

    let (remote_stats, resolved) = client.stats(vec![near, far]).map_err(|e| e.to_string())?;
    let e_min = resolved[0];
    let e_far = resolved[1].max(e_min);
    let rois = dm_core::navigation::flight_path(&remote_stats.bounds, window_frac, frames);

    // Optional local shadow session for remote ≡ local verification.
    let local_db = match args.get("verify-local") {
        Some(p) => Some(open_db(p, &args)?),
        None => None,
    };
    let mut local_session = local_db
        .as_ref()
        .map(|db| dm_core::NavigationSession::new(db, policy).with_max_cubes(max_cubes as usize));

    let session = client
        .open_session(policy, max_cubes, false)
        .map_err(|e| e.to_string())?;
    println!(
        "remote walkthrough on {addr}: {} frames, window {:.0}%, policy {policy:?}, \
         stream {stream:?}",
        rois.len(),
        window_frac * 100.0
    );
    println!("frame    disk  fetched  vertices triangles     bytes  frame-kind");
    let mut total_disk = 0u64;
    let mut total_bytes = 0u64;
    let mut delta_frames = 0u64;
    let mut mirror = dm_net::FrontMirror::new();
    for (i, roi) in rois.iter().enumerate() {
        let q = vd_query(*roi, e_min, e_far);
        let (m, info) = client
            .frame_query_streamed(session, q, degraded, stream, &mut mirror)
            .map_err(|e| e.to_string())?;
        if !m.report.is_clean() {
            print_report(&m.report);
        }
        total_disk += m.disk_accesses;
        let frame_bytes = (info.bytes_sent + info.bytes_received) as u64;
        total_bytes += frame_bytes;
        delta_frames += u64::from(info.was_delta);
        println!(
            "{i:>5} {:>7} {:>8} {:>9} {:>9} {frame_bytes:>9}  {}{}",
            m.disk_accesses,
            m.fetched_records,
            m.vertices.len(),
            m.faces.len(),
            if info.was_delta { "delta" } else { "full" },
            if info.resynced { " (resynced)" } else { "" }
        );
        if let Some(nav) = local_session.as_mut() {
            let (stats, _report) = nav.try_move_to(&q).map_err(|e| e.to_string())?;
            let (lv, lf) = dm_net::canonical_mesh(nav.front());
            mesh_matches(&format!("frame {i}"), &m, &lv, &lf)?;
            if stats.fetched_records as u64 != m.fetched_records {
                return Err(format!(
                    "frame {i}: fetched records differ (remote {} vs local {})",
                    m.fetched_records, stats.fetched_records
                ));
            }
        }
    }
    client.close_session(session).map_err(|e| e.to_string())?;
    let n = rois.len().max(1) as f64;
    println!(
        "total {total_disk:>7}  ({:.1} disk accesses/frame, {:.0} B/frame on the wire, \
         {delta_frames}/{} delta frames)",
        total_disk as f64 / n,
        total_bytes as f64 / n,
        rois.len()
    );
    if local_session.is_some() {
        println!(
            "remote ≡ local: all {} frames verified bit-for-bit",
            rois.len()
        );
    }
    Ok(())
}

fn cmd_remote_shutdown(args: Args) -> Result<(), String> {
    let addr = args.require("addr")?;
    let mut client = dm_net::Client::connect(addr).map_err(|e| format!("{addr}: {e}"))?;
    client.shutdown_server().map_err(|e| e.to_string())?;
    println!("server at {addr} acknowledged shutdown");
    Ok(())
}

fn read_heightfield(path: &str) -> Result<Heightfield, String> {
    let f = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
    if path.ends_with(".asc") {
        tio::read_esri_ascii(f).map_err(|e| format!("{path}: {e}"))
    } else {
        tio::read_dmh(f).map_err(|e| format!("{path}: {e}"))
    }
}

fn write_heightfield(hf: &Heightfield, path: &str) -> Result<(), String> {
    let f = std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?;
    if path.ends_with(".asc") {
        tio::write_esri_ascii(hf, f).map_err(|e| format!("{path}: {e}"))
    } else {
        tio::write_dmh(hf, f).map_err(|e| format!("{path}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_walkthrough_refuses_a_window_or_path_without_terrain() {
        let window = |spec: &str| {
            let argv = ["--window".to_string(), spec.to_string()];
            parse_window(&Args::parse_with_flags(&argv, &[]).unwrap())
        };
        for bad in ["0", "-0.5", "nan", "inf"] {
            assert!(window(bad).is_err(), "--window {bad}");
        }
        assert_eq!(window("0.4"), Ok(0.4));
        for bad in ["nan,nan", "1,inf", "0,0;-inf,2"] {
            assert!(parse_waypoints(bad).is_err(), "--waypoints {bad}");
        }
        assert_eq!(
            parse_waypoints("1,2;3.5,4"),
            Ok(vec![Vec2::new(1.0, 2.0), Vec2::new(3.5, 4.0)])
        );
    }

    #[test]
    fn a_pm_cache_must_come_from_the_terrain_it_builds() {
        let hf = generate::fractal_terrain(9, 9, 1);
        let pm = build_pm(TriMesh::from_heightfield(&hf), &PmBuildConfig::default());
        assert_eq!(check_pm_terrain(&pm, &hf), Ok(()));
        let other_heights = generate::fractal_terrain(9, 9, 2);
        assert!(check_pm_terrain(&pm, &other_heights).is_err());
        let other_size = generate::fractal_terrain(9, 10, 1);
        assert!(check_pm_terrain(&pm, &other_size).is_err());
    }
}
