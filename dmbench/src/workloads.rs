//! The five workloads. Each builds its inputs from the seed, sets the
//! stack up from nothing (several times over, to report a steady
//! `setup_s`), warms up, verifies one lap of answers against local
//! reference queries, and then either measures whole laps for
//! `--seconds` (untraced) or replays a sample of laps in-process with a
//! span around every layer (traced).
//!
//! A *lap* is a fixed list of operations derived from the seed. Runs are
//! measured in whole laps, so every per-operation count (bytes, disk
//! accesses) is exactly the same however many laps the box manages.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::gen::{diagonal_tour, stratified_rois, tour, SplitMix64};
use crate::layers::{
    self, Answer, Counts, Host, Lods, Mesh, Session, SessionReplay, Transport, Wire,
};
use crate::layers::{DirectMeshDb, EditOp, LiveDb, MeshResult, Rect, ServerStats, VdQuery};
use crate::stats::{median, quantile, supported_tail, Schedule};
use crate::trace::Tracer;

// ------------------------------------------------------------------ sizing

/// Terrain generator seed: the dataset is the same for every `--seed`;
/// the seed moves the queries.
const TERRAIN_SEED: u64 = 42;
/// Requests a peak-phase connection keeps in flight.
const PEAK_WINDOW: usize = 8;
/// `viewer_load`'s open-loop phase, total requests per second over both
/// connections: roughly 35 % of what one worker sustains.
const PACED_RATE: f64 = 600.0;
/// `edit_beside_read`'s writer, patches per second.
const PATCH_RATE: f64 = 4.0;
/// Operations the traced run replays, at least (whole laps).
const TRACE_SAMPLE_OPS: usize = 200;

/// Everything that scales with the dataset. The full size is what
/// `BENCHMARK.json` runs; `--quick` is a smoke test.
#[derive(Clone, Copy)]
pub struct Sizing {
    /// Terrain grid side (mining fractal, v3 codec, file-backed).
    pub side: usize,
    /// `cold_query` pool: about 11 % of the heap pages.
    pub cold_pool: usize,
    /// Pool that keeps the whole store resident.
    pub warm_pool: usize,
    /// `world_walkthrough` page budget across open regions, about 20 %
    /// of the store.
    pub world_budget: usize,
    /// Times the stack is set up from nothing per run.
    pub setup_reps: usize,
}

pub const FULL: Sizing = Sizing {
    side: 257,
    cold_pool: 128,
    warm_pool: 2048,
    world_budget: 300,
    setup_reps: 5,
};

pub const QUICK: Sizing = Sizing {
    side: 129,
    cold_pool: 32,
    warm_pool: 512,
    world_budget: 200,
    setup_reps: 1,
};

pub struct Cfg {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub sizing: Sizing,
    /// Directory for store files; created and removed by the run.
    pub scratch: PathBuf,
    /// Where the traced run writes its span arena.
    pub trace_out: PathBuf,
}

/// What one run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// FNV-64 over the decoded canonical answers of one verified lap.
    pub digest: u64,
    /// Every metric the run computed, by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Sample sizes and other context for the info line.
    pub notes: BTreeMap<&'static str, f64>,
}

impl Outcome {
    fn set(&mut self, name: &'static str, v: f64) {
        self.metrics.insert(name, v);
    }
}

pub fn run(cfg: &Cfg) -> io::Result<Outcome> {
    std::fs::create_dir_all(&cfg.scratch)?;
    let out = match cfg.workload.as_str() {
        "cold_query" => cold_query(cfg),
        "warm_walkthrough" => warm_walkthrough(cfg),
        "viewer_load" => viewer_load(cfg),
        "world_walkthrough" => world_walkthrough(cfg),
        "edit_beside_read" => edit_beside_read(cfg),
        other => Err(io::Error::other(format!("unknown workload {other}"))),
    };
    let _ = std::fs::remove_dir_all(&cfg.scratch);
    out
}

// ----------------------------------------------------------------- helpers

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(mut h: u64, word: u64) -> u64 {
    for b in word.to_le_bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-64 over a canonical mesh: vertex ids and coordinate bits, then
/// face corner ids, in order.
fn mesh_digest(vertices: &[layers::WireVertex], faces: &[[u32; 3]]) -> u64 {
    let mut h = fnv(FNV_OFFSET, vertices.len() as u64);
    for v in vertices {
        h = fnv(h, u64::from(v.id));
        h = fnv(h, v.x.to_bits());
        h = fnv(h, v.y.to_bits());
        h = fnv(h, v.z.to_bits());
    }
    for f in faces {
        h = fnv(
            h,
            (u64::from(f[0]) << 42) ^ (u64::from(f[1]) << 21) ^ u64::from(f[2]),
        );
    }
    h
}

fn fold_digests(ds: impl IntoIterator<Item = u64>) -> u64 {
    ds.into_iter().fold(FNV_OFFSET, fnv)
}

fn same_mesh(m: &MeshResult, reference: &Mesh) -> bool {
    m.vertices == reference.0 && m.faces == reference.1
}

/// A `Vm*` line of this process's status, in MB.
fn status_mb(key: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(key))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Set-up stage times of one repetition, seconds by stage name.
type Stages = BTreeMap<&'static str, f64>;

fn timed<R>(stages: &mut Stages, name: &'static str, f: impl FnOnce() -> R) -> R {
    let t0 = Instant::now();
    let r = f();
    *stages.entry(name).or_insert(0.0) += secs(t0.elapsed());
    r
}

/// Generate the terrain, simplify it and write the store file.
fn build_base(cfg: &Cfg, dir: &Path, stages: &mut Stages) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let hf = timed(stages, "terrain.generate_s", || {
        layers::generate_terrain(cfg.sizing.side, TERRAIN_SEED)
    });
    let pm = timed(stages, "mtm.build_pm_s", || layers::build_pm(&hf));
    let path = dir.join("terrain.dmdb");
    timed(stages, "core.build_store_s", || {
        layers::build_store(&path, &pm)
    })?;
    Ok(path)
}

/// Run `rep` once per set-up repetition, each in a fresh directory. A
/// repetition sets the stack up, warms it and reports how long that
/// took; the last one also does the run's actual work and returns its
/// outcome. `setup_s` is the lower quartile over the repetitions (the
/// same noise-shedding rule as `across_blocks`), the set-up stage
/// metrics come from the last.
fn with_setups(
    cfg: &Cfg,
    mut rep: impl FnMut(&Path, &mut Stages, bool) -> Rep,
) -> io::Result<Outcome> {
    let reps = if cfg.trace { 1 } else { cfg.sizing.setup_reps };
    let mut setups = Vec::new();
    let mut last = None;
    for i in 0..reps {
        let dir = cfg.scratch.join(format!("setup{i}"));
        let mut stages = Stages::new();
        let (setup_s, out) = rep(&dir, &mut stages, i + 1 == reps)?;
        std::fs::remove_dir_all(&dir)?;
        setups.push(setup_s);
        if let Some(mut o) = out {
            for (k, v) in stages {
                o.set(k, v);
            }
            last = Some(o);
        }
    }
    let mut out = last.ok_or_else(|| io::Error::other("no set-up repetition produced a result"))?;
    out.notes.insert("setup_reps", reps as f64);
    out.set("setup_s", across_blocks(&mut setups));
    out.set("peak_rss_mb", status_mb("VmHWM:"));
    Ok(out)
}

/// What one set-up repetition hands back: how long set-up took and, on
/// the last repetition, the run's outcome.
type Rep = io::Result<(f64, Option<Outcome>)>;

/// The serving part of a repetition: `body` runs against a live server
/// and gets its address; the server's drain counters join the outcome.
fn serve_rep(host: Host<'_>, body: impl FnOnce(&str) -> Rep) -> Rep {
    let (res, stats) = layers::serve(host, body)?;
    let (setup_s, mut out) = res?;
    if let Some(o) = out.as_mut() {
        set_server_stats(o, &stats);
    }
    Ok((setup_s, out))
}

/// Operations per block of the timing summary: enough for a p95 with
/// ten samples beyond it.
const BLOCK_OPS: usize = 200;

/// The figure reported for a per-block statistic: the lower quartile
/// over the blocks. The box this runs on drifts by several percent over
/// seconds; interference only ever adds time, so the quieter blocks are
/// the better estimate of what the code costs, and the lower quartile
/// repeats from run to run where the median does not.
fn across_blocks(xs: &mut [f64]) -> f64 {
    quantile(xs, 0.25)
}

/// Whole laps per timing block.
fn block_ops(ops_per_lap: usize) -> usize {
    BLOCK_OPS.div_ceil(ops_per_lap) * ops_per_lap
}

/// Timing summary of a sample, after `across_blocks`.
struct Summary {
    p50_ms: f64,
    p95_ms: f64,
    ttft_p50_ms: f64,
    /// Mean seconds per operation: closed-loop throughput, inverted.
    per_op_s: f64,
    samples: usize,
    blocks: usize,
}

/// Summarise a timed sample of `(latency, ttft)` seconds in time order.
/// The sample is cut into blocks of `block` operations (whole laps, at
/// least `BLOCK_OPS`); each block gives a median, a p95 and a mean; the
/// figures reported are `across_blocks` of those.
fn summarize(samples: &[(f64, f64)], block: usize) -> Summary {
    let (mut p50, mut p95, mut ttft, mut mean) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    // A trailing partial block joins the one before it.
    let blocks = (samples.len() / block).max(1);
    for b in 0..blocks {
        let end = if b + 1 == blocks {
            samples.len()
        } else {
            (b + 1) * block
        };
        let chunk = &samples[b * block..end];
        let mut ms: Vec<f64> = chunk.iter().map(|s| s.0 * 1e3).collect();
        p50.push(median(&mut ms));
        p95.push(quantile(&mut ms, 0.95));
        let mut t: Vec<f64> = chunk.iter().map(|s| s.1 * 1e3).collect();
        ttft.push(median(&mut t));
        mean.push(chunk.iter().map(|s| s.0).sum::<f64>() / chunk.len() as f64);
    }
    Summary {
        p50_ms: across_blocks(&mut p50),
        p95_ms: across_blocks(&mut p95),
        ttft_p50_ms: across_blocks(&mut ttft),
        per_op_s: across_blocks(&mut mean),
        samples: samples.len(),
        blocks,
    }
}

/// Record the latency figures of one or more summaries (connections
/// that ran side by side): their mean.
fn set_latency(out: &mut Outcome, parts: &[Summary]) {
    let n = parts.len() as f64;
    out.set(
        "latency_p50_ms",
        parts.iter().map(|p| p.p50_ms).sum::<f64>() / n,
    );
    out.set(
        "latency_p95_ms",
        parts.iter().map(|p| p.p95_ms).sum::<f64>() / n,
    );
    out.set(
        "ttft_p50_ms",
        parts.iter().map(|p| p.ttft_p50_ms).sum::<f64>() / n,
    );
    let samples: usize = parts.iter().map(|p| p.samples).sum();
    let blocks: usize = parts.iter().map(|p| p.blocks).sum();
    out.notes.insert("latency_samples", samples as f64);
    out.notes.insert("latency_blocks", blocks as f64);
    out.notes.insert(
        "supported_tail_pct",
        supported_tail(samples / blocks).unwrap_or(0.0),
    );
}

fn set_store_bytes(out: &mut Outcome, store: &Path, n_records: usize) {
    out.set(
        "store_bytes_per_record",
        layers::store_file_bytes(store) as f64 / n_records as f64,
    );
}

fn set_server_stats(out: &mut Outcome, s: &ServerStats) {
    out.set("server.requests", s.requests as f64);
    out.set("server.overloaded", s.overloaded as f64);
    out.set("server.errors", s.errors as f64);
    out.set("server.slow_disconnects", s.slow_disconnects as f64);
    out.set(
        "server.bytes_out_per_op",
        s.bytes_out as f64 / s.requests.max(1) as f64,
    );
    out.set("server.delta_frames", s.delta_frames as f64);
    out.set("server.full_frames", s.full_frames as f64);
}

/// What is kept of one operation: its `Answer` with the mesh reduced
/// to a digest.
#[derive(Clone, Copy)]
struct OpSample {
    latency_s: f64,
    ttft_s: f64,
    bytes: usize,
    first_bytes: usize,
    disk: u64,
    digest: u64,
    resynced: bool,
}

impl From<Answer> for OpSample {
    fn from(a: Answer) -> OpSample {
        OpSample {
            latency_s: secs(a.latency),
            ttft_s: secs(a.ttft),
            bytes: a.bytes,
            first_bytes: a.first_bytes,
            disk: a.mesh.disk_accesses,
            digest: mesh_digest(&a.mesh.vertices, &a.mesh.faces),
            // A resynced frame is still the right answer, and its extra
            // round trip is in the latency and the bytes: reported, not
            // counted as a failure.
            resynced: a.resynced,
        }
    }
}

/// Fold the wire-side counts of whole laps into the outcome.
fn set_wire_counts(out: &mut Outcome, samples: &[OpSample]) {
    let n = samples.len().max(1) as f64;
    out.set(
        "wire_bytes_per_op",
        samples.iter().map(|s| s.bytes).sum::<usize>() as f64 / n,
    );
    out.set(
        "disk_accesses_per_op",
        samples.iter().map(|s| s.disk).sum::<u64>() as f64 / n,
    );
    out.notes.insert(
        "resyncs_per_lap",
        samples.iter().filter(|s| s.resynced).count() as f64,
    );
}

/// Measure whole laps until `seconds` have passed. `lap` runs one lap
/// and returns its samples; laps whose answers differ from the verified
/// reference count their differing operations as failures.
fn measure_laps(
    seconds: f64,
    reference: &[u64],
    mut lap: impl FnMut() -> io::Result<Vec<OpSample>>,
) -> io::Result<(Vec<Vec<OpSample>>, u64)> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut laps = Vec::new();
    let mut failed = 0u64;
    while laps.is_empty() || Instant::now() < deadline {
        let samples = lap()?;
        for (i, (s, r)) in samples.iter().zip(reference).enumerate() {
            if s.digest != *r {
                eprintln!(
                    "lap {} op {i}: answer {:016x} differs from the verified lap's {r:016x}",
                    laps.len(),
                    s.digest
                );
                failed += 1;
            }
        }
        laps.push(samples);
    }
    Ok((laps, failed))
}

/// End-to-end figures of a closed-loop, one-connection workload.
fn set_closed_loop(out: &mut Outcome, laps: &[Vec<OpSample>]) {
    let samples: Vec<(f64, f64)> = laps
        .iter()
        .flatten()
        .map(|s| (s.latency_s, s.ttft_s))
        .collect();
    let summary = summarize(&samples, block_ops(laps[0].len()));
    out.set("ops_per_s", 1.0 / summary.per_op_s);
    set_latency(out, &[summary]);
    out.attempted = samples.len() as u64;
    out.notes.insert("laps", laps.len() as f64);
    // Counts repeat exactly lap after lap; one lap states them.
    set_wire_counts(out, &laps[0]);
}

/// Per-layer metrics from the span arena and boundary counts of a
/// replayed sample of `ops` operations.
fn set_layer_metrics(out: &mut Outcome, t: &Tracer, c: &Counts, ops: usize) {
    let totals = t.totals();
    let ops = ops.max(1) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    // Mean self time, µs, per operation that entered the layer.
    let us = |name: &str| {
        totals
            .get(name)
            .map_or(0.0, |n| ratio(n.self_ns as f64 / 1e3, n.ops as f64))
    };
    let ns = |name: &str| totals.get(name).map_or(0.0, |n| n.total_ns as f64);
    let count = |name: &str| totals.get(name).map_or(0.0, |n| n.count as f64);

    out.set("index.descent_us", us("index.descent"));
    out.set(
        "index.node_reads_per_op",
        ratio(c.get("index_node_reads"), c.get("index_ops")),
    );
    out.set(
        "index.candidates_per_op",
        ratio(c.get("index_candidates"), c.get("index_ops")),
    );
    out.set("storage.page_reads_per_op", c.get("page_reads") / ops);
    let candidates = c.get("index_candidates");
    out.set(
        "storage.heap_miss_share",
        if candidates > 0.0 {
            1.0 - c.get("heap_resident") / candidates
        } else {
            0.0
        },
    );
    out.set(
        "storage.fetch_us_per_miss",
        ratio(c.get("miss_ns") / 1e3, c.get("page_misses")),
    );
    out.set(
        "storage.fetch_us_per_hit",
        ratio(c.get("hit_ns") / 1e3, c.get("page_hits")),
    );
    out.set("storage.retries", c.get("retries"));

    let patches = c.get("patches");
    out.set(
        "storage.pages_rewritten_per_patch",
        ratio(c.get("pages_rewritten"), patches),
    );
    out.set(
        "storage.wal_bytes_per_patch",
        ratio(c.get("wal_bytes"), patches),
    );
    out.set(
        "storage.store_growth_pages_per_patch",
        ratio(c.get("store_growth_pages"), patches),
    );
    out.set(
        "storage.page_writes_per_patch",
        ratio(c.get("page_writes"), patches),
    );

    out.set("core.decode_us", us("core.decode"));
    out.set("core.pages_scanned_per_op", c.get("pages_scanned") / ops);
    out.set(
        "core.records_examined_per_op",
        c.get("records_examined") / ops,
    );
    out.set(
        "core.records_decoded_per_op",
        c.get("records_decoded") / ops,
    );
    out.set(
        "core.examined_per_kept",
        ratio(c.get("records_examined"), c.get("records_decoded")),
    );
    out.set("core.assemble_us", us("core.assemble"));

    let frames = c.get("frames");
    out.set("core.frame_us", us("core.frame"));
    out.set("core.plan_us", us("core.plan"));
    out.set("core.plan_full_share", ratio(c.get("plan_full"), frames));
    out.set(
        "core.seeds_spliced_per_frame",
        ratio(c.get("seeds_spliced"), frames),
    );
    out.set("core.vd_us", us("core.vd"));

    out.set("core.patch_us", us("core.patch"));
    out.set(
        "core.records_updated_per_patch",
        ratio(c.get("records_updated"), patches),
    );
    out.set("core.snapshot_us", us("core.snapshot"));

    out.set("mtm.refine_splits_per_op", c.get("refine_splits") / ops);
    out.set("mtm.refine_blocked_per_op", c.get("refine_blocked") / ops);
    out.set("mtm.front_vertices_per_op", c.get("front_vertices") / ops);

    out.set("net.canonical_us", us("net.canonical"));
    out.set("net.encode_us", us("net.encode"));
    out.set(
        "net.encode_ns_per_byte",
        ratio(ns("net.encode"), c.get("mesh_bytes")),
    );
    out.set("net.mesh_bytes_per_op", c.get("mesh_bytes") / ops);
    out.set("net.diff_us", us("net.diff"));
    out.set(
        "net.delta_bytes_per_frame",
        ratio(c.get("delta_bytes"), c.get("delta_frames")),
    );
    out.set(
        "net.delta_frame_share",
        ratio(c.get("delta_frames"), frames),
    );
    out.set("net.chunk_us", us("net.chunk"));
    out.set(
        "net.chunks_per_op",
        ratio(c.get("chunks"), count("net.chunk")),
    );
    out.set(
        "net.frame_crc_ns_per_byte",
        ratio(ns("net.frame_crc"), c.get("frame_bytes")),
    );
    out.set("net.decode_us", us("net.decode"));
    out.set("net.mirror_apply_us", us("net.mirror_apply"));
    out.set("net.chunk_assemble_us", us("net.chunk_assemble"));

    out.set("world.route_us", us("world.route"));
    out.set(
        "world.regions_per_op",
        ratio(c.get("regions"), c.get("route_ops")),
    );
    out.set("world.open_us", us("world.open"));
    out.set(
        "world.vi_overhead_ratio",
        ratio(c.get("world_vi_ns"), c.get("unsplit_vi_ns")),
    );
}

/// Replay a sample in-process twice. Spans off: the calls the server's
/// worker and the client make, nothing else — the time the served path
/// would take with no server in it. Spans on: the same operations taken
/// apart layer by layer, for the per-layer metrics. `replay` runs the
/// whole sample against the tracer it is given and returns the wall
/// time of every operation.
fn traced_sample(
    cfg: &Cfg,
    out: &mut Outcome,
    rtt_s: &[f64],
    mut replay: impl FnMut(&mut Tracer, &mut Counts) -> io::Result<Vec<f64>>,
) -> io::Result<()> {
    // The untraced pass runs on both sides of the traced one, so that
    // neither profits from caches the other warmed.
    let exec_s = replay(&mut Tracer::new(false), &mut Counts::default())?;
    let mut tracer = Tracer::new(true);
    let mut counts = Counts::default();
    let traced_s = replay(&mut tracer, &mut counts)?;
    let again_s = replay(&mut Tracer::new(false), &mut Counts::default())?;
    set_layer_metrics(out, &tracer, &counts, traced_s.len());
    let plain = (exec_s.iter().sum::<f64>() + again_s.iter().sum::<f64>()) / 2.0;
    let traced: f64 = traced_s.iter().sum();
    out.set(
        "bench.trace_overhead_ratio",
        if plain > 0.0 { traced / plain } else { 0.0 },
    );
    // What serving adds to executing, encoding and decoding the same
    // operation in-process: queue wait, reactor, sockets.
    let mut extra: Vec<f64> = rtt_s
        .iter()
        .zip(exec_s.iter().zip(&again_s))
        .map(|(r, (a, b))| (r - a.min(*b)) * 1e6)
        .collect();
    out.set("server.rtt_minus_exec_us", median(&mut extra));
    out.notes.insert("traced_ops", traced_s.len() as f64);
    out.notes.insert("spans", tracer.spans().len() as f64);
    out.notes.insert("resyncs_replayed", counts.get("resyncs"));
    write_trace(cfg, &tracer)
}

fn write_trace(cfg: &Cfg, tracer: &Tracer) -> io::Result<()> {
    if let Some(dir) = cfg.trace_out.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(&cfg.trace_out, tracer.to_json())
}

/// The traced run's wire sample: `laps` whole laps over the served
/// path, for the RTTs and the per-operation counts.
fn wire_sample(
    out: &mut Outcome,
    laps: usize,
    mut lap: impl FnMut() -> io::Result<Vec<OpSample>>,
) -> io::Result<Vec<OpSample>> {
    let mut sampled = Vec::new();
    for _ in 0..laps {
        sampled.extend(lap()?);
    }
    out.attempted = sampled.len() as u64;
    set_wire_counts(out, &sampled[..sampled.len() / laps]);
    Ok(sampled)
}

/// Replay `laps` laps of `ops` in-process. `one` replays one operation
/// and says how long the replay proper took (what it does before and
/// after — a flush, a reference query — is not the operation's time);
/// every replayed answer must be the verified lap's.
fn replay_laps<O>(
    t: &mut Tracer,
    laps: usize,
    ops: &[O],
    reference: &[u64],
    mut one: impl FnMut(&mut Tracer, &O) -> io::Result<(MeshResult, Duration)>,
) -> io::Result<Vec<f64>> {
    let mut exec = Vec::new();
    for lap in 0..laps {
        for (i, op) in ops.iter().enumerate() {
            t.begin_op((lap * ops.len() + i) as u32);
            let (m, took) = one(t, op)?;
            exec.push(secs(took));
            if mesh_digest(&m.vertices, &m.faces) != reference[i] {
                return Err(io::Error::other(format!(
                    "replayed operation {i} diverged from the verified lap"
                )));
            }
        }
    }
    Ok(exec)
}

/// Time `f`.
fn clocked<R>(f: impl FnOnce() -> io::Result<R>) -> io::Result<(R, Duration)> {
    let t0 = Instant::now();
    let r = f()?;
    Ok((r, t0.elapsed()))
}

/// How many whole laps of `ops_per_lap` the traced run samples.
fn trace_laps(ops_per_lap: usize) -> usize {
    TRACE_SAMPLE_OPS.div_ceil(ops_per_lap)
}

// -------------------------------------------------------------- cold_query

enum ColdOp {
    Vi(Rect, f64),
    Vd(VdQuery),
}

/// 16 strata, each queried once viewpoint-independently (keep cycling
/// 0.35 / 0.10 / 0.02) and twice viewpoint-dependently (looking north,
/// looking east), interleaved. Two VD per VI puts the median operation
/// inside the VD population instead of in the gap between the two,
/// where it would jump about from seed to seed.
fn cold_ops(bounds: &Rect, lods: &Lods, seed: u64) -> Vec<ColdOp> {
    let mut rng = SplitMix64::new(seed);
    let vi = stratified_rois(bounds, 0.05, 4, &mut rng);
    let north = stratified_rois(bounds, 0.05, 4, &mut rng);
    let east = stratified_rois(bounds, 0.05, 4, &mut rng);
    (0..vi.len())
        .flat_map(|i| {
            [
                ColdOp::Vi(vi[i], lods.vi_cycle[i % 3]),
                ColdOp::Vd(layers::vd_query(north[i], lods, false)),
                ColdOp::Vd(layers::vd_query(east[i], lods, true)),
            ]
        })
        .collect()
}

fn cold_lap(wire: &mut Wire, db: &DirectMeshDb, ops: &[ColdOp]) -> io::Result<Vec<OpSample>> {
    ops.iter()
        .map(|op| {
            // The paper's protocol: empty pool before every query. Done
            // here, between serial requests, outside the timed span.
            layers::cold_start(db)?;
            let mut s: OpSample = match op {
                ColdOp::Vi(roi, e) => wire.vi_chunked(*roi, *e),
                ColdOp::Vd(q) => wire.vd_chunked(*q),
            }?
            .into();
            // The pool saw this request and nothing else since the
            // flush: its count must be the response's.
            if layers::pool_reads(db) != s.disk {
                s.digest = 0;
            }
            Ok(s)
        })
        .collect()
}

fn cold_query(cfg: &Cfg) -> io::Result<Outcome> {
    with_setups(cfg, |dir, stages, last| {
        let t0 = Instant::now();
        let store = build_base(cfg, dir, stages)?;
        let db = timed(stages, "core.open_s", || {
            layers::open_store(&store, cfg.sizing.cold_pool)
        })?;
        let lods = layers::resolve_lods(&db);
        let (bounds, n_records) = layers::store_shape(&db);
        let ops = cold_ops(&bounds, &lods, cfg.seed);
        serve_rep(Host::Single(&db), |addr| {
            let mut wire = Wire::connect(addr)?;
            cold_lap(&mut wire, &db, &ops)?;
            let setup_s = secs(t0.elapsed());
            if !last {
                return Ok((setup_s, None));
            }
            let mut out = Outcome::default();

            // Verified lap: remote ≡ local, op by op.
            let verified = cold_lap(&mut wire, &db, &ops)?;
            let mut reference = Vec::new();
            for (op, s) in ops.iter().zip(&verified) {
                let local = match op {
                    ColdOp::Vi(roi, e) => layers::local_vi(&db, roi, *e)?,
                    ColdOp::Vd(q) => layers::local_vd(&db, q)?,
                };
                let ok = s.digest == mesh_digest(&local.0, &local.1);
                out.failed += u64::from(!ok);
                reference.push(s.digest);
            }
            out.digest = fold_digests(reference.iter().copied());

            if cfg.trace {
                let laps = trace_laps(ops.len());
                let sampled = wire_sample(&mut out, laps, || cold_lap(&mut wire, &db, &ops))?;
                out.set(
                    "bytes_to_first_triangle",
                    sampled.iter().map(|s| s.first_bytes).sum::<usize>() as f64
                        / sampled.len() as f64,
                );
                let rtt: Vec<f64> = sampled.iter().map(|s| s.latency_s).collect();
                traced_sample(cfg, &mut out, &rtt, |t, c| {
                    replay_laps(t, laps, &ops, &reference, |t, op| {
                        layers::cold_start(&db)?;
                        clocked(|| match op {
                            ColdOp::Vi(roi, e) => {
                                layers::replay_vi(t, c, &db, roi, *e, Transport::Chunked)
                            }
                            ColdOp::Vd(q) => layers::replay_vd(t, c, &db, q),
                        })
                    })
                })?;
            } else {
                let (laps, failed) =
                    measure_laps(cfg.seconds, &reference, || cold_lap(&mut wire, &db, &ops))?;
                out.failed += failed;
                set_closed_loop(&mut out, &laps);
                set_store_bytes(&mut out, &store, n_records);
            }
            Ok((setup_s, Some(out)))
        })
    })
}

// -------------------------------------------------------- warm_walkthrough

/// One lap of a streamed session, every frame into the mirror.
fn session_lap(
    wire: &mut Wire,
    session: &mut Session,
    frames: &[VdQuery],
) -> io::Result<Vec<OpSample>> {
    frames
        .iter()
        .map(|q| Ok(wire.frame(session, *q)?.into()))
        .collect()
}

fn warm_walkthrough(cfg: &Cfg) -> io::Result<Outcome> {
    with_setups(cfg, |dir, stages, last| {
        let t0 = Instant::now();
        let store = build_base(cfg, dir, stages)?;
        let db = timed(stages, "core.open_s", || {
            layers::open_store(&store, cfg.sizing.warm_pool)
        })?;
        let lods = layers::resolve_lods(&db);
        let (bounds, n_records) = layers::store_shape(&db);
        let frames: Vec<VdQuery> = tour(&bounds, 0.35, 32, &mut SplitMix64::new(cfg.seed))
            .into_iter()
            .map(|roi| layers::vd_query(roi, &lods, false))
            .collect();
        serve_rep(Host::Single(&db), |addr| {
            let mut wire = Wire::connect(addr)?;
            let mut session = wire.open_session(layers::SESSION_POLICY)?;
            session_lap(&mut wire, &mut session, &frames)?;
            let setup_s = secs(t0.elapsed());
            if !last {
                return Ok((setup_s, None));
            }
            let mut out = Outcome::default();

            // Verified lap: every frame the mirror reconstructs ≡ the
            // frame a local shadow session computes. The shadow flies
            // the warm-up lap first: a session's answer can depend on
            // the frames before it, so it is given the same past.
            let verified = session_lap(&mut wire, &mut session, &frames)?;
            let mut shadow = layers::Shadow::new(&db);
            for q in &frames {
                shadow.frame(q)?;
            }
            let mut reference = Vec::new();
            for (q, s) in frames.iter().zip(&verified) {
                let local = shadow.frame(q)?;
                out.failed += u64::from(s.digest != mesh_digest(&local.0, &local.1));
                reference.push(s.digest);
            }
            out.digest = fold_digests(reference.iter().copied());

            if cfg.trace {
                let laps = trace_laps(frames.len());
                let sampled = wire_sample(&mut out, laps, || {
                    session_lap(&mut wire, &mut session, &frames)
                })?;
                let rtt: Vec<f64> = sampled.iter().map(|s| s.latency_s).collect();
                traced_sample(cfg, &mut out, &rtt, |t, c| {
                    // Like the served session, the replayed one is warm:
                    // one lap flown before the sample starts.
                    let mut replay = SessionReplay::single(&db);
                    let mut quiet = Tracer::new(false);
                    for q in &frames {
                        replay.frame(&mut quiet, &mut Counts::default(), q)?;
                    }
                    replay_laps(t, laps, &frames, &reference, |t, q| {
                        clocked(|| replay.frame(t, c, q))
                    })
                })?;
            } else {
                let (laps, failed) = measure_laps(cfg.seconds, &reference, || {
                    session_lap(&mut wire, &mut session, &frames)
                })?;
                out.failed += failed;
                set_closed_loop(&mut out, &laps);
                set_store_bytes(&mut out, &store, n_records);
            }
            wire.close_session(session)?;
            Ok((setup_s, Some(out)))
        })
    })
}

// -------------------------------------------------------------- viewer_load

/// One connection's requests: 64 stratified ROIs at keep 0.25.
fn load_queries(bounds: &Rect, lods: &Lods, seed: u64, conn: u64) -> Vec<(Rect, f64)> {
    let mut rng = SplitMix64::new(seed ^ (0xC0FF_EE00 + conn));
    stratified_rois(bounds, 0.05, 8, &mut rng)
        .into_iter()
        .map(|roi| (roi, lods.vi_quarter))
        .collect()
}

/// What one connection's thread brings back from a phase.
struct PhaseResult {
    /// Per request (viewer, paced) or per lap (peak), seconds.
    times_s: Vec<f64>,
    /// Paced phase: how late the generator got to each request.
    lateness_s: Vec<f64>,
    failed: u64,
}

/// Run `phase` on both connections at once, a thread each.
fn both<'a>(
    wires: &'a mut [Wire; 2],
    queries: &'a [Vec<(Rect, f64)>; 2],
    reference: &'a [Vec<u64>; 2],
    phase: impl Fn(usize, &mut Wire, &[(Rect, f64)], &[u64]) -> io::Result<PhaseResult> + Sync,
) -> io::Result<Vec<PhaseResult>> {
    std::thread::scope(|s| {
        let phase = &phase;
        let handles: Vec<_> = wires
            .iter_mut()
            .zip(queries)
            .zip(reference)
            .enumerate()
            .map(|(i, ((w, q), r))| s.spawn(move || phase(i, w, q, r)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// Closed loop, one request outstanding, zero think: a viewer that asks
/// for the next mesh the moment it has the last.
fn viewer_phase(
    wire: &mut Wire,
    queries: &[(Rect, f64)],
    reference: &[u64],
    end: Instant,
) -> io::Result<PhaseResult> {
    let mut r = PhaseResult {
        times_s: Vec::new(),
        lateness_s: Vec::new(),
        failed: 0,
    };
    // Whole laps, like every other workload.
    while r.times_s.is_empty() || Instant::now() < end {
        for (&(roi, e), d) in queries.iter().zip(reference) {
            let a = wire.vi(roi, e)?;
            r.times_s.push(secs(a.latency));
            r.failed += u64::from(mesh_digest(&a.mesh.vertices, &a.mesh.faces) != *d);
        }
    }
    Ok(r)
}

/// Open loop: request `i` goes out when the schedule says so, and its
/// latency runs from that due time, so time spent waiting behind a slow
/// predecessor counts.
fn paced_phase(
    wire: &mut Wire,
    queries: &[(Rect, f64)],
    reference: &[u64],
    schedule: &Schedule,
    end: Instant,
) -> io::Result<PhaseResult> {
    let mut r = PhaseResult {
        times_s: Vec::new(),
        lateness_s: Vec::new(),
        failed: 0,
    };
    for i in 0u64.. {
        if schedule.due(i) >= end {
            break;
        }
        let (due, late) = schedule.wait(i);
        let k = i as usize % queries.len();
        let (roi, e) = queries[k];
        let m = wire.vi(roi, e)?.mesh;
        r.times_s.push(secs(due.elapsed()));
        r.lateness_s.push(secs(late));
        r.failed += u64::from(mesh_digest(&m.vertices, &m.faces) != reference[k]);
    }
    Ok(r)
}

/// Closed loop, zero think: whole laps with `PEAK_WINDOW` in flight.
fn peak_phase(
    wire: &mut Wire,
    queries: &[(Rect, f64)],
    reference: &[u64],
    end: Instant,
) -> io::Result<PhaseResult> {
    let mut r = PhaseResult {
        times_s: Vec::new(),
        lateness_s: Vec::new(),
        failed: 0,
    };
    while r.times_s.is_empty() || Instant::now() < end {
        let t0 = Instant::now();
        let meshes = wire.vi_pipelined(queries, PEAK_WINDOW)?;
        r.times_s.push(secs(t0.elapsed()));
        r.failed += meshes
            .iter()
            .zip(reference)
            .filter(|(m, d)| mesh_digest(&m.vertices, &m.faces) != **d)
            .count() as u64;
    }
    Ok(r)
}

fn viewer_load(cfg: &Cfg) -> io::Result<Outcome> {
    with_setups(cfg, |dir, stages, last| {
        let t0 = Instant::now();
        let store = build_base(cfg, dir, stages)?;
        let db = timed(stages, "core.open_s", || {
            layers::open_store(&store, cfg.sizing.warm_pool)
        })?;
        let lods = layers::resolve_lods(&db);
        let (bounds, n_records) = layers::store_shape(&db);
        let queries = [0, 1].map(|c| load_queries(&bounds, &lods, cfg.seed, c));
        serve_rep(Host::Single(&db), |addr| {
            let mut wires = [Wire::connect(addr)?, Wire::connect(addr)?];
            for (w, q) in wires.iter_mut().zip(&queries) {
                w.vi_pipelined(q, PEAK_WINDOW)?;
            }
            let setup_s = secs(t0.elapsed());
            if !last {
                return Ok((setup_s, None));
            }
            let mut out = Outcome::default();

            // Verified lap: remote ≡ local, serially, per connection.
            let mut reference = [Vec::new(), Vec::new()];
            let mut wire_lap = Vec::new();
            for ((w, qs), refs) in wires.iter_mut().zip(&queries).zip(&mut reference) {
                for &(roi, e) in qs {
                    let a = w.vi(roi, e)?;
                    let local = layers::local_vi(&db, &roi, e)?;
                    out.failed += u64::from(!same_mesh(&a.mesh, &local));
                    let s = OpSample::from(a);
                    refs.push(s.digest);
                    wire_lap.push(s);
                }
            }
            out.digest = fold_digests(reference.iter().flatten().copied());
            set_wire_counts(&mut out, &wire_lap);

            if cfg.trace {
                // Open loop at a fixed rate, for a few seconds: latency
                // from the due time, and how late the generator ran. The
                // second connection sends half a period after the first.
                let start = Instant::now() + Duration::from_millis(20);
                let end = start + Duration::from_secs_f64(cfg.seconds.min(3.0));
                let per_conn = PACED_RATE / 2.0;
                let paced = both(&mut wires, &queries, &reference, |i, w, q, r| {
                    let offset = Duration::from_secs_f64(i as f64 * 0.5 / per_conn);
                    paced_phase(w, q, r, &Schedule::new(start + offset, per_conn), end)
                })?;
                let mut latency_us: Vec<f64> = paced
                    .iter()
                    .flat_map(|p| p.times_s.iter().map(|s| s * 1e6))
                    .collect();
                let mut lateness_us: Vec<f64> = paced
                    .iter()
                    .flat_map(|p| p.lateness_s.iter().map(|s| s * 1e6))
                    .collect();
                out.failed += paced.iter().map(|p| p.failed).sum::<u64>();
                out.attempted = latency_us.len() as u64;
                out.set("server.paced_latency_p50_us", median(&mut latency_us));
                out.set(
                    "server.paced_latency_p95_us",
                    quantile(&mut latency_us, 0.95),
                );
                out.set(
                    "bench.generator_lateness_p95_us",
                    quantile(&mut lateness_us, 0.95),
                );

                let ops: Vec<(Rect, f64)> = queries.iter().flatten().copied().collect();
                let flat_reference: Vec<u64> = reference.iter().flatten().copied().collect();
                let laps = trace_laps(ops.len());
                let rtt: Vec<f64> = (0..laps)
                    .flat_map(|_| wire_lap.iter().map(|s| s.latency_s))
                    .collect();
                traced_sample(cfg, &mut out, &rtt, |t, c| {
                    replay_laps(t, laps, &ops, &flat_reference, |t, (roi, e)| {
                        clocked(|| layers::replay_vi(t, c, &db, roi, *e, Transport::Mesh))
                    })
                })?;
            } else {
                // Half the window as two viewers, for latency; half at
                // saturation, for throughput. Both keep the box busy: an
                // open-loop phase at a modest rate lets the cores idle
                // between requests, and on this sandbox what follows an
                // idle spell runs 10–20 % slower or faster from one run
                // to the next.
                let half = Duration::from_secs_f64(cfg.seconds / 2.0);
                let end = Instant::now() + half;
                let viewers = both(&mut wires, &queries, &reference, |_, w, q, r| {
                    viewer_phase(w, q, r, end)
                })?;
                let end = Instant::now() + half;
                let peak = both(&mut wires, &queries, &reference, |_, w, q, r| {
                    peak_phase(w, q, r, end)
                })?;
                let lap = queries[0].len();
                // Each connection's samples make their own blocks (the
                // two ran side by side, not one after the other).
                let mut parts = Vec::new();
                for v in &viewers {
                    out.failed += v.failed;
                    out.attempted += v.times_s.len() as u64;
                    let samples: Vec<(f64, f64)> = v.times_s.iter().map(|&s| (s, s)).collect();
                    parts.push(summarize(&samples, block_ops(lap)));
                }
                set_latency(&mut out, &parts);
                let mut rate = 0.0;
                for p in &peak {
                    out.failed += p.failed;
                    out.attempted += (p.times_s.len() * lap) as u64;
                    rate += lap as f64 / across_blocks(&mut p.times_s.clone());
                }
                out.set("ops_per_s", rate);
                out.notes.insert(
                    "laps",
                    peak.iter().map(|p| p.times_s.len()).sum::<usize>() as f64,
                );
                set_store_bytes(&mut out, &store, n_records);
            }
            Ok((setup_s, Some(out)))
        })
    })
}

// -------------------------------------------------------- world_walkthrough

enum WorldOp {
    Frame(VdQuery),
    Vi(Rect, f64),
}

/// 27 frames out and back along a diagonal of the four-strip world (a
/// window of 0.2 of the side: narrower than a strip), a world-scope
/// one-shot VI after every third frame: every fourth operation is a
/// one-shot. Each one-shot looks one strip width east of the viewer
/// (clamped to the terrain), at a seeded offset north or south: next
/// door, but often on a strip the viewer has not yet reached or has
/// left behind, which the handle cap may have closed. Where the opens
/// fall follows from the geometry of the tour, not from the luck of the
/// seed.
fn world_ops(bounds: &Rect, lods: &Lods, seed: u64) -> Vec<WorldOp> {
    let mut rng = SplitMix64::new(seed);
    let frames = diagonal_tour(bounds, 0.2, 27, &mut rng);
    let side = (bounds.area() * 0.05).sqrt();
    let clamp = |v: f64, lo: f64, hi: f64| v.clamp(lo + side / 2.0, hi - side / 2.0);
    frames
        .chunks(3)
        .flat_map(|f| {
            let at = f[f.len() - 1].center();
            let dy = rng.range(-0.1, 0.1) * bounds.height();
            let centre = layers::Vec2::new(
                clamp(at.x + bounds.width() / 4.0, bounds.min.x, bounds.max.x),
                clamp(at.y + dy, bounds.min.y, bounds.max.y),
            );
            f.iter()
                .map(|r| WorldOp::Frame(layers::vd_query(*r, lods, false)))
                .chain([WorldOp::Vi(
                    Rect::centered_square(centre, side),
                    lods.vi_quarter,
                )])
                .collect::<Vec<_>>()
        })
        .collect()
}

fn world_lap(wire: &mut Wire, session: &mut Session, ops: &[WorldOp]) -> io::Result<Vec<OpSample>> {
    ops.iter()
        .map(|op| {
            Ok(match op {
                WorldOp::Frame(q) => wire.frame(session, *q)?,
                WorldOp::Vi(roi, e) => wire.vi(*roi, *e)?,
            }
            .into())
        })
        .collect()
}

fn world_walkthrough(cfg: &Cfg) -> io::Result<Outcome> {
    with_setups(cfg, |dir, stages, last| {
        let t0 = Instant::now();
        let store = build_base(cfg, dir, stages)?;
        let db = timed(stages, "core.open_s", || {
            layers::open_store(&store, cfg.sizing.warm_pool)
        })?;
        let manifest = timed(stages, "world.split_s", || {
            layers::split_world(&db, &dir.join("world"))
        })?;
        let world = timed(stages, "core.open_s", || {
            layers::open_world(&manifest, cfg.sizing.world_budget)
        })?;
        let lods = layers::resolve_lods(&db);
        let (bounds, n_records) = layers::store_shape(&db);
        let ops = world_ops(&bounds, &lods, cfg.seed);
        serve_rep(Host::World(&world), |addr| {
            let mut wire = Wire::connect(addr)?;
            let mut session = wire.open_session(layers::WORLD_POLICY)?;
            world_lap(&mut wire, &mut session, &ops)?;
            let setup_s = secs(t0.elapsed());
            if !last {
                return Ok((setup_s, None));
            }
            let mut out = Outcome::default();

            // Verified lap: every world one-shot ≡ the unsplit store.
            let verified = world_lap(&mut wire, &mut session, &ops)?;
            let mut reference = Vec::new();
            for (op, s) in ops.iter().zip(&verified) {
                if let WorldOp::Vi(roi, e) = op {
                    let local = layers::local_vi(&db, roi, *e)?;
                    out.failed += u64::from(s.digest != mesh_digest(&local.0, &local.1));
                }
                out.failed += u64::from(s.digest == 0);
                reference.push(s.digest);
            }
            out.digest = fold_digests(reference.iter().copied());

            if cfg.trace {
                let laps = trace_laps(ops.len());
                let lifecycle0 = layers::world_lifecycle(&world);
                let sampled =
                    wire_sample(&mut out, laps, || world_lap(&mut wire, &mut session, &ops))?;
                let lifecycle1 = layers::world_lifecycle(&world);
                out.set("world.region_opens", (lifecycle1.0 - lifecycle0.0) as f64);
                out.set(
                    "world.region_evictions",
                    (lifecycle1.1 - lifecycle0.1) as f64,
                );
                // The served session holds pins on the regions under it;
                // close it so the replayed one meets the same LRU state
                // the served one did.
                wire.close_session(session)?;
                let rtt: Vec<f64> = sampled.iter().map(|s| s.latency_s).collect();
                traced_sample(cfg, &mut out, &rtt, |t, c| {
                    let mut replay = SessionReplay::world(&world);
                    let exec = replay_laps(t, laps, &ops, &reference, |t, op| match op {
                        WorldOp::Frame(q) => clocked(|| replay.frame(t, c, q)),
                        WorldOp::Vi(roi, e) => {
                            let r = clocked(|| layers::replay_world_vi(t, c, &world, roi, *e))?;
                            // The same query on the unsplit store, for
                            // the catalog's overhead ratio.
                            let (_, unsplit) = clocked(|| layers::local_vi(&db, roi, *e))?;
                            c.add("unsplit_vi_ns", unsplit.as_nanos() as f64);
                            Ok(r)
                        }
                    });
                    replay.close();
                    exec
                })?;
            } else {
                let (laps, failed) = measure_laps(cfg.seconds, &reference, || {
                    world_lap(&mut wire, &mut session, &ops)
                })?;
                out.failed += failed;
                set_closed_loop(&mut out, &laps);
                // The world serves the tiles, not the store they were
                // split from: space is theirs (manifest included).
                let tiles: u64 = std::fs::read_dir(dir.join("world"))?
                    .filter_map(|e| e.ok()?.metadata().ok())
                    .map(|m| m.len())
                    .sum();
                out.set("store_bytes_per_record", tiles as f64 / n_records as f64);
                wire.close_session(session)?;
            }
            Ok((setup_s, Some(out)))
        })
    })
}

// --------------------------------------------------------- edit_beside_read

/// Reads per timing block of `edit_beside_read`: about half a second.
const EDIT_BLOCK_READS: usize = 1024;

/// The never-edited north-east corner: its cold read cost must not move.
fn control_region(bounds: &Rect) -> Rect {
    Rect::new(
        layers::Vec2::new(
            bounds.min.x + bounds.width() * 0.75,
            bounds.min.y + bounds.height() * 0.75,
        ),
        bounds.max,
    )
}

/// 3 %-area patch regions clear of the control corner, each raised or
/// lowered by a seeded amount.
fn edit_list(bounds: &Rect, seed: u64) -> Vec<(Rect, EditOp)> {
    let mut rng = SplitMix64::new(seed ^ 0xED17);
    let control = control_region(bounds);
    stratified_rois(bounds, 0.03, 4, &mut rng)
        .into_iter()
        .filter(|r| !r.intersects(&control))
        .map(|r| (r, EditOp::Raise(rng.range(0.5, 2.0))))
        .collect()
}

fn snapshot_read(live: &LiveDb, roi: &Rect, e: f64) -> io::Result<(f64, Mesh)> {
    let t0 = Instant::now();
    let snap = layers::snapshot(live);
    let mesh = layers::local_vi(&snap, roi, e)?;
    Ok((secs(t0.elapsed()), mesh))
}

/// Digest of fixed probe queries against the current version.
fn probe_digest(db: &DirectMeshDb, probes: &[(Rect, f64)]) -> io::Result<u64> {
    let mut ds = Vec::new();
    for (roi, e) in probes {
        let m = layers::local_vi(db, roi, *e)?;
        ds.push(mesh_digest(&m.0, &m.1));
    }
    Ok(fold_digests(ds))
}

fn edit_beside_read(cfg: &Cfg) -> io::Result<Outcome> {
    with_setups(cfg, |dir, stages, last| {
        let t0 = Instant::now();
        let base = build_base(cfg, dir, stages)?;
        let store = dir.join("live.dmdb");
        std::fs::copy(&base, &store)?;
        let (live, _) = timed(stages, "core.open_s", || {
            layers::open_live(&store, cfg.sizing.warm_pool)
        })?;
        let snap0 = layers::snapshot(&live);
        let lods = layers::resolve_lods(&snap0);
        let (bounds, n_records) = layers::store_shape(&snap0);
        let reads: Vec<(Rect, f64)> =
            stratified_rois(&bounds, 0.05, 4, &mut SplitMix64::new(cfg.seed))
                .into_iter()
                .map(|roi| (roi, lods.vi_quarter))
                .collect();
        let edits = edit_list(&bounds, cfg.seed);
        for (roi, e) in &reads {
            snapshot_read(&live, roi, *e)?;
        }
        let setup_s = secs(t0.elapsed());
        if !last {
            return Ok((setup_s, None));
        }
        let mut out = Outcome::default();
        let control = control_region(&bounds);
        let control_cost = |db: &DirectMeshDb| -> io::Result<u64> {
            layers::cold_start(db)?;
            layers::local_vi(db, &control, lods.vi_quarter)?;
            Ok(layers::pool_reads(db))
        };
        let control_before = control_cost(&snap0)?;
        drop(snap0);

        if cfg.trace {
            // A fixed sample: every patch of the list once, a lap of
            // reads on a fresh snapshot after each.
            let mut tracer = Tracer::new(true);
            let mut counts = Counts::default();
            let mut patch_ms = Vec::new();
            let mut op = 0u32;
            for (region, edit) in &edits {
                tracer.begin_op(op);
                op += 1;
                let t0 = Instant::now();
                layers::replay_patch(&mut tracer, &mut counts, &live, region, edit)?;
                patch_ms.push(secs(t0.elapsed()) * 1e3);
                for (roi, e) in &reads {
                    tracer.begin_op(op);
                    op += 1;
                    layers::replay_snapshot_read(&mut tracer, &mut counts, &live, roi, *e)?;
                }
            }
            let n_reads = edits.len() * reads.len();
            set_layer_metrics(&mut out, &tracer, &counts, n_reads);
            out.attempted = op as u64;
            out.set("patch_p50_ms", median(&mut patch_ms));
            // The same reads again with spans off, for the overhead.
            let time_reads = |t: &mut Tracer| -> io::Result<f64> {
                let t0 = Instant::now();
                for (roi, e) in &reads {
                    layers::replay_snapshot_read(t, &mut Counts::default(), &live, roi, *e)?;
                }
                Ok(secs(t0.elapsed()))
            };
            let plain = time_reads(&mut Tracer::new(false))?;
            let traced = time_reads(&mut Tracer::new(true))?;
            out.set("bench.trace_overhead_ratio", traced / plain);
            write_trace(cfg, &tracer)?;
        } else {
            // Writer: open loop at a fixed rate, so the number of
            // patches — and with it the store's growth — is the same on
            // every run. Reader: closed loop on fresh snapshots until
            // the writer is done.
            let n_patches = (PATCH_RATE * cfg.seconds).ceil() as u64;
            let done = std::sync::atomic::AtomicBool::new(false);
            let (patch_s, read_laps) = std::thread::scope(|s| -> io::Result<_> {
                let (live, edits, reads, done_ref) = (&live, &edits, &reads, &done);
                let writer = s.spawn(move || -> io::Result<Vec<f64>> {
                    let schedule = Schedule::new(Instant::now(), PATCH_RATE);
                    let r = (0..n_patches)
                        .map(|i| {
                            schedule.wait(i);
                            let (region, edit) = &edits[i as usize % edits.len()];
                            let t0 = Instant::now();
                            layers::apply_patch(live, region, edit)?;
                            Ok(secs(t0.elapsed()))
                        })
                        .collect();
                    done_ref.store(true, std::sync::atomic::Ordering::SeqCst);
                    r
                });
                let mut laps: Vec<Vec<f64>> = Vec::new();
                let mut read_err = None;
                while !done.load(std::sync::atomic::Ordering::SeqCst) && read_err.is_none() {
                    let lap: io::Result<Vec<f64>> = reads
                        .iter()
                        .map(|(roi, e)| snapshot_read(live, roi, *e).map(|(s, _)| s))
                        .collect();
                    match lap {
                        Ok(l) => laps.push(l),
                        Err(e) => read_err = Some(e),
                    }
                }
                let patch_s = writer.join().expect("writer panicked")?;
                match read_err {
                    Some(e) => Err(e),
                    None => Ok((patch_s, laps)),
                }
            })?;
            // Blocks long enough to hold two patches each, so that what
            // a commit does to the readers (it empties the pool) is in
            // every block, not in some.
            let lat: Vec<(f64, f64)> = read_laps.iter().flatten().map(|&s| (s, s)).collect();
            let summary = summarize(&lat, EDIT_BLOCK_READS);
            out.set("ops_per_s", 1.0 / summary.per_op_s);
            set_latency(&mut out, &[summary]);
            out.attempted = lat.len() as u64 + patch_s.len() as u64;
            out.notes.insert("laps", read_laps.len() as f64);
            out.notes.insert("patches", patch_s.len() as f64);
            let mut patch_ms: Vec<f64> = patch_s.iter().map(|s| s * 1e3).collect();
            out.set("patch_p50_ms", median(&mut patch_ms));
        }

        // After the edits: the untouched corner costs what it did, the
        // store scrubs clean, and a reopened store answers the probes
        // exactly as the last snapshot did.
        let probes: Vec<(Rect, f64)> = reads
            .iter()
            .copied()
            .chain([(control, lods.vi_quarter)])
            .collect();
        let last_snapshot = layers::snapshot(&live);
        let before = probe_digest(&last_snapshot, &probes)?;
        let control_after = control_cost(&last_snapshot)?;
        out.set("disk_accesses_per_op", control_after as f64);
        out.failed += u64::from(control_after != control_before);
        drop(last_snapshot);
        drop(live);
        set_store_bytes(&mut out, &store, n_records);
        let (reopened, _) = layers::open_live(&store, cfg.sizing.warm_pool)?;
        let after = probe_digest(&layers::snapshot(&reopened), &probes)?;
        out.failed += u64::from(after != before);
        out.digest = after;
        drop(reopened);
        if cfg.trace {
            // Recovery: crash one more edit after its WAL append, then
            // time the reopen that has that one record to replay.
            layers::crash_mid_edit(&store, cfg.sizing.warm_pool, &edits[0].0)?;
            let t0 = Instant::now();
            let (_recovered, info) = layers::open_live(&store, cfg.sizing.warm_pool)?;
            out.set("storage.reopen_s", secs(t0.elapsed()));
            out.set("storage.replayed_records", info.replayed as f64);
            out.failed += u64::from(info.replayed != 1);
        }
        out.failed += u64::from(!layers::store_is_clean(&store)?);
        Ok((setup_s, Some(out)))
    })
}
