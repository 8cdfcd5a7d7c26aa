//! Every metric the benchmark prints: name, unit, and the workloads on
//! which it is expected to be non-zero. `BENCHMARK.json` lists the same
//! names (a unit test keeps the two in step); `dmbench list` prints this
//! table.

pub const WORKLOADS: [&str; 5] = [
    "cold_query",
    "warm_walkthrough",
    "viewer_load",
    "world_walkthrough",
    "edit_beside_read",
];

/// Bit per workload, in `WORKLOADS` order.
const COLD: u8 = 1;
const WARM: u8 = 2;
const LOAD: u8 = 4;
const WORLD: u8 = 8;
const EDIT: u8 = 16;
const ALL: u8 = 31;
const SERVED: u8 = COLD | WARM | LOAD | WORLD;

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// Workloads on which the metric carries information.
    pub on: u8,
}

const fn m(name: &'static str, unit: &'static str, on: u8) -> Metric {
    Metric { name, unit, on }
}

/// Printed with `--trace 0`, defined on all five workloads.
pub const END_TO_END: [Metric; 6] = [
    m("setup_s", "s", ALL),
    m("ops_per_s", "1/s", ALL),
    m("latency_p50_ms", "ms", ALL),
    m("latency_p95_ms", "ms", ALL),
    m("ttft_p50_ms", "ms", ALL),
    m("store_bytes_per_record", "B", ALL),
];

/// Printed with `--trace 1`; zero where the layer is not on the path.
pub const PER_LAYER: [Metric; 72] = [
    // What a user sees, but not on every workload, or (memory) not
    // steadily enough from seed to seed to carry a bound.
    m("wire_bytes_per_op", "B", SERVED),
    m("disk_accesses_per_op", "count", COLD | WORLD | EDIT),
    m("bytes_to_first_triangle", "B", COLD),
    m("patch_p50_ms", "ms", EDIT),
    m("peak_rss_mb", "MB", ALL),
    // Set-up stages.
    m("terrain.generate_s", "s", ALL),
    m("mtm.build_pm_s", "s", ALL),
    m("core.build_store_s", "s", ALL),
    m("core.open_s", "s", ALL),
    m("world.split_s", "s", WORLD),
    // dm-index.
    m("index.descent_us", "us", COLD | LOAD | EDIT),
    m("index.node_reads_per_op", "count", COLD | EDIT),
    m("index.candidates_per_op", "count", COLD | LOAD | EDIT),
    // dm-storage, read side.
    m("storage.page_reads_per_op", "count", COLD | WORLD | EDIT),
    m("storage.heap_miss_share", "ratio", COLD | EDIT),
    m("storage.fetch_us_per_miss", "us", COLD | EDIT),
    m("storage.fetch_us_per_hit", "us", COLD | LOAD | EDIT),
    m("storage.retries", "count", 0),
    // dm-storage, write side.
    m("storage.pages_rewritten_per_patch", "count", EDIT),
    m("storage.wal_bytes_per_patch", "B", EDIT),
    m("storage.store_growth_pages_per_patch", "count", EDIT),
    m("storage.page_writes_per_patch", "count", EDIT),
    m("storage.reopen_s", "s", EDIT),
    m("storage.replayed_records", "count", EDIT),
    // dm-core fetch and codec.
    m("core.decode_us", "us", COLD | LOAD | EDIT),
    m("core.pages_scanned_per_op", "count", ALL),
    m("core.records_examined_per_op", "count", ALL),
    m("core.records_decoded_per_op", "count", ALL),
    m("core.examined_per_kept", "ratio", ALL),
    m("core.assemble_us", "us", COLD | LOAD | EDIT),
    // dm-core navigation.
    m("core.frame_us", "us", WARM | WORLD),
    m("core.plan_us", "us", COLD | WARM),
    m("core.plan_full_share", "ratio", 0),
    m("core.seeds_spliced_per_frame", "count", WARM),
    m("core.vd_us", "us", COLD),
    // dm-core live edits.
    m("core.patch_us", "us", EDIT),
    m("core.records_updated_per_patch", "count", EDIT),
    m("core.snapshot_us", "us", EDIT),
    // dm-mtm.
    m("mtm.refine_splits_per_op", "count", COLD | WARM | WORLD),
    m("mtm.refine_blocked_per_op", "count", COLD | WARM | WORLD),
    m("mtm.front_vertices_per_op", "count", ALL),
    // dm-net, encode side.
    m("net.canonical_us", "us", ALL),
    m("net.encode_us", "us", SERVED),
    m("net.encode_ns_per_byte", "ns/B", SERVED),
    m("net.mesh_bytes_per_op", "B", SERVED),
    m("net.diff_us", "us", WARM | WORLD),
    m("net.delta_bytes_per_frame", "B", WARM | WORLD),
    m("net.delta_frame_share", "ratio", WARM | WORLD),
    m("net.chunk_us", "us", COLD),
    m("net.chunks_per_op", "count", COLD),
    m("net.frame_crc_ns_per_byte", "ns/B", SERVED),
    // dm-net, client side.
    m("net.decode_us", "us", SERVED),
    m("net.mirror_apply_us", "us", WARM | WORLD),
    m("net.chunk_assemble_us", "us", COLD),
    // dm-server.
    m("server.rtt_minus_exec_us", "us", SERVED),
    m("server.paced_latency_p50_us", "us", LOAD),
    m("server.paced_latency_p95_us", "us", LOAD),
    m("server.requests", "count", SERVED),
    m("server.overloaded", "count", 0),
    m("server.errors", "count", 0),
    m("server.slow_disconnects", "count", 0),
    m("server.bytes_out_per_op", "B", SERVED),
    m("server.delta_frames", "count", WARM | WORLD),
    m("server.full_frames", "count", WARM | WORLD),
    // dm-world.
    m("world.route_us", "us", WORLD),
    m("world.regions_per_op", "count", WORLD),
    m("world.region_opens", "count", WORLD),
    m("world.region_evictions", "count", WORLD),
    m("world.open_us", "us", WORLD),
    m("world.vi_overhead_ratio", "ratio", WORLD),
    // The harness itself.
    m("bench.generator_lateness_p95_us", "us", LOAD),
    m("bench.trace_overhead_ratio", "ratio", ALL),
];

impl Metric {
    /// Names of the workloads the metric is meaningful on.
    pub fn workloads(&self) -> Vec<&'static str> {
        WORKLOADS
            .iter()
            .enumerate()
            .filter(|(i, _)| self.on & (1 << i) != 0)
            .map(|(_, w)| *w)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    /// `BENCHMARK.json` at the repository root, one level above this
    /// package.
    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    fn names(list: &Json) -> Vec<(String, String)> {
        list.as_arr()
            .iter()
            .map(|e| {
                (
                    e.get("name").unwrap().as_str().unwrap().to_string(),
                    e.get("unit")
                        .map_or("", |u| u.as_str().unwrap())
                        .to_string(),
                )
            })
            .collect()
    }

    fn table(ms: &[Metric]) -> Vec<(String, String)> {
        ms.iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let b = Json::parse(BENCHMARK_JSON).unwrap();
        assert_eq!(names(b.get("end_to_end").unwrap()), table(&END_TO_END));
        assert_eq!(names(b.get("per_layer").unwrap()), table(&PER_LAYER));
        let workloads: Vec<String> = names(b.get("workloads").unwrap())
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(m.name), "{} listed twice", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16);
            let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
            assert!(m.name.chars().all(ok), "{}", m.name);
            let ok_unit = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
            assert!(m.unit.chars().all(ok_unit), "{}", m.unit);
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }
}
