#!/usr/bin/env bash
# The full local gate: formatting, lints, release build, tests.
# Run from anywhere; operates on the repository this script lives in.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc (dangling or private intra-doc links are errors)"
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links -D rustdoc::private_intra_doc_links" \
    cargo doc --workspace --no-deps

echo "== cargo build --release"
cargo build --release --workspace

echo "== examples compile"
cargo build --release --workspace --examples

echo "== cargo test"
cargo test --workspace -q

echo "== cargo test (single-threaded harness)"
# Concurrency bugs can hide behind the test harness's own parallelism
# (or be provoked by it); the suite must pass both ways.
cargo test --workspace -q -- --test-threads=1

echo "== adversarial-client suite (default + single-threaded harness)"
# The stalled-reader / trickle-writer / garbage-sender tests exercise
# reactor scheduling, so run them explicitly under both harness modes:
# parallel (other tests competing for the core) and serial (no cover
# from harness concurrency).
cargo test -q -p dm-integration --test server_loopback
cargo test -q -p dm-integration --test server_loopback -- --test-threads=1
cargo test -q -p dm-integration --test proptest_server_pipeline -- --test-threads=1

echo "== loopback suites, 20x each under the parallel harness"
# A test that passes alone can still race its neighbours in the same
# binary (shared stores, shared pools, reactor scheduling); twenty
# parallel-harness runs each surface a flake here, not on someone's PR.
for suite in proptest_server_pipeline server_loopback world_loopback; do
    for run in $(seq 1 20); do
        cargo test -q -p dm-integration --test "$suite" >/dev/null 2>&1 \
            || { echo "$suite failed on parallel-harness run $run of 20"; exit 1; }
    done
done

echo "== dmbench (BENCHMARK.json) builds and passes against these crates, untouched"
# The benchmark package is frozen and calls the crates' public API by
# name: an API break must fail here, not in the benchmark pipeline.
cargo build --release --offline --manifest-path dmbench/Cargo.toml
cargo test --release --offline --manifest-path dmbench/Cargo.toml
git diff --exit-code -- dmbench BENCHMARK.json

echo "== dmbench warm smokes (traced): warm_walkthrough tour 102 (used to resync once a lap) and viewer_load"
# Both stores are resident, so a run counts no disk access yet still
# examines, keeps and meshes records. Every frame of the streamed
# session must verify against its shadow, every replayed lap must repeat
# the verified one, and no frame may make the client mirror refuse a
# patch: a front that holds a face twice does (the delta is a set, the
# full frame a list). Every viewer request must match its local answer.
python3 - << 'PY'
import json, subprocess, sys
bad = []
for workload, seed in (("warm_walkthrough", 102), ("viewer_load", 1)):
    out = subprocess.run(
        ["cargo", "run", "--release", "--offline", "--quiet",
         "--manifest-path", "dmbench/Cargo.toml", "--",
         "--workload", workload, "--seed", str(seed), "--seconds", "2", "--trace", "1"],
        check=True, stdout=subprocess.PIPE, text=True).stdout
    info, result = (json.loads(line) for line in out.splitlines()[-2:])
    layer = {k: v["value"] for k, v in result["metrics"].items()}
    mine = []
    if result["correct"] is not True:
        mine.append("correct: %r" % result["correct"])
    if result["failed"] > 0:
        mine.append("failed: %d of %d" % (result["failed"], result["attempted"]))
    if layer["disk_accesses_per_op"] != 0:
        mine.append("disk_accesses_per_op: %g (the store is resident)" % layer["disk_accesses_per_op"])
    if workload == "warm_walkthrough":
        if info["resyncs_per_lap"] > 0:
            mine.append("resyncs_per_lap: %g" % info["resyncs_per_lap"])
        # A resident page is filtered from its decoded sidecar: that path
        # still counts every record it examines and keeps.
        counts = ("core.records_examined_per_op", "core.records_decoded_per_op")
        # Refinement's counts on tour 102, as the hash-map front gave them
        # before the slot-arena front: a front-mesh change that alters
        # refinement must move them. ROADMAP item 10's BENCH_counts.json
        # will absorb this check.
        for name, want in (("mtm.front_vertices_per_op", 1070.5312),
                           ("mtm.refine_splits_per_op", 203.75),
                           ("mtm.refine_blocked_per_op", 286.6562)):
            if round(layer[name], 4) != want:
                mine.append("%s: %.4f (expected %g)" % (name, layer[name], want))
    else:
        counts = ("mtm.front_vertices_per_op",)
    for name in counts:
        if not layer[name] > 0:
            mine.append("%s: %g" % (name, layer[name]))
    bad += ["%s %s" % (workload, m) for m in mine]
    if not mine:
        print("dmbench %s ok: %d ops, 0 failed, 0 disk accesses, %s"
              % (workload, result["attempted"],
                 ", ".join("%s %.0f" % (n, layer[n]) for n in counts)))
if bad:
    sys.exit("dmbench warm smokes FAILED\n  " + "\n  ".join(bad))
PY

echo "== dmbench world_walkthrough smoke (traced; exact counts at seed 1)"
# Two regions reopen every lap, inside viewers' requests: every answer
# must verify. The traced pass's counts are fixed at seed 1 by which
# pages the small per-region pools evict and by the tiles' page layout:
# a pool that picks a different LRU victim moves them, so does a tile
# whose index pages land on other pool shards (a shard is page id mod
# 16), and so does a region open that reads heap pages, since its reads
# count in storage.page_reads_per_op. They moved from 10.3056 / 12.6111
# when tiles took the single store's one-STR-tile-per-page placement.
# world.open_us is printed, not gated: on a loaded 2-core box the same
# tree reads 0.75-1.5 ms. The open's index-only contract is held by
# tests/open_contract.rs. ROADMAP item 10's BENCH_counts.json will
# absorb this check.
cargo run --release --offline --quiet --manifest-path dmbench/Cargo.toml -- \
    --workload world_walkthrough --seed 1 --seconds 2 --trace 1 | tail -1 | python3 -c '
import json, sys
result = json.loads(sys.stdin.read())
layer = {k: v["value"] for k, v in result["metrics"].items()}
bad = []
if result["correct"] is not True:
    bad.append("correct: %r" % result["correct"])
if result["failed"] > 0:
    bad.append("failed: %d of %d" % (result["failed"], result["attempted"]))
for name, want in (("disk_accesses_per_op", 5.1667), ("storage.page_reads_per_op", 7.4722),
                   ("world.region_opens", 12), ("world.region_evictions", 12)):
    if round(layer[name], 4) != want:
        bad.append("%s: %.4f (exact-LRU victims give %g)" % (name, layer[name], want))
if bad:
    sys.exit("dmbench world_walkthrough smoke FAILED\n  " + "\n  ".join(bad))
print("dmbench world_walkthrough ok: %d ops, 0 failed, region open %.0f us, exact-LRU counts held"
      % (result["attempted"], layer["world.open_us"]))
'

echo "== benches compile"
cargo build --release --benches --workspace

echo "== navigation bench smoke (tiny terrain, short path)"
# The bench runs with the package directory as cwd; anchor the output
# inside the workspace target dir so smoke runs never clobber the
# committed BENCH_navigation.json. The bench itself asserts that every
# pool capacity answers with the same meshes.
DM_SCALE=ci DM_NAV_FRAMES=4 DM_NAV_OUT="$PWD/target/BENCH_navigation.ci.json" \
    cargo bench -p dm-bench --bench navigation >/dev/null

echo "== walkthrough smoke (dm walkthrough on a tiny store)"
# End-to-end through the installed binary: a walk prints one vertices
# value per frame (picked by header name, so a new column cannot shift
# it), and a window that holds no terrain is an error, not a walk of
# empty frames.
PLAN_DIR=$(mktemp -d "${TMPDIR:-/tmp}/dm-plan-smoke.XXXXXX")
DM=target/release/dm
"$DM" generate --kind mining --size 65 --seed 9 -o "$PLAN_DIR/t.dmh" >/dev/null
"$DM" build "$PLAN_DIR/t.dmh" -o "$PLAN_DIR/t.dmdb" >/dev/null
"$DM" walkthrough "$PLAN_DIR/t.dmdb" --frames 6 --window 0.4 | awk '
    $1 == "frame" { for (i = 1; i <= NF; i++) if ($i == "vertices") col = i }
    col && $1 ~ /^[0-9]+$/ { print $1, $col }' > "$PLAN_DIR/walk.verts"
[ "$(wc -l < "$PLAN_DIR/walk.verts")" -eq 6 ] \
    || { echo "walkthrough printed no vertices column"; exit 1; }
if "$DM" walkthrough "$PLAN_DIR/t.dmdb" --frames 2 --window 0 >/dev/null 2>&1; then
    echo "walkthrough accepted an empty window"; exit 1
fi
rm -rf "$PLAN_DIR"

echo "== build determinism and the PM cache (dm build --pm-cache)"
# Two plain builds of one terrain write the same file (page boxes reach
# the R*-tree in page order, never in a hash order). A build from a PM
# cache written by an earlier build is that same file. A cache from
# another terrain is refused, and no store is written. Builds write v3
# only: a --codec is refused, not ignored, as are --threads and typos.
BUILD_DIR=$(mktemp -d "${TMPDIR:-/tmp}/dm-build-smoke.XXXXXX")
DM=target/release/dm
"$DM" generate --kind mining --size 65 --seed 9 -o "$BUILD_DIR/a.dmh" >/dev/null
"$DM" generate --kind mining --size 65 --seed 10 -o "$BUILD_DIR/b.dmh" >/dev/null
for run in 1 2; do
    "$DM" build "$BUILD_DIR/a.dmh" -o "$BUILD_DIR/v3.$run.dmdb" >/dev/null
done
cmp "$BUILD_DIR/v3.1.dmdb" "$BUILD_DIR/v3.2.dmdb" \
    || { echo "two builds of one terrain differ"; exit 1; }
if "$DM" build "$BUILD_DIR/a.dmh" -o "$BUILD_DIR/v2.dmdb" --codec v2 >/dev/null 2>&1; then
    echo "dm build accepted --codec v2"; exit 1
fi
if "$DM" query "$BUILD_DIR/v3.1.dmdb" --keep 0.2 --threads 2 >/dev/null 2>&1; then
    echo "dm query accepted --threads 2"; exit 1
fi
if "$DM" query "$BUILD_DIR/v3.1.dmdb" --kep 0.2 >/dev/null 2>&1; then
    echo "dm query accepted a misspelled --kep"; exit 1
fi
"$DM" build "$BUILD_DIR/a.dmh" -o "$BUILD_DIR/cached.dmdb" --pm-cache "$BUILD_DIR/a.dmpm" >/dev/null
"$DM" build "$BUILD_DIR/a.dmh" -o "$BUILD_DIR/loaded.dmdb" --pm-cache "$BUILD_DIR/a.dmpm" \
    > "$BUILD_DIR/loaded.log"
grep -q "loaded PM hierarchy" "$BUILD_DIR/loaded.log" \
    || { echo "the PM cache was not loaded"; exit 1; }
cmp "$BUILD_DIR/cached.dmdb" "$BUILD_DIR/loaded.dmdb" \
    || { echo "a build from the PM cache differs"; exit 1; }
cmp "$BUILD_DIR/v3.1.dmdb" "$BUILD_DIR/loaded.dmdb" \
    || { echo "a build from the PM cache differs from a plain build"; exit 1; }
if "$DM" build "$BUILD_DIR/b.dmh" -o "$BUILD_DIR/other.dmdb" --pm-cache "$BUILD_DIR/a.dmpm" \
    >/dev/null 2>&1; then
    echo "dm build accepted a PM cache of another terrain"; exit 1
fi
[ ! -e "$BUILD_DIR/other.dmdb" ] || { echo "a refused PM cache left a store"; exit 1; }
rm -rf "$BUILD_DIR"

echo "== crash-recovery smoke (patch --kill-after / recover / verify / query equality)"
# Two byte-identical stores get the same edit: one cleanly, one dying
# mid-commit (the store is killed after one durable write). After
# `dm recover` replays the WAL tail, both must scrub clean and answer
# queries identically.
CRASH_DIR=$(mktemp -d "${TMPDIR:-/tmp}/dm-crash-smoke.XXXXXX")
DM=target/release/dm
"$DM" generate --kind mining --size 65 --seed 11 -o "$CRASH_DIR/t.dmh" >/dev/null
"$DM" build "$CRASH_DIR/t.dmh" -o "$CRASH_DIR/a.dmdb" >/dev/null
cp "$CRASH_DIR/a.dmdb" "$CRASH_DIR/b.dmdb"
cp "$CRASH_DIR/a.dmdb" "$CRASH_DIR/c.dmdb"
"$DM" patch "$CRASH_DIR/a.dmdb" --region 20,20,44,44 --raise 3.5 >/dev/null
if "$DM" patch "$CRASH_DIR/b.dmdb" --region 20,20,44,44 --raise 3.5 --kill-after 1 \
    >/dev/null 2>&1; then
    echo "killed patch unexpectedly succeeded"; exit 1
fi
"$DM" recover "$CRASH_DIR/b.dmdb" >/dev/null
"$DM" verify "$CRASH_DIR/a.dmdb" >/dev/null
"$DM" verify "$CRASH_DIR/b.dmdb" > "$CRASH_DIR/verify.log"
# The suite above must have tested the checksum kernel this CPU can run,
# not only the table fallback: `dm verify` names the live one.
grep -qx "crc32: *$(grep -qw pclmulqdq /proc/cpuinfo && grep -qw sse4_1 /proc/cpuinfo && echo pclmulqdq || echo portable)" "$CRASH_DIR/verify.log" \
    || { echo "dm verify reports the wrong checksum kernel for this CPU"; cat "$CRASH_DIR/verify.log"; exit 1; }
diff <("$DM" query "$CRASH_DIR/a.dmdb" --keep 0.5) \
     <("$DM" query "$CRASH_DIR/b.dmdb" --keep 0.5) \
    || { echo "recovered store answers differently from the clean edit"; exit 1; }
# Space reuse across processes: every `dm patch` is a process of its own,
# and the first patch after an open frees what earlier ones retired, so
# after the first edit the file stops growing.
SIZES=("$(stat -c %s "$CRASH_DIR/c.dmdb")")
for _ in 1 2 3; do
    "$DM" patch "$CRASH_DIR/c.dmdb" --region 20,20,44,44 --raise 1.5 >/dev/null
    SIZES+=("$(stat -c %s "$CRASH_DIR/c.dmdb")")
done
[ "${SIZES[3]}" -le $((2 * SIZES[1] - SIZES[0])) ] \
    || { echo "repeated dm patch keeps growing the store: ${SIZES[*]} bytes"; exit 1; }
"$DM" verify "$CRASH_DIR/c.dmdb" >/dev/null
rm -rf "$CRASH_DIR"

echo "== server bench smoke (loopback, tiny terrain)"
# Asserts serial cold remote ≡ local inside the bench itself. Both bench
# smokes write under target/; the diff fails a smoke that loses its
# DM_*_OUT override and so rewrites a committed BENCH_*.json.
DM_SCALE=ci DM_SERVER_OUT="$PWD/target/BENCH_server.ci.json" \
    cargo bench -p dm-bench --bench server >/dev/null
git diff --exit-code -- 'BENCH_*.json' \
    || { echo "a bench smoke rewrote a committed BENCH_*.json"; exit 1; }

echo "== server smoke (serve / remote-query / remote-shutdown over loopback)"
# End-to-end through the installed binaries: build a tiny database, serve
# it in the background, run a remote batch query verified bit-for-bit
# against a local open of the same file, then shut the server down over
# the wire and check it drains cleanly.
SMOKE_DIR=$(mktemp -d "${TMPDIR:-/tmp}/dm-server-smoke.XXXXXX")
DM=target/release/dm
trap '{ [ -n "${SERVE_PID:-}" ] && kill "$SERVE_PID"; rm -rf "$SMOKE_DIR"; } 2>/dev/null || true' EXIT
"$DM" generate --kind crater --size 65 --seed 7 -o "$SMOKE_DIR/t.dmh" >/dev/null
"$DM" build "$SMOKE_DIR/t.dmh" -o "$SMOKE_DIR/t.dmdb" >/dev/null
"$DM" serve "$SMOKE_DIR/t.dmdb" --addr 127.0.0.1:0 --port-file "$SMOKE_DIR/port" \
    > "$SMOKE_DIR/serve.log" 2>&1 &
SERVE_PID=$!
for _ in $(seq 1 100); do [ -s "$SMOKE_DIR/port" ] && break; sleep 0.1; done
[ -s "$SMOKE_DIR/port" ] || { echo "server never published its port"; cat "$SMOKE_DIR/serve.log"; exit 1; }
ADDR=$(cat "$SMOKE_DIR/port")
"$DM" remote-query --addr "$ADDR" --cold --verify-local "$SMOKE_DIR/t.dmdb"
"$DM" remote-query --addr "$ADDR" --batch 2 --verify-local "$SMOKE_DIR/t.dmdb"
"$DM" remote-query --addr "$ADDR" --pipeline 4 --verify-local "$SMOKE_DIR/t.dmdb"
# grep without -q: consume the whole stream so the writer never takes
# a SIGPIPE when the match lands before its last line (set -o pipefail).
"$DM" remote-query --addr "$ADDR" --chunked --verify-local "$SMOKE_DIR/t.dmdb" \
    | grep "^chunked:" >/dev/null || { echo "chunked remote-query printed no chunk stats"; exit 1; }
"$DM" remote-walkthrough --addr "$ADDR" --frames 4 --verify-local "$SMOKE_DIR/t.dmdb" >/dev/null
# Delta streaming end to end: every reconstructed frame must verify
# bit-for-bit against the lockstep local session, and a multi-frame walk
# must actually ship delta frames.
"$DM" remote-walkthrough --addr "$ADDR" --frames 6 --stream delta \
    --verify-local "$SMOKE_DIR/t.dmdb" > "$SMOKE_DIR/delta.log"
grep -q "verified bit-for-bit" "$SMOKE_DIR/delta.log" \
    || { echo "delta walkthrough did not verify"; cat "$SMOKE_DIR/delta.log"; exit 1; }
grep -qE "5/6 delta frames" "$SMOKE_DIR/delta.log" \
    || { echo "delta walkthrough shipped no deltas"; cat "$SMOKE_DIR/delta.log"; exit 1; }
"$DM" stats --addr "$ADDR" | grep "delta frames" >/dev/null \
    || { echo "remote stats printed no streaming counters"; exit 1; }
"$DM" remote-shutdown --addr "$ADDR"
wait "$SERVE_PID"
SERVE_PID=
grep -q "server drained" "$SMOKE_DIR/serve.log" || { echo "server did not drain cleanly"; cat "$SMOKE_DIR/serve.log"; exit 1; }
grep -q "wire totals:" "$SMOKE_DIR/serve.log" || { echo "server drain printed no wire totals"; cat "$SMOKE_DIR/serve.log"; exit 1; }

echo "== world smoke (world-build / world-verify / serve --world over loopback)"
# Assemble two independent stores into a world manifest, scrub it, serve
# it with a deliberately tiny handle cap so lazy open and LRU eviction
# both fire, then check the region dimension end to end: region-scoped
# remote queries, the per-region stats table, and world totals on drain.
"$DM" generate --kind mining --size 65 --seed 11 -o "$SMOKE_DIR/a.dmh" >/dev/null
"$DM" build "$SMOKE_DIR/a.dmh" -o "$SMOKE_DIR/a.dmdb" >/dev/null
"$DM" world-build "$SMOKE_DIR/t.dmdb" "$SMOKE_DIR/a.dmdb" -o "$SMOKE_DIR/w.dmwm" \
    | grep "2 regions" >/dev/null || { echo "world-build did not report 2 regions"; exit 1; }
"$DM" world-verify "$SMOKE_DIR/w.dmwm" \
    | grep "ok" >/dev/null || { echo "world-verify reported no healthy region"; exit 1; }
"$DM" serve "$SMOKE_DIR/w.dmwm" --world --max-open 1 \
    --addr 127.0.0.1:0 --port-file "$SMOKE_DIR/wport" \
    > "$SMOKE_DIR/wserve.log" 2>&1 &
SERVE_PID=$!
for _ in $(seq 1 100); do [ -s "$SMOKE_DIR/wport" ] && break; sleep 0.1; done
[ -s "$SMOKE_DIR/wport" ] || { echo "world server never published its port"; cat "$SMOKE_DIR/wserve.log"; exit 1; }
WADDR=$(cat "$SMOKE_DIR/wport")
"$DM" remote-query --addr "$WADDR" >/dev/null
"$DM" remote-query --addr "$WADDR" --region 0 >/dev/null
"$DM" remote-query --addr "$WADDR" --region 1 >/dev/null
"$DM" stats --addr "$WADDR" | grep -E "regions: +2 " >/dev/null \
    || { echo "remote stats printed no region table"; exit 1; }
"$DM" remote-shutdown --addr "$WADDR"
wait "$SERVE_PID"
SERVE_PID=
grep -q "world totals:" "$SMOKE_DIR/wserve.log" \
    || { echo "world server drain printed no world totals"; cat "$SMOKE_DIR/wserve.log"; exit 1; }
grep -qE "world totals: [0-9]+ region opens, [1-9][0-9]* evictions" "$SMOKE_DIR/wserve.log" \
    || { echo "world server with --max-open 1 never evicted a region"; cat "$SMOKE_DIR/wserve.log"; exit 1; }

echo "ci: all green"
