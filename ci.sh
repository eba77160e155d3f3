#!/usr/bin/env bash
# Repository CI gate. Everything here runs offline — the workspace has no
# external dependencies — so this script is exactly what .github/workflows/ci.yml
# runs and what a contributor should run before pushing.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo test"
cargo test --workspace -q

echo "==> benchmark harness compiles against the workspace (cargo check perfbench/harness)"
# perfbench/harness links the workspace crates by path from a workspace
# of its own, so nothing above builds it; a removed or changed public
# item it uses would otherwise surface only when the benchmark runs.
cargo check --offline --manifest-path perfbench/harness/Cargo.toml

echo "==> perf smoke + regression guard (condspec perf --quick --compare)"
cargo build --release -p condspec-cli
mkdir -p target/perf-smoke
# One invocation runs the 17 quick cells (13 simulation cells, 4 stage
# cells), validates the report (schema, nonzero work and rates in every
# cell), writes it, and compares it with the committed baseline, exiting
# non-zero on any regression:
#
#   * work per cell (sim_cycles / committed_inst, or a stage cell's
#     ops / checksum) — exact equality on every host, because it is
#     deterministic.
#   * throughput per cell (committed_inst/s, or ops/s) — compared only
#     when this machine matches the baseline's recorded host (tag,
#     rustc, CPU count; the refusal names the mismatching field),
#     failing below 0.70x. Set CONDSPEC_SKIP_PERF_GUARD=1 to skip it
#     explicitly (e.g. a loaded or throttled machine).
#
# After a deliberate timing-model or stage-workload change, regenerate
# the baseline with the one command below, and only on the host whose
# throughput this leg should gate: the baseline records that host, and
# a baseline recorded elsewhere turns the throughput half off here.
#     ./target/release/condspec perf --quick --out ci/perf-quick-baseline.json
./target/release/condspec perf --quick --out target/perf-smoke/simspeed.json \
    --compare ci/perf-quick-baseline.json

echo "==> engine program-cache smoke (one build per distinct program)"
# The icache sweep (44 jobs: 22 benchmarks x {filter off, on}, all on
# the default iteration counts) requests 88 programs (warm-up + measured
# per job) over 44 distinct (benchmark, iterations) keys. The cache must
# build each exactly once — 44 builds, 44 hits — and report it on the
# sweep's `program-cache:` log line.
sweep_log="target/perf-smoke/icache-sweep.log"
./target/release/condspec sweep icache --jobs 2 --root target/perf-smoke/runs \
    2> "$sweep_log" >/dev/null
grep -q "program-cache: 44 builds, 44 hits" "$sweep_log" || {
    echo "icache sweep cache counters unexpected; log says:" >&2
    grep "program-cache" "$sweep_log" >&2 || echo "(no program-cache line)" >&2
    exit 1
}
echo "program-cache smoke ok: $(grep "program-cache" "$sweep_log")"
rm -rf target/perf-smoke/runs

echo "==> trace smoke (condspec trace --format perfetto)"
trace_out="target/perf-smoke/trace.json"
./target/release/condspec trace --kind v1 --events 4096 --format perfetto --out "$trace_out"
python3 ci/validate_trace.py "$trace_out"

echo "==> timeseries smoke (condspec timeseries, two runs byte-identical)"
ts_out="target/perf-smoke/timeseries.json"
./target/release/condspec timeseries --name gcc --iters 2 --window 2000 --format json --out "$ts_out"
./target/release/condspec timeseries --name gcc --iters 2 --window 2000 --format json --out "$ts_out.rerun"
cmp "$ts_out" "$ts_out.rerun"
rm "$ts_out.rerun"
python3 - "$ts_out" <<'EOF'
import json, sys

doc = json.load(open(sys.argv[1]))
series = doc["timeseries"]
assert series["schema"] == "condspec-timeseries-v1", \
    f"unexpected series schema: {series['schema']}"
assert series["rows_dropped"] == 0, \
    f"{series['rows_dropped']} windows dropped in the smoke run"
rows = series["rows"]
assert rows, "the run sampled no windows"
start = 0
for row in rows:
    assert row["start"] == start, f"windows do not tile: {row}"
    assert 0 < row["cycles"] <= 2000, f"bad window size: {row}"
    start += row["cycles"]
metrics = doc["metrics"]
for key in ("core.cycles", "core.ipc", "policy.blocks", "mem.l1d_hit_rate"):
    assert key in metrics, f"metrics registry is missing {key}"
print(f"timeseries ok: {len(rows)} windows, {len(metrics)} metrics")
EOF

echo "==> result-store smoke (fig5 twice: the warm run re-simulates nothing)"
# A scaled fig5 (2 measured + 1 warm-up iteration per benchmark job)
# keeps the smoke fast; scaling changes every job hash and the sweep id,
# so the store entries are honestly keyed to exactly this computation.
store_root="target/perf-smoke/store"
runs_cold="target/perf-smoke/runs-cold"
runs_warm="target/perf-smoke/runs-warm"
rm -rf "$store_root" "$runs_cold" "$runs_warm"
cold_log="target/perf-smoke/fig5-cold.log"
warm_log="target/perf-smoke/fig5-warm.log"
./target/release/condspec sweep fig5 --jobs 2 --iters 2 --warmup 1 \
    --store-root "$store_root" --root "$runs_cold" \
    >/dev/null 2> "$cold_log"
grep -q "result-store: 0 hits, 110 misses, 110 inserts" "$cold_log" || {
    echo "cold fig5 store counters unexpected; log says:" >&2
    grep "result-store" "$cold_log" >&2 || echo "(no result-store line)" >&2
    exit 1
}
warm_out="target/perf-smoke/fig5-warm.out"
./target/release/condspec sweep fig5 --jobs 2 --iters 2 --warmup 1 \
    --store-root "$store_root" --root "$runs_warm" \
    > "$warm_out" 2> "$warm_log"
grep -q "result-store: 110 hits, 0 misses, 0 inserts" "$warm_log" || {
    echo "warm fig5 store counters unexpected; log says:" >&2
    grep "result-store" "$warm_log" >&2 || echo "(no result-store line)" >&2
    exit 1
}
grep -q " 0 executed, 110 store hits," "$warm_out" || {
    echo "warm fig5 re-simulated jobs; summary says:" >&2
    grep "^sweep " "$warm_out" >&2
    exit 1
}
# The job artifacts of the cold and warm runs are byte-identical; only
# manifest.json differs (its per-job `source` column records simulated
# vs store provenance).
python3 - "$runs_cold" "$runs_warm" <<'EOF'
import hashlib, pathlib, sys

def digest(root):
    (sweep_dir,) = [d for d in pathlib.Path(root).iterdir() if d.is_dir()]
    return sweep_dir.name, {
        f.name: hashlib.sha256(f.read_bytes()).hexdigest()
        for f in sweep_dir.iterdir() if f.name != "manifest.json"
    }

cold_id, cold_files = digest(sys.argv[1])
warm_id, warm_files = digest(sys.argv[2])
assert cold_id == warm_id, f"sweep ids diverged: {cold_id} vs {warm_id}"
assert len(cold_files) == 110, f"expected 110 artifacts, found {len(cold_files)}"
assert cold_files == warm_files, "artifacts differ between cold and warm runs"
print(f"store smoke ok: {len(cold_files)} artifacts byte-identical (sha256) for {cold_id}")
EOF
# Reports render identically from the cold run dir and from the warm
# one backed by the store (even with run-dir artifacts deleted).
sweep_id=$(basename "$runs_cold"/fig5-*)
./target/release/condspec report "$sweep_id" --root "$runs_cold" \
    > target/perf-smoke/fig5-report-cold.txt
rm "$runs_warm/$sweep_id"/*.json
cp "$runs_cold/$sweep_id/manifest.json" "$runs_warm/$sweep_id/manifest.json"
./target/release/condspec report "$sweep_id" --root "$runs_warm" \
    --store-root "$store_root" > target/perf-smoke/fig5-report-warm.txt
cmp target/perf-smoke/fig5-report-cold.txt target/perf-smoke/fig5-report-warm.txt || {
    echo "store-backed report differs from the run-dir report" >&2
    exit 1
}
echo "report smoke ok: store-backed render matches the run-dir render"

echo "==> store maintenance smoke (condspec store stats/verify)"
store_stats="target/perf-smoke/store-stats.txt"
./target/release/condspec store stats --root "$store_root" | tee "$store_stats"
grep -q "store stats: 110 entries" "$store_stats" || {
    echo "store stats line unexpected" >&2
    exit 1
}
./target/release/condspec store verify --root "$store_root"
rm -rf "$runs_cold" "$runs_warm"

echo "==> sampled-run smoke (functional checkpoints -> detailed windows -> stitched report)"
# A sampled run functionally fast-forwards to evenly spaced checkpoints
# (held in memory), runs a detailed window from each, and stitches the
# windows into a whole-program estimate. The whole pipeline is
# deterministic, so two runs render byte-identical reports.
sampled_bin="target/perf-smoke/gcc.bin"
sampled_out="target/perf-smoke/sampled-run.txt"
sampled_log="target/perf-smoke/sampled-run.log"
./target/release/condspec save --name gcc --file "$sampled_bin"
./target/release/condspec run --file "$sampled_bin" --mode sampled \
    --checkpoints 4 --window 2000 > "$sampled_out" 2> "$sampled_log"
grep -q "stitched estimate:" "$sampled_out" || {
    echo "sampled run produced no stitched estimate:" >&2
    cat "$sampled_out" >&2
    exit 1
}
./target/release/condspec run --file "$sampled_bin" --mode sampled \
    --checkpoints 4 --window 2000 > "$sampled_out.rerun" 2>/dev/null
# The header line carries the run's wall time; everything below it (the
# per-window table and the stitched estimate) must be byte-identical.
cmp <(tail -n +2 "$sampled_out") <(tail -n +2 "$sampled_out.rerun") || {
    echo "sampled runs are not deterministic" >&2
    diff "$sampled_out" "$sampled_out.rerun" >&2 || true
    exit 1
}
rm "$sampled_out.rerun"
# The body alone is pinned by the observation digests below.
tail -n +2 "$sampled_out" > target/perf-smoke/sampled-run.body
echo "sampled smoke ok: $(grep 'stitched estimate:' "$sampled_out")"

echo "==> leak-oracle smoke (condspec leaks --quick, deterministic, claim reproduced)"
# The quick corpus probes one conditional-branch gadget and one
# return-stack gadget under every defense; the matrix must reproduce the
# paper's security claim, and two runs must agree byte-for-byte (the
# probes, like everything else in the simulator, are deterministic). The
# full-corpus JSON document is the CI artifact.
leaks_out="target/perf-smoke/leaks-quick.txt"
./target/release/condspec leaks --quick > "$leaks_out"
grep -q "security claim .*: REPRODUCED" "$leaks_out" || {
    echo "leak matrix does not reproduce the security claim:" >&2
    cat "$leaks_out" >&2
    exit 1
}
grep -q "LEAKS(" "$leaks_out" || {
    echo "leak matrix flags no Origin leak:" >&2
    cat "$leaks_out" >&2
    exit 1
}
./target/release/condspec leaks --quick > "$leaks_out.rerun"
cmp "$leaks_out" "$leaks_out.rerun" || {
    echo "leak probes are not deterministic" >&2
    exit 1
}
rm "$leaks_out.rerun"
./target/release/condspec leaks --all --out target/perf-smoke/leaks.json > /dev/null
echo "leak smoke ok: $(grep 'security claim' "$leaks_out")"

echo "==> security sweep digests (table4 --jobs 1 and leaks --jobs 2 match perfbench/reference/security-artifacts.sha256)"
# An engine worker keeps one simulator per machine and resets it in
# place between jobs, whatever their defense: with one worker, a single
# simulator runs all 40 table4 jobs; two workers split the 16 leak
# probes. No store is involved, so every artifact is simulated here and
# must equal the committed reference byte for byte (compared by sha256;
# the reference file is only read). The rendered tables — stdout without
# the closing `sweep <id>:` line, which names the run directory — are
# pinned by the observation digests below.
sec_table4="target/perf-smoke/security-table4"
sec_leaks="target/perf-smoke/security-leaks"
rm -rf "$sec_table4" "$sec_leaks"
./target/release/condspec sweep table4 --jobs 1 --root "$sec_table4" \
    > "$sec_table4.out" 2> "$sec_table4.log"
./target/release/condspec sweep leaks --jobs 2 --root "$sec_leaks" \
    > "$sec_leaks.out" 2> "$sec_leaks.log"
sed '$d' "$sec_table4.out" > target/perf-smoke/sweep-table4.txt
sed '$d' "$sec_leaks.out" > target/perf-smoke/sweep-leaks.txt
python3 - perfbench/reference/security-artifacts.sha256 "$sec_table4" "$sec_leaks" <<'EOF'
import hashlib, pathlib, sys

want = {}
for line in open(sys.argv[1]):
    if line.strip() and not line.startswith("#"):
        name, digest = line.split()
        want[name] = digest
got = {}
for root in sys.argv[2:]:
    (sweep_dir,) = [d for d in pathlib.Path(root).iterdir() if d.is_dir()]
    for f in sweep_dir.glob("*.json"):
        if f.name != "manifest.json":
            got[f.name] = hashlib.sha256(f.read_bytes()).hexdigest()
assert len(want) == 56, f"the reference lists {len(want)} artifacts, expected 56"
missing = sorted(set(want) - set(got))
extra = sorted(set(got) - set(want))
assert not missing and not extra, f"missing {missing}, unexpected {extra}"
wrong = sorted(name for name in want if got[name] != want[name])
assert not wrong, f"artifacts differ from the reference: {wrong}"
print(f"security digests ok: {len(want)}/{len(want)} artifacts match the reference")
EOF
rm -rf "$sec_table4" "$sec_leaks"

echo "==> observation digests (timeseries, trace, sampled-run, leaks and security-table outputs match ci/observation-digests.sha256)"
# The smokes above only compare two runs of the same binary, which
# cannot see a change that alters what the simulator observes. These
# digests pin the outputs themselves: the timeseries series (JSON and
# CSV), the Perfetto trace of a V1 round, the quick leak matrix, the
# sampled run's window table and stitched estimate (its output below
# the wall-time header), and the rendered Table IV and leak-matrix
# sweeps. A change that legitimately alters them regenerates the file
# with
#     (cd target/perf-smoke && sha256sum timeseries.json timeseries.csv \
#         trace.json leaks-quick.txt sampled-run.body sweep-table4.txt \
#         sweep-leaks.txt) > ci/observation-digests.sha256
./target/release/condspec timeseries --name gcc --iters 2 --window 2000 --format csv \
    --out target/perf-smoke/timeseries.csv
(cd target/perf-smoke && sha256sum -c ../../ci/observation-digests.sha256)

echo "==> distributed sweep smoke (2 shards race one store root, zero duplicates)"
# Two `condspec sweep --owner` shards share one fresh store root and
# drain the scaled fig5 sweep through the claims/ lease protocol: every
# job is simulated by exactly one shard (the duplicate-insert counter
# stays 0 in both stderr logs and the insert counts sum to the job
# count), and a collect pass afterwards sees 110/110 store hits. The
# merged artifacts must be byte-identical to a single-process run.
dist_store="target/perf-smoke/dist-store"
dist_runs="target/perf-smoke/dist-runs"
runs_single="target/perf-smoke/runs-single"
rm -rf "$dist_store" "$dist_runs" "$runs_single" "$dist_runs"-shard-*
wa_out="target/perf-smoke/dist-worker-a.out"
wb_out="target/perf-smoke/dist-worker-b.out"
./target/release/condspec sweep fig5 --iters 2 --warmup 1 \
    --store-root "$dist_store" --owner shard-a --root "$dist_runs-shard-a" \
    > "$wa_out" 2> "$wa_out.log" &
shard_a=$!
./target/release/condspec sweep fig5 --iters 2 --warmup 1 \
    --store-root "$dist_store" --owner shard-b --root "$dist_runs-shard-b" \
    > "$wb_out" 2> "$wb_out.log" &
shard_b=$!
wait "$shard_a" || { echo "shard-a failed:" >&2; tail -n 20 "$wa_out.log" >&2; exit 1; }
wait "$shard_b" || { echo "shard-b failed:" >&2; tail -n 20 "$wb_out.log" >&2; exit 1; }
for log in "$wa_out.log" "$wb_out.log"; do
    grep -q "0 duplicate simulations" "$log" || {
        echo "a shard simulated a job twice; $log says:" >&2
        grep "claims:" "$log" >&2 || echo "(no claims line)" >&2
        exit 1
    }
done
python3 - "$wa_out.log" "$wb_out.log" <<'EOF'
import re, sys

inserts = []
for path in sys.argv[1:]:
    text = open(path).read()
    m = re.search(r"result-store: \d+ hits, \d+ misses, (\d+) inserts", text)
    assert m, f"{path} has no result-store line"
    inserts.append(int(m.group(1)))
assert sum(inserts) == 110, f"shards inserted {inserts} — expected a sum of 110"
assert all(n > 0 for n in inserts), f"one shard did no work: {inserts}"
print(f"work split ok: shard inserts {inserts} sum to 110")
EOF
dist_out="target/perf-smoke/dist-collect.out"
./target/release/condspec sweep fig5 --jobs 2 --iters 2 --warmup 1 \
    --store-root "$dist_store" --root "$dist_runs" --owner collect \
    > "$dist_out" 2>/dev/null
grep -q " 0 executed, 110 store hits," "$dist_out" || {
    echo "collect pass re-simulated sharded jobs; summary says:" >&2
    grep "^sweep " "$dist_out" >&2
    exit 1
}
# Merged artifacts are byte-identical to a single-process run (rendered
# from the earlier smoke's warm store — same scaled sweep, all hits).
./target/release/condspec sweep fig5 --jobs 2 --iters 2 --warmup 1 \
    --store-root "$store_root" --root "$runs_single" >/dev/null 2>&1
python3 - "$runs_single" "$dist_runs" <<'EOF'
import hashlib, pathlib, sys

def digest(root):
    (sweep_dir,) = [d for d in pathlib.Path(root).iterdir() if d.is_dir()]
    return sweep_dir.name, {
        f.name: hashlib.sha256(f.read_bytes()).hexdigest()
        for f in sweep_dir.iterdir() if f.name != "manifest.json"
    }

single_id, single_files = digest(sys.argv[1])
dist_id, dist_files = digest(sys.argv[2])
assert single_id == dist_id, f"sweep ids diverged: {single_id} vs {dist_id}"
assert len(dist_files) == 110, f"expected 110 artifacts, found {len(dist_files)}"
assert single_files == dist_files, "sharded artifacts differ from the single-process run"
print(f"distributed smoke ok: {len(dist_files)} artifacts byte-identical (sha256) for {dist_id}")
EOF
# The per-shard provenance manifest (every row carries the owner that
# simulated it) is kept as a CI artifact.
cp "$dist_runs"/fig5-*/manifest.json target/perf-smoke/dist-manifest.json
grep -q '"owner":"shard-a"' target/perf-smoke/dist-manifest.json || {
    echo "manifest records no shard-a provenance" >&2
    exit 1
}
grep -q '"owner":"shard-b"' target/perf-smoke/dist-manifest.json || {
    echo "manifest records no shard-b provenance" >&2
    exit 1
}
rm -rf "$dist_runs" "$dist_runs"-shard-*

echo "==> mixed-fleet smoke (serve + --attach sweep/worker + store-root shard, one lease protocol)"
# The daemon takes each remote job's lease in its own store root under
# the pulling worker's owner id, so an `--attach` worker and a `condspec
# sweep --owner` shard on that root drain one distributed submission
# together: neither simulates a job the other holds (the HTTP worker's
# completions plus the shard's inserts sum to 110, with 0 duplicate
# simulations), and the daemon's merged artifacts are sha256-identical
# to the single-process run.
mixed_store="target/perf-smoke/mixed-store"
mixed_runs="target/perf-smoke/mixed-runs"
mixed_shard_runs="target/perf-smoke/mixed-shard-runs"
rm -rf "$mixed_store" "$mixed_runs" "$mixed_shard_runs"
mixed_serve="target/perf-smoke/mixed-serve.log"
mixed_submit="target/perf-smoke/mixed-sweep-attach.log"
http_out="target/perf-smoke/mixed-worker-attach.out"
fs_out="target/perf-smoke/mixed-worker-store.out"
./target/release/condspec serve --addr 127.0.0.1:0 --jobs 1 \
    --root "$mixed_runs" --store-root "$mixed_store" > "$mixed_serve" 2>&1 &
serve_pid=$!
mixed_pids="$serve_pid"
mixed_fail() {
    echo "$1" >&2
    for log in "$mixed_serve" "$mixed_submit" "$http_out.log" "$fs_out.log"; do
        if [ -f "$log" ]; then
            echo "--- $log" >&2
            tail -n 20 "$log" >&2
        fi
    done
    # shellcheck disable=SC2086
    kill $mixed_pids 2>/dev/null || true
    exit 1
}
for _ in $(seq 1 100); do
    grep -q "^condspec-serve listening on " "$mixed_serve" && break
    sleep 0.1
done
mixed_addr=$(sed -n 's|^condspec-serve listening on http://||p' "$mixed_serve")
[ -n "$mixed_addr" ] || mixed_fail "the daemon did not start"
./target/release/condspec sweep fig5 --iters 2 --warmup 1 --attach "$mixed_addr" \
    > target/perf-smoke/mixed-sweep-attach.out 2> "$mixed_submit" &
submit_pid=$!
mixed_pids="$mixed_pids $submit_pid"
# Start the workers once the submission is registered: a draining HTTP
# worker that finds no active run exits at once.
for _ in $(seq 1 100); do
    grep -q "as distributed submission" "$mixed_submit" && break
    sleep 0.1
done
grep -q "as distributed submission" "$mixed_submit" || mixed_fail "sweep --attach did not submit"
./target/release/condspec worker --attach "$mixed_addr" --drain --owner http-w \
    > "$http_out" 2> "$http_out.log" &
http_pid=$!
./target/release/condspec sweep fig5 --iters 2 --warmup 1 --store-root "$mixed_store" \
    --owner store-w --root "$mixed_shard_runs" > "$fs_out" 2> "$fs_out.log" &
fs_pid=$!
mixed_pids="$mixed_pids $http_pid $fs_pid"
wait "$http_pid" || mixed_fail "worker --attach failed"
wait "$fs_pid" || mixed_fail "sweep --owner store-w failed"
wait "$submit_pid" || mixed_fail "sweep --attach failed"
kill "$serve_pid" 2>/dev/null || true
wait "$serve_pid" 2>/dev/null || true
grep -q "0 duplicate simulations" "$fs_out.log" \
    || mixed_fail "the store-root shard counted a duplicate simulation"
python3 - "$http_out" "$fs_out.log" "$runs_single" "$mixed_runs" <<'EOF'
import hashlib, pathlib, re, sys

http_out, fs_out, single_root, mixed_root = sys.argv[1:]
m = re.search(r"(\d+) jobs completed", open(http_out).read())
assert m, f"{http_out} has no completion line"
completed = int(m.group(1))
m = re.search(r"result-store: \d+ hits, \d+ misses, (\d+) inserts", open(fs_out).read())
assert m, f"{fs_out} has no result-store line"
inserts = int(m.group(1))
assert completed + inserts == 110, (
    f"the --attach worker completed {completed} and the store-root shard "
    f"inserted {inserts}: expected a sum of 110"
)

def digest(root):
    (sweep_dir,) = [d for d in pathlib.Path(root).iterdir() if d.is_dir()]
    return sweep_dir.name, {
        f.name: hashlib.sha256(f.read_bytes()).hexdigest()
        for f in sweep_dir.iterdir() if f.name != "manifest.json"
    }

single_id, single_files = digest(single_root)
mixed_id, mixed_files = digest(mixed_root)
assert single_id == mixed_id, f"sweep ids diverged: {single_id} vs {mixed_id}"
assert len(mixed_files) == 110, f"expected 110 artifacts, found {len(mixed_files)}"
assert single_files == mixed_files, "mixed-fleet artifacts differ from the single-process run"
print(f"mixed-fleet smoke ok: {completed} via --attach + {inserts} via --store-root = 110, "
      f"artifacts byte-identical (sha256) for {mixed_id}")
EOF
cp "$mixed_runs"/fig5-*/manifest.json target/perf-smoke/mixed-manifest.json
rm -rf "$runs_single" "$mixed_runs" "$mixed_shard_runs"

echo "==> serve smoke (daemon round-trip: submit, stream, report, 100% warm hits)"
python3 ci/serve_smoke.py ./target/release/condspec target/perf-smoke

echo "ci.sh: all checks passed"
