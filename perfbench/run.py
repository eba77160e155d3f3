#!/usr/bin/env python3
"""Repository benchmark for condspec: builds the measuring program and runs it.

One run of one workload:

    python3 perfbench/run.py --workload fig5-cold --seed 1 --seconds 30 --trace 0

builds ``perfbench/harness`` (a Cargo package of its own, linking the
repository's crates by path) into ``$CARGO_TARGET_DIR`` (default
``.bench_build``), runs the workload and passes its output through. The
last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}`` with the end-to-end
metrics (``--trace 0``) or the per-layer metrics (``--trace 1``). A copy
of each result, with the host block (CPU count, ``rustc -V``, host tag),
goes to ``.bench_run/results/``; traced runs also leave their spans in
``.bench_run/spans-<workload>-seed<n>.jsonl``.

Other modes:

    python3 perfbench/run.py --steadiness [--workload W ...] [--runs 10] [--trace 0|1]
        runs every named workload with seeds 1..runs and prints, per metric,
        the median, quartiles and IQR/median against BENCHMARK.json's bound;
        also checks each run's measured load (most threads alive at once
        beside the fewest, and client connections) against its limit.
    python3 perfbench/run.py --references
        regenerates perfbench/reference/ (fig5 and security-matrix artifact
        digests; sampled-long reference cycles from a full detailed run).

Run from the repository root. Reads and writes only inside it.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join("perfbench", "harness", "Cargo.toml")
REFS = os.path.join("perfbench", "reference")
RUN_DIR = ".bench_run"
RUN_TIMEOUT_S = 175
WORKERS = 2
# The measured thread figure counts a pool's workers plus the previous
# pool's while they exit, so its limit is twice the workers; warm-serve's
# daemon adds the handler of the open connection and the submission
# runner.
THREAD_LIMIT = {"warm-serve": 2 * WORKERS + 2}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Builds the harness; returns the binary path or None."""
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        log(f"perfbench: cannot run cargo: {e}")
        return None
    if done.returncode != 0:
        log("perfbench: building the harness failed")
        return None
    target = env["CARGO_TARGET_DIR"]
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    binary = os.path.join(target, "release", "condspec-perfbench")
    return binary if os.path.isfile(binary) else None


def host_block():
    cpus = os.cpu_count() or 0
    try:
        rustc = subprocess.run(["rustc", "-V"], capture_output=True, text=True).stdout.strip()
    except OSError:
        rustc = "unknown"
    return {"tag": f"{platform.machine()}-{cpus}cpu", "rustc": rustc, "cpus": cpus}


def run_once(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, stdout lines)."""
    work = os.path.join(RUN_DIR, f"work-{workload}-{seed}-{os.getpid()}")
    cmd = [binary, "run", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--work", work, "--refs", REFS]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log(f"perfbench: {workload} did not finish within {RUN_TIMEOUT_S}s")
        return 1, []
    return proc.returncode, out.splitlines()


def parse_result(lines):
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    return result if set(result) == {"correct", "attempted", "failed", "metrics"} else None


def record(workload, seed, trace, lines, result):
    os.makedirs(os.path.join(ROOT, RUN_DIR, "results"), exist_ok=True)
    path = os.path.join(ROOT, RUN_DIR, "results", f"{workload}-seed{seed}-trace{trace}.json")
    doc = {"workload": workload, "seed": seed, "trace": trace, "host": host_block(),
           "summary": lines[-2] if len(lines) > 1 else "", "result": result}
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


def single(args):
    binary = build()
    if binary is None:
        return 1
    code, lines = run_once(binary, args.workload, args.seed, args.seconds, args.trace)
    for line in lines:
        print(line)
    result = parse_result(lines)
    if code != 0 or result is None:
        log("perfbench: the run produced no result")
        return code or 1
    record(args.workload, args.seed, args.trace, lines, result)
    return 0


def load_ok(workload, seed, summary):
    """Checks one run's measured load, read from its summary line."""
    fields = dict(f.split("=", 1) for f in summary.split() if "=" in f)
    try:
        threads, clients = int(fields["threads"]), int(fields["clients"])
    except (KeyError, ValueError):
        log(f"{workload} seed {seed}: the summary has no measured load: {summary}")
        return False
    limit = THREAD_LIMIT.get(workload, 2 * WORKERS)
    if threads <= limit and clients <= 1:
        return True
    log(f"{workload} seed {seed}: load over its limit: threads={threads} (limit {limit}), "
        f"clients={clients} (limit 1)")
    return False


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def steadiness(args):
    """Runs each workload `runs` times and prints quartiles per metric."""
    bench = load_benchmark()
    binary = build()
    if binary is None:
        return 1
    workloads = args.workload_list or [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    ok = True
    for workload in workloads:
        values = {}
        for seed in range(1, args.runs + 1):
            code, lines = run_once(binary, workload, seed, seconds, args.trace)
            result = parse_result(lines)
            if code != 0 or result is None or not result["correct"]:
                log(f"{workload} seed {seed}: failed run (exit {code})")
                ok = False
                continue
            record(workload, seed, args.trace, lines, result)
            summary = lines[-2] if len(lines) > 1 else ""
            ok &= load_ok(workload, seed, summary)
            metrics = result["metrics"]
            if metrics.get("engine.max_concurrent_jobs", {}).get("value", 0) > WORKERS:
                log(f"{workload} seed {seed}: more than {WORKERS} traced jobs ran at once")
                ok = False
            for name, m in metrics.items():
                values.setdefault(name, []).append(m["value"])
            log(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in metrics.items() if k in bounds or not bounds))
        print(f"\n{workload} ({args.runs} runs, {seconds}s each, trace {args.trace})")
        print(f"  {'metric':34} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} {'bound':>6}")
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                flag = "  OVER BOUND" if spread > bound else ("  over bound/3" if spread > bound / 3 else "")
                ok &= spread <= bound
            print(f"  {name:34} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.4f} "
                  f"{'' if bound is None else bound:>6}{flag}")
    return 0 if ok else 1


def references():
    binary = build()
    if binary is None:
        return 1
    return subprocess.run([binary, "references", "--work", os.path.join(RUN_DIR, "references"),
                           "--refs", REFS], cwd=ROOT).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", dest="workload_list")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--steadiness", action="store_true")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--references", action="store_true")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, MANIFEST)):
        log("perfbench: run from a checkout of the repository")
        return 1
    if args.references:
        return references()
    if args.steadiness:
        return steadiness(args)
    if not args.workload_list or len(args.workload_list) != 1 or args.seconds is None:
        parser.error("a single run needs --workload, --seed and --seconds")
    args.workload = args.workload_list[0]
    return single(args)


if __name__ == "__main__":
    sys.exit(main())
