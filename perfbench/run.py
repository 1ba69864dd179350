#!/usr/bin/env python3
"""Benchmark command: build the runner, run one workload, print metrics.

    python3 perfbench/run.py --workload NAME [--seed N] --seconds S --trace 0|1

Run from the repository root. The first call configures and builds the
runner from source into .bench_build/perfbench (a few minutes); later
calls reuse the build. The last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1. The exit
code is 0 only when every step and correctness check passed.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import metrics  # noqa: E402

WORKLOADS = ("solo_fmm", "cluster_tree", "cluster_lossy_ckpt")
DEADLINE_S = 170.0  # a run (past the first build) must end within 180 s


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(bench_dir, build_dir):
    jobs = str(len(os.sched_getaffinity(0)))
    # Keep the compiler's temporary files inside the build tree too.
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(bench_dir), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr, env=env)
    subprocess.run(["cmake", "--build", str(build_dir), "--target",
                    "perfbench", "-j", jobs], check=True, stdout=sys.stderr,
                   env=env)
    return build_dir / "perfbench"


def measure(exe, args, out_path, scratch, budget_s):
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(out_path), "--scratch", str(scratch)]
    proc = subprocess.Popen(cmd, stdout=sys.stderr)
    try:
        return proc.wait(timeout=budget_s)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("perfbench: runner exceeded %.0f s and was stopped" % budget_s)
        return None


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", default=1, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be >= 0 and --seconds > 0")

    bench_dir = Path(__file__).resolve().parent
    root = bench_dir.parent
    if not (root / "src" / "CMakeLists.txt").exists():
        log("perfbench: no library sources under %s/src; run from a "
            "checkout of the repository" % root)
        return 2
    try:
        exe = build(bench_dir, root / ".bench_build" / "perfbench")
    except (OSError, subprocess.CalledProcessError) as e:
        log("perfbench: build failed: %s" % e)
        return 1
    start = time.monotonic()

    run_dir = root / ".bench_build" / "perfbench-runs" / (
        "%s-trace%d" % (args.workload, args.trace))
    scratch = run_dir / ("scratch-%d" % os.getpid())
    out_path = run_dir / "raw.json"
    run_dir.mkdir(parents=True, exist_ok=True)
    if out_path.exists():
        out_path.unlink()
    budget = DEADLINE_S - (time.monotonic() - start)
    try:
        rc = measure(exe, args, out_path, scratch, max(budget, 1.0))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if rc != 0 or not out_path.exists():
        log("perfbench: runner failed (exit %s)" % rc)
        return 1
    raw = json.loads(out_path.read_text())

    prov = raw["provenance"]
    print("provenance: " + json.dumps(prov, sort_keys=True))
    if raw["error"]:
        print("error: " + raw["error"])
    attempted, failed = metrics.count_failures(raw)
    if args.trace == 0:
        values, units = metrics.end_to_end(raw), metrics.END_TO_END
        tail = metrics.tail_percentile(raw["step_wall_s"])
        if tail:
            print("step_wall_tail_s: p%.1f of %d timed steps" % tail[1:])
    else:
        values, units = metrics.per_layer(raw), metrics.PER_LAYER
    print("force_rms_err %s (ceiling %g), restore_ok %s, failed steps %d" % (
        raw["force_rms_err"], raw["force_ceiling"], raw["restore_ok"],
        raw["failed_steps"]))
    for name, unit in units.items():
        print("%-28s %-14.6g %s" % (name, values[name], unit))

    if any(not math.isfinite(values[name]) for name in units):
        failed = max(failed, 1)  # e.g. too few steps for the tail metric
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name] if math.isfinite(
            values[name]) else None, "unit": unit}
            for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
