#!/usr/bin/env python3
"""Repository benchmark: builds the simulator and its measuring program
from source, runs one workload, checks its outputs and prints the result.

Usage (from the repository root):

    python3 perfbench/run.py --workload fig06_grid|light_8x8|big_1m \\
        --seed N --seconds S --trace 0|1

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
metrics are the end-to-end metrics of BENCHMARK.json, with `--trace 1`
its per-layer metrics. The line before it stamps the run (host, compiler,
build type, source revision, seed, held-out seed, checks and digests).
Build output, the stamped result and the traced run's Chrome-trace spans
go under `.bench_build/perfbench/` in the repository root.

Exit status: 0 when the run completed and every correctness check held;
1 when the program failed a check or crashed (a result line is still
printed, with `correct` false); 2 when the program could not be built or
the arguments are wrong (no result line).
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = BUILD / "out"
# Seeds 1-10 were used while the benchmark was tuned; this one was not.
# Check a performance or model claim on it before accepting the claim.
HELD_OUT_SEED = 4040
# A measuring run must end within 180 s of its start (the first run in a
# checkout also builds); leave the tail for reporting.
RUN_TIMEOUT_S = 170.0


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds hxbench in Release; False on failure."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log("perfbench: no simulator sources next to perfbench/")
        return False
    nproc = os.cpu_count() or 1
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release", *gen])
    steps.append(["cmake", "--build", str(BUILD), "--target", "hxbench",
                  "-j", str(nproc)])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log(f"perfbench: build step failed: {' '.join(cmd)}")
            return False
    return (BUILD / "hxbench").is_file()


def source_revision():
    """The git commit when the checkout is a repository, plus a digest of
    the simulator sources and build files, which names the code measured
    in any checkout."""
    sha = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists() and shutil.which("git"):
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if got.returncode == 0:
            sha = got.stdout.strip()
    h = hashlib.sha256()
    files = sorted(p for d in ("src", "perfbench") for p in (ROOT / d).rglob("*")
                   if p.is_file() and "__pycache__" not in p.parts)
    files.append(ROOT / "CMakeLists.txt")
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    return sha, h.hexdigest()[:16]


def build_type():
    cache = BUILD / "CMakeCache.txt"
    for line in cache.read_text().splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            return line.split("=", 1)[1]
    return ""


def run_program(args, deadline):
    """Runs hxbench; returns (exit code, parsed last stdout line or None)."""
    OUT.mkdir(parents=True, exist_ok=True)
    trace_out = OUT / f"{args.workload}-seed{args.seed}.trace.json"
    cmd = [str(BUILD / "hxbench"), f"--workload={args.workload}",
           f"--seed={args.seed}", f"--seconds={args.seconds}",
           f"--trace={args.trace}", f"--trace-out={trace_out}"]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log("perfbench: hxbench exceeded its time limit")
        return -1, None
    lines = stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return proc.returncode, None


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not build():
        return 2
    code, got = run_program(args, time.monotonic() + RUN_TIMEOUT_S)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if got is None or code != 0:
        log(f"perfbench: hxbench failed (exit {code})")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1

    attempted, failed = int(got["attempted"]), int(got["failed"])
    values = dict(got["metrics"])
    values["completed_frac"] = (attempted - failed) / attempted
    missing = [m["name"] for m in wanted if m["name"] not in values]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}
    correct = failed == 0 and not got["problems"] and not missing
    for problem in got["problems"]:
        log(f"perfbench: check failed: {problem}")
    if missing:
        log(f"perfbench: metrics missing from the program: {missing}")

    sha, src_digest = source_revision()
    btype = build_type()
    stamp = {
        "workload": args.workload, "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED, "trace": args.trace,
        "seconds": args.seconds, "nproc": got["nproc"],
        "jobs": got["jobs"], "step_pool_workers": got["step_pool_workers"],
        "compiler": got["compiler"], "build_type": btype,
        "non_release_build": btype != "Release",
        "git_sha": sha, "source_digest": src_digest,
        "tasks": got["tasks"], "reps": got["reps"],
        "rep_wall_s": got["rep_wall_s"],
        "digest": got["digest"], "counts_digest": got.get("counts_digest"),
        "problems": got["problems"],
        "window_throughput_ratio_by_mech":
            got.get("window_throughput_ratio_by_mech"),
        "layer_self_s": got.get("layer_self_s"),
        "model": "unvalidated: the repository holds no measured reference, "
                 "so simulated metrics carry no error figure",
    }
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.result.json"
     ).write_text(json.dumps({"stamp": stamp, "result": result}, indent=1) + "\n")
    print(json.dumps({"stamp": stamp}))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
