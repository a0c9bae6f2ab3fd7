#!/usr/bin/env python3
"""Pixels-to-alert benchmark: build from source, run, report.

    python3 perfbench/run.py --workload feed_5fps --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload
    python3 perfbench/run.py --selftest                   # the benchmark's own tests

The first call configures and compiles perfbench/ (which compiles the
repository's src/ with the top-level Release settings) into
.bench_build/ at the root of the checkout; later calls rebuild
incrementally. Build output goes to stderr. The benchmark binary's
report goes to stdout; its last line is one JSON object with the keys
correct, attempted, failed and metrics. The exit code is nonzero when
the build fails, the correctness gate fails or a run overruns.
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
BUILD = ROOT / ".bench_build"
CMAKE_DIR = BUILD / "cmake"
WORKLOADS = ["deploy_closed", "feed_5fps", "replay_batched"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def run_logged(cmd, timeout):
    """Runs a build step with its output on stderr and the compiler's
    temporary files inside the build tree."""
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                          env=dict(os.environ, TMPDIR=str(tmp)),
                          timeout=timeout, check=False)
    if proc.returncode != 0:
        fail(f"command failed ({proc.returncode}): {' '.join(map(str, cmd))}")


def build(target):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("the repository sources (src/) are not next to perfbench/")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    if not (CMAKE_DIR / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(CMAKE_DIR),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_logged(cmd, BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_logged(["cmake", "--build", str(CMAKE_DIR), "--target", target,
                "-j", jobs], max(1.0, deadline - time.monotonic()))
    return CMAKE_DIR / target


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10,
                             check=False)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def source_digest():
    """sha256 over the program and benchmark sources (the checkout may
    not be a git repository, so this identifies the code measured)."""
    h = hashlib.sha256()
    files = []
    for top in (ROOT / "src", HERE / "src"):
        files += [p for p in top.rglob("*") if p.is_file()]
    files.append(HERE / "CMakeLists.txt")
    for p in sorted(files):
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def run_workload(binary, workload, args, provenance):
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(BUILD / "results"),
           "--cache-dir", str(BUILD / "cache"),
           "--git-sha", provenance[0], "--source-digest", provenance[1]]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: no result within {RUN_TIMEOUT_S} s", 4)
    return proc.returncode, proc.stdout


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--selftest", action="store_true",
                   help="build and run the benchmark's own tests")
    args = p.parse_args()

    if args.selftest:
        binary = build("perfbench_tests")
        sys.exit(subprocess.run([str(binary)], cwd=ROOT, check=False).returncode)
    if args.workload is None:
        p.error("--workload is required")

    binary = build("ocb_perfbench")
    provenance = (git_sha(), source_digest())
    if args.workload != "all":
        code, out = run_workload(binary, args.workload, args, provenance)
        sys.stdout.write(out)
        sys.exit(code)

    # Every workload in turn; the last line merges their results.
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        code, out = run_workload(binary, workload, args, provenance)
        sys.stdout.write(out)
        worst = worst or code
        lines = out.strip().splitlines()
        if code not in (0, 1) or not lines:
            fail(f"{workload}: exited {code} without a result", code or 3)
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(merged))
    sys.exit(worst)


if __name__ == "__main__":
    main()
