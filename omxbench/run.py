#!/usr/bin/env python3
"""End-to-end benchmark for OMX.

Run from the repository root:

    python3 omxbench/run.py --workload explicit --seed 1 --seconds 10 --trace 0

The first run configures and builds the OMX libraries and the benchmark
program (omxbench/omxbench.cpp) under .bench_build/omxbench; later runs
reuse that build. Native kernels of the fixed models are cached in
.bench_build/kcache across runs. Each run gets a private work directory under .bench_build for
the cold compiles and the host compiler's temporary files, removed when
the run ends. The program's result (one JSON object) is the last line of
standard output.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("compile", "explicit", "stiff", "daemon")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700  # a first run (build + run) stays under 15 minutes


def fail(msg, code=1):
    print(f"omxbench: {msg}", file=sys.stderr)
    sys.exit(code)


def run_group(cmd, timeout, **kwargs):
    """Runs cmd in its own process group and returns (returncode, stdout).

    On timeout the whole group (the host compilers the program spawns
    included) is killed and reaped; returncode is then None.
    """
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
        return proc.returncode, out
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, None


def build(bench_dir, build_dir):
    """Configures (once) and builds the program; returns its path."""
    log_path = build_dir.parent / "omxbench-build.log"
    build_dir.parent.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(bench_dir), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *gen])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    with open(log_path, "a") as log:
        for cmd in steps:
            left = max(1.0, deadline - time.monotonic())
            rc, _ = run_group(cmd, left, stdout=log, stderr=subprocess.STDOUT)
            if rc is None:
                fail(f"build timed out (log: {log_path})")
            if rc != 0:
                fail(f"build failed: {' '.join(cmd)} (log: {log_path})")
    exe = build_dir / "omxbench"
    if not exe.is_file():
        fail(f"program not built (log: {log_path})")
    return exe


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        fail("--seconds must be positive and --seed non-negative", 2)

    root = Path.cwd()
    bench_dir = Path(__file__).resolve().parent
    if not (bench_dir.parent / "src" / "CMakeLists.txt").is_file():
        fail("OMX sources (src/) not found next to the benchmark", 2)

    exe = build(bench_dir, root / ".bench_build" / "omxbench")

    work = root / ".bench_build" / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    # A clean OMX environment: no inherited knob may change what is measured.
    env = {k: v for k, v in os.environ.items() if not k.startswith("OMX_")}
    env["TMPDIR"] = str(work / "tmp")
    kcache = root / ".bench_build" / "kcache"
    env["OMX_NATIVE_CACHE_DIR"] = str(kcache)
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work), "--cache-dir", str(kcache)]
    try:
        rc, out = run_group(cmd, RUN_TIMEOUT_S, env=env,
                            stdout=subprocess.PIPE, text=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if rc is None:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = out.strip().splitlines()
    if rc != 0 or not lines:
        fail(f"omxbench exited with code {rc}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("omxbench printed no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("omxbench result has unexpected keys")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
