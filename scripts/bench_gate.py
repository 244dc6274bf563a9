#!/usr/bin/env python3
"""Benchmark regression gate.

Compares the BENCH_*.json files produced by the bench binaries (obs JSON
metrics exporter format: {"counters": ..., "gauges": ..., "histograms":
...}) against the checked-in baselines in bench/baselines/ and fails when
a gated throughput metric regresses by more than --tolerance (default
15%).

What is gated vs merely reported:

* fig12.* gauges are *virtual-time* rates out of the simulated 1995
  machines — deterministic and machine-independent — so every
  calls_per_s series point and peak is gated against its baseline.
* backends.native_over_interp is a same-machine *ratio*, so it
  transfers across hosts: it is gated against the repo's >= 2x bar (and
  the baseline when present). The worker-pool rows (static calls/s,
  handoff_us: one pooled call minus one serial call) are report-only.
* ensemble.interp.batched_over_sequential is a same-machine ratio, but
  its numerator uses 4 workers: the repo's >= 3x bar only holds when the
  host actually has that many cores (the bench exports
  ensemble.hardware_concurrency). On smaller hosts the gate falls back
  to the worker-independent SoA batching amortization (>= 1.4x).
* ensemble.native.batched_1worker_over_kernel_w16 is one worker's
  native DOPRI5 lane-evals/s over the same kernel alone at width 16: the
  stepper's own overhead as a same-machine ratio. Report-only: on a
  4-vCPU host it reads 0.80-0.87 against the repo's 0.8 target, so a
  gate there would fail on noise.
* ensemble.hybrid.* gates the event-carrying lanes structurally:
  bitwise_equal == 1 (the ensemble must reproduce the sequential
  per-scenario hybrid solves bit for bit) and events_fired >= the
  scenario count (every bouncing-ball lane localizes at least one
  impact). Both are machine-independent; hybrid throughput and its
  batched/sequential ratio are report-only.
* sparse.heat.n<N>.sparse_over_dense are same-machine wall-clock ratios
  of the stiff path on the tridiagonal heat PDE's structural pattern
  (colored FD + sparse LU on the band) over the same path on the full
  n x n pattern (the problem without its pattern: n+1-call FD + sparse
  LU over every entry, the operations of the retired dense backend):
  parity (>= 1 - tolerance) is required at n <= 16, and the repo's
  >= 2x bar at the largest size. The structural counts are gated as
  exact ceilings — jac_build_rhs_calls <= colors + 1 and colors <= 5
  for the tridiagonal stencil — because they are machine-independent.
  Absolute *_wall_s values are report-only, and so are the
  sparse.full.n<N>.* ratios of the full-pattern sparse LU over the
  textbook dense LuFactors of the tests' oracle header
  (tests/oracle/dense_oracle.hpp; refactor over construct plus factor,
  solve over solve).
* simd.native.batch*_over_scalar are same-machine per-call throughput
  ratios of the vectorized rhs_batch lanes over the scalar native entry
  point on the bearing model. The repo's >= 4x bar applies to the best
  batch width, but only when the host SIMD width actually supports it
  (simd.lane_width >= 4 doubles, i.e. AVX or wider), the native backend
  is available, and the host has >= 4 cores — on 1-2 vCPU shared boxes
  the hypervisor steals cycles from the scalar reference window and the
  measured ratio swings +-30%, so the bar drops to a noise-immune 2.5x
  (still unreachable without real vectorization: a single thread on a
  single core has no other speedup source). On SSE2-only hosts the bar
  is 1.5x, and without a native toolchain the gate falls back to the
  interpreter's batching amortization (>= 1.4x). Baseline tightening
  only transfers between hosts of the same capability class.
* service.* gauges (BENCH_service.json, written by bench/loadgen) gate
  the daemon's correctness invariants, which are machine-independent:
  every submitted job must succeed (jobs_ok == jobs_total) and every
  trajectory row the solver produced must arrive at the client
  (dropped_frames == 0). Tail behavior is gated structurally —
  p99 <= 10x p50 — because the CI load (8 clients against 2 executors
  with an 8-deep queue) is closed-loop and non-saturating, so a fat
  tail means head-of-line blocking in the daemon, not overload.
  Absolute latencies and throughput are report-only. This file only
  runs under --only service: the default bench jobs don't produce it.
* compile.* gauges (BENCH_compile.json, written by bench/compile_scaling)
  gate how the compile path scales on the bearing at N in {10, 40, 160}
  rollers. Per-state compile_model time at the largest N must stay
  within 2x of the smallest (compile_model is linear in the states), and
  task_planning at N=40 must take under 5 ms (the algebraics are inlined
  once, in build_assignments, not per task). Both are ratios or bars
  with a wide margin, so they hold on any host. Per-phase times, the C++
  emission time of the four native forms (superlinear in N) and the
  tape op counts are report-only.
* Absolute wall-clock rates (backends.*.calls_per_s,
  ensemble.*.scen_per_s) vary with CI hardware and are reported for the
  log but never gated.

Usage: scripts/bench_gate.py --current <dir with BENCH_*.json>
                             [--baseline bench/baselines]
                             [--tolerance 0.15] [--only NAME]

Exit status: 0 = all gates pass, 1 = regression, 2 = missing inputs.
"""

import argparse
import json
import os
import sys

GATED_RATIO_BARS = {
    # gauge name -> absolute floor that must hold regardless of baseline
    "backends.native_over_interp": 2.0,
}


def load_metrics(path):
    with open(path) as f:
        return json.load(f)


def report_histograms(gate, fname, current, baseline):
    """Report-only rows for the duration histograms the obs layer exports
    (p50/p99 of pool.task_seconds, rhs.eval_seconds, ...). Percentiles are
    wall-clock and machine-dependent, so they are never gated; the rows
    exist so a CI log diff shows latency shifts next to the throughput
    gates. Tolerates baselines predating the percentile fields."""
    base_hists = baseline.get("histograms", {})
    for name, hist in sorted(current.get("histograms", {}).items()):
        if not hist.get("count"):
            continue
        base = base_hists.get(name, {})
        for q in ("p50", "p99"):
            if q in hist:
                gate.report(f"{fname}:{name}.{q}", hist[q], base.get(q))


def fmt(v):
    return f"{v:.4g}"


class Gate:
    def __init__(self, tolerance):
        self.tolerance = tolerance
        self.failures = []
        self.rows = []

    def check(self, name, current, floor, why):
        ok = current >= floor
        self.rows.append((name, fmt(current), fmt(floor), why,
                          "ok" if ok else "FAIL"))
        if not ok:
            self.failures.append(
                f"{name}: {fmt(current)} < floor {fmt(floor)} ({why})")

    def check_max(self, name, current, ceiling, why):
        ok = current <= ceiling
        self.rows.append((name, fmt(current), fmt(ceiling), why,
                          "ok" if ok else "FAIL"))
        if not ok:
            self.failures.append(
                f"{name}: {fmt(current)} > ceiling {fmt(ceiling)} ({why})")

    def report(self, name, current, baseline):
        delta = ("n/a" if baseline is None or baseline == 0.0
                 else f"{(current / baseline - 1.0) * 100:+.1f}%")
        self.rows.append((name, fmt(current),
                          fmt(baseline) if baseline is not None else "-",
                          "report only", delta))


def gate_fig12(gate, current, baseline):
    for name, base in sorted(baseline.items()):
        if not name.startswith("fig12."):
            continue
        if ".calls_per_s." not in name and not name.endswith(".peak"):
            continue
        if name not in current:
            gate.failures.append(f"{name}: missing from current run")
            continue
        gate.check(name, current[name], base * (1.0 - gate.tolerance),
                   f"baseline {fmt(base)} - {gate.tolerance:.0%}")


def gate_backends(gate, current, baseline):
    for name, bar in GATED_RATIO_BARS.items():
        if name not in current:
            gate.failures.append(f"{name}: missing from current run")
            continue
        floor = bar
        why = f"repo bar {fmt(bar)}"
        base = baseline.get(name)
        if base is not None:
            base_floor = base * (1.0 - gate.tolerance)
            if base_floor > floor:
                floor, why = base_floor, (
                    f"baseline {fmt(base)} - {gate.tolerance:.0%}")
        gate.check(name, current[name], floor, why)

    for name in sorted(current):
        if name.endswith(".calls_per_s") and name.startswith("backends."):
            gate.report(name, current[name], baseline.get(name))
    name = "backends.pool.handoff_us"
    if name in current:
        gate.report(name, current[name], baseline.get(name))


def gate_ensemble(gate, current, baseline):
    workers = current.get("ensemble.workers", 4.0)
    hw = current.get("ensemble.hardware_concurrency", 0.0)
    multicore = hw >= workers
    base_multicore = (baseline.get("ensemble.hardware_concurrency", 0.0)
                      >= baseline.get("ensemble.workers", 4.0))

    name = "ensemble.interp.batched_over_sequential"
    if name not in current:
        gate.failures.append(f"{name}: missing from current run")
    else:
        if multicore:
            floor, why = 3.0, f"repo bar 3 (>= {int(workers)} cores)"
        else:
            floor, why = 1.4, f"batching bar ({int(hw)}-core host)"
        base = baseline.get(name)
        # Baseline tightening only transfers between hosts of the same
        # class: a multicore baseline says nothing about a 1-core host.
        if base is not None and multicore == base_multicore:
            base_floor = base * (1.0 - gate.tolerance)
            if base_floor > floor:
                floor, why = base_floor, (
                    f"baseline {fmt(base)} - {gate.tolerance:.0%}")
        gate.check(name, current[name], floor, why)

    # Hybrid lanes (events on): correctness invariants are
    # machine-independent, so they gate exactly. The ensemble must
    # reproduce the sequential per-scenario solves bitwise, and with
    # every drop height bouncing at least once in the window the run
    # must fire at least one event per scenario. Hybrid throughput and
    # the batched/sequential ratio are report-only: event localization
    # serializes bisection work inside each lane, so the ratio is
    # noisier than the smooth-sweep one and carries no repo bar.
    scenarios = current.get("ensemble.hybrid.scenarios", 0.0)
    if scenarios <= 0.0:
        gate.failures.append(
            "ensemble.hybrid.scenarios: missing from current run")
    else:
        gate.check("ensemble.hybrid.bitwise_equal",
                   current.get("ensemble.hybrid.bitwise_equal", 0.0), 1.0,
                   "ensemble == sequential")
        gate.check("ensemble.hybrid.events_fired",
                   current.get("ensemble.hybrid.events_fired", 0.0),
                   scenarios, ">= 1 event per lane")
    # The stepper's own overhead: one worker's native DOPRI5 lane-evals/s
    # over the same kernel alone at width 16. Report-only: it reads
    # 0.80-0.87 against the repo's 0.8 target, too close to gate.
    name = "ensemble.native.batched_1worker_over_kernel_w16"
    if current.get("ensemble.native.available", 0.0) >= 1.0 and \
            name in current:
        gate.report(name, current[name], baseline.get(name))

    name = "ensemble.hybrid.batched_over_sequential"
    if name in current:
        gate.report(name, current[name], baseline.get(name))

    for name in sorted(current):
        if name.endswith(".scen_per_s"):
            gate.report(name, current[name], baseline.get(name))


def gate_sparse(gate, current, baseline):
    sizes = []
    for name in current:
        if name.startswith("sparse.heat.n") and \
                name.endswith(".sparse_over_dense"):
            sizes.append(int(name[len("sparse.heat.n"):-len(
                ".sparse_over_dense")]))
    if not sizes:
        gate.failures.append("sparse.heat.*: no sparse_over_dense gauges")
        return
    sizes.sort()
    largest = int(current.get("sparse.heat.largest_n", sizes[-1]))

    for n in sizes:
        name = f"sparse.heat.n{n}.sparse_over_dense"
        if n <= 16:
            gate.check(name, current[name], 1.0 - gate.tolerance,
                       f"parity - {gate.tolerance:.0%}")
        elif n == largest:
            floor, why = 2.0, "repo bar 2"
            base = baseline.get(name)
            if base is not None:
                base_floor = base * (1.0 - gate.tolerance)
                if base_floor > floor:
                    floor, why = base_floor, (
                        f"baseline {fmt(base)} - {gate.tolerance:.0%}")
            gate.check(name, current[name], floor, why)
        else:
            gate.report(name, current[name], baseline.get(name))

    # Machine-independent structural ceilings at the largest size: the
    # colored FD build must cost colors+1 RHS calls, and the tridiagonal
    # stencil must color with <= 5 colors (distance-2 optimum is 3).
    colors = current.get(f"sparse.heat.n{largest}.colors")
    builds = current.get(f"sparse.heat.n{largest}.jac_build_rhs_calls")
    if colors is None or builds is None:
        gate.failures.append(
            f"sparse.heat.n{largest}: missing colors/jac_build_rhs_calls")
    else:
        gate.check_max(f"sparse.heat.n{largest}.colors", colors, 5.0,
                       "tridiagonal stencil")
        gate.check_max(f"sparse.heat.n{largest}.jac_build_rhs_calls",
                       builds, colors + 1.0, "colors + 1")

    for name in sorted(current):
        if (name.startswith("sparse.heat.") and
                name.endswith(("_wall_s", "_us"))) or \
                name.startswith("sparse.full."):
            gate.report(name, current[name], baseline.get(name))


def best_batch_ratio(gauges, backend):
    """(best ratio, gauge name) over the swept batch widths, or None."""
    best = None
    prefix = f"simd.{backend}.batch"
    for name, v in gauges.items():
        if name.startswith(prefix) and name.endswith("_over_scalar"):
            if best is None or v > best[0]:
                best = (v, name)
    return best


def gate_simd(gate, current, baseline):
    lanes = current.get("simd.lane_width", 0.0)
    cores = current.get("simd.hardware_concurrency", 0.0)
    native = current.get("simd.native.available", 0.0) >= 1.0
    # Capability class: the 4x bar assumes >= 4 double lanes (AVX), a
    # working native toolchain, and >= 4 cores. The core-count clause is
    # about measurement, not compute: a 1-vCPU shared box steals cycles
    # from the scalar reference window unpredictably, swinging the
    # measured ratio by +-30%, so a strict 4x pin cannot hold there and
    # the bar drops to 2.5x — still impossible without real
    # vectorization, since one thread on one core has no other speedup
    # source. Baselines only tighten the floor when recorded on the
    # same class.
    cls = (lanes >= 4.0, cores >= 4.0, native)
    base_cls = (baseline.get("simd.lane_width", 0.0) >= 4.0,
                baseline.get("simd.hardware_concurrency", 0.0) >= 4.0,
                baseline.get("simd.native.available", 0.0) >= 1.0)

    if native:
        best = best_batch_ratio(current, "native")
        if best is None:
            gate.failures.append(
                "simd.native.batch*_over_scalar: missing from current run")
        else:
            if lanes >= 4.0 and cores >= 4.0:
                floor, why = 4.0, f"repo bar 4 ({int(lanes)} lanes)"
            elif lanes >= 4.0:
                floor, why = 2.5, (
                    f"single-core noise bar ({int(cores)} cores)")
            else:
                floor, why = 1.5, f"narrow-SIMD bar ({int(lanes)} lanes)"
            base = best_batch_ratio(baseline, "native")
            if base is not None and cls == base_cls:
                base_floor = base[0] * (1.0 - gate.tolerance)
                if base_floor > floor:
                    floor, why = base_floor, (
                        f"baseline {fmt(base[0])} - {gate.tolerance:.0%}")
            gate.check(best[1], best[0], floor, why)
    else:
        # No native toolchain: the interpreter still has to show the SoA
        # batching amortization win (same bar the ensemble gate uses).
        best = best_batch_ratio(current, "interp")
        if best is None:
            gate.failures.append(
                "simd.interp.batch*_over_scalar: missing from current run")
        else:
            gate.check(best[1], best[0], 1.4, "interp batching bar")

    gated = best[1] if best is not None else None
    for name in sorted(current):
        if name == gated or not name.startswith("simd."):
            continue
        if name.endswith("_over_scalar") or name.endswith(".evals_per_s"):
            gate.report(name, current[name], baseline.get(name))


def gate_compile(gate, current, baseline):
    suffix = ".per_state_ms"
    sizes = sorted(int(name[len("compile.n"):-len(suffix)])
                   for name in current
                   if name.startswith("compile.n") and name.endswith(suffix))
    if len(sizes) < 2:
        gate.failures.append("compile.n*: need per_state_ms at two sizes")
    else:
        small, large = sizes[0], sizes[-1]
        growth = (current[f"compile.n{large}{suffix}"]
                  / current[f"compile.n{small}{suffix}"])
        gate.check_max(f"compile.per_state_n{large}_over_n{small}", growth,
                       2.0, "linear compile_model")
    planning = "compile.n40.task_planning_ms"
    if planning not in current:
        gate.failures.append(f"{planning}: missing from current run")
    else:
        gate.check_max(planning, current[planning], 5.0, "inlined once")
    for name in sorted(current):
        if (name.startswith("compile.n") and name != planning
                and not name.endswith(".states")) \
                or name in ("compile.vmath_object_ms",
                            "compile.servo.native_build_ms"):
            gate.report(name, current[name], baseline.get(name))


def gate_service(gate, current, baseline):
    jobs_total = current.get("service.jobs_total", 0.0)
    if jobs_total <= 0.0:
        gate.failures.append("service.jobs_total: missing or zero")
        return
    gate.check("service.jobs_ok", current.get("service.jobs_ok", 0.0),
               jobs_total, "every job must succeed")
    gate.check_max("service.dropped_frames",
                   current.get("service.dropped_frames", 0.0), 0.0,
                   "zero dropped frames")
    # Closed-loop non-saturating load: a fat tail is head-of-line
    # blocking in the daemon, not queueing under overload.
    gate.check_max("service.p99_over_p50",
                   current.get("service.p99_over_p50", 0.0), 10.0,
                   "p99 <= 10x p50")
    for name in ("service.p50_ms", "service.p99_ms", "service.jobs_per_s",
                 "service.retries", "service.wall_seconds"):
        if name in current:
            gate.report(name, current[name], baseline.get(name))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--current", required=True,
                    help="directory containing the fresh BENCH_*.json")
    ap.add_argument("--baseline", default="bench/baselines",
                    help="directory with the checked-in baselines")
    ap.add_argument("--tolerance", type=float, default=0.15,
                    help="allowed fractional regression (default 0.15)")
    ap.add_argument("--only",
                    help="gate a single suite by short name (e.g. "
                         "'service' for BENCH_service.json) instead of "
                         "the default bench set")
    args = ap.parse_args()

    # BENCH_service.json comes from the dedicated CI service job
    # (bench/loadgen against a live omxd), not the default bench
    # binaries, so it only gates under --only service.
    suites = (("BENCH_fig12.json", gate_fig12),
              ("BENCH_backends.json", gate_backends),
              ("BENCH_ensemble.json", gate_ensemble),
              ("BENCH_sparse.json", gate_sparse),
              ("BENCH_simd.json", gate_simd),
              ("BENCH_compile.json", gate_compile),
              ("BENCH_service.json", gate_service))
    if args.only:
        suites = tuple(s for s in suites
                       if s[0] == f"BENCH_{args.only}.json")
        if not suites:
            print(f"bench_gate: unknown suite --only {args.only}",
                  file=sys.stderr)
            return 2
    else:
        suites = tuple(s for s in suites if s[0] != "BENCH_service.json")

    gate = Gate(args.tolerance)
    missing = []
    for fname, fn in suites:
        cur_path = os.path.join(args.current, fname)
        base_path = os.path.join(args.baseline, fname)
        if not os.path.exists(cur_path):
            missing.append(cur_path)
            continue
        if not os.path.exists(base_path):
            missing.append(base_path)
            continue
        cur, base = load_metrics(cur_path), load_metrics(base_path)
        fn(gate, cur.get("gauges", {}), base.get("gauges", {}))
        report_histograms(gate, fname.removeprefix("BENCH_")
                          .removesuffix(".json"), cur, base)

    if missing:
        for m in missing:
            print(f"bench_gate: missing {m}", file=sys.stderr)
        return 2

    width = max(len(r[0]) for r in gate.rows) if gate.rows else 10
    print(f"{'metric':<{width}}  {'current':>10}  {'floor/base':>10}  "
          f"{'rule':<22}  verdict")
    for name, cur, floor, why, verdict in gate.rows:
        print(f"{name:<{width}}  {cur:>10}  {floor:>10}  {why:<22}  "
              f"{verdict}")

    if gate.failures:
        print(f"\nbench_gate: {len(gate.failures)} regression(s):",
              file=sys.stderr)
        for f in gate.failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"\nbench_gate: all gates pass (tolerance {args.tolerance:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
