#!/usr/bin/env python3
"""Render a human-readable run report from the observability artifacts.

Consumes any subset of the three JSON files trace_explorer (or any other
omx binary using the obs exporters) writes:

* --profile profile.json   (obs::profile_json)  -> hierarchical span
  profile: call count, total/self time, p50/p90/p99 per span name.
* --metrics metrics.json   (obs::metrics_json)  -> counters, gauges, and
  a percentile table for every duration histogram.
* --recorder recorder.json (obs::recorder_json) -> flight-recorder
  summary (event counts by kind, rejection rate, Jacobian reuse rate)
  and an ASCII step-size/order timeline of the solver run.
* --service service.json   (svc::Server::service_json, written by omxd
  on shutdown) -> daemon summary (sessions, rejects, cancellations),
  a per-session table, and an ASCII queue-depth timeline.

Stdlib only. Exit status: 0 on success, 2 when no input could be read.

Usage: scripts/obs_report.py [--profile P] [--metrics M] [--recorder R]
                             [--service S]
                             [--timeline-width 72] [--timeline-rows 12]
"""

import argparse
import json
import math
import sys


def load(path, what):
    if not path:
        return None
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"obs_report: cannot read {what} {path}: {e}",
              file=sys.stderr)
        return None


def fmt_ms(ns):
    return f"{ns / 1e6:.3f}"


def fmt_s(seconds):
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.3f}ms"
    return f"{seconds * 1e6:.3f}us"


def render_profile(prof):
    print("== span profile ==")
    nodes = prof.get("nodes", [])
    if not nodes:
        print("(no spans recorded)")
        return
    print(f"{'span':<40} {'count':>8} {'total_ms':>10} {'self_ms':>10} "
          f"{'p50_ms':>9} {'p90_ms':>9} {'p99_ms':>9}")
    for n in nodes:
        label = "  " * n["depth"] + n["name"]
        print(f"{label[:40]:<40} {n['count']:>8} "
              f"{fmt_ms(n['total_ns']):>10} {fmt_ms(n['self_ns']):>10} "
              f"{fmt_ms(n['p50_ns']):>9} {fmt_ms(n['p90_ns']):>9} "
              f"{fmt_ms(n['p99_ns']):>9}")
    print(f"wall: {fmt_ms(prof.get('wall_ns', 0))} ms")


def render_metrics(metrics):
    print("== counters ==")
    for name, v in sorted(metrics.get("counters", {}).items()):
        print(f"  {name:<32} {v}")
    gauges = metrics.get("gauges", {})
    if gauges:
        print("== gauges ==")
        for name, v in sorted(gauges.items()):
            print(f"  {name:<32} {v:g}")
    hists = {n: h for n, h in sorted(metrics.get("histograms", {}).items())
             if h.get("count")}
    if hists:
        print("== histogram percentiles ==")
        print(f"  {'histogram':<32} {'count':>8} {'p50':>12} {'p90':>12} "
              f"{'p99':>12} {'mean':>12}")
        for name, h in hists.items():
            mean = h["sum"] / h["count"]
            print(f"  {name:<32} {h['count']:>8} {fmt_s(h['p50']):>12} "
                  f"{fmt_s(h['p90']):>12} {fmt_s(h['p99']):>12} "
                  f"{fmt_s(mean):>12}")


def render_timeline(steps, width, rows):
    """ASCII chart of step size h (log scale) over solver time t, one
    column per time slice; the glyph is the solver order at that point,
    'x' marks a slice containing at least one rejection."""
    accepted = [e for e in steps if e["kind"] == "step_accepted"]
    if len(accepted) < 2:
        print("(not enough accepted steps for a timeline)")
        return
    t0, t1 = accepted[0]["t"], accepted[-1]["t"]
    if t1 <= t0:
        print("(degenerate time range)")
        return
    # Bucket events into columns by solver time.
    cols = [[] for _ in range(width)]
    rejected_col = [False] * width
    for e in steps:
        if e["kind"] not in ("step_accepted", "step_rejected"):
            continue
        c = min(width - 1,
                int((e["t"] - t0) / (t1 - t0) * width))
        if e["kind"] == "step_accepted":
            cols[c].append(e)
        else:
            rejected_col[c] = True
    hs = [e["h"] for e in accepted if e["h"] > 0]
    lo, hi = math.log10(min(hs)), math.log10(max(hs))
    if hi <= lo:
        hi = lo + 1.0
    grid = [[" "] * width for _ in range(rows)]
    for c, bucket in enumerate(cols):
        if not bucket:
            continue
        h = max(e["h"] for e in bucket)
        order = max(e["order"] for e in bucket)
        r = int((math.log10(h) - lo) / (hi - lo) * (rows - 1))
        r = max(0, min(rows - 1, r))
        glyph = "x" if rejected_col[c] else str(min(order, 9))
        grid[rows - 1 - r][c] = glyph

    print("== step-size timeline ==  (glyph = order, x = rejection, "
          "y = log10 step size)")
    for i, row in enumerate(grid):
        edge = hi - (hi - lo) * i / (rows - 1)
        print(f"  1e{edge:+06.2f} |{''.join(row)}|")
    print(f"  {'':>9} t = {t0:g} .. {t1:g}")


def render_recorder(rec, width, rows):
    events = rec.get("events", [])
    print("== flight recorder ==")
    print(f"  events: {len(events)}   dropped: {rec.get('dropped', 0)}   "
          f"ring capacity/thread: {rec.get('capacity_per_thread', 0)}")
    if not events:
        return
    by_kind = {}
    for e in events:
        by_kind[e["kind"]] = by_kind.get(e["kind"], 0) + 1
    for kind, n in sorted(by_kind.items(), key=lambda kv: -kv[1]):
        print(f"  {kind:<20} {n}")
    acc = by_kind.get("step_accepted", 0)
    rej = by_kind.get("step_rejected", 0)
    if acc + rej:
        print(f"  rejection rate: {100.0 * rej / (acc + rej):.1f}%")
    evals = by_kind.get("jac_evaluate", 0)
    reuse = by_kind.get("jac_reuse", 0)
    if evals + reuse:
        print(f"  jacobian reuse rate: "
              f"{100.0 * reuse / (evals + reuse):.1f}%")
    switches = [e for e in events if e["kind"] == "method_switch"]
    for s in switches:
        print(f"  method switch -> {s['method']} at t={s['t']:g}")
    render_timeline(events, width, rows)


def render_queue_timeline(timeline, width):
    """ASCII sparkline of queued-job depth over daemon uptime. The
    timeline is [[t_seconds, depth], ...] sampled by the event loop;
    each column shows the max depth seen in its time slice."""
    if len(timeline) < 2:
        print("  (no queue depth samples)")
        return
    t0, t1 = timeline[0][0], timeline[-1][0]
    if t1 <= t0:
        print("  (degenerate time range)")
        return
    cols = [0] * width
    for t, depth in timeline:
        c = min(width - 1, int((t - t0) / (t1 - t0) * width))
        cols[c] = max(cols[c], int(depth))
    peak = max(cols)
    glyphs = " .:-=+*#%@"
    line = "".join(
        glyphs[min(len(glyphs) - 1,
                   (d * (len(glyphs) - 1) + peak - 1) // peak if peak else 0)]
        for d in cols)
    print(f"  depth 0..{peak} |{line}|")
    print(f"  {'':>11} t = {t0:.2f}s .. {t1:.2f}s "
          f"({len(timeline)} samples)")


def render_service(svc, width):
    summary = svc.get("summary", {})
    print("== service summary ==")
    for key in ("sessions", "jobs_submitted", "jobs_done",
                "jobs_cancelled", "rejects", "frames", "bytes_sent"):
        print(f"  {key:<16} {summary.get(key, 0)}")
    submitted = summary.get("jobs_submitted", 0)
    if submitted:
        rejects = summary.get("rejects", 0)
        cancelled = summary.get("jobs_cancelled", 0)
        print(f"  reject rate:     "
              f"{100.0 * rejects / (submitted + rejects):.1f}%")
        print(f"  cancel rate:     {100.0 * cancelled / submitted:.1f}%")

    sessions = svc.get("sessions", [])
    if sessions:
        print("== sessions ==")
        print(f"  {'session':>7} {'open':>5} {'dur_s':>8} {'submit':>7} "
              f"{'done':>6} {'cancel':>7} {'reject':>7} {'frames':>7} "
              f"{'bytes':>10}")
        for s in sessions:
            print(f"  {s.get('session', 0):>7} "
                  f"{'yes' if s.get('open') else 'no':>5} "
                  f"{s.get('duration_s', 0.0):>8.2f} "
                  f"{s.get('jobs_submitted', 0):>7} "
                  f"{s.get('jobs_done', 0):>6} "
                  f"{s.get('jobs_cancelled', 0):>7} "
                  f"{s.get('rejects', 0):>7} "
                  f"{s.get('frames', 0):>7} "
                  f"{s.get('bytes_sent', 0):>10}")

    print("== queue depth timeline ==")
    render_queue_timeline(svc.get("queue_depth_timeline", []), width)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--profile", help="profile.json from obs::profile_json")
    ap.add_argument("--metrics", help="metrics.json from obs::metrics_json")
    ap.add_argument("--recorder",
                    help="recorder.json from obs::recorder_json")
    ap.add_argument("--service",
                    help="service.json written by omxd on shutdown")
    ap.add_argument("--timeline-width", type=int, default=72)
    ap.add_argument("--timeline-rows", type=int, default=12)
    args = ap.parse_args()

    prof = load(args.profile, "profile")
    metrics = load(args.metrics, "metrics")
    rec = load(args.recorder, "recorder")
    svc = load(args.service, "service")
    if prof is None and metrics is None and rec is None and svc is None:
        print("obs_report: nothing to report "
              "(pass --profile/--metrics/--recorder/--service)",
              file=sys.stderr)
        return 2

    sections = []
    if prof is not None:
        sections.append(lambda: render_profile(prof))
    if metrics is not None:
        sections.append(lambda: render_metrics(metrics))
    if rec is not None:
        sections.append(lambda: render_recorder(
            rec, args.timeline_width, args.timeline_rows))
    if svc is not None:
        sections.append(lambda: render_service(svc, args.timeline_width))
    for i, section in enumerate(sections):
        if i:
            print()
        section()
    return 0


if __name__ == "__main__":
    sys.exit(main())
