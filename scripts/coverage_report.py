#!/usr/bin/env python3
"""Aggregate gcov data from a --coverage build into a line-coverage table.

Usage: coverage_report.py <build-dir> [--out FILE]

Walks <build-dir> for .gcda files (written when the instrumented tests
ran), asks gcov for JSON intermediate output, and merges the per-TU line
counts so a header exercised from several test binaries is counted once.
Only files under src/ are reported — tests, benches, and system headers
are the instrument, not the subject.

Report-only by design: the exit status is 0 whatever the percentages say.
It is non-zero only when there is no coverage data at all, which means
the build was not instrumented or the tests never ran — a broken job, not
low coverage. Uses plain gcov JSON so no lcov/gcovr install is needed.

Files under src/omx/la/, src/omx/analysis/ (the numerical substrate of
the sparse Jacobian pipeline) and src/omx/ode/ (the solver suite, whose
event-localization branches are easy to leave untested) are additionally
flagged in the summary when their line coverage falls below 70% — still
report-only, the flag is a nudge in the log, not a gate.
"""
import argparse
import collections
import glob
import gzip
import json
import os
import subprocess
import sys


def find_gcda(build_dir):
    out = []
    for root, _dirs, files in os.walk(build_dir):
        # Absolute paths: gcov runs from its own scratch dir and needs to
        # find both the .gcda and the sibling .gcno.
        out.extend(
            os.path.abspath(os.path.join(root, f))
            for f in files
            if f.endswith(".gcda")
        )
    return sorted(out)


def run_gcov(gcda_files, workdir):
    """Runs gcov --json-format; returns the parsed JSON documents."""
    os.makedirs(workdir, exist_ok=True)
    for stale in glob.glob(os.path.join(workdir, "*.gcov.json.gz")):
        os.remove(stale)
    # Batch to keep the command line bounded on big trees.
    for i in range(0, len(gcda_files), 100):
        batch = gcda_files[i : i + 100]
        proc = subprocess.run(
            ["gcov", "--json-format", "--preserve-paths", *batch],
            cwd=workdir,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit("gcov failed")
    docs = []
    for path in glob.glob(os.path.join(workdir, "*.gcov.json.gz")):
        with gzip.open(path, "rt") as f:
            docs.append(json.load(f))
    return docs


def merge_lines(docs, repo_root):
    """repo-relative path -> {line -> max hit count across TUs}."""
    hits = collections.defaultdict(dict)
    src_root = os.path.join(repo_root, "src") + os.sep
    for doc in docs:
        for fentry in doc.get("files", []):
            path = os.path.normpath(
                os.path.join(repo_root, fentry["file"])
                if not os.path.isabs(fentry["file"])
                else fentry["file"]
            )
            if not path.startswith(src_root):
                continue
            rel = os.path.relpath(path, repo_root)
            per_file = hits[rel]
            for line in fentry.get("lines", []):
                no = line["line_number"]
                per_file[no] = max(per_file.get(no, 0), line["count"])
    return hits


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("build_dir")
    ap.add_argument("--out", help="also write the summary to this file")
    args = ap.parse_args()

    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    gcda = find_gcda(args.build_dir)
    if not gcda:
        raise SystemExit(
            f"no .gcda files under {args.build_dir} — was the tree built "
            "with --coverage and were the tests run?"
        )
    docs = run_gcov(gcda, os.path.join(args.build_dir, "coverage"))
    hits = merge_lines(docs, repo_root)
    if not hits:
        raise SystemExit("gcov produced no line data for files under src/")

    rows = []
    total_cov = total_lines = 0
    for rel in sorted(hits):
        lines = hits[rel]
        covered = sum(1 for c in lines.values() if c > 0)
        rows.append((rel, covered, len(lines)))
        total_cov += covered
        total_lines += len(lines)

    flag_prefixes = (os.path.join("src", "omx", "la") + os.sep,
                     os.path.join("src", "omx", "analysis") + os.sep,
                     os.path.join("src", "omx", "ode") + os.sep)
    flag_floor = 70.0
    flagged = []

    width = max(len(r[0]) for r in rows)
    out = [f"{'file':<{width}}  {'covered':>9}  {'%':>6}"]
    for rel, covered, total in rows:
        pct = 100.0 * covered / total if total else 0.0
        mark = ""
        if rel.startswith(flag_prefixes) and pct < flag_floor:
            mark = f"  << below {flag_floor:.0f}% (la/analysis/ode floor)"
            flagged.append((rel, pct))
        out.append(f"{rel:<{width}}  {covered:>4}/{total:<4}  {pct:>5.1f}{mark}")
    pct = 100.0 * total_cov / total_lines
    out.append(f"{'TOTAL':<{width}}  {total_cov:>4}/{total_lines:<4}  {pct:>5.1f}")
    if flagged:
        out.append("")
        out.append(
            f"{len(flagged)} la/analysis/ode file(s) below "
            f"{flag_floor:.0f}% line coverage (report-only):"
        )
        for rel, p in flagged:
            out.append(f"  {rel}  {p:.1f}%")
    text = "\n".join(out) + "\n"

    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
        print(f"\nsummary written to {args.out}")


if __name__ == "__main__":
    main()
