"""Print every benchmark metric of every workload, with units.

    python3 perfbench/report.py [--roadmap]

Run from the repository root.  For each workload it runs ``run.py`` on seed
0 (the demo data) for the run_seconds of BENCHMARK.json, once untraced
(end-to-end metrics) and once traced (per-layer metrics), prints each metric
with its unit, and fail_frac: jobs that raised, exited non-zero or failed
their output check, over jobs attempted in both runs.

--roadmap also traces ROADMAP_JOBS jobs each of surface_export and
converge_fields at k = 10 (k_ref = 12), the sizes of the baseline table in
ROADMAP item 1 (single runs on a 2-core machine, demo data, lambda = 1), and
compares the median of each row with it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

import run

# A baseline row is within noise when the measurement lies inside its range
# widened by this share: single jobs on a shared 2-core machine drift by
# about +-20% with the load of other tenants.
NOISE = 0.25
SEED = 0
# traced jobs per compared workload; each row reports their median, so that
# one job run in a slow spell of the machine does not decide its verdict
ROADMAP_JOBS = 3

# (row, workload, layer, per-call label or None for self time per call, low s, high s)
ROADMAP = (
    ("solve_goursat_2d, Hirota, k = 10", "surface_export", "goursat.solve_goursat_2d",
     "hirota,n=1024", 0.33, 0.41),
    ("solve_goursat_2d, naive, k = 10", "converge_fields", "goursat.solve_goursat_2d",
     "naive,n=1024", 0.14, 0.14),
    ("zero_curvature_residual, k = 10", "surface_export", "frames.zero_curvature_residual",
     "n=1024", 1.1, 1.1),
    ("frame + Sym stream, k = 10", "surface_export", "surfaces.surface_from_fields",
     None, 2.1, 2.5),
    ("validate_k_surface, k = 10", "surface_export", "surfaces.validate_k_surface",
     "n=1024", 1.3, 1.3),
    ("export_obj, k = 10", "surface_export", "surfaces.export_obj", "n=1024", 5.9, 5.9),
    ("save_field_csv (one field), k = 10", "surface_export", "goursat.save_field_csv",
     "n=1024", 2.1, 2.1),
    ("solve_goursat_2d, Hirota, k = 12", "converge_fields", "goursat.solve_goursat_2d",
     "hirota,n=4096", 5.5, 6.8),
    ("solve_goursat_2d, naive, k = 12", "converge_fields", "goursat.solve_goursat_2d",
     "naive,n=4096", 2.3, 2.3),
)
NOT_COMPARED = (
    "backlund_surface, 1 step, k = 10: backlund_tower runs a 3-step chain",
    "zero_curvature_residual and frame + Sym stream, k = 12: no workload runs them",
    "build_surface peak traced memory, k = 12: no workload runs it",
)


def run_seconds() -> int:
    """The length of one benchmark run, as BENCHMARK.json sets it."""
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)["run_seconds"]


def run_workload(workload: str, seconds: int, trace: int) -> dict:
    """The result line of one run.py run, with the unbounded wall_s and
    sites_per_s added to the untraced metrics."""
    cmd = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    if not trace:
        for name, unit in (("wall_s", "s"), ("sites_per_s", "1/s")):
            value = next(float(l.split(": ", 1)[1]) for l in lines if l.startswith(name + ": "))
            result["metrics"][name] = {"value": value, "unit": unit}
    return result


def trace_k10(workloads) -> dict:
    """Layer stats of ROADMAP_JOBS traced jobs of each compared workload at
    k = 10, as {workload: [layer table per job]}."""
    from layertrace import Tracer, layer_table

    tables = {}
    workdir = tempfile.mkdtemp(prefix="roadmap-", dir=run.OUT_DIR)
    try:
        for name in sorted({row[1] for row in ROADMAP}):
            wl = workloads.WORKLOADS[name](SEED, workdir, k=10)
            for _ in range(ROADMAP_JOBS):
                tracer = Tracer(False)
                try:
                    wl.check(tracer.run(wl.job))
                finally:
                    wl.cleanup()
                tables.setdefault(name, []).append(layer_table(tracer, None))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return tables


def _row_value(stats, label):
    """One job's time for a baseline row, or None when the job has no such call."""
    if not stats or not stats["calls"]:
        return None
    if label is None:
        return stats["self_s"] / stats["calls"]
    if label in stats["per_call_s"]:
        return statistics.median(stats["per_call_s"][label])
    return None


def roadmap_rows(tables: dict) -> list:
    rows = []
    for row, workload, layer, label, lo, hi in ROADMAP:
        values = [v for table in tables[workload]
                  if (v := _row_value(table.get(layer), label)) is not None]
        if not values:
            rows.append((row, f"not measured (no {layer} call"
                              f"{'' if label is None else ' on ' + label})"))
            continue
        value = statistics.median(values)
        base = f"{lo:g} s" if lo == hi else f"{lo:g}-{hi:g} s"
        if lo * (1 - NOISE) <= value <= hi * (1 + NOISE):
            verdict = "within noise"
        else:
            ref = lo if value < lo else hi
            verdict = f"differs by {value - ref:+.3f} s ({(value - ref) / ref:+.0%})"
        rows.append((row, f"{value:.3f} s vs {base}: {verdict}"))
    return rows


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--roadmap", action="store_true",
                   help="also compare k = 10 layer times with the ROADMAP baseline")
    args = p.parse_args(argv)
    try:
        workloads = run.import_workloads()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    seconds = run_seconds()
    ok = True
    for workload in workloads.WORKLOADS:
        results = [run_workload(workload, seconds, t) for t in (0, 1)]
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        ok = ok and failed == 0
        print(f"{workload}  (seed {SEED}, {seconds} s per run)")
        for r in results:
            for name, m in r["metrics"].items():
                print(f"  {name:34s} {m['value']:>14.6g}  {m['unit']}")
        print(f"  {'fail_frac':34s} {failed / attempted:>14.6g}  ratio "
              f"({failed} of {attempted} jobs)")

    if args.roadmap:
        os.makedirs(run.OUT_DIR, exist_ok=True)
        print("ROADMAP item-1 baseline, traced at k = 10 (k_ref = 12)")
        for row, text in roadmap_rows(trace_k10(workloads)):
            print(f"  {row:38s} {text}")
        for text in NOT_COMPARED:
            print(f"  not compared: {text}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
