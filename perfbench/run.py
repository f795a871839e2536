"""ksurf benchmark runner: one workload per run, jobs one at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The package is imported from ``src/`` of the
same tree; without it the run exits with code 2 before measuring anything.

--trace 0 measures the end-to-end metrics with tracing off.  A run is a
sequence of cycles, each a job, a set-up probe (a fresh interpreter doing
the set-up) and a reference block (reference.py); cycles repeat while a
typical one still ends within S seconds (at least one).  Each job and probe
time is rescaled by the mean of the two blocks around it, so that the
machine's drift in speed cancels, and the medians are reported.  --trace 1
runs the same untraced jobs without probes, then one job under the timing
tracer and one under the memory tracer, and reports the per-layer metrics.
Every job's output is checked outside the timed region.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.  A
fuller record (environment, raw job, probe and block times, layer table) is
written to ``.perfbench/<workload>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(ROOT, ".perfbench")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def pin_threads() -> None:
    """Cap BLAS/OpenMP pools at nproc before numpy is imported."""
    cap = nproc()
    for var in THREAD_VARS:
        try:
            ok = 1 <= int(os.environ.get(var, "")) <= cap
        except ValueError:
            ok = False
        if not ok:
            os.environ[var] = str(cap)


def git_revision() -> str:
    """HEAD of the tree's own .git, read directly (never searching parents)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy as np

    return {
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": nproc(),
        "cpu_model": cpu_model(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def time_setup(workload: str, seed: int) -> float:
    """Wall time of a fresh interpreter doing start + import ksurf + data generation."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, timeout=60)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.decode(errors='replace')}")
    return elapsed


def run_jobs(wl, seconds: float, setup_args) -> tuple:
    """Untraced jobs until `seconds` have passed, each checked after its
    timing, followed by a set-up probe (unless `setup_args` is None) and a
    reference block.

    Returns (job wall times, set-up times, reference block times, failure
    messages).  Job i and set-up probe i ran between reference blocks i and
    i + 1.
    """
    import reference
    from workloads import CheckFailed

    times, setup, refs, failures = [], [], [reference.block()], []
    start = time.perf_counter()

    def cycle_s():
        return statistics.median(times) + (statistics.median(setup) if setup else 0.0) + refs[-1]

    # start a job only if a typical cycle still ends within the run
    while not times or time.perf_counter() - start + cycle_s() <= seconds:
        gc.collect()
        result, error = None, None
        t0 = time.perf_counter()
        try:
            result = wl.job()
        except Exception:  # a job that raises counts as failed; keep measuring
            error = traceback.format_exc()
        times.append(time.perf_counter() - t0)
        try:
            if error is None:
                wl.check(result)
        except CheckFailed as exc:
            error = f"check failed: {exc}"
        except Exception:  # a check that cannot read the output fails the job too
            error = traceback.format_exc()
        finally:
            wl.cleanup()
        if error is not None:
            failures.append(error)
        if setup_args is not None:
            setup.append(time_setup(*setup_args))
        gc.collect()
        refs.append(reference.block())
    return times, setup, refs, failures


def normalised(times: list, refs: list) -> float:
    """Median of the times, each rescaled to a machine on which the
    reference block takes its nominal time, by the mean of the two blocks
    around it (time i ran between blocks i and i + 1)."""
    import reference

    return statistics.median(2.0 * reference.NOMINAL_S * t / (before + after)
                             for t, before, after in zip(times, refs, refs[1:]))


def run_traced(wl) -> tuple:
    """One job under the timing tracer, then one under the memory tracer.

    The memory pass is skipped when the timing pass ran no memory layer.
    Returns (timing tracer, memory tracer or None, failures).
    """
    import workloads
    from layertrace import MEMORY_LAYERS, Tracer

    failures = []
    tracers = []
    for memory in (False, True):
        if memory and not tracers[0].ran_any(MEMORY_LAYERS):
            tracers.append(None)
            break
        gc.collect()
        tracer = Tracer(memory)
        tracers.append(tracer)
        try:
            wl.check(tracer.run(wl.job))
        except workloads.CheckFailed as exc:
            failures.append(f"check failed: {exc}")
        except Exception:  # counted as a failed job
            failures.append(traceback.format_exc())
        finally:
            wl.cleanup()
    return tracers[0], tracers[1], failures


def import_workloads():
    """Pin thread pools, import ksurf from this tree's src/, return the workloads module."""
    if not os.path.isfile(os.path.join(SRC, "ksurf", "__init__.py")):
        raise ImportError(f"no ksurf package under {SRC}; run from the repository root")
    pin_threads()
    sys.path.insert(0, SRC)
    import ksurf
    import workloads

    if os.path.dirname(os.path.abspath(ksurf.__file__)) != os.path.join(SRC, "ksurf"):
        raise ImportError(f"imported ksurf from {ksurf.__file__}, not {SRC}")
    return workloads


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="internal: do the set-up of one run and exit (timed by --trace 0)")
    args = p.parse_args(argv)

    try:
        workloads = import_workloads()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; pick one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        if args.setup_only:
            return 0
        return measure(args, wl)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, wl) -> int:
    import reference
    from layertrace import layer_metrics, layer_table

    env = environment()
    reference.block()  # warm-up, not used
    times, setup, refs, failures = run_jobs(
        wl, args.seconds, None if args.trace else (args.workload, args.seed))
    wall = statistics.median(times)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": env, "job_times_s": times, "setup_times_s": setup,
              "reference_times_s": refs, "wall_s": wall}
    if args.trace:
        tracer, mem, traced_failures = run_traced(wl)
        attempted = len(times) + (1 if mem is None else 2)
        failures += traced_failures
        metrics = layer_metrics(tracer, mem, tracer.wall_s / wall - 1.0)
        record["absent_layers"] = tracer.absent
        record["unobserved_layers"] = sorted(tracer.unobserved)
        record["layers"] = layer_table(tracer, mem)
    else:
        attempted = len(times)
        metrics = {
            "norm_wall_s": (normalised(times, refs), "s"),
            "peak_mem_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "setup_s": (normalised(setup, refs), "s"),
        }
    # sites_per_s is a constant over wall_s: printed, not a second gated copy
    record["sites_per_s"] = wl.sites() / wall
    for msg in failures:
        print(msg, file=sys.stderr)
    out = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record["result"] = out
    with open(os.path.join(OUT_DIR, f"{args.workload}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
    print("environment: " + json.dumps(env))
    print(f"wall_s: {wall!r}")
    print(f"sites_per_s: {record['sites_per_s']!r}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
