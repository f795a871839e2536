"""Alternating parent/change benchmark runs, summarised as one BENCH_<n>.json.

    python3 tools/bench_pairs.py --parent DIR --change DIR --out BENCH_<n>.json \
        [--seed0 101]

Each DIR is a clean checkout of one revision.  Before any run, the exit code
is 1 when the two checkouts' BENCHMARK.json differ in any of COMPARED, each
difference named on standard error.  For each of PAIRS pairs i and each
workload of the change's BENCHMARK.json, perfbench/run.py runs once in
each checkout with --trace 0, --seed seed0 + i and that file's run_seconds:
the parent first on even pairs, the change first on odd ones, one run at a
time.  Each run's record is read from the .perfbench/<workload>-trace<t>.json
it writes.  After the pairs, each workload runs once more in each checkout,
parent first, with --trace 1 and --seed seed0, for its per-layer metrics.
The output holds, per workload and side, every untraced run's end-to-end
metrics with their median and quartiles, the failed and attempted job
counts, the environment record of its first run, its git revision and the
metrics of its traced run; and, per end-to-end metric, the pairs the change
won (ties count for neither).  Each untraced run prints its failed and
attempted job counts, and so does each side at the end; after the file is
written, the exit code is 1 when any run had a failed job, each named by
workload, side and seed on standard error.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

SIDES = ("parent", "change")
PAIRS = 10  # the fewest alternating pairs a claimed gain is judged on
COMPARED = ("command", "run_seconds", "workloads", "end_to_end")  # what both sides must share


def run_once(tree: str, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """One perfbench run in tree; the record it wrote."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: {' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    with open(os.path.join(tree, ".perfbench", f"{workload}-trace{trace}.json"),
              encoding="utf-8") as fh:
        return json.load(fh)


def spread(values: list) -> dict:
    """Median and quartiles (inclusive method) of values."""
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarise(runs: dict, metrics: list) -> dict:
    """The BENCH entry of one workload from its runs {side: [record, ...]}."""
    entry = {}
    for side in SIDES:
        recs = runs[side]
        entry[side] = {
            "git_revision": recs[0]["environment"]["git_revision"],
            "environment": recs[0]["environment"],
            "seeds": [r["seed"] for r in recs],
            "attempted": sum(r["result"]["attempted"] for r in recs),
            "failed": sum(r["result"]["failed"] for r in recs),
            "metrics": {},
        }
        for m in metrics:
            values = [r["result"]["metrics"][m["name"]]["value"] for r in recs]
            entry[side]["metrics"][m["name"]] = {"unit": m["unit"], "runs": values,
                                                 **spread(values)}
    entry["change_wins"] = {}
    for m in metrics:
        sign = 1.0 if m["better"] == "lower" else -1.0
        pairs = zip(entry["parent"]["metrics"][m["name"]]["runs"],
                    entry["change"]["metrics"][m["name"]]["runs"])
        wins = sum(sign * (p - c) > 0 for p, c in pairs)
        entry["change_wins"][m["name"]] = f"{wins}/{len(runs['parent'])}"
    return entry


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True)
    p.add_argument("--change", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed0", type=int, default=101)
    args = p.parse_args(argv)

    benches = {}
    for side in SIDES:
        with open(os.path.join(getattr(args, side), "BENCHMARK.json"), encoding="utf-8") as fh:
            benches[side] = json.load(fh)
    differ = [key for key in COMPARED if benches["parent"].get(key) != benches["change"].get(key)]
    for key in differ:
        print(f"error: the parent's and the change's BENCHMARK.json differ in {key!r}: "
              f"{benches['parent'].get(key)!r} against {benches['change'].get(key)!r}",
              file=sys.stderr)
    if differ:
        return 1
    bench = benches["change"]
    workloads = [w["name"] for w in bench["workloads"]]
    trees = {"parent": args.parent, "change": args.change}
    runs = {w: {side: [] for side in SIDES} for w in workloads}
    for i in range(PAIRS):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for w in workloads:
            for side in order:
                rec = run_once(trees[side], w, args.seed0 + i, bench["run_seconds"])
                runs[w][side].append(rec)
                res = rec["result"]
                print(f"pair {i} {w} {side}: norm_wall_s {res['metrics']['norm_wall_s']['value']:.4f}"
                      f", failed {res['failed']} of {res['attempted']}", flush=True)
    traced = {w: {side: run_once(trees[side], w, args.seed0, bench["run_seconds"], trace=1)
                  for side in SIDES} for w in workloads}

    out = {
        "command": bench["command"],
        "run_seconds": bench["run_seconds"],
        "pairs": PAIRS,
        "seeds": [args.seed0 + i for i in range(PAIRS)],
        "order": "parent first on even pairs, change first on odd pairs",
        "workloads": {w: summarise(runs[w], bench["end_to_end"]) for w in workloads},
    }
    for w, entry in out["workloads"].items():
        for side in SIDES:
            res = traced[w][side]["result"]
            entry[side]["traced"] = {"seed": args.seed0, "attempted": res["attempted"],
                                     "failed": res["failed"],
                                     "metrics": {k: v["value"] for k, v in res["metrics"].items()}}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    for w, entry in out["workloads"].items():
        for side in SIDES:
            print(f"{w} {side}: failed {entry[side]['failed']} of {entry[side]['attempted']}")
    failed = [f"{w} {side} seed {r['seed']}: {r['result']['failed']} of "
              f"{r['result']['attempted']} jobs failed"
              for w in workloads for side in SIDES for r in runs[w][side] if r["result"]["failed"]]
    failed += [f"{w} {side} traced seed {args.seed0}: {traced[w][side]['result']['failed']} of "
               f"{traced[w][side]['result']['attempted']} jobs failed"
               for w in workloads for side in SIDES if traced[w][side]["result"]["failed"]]
    for line in failed:
        print(line, file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
