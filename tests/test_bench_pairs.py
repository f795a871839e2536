"""tools/bench_pairs.py: the summary of synthetic parent/change records."""

import importlib.util
import json
from pathlib import Path


_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

METRICS = [{"name": "norm_wall_s", "unit": "s", "better": "lower"},
           {"name": "rate", "unit": "1/s", "better": "higher"}]


def record(seed, wall, rate, failed=0):
    return {"seed": seed, "environment": {"git_revision": f"rev{seed % 2}"},
            "result": {"attempted": 4, "failed": failed,
                       "metrics": {"norm_wall_s": {"value": wall}, "rate": {"value": rate}}}}


def test_summarise_quartiles_and_wins():
    parent = [record(s, w, r) for s, (w, r) in enumerate([(1.0, 5.0), (2.0, 5.0), (3.0, 5.0),
                                                         (4.0, 5.0), (5.0, 5.0)])]
    change = [record(s, w, r, failed=s == 2) for s, (w, r) in
              enumerate([(0.5, 6.0), (2.0, 4.0), (2.5, 5.0), (4.5, 7.0), (4.0, 5.0)])]
    entry = bench_pairs.summarise({"parent": parent, "change": change}, METRICS)
    wall = entry["parent"]["metrics"]["norm_wall_s"]
    assert wall["runs"] == [1.0, 2.0, 3.0, 4.0, 5.0]
    assert (wall["median"], wall["q1"], wall["q3"], wall["iqr"]) == (3.0, 2.0, 4.0, 2.0)
    assert entry["change"]["metrics"]["norm_wall_s"]["median"] == 2.5
    assert entry["parent"]["attempted"] == 20 and entry["parent"]["failed"] == 0
    assert entry["change"]["failed"] == 1
    assert entry["parent"]["seeds"] == [0, 1, 2, 3, 4]
    # lower is better: wins at pairs 0, 2 and 4, a tie at pair 1 counts for neither side
    assert entry["change_wins"]["norm_wall_s"] == "3/5"
    # higher is better: wins at pairs 0 and 3, ties at pairs 2 and 4
    assert entry["change_wins"]["rate"] == "2/5"


BENCH = {"command": ["python3", "perfbench/run.py"], "run_seconds": 1,
         "workloads": [{"name": "w"}], "end_to_end": METRICS}


def trees(tmp_path, parent_bench, change_bench=BENCH) -> tuple:
    """Two checkouts under tmp_path, each holding only its BENCHMARK.json."""
    for side, bench in (("parent", parent_bench), ("change", change_bench)):
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(bench))
    return str(tmp_path / "parent"), str(tmp_path / "change")


def test_a_failed_job_fails_the_run_after_the_file_is_written(tmp_path, monkeypatch, capsys):
    parent, change = trees(tmp_path, BENCH)

    def run_once(tree, workload, seed, seconds, trace=0):
        return record(seed, 1.0 + trace, 1.0, failed=int(tree == change and seed == 103))

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main(["--parent", parent, "--change", change, "--out", str(out)]) == 1
    entry = json.loads(out.read_text())["workloads"]["w"]
    assert entry["change"]["failed"] == 1
    # one traced run per side, seed seed0, kept apart from the pairs' metrics
    assert entry["change"]["traced"] == {"seed": 101, "attempted": 4, "failed": 0,
                                         "metrics": {"norm_wall_s": 2.0, "rate": 1.0}}
    assert entry["parent"]["metrics"]["norm_wall_s"]["runs"] == [1.0] * 10
    captured = capsys.readouterr()
    assert "pair 2 w change: norm_wall_s 1.0000, failed 1 of 4" in captured.out
    assert "w parent: failed 0 of 40\nw change: failed 1 of 40\n" in captured.out
    assert captured.err == "w change seed 103: 1 of 4 jobs failed\n"


def test_benchmark_files_that_differ_stop_before_any_run(tmp_path, monkeypatch, capsys):
    def run_once(tree, workload, seed, seconds):
        raise AssertionError("ran a benchmark that the two sides do not share")

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    parent, change = trees(tmp_path, dict(BENCH, run_seconds=2, workloads=[{"name": "v"}]))
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main(["--parent", parent, "--change", change, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: the parent's and the change's BENCHMARK.json differ in 'run_seconds': "
        "2 against 1\n"
        "error: the parent's and the change's BENCHMARK.json differ in 'workloads': "
        "[{'name': 'v'}] against [{'name': 'w'}]\n")
    assert not out.exists()
