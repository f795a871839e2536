"""Smoke test of the benchmark's workloads: each job runs once and passes its check.

perfbench/workloads.py is loaded by path, so a name it imports from ksurf
that no longer exists, or a job whose output its check rejects, fails here
before the benchmark runs; so does a layer of perfbench/layertrace.py that
no longer names a ksurf function (the trace would only record it as absent).
"""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
NAMES = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


@pytest.mark.parametrize("name", NAMES)
def test_workload_job_passes_its_check(workloads, name, tmp_path, monkeypatch):
    # the default size and seed 1, in a fresh directory
    monkeypatch.chdir(tmp_path)
    wl = workloads[name](1, str(tmp_path))
    wl.check(wl.job())
    wl.cleanup()


def test_traced_layers_exist(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_layertrace",
                                                  ROOT / "perfbench" / "layertrace.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    missing = [f"{mod}.{name}" for mod, name, _ in module.LAYERS
               if not callable(getattr(importlib.import_module(f"ksurf.{mod}"), name, None))]
    assert len(module.LAYERS) >= 16 and missing == []
