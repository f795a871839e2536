"""Memory plans: every guarded entry point sizes itself once, from what it
allocates, and its traced peak stays within the planned bytes."""

import ast
import functools
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import ksurf
from ksurf import goursat
from ksurf.frames import propagate_frame
from ksurf.goursat import LatticeDomain2, _solve_one, solve_goursat_2d
from ksurf.harness import demo_data
from ksurf.ndsys import SystemSpecND, sine_gordon_2d_spec, sine_gordon_3d_spec, solve_goursat_nd
from ksurf.sinegordon import (SchemeKind, check_compatibility_3d, hirota_backlund_system,
                              hirota_system)
from ksurf.surfaces import (backlund_surface, backlund_two_route_residual, mesh_from_fields,
                            solve_backlund_chain)

CHAIN = [(1.0, 0.5), (0.5, -0.25), (2.0, 0.1)]
A0 = lambda x, *_: np.cos(2.0 * x)  # noqa: E731
B0 = lambda x, y, *_: 1.0 + np.sin(y)  # noqa: E731


def _ones(evol):
    """One field stepped by 1 in each direction of evol, on the unit lattice."""
    return SystemSpecND(evol=(frozenset(evol),), rhs={(0, i): lambda s: np.ones_like(s[0]) for i in evol},
                        deps={(0, i): frozenset({0}) for i in evol}, eps=(1.0,) * len(evol))


def _fields(k):
    return solve_goursat_2d(hirota_system(), demo_data(), LatticeDomain2.from_k(1.0, k))


LATTICE = {  # k -> the call
    "solve_goursat_2d": lambda k: functools.partial(
        solve_goursat_2d, hirota_system(), demo_data(), LatticeDomain2.from_k(1.0, k)),
    "kept_solve": lambda k: functools.partial(
        _solve_one, hirota_system(), demo_data(), LatticeDomain2.from_k(1.0, k), 4),
    "mesh_from_fields": lambda k: functools.partial(mesh_from_fields, _fields(k), 1.0),
    "propagate_frame": lambda k: functools.partial(propagate_frame, _fields(k), 1.0),
    "solve_backlund_chain": lambda k: functools.partial(
        solve_backlund_chain, demo_data(), LatticeDomain2.from_k(1.0, k), CHAIN),
    "backlund_surface": lambda k: functools.partial(
        backlund_surface, demo_data(), LatticeDomain2.from_k(1.0, k), CHAIN),
    "backlund_two_route_residual": lambda k: functools.partial(
        backlund_two_route_residual, demo_data(), LatticeDomain2.from_k(1.0, k), CHAIN),
}
ND = {
    "3d": (sine_gordon_3d_spec(1.0, 2.0**-6), [A0, B0, lambda x, y, z: (0.5, -0.3)[round(z)]],
           (1.0, 1.0, 2.0)),
    "2d": (sine_gordon_2d_spec(SchemeKind.HIROTA, 2.0**-7), [A0, B0], 1.0),
    "1d_5001": (_ones({0}), [lambda x: 0.0], (5000.0,)),
    "21x2001": (_ones({0, 1}), [lambda x, y: 0.0], (20.0, 2000.0)),
}
CASES = ([pytest.param(LATTICE[name], k, id=f"{name}-k{k}") for name in LATTICE for k in (6, 8, 9)]
         + [pytest.param(lambda m: functools.partial(
             check_compatibility_3d, hirota_backlund_system(1.0),
             np.random.default_rng(m).uniform(-3.0, 3.0, size=(m, 3)), 2.0**-3), m,
             id=f"check_compatibility_3d-{m}") for m in (10, 100, 25_000, 200_000)]
         + [pytest.param(lambda case: functools.partial(solve_goursat_nd, *ND[case]), case,
                         id=f"solve_goursat_nd-{case}") for case in ND])


@pytest.mark.parametrize("cores", [1, 2])
@pytest.mark.parametrize("setup, size", CASES)
def test_traced_peak_within_the_plan(monkeypatch, planned, cores, setup, size):
    # one memory check per call, of a figure at least the traced peak of the
    # call, caches cold or warm: arrays, counted temporaries and the fixed
    # allowance for objects
    monkeypatch.setattr(goursat, "_cores", lambda: cores)
    call = setup(size)
    need, checks, available = planned(call), [], goursat._available_bytes
    monkeypatch.setattr(goursat, "_available_bytes", lambda: checks.append(1) or available())
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert checks == [1]
    assert peak <= need


def _readers(tree: ast.AST, names: set) -> set:
    """The functions (None: module level) that name any of names, called,
    referenced or imported."""
    found = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if (isinstance(node, ast.Name) and node.id in names
                or isinstance(node, ast.Attribute) and node.attr in names
                or isinstance(node, ast.alias) and node.name in names):
            found.add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, None)
    return found


def test_only_the_plan_reads_the_available_memory():
    # a size formula beside its own _available_bytes call cannot come back
    readers = {}
    for path in sorted(Path(ksurf.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for where in _readers(tree, {"_available_bytes", "_require_memory"}):
            readers.setdefault(path.name, set()).add(where)
    assert readers == {"goursat.py": {"_plan"}}
