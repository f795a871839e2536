"""One SHA-256 over ksurf's outputs, to tell whether two revisions give the
same bits and messages.

    python3 tools/bit_digest.py [CHECKOUT]

CHECKOUT (default: the checkout this file is in) is the tree whose src/ksurf
is imported.  The digest covers, in this order:

* at k = 1, 2, 3, 6, 8, 10 (r = 1, demo data): the fields and phi of both
  schemes; zero_curvature_residual of both; propagate_frame of the Hirota
  fields in both orders; _solve_layers of the empty, 1-step and 3-step
  chains with top on and off; backlund_surface of the 3-step chain at
  lambda = 0.5 and 1;
* the kept fields_ab reference of both schemes (k = 10, every = 2 and 4)
  and the fields_ab convergence reports (k = 5..8 against 10);
* the kept phi and quotients_order_2 references of both schemes and the
  kept surface and surface_bt (3-step chain) references (k = 9, every =
  2, 4 and 8), and their convergence reports (k = 4..6 against 9) with
  every family;
* the class, site and message of the layered-solve errors and of the
  blow-ups of the one-layer solve at every = 1, 2 and 4;
* the validate_k_surface reports at k = 6, 8 and 10 of every mesh of the
  3-step tower against its layer's phi, and of the base mesh with noise
  added, and check_compatibility_3d of 25,000 and 100,000 samples for both
  schemes, alpha = 0.5, 1 and 2 and eps = 2^-3 and 2^-6;
* the exit code, standard output, standard error and written files of
  `ksurf solve --k 8 --phi`, `ksurf surface --k 8`, `ksurf backlund --k 6`
  with a 2-step chain, `ksurf check --samples 25000`, the refused
  `ksurf solve --k 40`, the usage error `ksurf solve --bogus` and the
  refused unread flag of `ksurf converge --quantity phi --lambda 2`, each
  run in an empty directory, and load_obj_points of every OBJ written;
* the fields and alt_residual of solve_goursat_nd for the planar Hirota and
  naive specs (eps = 2^-3 and 2^-6), the 3D spec at alpha = 0.5, 1 and 2
  and eps = 2^-3 and 2^-5 (two layers) and demo 05's 4D toy, and the class,
  site and message of its blow-ups and incompatibilities: non-finite data,
  a blow-up of a one-field growth law and of the 3D theta step, the naive 3D
  spec and the 111 x 111 single-site mismatch at site (37, 50) and on
  levels 15 to 18 and 111.

The byte figures of a refusal message are masked: the available memory
changes from run to run, and the bytes a memory plan needs are a property
of the plan, which tests/test_plan.py checks, not an output.  Standard
library and numpy only.
"""

from __future__ import annotations

import hashlib
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

KS = (1, 2, 3, 6, 8, 10)
CHECK_KS = (6, 8, 10)
THREE = [(1.0, 0.5), (0.5, -0.25), (2.0, 0.1)]
CLI_RUNS = (
    ["solve", "--k", "8", "--phi"],
    ["surface", "--k", "8"],
    ["backlund", "--k", "6", "--alpha", "1", "--theta0", "0.5", "--alpha", "0.5",
     "--theta0", "-0.25"],
    ["check", "--samples", "25000"],
    ["solve", "--k", "40"],
    ["solve", "--bogus"],
    ["converge", "--quantity", "phi", "--lambda", "2"],
)
_FIGURES = re.compile(r"(needs|the) \d+ bytes (for|of available memory)")


def _mask(text: str) -> str:
    return _FIGURES.sub(r"\1 N bytes \2", text)


class _Digest:
    def __init__(self):
        self.h = hashlib.sha256()

    def add(self, label: str, value) -> None:
        """Fold label and value in: arrays by dtype, shape and bytes, floats
        by their hex form, bytes as they are, sequences item by item,
        anything else by its masked repr."""
        self.h.update(label.encode() + b"\0")
        if isinstance(value, np.ndarray):
            value = np.ascontiguousarray(value)
            self.h.update(f"{value.dtype.str}{value.shape}".encode() + value.tobytes())
        elif isinstance(value, bytes):
            self.h.update(value)
        elif isinstance(value, (float, np.floating)):
            self.h.update(float(value).hex().encode())
        elif isinstance(value, (list, tuple)):
            for i, v in enumerate(value):
                self.add(f"{label}[{i}]", v)
        else:
            self.h.update(_mask(repr(value)).encode())

    def error(self, label: str, call) -> None:
        """Fold in the class, field, site and message call raises, or the fact
        that it raised nothing."""
        try:
            call()
        except Exception as exc:  # every class is part of the record
            self.add(label, (type(exc).__name__, getattr(exc, "field_name", None),
                             getattr(exc, "site", None), _mask(str(exc))))
        else:
            self.add(label, "no error")


def _arrays(d: _Digest, ks) -> None:
    from ksurf import frames, sinegordon, surfaces
    from ksurf.goursat import LatticeDomain2, solve_goursat_2d
    from ksurf.harness import demo_data
    from ksurf.sinegordon import BacklundParam, SchemeKind, reconstruct_phi, system_for

    chains = {"empty": [], "one": [BacklundParam(1.0, 0.5)],
              "three": [BacklundParam(*p) for p in THREE]}
    for k in ks:
        dom, data = LatticeDomain2.from_k(1.0, k), demo_data()
        for scheme in SchemeKind:
            sol = solve_goursat_2d(system_for(scheme), data, dom)
            d.add(f"k{k} {scheme.value} fields", [sol.a, sol.b])
            d.add(f"k{k} {scheme.value} phi", reconstruct_phi(sol, sol.b[0, 0], scheme).phi)
            d.add(f"k{k} {scheme.value} zcc", list(frames.zero_curvature_residual(sol, 1.0)))
            for order in ("xy", "yx") if scheme is SchemeKind.HIROTA else ():
                f = frames.propagate_frame(sol, 1.0, order)
                d.add(f"k{k} frame {order}", [f.psi, f.dpsi])
                del f
        del sol
        for name, chain in chains.items():
            for top in (True, False):
                lay = sinegordon._solve_layers(system_for(SchemeKind.HIROTA), chain, data, dom, top)
                d.add(f"k{k} layers {name} top={top}", [*lay.a, *lay.b, *lay.theta, *lay.cross])
        del lay
        for lam in (0.5, 1.0):
            for z, m in enumerate(surfaces.backlund_surface(data, dom, THREE, lam)):
                d.add(f"k{k} tower lam={lam} mesh {z}",
                      [m.points, m.zcc_residual, m.theta_cross_residual])


def _sweeps(d: _Digest) -> None:
    from ksurf import harness
    from ksurf.goursat import LatticeDomain2
    from ksurf.sinegordon import SchemeKind

    for scheme in SchemeKind:
        for every in (2, 4):
            cfg = harness.SweepConfig(quantity="fields_ab", scheme=scheme)
            kept = dict(harness._measured(cfg, harness.demo_data(),
                                          LatticeDomain2.from_k(1.0, 10), every))
            d.add(f"kept {scheme.value} every={every}", [kept["a"], kept["b"]])
        rep = harness.run_sweep(harness.SweepConfig(k_min=5, k_max=8, k_ref=10, scheme=scheme),
                                harness.demo_data())
        d.add(f"report {scheme.value}", [*(v for row in rep.rows for v in row), rep.slope,
                                         rep.intercept])
    kept_cases = [dict(quantity=q, scheme=s) for q in ("phi", "quotients_order_2")
                  for s in SchemeKind]
    kept_cases += [dict(quantity="surface"), dict(quantity="surface_bt", bt_chain=tuple(THREE))]
    for case in kept_cases:
        label = " ".join(str(getattr(v, "value", v)) for v in case.values())
        for every in (2, 4, 8):
            for name, kept in harness._measured(harness.SweepConfig(**case), harness.demo_data(),
                                                LatticeDomain2.from_k(1.0, 9), every):
                d.add(f"kept {label} {name} every={every}", kept)
        rep = harness.run_sweep(harness.SweepConfig(k_min=4, k_max=6, k_ref=9, **case),
                                harness.demo_data())
        d.add(f"report {label}", [*(v for row in rep.rows for v in row), rep.slope,
                                  rep.intercept, *(v for f in rep.families.values() for v in f)])


def _errors(d: _Digest) -> None:
    from ksurf import goursat, sinegordon
    from ksurf.goursat import GoursatData2, LatticeDomain2, Rhs2
    from ksurf.harness import demo_data
    from ksurf.sinegordon import BacklundParam, hirota_rhs, hirota_system, naive_system

    def big_b(a, b, eps):  # the Hirota step, infinite where b > 3.5 (layer 1, not layer 0)
        f, g = hirota_rhs(a, b, eps)
        return np.where(b > 3.5, np.inf, f), g

    layer_cases = {
        "theta0 nan": (hirota_system(), [(1.0, 0.5), (1.0, np.nan)], demo_data()),
        "theta0 inf": (hirota_system(), [(1.0, np.inf)], demo_data()),
        "theta0 -inf": (hirota_system(), [(0.5, 0.2), (1.0, -np.inf)], demo_data()),
        "naive layer 0": (naive_system(), [(1.0, 0.5), (1.0, 0.5)], demo_data()),
        "a0 nan": (hirota_system(), [(1.0, 0.5)],
                   GoursatData2(lambda x: np.where(x > 0.3, np.nan, x), lambda y: 0.0 * y)),
        "a0 1e308": (hirota_system(), [(1.0, 0.5)],
                     GoursatData2(lambda x: 0.0 * x + 1e308, lambda y: 1.0 + np.sin(y))),
        "layer 1 blows up": (Rhs2(big_b, 2.0, "big b"), [(1.0, 0.5), (1.0, 0.5)], demo_data()),
        "naive before theta0 nan": (naive_system(), [(1.0, 0.5), (1.0, np.nan)], demo_data()),
    }
    dom = LatticeDomain2.from_k(1.0, 3)
    for name, (rhs2, chain, data) in layer_cases.items():
        chain = [BacklundParam(*p) for p in chain]
        d.error(f"layers {name}", lambda: sinegordon._solve_layers(rhs2, chain, data, dom))

    def step_a(a, b, eps):
        return np.where(a > 0.9, np.inf, 0.0), np.zeros_like(b)

    def step_b(a, b, eps):
        return np.zeros_like(a), np.where((a == 0.3) & (b == 0.7), np.nan, 0.0)

    def step_ab(a, b, eps):
        return np.where(a == 0.3, np.nan, 0.0), np.where(b == 0.7, np.nan, 0.0)

    def step_heal(a, b, eps):
        a, b = np.nan_to_num(a), np.nan_to_num(b)
        return np.where(a == 0.3, np.nan, 0.0), np.exp(1000.0 * b)

    calls = []

    def step_once(a, b, eps):  # non-finite on its first call only
        calls.append(1)
        return np.full_like(a, np.nan if len(calls) == 1 else 0.0), np.zeros_like(b)

    blowups = {
        "a": (step_a, GoursatData2(lambda x: 0.95, lambda y: 0.0)),
        "b": (step_b, GoursatData2(np.array([0.0, 0.0, 0.3, 0.0]), np.array([0.0, 0.7, 0.0, 0.0]))),
        "ab": (step_ab, GoursatData2(np.array([0.0, 0.0, 0.3, 0.0]),
                                     np.array([0.0, 0.0, 0.7, 0.0]))),
        "heal": (step_heal, GoursatData2(np.array([0.0, 0.0, 0.0, 0.3]),
                                         np.array([1.0, 0.0, 0.0, 0.0]))),
        "data": (step_a, GoursatData2(np.array([0.0, 1.0, np.inf, np.nan]), np.zeros(4))),
    }
    # the one-layer solve; a checkout without _solve_one solved one layer in _sweep
    solve = getattr(goursat, "_solve_one", None) or goursat._sweep
    dom = LatticeDomain2(1.0, 0.25)
    with np.errstate(all="ignore"):
        for name, (step, data) in blowups.items():
            for every in (1, 2, 4):
                rhs = Rhs2(step, np.inf, name)
                d.error(f"blow-up {name} every={every}", lambda: solve(rhs, data, dom, every))
        draws = iter([0.95, 0.0])
        fresh = GoursatData2(lambda x: np.full(np.shape(x), next(draws)), lambda y: 0.0)
        d.error("blow-up resampled", lambda: solve(Rhs2(step_a, np.inf, "a"), fresh, dom, 2))
        d.error("blow-up once", lambda: solve(Rhs2(step_once, np.inf, "once"), demo_data(), dom, 2))


def _checks(d: _Digest) -> None:
    from ksurf.goursat import EdgeField2, LatticeDomain2
    from ksurf.harness import demo_data
    from ksurf.sinegordon import (SchemeKind, backlund_system, check_compatibility_3d,
                                  reconstruct_phi)
    from ksurf.surfaces import backlund_surface, solve_backlund_chain, validate_k_surface

    rng = np.random.default_rng(19)
    for k in CHECK_KS:
        dom = LatticeDomain2.from_k(1.0, k)
        sol = solve_backlund_chain(demo_data(), dom, THREE)
        phis = [reconstruct_phi(EdgeField2(a, b, dom), b[0, 0], SchemeKind.HIROTA)
                for a, b in zip(sol.a, sol.b)]
        del sol
        tower = backlund_surface(demo_data(), dom, THREE)
        noisy = type(tower[0])(tower[0].points + rng.normal(scale=1e-4, size=tower[0].points.shape),
                               dom.eps, dom.r, 1.0)
        for z, (mesh, phi) in enumerate(zip(tower + [noisy], phis + phis[:1])):
            rep = validate_k_surface(mesh, phi)
            d.add(f"k{k} validate mesh {z}", [rep.edge, rep.planarity, rep.angle, rep.angle_sum,
                                              rep.interior_sites])
        del tower, noisy, phis
    for m in (25_000, 100_000):
        samples = rng.uniform(-3.0, 3.0, size=(m, 3))
        for scheme in SchemeKind:
            for alpha in (0.5, 1.0, 2.0):
                for eps in (2.0**-3, 2.0**-6):
                    d.add(f"compat m={m} {scheme.value} alpha={alpha} eps={eps}",
                          check_compatibility_3d(backlund_system(alpha, scheme), samples, eps))


def _nd(d: _Digest) -> None:
    from ksurf.ndsys import SystemSpecND, sine_gordon_2d_spec, sine_gordon_3d_spec, solve_goursat_nd
    from ksurf.sinegordon import SchemeKind

    a0 = lambda x, *_: np.cos(2.0 * x)  # noqa: E731
    b0 = lambda x, y, *_: 1.0 + np.sin(y)  # noqa: E731
    theta0 = lambda x, y, z: (0.5, -0.3)[int(round(z))]  # noqa: E731

    def add(label, spec, data, r):
        st = solve_goursat_nd(spec, data, r)
        d.add(label, [*st.fields, st.alt_residual])

    for scheme in SchemeKind:
        for eps in (2.0**-3, 2.0**-6):
            add(f"nd 2d {scheme.value} eps={eps}", sine_gordon_2d_spec(scheme, eps), [a0, b0], 1.0)
    for alpha in (0.5, 1.0, 2.0):
        for eps in (2.0**-3, 2.0**-5):
            add(f"nd 3d alpha={alpha} eps={eps}", sine_gordon_3d_spec(alpha, eps),
                [a0, b0, theta0], (1.0, 1.0, 2.0))
    rates = (0.25, -0.5, 1.0, 0.125)
    toy = SystemSpecND(evol=(frozenset(range(4)),),
                       rhs={(0, i): (lambda s, c=c: c * s[0]) for i, c in enumerate(rates)},
                       deps={(0, i): frozenset({0}) for i in range(4)}, eps=(0.5, 0.5, 0.25, 0.25))
    add("nd 4d toy", toy, [lambda *xs: 1.0], (1.0, 1.0, 1.0, 0.5))

    def grid(target):  # u = i + 1000 j on 111 x 111, the y-step into target off by 1e-3
        bad = target[0] + 1000.0 * (target[1] - 1)
        return SystemSpecND(evol=(frozenset({0, 1}),),
                            rhs={(0, 0): lambda s: np.ones_like(s[0]),
                                 (0, 1): lambda s: 1000.0 + np.where(s[0] == bad, 1e-3, 0.0)},
                            deps={(0, 0): frozenset({0}), (0, 1): frozenset({0})}, eps=(1.0, 1.0))

    growth = SystemSpecND(evol=(frozenset({0}),),
                          rhs={(0, 0): lambda s: np.where(np.asarray(s[0]) > 1.5, np.inf, 1.0)},
                          deps={(0, 0): frozenset({0})}, eps=(0.5, 0.5))
    spec3 = sine_gordon_3d_spec(1.0, 2.0**-4)
    hot = {**spec3.rhs, (2, 1): lambda s: np.where(s[1] > 1.5, np.inf, spec3.rhs[(2, 1)](s))}
    cases = {
        "data": (sine_gordon_2d_spec(SchemeKind.HIROTA, 2.0**-3),
                 [a0, lambda x, y: np.inf if y == 0.5 else 1.0], 1.0),
        "growth": (growth, [lambda x, y: 1.2], (2.0, 2.0)),
        "theta step": (SystemSpecND(spec3.evol, hot, spec3.deps, spec3.eps),
                       [a0, b0, theta0], (1.0, 1.0, 2.0)),
        "naive 3d": (sine_gordon_3d_spec(1.0, 2.0**-4, SchemeKind.NAIVE), [a0, b0, theta0],
                     (1.0, 1.0, 1.0)),
    }
    for target in ((37, 50), (7, 8), (8, 8), (9, 8), (9, 9), (1, 110)):
        cases[f"grid {target}"] = (grid(target), [lambda x, y: 0.0], (110.0, 110.0))
    with np.errstate(all="ignore"):
        for name, (spec, data, r) in cases.items():
            d.error(f"nd {name}", lambda: solve_goursat_nd(spec, data, r))


def _cli(d: _Digest, src: Path) -> None:
    from ksurf.surfaces import load_obj_points

    env = dict(os.environ, PYTHONPATH=str(src))
    code = "import sys; from ksurf.cli import main; sys.exit(main(sys.argv[1:]))"
    for argv in CLI_RUNS:
        with tempfile.TemporaryDirectory() as tmp:
            run = subprocess.run([sys.executable, "-c", code, *argv], cwd=tmp, env=env,
                                 capture_output=True, text=True)
            label = "ksurf " + " ".join(argv)
            d.add(label, [run.returncode, run.stdout, run.stderr])
            for path in sorted(Path(tmp).rglob("*")):
                d.add(f"{label} {path.relative_to(tmp)}", path.read_bytes())
                if path.suffix == ".obj":
                    d.add(f"{label} {path.relative_to(tmp)} points", load_obj_points(path))


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    root = Path(args[0] if args else Path(__file__).resolve().parents[1]).resolve()
    src = root / "src"
    sys.path.insert(0, str(src))
    import ksurf

    if Path(ksurf.__file__).resolve().parent != src / "ksurf":
        print(f"error: imported ksurf from {ksurf.__file__}, not {src}", file=sys.stderr)
        return 1
    d = _Digest()
    _arrays(d, KS)
    _sweeps(d)
    _errors(d)
    _checks(d)
    _cli(d, src)
    _nd(d)
    print(d.h.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
