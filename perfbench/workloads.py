"""Benchmark workloads: seeded inputs, timed jobs, output checks.

Four workloads, one per pipeline, each stressing different layers:

* surface_export: the CLI artifact path; CSV/OBJ text export, Lax frames and
  the Sym stream, and the same lattice solved three times.
* backlund_tower: the library Backlund path; frames, dressing, theta
  propagation and chained solves, no export.
* converge_fields: the Goursat sweep on a fine reference lattice; no frames
  and no export.
* nd_lattice: the d-dimensional solver and the compatibility check, the
  only path through ndsys.

Every workload uses the demo data family at lambda = 1.  Seed 0 is
``demo_data()`` exactly; other seeds perturb the amplitudes and phases of
a0 = cos(2x) and b0 = 1 + sin(y) by a few percent, so every seed gives the
same amount of work and the same code path.  Workloads take their lattice
level k; the defaults are two levels below the sizes users run (k = 8
instead of 10), so that a job takes about a second and a run holds a dozen
of them, each between two reference blocks.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil

import numpy as np

from ksurf import cli
from ksurf.goursat import GoursatData2, LatticeDomain2
from ksurf.harness import SweepConfig, demo_data, run_sweep
from ksurf.ndsys import sine_gordon_3d_spec, solve_goursat_nd
from ksurf.sinegordon import (
    BacklundParam,
    SchemeKind,
    hirota_backlund_system,
    solve_goursat_3d,
)
from ksurf.surfaces import backlund_step_norms, backlund_surface

LAM = 1.0
ND_THETA0 = (0.5, -0.3)
CHECK_SAMPLES = 25_000
BACKLUND_CHAIN = (
    BacklundParam(1.0, 0.5),
    BacklundParam(0.5, -0.25),
    BacklundParam(2.0, 0.1),
)


class CheckFailed(Exception):
    """A job's output failed its correctness check."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


class DataFamily:
    """Seeded member of the demo data family: a0 = A cos(2x + p), b0 = 1 + B sin(y + q)."""

    def __init__(self, seed: int):
        self.seed = seed
        if seed == 0:
            self.amp_a, self.amp_b, self.ph_a, self.ph_b = 1.0, 1.0, 0.0, 0.0
        else:
            # Only directions that lower the angle phi: seed 0 peaks at
            # phi = 3.0955, and where phi passes pi the vertex stars stop
            # being embedded and the validator's angle-sum residual fails.
            rng = np.random.default_rng(seed)
            self.amp_a, self.amp_b = rng.uniform(0.97, 1.0, 2)
            self.ph_a = rng.uniform(0.0, 0.05)
            self.ph_b = rng.uniform(-0.05, 0.0)

    def a0(self, x, y=None, z=None):
        return self.amp_a * np.cos(2.0 * x + self.ph_a)

    def b0(self, x, y=None, z=None):
        # called as b0(y) on the axis and as b0(x, y, z) by the d-dimensional solver
        t = x if y is None else y
        return 1.0 + self.amp_b * np.sin(t + self.ph_b)

    def goursat(self) -> GoursatData2:
        if self.seed == 0:
            return demo_data()
        return GoursatData2(a0=self.a0, b0=lambda y: self.b0(y))


def _write_tabulated(path: str, values: np.ndarray, dom: LatticeDomain2) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for i, v in enumerate(values):
            fh.write(f"{i * dom.eps!r} {float(v)!r}\n")


def _cli(argv: list) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


class Workload:
    """Set-up in __init__; job() is timed, check() and cleanup() are not."""

    name = ""
    K = 8

    def __init__(self, seed: int, workdir: str, k: int | None = None):
        self.seed = seed
        self.k = self.K if k is None else k
        self.family = DataFamily(seed)
        self.data = self.family.goursat()

    def job(self):
        raise NotImplementedError

    def check(self, result) -> None:
        """Raise CheckFailed when the job's output is wrong."""
        raise NotImplementedError

    def sites(self) -> int:
        """Lattice sites one job produces."""
        raise NotImplementedError

    def cleanup(self) -> None:
        """Remove what one job wrote (outside the timed region)."""


class SurfaceExport(Workload):
    """ksurf solve --k K --phi, then ksurf surface --k K, through ksurf.cli.main.

    The artifact path users run: CSV and OBJ export dominate, and the same
    lattice is solved three times.
    """

    name = "surface_export"

    def __init__(self, seed, workdir, k=None):
        super().__init__(seed, workdir, k)
        self.dom = LatticeDomain2.from_k(1.0, self.k)
        a_row, b_col = self.data.sample(self.dom)
        self.a_path = os.path.join(workdir, "data_a.txt")
        self.b_path = os.path.join(workdir, "data_b.txt")
        _write_tabulated(self.a_path, a_row, self.dom)
        _write_tabulated(self.b_path, b_col, self.dom)
        self.out = os.path.join(workdir, "out")

    def job(self):
        os.makedirs(self.out, exist_ok=True)
        common = ["--k", str(self.k), "--data", f"{self.a_path},{self.b_path}"]
        solve = _cli(["solve", *common, "--phi", "--out", os.path.join(self.out, "solve")])
        surface = _cli(["surface", *common, "--out", os.path.join(self.out, "surface")])
        return solve, surface

    def check(self, result) -> None:
        (solve_code, _), (surf_code, surf_text) = result
        _require(solve_code == 0, f"ksurf solve exited {solve_code}")
        _require(surf_code == 0, f"ksurf surface exited {surf_code}")
        n = self.dom.n
        for field in ("a", "b", "phi"):
            path = os.path.join(self.out, f"solve_{field}.csv")
            _require(os.path.isfile(path) and os.path.getsize(path) > 0,
                     f"solve_{field}.csv is missing or empty")
        obj = os.path.join(self.out, "surface.obj")
        _require(os.path.isfile(obj), "surface.obj is missing")
        verts = faces = 0
        with open(obj, "rb") as fh:
            for line in fh:
                if line.startswith(b"v "):
                    verts += 1
                elif line.startswith(b"f "):
                    faces += 1
        _require(verts == (n + 1) ** 2, f"OBJ has {verts} vertices, want {(n + 1) ** 2}")
        _require(faces == n * n, f"OBJ has {faces} faces, want {n * n}")
        # criterion 06: every validator residual <= 1e-9
        line = next((l for l in surf_text.splitlines() if l.startswith("residuals:")), "")
        values = [float(tok.rstrip(",")) for tok in line.split()
                  if tok[:1].isdigit()][:4]
        _require(len(values) == 4 and max(values) <= 1e-9,
                 f"validator residuals {values} exceed 1e-9")

    def sites(self) -> int:
        # the solved field lattice and the surface mesh, each on (n+1)^2 sites
        return 2 * (self.dom.n + 1) ** 2

    def cleanup(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)


class BacklundTower(Workload):
    """backlund_surface with a three-step chain, then the step norms per layer.

    The library path of ksurf backlund without the OBJ writes: frames,
    dressing, theta propagation and 2R chained 2D solves.
    """

    name = "backlund_tower"

    def __init__(self, seed, workdir, k=None):
        super().__init__(seed, workdir, k)
        self.dom = LatticeDomain2.from_k(1.0, self.k)

    def job(self):
        tower = backlund_surface(self.data, self.dom, BACKLUND_CHAIN, LAM)
        return [backlund_step_norms(tower[z], tower[z + 1]) for z in range(len(tower) - 1)]

    def check(self, result) -> None:
        _require(len(result) == len(BACKLUND_CHAIN), "tower has the wrong number of layers")
        # criterion 07: constant step of length 2 lam alpha / (alpha^2 + lam^2)
        for p, norms in zip(BACKLUND_CHAIN, result):
            expected = 2.0 * LAM * p.alpha / (p.alpha**2 + LAM**2)
            _require(norms.std() / norms.mean() <= 1e-9,
                     f"step norms spread {norms.std() / norms.mean():.3e} > 1e-9")
            _require(abs(norms.mean() - expected) <= 1e-9 * expected,
                     f"mean step {norms.mean()!r} != {expected!r}")

    def sites(self) -> int:
        return (len(BACKLUND_CHAIN) + 1) * (self.dom.n + 1) ** 2


class ConvergeFields(Workload):
    """run_sweep of fields_ab for Hirota and naive, k = 5..K against k_ref = K + 2.

    Acceptance criterion 02 (at K = 10): the Goursat sweep on the reference
    lattice does almost all the work and sets the peak memory.
    """

    name = "converge_fields"
    SCHEMES = (SchemeKind.HIROTA, SchemeKind.NAIVE)

    def config(self, scheme=SchemeKind.HIROTA) -> SweepConfig:
        return SweepConfig(quantity="fields_ab", scheme=scheme, k_min=5, k_max=self.k,
                           k_ref=self.k + 2)

    def job(self):
        return [run_sweep(self.config(s), self.data) for s in self.SCHEMES]

    def check(self, result) -> None:
        # criterion 02: strictly decreasing errors, slope in [0.8, 1.2]
        rows = self.k - 5 + 1
        for rep in result:
            errs = [e for _, e in rep.rows]
            _require(len(errs) == rows, f"{len(errs)} sweep rows, want {rows}")
            _require(all(errs[i + 1] < errs[i] for i in range(rows - 1)),
                     f"errors not strictly decreasing: {errs}")
            _require(0.8 <= rep.slope <= 1.2, f"slope {rep.slope} outside [0.8, 1.2]")

    def sites(self) -> int:
        cfg = self.config()
        levels = [*range(cfg.k_min, cfg.k_max + 1), cfg.k_ref]
        return len(self.SCHEMES) * sum((2**k + 1) ** 2 for k in levels)


class NdLattice(Workload):
    """solve_goursat_nd on the 3D Backlund system (eps = 2^-K, two layers), then
    ksurf check on random samples.

    The only path through ndsys: it calls the Hirota and Backlund
    right-hand sides per scalar site and on random batches, not per
    anti-diagonal.
    """

    name = "nd_lattice"
    K = 6

    def __init__(self, seed, workdir, k=None):
        super().__init__(seed, workdir, k)
        self.eps = 2.0**-self.k
        fam = self.family
        self.nd_data = [fam.a0, fam.b0, lambda x, y, z: ND_THETA0[int(round(z))]]

    def job(self):
        state = solve_goursat_nd(sine_gordon_3d_spec(1.0, self.eps), self.nd_data,
                                 (1.0, 1.0, float(len(ND_THETA0))))
        code, _ = _cli(["check", "--samples", str(CHECK_SAMPLES), "--seed", str(self.seed)])
        return state, code

    def check(self, result) -> None:
        state, code = result
        _require(code == 0, f"ksurf check exited {code}")
        # criterion 09: alternative assignments and the dedicated 3D solver agree
        _require(state.alt_residual <= 1e-13, f"alt_residual {state.alt_residual:.3e} > 1e-13")
        ref = solve_goursat_3d(hirota_backlund_system(1.0), self.data, list(ND_THETA0),
                               LatticeDomain2(1.0, self.eps))
        worst = 0.0
        for z in range(len(ND_THETA0) + 1):
            worst = max(worst, np.abs(state.fields[0][:, :, z] - ref.a[z]).max(),
                        np.abs(state.fields[1][:, :, z] - ref.b[z]).max())
        for z in range(len(ND_THETA0)):
            worst = max(worst, np.abs(state.fields[2][:, :, z] - ref.theta[z]).max())
        _require(worst <= 1e-13, f"nd solver differs from solve_goursat_3d by {worst:.3e}")

    def sites(self) -> int:
        n = round(1.0 / self.eps)
        return (n + 1) ** 2 * (len(ND_THETA0) + 1)


WORKLOADS = {w.name: w for w in (SurfaceExport, BacklundTower, ConvergeFields, NdLattice)}
