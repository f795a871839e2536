"""Convergence experiments on nested lattices.

A sweep solves the same Goursat problem for eps = 2^-k, k = k_min..k_max
(n = r*2^k steps), measures each solution against a much finer reference
(k_ref >= k_max + 2, so the reference error is negligible next to the
coarse one), and fits a line to (log eps, log error).  First-order
convergence shows up as a slope near 1.  The reference is compared on
common sites only, which exist because the lattices are nested; all of
them lie on the k_max lattice, so the reference keeps only those.

Measurable quantities: the fields themselves, the reconstructed angle, the
immersed surface, the surface after a Backlund chain, and difference
quotients of the fields up to the order m named by the quantity
'quotients_order_<m>' (quotients are formed on each grid with its own eps
and compared at common sites, so the comparison is between discrete
derivatives, not interpolants).  Every quantity is one or more named arrays
per lattice; one loop solves each level in turn and measures each of its
arrays against the same reference array, cut to the common sites by one
strided rule (_quotient).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .goursat import (
    GoursatData2,
    LatticeDomain2,
    _solve_one,
    solve_goursat_2d,
    sup_error,
)
from .sinegordon import SchemeKind, reconstruct_phi, system_for
from .surfaces import backlund_surface

_QUANTITIES = ("fields_ab", "phi", "surface", "surface_bt", "quotients")


def demo_data() -> GoursatData2:
    """Smooth nontrivial Goursat data used across examples and experiments."""
    return GoursatData2(
        a0=lambda x: np.cos(2.0 * x),
        b0=lambda y: 1.0 + np.sin(y),
    )


def zero_data() -> GoursatData2:
    """Zero data: the solution degenerates and all errors sit at roundoff."""
    return GoursatData2(a0=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
                        b0=lambda y: np.zeros_like(np.asarray(y, dtype=float)))


@dataclass(frozen=True)
class SweepConfig:
    """What to sweep: lattice levels, quantity, scheme, spectral parameter.

    quantity is one of 'fields_ab', 'phi', 'surface', 'surface_bt',
    'quotients' or 'quotients_order_<m>'; the latter is stored as
    'quotients' with quotient_order = m (2 for plain 'quotients').  The
    order is set by the quantity name only, so dataclasses.replace keeps it
    only when given quantity='quotients_order_<m>' again.  lam is read by
    the two surface quantities and bt_chain only by 'surface_bt' (a chain
    for any other quantity is refused).  What run_sweep could not measure is
    refused here, before anything is solved: fewer than three levels (no
    slope to fit), a surface quantity with any scheme but Hirota, a quotient
    order m that the coarsest level, r 2^k_min <= m steps, cannot form, and
    an r or a lam that is not positive and finite.
    """

    r: float = 1.0
    k_min: int = 5
    k_max: int = 10
    k_ref: int = 12
    quantity: str = "fields_ab"
    scheme: SchemeKind = SchemeKind.HIROTA
    lam: float = 1.0
    bt_chain: tuple = ()
    quotient_order: int = field(default=2, init=False)

    def __post_init__(self):
        q = self.quantity
        if q.startswith("quotients_order_"):
            m = q[len("quotients_order_"):]
            if not (m.isdecimal() and int(m) >= 1):
                raise ValueError(f"quantity {q!r}: quotient_order must be an integer >= 1")
            object.__setattr__(self, "quantity", "quotients")
            object.__setattr__(self, "quotient_order", int(m))
            q = "quotients"
        if q not in _QUANTITIES:
            raise ValueError(f"unknown quantity {q!r}; pick one of {_QUANTITIES}")
        if self.bt_chain and q != "surface_bt":
            raise ValueError(f"bt_chain is read only by quantity 'surface_bt', not {q!r}")
        if q.startswith("surface") and self.scheme is not SchemeKind.HIROTA:
            raise ValueError("surface sweeps require the Hirota scheme")
        if not (1 <= self.k_min <= self.k_max):
            raise ValueError(f"need 1 <= k_min <= k_max, got {self.k_min}..{self.k_max}")
        if self.k_max - self.k_min < 2:
            raise ValueError(f"k_min..k_max = {self.k_min}..{self.k_max} gives fewer than the "
                             f"3 levels a slope is fitted to")
        if self.k_ref < self.k_max + 2:
            raise ValueError(
                f"k_ref = {self.k_ref} too close to k_max = {self.k_max}; "
                f"the reference must be at least two levels finer"
            )
        if not (math.isfinite(self.r) and self.r > 0):
            raise ValueError(f"r must be positive and finite, got {self.r}")
        if q == "quotients" and self.r * 2**self.k_min <= self.quotient_order:
            raise ValueError(f"quotient order {self.quotient_order} needs more than "
                             f"{self.quotient_order} steps per axis, but k_min = {self.k_min} "
                             f"gives r * 2^k_min = {self.r * 2**self.k_min:g}")
        if not (math.isfinite(self.lam) and self.lam > 0):
            raise ValueError(f"lambda must be positive and finite, got {self.lam}")


@dataclass
class ConvergenceReport:
    """Sweep result: (eps, error) rows sorted by decreasing eps, plus fit.

    families breaks the error down by component (e.g. per field or per
    quotient order); each entry lists one value per row.  degenerate is set
    when every error is at roundoff (<= 1e-13), in which case no line is fit
    and slope/intercept are NaN.
    """

    quantity: str
    rows: list
    slope: float
    intercept: float
    degenerate: bool
    families: dict = field(default_factory=dict)


def fit_slope(rows: Sequence) -> tuple:
    """Least-squares line through (log eps, log error); returns (slope, intercept)."""
    if len(rows) < 3:
        raise ValueError(f"need at least 3 rows to fit a slope, got {len(rows)}")
    eps = np.array([row[0] for row in rows], dtype=float)
    err = np.array([row[1] for row in rows], dtype=float)
    for name, vals in (("eps", eps), ("error", err)):
        bad = ~(np.isfinite(vals) & (vals > 0))
        if bad.any():
            raise ValueError(f"slope fit needs positive finite eps and errors, got {name} = "
                             f"{float(vals[bad][0])}")
    slope, intercept = np.polyfit(np.log(eps), np.log(err), 1)
    return float(slope), float(intercept)


def _quotient(p: np.ndarray, kx: int, ky: int, eps: float, every: int = 1) -> np.ndarray:
    """delta_x^kx delta_y^ky p at the sites i = j = 0 (mod every) where it is
    defined, in an array of its own (p itself for kx = ky = 0, every = 1).
    Each stencil offset is one strided view of p, differenced as delta_x and
    delta_y difference the whole array (x first, then y): their bits, formed
    at the kept sites only.  Axes after the first two are carried along."""
    ni, nj = (len(range(0, m - k, every)) for m, k in zip(p.shape, (kx, ky)))
    q = [[p[u::every, v::every][:ni, :nj] for v in range(ky + 1)] for u in range(kx + 1)]
    for _ in range(kx):
        q = [[(hi - lo) / eps for lo, hi in zip(r0, r1)] for r0, r1 in zip(q, q[1:])]
    for _ in range(ky):
        q = [[(hi - lo) / eps for lo, hi in zip(r, r[1:])] for r in q]
    out = q[0][0]  # a view of p only for kx = ky = 0
    return out if out.base is None else out.copy() if every > 1 else p


def _measured(cfg: SweepConfig, data: GoursatData2, dom: LatticeDomain2, every: int = 1):
    """The swept quantity on one lattice as (name, array) pairs, each formed
    only when asked for (the solved fields stay alive between quotients), in
    an order that does not depend on the lattice.  Each array keeps only
    the sites i = j = 0 (mod every): the fields are solved at those sites
    only, every other quantity is formed on the whole lattice and cut down
    by _quotient (kx = ky = 0 for phi and the surfaces)."""
    if cfg.quantity.startswith("surface"):  # 'surface' is the tower of an empty chain
        yield cfg.quantity, _quotient(
            backlund_surface(data, dom, cfg.bt_chain, cfg.lam)[-1].points, 0, 0, dom.eps, every)
        return
    rhs = system_for(cfg.scheme)
    if cfg.quantity == "fields_ab":
        # every level is a plain solve, the entry point that layer tracers wrap
        sol = solve_goursat_2d(rhs, data, dom) if every == 1 else _solve_one(rhs, data, dom, every)
        yield "a", sol.a
        yield "b", sol.b
        return
    if cfg.quantity == "phi":  # seeded by the b0 sample the solve stored
        sol = solve_goursat_2d(rhs, data, dom)
        yield "phi", _quotient(reconstruct_phi(sol, sol.b[0, 0], cfg.scheme).phi, 0, 0, dom.eps,
                               every)
        return
    sol = solve_goursat_2d(rhs, data, dom)
    for kx in range(cfg.quotient_order + 1):
        for ky in range(1 if kx == 0 else 0, cfg.quotient_order + 1 - kx):
            for name in ("a", "b"):
                yield f"{name}_dx{kx}dy{ky}", _quotient(getattr(sol, name), kx, ky, dom.eps,
                                                        every)


def run_sweep(cfg: SweepConfig, data: GoursatData2) -> ConvergenceReport:
    """Measure the configured quantity against the k_ref reference lattice.

    A level is compared with the reference at the sites of its own lattice,
    all of which lie on the k_max lattice, so the reference keeps only
    those.  For fields_ab the sweep itself keeps them, at O(n) memory beyond
    the k_max-sized kept arrays; the other quantities solve the whole
    reference lattice first and keep its sites by one strided rule.  Each
    level is then solved, measured against every kept array and dropped in
    turn."""
    doms = [LatticeDomain2.from_k(cfg.r, k) for k in range(cfg.k_min, cfg.k_max + 1)]
    dom_ref = LatticeDomain2.from_k(cfg.r, cfg.k_ref)
    every = 2 ** (cfg.k_ref - cfg.k_max)
    ref = dict(_measured(cfg, data, dom_ref, every))
    families: dict = {name: [] for name in ref}
    for dom in doms:
        for name, p in _measured(cfg, data, dom):
            families[name].append(sup_error(p, dom.eps, ref[name], dom_ref.eps * every))
        del p  # hold no array of this level while the next is solved

    per_row = list(zip(*families.values()))
    rows = [(doms[idx].eps, float(max(vals))) for idx, vals in enumerate(per_row)]
    degenerate = all(err <= 1e-13 for _, err in rows)
    if degenerate:
        slope, intercept = math.nan, math.nan
    else:
        slope, intercept = fit_slope(rows)
    return ConvergenceReport(cfg.quantity, rows, slope, intercept, degenerate, families)


def emit_report(report: ConvergenceReport, path) -> None:
    """Write rows as 'epsilon,error' CSV with the fit in trailing comments."""
    if not report.rows:
        raise ValueError("cannot emit an empty report")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("epsilon,error\n")
        for eps, err in report.rows:
            fh.write(f"{eps:.17g},{err:.17g}\n")
        if report.degenerate:
            fh.write("# degenerate=true\n")
        else:
            fh.write(f"# slope={report.slope:.17g}\n")
            fh.write(f"# intercept={report.intercept:.17g}\n")


def load_report(path) -> ConvergenceReport:
    """Read back an emitted report (rows and fit only; families are not stored)."""
    rows = []
    slope = intercept = math.nan
    degenerate = False
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip()
        if header != "epsilon,error":
            raise ValueError(f"{path}: unexpected header {header!r}")
        for ln, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if body == "degenerate=true":
                    degenerate = True
                elif body.startswith("slope="):
                    slope = float(body[len("slope="):])
                elif body.startswith("intercept="):
                    intercept = float(body[len("intercept="):])
                continue
            try:
                e, v = (float(c) for c in line.split(","))
            except ValueError:
                raise ValueError(f"{path}:{ln}: expected 'epsilon,error', got {line!r}") from None
            rows.append((e, v))
    return ConvergenceReport("", rows, slope, intercept, degenerate)
