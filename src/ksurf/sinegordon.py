"""Sine-Gordon systems on the lattice: schemes, Backlund extension, checks.

The continuous system for a = phi_x and b = phi is

    a_y = sin b,     b_x = a.

Two discretizations are provided as right-hand sides for the Goursat solver:

* naive: the continuous right-hand sides frozen on the lattice (first order
  accurate, but with no further structure), and
* hirota: the integrable discretization.  In the variables a = delta_x phi,
  b = (phi(x, y+eps) + phi(x, y))/2 the scheme reads

      delta_y a = f(a, b, eps),   delta_x b = a + (eps/2) f(a, b, eps),

  where f is a complex-logarithm expression that is real for real inputs
  (the two log arguments are complex conjugates; hirota_rhs evaluates it in
  a real atan2 form).

The Backlund transformation adds a third lattice direction (step 1) whose
only new datum is the parameter alpha (Rhs3): an auxiliary angle theta
propagates in x and y, and the transformed fields on the next layer are read
off from theta.  The six right-hand sides form a compatible three-dimensional
system exactly when the Hirota scheme is used; check_compatibility_3d
measures the defect of the three closure identities, which is what fails for
the naive scheme.  _solve_layers solves a chain of steps, every layer by the
same scheme.

Angles are stored as unwrapped real numbers; circle semantics enter only
through trigonometric evaluation, so difference quotients of angle fields are
meaningful.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .goursat import (
    COMPAT_TOL,
    BlowUpError,
    CompatibilityError,
    EdgeField2,
    GoursatData2,
    LatticeDomain2,
    Rhs2,
    _SWEEP_SITE,
    _bands,
    _check_data,
    _fields,
    _plan,
    _raise_first_blowup,
    _read_pairs,
    _require_step,
    _solve_one,
    _sweep,
    _tiles,
)


class SchemeKind(enum.Enum):
    NAIVE = "naive"
    HIROTA = "hirota"


# ---------------------------------------------------------------------------
# right-hand sides


def naive_rhs(a, b, eps):
    """Naive scheme: the continuous right-hand sides, independent of eps."""
    return np.sin(b), np.asarray(a) + 0.0


def hirota_rhs(a, b, eps):
    """Hirota scheme right-hand sides (f, g).

    f = (2/(i eps^2)) log[(1 - (eps^2/4) e^{-ib - i eps a/2})
                          / (1 - (eps^2/4) e^{+ib + i eps a/2})]

    and g = a + (eps/2) f.  The two log arguments are complex conjugates with
    positive real part (|w| = eps^2/4 < 1), so the ratio has modulus one and
    f is real: f = -(4/eps^2) Im log(1 - w) with w = p e^{it}, p = eps^2/4,
    t = b + eps a/2.  Since Im log(1 - w) = atan2(-p sin t, 1 - p cos t), f is
    evaluated in that real form, with no complex exp or log; the atan2 agrees
    with the complex-log imaginary part to within one ulp.
    """
    if not 0.0 < eps < 2.0:
        raise ValueError(
            f"Hirota scheme needs 0 < eps < 2 (log arguments must stay in the "
            f"right half-plane); got eps = {eps}"
        )
    if eps * eps <= 2.0**-1022:  # 4/eps^2 overflows exactly from the smallest normal float down
        raise ValueError(f"Hirota scheme step eps = {eps} is too small: 4/eps^2 overflows")
    f = (-4.0 / (eps * eps)) * _im_log1m(0.25 * eps * eps,
                                         np.asarray(b) + 0.5 * eps * np.asarray(a))
    return f, a + (0.5 * eps) * f


def _im_log1m(p, t):
    """Im log(1 - p e^{it}) for real p and t, as atan2(-p sin t, 1 - p cos t)."""
    return np.arctan2(-p * np.sin(t), 1.0 - p * np.cos(t))


def naive_system() -> Rhs2:
    return Rhs2(naive_rhs, np.inf, "naive")


def hirota_system() -> Rhs2:
    return Rhs2(hirota_rhs, 2.0, "hirota")


def system_for(scheme: SchemeKind) -> Rhs2:
    return hirota_system() if scheme is SchemeKind.HIROTA else naive_system()


# ---------------------------------------------------------------------------
# angle reconstruction


@dataclass
class PhiField:
    """Angle field on lattice sites, shape (n+1) x (n+1)."""

    phi: np.ndarray
    domain: LatticeDomain2
    scheme: SchemeKind


def reconstruct_phi(fields: EdgeField2, phi00: float, scheme: SchemeKind) -> PhiField:
    """Recover the angle phi from solved (a, b) fields.

    Hirota: phi(x+eps, 0) = phi(x, 0) + eps*a(x, 0) seeds the bottom row from
    phi00, then phi(x, y+eps) = 2 b(x, y) - phi(x, y) fills upward (b is the
    vertical-edge midpoint value).  The relation a = delta_x phi then holds on
    every row as a consequence of the solved system.

    Naive: b IS phi at its sites, so rows j <= n-1 are read off directly;
    phi00 must agree with b(0,0).  The top row is only reachable through
    a = delta_x phi, whose seed phi(0, n) no field value constrains; it is
    fixed by linear extension in y, which leaves every defining-relation and
    second-order residual unchanged.

    ValueError for a phi00 that is not finite, under either scheme.
    """
    if not np.isfinite(phi00):
        raise ValueError(f"phi00 = {phi00} is not finite")
    n = fields.domain.n
    eps = fields.domain.eps
    a, b = fields.a, fields.b
    phi = np.empty((n + 1, n + 1), dtype=float)
    if scheme is SchemeKind.HIROTA:
        np.cumsum(np.r_[phi00, eps * a[:, 0]], out=phi[:, 0])
        for j in range(n):
            phi[:, j + 1] = 2.0 * b[:, j] - phi[:, j]
    else:
        if abs(phi00 - b[0, 0]) > 1e-12 * max(1.0, abs(b[0, 0])):
            raise ValueError(
                f"naive scheme identifies phi with b: phi00 = {phi00} "
                f"contradicts b(0,0) = {b[0, 0]}"
            )
        phi[:, :n] = b
        if n >= 2:
            phi[0, n] = 2.0 * phi[0, n - 1] - phi[0, n - 2]
        else:
            phi[0, n] = phi[0, n - 1]
        np.cumsum(np.r_[phi[0, n], eps * a[:, n]], out=phi[:, n])
    return PhiField(phi, fields.domain, scheme)


def phi_defining_residual(fields: EdgeField2, field: PhiField) -> float:
    """Max residual of the change-of-variables relations defining (a, b)."""
    eps = fields.domain.eps
    phi = field.phi
    da = (phi[1:, :] - phi[:-1, :]) / eps - fields.a
    if field.scheme is SchemeKind.HIROTA:
        db = 0.5 * (phi[:, 1:] + phi[:, :-1]) - fields.b
    else:
        db = phi[:, :-1] - fields.b
    return max(float(np.max(np.abs(da))), float(np.max(np.abs(db))))


def second_order_residual(field: PhiField) -> float:
    """Residual of the one-field second-order form on every elementary square.

    Naive: delta_x delta_y phi - sin phi evaluated at the lower-left corner.
    Hirota: sin((phi11-phi10-phi01+phi00)/4) - (eps^2/4) sin((sum of four)/4).
    """
    eps = field.domain.eps
    p = field.phi
    p00 = p[:-1, :-1]
    p10 = p[1:, :-1]
    p01 = p[:-1, 1:]
    p11 = p[1:, 1:]
    if field.scheme is SchemeKind.HIROTA:
        res = np.sin(0.25 * (p11 - p10 - p01 + p00)) - (0.25 * eps * eps) * np.sin(
            0.25 * (p11 + p10 + p01 + p00)
        )
    else:
        res = (p11 - p10 - p01 + p00) / (eps * eps) - np.sin(p00)
    return float(np.max(np.abs(res)))


# ---------------------------------------------------------------------------
# Backlund transformation right-hand sides


def backlund_u(a, theta, alpha, eps):
    """Discrete Backlund x-derivative of theta.

    u = -a + (1/(i eps)) log[(1 - (eps alpha/2) e^{-i theta + i eps a/2})
                             / (1 - (eps alpha/2) e^{+i theta - i eps a/2})]
      = -a - (2/eps) Im log(1 - w),  w = (eps alpha/2) e^{i(theta - eps a/2)},

    with Im log(1 - w) evaluated in the real atan2 form (see hirota_rhs).
    ValueError where 2/eps is not finite (|eps| < 1.1e-308 or nan).
    """
    a = np.asarray(a)
    return -a - _two_over(eps) * _im_log1m(0.5 * eps * alpha, np.asarray(theta) - 0.5 * eps * a)


def backlund_v(b, theta, alpha, eps):
    """Discrete Backlund y-derivative of theta.

    v = (1/(i eps)) log[(1 - (eps/(2 alpha)) e^{-i(b + theta)})
                        / (1 - (eps/(2 alpha)) e^{+i(b + theta)})]
      = -(2/eps) Im log(1 - w),  w = (eps/(2 alpha)) e^{i(b + theta)},

    with Im log(1 - w) evaluated in the real atan2 form; ValueError as in backlund_u.
    """
    return -_two_over(eps) * _im_log1m(0.5 * eps / alpha, np.asarray(b) + np.asarray(theta))


def _two_over(eps) -> float:
    """2/eps of a Backlund step; ValueError where it is not finite."""
    scale = 2.0 / float(eps) if eps else math.inf
    if not math.isfinite(scale):
        raise ValueError(f"Backlund step eps = {eps} is out of range: 2/eps = {scale} is not finite")
    return scale


# ---------------------------------------------------------------------------
# the three-dimensional (Backlund-extended) system


def backlund_xi(u):
    """Increment a~ - a of one discrete Backlund step from theta's x-increment
    u = rhs6.u at the same site: xi = 2u."""
    return 2.0 * u


def backlund_eta(v, theta, eps):
    """Increment b~ - b of one discrete Backlund step from theta's y-increment
    v = rhs6.v at the same site: eta = 2 theta + eps v."""
    return 2.0 * np.asarray(theta) + eps * v


def _require_alpha(alpha) -> None:
    """The one rule for a Backlund parameter: ValueError unless alpha is finite and > 0."""
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError(f"alpha must be finite and > 0, got {alpha}")


@dataclass(frozen=True)
class Rhs3:
    """One Backlund step: the in-layer scheme base plus the parameter alpha.

    step, the joint step of base, drives (a, b) within every layer; u and v,
    backlund_u and backlund_v at alpha, propagate theta in x and y, and
    backlund_xi and backlund_eta turn them into the increments to the next
    layer.  eps0 = min(base.eps0, 2/alpha, 2 alpha) and the name
    base.name + "+backlund" are derived; alpha must be finite and > 0.
    """

    base: Rhs2
    alpha: float

    step = property(lambda self: self.base.step)
    eps0 = property(lambda self: min(self.base.eps0, 2.0 / self.alpha, 2.0 * self.alpha))
    name = property(lambda self: f"{self.base.name}+backlund")

    def __post_init__(self):
        _require_alpha(self.alpha)

    def u(self, a, theta, eps):
        return backlund_u(a, theta, self.alpha, eps)

    def v(self, b, theta, eps):
        return backlund_v(b, theta, self.alpha, eps)


def _require_backlund_step(rhs6: Rhs3, eps) -> None:
    """ValueError unless eps is a step of rhs6 whose increments stay finite.

    Beyond 0 < eps < rhs6.eps0 and a finite 2/eps, the bounds
    |xi + 2a| <= (4/eps) asin(eps alpha/2) and |v| <= (2/eps) asin(eps/(2 alpha))
    must be finite.  Each is formed as asin(.)/eps first, which is finite
    once 2/eps is, so only the bound itself can overflow.
    """
    _require_step(rhs6, eps)
    _two_over(eps)
    eps, alpha = float(eps), rhs6.alpha
    for scale, p, what in ((4.0, 0.5 * eps * alpha, "(4/eps) asin(eps alpha/2)"),
                           (2.0, 0.5 * eps / alpha, "(2/eps) asin(eps/(2 alpha))")):
        bound = scale * (math.asin(min(p, 1.0)) / eps)
        if not math.isfinite(bound):
            raise ValueError(f"Backlund step eps = {eps} is out of range for alpha = {alpha}: "
                             f"its increments reach {what} = {bound}")


def backlund_system(alpha: float, scheme: SchemeKind = SchemeKind.HIROTA) -> Rhs3:
    """Rhs3(system_for(scheme), alpha).  Only the Hirota combination is
    compatible; the naive one exists so that the failure is measurable
    (check_compatibility_3d returns a residual far above roundoff).
    """
    return Rhs3(system_for(scheme), alpha)


def hirota_backlund_system(alpha: float) -> Rhs3:
    return backlund_system(alpha, SchemeKind.HIROTA)


def naive_backlund_system(alpha: float) -> Rhs3:
    return backlund_system(alpha, SchemeKind.NAIVE)


@dataclass
class LayeredField3:
    """Solution of the layered system: (a, b) on layers 0..R (0..R-1 for a
    tower, see _solve_layers), theta on 0..R-1.  cross[z] is the theta check
    of step z: at every site off the y-axis, theta is defined by a u-step from
    the site before it in x, and cross[z] is its largest mismatch with the
    alternative v-step from the site below in y (compatibility in action).
    cross_residual is the worst over all steps.
    """

    a: list
    b: list
    theta: list
    domain: LatticeDomain2
    cross: list

    @property
    def layers(self) -> int:
        return len(self.theta)

    @property
    def cross_residual(self) -> float:
        return max(self.cross, default=0.0)


def solve_goursat_3d(
    rhs6: Rhs3,
    data: GoursatData2,
    theta0: Sequence[float],
    dom: LatticeDomain2,
) -> LayeredField3:
    """Solve the Backlund-extended system on layers z = 0..R, R = len(theta0):
    _solve_layers by rhs6.base of the chain of steps (rhs6.alpha, theta0[z]).
    The step eps is checked against rhs6 also when theta0 is empty.
    """
    _require_backlund_step(rhs6, dom.eps)
    return _solve_layers(rhs6.base, [BacklundParam(rhs6.alpha, float(t)) for t in theta0], data, dom)


_CROSS_SITE = 32  # bytes per site of the theta cross check's running tiles: four temporaries


def _solve_layers(rhs2: Rhs2, chain, data: GoursatData2, dom: LatticeDomain2,
                  top: bool = True, later=()) -> LayeredField3:
    """Solve layer 0 from data and one more layer per BacklundParam of chain.

    Every layer is stepped by rhs2, and step z by Rhs3(rhs2, chain[z].alpha)
    from theta chain[z].theta0 at the origin, in three stages:

    1. along the axes: step z walks theta up the y-axis of layer z by v,
       into row 0 of its theta layer, and along its x-axis by u; the
       increments (xi, eta) on those axes are the data of layer z + 1, the
       next row of the stacked axis data (O(n) per step);
    2. one stacked goursat._sweep solves all layers, each once;
    3. theta of all steps is filled row by row by u from row 0 (the
       smallest-direction rule of solve_goursat_nd); at every site off the
       y-axis the v-step from the site below must agree to COMPAT_TOL.  The
       check runs in tiles of rows (goursat._bands), each returning its
       worst mismatch and the first site of it (a NaN counts as worst, as in
       np.argmax); taken in order they give the worst and first site of the
       whole layer, with no array of the mismatches.

    With top false, layer R, which carries no theta, is not solved, and the
    last step walks only its y-axis.  An empty chain is goursat._solve_one's
    solve of layer 0, with its errors, plan and messages.

    The values, and the errors and their order, are those of solving the
    layers one after another: for z = 0, 1, ... a blow-up of layer z
    (BlowUpError at its first site in sweep order), a non-finite theta of
    step z (BlowUpError 'theta'), its failed check (CompatibilityError at
    the worst site), then non-finite data of layer z + 1 (BlowUpError
    'data'; stage 1 stops there).  Each step must admit eps
    (_require_backlund_step); then the solve is sized by its plan before
    anything is allocated (ValueError), with later as in goursat._solve_one.

    A finite theta0 whose float spacing exceeds min(eps, 1/4) *
    min(1, alpha, 1/alpha)^2 * 2^-35 is refused with ValueError before any
    solve: its rounding would swallow the increments eps*u, eps*v and alone
    drive the theta cross check past COMPAT_TOL.  A non-finite theta0 stays
    a BlowUpError.
    """
    if not chain:
        f = _solve_one(rhs2, data, dom, 1, later)
        return LayeredField3([f.a], [f.b], [], dom, [])
    n, eps, R = dom.n, dom.eps, len(chain)
    steps = [Rhs3(rhs2, p.alpha) for p in chain]
    for rhs6, p in zip(steps, chain):
        _require_backlund_step(rhs6, eps)
        bound = min(eps, 0.25) * min(1.0, p.alpha, 1.0 / p.alpha) ** 2 * 2.0**-35
        if math.isfinite(p.theta0) and math.ulp(p.theta0) > bound:
            raise ValueError(f"theta0 = {float(p.theta0)!r} is too large for eps = {eps!r}: its float "
                             f"spacing {math.ulp(p.theta0):.3g} exceeds {bound:.3g} = min(eps, 1/4) "
                             f"* min(1, alpha, 1/alpha)^2 * 2^-35")
    fields = R + 1 if top else R
    # the data of each layer, theta, its x-axis walk, a theta layer's finite mask and the fields
    ax, bx, th, tx, mask, a, b = _plan(
        f"a layered solve on n = {n} steps",
        f"{fields} field and {R} theta layers" + (f" and then {later[0]}" if later else ""),
        [((fields, n), float), ((fields, n), float), ((R, n + 1, n + 1), float), ((n + 1,), float),
         ((n + 1, n + 1), bool), *_fields(fields, n), _SWEEP_SITE * n * fields,
         _CROSS_SITE * _tiles(n, n)[2]], *later[1:])
    ax[0], bx[0] = data.sample(dom)
    _check_data(ax[0], bx[0], eps)
    L = 1  # the layers with finite data
    with np.errstate(all="ignore"):  # a non-finite value is reported below, not warned of
        for z, (rhs6, p) in enumerate(zip(steps, chain)):
            a0, b0, ty = ax[z], bx[z], th[z, 0]
            ty[0] = tx[0] = p.theta0
            for j in range(n):
                ty[j + 1] = ty[j] + eps * rhs6.v(b0[j], ty[j], eps)
            if z + 1 == fields:  # the layer after this step is not solved
                break
            for i in range(n):
                tx[i + 1] = tx[i] + eps * rhs6.u(a0[i], tx[i], eps)
            np.add(a0, backlund_xi(rhs6.u(a0, tx[:n], eps)), out=ax[z + 1])
            np.add(b0, backlund_eta(rhs6.v(b0, ty[:n], eps), ty[:n], eps), out=bx[z + 1])
            if not (np.isfinite(ax[z + 1]).all() and np.isfinite(bx[z + 1]).all()):
                break
            L += 1
        a, b, finite = _sweep(rhs2, (ax[:L], bx[:L]), dom, 1, a[:L], b[:L])
        Z = min(L, R)  # the steps with theta; layers 0..Z-1 were solved
        alpha = np.reshape([p.alpha for p in chain[:Z]], (Z, 1))
        for i in range(n):
            th[:Z, i + 1] = th[:Z, i] + eps * backlund_u(a[:Z, i], th[:Z, i], alpha, eps)
        sol = LayeredField3(list(a), list(b), [], dom, [])
        for z in range(L):
            if not finite[z]:
                _raise_first_blowup(a[z], b[z], eps)
            if z == Z:  # the top layer carries no theta
                break
            if not np.isfinite(th[z], out=mask).all():
                i, j = np.unravel_index(int(np.argmin(mask)), mask.shape)
                raise BlowUpError("theta", (i * eps, j * eps))

            def cross(lo, hi):  # the worst mismatch at theta rows lo+1..hi, and its first site
                below = th[z, lo + 1 : hi + 1, :-1]
                mism = np.abs(below + eps * steps[z].v(b[z, lo + 1 : hi + 1], below, eps)
                              - th[z, lo + 1 : hi + 1, 1:])
                k = int(np.argmax(mism))  # nan counts as largest
                return float(mism.flat[k]), (lo + 1 + k // n, 1 + k % n)

            tops = _bands(n, n, cross)  # the first tile of the worst value holds its first site
            worst, (i, j) = tops[int(np.argmax([w for w, _ in tops]))]
            if not worst <= COMPAT_TOL:
                raise CompatibilityError(worst, (i * eps, j * eps),
                                         detail=f"theta, directions x/y, layer {z}")
            sol.theta.append(th[z])
            sol.cross.append(worst)
    if L < fields:  # stage 1 stopped at the data of layer L
        _check_data(ax[L], bx[L], eps)
    return sol


_CLOSURE_SITE = 144  # bytes per sample of the running closure tiles: 17 floats, tile objects


def check_compatibility_3d(rhs6: Rhs3, samples: np.ndarray, eps: float) -> float:
    """Max defect of the three discrete closure identities at the samples.

    samples has shape (m, 3) holding (a, b, theta) triples.  The identities
    compare the two orders of advancing each field around an elementary
    lattice square in the three direction pairs; they hold to roundoff
    exactly when the right-hand sides are mutually compatible.  u and v are
    each evaluated at the corner and at one neighbour, and the layer
    increments are read off from those values by backlund_xi and
    backlund_eta, in tiles of samples (goursat._bands) whose number does
    not change the result, so the temporaries held at once are those of one
    tile per core.  A NaN defect makes the result NaN; zero samples give
    0.0.  ValueError unless 0 < eps < rhs6.eps0 and for samples whose last
    axis does not hold 3 entries; the check is sized by its plan before
    anything is allocated (ValueError).
    """
    _require_backlund_step(rhs6, eps)
    s = np.atleast_2d(np.asarray(samples, dtype=float))
    if s.shape[-1] != 3:
        raise ValueError(f"samples of shape {np.shape(samples)} are not (a, b, theta) triples: "
                         f"their last axis must have 3 entries")
    rows, per_row = len(s), math.prod(s.shape[1:-1])
    _plan(f"a check of {s.size // 3} samples", "the temporaries of its closure identities",
          [_CLOSURE_SITE * _tiles(rows, per_row)[2]])

    def defect(lo, hi):
        a, b, th = s[lo:hi, ..., 0], s[lo:hi, ..., 1], s[lo:hi, ..., 2]
        with np.errstate(all="ignore"):  # a non-finite defect is returned, not warned of
            f, g = rhs6.step(a, b, eps)
            u = rhs6.u(a, th, eps)
            v = rhs6.v(b, th, eps)
            xi, eta = backlund_xi(u), backlund_eta(v, th, eps)
            f_up, g_up = rhs6.step(a + xi, b + eta, eps)
            th_x, th_y = th + eps * u, th + eps * v
            u_y = rhs6.u(a + eps * f, th_y, eps)
            v_x = rhs6.v(b + eps * g, th_x, eps)
            id1 = (u_y - u) - (v_x - v)
            id2 = (backlund_xi(u_y) - xi) - eps * (f_up - f)
            id3 = (backlund_eta(v_x, th_x, eps) - eta) - eps * (g_up - g)
        return np.max([np.max(np.abs(i), initial=0.0) for i in (id1, id2, id3)])

    return float(np.max(_bands(rows, per_row, defect)))  # a nan stays nan


# ---------------------------------------------------------------------------
# Backlund chain parameters


@dataclass(frozen=True)
class BacklundParam:
    """One Backlund step: transformation parameter and origin angle."""

    alpha: float
    theta0: float

    def __post_init__(self):
        _require_alpha(self.alpha)


def load_backlund_chain(path) -> list[BacklundParam]:
    """Read a chain from a text file: one 'alpha theta0' pair per line.

    Blank lines and lines starting with # are skipped; a bad line is a
    ValueError naming path:line.
    """
    return _read_pairs(path, "alpha theta0", BacklundParam)
