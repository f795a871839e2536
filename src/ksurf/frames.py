"""Lax representation, frames, and the Sym formula.

Transition matrices (lambda real and nonzero) and the Backlund dressing
matrix (alpha > 0):

    U(a; lam)       = (i/2) [[a, -lam], [-lam, -a]]
    V(b; lam)       = (i/2) lam^-1 [[0, e^{ib}], [e^{-ib}, 0]]
    Ud(a; lam, eps) = (1 + eps^2 lam^2 / 4)^{-1/2}
                      [[e^{i eps a/2}, -i eps lam/2], [-i eps lam/2, e^{-i eps a/2}]]
    Vd(b; lam, eps) = (1 + eps^2 lam^-2 / 4)^{-1/2}
                      [[1, (i eps/(2 lam)) e^{ib}], [(i eps/(2 lam)) e^{-ib}, 1]]
    W(theta; alpha, lam) = [[alpha e^{i theta}, -i lam], [-i lam, alpha e^{-i theta}]]

Ud = I + eps U + O(eps^2) and Vd = I + eps V + O(eps^2); det W = alpha^2 +
lam^2 and W^dagger W = (alpha^2 + lam^2) I.  Every matrix of the frame layer
(Ud, Vd, W, their lambda-derivatives, the frame Psi and its derivative dPsi)
has the form [[p, q], [-conj(q), conj(p)]], so it is stored as two complex
planes (p, q), plus (dp, dq) for the lambda-derivative.  One kernel, _sweep,
propagates the frame from Psi(0,0) = I, dPsi(0,0) = 0, dresses it by
W(theta), applies the Sym formula F = lam (2 Im Q, 2 Re Q, 2 Im P) with
(P, Q) = Psi^-1 dPsi (adjugate over the real determinant |p|^2 + |q|^2), and
measures the zero-curvature residual |Ud(x, y+eps) Vd(x, y) - Vd(x+eps, y)
Ud(x, y)| of every cell.  It holds to roundoff on Hirota solutions; other
fields are refused.  The kernel takes the lattice lines in blocks: the frame
product from one line to the next is its only sequential work, and the
transition matrices, residuals, dressing and Sym run once per block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .goursat import EdgeField2, LatticeDomain2, _require_memory

# Largest zero-curvature cell residual (Frobenius) a frame is built on.
ZCC_TOL = 1e-10


class ZeroCurvatureError(RuntimeError):
    """Fields fail the discrete zero-curvature condition."""

    def __init__(self, residual: float, cell: tuple[float, float], lam: float):
        self.residual = residual
        self.cell = cell
        self.lam = lam
        super().__init__(
            f"zero-curvature residual {residual:.3e} at cell "
            f"(x={cell[0]:.6g}, y={cell[1]:.6g}), lambda={lam:.6g}; "
            f"only integrable-scheme fields admit a frame"
        )


# ---------------------------------------------------------------------------
# pair planes: each builder returns (p, q, dp, dq) of a matrix and its
# lambda-derivative; scalar planes broadcast against array ones


def _normalisers(lam: float, eps: float) -> tuple:
    """Ud and Vd prefactors and their lambda-derivatives, checked usable."""
    lam = np.float64(lam)
    with np.errstate(all="ignore"):
        su = 1.0 + 0.25 * eps * eps * lam * lam
        sv = 1.0 + 0.25 * eps * eps / (lam * lam)
        norms = (su**-0.5, -(0.25 * eps * eps * lam) * su**-1.5,
                 sv**-0.5, (0.25 * eps * eps / lam**3) * sv**-1.5)
    if not all(np.isfinite(x) and x != 0 for x in norms):
        raise ValueError(
            f"lambda = {float(lam)!r} is out of range at eps = {eps!r}: the "
            f"transition-matrix normalisers are not finite and nonzero"
        )
    return tuple(float(x) for x in norms)


def _u_planes(a, lam: float, eps: float, norms: tuple) -> tuple:
    nu, dnu, _, _ = norms
    e = np.exp(0.5j * eps * np.asarray(a, dtype=float))
    off = -0.5j * eps * lam
    return nu * e, nu * off, dnu * e, (-0.5j * eps) * nu**3


def _v_planes(b, lam: float, eps: float, norms: tuple) -> tuple:
    _, _, nv, dnv = norms
    e = np.exp(1j * np.asarray(b, dtype=float))
    c = 0.5j * eps / lam
    dc = -0.5j * eps / (lam * lam)
    return nv, nv * (c * e), dnv, nv**3 * (dc * e)


def _w_planes(theta, alpha: float, lam: float) -> tuple:
    return alpha * np.exp(1j * np.asarray(theta, dtype=float)), -1j * lam, 0.0, -1j


def _pair(p1, q1, p2, q2, out=None) -> tuple:
    """(p, q) of the product of two pair matrices, written into the rows of
    out when given."""
    if out is None:
        return p1 * p2 - q1 * q2.conjugate(), p1 * q2 + q1 * p2.conjugate()
    np.subtract(p1 * p2, q1 * q2.conjugate(), out=out[0])
    np.add(p1 * q2, q1 * p2.conjugate(), out=out[1])
    return out


def _mul(m, f, out=None) -> tuple:
    """m f with the product rule for the lambda-derivative: the planes
    (p, q, dp, dq), written into the rows of out when given."""
    dp1, dq1 = _pair(m[2], m[3], f[0], f[1])
    dp2, dq2 = _pair(m[0], m[1], f[2], f[3])
    if out is None:
        return (*_pair(m[0], m[1], f[0], f[1]), dp1 + dp2, dq1 + dq2)
    _pair(m[0], m[1], f[0], f[1], out)
    np.add(dp1, dp2, out=out[2])
    np.add(dq1, dq2, out=out[3])
    return out


def _abs2(z):
    return z.real * z.real + z.imag * z.imag


def _sym(f, lam: float, out: np.ndarray) -> np.ndarray:
    """Sym points of frames f = (p, q, dp, dq), written into out (..., 3)."""
    p, q, dp, dq = f
    pc = p.conjugate()
    big_p = pc * dp + q * dq.conjugate()
    big_q = pc * dq - q * dp.conjugate()
    scale = 2.0 * lam / (_abs2(p) + _abs2(q))
    shape = out.shape[:-1]  # the planes may be flat
    out[..., 0] = (scale * big_q.imag).reshape(shape)
    out[..., 1] = (scale * big_q.real).reshape(shape)
    out[..., 2] = (scale * big_p.imag).reshape(shape)
    if not np.isfinite(out).all():
        raise ValueError(f"Sym points are not finite at lambda = {lam!r}")
    return out


def _stack(p, q, out) -> np.ndarray:
    """Write the matrices [[p, q], [-conj(q), conj(p)]] into out (..., 2, 2)."""
    out[..., 0, 0] = p
    out[..., 0, 1] = q
    out[..., 1, 0] = -np.conj(q)
    out[..., 1, 1] = np.conj(p)
    return out


def _planes(psi: np.ndarray, dpsi: np.ndarray) -> tuple:
    return psi[..., 0, 0], psi[..., 0, 1], dpsi[..., 0, 0], dpsi[..., 0, 1]


# ---------------------------------------------------------------------------
# the frame kernel

# Sites per block of lines (at least two lines: each block forms the axis
# planes of one line more than it holds, the first of the next block): the
# work that does not depend on the previous line runs once per block.  Larger blocks save
# interpreter calls but hold more temporaries; at this size the k = 8 tower
# of three dressings peaks 0.82 MB above its points (0.15 MB line by line).
_BLOCK_SITES = 1 << 11


@dataclass
class _Sweep:
    residual: float
    cell: tuple
    psi: np.ndarray | None
    dpsi: np.ndarray | None
    points: list


def _frame_buffer(lines: int, n: int) -> np.ndarray:
    """An empty (4, lines, n+1) buffer: [:, j] holds the planes p, q, dp, dq of
    line j.  The planes start 1 KiB apart modulo 4 KiB: on planes a multiple
    of 4 KiB apart, Sym ran at half speed (cache aliasing)."""
    e = lines * (n + 1)
    return np.empty((4, e + (64 - e) % 256), dtype=complex)[:, :e].reshape(4, lines, n + 1)


def _take(planes, index) -> list:
    """planes[index] of the array planes; constant (scalar) planes as they are."""
    return [x[index] if isinstance(x, np.ndarray) else x for x in planes]


def _cell_residuals(f_hi, f_lo, m) -> np.ndarray:
    """|F(k+1) L(i) - L(i+1) F(k)| (Frobenius) of the cells (i, k) between the
    lines of a block and the next ones, with L the step planes m and F the
    axis planes f_lo of the lines and f_hi of the next ones."""
    hp, hq = _pair(f_hi[0], f_hi[1], *_take(m[:2], np.s_[:, :-1]))
    lp, lq = _pair(*_take(m[:2], np.s_[:, 1:]), f_lo[0], f_lo[1])
    return np.sqrt(2.0 * (_abs2(hp - lp) + _abs2(hq - lq)))


def _sweep(fields: EdgeField2, lam: float, order: str = "xy", layers=(),
           frame: bool = False, sym: bool = False) -> _Sweep:
    """Propagate, dress and Sym-project the frame of fields in one sweep.

    order 'xy' walks the bottom row by Ud steps, then fills columns by Vd
    steps; 'yx' walks the left column by Vd steps, then fills rows by Ud
    steps.  The lines are taken in blocks of _BLOCK_SITES sites (at least two
    lines).  The only sequential work is the frame product from one line to
    the next, written into one block buffer that every block reuses; the
    step planes, the zero-curvature residual of every cell, the dressing by
    the (theta_field, alpha) layers, Sym and the stored frames are computed
    once per block.
    frame=True stores the undressed frame as (n+1, n+1, 2, 2) arrays;
    sym=True fills points[z], the Sym image after z dressings.  Those arrays,
    128 (n+1)^2 bytes for the frame and 24 (n+1)^2 bytes per point array, are
    sized before anything is allocated: ValueError when they exceed the
    available memory.
    It raises ZeroCurvatureError when the worst cell residual exceeds ZCC_TOL
    and it keeps frames or points.  A NaN residual is worst and ends the sweep
    after its line, so errors come in the order of a line-by-line sweep.
    """
    n, eps = fields.domain.n, fields.domain.eps
    # axis[k, i]: edge from site i to i+1 on line k; lines[k, i]: edge from
    # line k to k+1 at site i; rows(x)[k] is line k of a site array x.  'yx'
    # is 'xy' on the transposed lattice.
    if order == "xy":
        axis, lines, first, step = fields.a.T, fields.b.T, _u_planes, _v_planes
        rows = lambda x: np.swapaxes(x, 0, 1)  # noqa: E731
    elif order == "yx":
        axis, lines, first, step = fields.b, fields.a, _v_planes, _u_planes
        rows = lambda x: x  # noqa: E731
    else:
        raise ValueError(f"order must be 'xy' or 'yx', got {order!r}")
    norms = _normalisers(lam, eps)
    need = (n + 1) ** 2 * (128 * frame + 24 * (len(layers) + 1) * sym)
    if frame:
        _require_memory(need, f"a frame on n = {n} steps", "Psi and dPsi" + " and its points" * sym)
    elif sym:
        _require_memory(need, f"a tower of {len(layers) + 1} surfaces on n = {n} steps",
                        "its points")
    size = min(max(2, _BLOCK_SITES // (n + 1)), n + 1)  # lines per block
    buf = _frame_buffer(size, n)
    psi, dpsi = np.empty((2, n + 1, n + 1, 2, 2), dtype=complex) if frame else (None, None)
    points = [np.empty((n + 1, n + 1, 3)) for _ in range(len(layers) + 1)] if sym else []
    out_rows = [rows(x) for x in points]
    dressing = [(rows(th), alpha) for th, alpha in layers]

    worst, worst_at = 0.0, (0, 0)
    for k0 in range(0, n + 1, size):
        k1 = min(k0 + size, n + 1)  # lines k0..k1-1, cell rows k0..kk-1
        kk, last, stop = min(k1, n), k1 - 1, False
        if kk > k0:
            m = step(lines[k0:kk], lam, eps, norms)
            # the planes of lines k0..kk, stored line by line (in order 'xy' a line
            # of axis is strided, and so would the planes be, slowing the residual)
            ax = first(np.ascontiguousarray(axis[k0:kk + 1]), lam, eps, norms)
            if k0 == 0:  # line 0 is walked from the origin, site by site
                buf[:, 0, 0] = (1.0, 0.0, 0.0, 0.0)
                for i in range(n):
                    buf[:, 0, i + 1] = _mul(_take(ax, (0, i)), buf[:, 0, i])
            res = _cell_residuals(_take(ax, np.s_[1:]), _take(ax, np.s_[:-1]), m)
            j, i = divmod(int(res.argmax()), n)  # the first NaN, else the first maximum
            if not (res[j, i] <= worst):
                worst, worst_at = float(res[j, i]), (i, k0 + j)
                if worst != worst:  # a NaN residual is worst and ends the sweep after its line
                    stop, last = True, k0 + j
        for j in range(last - k0):
            _mul(_take(m, j), buf[:, j], out=buf[:, j + 1])
        block, f = slice(k0, last + 1), buf[:, : last + 1 - k0]
        if frame:
            _stack(f[0], f[1], rows(psi)[block])
            _stack(f[2], f[3], rows(dpsi)[block])
        g = f.reshape(4, -1)  # flat planes take numpy's fast loops
        if sym:
            _sym(g, lam, out_rows[0][block])
        for z, (th, alpha) in enumerate(dressing):
            g = _mul(_w_planes(th[block].reshape(-1), alpha, lam), g)
            if sym:
                _sym(g, lam, out_rows[z + 1][block])
        if stop or k1 > n:
            break
        _mul(_take(m, -1), buf[:, -1], out=buf[:, 0])
    cell = tuple(c * eps for c in (worst_at if order == "xy" else worst_at[::-1]))
    if (frame or sym) and not (worst <= ZCC_TOL):
        raise ZeroCurvatureError(worst, cell, lam)
    return _Sweep(worst, cell, psi, dpsi, points)


# ---------------------------------------------------------------------------
# views of the kernel


@dataclass
class FrameField:
    """Frame and lambda-derivative on all sites, shape (n+1, n+1, 2, 2).

    Frames from propagate_frame are unitary with unit determinant.
    """

    psi: np.ndarray
    dpsi: np.ndarray
    lam: float
    domain: LatticeDomain2


def zero_curvature_residual(fields: EdgeField2, lam: float):
    """Max Frobenius residual of Ud(x,y+eps) Vd(x,y) - Vd(x+eps,y) Ud(x,y).

    Returns (residual, cell) with cell the lattice coordinates (x, y) of the
    worst elementary square.
    """
    sweep = _sweep(fields, lam)
    return sweep.residual, sweep.cell


def propagate_frame(fields: EdgeField2, lam: float, order: str = "xy") -> FrameField:
    """Integrate the frame equations from Psi(0,0) = I, dPsi(0,0) = 0.

    order 'xy' scans the bottom row by Ud steps and then fills columns
    rightward by Vd steps; 'yx' scans the left column first.  Zero curvature
    makes the two agree to roundoff; it is measured on every cell during the
    sweep, and fields failing it raise ZeroCurvatureError.
    """
    sweep = _sweep(fields, lam, order, frame=True)
    return FrameField(sweep.psi, sweep.dpsi, lam, fields.domain)


def sym_matrices(psi: np.ndarray, dpsi: np.ndarray, lam: float) -> np.ndarray:
    """Immersion points for stacked frame samples, shape (..., 3).

    The point is lam Psi^-1 dPsi in the (i/2) sigma basis of su(2); with this
    normalization lattice edges have length eps/(1 + eps^2/4).  Only the
    first row of each matrix is read, since frames have the pair form.
    """
    return _sym(_planes(psi, dpsi), lam, np.empty(psi.shape[:-2] + (3,)))

