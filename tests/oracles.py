"""Reference arithmetic for the tests, sharing no frame code with the ksurf kernel.

Stacked 2x2 complex matrices of shape (..., 2, 2), the su(2) <-> R^3
identification, and the frame layer's matrices written out entry by entry
from the closed forms in the ksurf.frames module docstring.  The kernel
stores the same matrices as SU(2) pair planes (p, q); the tests compare it
against the literal matrices here.  two_path_layers keeps the Backlund
layer solve that propagates theta along both paths, as the bitwise
reference for the kernel's single defining path; it reuses the kernel's
in-layer sweep and right-hand sides and checks only how theta and the
layers are put together.  layer_by_layer keeps the layered solve that
solves each layer on its own, after the theta of the layer below, as the
bitwise reference (values and errors) for the stacked one.
compatibility_3d_three_identities keeps the
closure check that evaluates every right-hand side afresh, as the bitwise
reference for check_compatibility_3d.  strided_sweep keeps the Goursat
sweep that reads and writes each anti-diagonal as a strided view of the full
fields, as the bitwise reference for the kernel's slot sweep, and
full_reference_fields_sweep measures the fields_ab convergence sweep against
the whole reference lattice it solves, as the reference for the harness's
kept-site one.  validate_k_surface_det keeps the K-surface validator that
works on interleaved xyz points and measures planarity by np.linalg.det, as
the reference for the coordinate-plane one.

The identification is

    X = (i/2) * (x1*s1 + x2*s2 + x3*s3)

with the Pauli matrices s1 = [[0,1],[1,0]], s2 = [[0,-i],[i,0]],
s3 = [[1,0],[0,-1]].  Under it the Euclidean norm of (x1,x2,x3) equals
sqrt(2) times the Frobenius norm of X.
"""

from __future__ import annotations

import numpy as np

from ksurf.goursat import (
    COMPAT_TOL,
    BlowUpError,
    CompatibilityError,
    EdgeField2,
    GoursatData2,
    LatticeDomain2,
    Rhs2,
    _raise_first_blowup,
    _require_step,
    solve_goursat_2d,
    sup_error,
)
from ksurf.harness import fit_slope
from ksurf.sinegordon import LayeredField3, Rhs3, backlund_eta, backlund_xi, system_for
from ksurf.surfaces import KSurfaceReport, ell_xy

SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

IDENTITY2 = np.eye(2, dtype=complex)

# (i/2)*sigma_j, the orthogonal su(2) basis vectors mapped to e1, e2, e3
SU2_BASIS = np.stack([0.5j * SIGMA1, 0.5j * SIGMA2, 0.5j * SIGMA3])


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose on the trailing two axes."""
    return np.conj(np.swapaxes(a, -1, -2))


def inv2(a: np.ndarray) -> np.ndarray:
    """Inverse of stacked 2x2 matrices via the adjugate formula."""
    det = a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]
    out = np.empty_like(a)
    out[..., 0, 0] = a[..., 1, 1]
    out[..., 1, 1] = a[..., 0, 0]
    out[..., 0, 1] = -a[..., 0, 1]
    out[..., 1, 0] = -a[..., 1, 0]
    return out / det[..., None, None]


def det2(a: np.ndarray) -> np.ndarray:
    return a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]


def frobenius(a: np.ndarray) -> np.ndarray:
    """Frobenius norm on the trailing two axes."""
    return np.sqrt(np.sum(np.abs(a) ** 2, axis=(-1, -2)))


def su2_project(a: np.ndarray) -> np.ndarray:
    """Project onto su(2) and return real coordinates (x1, x2, x3).

    The input is first projected onto its trace-free anti-Hermitian part P;
    the coordinates satisfy P = (i/2)*(x1*s1 + x2*s2 + x3*s3).  Hermitian and
    trace components are discarded, so e.g. adding a real multiple of the
    identity does not change the result.  Returns an array of shape (..., 3).
    """
    p = 0.5 * (a - dagger(a))
    tr_half = 0.5 * (p[..., 0, 0] + p[..., 1, 1])
    p00 = p[..., 0, 0] - tr_half
    # p is now trace-free anti-Hermitian: p = [[i*x3/2, (x2+i*x1)/2],
    #                                          [(-x2+i*x1)/2, -i*x3/2]]
    x1 = np.imag(p[..., 0, 1] + p[..., 1, 0])
    x2 = np.real(p[..., 0, 1] - p[..., 1, 0])
    x3 = 2.0 * np.imag(p00)
    return np.stack([x1, x2, x3], axis=-1)


def su2_embed(x: np.ndarray) -> np.ndarray:
    """Inverse of su2_project on su(2): coordinates (..., 3) to matrices."""
    x = np.asarray(x, dtype=float)
    return np.einsum("...k,kij->...ij", x, SU2_BASIS)


def check_unitary(a: np.ndarray, tol: float = 1e-10) -> bool:
    """True iff every stacked matrix is special unitary within tol.

    Checks ||A^H A - I||_F <= tol and |det A - 1| <= tol.
    """
    gram = dagger(a) @ a
    dev = frobenius(gram - IDENTITY2)
    det_dev = np.abs(det2(a) - 1.0)
    return bool(np.all(dev <= tol) and np.all(det_dev <= tol))


def conjugation_rotation(g: np.ndarray) -> np.ndarray:
    """SO(3) matrix of v -> su2_project(g^-1 X g) for X = su2_embed(v).

    g may be any invertible multiple of a unitary matrix (the scalar cancels).
    Columns are the images of the basis vectors.
    """
    ginv = inv2(g)
    cols = [su2_project(ginv @ SU2_BASIS[k] @ g) for k in range(3)]
    return np.stack(cols, axis=-1)


# ---------------------------------------------------------------------------
# the frame layer's matrices: each builder returns (M, dM/dlambda), stacked
# over the shape of the field value


def _mat(m00, m01, m10, m11) -> np.ndarray:
    """[[m00, m01], [m10, m11]] with the entries broadcast together."""
    entries = np.broadcast_arrays(*(np.asarray(m, complex) for m in (m00, m01, m10, m11)))
    return np.stack(entries, axis=-1).reshape(entries[0].shape + (2, 2))


def lax_U(a, lam):
    """U = (i/2) [[a, -lam], [-lam, -a]]."""
    a = np.asarray(a, dtype=float)
    return 0.5j * _mat(a, -lam, -lam, -a), 0.5j * _mat(0 * a, -1, -1, 0 * a)


def lax_V(b, lam):
    """V = (i/2) lam^-1 [[0, e^{ib}], [e^{-ib}, 0]]."""
    e = np.exp(1j * np.asarray(b, dtype=float))
    m = _mat(0 * e, e, np.conj(e), 0 * e)
    return (0.5j / lam) * m, (-0.5j / lam**2) * m


def lax_Ud(a, lam, eps):
    """Ud = (1 + eps^2 lam^2 / 4)^{-1/2}
    [[e^{i eps a/2}, -i eps lam/2], [-i eps lam/2, e^{-i eps a/2}]]."""
    s = 1.0 + eps * eps * lam * lam / 4.0
    e = np.exp(0.5j * eps * np.asarray(a, dtype=float))
    m = _mat(e, -0.5j * eps * lam, -0.5j * eps * lam, np.conj(e))
    dm = _mat(0 * e, -0.5j * eps, -0.5j * eps, 0 * e)
    return s**-0.5 * m, s**-0.5 * dm - (eps * eps * lam / 4.0) * s**-1.5 * m


def lax_Vd(b, lam, eps):
    """Vd = (1 + eps^2 lam^-2 / 4)^{-1/2}
    [[1, (i eps/(2 lam)) e^{ib}], [(i eps/(2 lam)) e^{-ib}, 1]]."""
    s = 1.0 + eps * eps / (4.0 * lam * lam)
    e = np.exp(1j * np.asarray(b, dtype=float))
    c = 0.5j * eps / lam
    m = _mat(1 + 0 * e, c * e, c * np.conj(e), 1 + 0 * e)
    dm = (-1.0 / lam) * _mat(0 * e, c * e, c * np.conj(e), 0 * e)
    return s**-0.5 * m, s**-0.5 * dm + (eps * eps / (4.0 * lam**3)) * s**-1.5 * m


def backlund_W(theta, alpha, lam):
    """W = [[alpha e^{i theta}, -i lam], [-i lam, alpha e^{-i theta}]]."""
    e = np.exp(1j * np.asarray(theta, dtype=float))
    w = _mat(alpha * e, -1j * lam, -1j * lam, alpha * np.conj(e))
    return w, _mat(0 * e, -1j, -1j, 0 * e)


# ---------------------------------------------------------------------------
# sine-Gordon references


def hirota_f_complex(a, b, eps):
    """Literal complex-ratio form of the Hirota f.

    Returns the complex value of (2/(i eps^2)) log(num/den); its imaginary
    part measures how exactly the conjugate-pair structure survives floating
    point.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    q = 0.25 * eps * eps
    num = 1.0 - q * np.exp(-1j * b - 0.5j * eps * a)
    den = 1.0 - q * np.exp(1j * b + 0.5j * eps * a)
    return (2.0 / (1j * eps * eps)) * np.log(num / den)


def backlund_rhs_continuous(a, b, theta, alpha):
    """Continuous Backlund system: theta_x = u, theta_y = v, and the field
    increments (xi, eta) = (a~ - a, b~ - b) = (2u, 2 theta), the eps -> 0
    limit of the discrete ones."""
    if alpha <= 0:
        raise ValueError("alpha must be > 0")
    u = -np.asarray(a) + alpha * np.sin(theta)
    v = np.sin(np.asarray(b) + theta) / alpha
    return u, v, 2.0 * u, 2.0 * np.asarray(theta)


def backlund_compat_residual_continuous(samples: np.ndarray, alpha: float) -> float:
    """Closure residual of the continuous Backlund extension of (sin b, a).

    Evaluates the three compatibility identities for the coupled system
    (a_y, b_x, theta_x, theta_y, a~ - a, b~ - b) using closed-form partial
    derivatives of the sine-Gordon instance; returns the max absolute defect.
    """
    s = np.asarray(samples, dtype=float)
    a, b, th = s[..., 0], s[..., 1], s[..., 2]
    u, v, xi, eta = backlund_rhs_continuous(a, b, th, alpha)
    f = np.sin(b)
    g = a
    cos_bt = np.cos(b + th)
    # d/dx theta_y = d/dy theta_x
    id1 = (-1.0) * f + (alpha * np.cos(th)) * v - (cos_bt / alpha) * g - (
        cos_bt / alpha
    ) * u
    # d/dy (a~ - a) closes against f evaluated on the transformed fields
    id2 = (-2.0) * f + (2.0 * alpha * np.cos(th)) * v - (np.sin(b + eta) - f)
    # d/dx (b~ - b) closes against g on the transformed fields
    id3 = 2.0 * u - ((a + xi) - a)
    return float(
        max(np.max(np.abs(id1)), np.max(np.abs(id2)), np.max(np.abs(id3)))
    )


def compatibility_3d_three_identities(rhs6, samples: np.ndarray, eps: float) -> float:
    """Reference for check_compatibility_3d: the three closure identities with
    every right-hand side evaluated afresh (10 calls), the layer increments
    written out as xi = 2u and eta = 2 theta + eps v."""
    s = np.asarray(samples, dtype=float)
    a, b, th = s[..., 0], s[..., 1], s[..., 2]

    def xi(a, th):
        return 2.0 * rhs6.u(a, th, eps)

    def eta(b, th):
        return 2.0 * np.asarray(th) + eps * rhs6.v(b, th, eps)

    f, g = rhs6.step(a, b, eps)
    u = rhs6.u(a, th, eps)
    v = rhs6.v(b, th, eps)
    xi0 = xi(a, th)
    eta0 = eta(b, th)
    f_up, g_up = rhs6.step(a + xi0, b + eta0, eps)
    id1 = (rhs6.u(a + eps * f, th + eps * v, eps) - u) - (
        rhs6.v(b + eps * g, th + eps * u, eps) - v
    )
    id2 = (xi(a + eps * f, th + eps * v) - xi0) - eps * (f_up - f)
    id3 = (eta(b + eps * g, th + eps * u) - eta0) - eps * (g_up - g)
    return float(
        max(np.max(np.abs(id1)), np.max(np.abs(id2)), np.max(np.abs(id3)))
    )


# ---------------------------------------------------------------------------
# Backlund layers


def two_path_layers(rhs2, chain, data, dom):
    """Reference for the layered Backlund solve: theta propagated on two paths.

    Layer 0 is solved from data by rhs2.  Each BacklundParam of chain then
    propagates theta over the current layer by Rhs3(rhs2, alpha) twice, from
    theta0 at the origin: along the defining path (up the y-axis by v, then
    across rows by u) and along the alternative one (across the x-axis by u,
    then up columns by v).  The next layer's Goursat data are the increments
    xi = 2u and eta = 2 theta + eps v on the data axes, and that layer is
    solved by rhs2.  Returns (a_layers, b_layers, theta_layers, the largest
    difference between the two paths).
    """
    n, eps = dom.n, dom.eps
    layer = solve_goursat_2d(rhs2, data, dom)
    a_layers, b_layers, th_layers, worst = [layer.a], [layer.b], [], 0.0
    for p in chain:
        rhs6, theta00 = Rhs3(rhs2, p.alpha), p.theta0
        a, b = layer.a, layer.b
        th = np.empty((n + 1, n + 1))
        th[0, 0] = theta00
        for j in range(n):
            th[0, j + 1] = th[0, j] + eps * rhs6.v(b[0, j], th[0, j], eps)
        for i in range(n):
            th[i + 1, :] = th[i, :] + eps * rhs6.u(a[i, :], th[i, :], eps)
        alt = np.empty_like(th)
        alt[0, 0] = theta00
        for i in range(n):
            alt[i + 1, 0] = alt[i, 0] + eps * rhs6.u(a[i, 0], alt[i, 0], eps)
        for j in range(n):
            alt[:, j + 1] = alt[:, j] + eps * rhs6.v(b[:, j], alt[:, j], eps)
        worst = max(worst, float(np.abs(th - alt).max()))
        xi = 2.0 * rhs6.u(a[:, 0], th[:n, 0], eps)
        eta = 2.0 * th[0, :n] + eps * rhs6.v(b[0, :], th[0, :n], eps)
        data_next = GoursatData2(a[:, 0] + xi, b[0, :] + eta)
        layer = solve_goursat_2d(rhs2, data_next, dom)
        th_layers.append(th)
        a_layers.append(layer.a)
        b_layers.append(layer.b)
    return a_layers, b_layers, th_layers, worst


def layer_by_layer(rhs2, chain, data, dom):
    """Reference for the stacked layered solve: one layer after another.

    Layer 0 is solved from data by rhs2 with solve_goursat_2d.  Step z,
    the BacklundParam chain[z], then fills theta over layer z by
    Rhs3(rhs2, alpha) from theta0, up the y-axis by v and row by row by u;
    a non-finite theta is a BlowUpError of field 'theta' at its first site
    in row-major order, and a v-step from the site below that misses theta by more than COMPAT_TOL
    a CompatibilityError at the worst site.  The increments xi and eta on
    the data axes give layer z + 1's data, solved by rhs2 with
    solve_goursat_2d.  Returns a LayeredField3.  The theta0 and memory
    guards before the solve are not repeated here.
    """
    n, eps = dom.n, dom.eps
    layer = solve_goursat_2d(rhs2, data, dom)
    sol = LayeredField3([layer.a], [layer.b], [], dom, [])
    for z, p in enumerate(chain):
        rhs6, theta00 = Rhs3(rhs2, p.alpha), p.theta0
        a, b = sol.a[-1], sol.b[-1]
        th = np.empty((n + 1, n + 1))
        th[0, 0] = theta00
        for j in range(n):
            th[0, j + 1] = th[0, j] + eps * rhs6.v(b[0, j], th[0, j], eps)
        for i in range(n):
            th[i + 1, :] = th[i, :] + eps * rhs6.u(a[i, :], th[i, :], eps)
        if not np.isfinite(th).all():
            i, j = np.unravel_index(int(np.argmin(np.isfinite(th))), th.shape)
            raise BlowUpError("theta", (i * eps, j * eps))
        below = th[1:, :-1]
        mism = np.abs(below + eps * rhs6.v(b[1:, :], below, eps) - th[1:, 1:])
        i, j = np.unravel_index(int(np.argmax(mism)), mism.shape)  # nan counts as largest
        if not mism[i, j] <= COMPAT_TOL:
            raise CompatibilityError(float(mism[i, j]), ((i + 1) * eps, (j + 1) * eps),
                                     detail=f"theta, directions x/y, layer {z}")
        layer = solve_goursat_2d(rhs2, GoursatData2(
            a[:, 0] + backlund_xi(rhs6.u(a[:, 0], th[:n, 0], eps)),
            b[0, :] + backlund_eta(rhs6.v(b[0, :], th[0, :n], eps), th[0, :n], eps)), dom)
        sol.theta.append(th)
        sol.cross.append(float(mism[i, j]))
        sol.a.append(layer.a)
        sol.b.append(layer.b)
    return sol


# ---------------------------------------------------------------------------
# Goursat sweep


def strided_sweep(rhs: Rhs2, data: GoursatData2, dom: LatticeDomain2) -> EdgeField2:
    """Solve the discrete Goursat problem by the anti-diagonal sweep.

    Each anti-diagonal is read and written as a strided view of the C-ordered
    buffers: a[i, d-i] is a.flat[d + i*n] and b[i, d-i] is b.flat[d + i*(n-1)],
    so their successors a[i, d-i+1] and b[i+1, d-i] sit 1 and n entries later.

    Aborts with BlowUpError if a non-finite value appears.  The sweep itself
    does no test: one finiteness test of the two sums follows it, and only
    when that fails is the first offending site searched for, in sweep order.
    """
    _require_step(rhs, dom.eps)
    n = dom.n
    eps = dom.eps
    a = np.empty((n, n + 1), dtype=float)
    b = np.empty((n + 1, n), dtype=float)
    a_row, b_col = data.sample(dom)
    a[:, 0] = a_row
    b[0, :] = b_col
    if not (np.isfinite(a_row).all() and np.isfinite(b_col).all()):
        raise BlowUpError("data", (0.0, 0.0))

    af, bf = a.reshape(-1), b.reshape(-1)
    sb = max(n - 1, 1)  # b's stride; at n = 1 every diagonal has one site
    with np.errstate(all="ignore"):  # a blow-up is reported below, not warned of
        for d in range(2 * n - 1):
            lo, hi = max(0, d - n + 1), min(d, n - 1)
            ra = slice(d + lo * n, d + hi * n + 1, n)
            rb = slice(d + lo * (n - 1), d + hi * (n - 1) + 1, sb)
            av, bv = af[ra], bf[rb]
            f, g = rhs.step(av, bv, eps)
            af[ra.start + 1 : ra.stop + 1 : n] = av + eps * f
            bf[rb.start + n : rb.stop + n : sb] = bv + eps * g
        total = a.sum() + b.sum()  # finite unless some value is not (or the sum overflows)
    if not np.isfinite(total):
        _raise_first_blowup(a, b, eps)
    return EdgeField2(a, b, dom)


def full_reference_fields_sweep(cfg, data):
    """(rows, (slope, intercept), families) of the fields_ab sweep cfg, each
    level and the whole k_ref reference solved by strided_sweep."""
    rhs = system_for(cfg.scheme)
    ref = strided_sweep(rhs, data, LatticeDomain2.from_k(cfg.r, cfg.k_ref))
    rows, families = [], {"a": [], "b": []}
    for k in range(cfg.k_min, cfg.k_max + 1):
        sol = strided_sweep(rhs, data, LatticeDomain2.from_k(cfg.r, k))
        for name, errs in families.items():
            errs.append(sup_error(getattr(sol, name), sol.domain.eps, getattr(ref, name),
                                  ref.domain.eps))
        rows.append((sol.domain.eps, max(families["a"][-1], families["b"][-1])))
    return rows, fit_slope(rows), families


# ---------------------------------------------------------------------------
# K-surface validation


def validate_k_surface_det(mesh, phi) -> KSurfaceReport:
    """validate_k_surface on interleaved xyz points, planarity by LAPACK det.

    Every reduction goes through np.max, so a NaN it reads reaches the
    residual it feeds.  edge, angle, angle_sum and interior_sites are bitwise
    those of the kernel; its planarity differs from the kernel's closed-form
    triple products in the roundoff digits.
    """
    pts = mesh.points
    n = mesh.n
    eps = mesh.eps
    lx, ly = ell_xy(eps, mesh.lam)
    tx, ty = eps * lx, eps * ly
    ex = pts[1:, :, :] - pts[:-1, :, :]
    ey = pts[:, 1:, :] - pts[:, :-1, :]
    len_x = np.sqrt(np.sum(ex**2, axis=-1))
    len_y = np.sqrt(np.sum(ey**2, axis=-1))
    edge = float(np.max([np.max(np.abs(len_x - tx)) / tx, np.max(np.abs(len_y - ty)) / ty]))
    if n < 2:
        return KSurfaceReport(edge, 0.0, 0.0, 0.0, 0)

    c = pts[1:-1, 1:-1]
    xp = pts[2:, 1:-1] - c
    xm = pts[:-2, 1:-1] - c
    yp = pts[1:-1, 2:] - c
    ym = pts[1:-1, :-2] - c
    vol1 = np.abs(np.linalg.det(np.stack([xp, yp, xm], axis=-2)))
    vol2 = np.abs(np.linalg.det(np.stack([xp, yp, ym], axis=-2)))
    planarity = float(np.max([vol1.max() / (tx * tx * ty), vol2.max() / (tx * ty * ty)]))

    p = phi.phi
    ppx = p[2:, 1:-1]
    pmx = p[:-2, 1:-1]
    ppy = p[1:-1, 2:]
    pmy = p[1:-1, :-2]

    def unit(v):
        return v / np.sqrt(np.sum(v**2, axis=-1))[..., None]

    uxp, uxm, uyp, uym = unit(xp), unit(xm), unit(yp), unit(ym)
    cos1 = np.sum(uxp * uyp, axis=-1)
    cos2 = np.sum(uyp * uxm, axis=-1)
    cos3 = np.sum(uxm * uym, axis=-1)
    cos4 = np.sum(uym * uxp, axis=-1)
    exp1 = np.cos(0.5 * (ppx + ppy))
    exp2 = -np.cos(0.5 * (ppy + pmx))
    exp3 = np.cos(0.5 * (pmx + pmy))
    exp4 = -np.cos(0.5 * (pmy + ppx))
    angle = float(np.max([np.max(np.abs(cos1 - exp1)), np.max(np.abs(cos2 - exp2)),
                          np.max(np.abs(cos3 - exp3)), np.max(np.abs(cos4 - exp4))]))
    total = sum(np.arccos(np.clip(cc, -1.0, 1.0)) for cc in (cos1, cos2, cos3, cos4))
    angle_sum = float(np.max(np.abs(total - 2.0 * np.pi)))
    return KSurfaceReport(edge, planarity, angle, angle_sum, int(vol1.size))
