"""Tests for transition matrices, frames, the Sym formula, and dressing."""

import math

import numpy as np
import pytest

from ksurf import frames
from ksurf.frames import (
    ZeroCurvatureError,
    propagate_frame,
    sym_matrices,
    zero_curvature_residual,
)
from ksurf.goursat import EdgeField2, LatticeDomain2, solve_goursat_2d
from ksurf.harness import demo_data
from ksurf.sinegordon import (
    BacklundParam,
    hirota_backlund_system,
    hirota_system,
    naive_system,
    solve_goursat_3d,
)
from ksurf.surfaces import (
    backlund_surface,
    ell_xy,
    solve_backlund_chain,
    surface_from_fields,
)
from oracles import (
    IDENTITY2,
    SIGMA3,
    backlund_W,
    check_unitary,
    det2,
    frobenius,
    inv2,
    lax_U,
    lax_Ud,
    lax_V,
    lax_Vd,
    su2_project,
)

RNG = np.random.default_rng(20240819)
AV = RNG.uniform(-3.0, 3.0, 500)
BV = RNG.uniform(-3.0, 3.0, 500)


@pytest.fixture(scope="module")
def hirota_fields():
    dom = LatticeDomain2.from_k(1.0, 6)
    return solve_goursat_2d(hirota_system(), demo_data(), dom)


def test_twisted_symmetry_of_builders():
    # negating lambda conjugates every transition matrix by sigma3
    for lam in (0.5, 1.0, 2.0):
        for m_plus, m_minus in (
            (lax_U(AV, lam)[0], lax_U(AV, -lam)[0]),
            (lax_V(BV, lam)[0], lax_V(BV, -lam)[0]),
            (lax_Ud(AV, lam, 0.125)[0], lax_Ud(AV, -lam, 0.125)[0]),
            (lax_Vd(BV, lam, 0.125)[0], lax_Vd(BV, -lam, 0.125)[0]),
        ):
            assert np.array_equal(m_minus, SIGMA3 @ m_plus @ SIGMA3)


def test_disc_matrices_are_special_unitary():
    for lam in (0.5, 2.0):
        for eps in (2.0**-3, 2.0**-6):
            u = lax_Ud(AV, lam, eps)[0]
            v = lax_Vd(BV, lam, eps)[0]
            assert check_unitary(u, tol=1e-12)
            assert check_unitary(v, tol=1e-12)
            assert np.abs(det2(u) - 1.0).max() <= 1e-14
            assert np.abs(det2(v) - 1.0).max() <= 1e-14


def test_disc_matrices_expand_to_continuous():
    # Ud = I + eps*U + O(eps^2), Vd = I + eps*V + O(eps^2); constant <= 3
    # on [-3, 3] for lam in [1/2, 2] (measured <= 2.3)
    eye = np.eye(2)
    for eps in (2.0**-4, 2.0**-5):
        for lam in (0.5, 1.0, 2.0):
            du = frobenius(lax_Ud(AV, lam, eps)[0] - eye - eps * lax_U(AV, lam)[0])
            dv = frobenius(lax_Vd(BV, lam, eps)[0] - eye - eps * lax_V(BV, lam)[0])
            assert du.max() <= 3.0 * eps * eps
            assert dv.max() <= 3.0 * eps * eps


def test_lax_dlambda_matches_finite_differences():
    h = 1e-6
    builds = (lambda lam: lax_U(AV, lam), lambda lam: lax_V(BV, lam),
              lambda lam: lax_Ud(AV, lam, 0.125), lambda lam: lax_Vd(BV, lam, 0.125),
              lambda lam: backlund_W(BV, 0.7, lam))
    for build in builds:
        for lam in (0.5, 1.0, 2.0):
            fd = (build(lam + h)[0] - build(lam - h)[0]) / (2.0 * h)
            assert frobenius(fd - build(lam)[1]).max() <= 1e-8  # measured 1.3e-10


def test_zero_curvature_on_hirota_solution(hirota_fields):
    for lam in (0.5, 1.0, 2.0):
        res, cell = zero_curvature_residual(hirota_fields, lam)
        assert res <= 1e-12  # measured ~4e-16 per cell
        assert len(cell) == 2


def test_zero_curvature_fails_for_naive():
    dom = LatticeDomain2.from_k(1.0, 6)
    sol = solve_goursat_2d(naive_system(), demo_data(), dom)
    res, _ = zero_curvature_residual(sol, 1.0)
    assert res > 1e-6  # measured 1.9e-6: naive fields carry no frame
    with pytest.raises(ZeroCurvatureError) as exc:
        propagate_frame(sol, 1.0)
    assert exc.value.residual == pytest.approx(res)
    assert "zero-curvature" in str(exc.value)


def test_propagate_frame_unitary(hirota_fields):
    for lam in (0.5, 1.0, 2.0):
        fr = propagate_frame(hirota_fields, lam)
        n = hirota_fields.domain.n
        assert fr.psi.shape == (n + 1, n + 1, 2, 2)
        assert check_unitary(fr.psi, tol=1e-10)
        assert np.array_equal(fr.psi[0, 0], np.eye(2))
        assert np.abs(fr.dpsi[0, 0]).max() == 0.0


def test_propagate_frame_path_independence(hirota_fields):
    for lam in (0.5, 1.0, 2.0):
        fr_xy = propagate_frame(hirota_fields, lam, order="xy")
        fr_yx = propagate_frame(hirota_fields, lam, order="yx")
        assert frobenius(fr_xy.psi - fr_yx.psi).max() <= 1e-11  # measured 5e-15
        assert frobenius(fr_xy.dpsi - fr_yx.dpsi).max() <= 1e-11


def test_propagate_frame_validation(hirota_fields):
    with pytest.raises(ValueError, match="lambda"):
        propagate_frame(hirota_fields, 0.0)
    with pytest.raises(ValueError, match="order"):
        propagate_frame(hirota_fields, 1.0, order="diag")


def test_twisted_frame_symmetry(hirota_fields):
    # Psi(-lam) = sigma3 Psi(lam) sigma3 propagates through the whole grid
    fr_p = propagate_frame(hirota_fields, 1.0)
    fr_m = propagate_frame(hirota_fields, -1.0)
    assert frobenius(fr_m.psi - SIGMA3 @ fr_p.psi @ SIGMA3).max() <= 1e-10
    assert frobenius(fr_m.dpsi + SIGMA3 @ fr_p.dpsi @ SIGMA3).max() <= 1e-10


def test_surface_stream_matches_propagate_frame(hirota_fields):
    # the streamed surface is Sym of the stored frame, bitwise
    for lam in (0.5, 1.0):
        fr = propagate_frame(hirota_fields, lam)
        pts = surface_from_fields(hirota_fields, lam)
        assert np.array_equal(pts, sym_matrices(fr.psi, fr.dpsi, lam))


def test_frame_self_convergence():
    # frames converge O(eps) as the lattice refines (sup over shared sites)
    data = demo_data()
    rhs = hirota_system()
    ref = propagate_frame(
        solve_goursat_2d(rhs, data, LatticeDomain2.from_k(1.0, 9)), 1.0
    )
    errs = []
    for k in (4, 5, 6):
        fr = propagate_frame(
            solve_goursat_2d(rhs, data, LatticeDomain2.from_k(1.0, k)), 1.0
        )
        s = 2 ** (9 - k)
        errs.append(float(frobenius(fr.psi - ref.psi[::s, ::s]).max()))
    assert errs[0] <= 0.05  # measured 0.029
    for e0, e1 in zip(errs, errs[1:]):
        assert e0 / e1 == pytest.approx(2.0, rel=0.25)  # measured 2.05, 2.13


def test_sym_one_step_edges():
    # from Psi(0,0) = I one Ud (Vd) step produces an edge of exactly the
    # closed-form length eps*lx (eps*ly), independent of the field value
    for lam in (0.5, 1.0, 2.0):
        for eps in (0.125, 0.25):
            lx, ly = ell_xy(eps, lam)
            for val in (-1.2, 0.7):
                p = sym_matrices(*lax_Ud(val, lam, eps), lam)
                assert np.linalg.norm(p) == pytest.approx(eps * lx, abs=1e-14)
                q = sym_matrices(*lax_Vd(val, lam, eps), lam)
                assert np.linalg.norm(q) == pytest.approx(eps * ly, abs=1e-14)


def test_sym_point_matches_matrices(hirota_fields):
    fr = propagate_frame(hirota_fields, 1.0)
    pts = sym_matrices(fr.psi, fr.dpsi, fr.lam)
    assert pts.shape == fr.psi.shape[:2] + (3,)
    one = sym_matrices(fr.psi[3, 5], fr.dpsi[3, 5], fr.lam)
    assert one.shape == (3,)
    assert np.array_equal(one, pts[3, 5])
    assert np.abs(pts[0, 0]).max() == 0.0  # base point at the origin


def test_backlund_W_values():
    th = RNG.uniform(-3.0, 3.0, 40)
    for alpha, lam in ((0.5, 1.0), (2.0, 0.5)):
        ws = backlund_W(th, alpha, lam)[0]
        assert np.allclose(det2(ws), alpha**2 + lam**2)
        gram = np.conj(np.swapaxes(ws, -1, -2)) @ ws
        assert np.allclose(gram, (alpha**2 + lam**2) * np.eye(2), atol=1e-12)


def test_transform_frame_recursion(hirota_fields):
    # the dressed frame satisfies the frame recursion of the transformed
    # fields, and W intertwines the transition matrices of the two layers
    dom = hirota_fields.domain
    n, eps = dom.n, dom.eps
    alpha, lam = 1.0, 1.0
    rhs6 = hirota_backlund_system(alpha)
    sol3 = solve_goursat_3d(rhs6, demo_data(), [0.5], dom)
    a0, b0, th = sol3.a[0], sol3.b[0], sol3.theta[0]
    a1, b1 = sol3.a[1], sol3.b[1]

    w = backlund_W(th, alpha, lam)[0]
    dressed = w @ propagate_frame(hirota_fields, lam).psi
    u1 = lax_Ud(a1, lam, eps)[0]
    v1 = lax_Vd(b1, lam, eps)[0]
    rec_x = u1 @ dressed[:n, :] - dressed[1:, :]
    rec_y = v1 @ dressed[:, :n] - dressed[:, 1:]
    assert max(frobenius(rec_x).max(), frobenius(rec_y).max()) <= 1e-10

    u0 = lax_Ud(a0, lam, eps)[0]
    v0 = lax_Vd(b0, lam, eps)[0]
    int_x = w[1:, :] @ u0 - u1 @ w[:n, :]
    int_y = w[:, 1:] @ v0 - v1 @ w[:, :n]
    assert max(frobenius(int_x).max(), frobenius(int_y).max()) <= 1e-10


def test_zero_curvature_error_attributes():
    err = ZeroCurvatureError(1.5e-4, (0.25, 0.5), 2.0)
    assert err.residual == 1.5e-4
    assert err.cell == (0.25, 0.5)
    assert err.lam == 2.0
    assert "1.500e-04" in str(err)


def oracle_stream(fields, lam, w_layers=()):
    """Stacked 2x2 reference of the surface stream, independent of the kernel.

    Ud steps along the bottom row, then Vd steps up every column; each
    column is dressed by the W layers in turn and projected by the Sym
    formula with an adjugate inverse.
    """
    n, eps = fields.domain.n, fields.domain.eps
    a, b = fields.a, fields.b
    psi = np.empty((n + 1, 2, 2), dtype=complex)
    dpsi = np.empty_like(psi)
    psi[0], dpsi[0] = IDENTITY2, 0.0
    u, du = lax_Ud(a[:, 0], lam, eps)
    for i in range(n):
        psi[i + 1] = u[i] @ psi[i]
        dpsi[i + 1] = du[i] @ psi[i] + u[i] @ dpsi[i]
    outs = [np.empty((n + 1, n + 1, 3)) for _ in range(len(w_layers) + 1)]
    for j in range(n + 1):
        if j:
            v, dv = lax_Vd(b[:, j - 1], lam, eps)
            psi, dpsi = v @ psi, dv @ psi + v @ dpsi
        g, dg = psi, dpsi
        outs[0][:, j] = su2_project(lam * inv2(g) @ dg)
        for z, (th, alpha) in enumerate(w_layers):
            w, dw = backlund_W(th[:, j], alpha, lam)
            g, dg = w @ g, dw @ g + w @ dg
            outs[z + 1][:, j] = su2_project(lam * inv2(g) @ dg)
    return outs


def test_backlund_surface_matches_oracle():
    dom = LatticeDomain2.from_k(1.0, 6)
    chain = [BacklundParam(1.0, 0.5), BacklundParam(0.5, -0.25)]
    sol = solve_backlund_chain(demo_data(), dom, chain)
    fields0 = EdgeField2(sol.a[0], sol.b[0], dom)
    w_layers = [(th, p.alpha) for th, p in zip(sol.theta, chain)]
    for lam in (0.5, 1.0):
        tower = backlund_surface(demo_data(), dom, chain, lam)
        ref = oracle_stream(fields0, lam, w_layers)
        assert len(tower) == len(ref) == 3
        for mesh, pts in zip(tower, ref):
            assert np.abs(mesh.points - pts).max() <= 1e-13  # measured ~1e-15


@pytest.mark.parametrize("lam", [1e-200, 1e-104, 1e104, 1e200])
def test_extreme_lambda_is_refused(lam):
    # at eps = 1/8 these lambdas overflow or underflow the Ud/Vd normalisers
    dom = LatticeDomain2.from_k(1.0, 3)
    fields = solve_goursat_2d(hirota_system(), demo_data(), dom)
    for call in (
        lambda: surface_from_fields(fields, lam),
        lambda: propagate_frame(fields, lam),
        lambda: backlund_surface(demo_data(), dom, [(1.0, 0.5)], lam),
    ):
        with pytest.raises(ValueError, match="lambda"):
            call()


@pytest.mark.parametrize("lam", [1e-3, 1e3])
def test_wide_lambda_gives_finite_surfaces(lam):
    dom = LatticeDomain2.from_k(1.0, 3)
    fields = solve_goursat_2d(hirota_system(), demo_data(), dom)
    assert np.isfinite(surface_from_fields(fields, lam)).all()
    tower = backlund_surface(demo_data(), dom, [(1.0, 0.5)], lam)
    assert all(np.isfinite(m.points).all() for m in tower)


# ---------------------------------------------------------------------------
# blocks of lines: the sweep's output does not depend on the block size


def _block_case(n):
    """Hirota fields on n x n cells with two Backlund layers of theta."""
    dom = LatticeDomain2(n / 16, 1 / 16)
    chain = [BacklundParam(1.0, 0.5), BacklundParam(0.5, -0.25)]
    sol = solve_backlund_chain(demo_data(), dom, chain)
    return EdgeField2(sol.a[0], sol.b[0], dom), [(t, p.alpha) for t, p in zip(sol.theta, chain)]


def _sweep_output(fields, order, layers, monkeypatch, lines):
    if lines is not None:
        monkeypatch.setattr(frames, "_BLOCK_SITES", lines * (fields.domain.n + 1))
    s = frames._sweep(fields, 0.7, order, layers, frame=True, sym=True)
    return s.residual, s.cell, s.psi, s.dpsi, s.points


@pytest.mark.parametrize("n", [1, 2, 16, 17])
@pytest.mark.parametrize("order", ["xy", "yx"])
def test_block_size_keeps_bits(monkeypatch, n, order):
    # two lines (the fewest a block holds), three lines and the default
    # budget per block give the same points, frames, residual and cell,
    # bitwise
    fields, layers = _block_case(n)
    ref = _sweep_output(fields, order, layers, monkeypatch, 2)
    for lines in (3, None):
        monkeypatch.undo()
        res, cell, psi, dpsi, points = _sweep_output(fields, order, layers, monkeypatch, lines)
        assert (res, cell) == ref[:2]
        assert psi.tobytes() == ref[2].tobytes() and dpsi.tobytes() == ref[3].tobytes()
        assert len(points) == 3
        assert all(p.tobytes() == q.tobytes() for p, q in zip(points, ref[4]))


def test_blocks_share_one_buffer(monkeypatch):
    # nine blocks of two lines at n = 16, all written into one buffer
    calls, make = [], frames._frame_buffer
    monkeypatch.setattr(frames, "_frame_buffer", lambda *shape: calls.append(shape) or make(*shape))
    monkeypatch.setattr(frames, "_BLOCK_SITES", 2 * 17)
    fields, layers = _block_case(16)
    frames._sweep(fields, 0.7, "xy", layers, frame=True, sym=True)
    assert calls == [(2, 16)]


@pytest.mark.parametrize("order", ["xy", "yx"])
def test_nan_in_later_block_names_its_cell(monkeypatch, order):
    # the first cell using a[3, 9] is the one at (3, 8) in both orders ('xy'
    # meets it on line 9, 'yx' on line 3), past the first block of three lines
    fields, layers = _block_case(16)
    fields.a[3, 9] = np.nan
    cells = []
    for lines in (2, 3):
        monkeypatch.setattr(frames, "_BLOCK_SITES", lines * 17)
        with pytest.raises(ZeroCurvatureError) as exc:
            frames._sweep(fields, 1.0, order, layers, sym=True)
        assert np.isnan(exc.value.residual)
        cells.append(exc.value.cell)
    assert cells[0] == cells[1] == (3 / 16, 8 / 16)


def test_nan_on_axis_fails_sym(monkeypatch):
    # the walk along the axis carries the NaN into line 0, whose Sym points
    # are checked before the residual of its cells
    fields, _ = _block_case(16)
    fields.a[5, 0] = np.nan
    for lines in (2, 3, None):
        monkeypatch.undo()
        if lines:
            monkeypatch.setattr(frames, "_BLOCK_SITES", lines * 17)
        with pytest.raises(ValueError, match="Sym points are not finite"):
            surface_from_fields(fields, 1.0)


def test_sym_runs_once_per_block_and_layer(monkeypatch):
    fields, layers = _block_case(64)
    calls = []
    sym = frames._sym
    monkeypatch.setattr(frames, "_sym", lambda *args: calls.append(1) or sym(*args))
    frames._sweep(fields, 1.0, layers=layers, sym=True)
    lines = frames._BLOCK_SITES // 65
    assert len(calls) <= math.ceil(65 / lines) * (len(layers) + 1)


@pytest.mark.parametrize("k, residual, cell", [
    (1, "0x1.bb67ae8584caap-54", ("0x1.0000000000000p-1", "0x0.0p+0")),
    (3, "0x1.6d0810be67742p-52", ("0x1.0000000000000p-3", "0x1.8000000000000p-2")),
    (8, "0x1.0f87b83aa6fedp-51", ("0x1.1200000000000p-1", "0x1.a800000000000p-1")),
])
def test_zero_curvature_residual_keeps_its_bits(k, residual, cell):
    # the worst cell residual and its cell in both orders, and the residual a
    # 3-step tower records, as the kernel measured them when each block
    # carried its first line's axis planes over from the block before
    dom = LatticeDomain2.from_k(1.0, k)
    fields = solve_goursat_2d(hirota_system(), demo_data(), dom)
    for order in ("xy", "yx"):
        s = frames._sweep(fields, 1.0, order)
        assert (s.residual.hex(), tuple(c.hex() for c in s.cell)) == (residual, cell)
    tower = backlund_surface(demo_data(), dom, [(1.0, 0.5), (0.5, -0.25), (2.0, 0.1)])
    assert [m.zcc_residual.hex() for m in tower] == [residual] * 4
