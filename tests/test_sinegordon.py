"""Tests for the sine-Gordon schemes, angle reconstruction, and Backlund layer."""

import dataclasses
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ksurf import goursat, sinegordon
from ksurf.goursat import (
    COMPAT_TOL,
    BlowUpError,
    CompatibilityError,
    GoursatData2,
    LatticeDomain2,
    Rhs2,
    solve_goursat_2d,
)
from ksurf.harness import demo_data
from ksurf.ndsys import sine_gordon_3d_spec, solve_goursat_nd
from ksurf.sinegordon import (
    BacklundParam,
    Rhs3,
    SchemeKind,
    _im_log1m,
    backlund_eta,
    backlund_system,
    backlund_u,
    backlund_v,
    backlund_xi,
    check_compatibility_3d,
    hirota_backlund_system,
    hirota_rhs,
    hirota_system,
    load_backlund_chain,
    naive_backlund_system,
    naive_rhs,
    naive_system,
    reconstruct_phi,
    phi_defining_residual,
    second_order_residual,
    solve_goursat_3d,
    system_for,
)
from ksurf.surfaces import solve_backlund_chain
from oracles import (
    backlund_compat_residual_continuous,
    backlund_rhs_continuous,
    compatibility_3d_three_identities,
    hirota_f_complex,
    layer_by_layer,
    two_path_layers,
)

RNG = np.random.default_rng(20240818)
A = RNG.uniform(-3.0, 3.0, 4000)
B = RNG.uniform(-3.0, 3.0, 4000)
TH = RNG.uniform(-3.0, 3.0, 4000)


def test_continuous_and_naive_rhs():
    # the naive scheme is the continuous system (a_y, b_x) = (sin b, a)
    f, g = naive_rhs(A, B, 0.125)
    assert np.array_equal(f, np.sin(B))
    assert np.array_equal(g, A)


def test_hirota_f_matches_complex_form():
    # the real evaluation must agree with the literal complex-ratio form,
    # whose imaginary part measures the conjugate-pair cancellation; one
    # complex division costs about eps^-2 ulps there, hence the split bound
    for eps, imag_tol in ((2.0**-3, 1e-13), (2.0**-6, 1e-11)):
        f, g = hirota_rhs(A, B, eps)
        fc = hirota_f_complex(A, B, eps)
        assert np.abs(fc.real - f).max() <= 1e-13
        assert np.abs(fc.imag).max() <= imag_tol
        assert np.array_equal(g, A + 0.5 * eps * f)


def _im_log1m_complex(p, t):
    # the complex-log evaluation that the real atan2 form replaced
    return np.log(1.0 - p * np.exp(1j * t)).imag


# (eps, alpha) near the admissibility limits eps -> 2, eps*alpha -> 2 and
# eps/alpha -> 2, plus two ordinary steps
LIMITS = [(2.0**-6, 1.0), (2.0**-3, 0.5), (1.5, 1.0), (2.0 - 1e-9, 1.0),
          (0.5, 3.999999), (0.5, 4.0 - 1e-9), (0.5, 0.2500001), (0.5, 0.25 + 1e-10)]


@pytest.mark.parametrize("eps, alpha", LIMITS)
def test_real_im_log_within_one_ulp(eps, alpha):
    for p, t in ((0.25 * eps * eps, B + 0.5 * eps * A),
                 (0.5 * eps * alpha, TH - 0.5 * eps * A),
                 (0.5 * eps / alpha, B + TH)):
        x, xc = _im_log1m(p, t), _im_log1m_complex(p, t)
        assert np.all(np.abs(x - xc) <= np.spacing(np.abs(xc)))


@pytest.mark.parametrize("eps, alpha", LIMITS)
def test_rhs_match_complex_log_oracle(eps, alpha):
    # each rhs is c * Im log(1 - w), u shifted by -a; it may differ from the
    # old complex-log form by one ulp of the log term carried through c, plus
    # one rounding for each later operation
    def check(new, old, c, x_old):
        tol = abs(c) * np.spacing(np.abs(x_old)) + np.spacing(np.abs(c * x_old))
        assert np.all(np.abs(new - old) <= tol + np.spacing(np.abs(old)))

    if eps < 2.0 and alpha == 1.0:
        c, t = -4.0 / (eps * eps), B + 0.5 * eps * A
        xc = _im_log1m_complex(0.25 * eps * eps, t)
        check(hirota_rhs(A, B, eps)[0], c * xc, c, xc)
    c = -2.0 / eps
    xc = _im_log1m_complex(0.5 * eps * alpha, TH - 0.5 * eps * A)
    check(backlund_u(A, TH, alpha, eps), -A + c * xc, c, xc)
    xc = _im_log1m_complex(0.5 * eps / alpha, B + TH)
    check(backlund_v(B, TH, alpha, eps), c * xc, c, xc)


def test_hirota_limit_to_continuous():
    # f = sin b + O(eps), g = a + O(eps); halving eps halves the defect
    prev = None
    for eps in (2.0**-4, 2.0**-5, 2.0**-6):
        f, g = hirota_rhs(A, B, eps)
        df = np.abs(f - np.sin(B)).max()
        assert df <= 2.0 * eps  # measured constant ~1.49 on [-3, 3]^2
        assert np.abs(g - A).max() <= 0.51 * eps
        if prev is not None:
            assert df == pytest.approx(prev / 2.0, rel=0.05)
        prev = df


def test_hirota_odd_symmetry():
    # w(-a, -b) is the conjugate of w(a, b), so f flips sign exactly
    for eps in (2.0**-3, 2.0**-6):
        f1, _ = hirota_rhs(A, B, eps)
        f2, _ = hirota_rhs(-A, -B, eps)
        assert np.array_equal(f1, -f2)


def test_hirota_shift_equivariance():
    # b -> b + 2*pi leaves f unchanged up to the rounding of b + 2*pi itself
    eps = 2.0**-3
    f1, _ = hirota_rhs(A, B, eps)
    f2, _ = hirota_rhs(A, B + 2.0 * np.pi, eps)
    assert np.abs(f1 - f2).max() <= 1e-13


def test_hirota_eps_validation():
    for bad in (0.0, -0.5, 2.0, 2.5):
        with pytest.raises(ValueError):
            hirota_rhs(A[:4], B[:4], bad)


# the smallest step for which 4/eps^2 is finite
EPS_MIN = 1.4916681462400417e-154


@pytest.mark.parametrize("eps", [1e-170, 1e-160, np.nextafter(EPS_MIN, 0.0)])
def test_hirota_refuses_overflowing_step(eps):
    # 4/eps^2 overflows, so every f would be -inf * 0 or +-inf: refused by
    # name, in the rhs, in a solve and in the compatibility check
    match = f"eps = {eps} is too small: 4/eps\\^2 overflows"
    with pytest.raises(ValueError, match=match):
        hirota_rhs(A, B, eps)
    with pytest.raises(ValueError, match=match):
        solve_goursat_2d(hirota_system(), demo_data(), LatticeDomain2(float(eps), float(eps)))
    samples = np.stack([A[:100], B[:100], TH[:100]], axis=-1)
    with pytest.raises(ValueError, match=match):
        check_compatibility_3d(hirota_backlund_system(1.0), samples, eps)


def test_hirota_smallest_step_keeps_its_bits():
    # at EPS_MIN the rhs is finite and still the formula, bit for bit
    for eps in (EPS_MIN, 2.0**-6):
        f, g = hirota_rhs(A, B, eps)
        assert np.isfinite(f).all() and np.isfinite(g).all()
        assert np.array_equal(f, (-4.0 / (eps * eps)) * _im_log1m(0.25 * eps * eps, B + 0.5 * eps * A))
        assert np.array_equal(g, A + (0.5 * eps) * f)


# the smallest step for which 2/eps is finite
BACKLUND_EPS_MIN = 1.112536929253601e-308


@pytest.mark.parametrize("eps", [1e-309, np.nextafter(BACKLUND_EPS_MIN, 0.0), 0.0, -1e-309,
                                 np.nan])
def test_backlund_refuses_overflowing_step(eps):
    # 2/eps is not finite, so u and v would be inf or nan: refused by name, in
    # u, in v and in the naive compatibility check (alpha = 1 and 1e308)
    match = f"Backlund step eps = {eps} is out of range: 2/eps = .* is not finite"
    for rhs in (backlund_u, backlund_v):
        with pytest.raises(ValueError, match=match):
            rhs(A, TH, 1.0, eps)
    samples = np.stack([A[:100], B[:100], TH[:100]], axis=-1)
    if eps > 0:
        for alpha in (1.0, 1e308):
            with pytest.raises(ValueError, match=match):
                check_compatibility_3d(naive_backlund_system(alpha), samples, eps)


# at eps = 1.5e-308, the alphas one ulp inside and outside each increment bound
INCREMENT_BOUNDS = [
    (8.322956178289367e307, 8.322956178289368e307, "(4/eps) asin(eps alpha/2)"),
    (7.689602659854416e-309, 7.68960265985441e-309, "(2/eps) asin(eps/(2 alpha))"),
]


@pytest.mark.parametrize("inside, outside, what", INCREMENT_BOUNDS)
def test_backlund_step_refuses_overflowing_increments(inside, outside, what):
    # eps is admissible for both alphas and 2/eps is finite, but outside the
    # bound |xi + 2a| or |v| is not: the compatibility check and the layered
    # solve refuse it by name before reading a sample or a datum
    def never(*args):
        raise AssertionError("data sampled")

    eps, samples = 1.5e-308, np.stack([A[:100], B[:100], TH[:100]], axis=-1)
    assert np.nextafter(inside, outside) == outside
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isfinite(check_compatibility_3d(naive_backlund_system(inside), samples, eps))
    match = re.escape(f"Backlund step eps = 1.5e-308 is out of range for alpha = {outside}: "
                      f"its increments reach {what} = inf")
    dom, rhs6 = LatticeDomain2(eps, eps), naive_backlund_system(outside)
    for call in (lambda: check_compatibility_3d(rhs6, samples, eps),
                 lambda: solve_goursat_3d(rhs6, GoursatData2(never, never), [0.5], dom),
                 lambda: solve_goursat_3d(rhs6, GoursatData2(never, never), [], dom),
                 lambda: sinegordon._solve_layers(naive_system(), [BacklundParam(outside, 0.5)],
                                                  GoursatData2(never, never), dom)):
        with pytest.raises(ValueError, match=match):
            call()


def test_backlund_smallest_step_keeps_its_bits():
    # at BACKLUND_EPS_MIN u and v are finite and still the formula, bit for bit
    for eps in (BACKLUND_EPS_MIN, 2.0**-6):
        u, v = backlund_u(A, TH, 0.8, eps), backlund_v(B, TH, 0.8, eps)
        assert np.isfinite(u).all() and np.isfinite(v).all()
        assert np.array_equal(u, -A - (2.0 / eps) * _im_log1m(0.5 * eps * 0.8, TH - 0.5 * eps * A))
        assert np.array_equal(v, -(2.0 / eps) * _im_log1m(0.5 * eps / 0.8, B + TH))


def test_system_for():
    assert system_for(SchemeKind.HIROTA).name == "hirota"
    assert system_for(SchemeKind.NAIVE).name == "naive"
    assert hirota_system().eps0 == 2.0
    assert naive_system().eps0 == np.inf


@pytest.fixture(scope="module")
def solved():
    data = demo_data()
    dom = LatticeDomain2.from_k(1.0, 6)
    return {
        "dom": dom,
        "hirota": solve_goursat_2d(hirota_system(), data, dom),
        "naive": solve_goursat_2d(naive_system(), data, dom),
    }


def test_reconstruct_phi_hirota(solved):
    sol = solved["hirota"]
    ph = reconstruct_phi(sol, 1.0, SchemeKind.HIROTA)
    assert ph.phi.shape == (sol.domain.n + 1, sol.domain.n + 1)
    assert ph.phi[0, 0] == 1.0
    # the bottom row is the recurrence phi(x+eps, 0) = phi(x, 0) + eps a(x, 0), bitwise
    eps = sol.domain.eps
    assert np.array_equal(ph.phi[1:, 0], ph.phi[:-1, 0] + eps * sol.a[:, 0])
    assert phi_defining_residual(sol, ph) <= 1e-12  # measured 2.7e-13
    assert second_order_residual(ph) <= 1e-13  # measured 2.1e-15


def test_reconstruct_phi_naive(solved):
    sol = solved["naive"]
    phi00 = float(sol.b[0, 0])
    ph = reconstruct_phi(sol, phi00, SchemeKind.NAIVE)
    # the right column is the recurrence by a = delta_x phi from phi(0, n), bitwise
    n, eps = sol.domain.n, sol.domain.eps
    assert np.array_equal(ph.phi[1:, n], ph.phi[:-1, n] + eps * sol.a[:, n])
    assert phi_defining_residual(sol, ph) <= 1e-12  # measured 1.4e-14
    # the naive scheme satisfies its own second-order form to O(eps) * eps^2
    assert second_order_residual(ph) <= 1e-10  # measured 1.8e-12
    with pytest.raises(ValueError, match="phi00"):
        reconstruct_phi(sol, phi00 + 1.0, SchemeKind.NAIVE)


@pytest.mark.parametrize("phi00", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("scheme", list(SchemeKind))
def test_reconstruct_phi_refuses_a_non_finite_phi00(solved, scheme, phi00):
    # Hirota would return an all-NaN field; naive would skip its b(0, 0) check
    with pytest.raises(ValueError, match=rf"phi00 = {phi00} is not finite"):
        reconstruct_phi(solved[scheme.value], phi00, scheme)


def test_reconstruct_phi_naive_one_step():
    # at n = 1 the top row has one value below it: phi(0, 1) = phi(0, 0)
    sol = solve_goursat_2d(naive_system(), demo_data(), LatticeDomain2(1.0, 1.0))
    ph = reconstruct_phi(sol, float(sol.b[0, 0]), SchemeKind.NAIVE)
    assert ph.phi[0, 1] == ph.phi[0, 0] == sol.b[0, 0]
    assert ph.phi[1, 1] == ph.phi[0, 1] + sol.a[0, 1]
    assert phi_defining_residual(sol, ph) <= 1e-15  # measured 2.2e-16


def test_hirota_beats_naive_on_second_order_form(solved):
    # both schemes solve their own square relation; crossing them over fails
    sol_h = solved["hirota"]
    ph_h = reconstruct_phi(sol_h, 1.0, SchemeKind.HIROTA)
    crossed = second_order_residual(
        type(ph_h)(ph_h.phi, ph_h.domain, SchemeKind.NAIVE)
    )
    assert crossed > 1e-4  # naive relation does not hold for the Hirota angle


def test_backlund_rhs_continuous():
    alpha = 1.3
    u, v, xi, eta = backlund_rhs_continuous(A, B, TH, alpha)
    assert np.allclose(u, -A + alpha * np.sin(TH))
    assert np.allclose(v, np.sin(B + TH) / alpha)
    assert np.array_equal(xi, 2.0 * u)
    assert np.array_equal(eta, 2.0 * TH)
    with pytest.raises(ValueError):
        backlund_rhs_continuous(A, B, TH, 0.0)


def test_backlund_compat_continuous():
    samples = np.stack([A[:1000], B[:1000], TH[:1000]], axis=-1)
    for alpha in (0.5, 1.0, 2.0):
        assert backlund_compat_residual_continuous(samples, alpha) <= 1e-12


def test_backlund_discrete_limit():
    alpha = 1.3
    for eps in (2.0**-4, 2.0**-5, 2.0**-6):
        u = backlund_u(A, TH, alpha, eps)
        v = backlund_v(B, TH, alpha, eps)
        assert np.abs(u - (-A + alpha * np.sin(TH))).max() <= 3.0 * eps
        assert np.abs(v - np.sin(B + TH) / alpha).max() <= 0.5 * eps


def test_backlund_discrete_increments():
    alpha, eps = 0.8, 2.0**-3
    rhs6 = backlund_system(alpha)
    u, v = rhs6.u(A, TH, eps), rhs6.v(B, TH, eps)
    assert np.array_equal(backlund_xi(u), 2.0 * u)
    assert np.array_equal(backlund_eta(v, TH, eps), 2.0 * TH + eps * v)
    assert np.array_equal(backlund_eta(v[0], TH[0], eps), 2.0 * TH[0] + eps * v[0])
    # a Backlund step is the scheme plus alpha: step, eps0 and name are derived
    assert [f.name for f in dataclasses.fields(rhs6)] == ["base", "alpha"]
    dom = LatticeDomain2(1.0, 0.25)
    for bad_alpha in (8.0, 0.1):  # eps*alpha = 2, eps = 2.5*alpha
        for theta0 in ([0.5], []):  # refused with no steps too
            with pytest.raises(ValueError, match=r"step eps = 0\.25 is not admissible for rhs "
                                                 r"'hirota\+backlund'"):
                solve_goursat_3d(backlund_system(bad_alpha), demo_data(), theta0, dom)
    with pytest.raises(ValueError):
        backlund_system(-1.0)


def test_backlund_system_eps0():
    assert hirota_backlund_system(1.0).eps0 == 2.0
    assert hirota_backlund_system(4.0).eps0 == pytest.approx(0.5)
    assert hirota_backlund_system(0.2).eps0 == pytest.approx(0.4)
    assert naive_backlund_system(4.0).eps0 == pytest.approx(0.5)
    with pytest.raises(ValueError):
        hirota_backlund_system(0.0)
    with pytest.raises(ValueError):
        naive_backlund_system(-2.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            backlund_system(bad)


def test_backlund_system_takes_the_scheme_step():
    for scheme, make in ((SchemeKind.HIROTA, hirota_backlund_system),
                         (SchemeKind.NAIVE, naive_backlund_system)):
        rhs6 = backlund_system(0.8, scheme)
        assert rhs6 == Rhs3(system_for(scheme), 0.8) == make(0.8)
        assert rhs6.step is rhs6.base.step is system_for(scheme).step
        assert rhs6.name == f"{scheme.value}+backlund"
        assert rhs6.eps0 == min(system_for(scheme).eps0, 2.0 / 0.8, 2.0 * 0.8)


def test_compatibility_hirota_backlund():
    # the six Hirota+Backlund right-hand sides close to roundoff
    samples = RNG.uniform(-3.0, 3.0, size=(10000, 3))
    for alpha in (0.5, 1.0, 2.0):
        rhs6 = hirota_backlund_system(alpha)
        for eps in (2.0**-3, 2.0**-6):
            assert check_compatibility_3d(rhs6, samples, eps) <= 1e-11


def test_compatibility_naive_backlund_fails():
    # grid max over the same sampling: the naive scheme breaks closure
    samples = RNG.uniform(-3.0, 3.0, size=(10000, 3))
    worst = 0.0
    for alpha in (0.5, 1.0, 2.0):
        rhs6 = naive_backlund_system(alpha)
        for eps in (2.0**-3, 2.0**-6):
            worst = max(worst, check_compatibility_3d(rhs6, samples, eps))
    assert worst > 1e-3  # measured ~8e-2


@pytest.mark.parametrize("scheme", list(SchemeKind))
def test_compatibility_matches_three_identity_oracle(scheme, monkeypatch):
    # each of u and v is evaluated at two points, not four: 6 right-hand side
    # calls per tile against the reference's 10, with bitwise the same residual.
    # The 25,000 samples make 3 tiles on one core, each making the same calls
    monkeypatch.setattr(goursat, "_cores", lambda: 1)
    samples = RNG.uniform(-3.0, 3.0, size=(25_000, 3))
    tiles = len(goursat._tiles(len(samples), 1)[0]) - 1
    assert tiles == 3
    for alpha in (0.5, 1.0, 2.0):
        calls = {"step": 0, "u": 0, "v": 0}

        def step(*args):
            calls["step"] += 1
            return rhs6.step(*args)

        class Counting(Rhs3):  # counts the calls of the u and v methods
            def u(self, *args):
                calls["u"] += 1
                return super().u(*args)

            def v(self, *args):
                calls["v"] += 1
                return super().v(*args)

        rhs6 = backlund_system(alpha, scheme)
        counting = Counting(dataclasses.replace(rhs6.base, step=step), rhs6.alpha)
        for eps in (2.0**-3, 2.0**-6):
            got = check_compatibility_3d(counting, samples, eps)
            assert got == compatibility_3d_three_identities(rhs6, samples, eps)
        assert calls == {"step": 4 * tiles, "u": 4 * tiles, "v": 4 * tiles}  # 2 each per eps


def test_compatibility_rejects_inadmissible_step():
    # the identities are only defined for 0 < eps < eps0 (eps*alpha < 2)
    samples = np.zeros((5, 3))
    for alpha, eps in ((64.0, 0.125), (1.0, 0.0), (1.0, -0.125), (1.0, np.nan)):
        with pytest.raises(ValueError, match="not admissible"):
            check_compatibility_3d(hirota_backlund_system(alpha), samples, eps)


def test_compatibility_zero_state():
    # all identities vanish identically at the zero state
    samples = np.zeros((5, 3))
    assert check_compatibility_3d(hirota_backlund_system(1.0), samples, 0.25) == 0.0


def test_solve_3d_layer_zero_matches_2d():
    data = demo_data()
    dom = LatticeDomain2.from_k(1.0, 5)
    sol2 = solve_goursat_2d(hirota_system(), data, dom)
    sol3 = solve_goursat_3d(hirota_backlund_system(1.0), data, [], dom)
    assert sol3.layers == 0
    assert np.array_equal(sol3.a[0], sol2.a)
    assert np.array_equal(sol3.b[0], sol2.b)
    assert sol3.cross_residual == 0.0


def test_solve_3d_two_layers():
    data = demo_data()
    dom = LatticeDomain2.from_k(1.0, 6)
    rhs6 = hirota_backlund_system(1.0)
    sol3 = solve_goursat_3d(rhs6, data, [0.5, -0.3], dom)
    assert sol3.layers == 2
    assert len(sol3.theta) == 2 and len(sol3.a) == 3
    assert sol3.cross_residual <= 1e-12  # measured 1.6e-15
    assert sol3.cross_residual == max(sol3.cross) and len(sol3.cross) == 2
    assert sol3.theta[0][0, 0] == 0.5 and sol3.theta[1][0, 0] == -0.3
    # the interior of each next layer is the pointwise Backlund transform of
    # the previous one, although it was solved from transformed data only
    n, eps = dom.n, dom.eps
    for z in range(2):
        a, b, th = sol3.a[z], sol3.b[z], sol3.theta[z]
        xi = backlund_xi(rhs6.u(a, th[:n, :], eps))
        eta = backlund_eta(rhs6.v(b, th[:, :n], eps), th[:, :n], eps)
        assert np.abs(sol3.a[z + 1] - (a + xi)).max() <= 1e-11  # measured 5e-15
        assert np.abs(sol3.b[z + 1] - (b + eta)).max() <= 1e-11


def test_solve_3d_layers_argument():
    # the layer count is len(theta0); there is no separate layers= argument
    data = demo_data()
    dom = LatticeDomain2.from_k(1.0, 4)
    sol = solve_goursat_3d(hirota_backlund_system(1.0), data, [0.5, -0.25], dom)
    assert sol.layers == 2
    with pytest.raises(TypeError, match="layers"):
        solve_goursat_3d(hirota_backlund_system(1.0), data, [0.5], dom, layers=2)


@pytest.mark.parametrize("k", [4, 6])
def test_solve_3d_matches_two_path_oracle(k):
    # one defining path per theta layer gives bitwise the fields and theta of
    # the propagation along both paths; only the cross residual changes form
    data, dom = demo_data(), LatticeDomain2.from_k(1.0, k)
    rhs6 = hirota_backlund_system(1.0)
    sol = solve_goursat_3d(rhs6, data, [0.5, -0.3], dom)
    ref = two_path_layers(rhs6.base, [BacklundParam(1.0, 0.5), BacklundParam(1.0, -0.3)],
                          data, dom)
    for got, want in zip((sol.a, sol.b, sol.theta), ref[:3]):
        assert len(got) == len(want)
        assert all(np.array_equal(x, y) for x, y in zip(got, want))
    assert sol.cross_residual <= 1e-12 and ref[3] <= 1e-12  # both measured <= 1.6e-15


def test_solve_3d_naive_aborts():
    data = demo_data()
    dom = LatticeDomain2.from_k(1.0, 6)
    with pytest.raises(CompatibilityError) as exc:
        solve_goursat_3d(naive_backlund_system(1.0), data, [0.5], dom)
    assert exc.value.mismatch > COMPAT_TOL  # measured 2.75e-4, the worst site
    assert "layer 0" in str(exc.value)


class _Solved(Exception):
    """Raised in place of a layer solve: the guards before it all passed."""


def test_theta0_beyond_its_float_spacing_refused_before_solving(monkeypatch):
    # theta0 whose ulp exceeds min(eps, 1/4) * 2^-35 would swallow the
    # increments eps*u and eps*v; at eps = 1/8 the limit sits at |theta0| = 2^15
    def solving(*args):
        raise _Solved

    monkeypatch.setattr(sinegordon, "_sweep", solving)
    monkeypatch.setattr(goursat, "_available_bytes", lambda: None)  # k = 11 needs 0.27 GB
    rhs6 = hirota_backlund_system(1.0)
    for k in range(1, 12):  # every theta0 with |theta0| <= 100 passes at k <= 11
        for theta0 in (100.0, -100.0):
            with pytest.raises(_Solved):
                solve_goursat_3d(rhs6, demo_data(), [0.5, theta0], LatticeDomain2.from_k(1.0, k))
    with pytest.raises(ValueError, match=r"theta0 = 100\.0 is too large for eps = 0\.000244140625"):
        solve_goursat_3d(rhs6, demo_data(), [0.5, 100.0], LatticeDomain2.from_k(1.0, 12))
    dom = LatticeDomain2.from_k(1.0, 3)
    for theta0 in (2.0**15, -(2.0**15), 1e300, -1e300, np.finfo(float).max):
        with pytest.raises(ValueError, match=r"theta0 = .* too large for eps = 0\.125"):
            solve_goursat_3d(rhs6, demo_data(), [0.5, theta0], dom)
    for theta0 in (np.nan, np.inf):  # left to the solve, which reports a blow-up
        with pytest.raises(_Solved):
            solve_goursat_3d(rhs6, demo_data(), [theta0], dom)
    monkeypatch.undo()
    below = np.nextafter(2.0**15, 0.0)  # one ulp is exactly eps * 2^-35: solved
    sol = solve_goursat_3d(rhs6, demo_data(), [below, -below], dom)
    assert sol.layers == 2 and sol.cross_residual <= COMPAT_TOL


def _big_b_step(a, b, eps):
    # the Hirota step, but infinite where b > 3.5: at k = 3 layer 1 of the
    # demo data with theta0 = 0.5 gets there (b up to 4.06), layer 0 does
    # not (b up to 3.08)
    f, g = hirota_rhs(a, b, eps)
    return np.where(b > 3.5, np.inf, f), g


_BIG_B = Rhs2(_big_b_step, 2.0, "hirota, infinite for b > 3.5")

LAYER_ERRORS = {  # name: (rhs2, (alpha, theta0) chain, data, field named)
    "theta0 nan": (hirota_system(), [(1.0, 0.5), (1.0, np.nan)], demo_data(), "theta"),
    "theta0 inf": (hirota_system(), [(1.0, np.inf)], demo_data(), "theta"),
    "theta0 -inf": (hirota_system(), [(0.5, 0.2), (1.0, -np.inf)], demo_data(), "theta"),
    "naive layer 0": (naive_system(), [(1.0, 0.5), (1.0, 0.5)], demo_data(), None),
    "a0 nan": (hirota_system(), [(1.0, 0.5)],
               GoursatData2(lambda x: np.where(x > 0.3, np.nan, x), lambda y: 0.0 * y), "data"),
    # layer 0 and theta stay finite, but xi = 2u, about -2a, overflows: the
    # data of layer 1 are reported after the layer below them is checked
    "a0 1e308": (hirota_system(), [(1.0, 0.5)],
                 GoursatData2(lambda x: 0.0 * x + 1e308, lambda y: 1.0 + np.sin(y)), "data"),
    "layer 1 blows up": (_BIG_B, [(1.0, 0.5), (1.0, 0.5)], demo_data(), "a"),
    # step 0's failed check comes before step 1's non-finite theta, filled with it
    "naive before theta0 nan": (naive_system(), [(1.0, 0.5), (1.0, np.nan)], demo_data(), None),
}


@pytest.mark.parametrize("case", LAYER_ERRORS)
def test_layered_errors_come_in_layer_by_layer_order(case):
    # solving all layers at once raises the error that solving them one after
    # another raises first: same class, field, site and message
    rhs2, chain, data, field_name = LAYER_ERRORS[case]
    chain = [BacklundParam(alpha, theta0) for alpha, theta0 in chain]
    dom = LatticeDomain2.from_k(1.0, 3)
    if case == "layer 1 blows up":
        assert np.isfinite(solve_goursat_2d(rhs2, data, dom).a).all()  # layer 0 stays finite
    with pytest.raises((BlowUpError, CompatibilityError)) as want, np.errstate(all="ignore"):
        layer_by_layer(rhs2, chain, data, dom)  # the reference warns of what it reports
    with pytest.raises(want.type) as got:
        sinegordon._solve_layers(rhs2, chain, data, dom)
    assert getattr(want.value, "field_name", None) == field_name
    assert getattr(got.value, "field_name", None) == field_name
    assert got.value.site == want.value.site
    assert str(got.value) == str(want.value)


def test_top_layer_not_solved_for_the_tower():
    # layer 1 of a one-step chain blows up under _BIG_B: the full solve stops
    # there, the solve without the top layer keeps the bits of layer 0 and theta
    chain, dom = [BacklundParam(1.0, 0.5)], LatticeDomain2.from_k(1.0, 3)
    with pytest.raises(BlowUpError, match="field 'a'"):
        sinegordon._solve_layers(_BIG_B, chain, demo_data(), dom)
    sol = sinegordon._solve_layers(_BIG_B, chain, demo_data(), dom, top=False)
    ref = sinegordon._solve_layers(hirota_system(), chain, demo_data(), dom)
    assert sol.layers == 1 and len(sol.a) == len(sol.b) == 1
    for got, want in ((sol.a[0], ref.a[0]), (sol.b[0], ref.b[0]), (sol.theta[0], ref.theta[0])):
        assert np.array_equal(got, want)
    assert sol.cross == ref.cross


def test_layered_solve_sized_before_allocation(monkeypatch, planned):
    # n = 8, two steps: the plan counts at least arrays of 8 (n+1)^2 bytes,
    # two for each of three field layers and one for each of two theta
    # layers; it admits the solve at its figure and refuses it one byte
    # less, before the data are sampled
    dom, rhs6 = LatticeDomain2.from_k(1.0, 3), hirota_backlund_system(1.0)
    need = planned(lambda: solve_goursat_3d(rhs6, demo_data(), [0.5, -0.25], dom))
    assert need >= 81 * 8 * (2 * 3 + 2)
    monkeypatch.setattr(goursat, "_available_bytes", lambda: need)
    assert solve_goursat_3d(rhs6, demo_data(), [0.5, -0.25], dom).layers == 2

    def never(*args):
        raise AssertionError("sampled or solved beyond memory")

    monkeypatch.setattr(goursat, "_available_bytes", lambda: need - 1)
    monkeypatch.setattr(sinegordon, "_sweep", never)
    with pytest.raises(ValueError, match=f"a layered solve on n = 8 steps needs {need} bytes "
                                         f"for 3 field and 2 theta layers, more than the "
                                         f"{need - 1} bytes of available memory"):
        solve_goursat_3d(rhs6, GoursatData2(never, never), [0.5, -0.25], dom)


def test_empty_chain_admitted_where_one_lattice_is(monkeypatch, planned):
    # an empty chain is one lattice, sized by the one-layer solve's plan; a
    # chain of one step is a layered solve, which that plan does not admit
    dom = LatticeDomain2.from_k(1.0, 6)
    need = planned(lambda: solve_goursat_2d(hirota_system(), demo_data(), dom))
    monkeypatch.setattr(goursat, "_available_bytes", lambda: need)
    one = solve_goursat_2d(hirota_system(), demo_data(), dom)
    for sol in (solve_backlund_chain(demo_data(), dom, []),
                solve_goursat_3d(hirota_backlund_system(1.0), demo_data(), [], dom)):
        assert sol.layers == 0 and sol.cross == []
        assert np.array_equal(sol.a[0], one.a) and np.array_equal(sol.b[0], one.b)
    with pytest.raises(ValueError, match="a layered solve on n = 64 steps needs"):
        solve_backlund_chain(demo_data(), dom, [(1.0, 0.5)])
    monkeypatch.setattr(goursat, "_available_bytes", lambda: need - 1)
    with pytest.raises(ValueError, match=f"a lattice of n = 64 steps needs {need} bytes for its "
                                         f"two fields"):
        solve_backlund_chain(demo_data(), dom, [])


def test_theta0_limit_is_capped_at_eps_one_quarter():
    # an uncapped bound eps * 2^-30 let 2^22 less one ulp through at eps = 1/2,
    # and its rounding alone then failed the theta cross check (1.4e-9); eps *
    # 2^-35 would admit 2^17 less one ulp.  Both are refused by name: the limit
    # 2^16 is the one of eps = 1/4
    rhs6, dom = hirota_backlund_system(1.0), LatticeDomain2.from_k(1.0, 1)
    with pytest.raises(ValueError, match=r"theta0 = 4194303\.9999999995 is too large for eps = 0\.5"):
        solve_goursat_3d(rhs6, demo_data(), [np.nextafter(2.0**22, 0.0)], dom)
    with pytest.raises(ValueError, match=r"theta0 = 131071\.99999999999 is too large for eps = 0\.5"):
        solve_goursat_3d(rhs6, demo_data(), [np.nextafter(2.0**17, 0.0)], dom)
    below = np.nextafter(2.0**16, 0.0)
    sol = solve_goursat_3d(rhs6, demo_data(), [below, -below], dom)
    assert sol.cross_residual <= COMPAT_TOL


def test_theta0_limit_scales_with_alpha():
    # the limit is min(eps, 1/4) * min(1, alpha, 1/alpha)^2 * 2^-35: at eps =
    # 1/8 and alpha = 2 or 1/2 it sits at |theta0| = 2^13, at alpha = 1 at 2^15
    dom, theta0 = LatticeDomain2.from_k(1.0, 3), np.nextafter(2.0**15, 0.0)
    for alpha in (2.0, 0.5):
        rhs6 = hirota_backlund_system(alpha)
        with pytest.raises(ValueError, match=r"theta0 = 32767\.999999999996 is too large for "
                                             r"eps = 0\.125: its float spacing 3\.64e-12 exceeds "
                                             r"9\.09e-13 = min\(eps, 1/4\)"):
            solve_goursat_3d(rhs6, demo_data(), [theta0], dom)
        below = np.nextafter(2.0**13, 0.0)
        sol = solve_goursat_3d(rhs6, demo_data(), [below, -below], dom)
        assert sol.cross_residual <= COMPAT_TOL
    sol = solve_goursat_3d(hirota_backlund_system(1.0), demo_data(), [theta0], dom)
    assert sol.cross_residual <= COMPAT_TOL  # alpha = 1 keeps its limit


@given(st.integers(1, 4), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       st.floats(1.0, 2.0, exclude_max=True), st.sampled_from([1.0, -1.0]))
@settings(max_examples=300, deadline=None)
# draws whose theta check failed (up to 17.8 COMPAT_TOL) under the bound's former 2^-30
@example(k=2, t=0.9509013163564443, frac=1.8825687413151768, sign=-1.0)
@example(k=1, t=9.999999999999424e-05, frac=1.5322703248541276, sign=-1.0)
@example(k=1, t=0.9469059525969771, frac=1.6293710791580667, sign=-1.0)
@example(k=2, t=0.00010000000000002096, frac=1.427046699047279, sign=-1.0)
def test_theta0_near_its_bound_across_alpha(k, t, frac, sign):
    # alpha log-uniform over the admissible range eps/2 < alpha < 2/eps, theta0
    # in the binade whose float spacing lies in (bound/2, bound]: the solve
    # returns or refuses theta0 by name, and its theta check never fails
    eps = 2.0**-k
    alpha = math.exp(math.log(eps / 2.0) + t * (math.log(2.0 / eps) - math.log(eps / 2.0)))
    assume(eps < Rhs3(hirota_system(), alpha).eps0)  # exp may round onto the limit
    bound = min(eps, 0.25) * min(1.0, alpha, 1.0 / alpha) ** 2 * 2.0**-35
    theta0 = sign * frac * 2.0 ** (math.frexp(bound)[1] + 51)  # spacing 2^(e-1) <= bound = m 2^e
    assert bound / 2 < math.ulp(theta0) <= bound
    try:
        sol = solve_goursat_3d(hirota_backlund_system(alpha), demo_data(), [theta0],
                               LatticeDomain2.from_k(1.0, k))
    except ValueError as exc:
        assert re.match(r"theta0 = .* is too large for eps", str(exc))
        return
    assert sol.cross_residual <= COMPAT_TOL


@pytest.mark.parametrize("k, corners", [
    (1, ("0x1.8a1e6096e0166p+6", "-0x1.80cc2dd95741ap+6")),
    (3, ("0x1.8bddeec58863ep+6", "-0x1.82b8c4f13d40fp+6")),
    (6, ("0x1.8c5c9fcb08099p+6", "-0x1.83304d61ff0b6p+6")),
])
def test_theta0_of_size_100_keeps_its_bits(k, corners):
    # theta(1, 1) of each layer, as solved before the limit was capped
    sol = solve_goursat_3d(hirota_backlund_system(1.0), demo_data(), [100.0, -100.0],
                           LatticeDomain2.from_k(1.0, k))
    assert tuple(th[-1, -1].hex() for th in sol.theta) == corners


@pytest.mark.parametrize("samples", [np.ones((2, 2)), np.empty(0)], ids=["pairs", "empty_1d"])
def test_compatibility_check_refuses_samples_that_are_not_triples(monkeypatch, samples):
    # refused by shape before any tile runs; an IndexError came from a band before
    monkeypatch.setattr(sinegordon, "_bands", lambda *args: pytest.fail("a tile ran"))
    with pytest.raises(ValueError, match=re.escape(f"samples of shape {samples.shape} are not "
                                                   f"(a, b, theta) triples")):
        check_compatibility_3d(hirota_backlund_system(1.0), samples, 0.125)


def test_compatibility_check_memory_is_bounded(monkeypatch):
    # the closure identities run in tiles of samples: 8 times the samples take
    # at most 1.5 times the traced peak.  On one core, since on more the peak
    # is that of whichever tiles happen to overlap in time: measured 1.14 MB
    # at both sizes (0.9-1.6 and 2.2 MB on 2 cores; 3.4 and 25.6 MB in one band)
    monkeypatch.setattr(goursat, "_cores", lambda: 1)
    rhs6, peaks = hirota_backlund_system(1.0), []
    for m in (25_000, 200_000):
        samples = RNG.uniform(-3.0, 3.0, size=(m, 3))
        tracemalloc.start()
        try:
            check_compatibility_3d(rhs6, samples, 2.0**-3)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0]


def test_compatibility_check_refuses_samples_beyond_memory(monkeypatch, planned):
    # the temporaries of the closure identities of the tiles that run at
    # once, 10 samples in one tile: admitted at the plan, refused one byte less
    rhs6, samples = hirota_backlund_system(1.0), np.zeros((10, 3))
    need = planned(lambda: check_compatibility_3d(rhs6, samples, 0.125))
    monkeypatch.setattr(goursat, "_available_bytes", lambda: need - 1)
    with pytest.raises(ValueError, match=f"a check of 10 samples needs {need} bytes for the "
                                         f"temporaries of its closure identities"):
        check_compatibility_3d(rhs6, samples, 0.125)
    monkeypatch.setattr(goursat, "_available_bytes", lambda: need)
    assert check_compatibility_3d(rhs6, samples, 0.125) <= COMPAT_TOL


def test_backlund_param():
    p = BacklundParam(1.5, 0.25)
    assert p.alpha == 1.5 and p.theta0 == 0.25
    with pytest.raises(ValueError):
        BacklundParam(0.0, 0.25)
    with pytest.raises(ValueError):
        BacklundParam(-1.0, 0.0)
    for bad in (np.inf, np.nan):  # the rule of Rhs3 and backlund_system
        with pytest.raises(ValueError, match=f"alpha must be finite and > 0, got {bad}"):
            BacklundParam(bad, 0.25)
        with pytest.raises(ValueError, match=f"alpha must be finite and > 0, got {bad}"):
            Rhs3(hirota_system(), bad)


def test_load_backlund_chain(tmp_path):
    path = tmp_path / "chain.txt"
    path.write_text("# comment\n1.0 0.5\n\n2.0 -0.25\n")
    chain = load_backlund_chain(path)
    assert chain == [BacklundParam(1.0, 0.5), BacklundParam(2.0, -0.25)]
    path.write_text("1.0 0.5 9\n")
    with pytest.raises(ValueError, match="alpha theta0"):
        load_backlund_chain(path)
    # a bad number or parameter names the file and line
    path.write_text("# chain\n1.0 abc\n")
    with pytest.raises(ValueError, match=r"chain\.txt:2: could not convert string to float: 'abc'"):
        load_backlund_chain(path)
    # alpha follows the one rule of BacklundParam and Rhs3: finite and > 0
    for bad in ("-2", "inf", "nan"):
        path.write_text(f"1.0 0.5\n{bad} 0.1\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:2: alpha must be finite and > 0, "
                                             rf"got {float(bad)}$"):
            load_backlund_chain(path)


# ---------------------------------------------------------------------------
# differential property over random chains and data


@st.composite
def _layered_case(draw):
    """k, a chain of 0-3 steps and a member of the demo data family."""
    k = draw(st.integers(1, 5))
    chain = draw(st.lists(st.builds(BacklundParam, st.floats(0.25, 4.0), st.floats(-1.0, 1.0)),
                          max_size=3))
    amp_a, amp_b = draw(st.floats(0.9, 1.1)), draw(st.floats(0.9, 1.1))
    ph_a, ph_b = draw(st.floats(-0.1, 0.1)), draw(st.floats(-0.1, 0.1))
    data = GoursatData2(lambda x: amp_a * np.cos(2.0 * x + ph_a),
                        lambda y: 1.0 + amp_b * np.sin(y + ph_b))
    return LatticeDomain2.from_k(1.0, k), chain, data


def _same_error(got, want):
    assert type(got) is type(want)
    assert getattr(got, "field_name", None) == getattr(want, "field_name", None)
    assert getattr(got, "site", None) == getattr(want, "site", None)
    assert str(got) == str(want)


@given(_layered_case())
@settings(max_examples=200, deadline=None)
def test_stacked_layers_match_layer_by_layer_on_random_chains(case):
    # the stacked solve, with and without the top layer, keeps the bits of the
    # layers solved one after another, or raises the error they raise first
    dom, chain, data = case
    if any(dom.eps >= Rhs3(hirota_system(), p.alpha).eps0 for p in chain):
        with pytest.raises(ValueError, match="not admissible"):
            sinegordon._solve_layers(hirota_system(), chain, data, dom)
        return
    try:
        with np.errstate(all="ignore"):  # the reference warns of what it reports
            want = layer_by_layer(hirota_system(), chain, data, dom)
    except (BlowUpError, CompatibilityError) as exc:
        with pytest.raises(type(exc)) as got:
            sinegordon._solve_layers(hirota_system(), chain, data, dom)
        _same_error(got.value, exc)
        return
    for top in (True, False):
        got = sinegordon._solve_layers(hirota_system(), chain, data, dom, top=top)
        solved = len(chain) + 1 if top else max(len(chain), 1)
        assert len(got.a) == len(got.b) == solved and len(got.theta) == len(chain)
        for name in ("a", "b", "theta"):
            assert all(np.array_equal(x.view(np.int64), y.view(np.int64))
                       for x, y in zip(getattr(got, name), getattr(want, name)))
        assert got.cross == want.cross


@given(_layered_case(), st.floats(0.25, 4.0))
@settings(max_examples=60, deadline=None)
def test_nd_solver_matches_layered_solve_on_random_chains(case, alpha):
    # criterion 09's bound, for a chain of constant alpha
    dom, chain, data = case
    theta0 = [p.theta0 for p in chain] or [0.0]
    if dom.eps >= hirota_backlund_system(alpha).eps0:
        return
    ref = solve_goursat_3d(hirota_backlund_system(alpha), data, theta0, dom)
    got = solve_goursat_nd(sine_gordon_3d_spec(alpha, dom.eps),
                           [lambda x, y, z: data.a0(x), lambda x, y, z: data.b0(y),
                            lambda x, y, z: theta0[int(round(z))]],
                           (1.0, 1.0, float(len(theta0))))
    for z in range(len(theta0) + 1):
        assert np.abs(got.fields[0][:, :, z] - ref.a[z]).max() <= 1e-13
        assert np.abs(got.fields[1][:, :, z] - ref.b[z]).max() <= 1e-13
    for z in range(len(theta0)):
        assert np.abs(got.fields[2][:, :, z] - ref.theta[z]).max() <= 1e-13
    assert got.alt_residual <= 1e-13
