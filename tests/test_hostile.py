"""Hostile inputs end in a named error or in a result that passes the gate.

One property draws NaN and infinite Goursat data, steps eps and Backlund
parameters alpha at their admissibility limits, lambda across six decades,
theta0 up to 1e300, NaN and infinite phi00 and lattices of n = 1 and 2
steps, and runs the entry points that take such inputs.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ksurf.frames import ZeroCurvatureError, zero_curvature_residual
from ksurf.goursat import BlowUpError, CompatibilityError, GoursatData2, LatticeDomain2
from ksurf.goursat import solve_goursat_2d
from ksurf.sinegordon import (SchemeKind, backlund_system, check_compatibility_3d,
                              hirota_system, naive_system, reconstruct_phi)
from ksurf.surfaces import backlund_step_norms, backlund_surface, validate_k_surface

NAMED = (ValueError, BlowUpError, CompatibilityError, ZeroCurvatureError)
# the Hirota limit 2, one ulp inside it, steps well inside it, and the smallest
# steps (4/eps^2 and then 2/eps overflow)
STEPS = st.sampled_from([2.0, math.nextafter(2.0, 0.0), 1.0, 0.5, 0.25, 2.0**-20, 1e-308,
                         5e-324])


@st.composite
def hostile(draw):
    n, eps = draw(st.sampled_from([1, 2])), draw(STEPS)
    # the Backlund step needs eps/2 < alpha < 2/eps: both limits, one ulp inside each
    alpha = draw(st.one_of(st.sampled_from([eps / 2, math.nextafter(eps / 2, math.inf), 2 / eps,
                                            math.nextafter(2 / eps, 0.0)]),
                           st.floats(0.25, 4.0), st.floats(1e-3, 1e3)))
    a0, b0 = (draw(st.lists(st.floats(-4.0, 4.0), min_size=n, max_size=n)) for _ in "ab")
    bad = draw(st.one_of(st.none(), st.sampled_from([math.nan, math.inf, -math.inf])))
    if bad is not None:  # about half the draws carry one non-finite sample
        draw(st.sampled_from([a0, b0]))[draw(st.integers(0, n - 1))] = bad
    theta0 = draw(st.one_of(st.floats(-4.0, 4.0), st.floats(-1e300, 1e300),
                            st.sampled_from([math.nan, math.inf])))
    lam = draw(st.floats(1e-3, 1e3))
    phi00 = draw(st.one_of(st.floats(-4.0, 4.0),
                           st.sampled_from([math.nan, math.inf, -math.inf])))
    return n, eps, alpha, a0, b0, lam, theta0, phi00


def _named(call):
    """call(), or None when it raised one of the named errors."""
    try:
        return call()
    except NAMED:
        return None


@given(hostile())
@settings(max_examples=400, deadline=None)
# eps one ulp inside the limit: the four angles at the vertex sum to 2 pi - 4.28
@example((2, math.nextafter(2.0, 0.0), math.nextafter(1.0, 0.0), [0.0, 0.0], [1.0, 0.0], 1.0,
          0.0, 1.0))
def test_hostile_inputs_end_in_a_named_error_or_pass_the_gate(case):
    n, eps, alpha, a0, b0, lam, theta0, phi00 = case
    dom, data = LatticeDomain2(n * eps, eps), GoursatData2(a0, b0)
    finite = np.isfinite([a0, b0]).all()
    hirota, naive = (_named(lambda: solve_goursat_2d(rhs, data, dom))
                     for rhs in (hirota_system(), naive_system()))
    for sol in (hirota, naive):
        assert sol is None or (np.isfinite(sol.a).all() and np.isfinite(sol.b).all())
    zcc = hirota and _named(lambda: zero_curvature_residual(hirota, lam))
    assert zcc is None or zcc[0] <= 1e-12  # criterion 05
    for sol, scheme in ((hirota, SchemeKind.HIROTA), (naive, SchemeKind.NAIVE)):
        try:
            phi = sol and reconstruct_phi(sol, phi00, scheme)
        except ValueError as exc:  # a non-finite phi00, or a naive one other than b(0, 0)
            assert "phi00" in str(exc)
        else:
            assert phi is None or (math.isfinite(phi00) and np.isfinite(phi.phi).all())

    tower = _named(lambda: backlund_surface(data, dom, [(alpha, theta0)], lam))
    if tower is not None:  # criterion 07: every point moves by the same distance
        assert all(np.isfinite(m.points).all() for m in tower)
        norms = backlund_step_norms(*tower)
        step = 2.0 * lam * alpha / (alpha * alpha + lam * lam)
        assert abs(norms.mean() - step) <= 1e-9 * step and norms.std() <= 1e-9 * step

    base = hirota and _named(lambda: backlund_surface(data, dom, [], lam)[0])
    if base is not None:
        rep = validate_k_surface(base, reconstruct_phi(hirota, b0[0], SchemeKind.HIROTA))
        assert np.isfinite([rep.edge, rep.planarity, rep.angle, rep.angle_sum]).all()
        # criterion 06's bound, for lambda within two decades of 1: an x-edge,
        # eps lam long at small eps, is a difference of points about eps/lam in
        # size, so its relative roundoff grows like lam^-2 (1.1e-9 at lam = 1e-3,
        # eps = 2^-20), and like lam^2 for the y-edges.  The corner angles sum
        # to 2 pi only where the vertex star winds once, which a lattice this
        # coarse need not do (the example above)
        if 1e-2 <= lam <= 1e2:
            assert max(rep.edge, rep.planarity, rep.angle) <= 1e-9

    samples = np.column_stack([a0, b0, [theta0] * n])
    for scheme in SchemeKind:
        rhs6 = _named(lambda: backlund_system(alpha, scheme))
        defect = rhs6 and _named(lambda: check_compatibility_3d(rhs6, samples, eps))
        if defect is None:
            continue
        # a non-finite sample makes the defect nan, as documented; criterion 04's
        # bound holds in its box [-4, 4]^3 at eps <= eps0/2.  Beyond that the
        # closure identities lose precision: 0.47 at eps = 2 - 1 ulp, alpha = 1
        # and sample (0, 0, 1), 1.4e-11 at theta = 47432 (eps = 1, alpha = 1.09)
        assert math.isnan(defect) == (not (finite and math.isfinite(theta0)))
        if (scheme is SchemeKind.HIROTA and finite and abs(theta0) <= 4.0
                and eps <= rhs6.eps0 / 2):
            assert defect <= 1e-11
