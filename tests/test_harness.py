"""Tests for the convergence sweep harness."""

import math
import tracemalloc

import numpy as np
import pytest

from ksurf import goursat, harness
from ksurf.goursat import GoursatData2, delta_x, delta_y
from ksurf.harness import (
    ConvergenceReport,
    SweepConfig,
    demo_data,
    emit_report,
    fit_slope,
    load_report,
    run_sweep,
    zero_data,
)
from ksurf.sinegordon import SchemeKind, reconstruct_phi
from oracles import full_reference_fields_sweep


def test_demo_and_zero_data():
    from ksurf.goursat import LatticeDomain2

    dom = LatticeDomain2(1.0, 0.25)
    a0, b0 = demo_data().sample(dom)
    xs = np.arange(4) * 0.25
    assert np.allclose(a0, np.cos(2.0 * xs))
    assert np.allclose(b0, 1.0 + np.sin(xs))
    z0, z1 = zero_data().sample(dom)
    assert not z0.any() and not z1.any()


def test_sweep_config_normalizes_quotients():
    cfg = SweepConfig(quantity="quotients_order_3")
    assert cfg.quantity == "quotients"
    assert cfg.quotient_order == 3
    assert SweepConfig(quantity="quotients").quotient_order == 2  # default
    # the quantity name is the only way to set the order
    with pytest.raises(TypeError, match="quotient_order"):
        SweepConfig(quantity="quotients", quotient_order=3)


def test_sweep_config_validation():
    with pytest.raises(ValueError, match="quantity"):
        SweepConfig(quantity="victory")
    with pytest.raises(ValueError, match="k_min"):
        SweepConfig(k_min=0)
    with pytest.raises(ValueError, match="k_min"):
        SweepConfig(k_min=7, k_max=6)
    for k_min, k_max in ((1, 1), (1, 2), (5, 6)):  # no slope through fewer than 3 levels
        with pytest.raises(ValueError, match="fewer than the 3 levels"):
            SweepConfig(k_min=k_min, k_max=k_max, k_ref=k_max + 2)
    assert SweepConfig(k_min=1, k_max=3, k_ref=5).k_max == 3
    with pytest.raises(ValueError, match="k_ref"):
        SweepConfig(k_min=4, k_max=6, k_ref=7)  # reference too close
    for r in (0.0, -1.0, math.nan, math.inf):  # refused before LatticeDomain2 sees it
        with pytest.raises(ValueError, match=f"r must be positive and finite, got {r}"):
            SweepConfig(r=r)
    with pytest.raises(ValueError, match="lambda"):
        SweepConfig(lam=-1.0)
    with pytest.raises(ValueError, match="quotient_order"):
        SweepConfig(quantity="quotients_order_0")
    with pytest.raises(ValueError, match="quotient_order"):
        SweepConfig(quantity="quotients_order_x")
    # order m needs more than m steps on the coarsest level, r 2^k_min of them
    for r, k_min in ((1.0, 1), (1.0, 2), (0.5, 2), (1.5, 1)):
        for m in range(1, 5):
            q = f"quotients_order_{m}"
            if r * 2**k_min <= m:
                with pytest.raises(ValueError, match=f"quotient order {m} needs more than {m} "
                                                     f"steps per axis, but k_min = {k_min}"):
                    SweepConfig(r=r, k_min=k_min, k_max=k_min + 2, quantity=q)
            else:
                assert SweepConfig(r=r, k_min=k_min, k_max=k_min + 2, quantity=q).k_min == k_min
    # a chain is read by surface_bt only; any other quantity refuses it
    for q in ("fields_ab", "phi", "surface", "quotients_order_2"):
        with pytest.raises(ValueError, match="bt_chain"):
            SweepConfig(quantity=q, bt_chain=((1.0, 0.5),))


def test_fit_slope_exact_power_laws():
    eps = [2.0**-k for k in range(4, 9)]
    rows1 = [(e, 3.0 * e) for e in eps]
    slope, intercept = fit_slope(rows1)
    assert slope == pytest.approx(1.0, abs=1e-12)
    assert intercept == pytest.approx(math.log(3.0), abs=1e-12)
    rows2 = [(e, 0.5 * e * e) for e in eps]
    slope2, _ = fit_slope(rows2)
    assert slope2 == pytest.approx(2.0, abs=1e-12)


def test_fit_slope_validation():
    with pytest.raises(ValueError, match="3 rows"):
        fit_slope([(0.5, 0.1), (0.25, 0.05)])
    with pytest.raises(ValueError, match="positive"):
        fit_slope([(0.5, 0.1), (0.25, 0.0), (0.125, 0.01)])
    # a non-finite eps or error is refused by name, not fitted to a nan slope
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"got error = {bad}"):
            fit_slope([(0.5, bad), (0.25, 1.0), (0.125, 0.5)])
        with pytest.raises(ValueError, match=f"got eps = {bad}"):
            fit_slope([(bad, 0.1), (0.25, 1.0), (0.125, 0.5)])


def test_run_sweep_fields():
    cfg = SweepConfig(k_min=4, k_max=6, k_ref=9)
    rep = run_sweep(cfg, demo_data())
    assert rep.quantity == "fields_ab"
    assert [e for e, _ in rep.rows] == [2.0**-4, 2.0**-5, 2.0**-6]
    errs = [err for _, err in rep.rows]
    assert all(e0 > e1 for e0, e1 in zip(errs, errs[1:]))
    assert 0.8 <= rep.slope <= 1.2  # measured 1.069
    assert not rep.degenerate
    assert sorted(rep.families) == ["a", "b"]
    for idx, (_, err) in enumerate(rep.rows):
        assert err == max(rep.families["a"][idx], rep.families["b"][idx])


def test_run_sweep_phi():
    cfg = SweepConfig(k_min=4, k_max=6, k_ref=9, quantity="phi")
    rep = run_sweep(cfg, demo_data())
    assert 0.8 <= rep.slope <= 1.2  # measured 1.000
    assert sorted(rep.families) == ["phi"]


def test_run_sweep_quotients():
    cfg = SweepConfig(k_min=4, k_max=6, k_ref=9, quantity="quotients_order_1")
    rep = run_sweep(cfg, demo_data())
    assert sorted(rep.families) == [
        "a_dx0dy1",
        "a_dx1dy0",
        "b_dx0dy1",
        "b_dx1dy0",
    ]
    assert 0.8 <= rep.slope <= 1.2  # measured 1.071
    # every family individually decreases monotonically
    for vals in rep.families.values():
        assert all(v0 > v1 for v0, v1 in zip(vals, vals[1:]))


def test_run_sweep_surfaces():
    cfg = SweepConfig(k_min=4, k_max=6, k_ref=9, quantity="surface")
    rep = run_sweep(cfg, demo_data())
    assert 0.8 <= rep.slope <= 1.2  # measured 1.073
    cfg_bt = SweepConfig(
        k_min=4, k_max=6, k_ref=9, quantity="surface_bt", bt_chain=((1.0, 0.5),)
    )
    rep_bt = run_sweep(cfg_bt, demo_data())
    assert 0.8 <= rep_bt.slope <= 1.2  # measured 1.057


# tracemalloc peak of run_sweep(quotients_order_2) at k = 4..6 against
# k_ref = 9 before the sweep became one loop over per-lattice generators:
# the reference fields, every level's fields and one quotient at a time
QUOTIENT_SWEEP_PEAK_B = 8_617_414


def test_quotient_sweep_memory():
    # the reference quotients are formed at the k_max sites only (measured
    # 4.8 MB); formed on the whole reference lattice and held all at once,
    # the ten of them would more than double the peak
    cfg = SweepConfig(k_min=4, k_max=6, k_ref=9, quantity="quotients_order_2")
    data = demo_data()
    run_sweep(cfg, data)  # warm caches outside the measurement
    tracemalloc.start()
    try:
        rep = run_sweep(cfg, data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rep.families) == 10
    assert peak <= 1.10 * QUOTIENT_SWEEP_PEAK_B


@pytest.mark.parametrize("scheme", [SchemeKind.HIROTA, SchemeKind.NAIVE])
def test_fields_sweep_matches_full_reference(scheme):
    # keeping only the k_max sites of the reference changes no bit of the
    # report: the levels are compared at exactly those sites
    cfg = SweepConfig(k_min=5, k_max=8, k_ref=10, scheme=scheme)
    rep = run_sweep(cfg, demo_data())
    rows, (slope, intercept), families = full_reference_fields_sweep(cfg, demo_data())
    assert rep.rows == rows
    assert (rep.slope, rep.intercept) == (slope, intercept)
    assert rep.families == families


def test_fields_sweep_holds_one_level_at_a_time(monkeypatch):
    # the reference keeps only the k_max sites, and each level is dropped once
    # measured: when a level's solve starts only the kept reference is held
    # (the lower levels held as well would add up to 88 KB), and the peak is
    # the kept reference, the k_max level and one comparison's temporaries
    # (measured 0.80 MB; 17.4 MB with the whole reference and every level held)
    cfg, data = SweepConfig(k_min=4, k_max=7, k_ref=10), demo_data()
    held, solve = [], harness._solve_one

    def recording(rhs, data, dom, every):
        held.append((dom.n, tracemalloc.get_traced_memory()[0]))
        return solve(rhs, data, dom, every)

    monkeypatch.setattr(harness, "_solve_one", recording)  # the reference
    monkeypatch.setattr(goursat, "_solve_one", recording)  # the levels, in solve_goursat_2d
    run_sweep(cfg, data)  # warm caches outside the measurement
    held.clear()
    tracemalloc.start()
    try:
        run_sweep(cfg, data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    kept = 2 * 128 * 129 * 8  # the two reference fields at the k_max sites
    assert [n for n, _ in held] == [1024, 16, 32, 64, 128]
    assert all(current <= kept + 16e3 for _, current in held[1:])
    assert peak <= 3 * kept + 0.25e6


@pytest.mark.parametrize("every", [1, 2, 4, 8])
def test_quotient_at_kept_sites_is_bitwise(every):
    # each kept site's quotient comes from its own stencil by the operations
    # delta_x and delta_y apply to the whole array; a kept array owns its
    # data, so the reference lattice it was cut from can be freed
    p = np.random.default_rng(every).normal(size=(17, 18))
    for kx in range(4):
        for ky in range(4 - kx):
            full = p
            for _ in range(kx):
                full = delta_x(full, 0.125)
            for _ in range(ky):
                full = delta_y(full, 0.125)
            got = harness._quotient(p, kx, ky, 0.125, every)
            assert np.array_equal(got, full[::every, ::every])
            assert every == 1 or got.base is None
    points = np.random.default_rng(every).normal(size=(17, 17, 3))  # a mesh at n = 16
    got = harness._quotient(points, 0, 0, 0.125, every)  # the cut of a surface reference
    assert np.array_equal(got, points[::every, ::every])
    assert (got is points) if every == 1 else (got.base is None)


def test_run_sweep_surface_rejects_naive():
    # refused by the config, before anything is solved
    for q in ("surface", "surface_bt"):
        with pytest.raises(ValueError, match="Hirota"):
            SweepConfig(k_min=4, k_max=6, k_ref=9, quantity=q, scheme=SchemeKind.NAIVE)


def jittered_data():
    """Demo data whose b0 samples move by up to 1e-9 from one sampling to the next."""
    rng, base = np.random.default_rng(12), demo_data()
    return GoursatData2(base.a0, lambda y: base.b0(y) + rng.uniform(-1e-9, 1e-9))


@pytest.mark.parametrize("scheme", [SchemeKind.NAIVE, SchemeKind.HIROTA])
def test_phi_sweep_seeds_phi00_from_the_solved_field(monkeypatch, scheme):
    # phi(0, 0) is the b0 sample the solve stored, not a second sampling of
    # the data, so the naive identification phi = b holds for any data
    seeds = []

    def recording(fields, phi00, kind):
        field = reconstruct_phi(fields, phi00, kind)
        seeds.append((field.phi[0, 0], fields.b[0, 0]))
        return field

    monkeypatch.setattr(harness, "reconstruct_phi", recording)
    cfg = SweepConfig(k_min=3, k_max=5, k_ref=7, quantity="phi", scheme=scheme)
    rep = run_sweep(cfg, jittered_data())
    assert len(rep.rows) == 3 and all(np.isfinite(err) for _, err in rep.rows)
    assert len(seeds) == 4
    for phi00, b00 in seeds:
        assert np.float64(phi00).view(np.int64) == np.float64(b00).view(np.int64)


def test_run_sweep_degenerate():
    cfg = SweepConfig(k_min=4, k_max=6, k_ref=9)
    rep = run_sweep(cfg, zero_data())
    assert rep.degenerate
    assert math.isnan(rep.slope) and math.isnan(rep.intercept)
    assert all(err <= 1e-13 for _, err in rep.rows)


def test_reference_level_insensitivity():
    # refining the reference by one level moves no error by more than 10%,
    # so k_ref = k_max + 3 is comfortably deep enough (measured <= 7.2%)
    data = demo_data()
    rep_a = run_sweep(SweepConfig(k_min=4, k_max=6, k_ref=9), data)
    rep_b = run_sweep(SweepConfig(k_min=4, k_max=6, k_ref=10), data)
    for (_, ea), (_, eb) in zip(rep_a.rows, rep_b.rows):
        assert abs(ea - eb) / eb <= 0.10


def test_larger_domain_larger_error():
    # same eps, bigger square: errors grow with the domain (the constant in
    # the O(eps) bound depends on r)
    data = demo_data()
    rep1 = run_sweep(SweepConfig(r=1.0, k_min=4, k_max=6, k_ref=8), data)
    rep2 = run_sweep(SweepConfig(r=2.0, k_min=5, k_max=7, k_ref=9), data)
    err1 = dict(rep1.rows)
    err2 = dict(rep2.rows)
    for eps in (2.0**-5, 2.0**-6):
        assert err2[eps] > err1[eps]


def test_emit_load_roundtrip(tmp_path):
    rows = [(0.25, 0.1), (0.125, 0.05), (0.0625, 0.024)]
    slope, intercept = fit_slope(rows)
    rep = ConvergenceReport("fields_ab", rows, slope, intercept, False)
    path = tmp_path / "report.csv"
    emit_report(rep, path)
    back = load_report(path)
    assert back.rows == rows  # 17g round trip
    assert back.slope == slope and back.intercept == intercept
    assert not back.degenerate


def test_emit_load_degenerate(tmp_path):
    rep = ConvergenceReport("fields_ab", [(0.25, 0.0)], math.nan, math.nan, True)
    path = tmp_path / "deg.csv"
    emit_report(rep, path)
    text = path.read_text()
    assert "# degenerate=true" in text
    back = load_report(path)
    assert back.degenerate and math.isnan(back.slope)


def test_emit_load_errors(tmp_path):
    with pytest.raises(ValueError, match="empty"):
        emit_report(ConvergenceReport("x", [], 0.0, 0.0, False), tmp_path / "e.csv")
    bad = tmp_path / "bad.csv"
    bad.write_text("nope\n")
    with pytest.raises(ValueError, match="header"):
        load_report(bad)
    for row in ("0.5,0.1,3", "0.5,x"):
        bad.write_text(f"epsilon,error\n0.25,0.1\n\n{row}\n")
        with pytest.raises(ValueError, match=f"bad.csv:4: expected 'epsilon,error', got '{row}'"):
            load_report(bad)
