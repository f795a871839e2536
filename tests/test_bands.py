"""The residual checks run in bands (goursat._bands): the same bits on any
number of cores, the lowest band's error, no thread or warning left over."""

import os
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest

from ksurf import goursat, sinegordon
from ksurf.goursat import CompatibilityError, EdgeField2, LatticeDomain2, _bands
from ksurf.harness import demo_data
from ksurf.sinegordon import (
    BacklundParam,
    SchemeKind,
    backlund_system,
    check_compatibility_3d,
    hirota_system,
    reconstruct_phi,
)
from ksurf.surfaces import _tower, solve_backlund_chain, validate_k_surface
from test_sinegordon import LAYER_ERRORS
from test_surfaces import MIXED_CHAIN

FLOOR = goursat._BAND_FLOOR
SAMPLES = np.random.default_rng(19).uniform(-3.0, 3.0, size=(25_000, 3))


@pytest.fixture(params=[FLOOR, 7], ids=["floor", "floor7"])
def on_cores(request, monkeypatch):
    """on_cores(c, fn) is fn() with c cores, at the package's band floor and
    at a floor of 7 sites, which splits even the smallest inputs."""
    monkeypatch.setattr(goursat, "_BAND_FLOOR", request.param)

    def call(cores, fn):
        monkeypatch.setattr(goursat, "_cores", lambda: cores)
        return fn()

    return call


def _bits(x):
    """The bits of a float array: equal exactly when == holds and NaNs match."""
    return np.asarray(x, dtype=float).view(np.int64).tobytes()


def _same_on_every_core_count(on_cores, fn, digest):
    want = digest(on_cores(1, fn))
    for cores in (2, 3):
        assert digest(on_cores(cores, fn)) == want, cores


@pytest.mark.parametrize("m", [1, FLOOR - 1, FLOOR, 2 * FLOOR + 1, 25_000])
@pytest.mark.parametrize("scheme", list(SchemeKind))
def test_compatibility_bits_do_not_depend_on_bands(on_cores, scheme, m):
    for alpha in (0.5, 1.0, 2.0):
        for eps in (2.0**-3, 2.0**-6):
            rhs6 = backlund_system(alpha, scheme)
            _same_on_every_core_count(
                on_cores, lambda: check_compatibility_3d(rhs6, SAMPLES[:m], eps), _bits)


@pytest.mark.parametrize("scheme", list(SchemeKind))
def test_compatibility_of_zero_samples_is_zero(on_cores, scheme):
    # an empty batch has no defect, as check_identity's; a NaN defect stays NaN
    rhs6 = backlund_system(1.0, scheme)
    for cores in (1, 2, 3):
        assert on_cores(cores, lambda: check_compatibility_3d(rhs6, SAMPLES[:0], 2.0**-3)) == 0.0
        nan = SAMPLES[:9].copy()
        nan[4, 1] = np.nan
        assert np.isnan(on_cores(cores, lambda: check_compatibility_3d(rhs6, nan, 2.0**-3)))


def test_band_count_and_cuts(monkeypatch):
    # contiguous tiles cover the rows, none under the floor unless it is the only
    # one and none of 4 floors or more unless it is one row; they run in
    # contiguous runs of as many tiles each where the floor allows, run 0 in
    # the caller, on at most one thread per core, and the sites of the tiles
    # that run at once are at most the held count
    for cores in (1, 2, 3):
        monkeypatch.setattr(goursat, "_cores", lambda: cores)
        for rows, per_row, tiles in ((0, 1, (1, 1, 1)), (1, 1, (1, 1, 1)),
                                     (2 * FLOOR - 1, 1, (1, 1, 1)), (2 * FLOOR, 1, (1, 2, 2)),
                                     (3 * FLOOR, 1, (1, 2, 3)), (10 * FLOOR, 1, (5, 6, 6)),
                                     (100 * FLOOR + 7, 1, (50, 50, 51)),
                                     (3, FLOOR - 1, (1, 1, 1)), (4, FLOOR // 2, (1, 2, 2)),
                                     (1023, 1025, (127, 128, 129)), (5, 5 * FLOOR, (5, 5, 5))):
            tiles = tiles[cores - 1]
            ran = {}

            def fn(lo, hi):
                ran[lo] = threading.current_thread()  # an ident can be reused
                return lo, hi

            got = _bands(rows, per_row, fn)
            assert len(got) == tiles and got[0][0] == 0 and got[-1][1] == rows
            assert all(hi == lo for (_, hi), (lo, _) in zip(got, got[1:]))
            sites = [(hi - lo) * per_row for lo, hi in got]
            assert tiles == 1 or min(sites) >= FLOOR
            assert all(s < 4 * FLOOR or hi - lo == 1 for s, (lo, hi) in zip(sites, got))
            owners = [ran[lo] for lo, _ in got]
            runs = [owner for k, owner in enumerate(owners) if k == 0 or owner != owners[k - 1]]
            assert owners[0] is threading.current_thread() and len(runs) == len(set(runs)) <= cores
            assert tiles % len(runs) == 0 or rows // (tiles + 1) * per_row < FLOOR
            assert sum(sorted(sites)[-len(runs):]) <= goursat._tiles(rows, per_row)[2]


def _layered_digest(sol):
    return ([_bits(x) for x in sol.a], [_bits(x) for x in sol.b],
            [_bits(x) for x in sol.theta], _bits(sol.cross))


@pytest.mark.parametrize("top", [True, False])
@pytest.mark.parametrize("k", [3, 6, 8])
def test_layered_solve_bits_do_not_depend_on_bands(on_cores, k, top):
    chain, dom = [BacklundParam(*p) for p in MIXED_CHAIN], LatticeDomain2.from_k(1.0, k)
    _same_on_every_core_count(
        on_cores, lambda: sinegordon._solve_layers(hirota_system(), chain, demo_data(), dom, top),
        _layered_digest)


def _error(fn):
    with pytest.raises((goursat.BlowUpError, CompatibilityError)) as exc:
        fn()
    return type(exc.value), getattr(exc.value, "field_name", None), exc.value.site, str(exc.value)


@pytest.mark.parametrize("case", LAYER_ERRORS)
def test_layered_errors_do_not_depend_on_bands(on_cores, case):
    rhs2, chain, data, _ = LAYER_ERRORS[case]
    chain, dom = [BacklundParam(*p) for p in chain], LatticeDomain2.from_k(1.0, 3)
    _same_on_every_core_count(
        on_cores, lambda: _error(lambda: sinegordon._solve_layers(rhs2, chain, data, dom)),
        lambda err: err)


def _reports(k):
    """Every layer's report of the 3-step tower, and one of a noisy mesh."""
    dom = LatticeDomain2.from_k(1.0, k)
    chain = [BacklundParam(*p) for p in MIXED_CHAIN]
    sol = solve_backlund_chain(demo_data(), dom, chain)
    tower = _tower(EdgeField2(sol.a[0], sol.b[0], dom), 1.0, chain, sol.theta, sol.cross)
    phis = [reconstruct_phi(EdgeField2(a, b, dom), b[0, 0], SchemeKind.HIROTA)
            for a, b in zip(sol.a, sol.b)]
    noisy = tower[0].points + np.random.default_rng(k).normal(scale=1e-4, size=tower[0].points.shape)
    meshes = tower + [type(tower[0])(noisy, dom.eps, dom.r, 1.0)]
    return lambda: [validate_k_surface(m, p) for m, p in zip(meshes, phis + phis[:1])]


@pytest.mark.parametrize("k", [1, 2, 3, 6, 8])
def test_validator_bits_do_not_depend_on_bands(on_cores, k):
    fields = ("edge", "planarity", "angle", "angle_sum", "interior_sites")
    _same_on_every_core_count(on_cores, _reports(k),
                              lambda reps: [[_bits(getattr(r, f)) for f in fields] for r in reps])


def test_more_bands_than_cores_with_frequent_switches(monkeypatch):
    # 8 bands on threads that switch every microsecond write the same bits
    # into their disjoint rows as one band does
    monkeypatch.setattr(goursat, "_BAND_FLOOR", 7)
    chain, dom = [BacklundParam(*p) for p in MIXED_CHAIN], LatticeDomain2.from_k(1.0, 6)
    calls = [(lambda: check_compatibility_3d(backlund_system(1.0), SAMPLES, 2.0**-3), _bits),
             (lambda: sinegordon._solve_layers(hirota_system(), chain, demo_data(), dom),
              _layered_digest),
             (_reports(6), lambda reps: [_bits([r.edge, r.planarity, r.angle, r.angle_sum])
                                         for r in reps])]
    switch = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        for fn, digest in calls:
            monkeypatch.setattr(goursat, "_cores", lambda: 1)
            want = digest(fn())
            monkeypatch.setattr(goursat, "_cores", lambda: 8)
            assert digest(fn()) == want
    finally:
        sys.setswitchinterval(switch)


def test_nan_in_the_last_band(monkeypatch):
    # a NaN defect in the last band makes the result NaN, and a NaN theta
    # mismatch there raises the one-band CompatibilityError
    monkeypatch.setattr(goursat, "_BAND_FLOOR", 7)
    samples = SAMPLES[:100].copy()
    samples[-1, 2] = np.nan
    solved = []
    sweep = sinegordon._sweep
    monkeypatch.setattr(sinegordon, "_sweep", lambda *args: solved.append(sweep(*args)) or solved[-1])
    v = sinegordon.Rhs3.v

    def v_nan_on_the_top_row(self, b, theta, eps):  # b's top row is in the last band only
        out = v(self, b, theta, eps)
        if np.ndim(b) == 2 and np.shares_memory(b, solved[-1][1][0, -1]):
            out[-1, 3] = np.nan
        return out

    monkeypatch.setattr(sinegordon.Rhs3, "v", v_nan_on_the_top_row)
    chain, dom = [BacklundParam(1.0, 0.5)], LatticeDomain2.from_k(1.0, 4)
    errors = []
    for cores in (1, 3):
        monkeypatch.setattr(goursat, "_cores", lambda: cores)
        assert np.isnan(check_compatibility_3d(backlund_system(1.0), samples, 2.0**-3))
        errors.append(_error(lambda: sinegordon._solve_layers(hirota_system(), chain,
                                                               demo_data(), dom)))
    assert errors[0] == errors[1]
    assert errors[0][2] == (1.0, 0.25) and "mismatch nan" in errors[0][3]


def test_lowest_failing_band_is_raised(monkeypatch):
    # bands 2 and 3 of 3 fail: band 2's exception is raised, after every band ran
    monkeypatch.setattr(goursat, "_cores", lambda: 3)
    ran = []

    def fn(lo, hi):
        ran.append(lo)
        if lo:
            raise ValueError(f"band from {lo}")
        return lo

    before = threading.active_count()
    with pytest.raises(ValueError, match=f"^band from {FLOOR}$"):
        _bands(3 * FLOOR, 1, fn)
    assert sorted(ran) == [0, FLOOR, 2 * FLOOR]
    assert threading.active_count() == before


def test_bands_run_under_the_callers_errstate(monkeypatch):
    # a thread starts from numpy's default errstate; each band gets the caller's
    monkeypatch.setattr(goursat, "_cores", lambda: 3)

    def log_of_zero(lo, hi):
        return np.log(np.zeros(hi - lo))[0]

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(all="ignore"):
            assert _bands(3 * FLOOR, 1, log_of_zero) == [-np.inf] * 3
        with np.errstate(divide="raise"), pytest.raises(FloatingPointError):
            _bands(3 * FLOOR, 1, log_of_zero)


def test_no_thread_left_and_no_warning(monkeypatch):
    # on success and on error every thread is joined, and a warning that
    # numpy would raise in a band never reaches the caller
    monkeypatch.setattr(goursat, "_BAND_FLOOR", 7)
    monkeypatch.setattr(goursat, "_cores", lambda: 3)
    hostile = SAMPLES[:1000].copy()
    hostile[::7] = [1e308, -1e308, np.inf]
    dom = LatticeDomain2.from_k(1.0, 3)
    calls = [
        lambda: check_compatibility_3d(backlund_system(1.0), SAMPLES, 2.0**-6),
        lambda: check_compatibility_3d(backlund_system(1e2, SchemeKind.NAIVE), hostile, 2.0**-7),
        _reports(4),
    ] + [lambda case=case: _error(lambda: sinegordon._solve_layers(
        LAYER_ERRORS[case][0], [BacklundParam(*p) for p in LAYER_ERRORS[case][1]],
        LAYER_ERRORS[case][2], dom)) for case in LAYER_ERRORS]
    before = threading.active_count()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            call()
            assert threading.active_count() == before


def test_import_loads_no_thread_pool():
    # threading comes with numpy; concurrent.futures would pull in logging and
    # cost every fresh process its import time
    code = ("import sys, ksurf; "
            "print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout == "[]\n"
