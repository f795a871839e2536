"""Tests for the 2D Goursat solver and grid utilities."""

import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from ksurf import goursat
from ksurf.goursat import (
    BlowUpError,
    EdgeField2,
    GoursatData2,
    LatticeDomain2,
    Rhs2,
    _solve_one,
    delta_x,
    delta_y,
    load_field_csv,
    save_field_csv,
    solve_goursat_2d,
    sup_error,
)
from ksurf.harness import demo_data
from ksurf.sinegordon import hirota_system, naive_system
from oracles import strided_sweep


def test_domain_from_k():
    dom = LatticeDomain2.from_k(4.0, 6)
    assert dom.eps == 2.0**-6
    assert dom.n == 4 * 2**6


def test_domain_validation():
    with pytest.raises(ValueError):
        LatticeDomain2(-1.0, 0.25)
    with pytest.raises(ValueError):
        LatticeDomain2(1.0, 0.0)
    with pytest.raises(ValueError):
        LatticeDomain2(1.0, 0.3)  # r/eps not an integer
    with pytest.raises(ValueError):
        LatticeDomain2(0.25, 0.5)  # ratio below 1
    assert LatticeDomain2(1.0, 0.5).n == 2
    for r, eps in ((np.inf, 0.5), (1.0, np.inf), (np.nan, 0.5), (1.0, np.nan), (1e308, 1e-10)):
        with pytest.raises(ValueError, match="finite"):
            LatticeDomain2(r, eps)


def test_difference_quotient_value():
    # delta_x of x^2 at eps = 1/4 sampled at x = 1/2 is (0.75^2 - 0.5^2)/0.25
    dom = LatticeDomain2(1.0, 0.25)
    xs = np.arange(dom.n + 1) * dom.eps
    p = np.outer(xs, np.ones_like(xs)) ** 2
    dx = delta_x(p, dom.eps)
    assert dx.shape == (dom.n, dom.n + 1)
    assert dx[2, 0] == pytest.approx(1.25, abs=1e-15)
    # delta_y on the transposed field gives the same quotients
    dy = delta_y(p.T, dom.eps)
    assert np.array_equal(dy, dx.T)


def test_goursat_data_sampling():
    dom = LatticeDomain2(1.0, 0.25)
    data = GoursatData2(a0=lambda x: x**2, b0=np.array([0.0, 1.0, 2.0, 3.0]))
    a0, b0 = data.sample(dom)
    assert np.allclose(a0, (np.arange(4) * 0.25) ** 2)
    assert np.array_equal(b0, [0.0, 1.0, 2.0, 3.0])
    # constant callables broadcast; scalar-only callables are looped over
    a0c, _ = GoursatData2(a0=lambda x: 1.5, b0=b0).sample(dom)
    assert np.array_equal(a0c, np.full(4, 1.5))
    a0m, _ = GoursatData2(a0=math.sin, b0=b0).sample(dom)
    assert np.allclose(a0m, np.sin(np.arange(4) * 0.25))
    with pytest.raises(ValueError):
        GoursatData2(a0=np.zeros(5), b0=b0).sample(dom)


def test_non_scalar_callable_refused_by_name():
    # a callable whose values are not scalars is refused by name once it has
    # been called per site
    dom = LatticeDomain2.from_k(1.0, 3)
    for a0, shape in ((lambda x: [1.0, 2.0], (2,)), (lambda x: [x, 2 * x], (2,)),
                      (lambda x: np.ones((2, 3)), (2, 3))):
        with pytest.raises(ValueError, match=re.escape(f"a0 gives values of shape {shape}, "
                                                       f"not scalars")):
            solve_goursat_2d(hirota_system(), GoursatData2(a0, lambda y: 0.0 * y), dom)
    with pytest.raises(ValueError, match=r"b0 gives values of shape \(2,\)"):
        GoursatData2(lambda x: 0.0 * x, lambda y: [y, y]).sample(dom)


def test_edge_field_shape_validation():
    dom = LatticeDomain2(1.0, 0.5)
    with pytest.raises(ValueError):
        EdgeField2(np.zeros((3, 3)), np.zeros((3, 2)), dom)
    EdgeField2(np.zeros((2, 3)), np.zeros((3, 2)), dom)


def test_sweep_matches_scalar_reference():
    # the anti-diagonal sweep must reproduce the naive double loop bitwise:
    # each value is assigned once, from identical floating-point operations
    data = demo_data()
    rhs = hirota_system()
    dom = LatticeDomain2.from_k(1.0, 4)
    sol = solve_goursat_2d(rhs, data, dom)
    n, eps = dom.n, dom.eps
    a = np.empty((n, n + 1))
    b = np.empty((n + 1, n))
    a[:, 0], b[0, :] = data.sample(dom)
    for i in range(n):
        for j in range(n):
            av, bv = a[i, j], b[i, j]
            f, g = rhs.step(av, bv, eps)
            a[i, j + 1] = av + eps * f
            b[i + 1, j] = bv + eps * g
    assert np.array_equal(a, sol.a)
    assert np.array_equal(b, sol.b)


def _scalar_oracle(rhs, data, dom):
    """The lexicographic double loop, one scalar step per site."""
    n, eps = dom.n, dom.eps
    a = np.empty((n, n + 1))
    b = np.empty((n + 1, n))
    a[:, 0], b[0, :] = data.sample(dom)
    for i in range(n):
        for j in range(n):
            f, g = rhs.step(a[i, j], b[i, j], eps)
            a[i, j + 1] = a[i, j] + eps * f
            b[i + 1, j] = b[i, j] + eps * g
    return a, b


@pytest.mark.parametrize("system", [hirota_system, naive_system])
@pytest.mark.parametrize("n", [1, 2, 3, 16])
def test_strided_sweep_matches_scalar_oracle(system, n):
    # the slot sweep must visit every site of the double loop, including
    # n = 1 where b's diagonal stride n - 1 is 0
    rhs, data = system(), demo_data()
    dom = LatticeDomain2(1.0, 1.0 / n)
    sol = solve_goursat_2d(rhs, data, dom)
    a, b = _scalar_oracle(rhs, data, dom)
    assert np.array_equal(a.view(np.int64), sol.a.view(np.int64))
    assert np.array_equal(b.view(np.int64), sol.b.view(np.int64))


def test_one_step_call_per_anti_diagonal():
    calls = []
    base = hirota_system()

    def step(a, b, eps):
        calls.append(np.size(a))
        return base.step(a, b, eps)

    for n in (1, 2, 5, 16):
        calls.clear()
        solve_goursat_2d(Rhs2(step, base.eps0, "counting"), demo_data(),
                         LatticeDomain2(1.0, 1.0 / n))
        assert len(calls) == 2 * n - 1
        assert sum(calls) == n * n  # every cell exactly once


def test_solution_restricts_to_subdomain():
    # propagation is local: the solution on [0, 1/2]^2 is the lower-left
    # block of the solution on [0, 1]^2, bitwise
    data = demo_data()
    rhs = hirota_system()
    sol = solve_goursat_2d(rhs, data, LatticeDomain2.from_k(1.0, 4))
    half = solve_goursat_2d(rhs, data, LatticeDomain2(0.5, 2.0**-4))
    m = half.domain.n
    assert np.array_equal(half.a, sol.a[:m, : m + 1])
    assert np.array_equal(half.b, sol.b[: m + 1, :m])


def test_solution_bounded_as_eps_shrinks():
    # with fixed bounded data on a fixed square, sup norms stay essentially
    # constant across the dyadic sweep (no spurious growth as eps -> 0)
    data = demo_data()
    rhs = hirota_system()
    sup_a, sup_b = [], []
    for k in range(5, 12):
        sol = solve_goursat_2d(rhs, data, LatticeDomain2.from_k(1.0, k))
        sup_a.append(float(np.abs(sol.a).max()))
        sup_b.append(float(np.abs(sol.b).max()))
    for sups in (sup_a, sup_b):
        spread = (max(sups) - min(sups)) / min(sups)
        assert spread < 0.10  # measured ~9e-4
    assert max(sup_a) < 2.0 and max(sup_b) < 3.2


def _first_blowup(rhs, data, dom):
    """The BlowUpError of solve_goursat_2d, after checking that the strided
    oracle and the kept-site sweeps (every = 2 and 4) name the same field and
    site."""
    found = []
    for solve in (solve_goursat_2d, strided_sweep,
                  lambda *args: _solve_one(*args, 2), lambda *args: _solve_one(*args, 4)):
        with pytest.raises(BlowUpError) as exc:
            solve(rhs, data, dom)
        found.append(exc.value)
    assert len({(e.field_name, e.site) for e in found}) == 1
    return found[0]


def test_blowup_detection():
    def bad_f(a, b, eps):
        return np.where(a > 0.9, np.inf, np.zeros_like(a))

    rhs = Rhs2(step=lambda a, b, eps: (bad_f(a, b, eps), np.zeros_like(b)),
               eps0=np.inf, name="bad")
    dom = LatticeDomain2(1.0, 0.25)
    data = GoursatData2(a0=lambda x: 0.95, b0=lambda y: 0.0)
    exc = _first_blowup(rhs, data, dom)
    assert exc.field_name == "a"
    assert exc.site == (0.0, 0.25)
    assert "non-finite" in str(exc)


def test_blowup_detection_field_b():
    # g is NaN only at the cell (i, j) = (2, 1), where a0[2] meets b0[1]; it
    # is the third site of anti-diagonal 3, read through b's stride n - 1, and
    # the first bad value is b[3, 1] at the site (3, 1) * eps
    def step(a, b, eps):
        hot = (a == 0.3) & (b == 0.7)
        return np.zeros_like(a), np.where(hot, np.nan, 0.0)

    dom = LatticeDomain2(1.0, 0.25)
    data = GoursatData2(a0=np.array([0.0, 0.0, 0.3, 0.0]),
                        b0=np.array([0.0, 0.7, 0.0, 0.0]))
    exc = _first_blowup(Rhs2(step, np.inf, "bad-b"), data, dom)
    assert exc.field_name == "b"
    assert exc.site == (0.75, 0.25)


def test_blowup_in_both_fields_names_a():
    # on anti-diagonal 2, g is NaN at i = 0 (b0[2] = 0.7) and f at i = 2
    # (a0[2] = 0.3): the sweep writes a before b, so a[2, 1] is reported
    def step(a, b, eps):
        return np.where(a == 0.3, np.nan, 0.0), np.where(b == 0.7, np.nan, 0.0)

    dom = LatticeDomain2(1.0, 0.25)
    data = GoursatData2(a0=np.array([0.0, 0.0, 0.3, 0.0]),
                        b0=np.array([0.0, 0.0, 0.7, 0.0]))
    exc = _first_blowup(Rhs2(step, np.inf, "bad-ab"), data, dom)
    assert exc.field_name == "a"
    assert exc.site == (0.5, 0.25)


def test_blowup_site_survives_healing_steps():
    # b[1, 1] overflows on anti-diagonal 0; the step maps every later
    # non-finite input back to finite values, and a at a lower i turns NaN
    # only on anti-diagonal 3: the first site is still reported, and the
    # overflow raises no RuntimeWarning
    def step(a, b, eps):
        a, b = np.nan_to_num(a), np.nan_to_num(b)
        f = np.where(a == 0.3, np.nan, 0.0)
        return f, np.exp(1000.0 * b)

    dom = LatticeDomain2(1.0, 0.25)
    data = GoursatData2(a0=np.array([0.0, 0.0, 0.0, 0.3]),
                        b0=np.array([1.0, 0.0, 0.0, 0.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exc = _first_blowup(Rhs2(step, np.inf, "heal"), data, dom)
    assert exc.field_name == "b"
    assert exc.site == (0.25, 0.0)


def test_solve_memory_beyond_fields():
    # the sweep allocates no lattice-sized temporary: traced peak beyond the
    # two fields at k = 10 measured 0.086 MB (slots and one step's temporaries)
    dom = LatticeDomain2.from_k(1.0, 10)
    tracemalloc.start()
    try:
        sol = solve_goursat_2d(hirota_system(), demo_data(), dom)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - sol.a.nbytes - sol.b.nbytes <= 0.25e6


def test_kept_sweep_memory_beyond_kept_sites():
    # keeping every 4th site, the sweep holds its slots, not the lattice:
    # traced peak beyond the 1.05 MB of kept fields at k = 10 measured
    # 0.086 MB, against 16.8 MB for the full fields
    dom = LatticeDomain2.from_k(1.0, 10)
    tracemalloc.start()
    try:
        sol = _solve_one(hirota_system(), demo_data(), dom, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sol.domain.n == dom.n // 4
    assert peak - sol.a.nbytes - sol.b.nbytes <= 0.25e6


def _random_data(seed):
    rng = np.random.default_rng(seed)
    return GoursatData2(a0=lambda x: rng.uniform(-1.0, 1.0, np.shape(x)),
                        b0=lambda y: rng.uniform(-1.0, 1.0, np.shape(y)))


@pytest.mark.parametrize("system", [hirota_system, naive_system])
@pytest.mark.parametrize("k", [1, 2, 3, 8, 10])
@pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
def test_slot_sweep_matches_strided_oracle(system, k, r):
    # the slot sweep keeps the bits of the strided sweep it replaced: every
    # site when every = 1, and every every-th row and column otherwise
    rhs, dom = system(), LatticeDomain2.from_k(r, k)
    for data in (demo_data(), _random_data(k)):
        a0, b0 = data.sample(dom)
        data = GoursatData2(a0, b0)  # the same samples for every solve
        ref = strided_sweep(rhs, data, dom)
        for every in (1, 2, 4, 8):
            if dom.n % every:
                continue
            solve = solve_goursat_2d if every == 1 else lambda *args: _solve_one(*args, every)
            sol = solve(rhs, data, dom)
            assert sol.domain == LatticeDomain2(r, dom.eps * every)
            assert np.array_equal(sol.a.view(np.int64), ref.a[::every, ::every].view(np.int64))
            assert np.array_equal(sol.b.view(np.int64), ref.b[::every, ::every].view(np.int64))


@pytest.mark.parametrize("every", [1, 4])
def test_oversized_lattice_refused_before_allocation(monkeypatch, planned, every):
    # the plan of the n = 16 lattice counts at least its two full fields,
    # 16 * 16 * 17 bytes (a blow-up's re-solve needs them at every = 4); it
    # admits the lattice at its figure and refuses it one byte less, in
    # kept-site mode as well, before the data are sampled
    dom = LatticeDomain2.from_k(1.0, 4)
    need = planned(lambda: _solve_one(hirota_system(), demo_data(), dom, every))
    assert need >= 16 * 16 * 17
    monkeypatch.setattr(goursat, "_available_bytes", lambda: need)
    assert _solve_one(hirota_system(), demo_data(), dom, every).domain.n == 16 // every

    def never(x):
        raise AssertionError("data sampled for a refused lattice")

    monkeypatch.setattr(goursat, "_available_bytes", lambda: need - 1)
    with pytest.raises(ValueError, match=f"needs {need} bytes for its two fields"):
        _solve_one(hirota_system(), GoursatData2(never, never), dom, every)


def test_size_guard_counts_reclaimable_memory(monkeypatch, planned, tmp_path):
    # free pages alone fall short of the plan of the n = 16 lattice; MemAvailable,
    # which counts the page cache the kernel would reclaim, does not, and
    # decides where the system reports it
    dom = LatticeDomain2.from_k(1.0, 4)
    need = planned(lambda: _solve_one(hirota_system(), demo_data(), dom, 4))
    free = (need - 1) // 4096 * 4096
    pages = {"SC_AVPHYS_PAGES": free // 4096, "SC_PAGE_SIZE": 4096}
    monkeypatch.setattr(goursat.os, "sysconf", pages.__getitem__)
    meminfo, kb = tmp_path / "meminfo", -(-need // 1024)
    meminfo.write_text(f"MemTotal:       {4 * kb} kB\nMemFree:         4 kB\n"
                       f"MemAvailable:    {kb} kB\nCached:          1 kB\n")
    monkeypatch.setattr(goursat, "_MEMINFO", str(meminfo))
    assert goursat._available_bytes() == kb * 1024
    assert _solve_one(hirota_system(), demo_data(), dom, 4).domain.n == 4
    monkeypatch.setattr(goursat, "_MEMINFO", str(tmp_path / "missing"))
    assert goursat._available_bytes() == free
    with pytest.raises(ValueError, match=f"more than the {free} bytes of available memory"):
        _solve_one(hirota_system(), demo_data(), dom, 4)


def test_size_guard_admits_any_size_without_a_memory_figure(monkeypatch, tmp_path):
    # no meminfo file and no sysconf name for the free pages: the system
    # gives no figure, and the plan refuses nothing
    def unknown(name):
        raise ValueError(f"unrecognized configuration name {name!r}")

    monkeypatch.setattr(goursat, "_MEMINFO", str(tmp_path / "missing"))
    monkeypatch.setattr(goursat.os, "sysconf", unknown)
    assert goursat._available_bytes() is None
    assert goursat._plan("a lattice of n = 2^30 steps", "its two fields", [2**62]) == []


@pytest.mark.parametrize("every", [2, 4])
def test_kept_blowup_resolves_the_same_samples(every):
    # data sampled afresh differ from call to call: the full re-solve that
    # names the site must step the samples that blew up, not new ones
    draws = iter([0.95, 0.0])

    def a0(x):
        return np.full(np.shape(x), next(draws))

    rhs = Rhs2(step=lambda a, b, eps: (np.where(a > 0.9, np.inf, 0.0), np.zeros_like(b)),
               eps0=np.inf, name="bad")
    with pytest.raises(BlowUpError) as exc:
        _solve_one(rhs, GoursatData2(a0=a0, b0=lambda y: 0.0), LatticeDomain2(1.0, 0.25), every)
    assert (exc.value.field_name, exc.value.site) == ("a", (0.0, 0.25))


def test_kept_blowup_not_reproduced_is_an_error():
    # an rhs that goes non-finite only on its first call cannot be reported
    # at a site: the sweep fails loudly instead of returning its fields
    calls = []

    def step(a, b, eps):
        calls.append(1)
        return np.full_like(a, np.nan if len(calls) == 1 else 0.0), np.zeros_like(b)

    with pytest.raises(AssertionError, match="not deterministic"):
        _solve_one(Rhs2(step, np.inf, "once"), demo_data(), LatticeDomain2(1.0, 0.25), 2)


def test_non_finite_data_rejected():
    # the first non-finite sample is named: an a0 sample before a b0 sample
    rhs = hirota_system()
    dom = LatticeDomain2(1.0, 0.25)
    bad_b0 = [0.0, 1.0, np.inf, np.nan]
    for data, site in ((GoursatData2(a0=lambda x: np.where(x > 0.4, np.nan, x),
                                     b0=lambda y: 0.0), (0.5, 0.0)),
                       (GoursatData2(a0=np.zeros(4), b0=bad_b0), (0.0, 0.5)),
                       (GoursatData2(a0=[0.0, 0.0, 0.0, -np.inf], b0=bad_b0), (0.75, 0.0))):
        with pytest.raises(BlowUpError) as exc:
            solve_goursat_2d(rhs, data, dom)
        assert exc.value.field_name == "data"
        assert exc.value.site == site


def test_inadmissible_eps_rejected():
    rhs = hirota_system()  # admissible steps are 0 < eps < 2
    dom = LatticeDomain2(4.0, 2.0)
    with pytest.raises(ValueError, match="admissible"):
        solve_goursat_2d(rhs, demo_data(), dom)


def test_sup_error_nested_grids():
    xs_c = np.arange(5) * 0.25
    xs_f = np.arange(9) * 0.125
    p = np.add.outer(xs_c, xs_c)
    q = np.add.outer(xs_f, xs_f)
    assert sup_error(p, 0.25, q, 0.125) == 0.0
    assert sup_error(p, 0.25, p, 0.25) == 0.0
    q2 = q + 1e-3
    q2[0, 0] += 0.5  # only perturbation at a shared site that dominates
    assert sup_error(p, 0.25, q2, 0.125) == pytest.approx(0.501, abs=1e-12)
    for eps_q in (0.1, np.nan):
        with pytest.raises(ValueError, match="grids are not nested: eps_p/eps_q"):
            sup_error(p, 0.25, q, eps_q)
    # trailing axes are coordinates: the distance there is Euclidean
    pts_q = np.zeros((9, 9, 3))
    pts_q[2, 4] = (3.0, 0.0, 4.0)
    assert sup_error(np.zeros((5, 5, 3)), 0.25, pts_q, 0.125) == 5.0


def test_sup_error_partial_overlap():
    # reference grid shorter than the coarse one: compare on shared sites only
    p = np.zeros((5, 5))
    q = np.full((5, 5), 2.0)  # finer grid covering half the extent
    assert sup_error(p, 0.25, q, 0.125) == 2.0
    for p, q in ((np.zeros((0, 5)), q), (p, np.zeros((5, 0)))):  # an empty grid shares nothing
        with pytest.raises(ValueError, match="grids share no sites"):
            sup_error(p, 0.25, q, 0.125)


def test_field_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(11)
    dom = LatticeDomain2(1.0, 0.25)
    p = rng.normal(size=(dom.n, dom.n + 1)) * np.pi
    p[0, :3] = [np.nan, np.inf, -0.0]  # stored values, not missing entries
    path = tmp_path / "field.csv"
    save_field_csv(path, p, dom)
    q, eps, r = load_field_csv(path)
    assert np.array_equal(p, q, equal_nan=True)  # 17 significant digits round-trip float64
    assert eps == dom.eps and r == dom.r


def test_field_csv_error_reporting(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("not a header\n")
    with pytest.raises(ValueError, match="metadata"):
        load_field_csv(path)
    path.write_text("# eps=0.25 r=1\nwrong,header,here\n")
    with pytest.raises(ValueError, match="header"):
        load_field_csv(path)
    path.write_text("# eps=0.25 r=1\ni,j,value\n")
    with pytest.raises(ValueError, match="no data"):
        load_field_csv(path)
    path.write_text("# eps=0.25 r=1\ni,j,value\n0,0,1.0\n1,1,2.0\n")
    with pytest.raises(ValueError, match="missing"):
        load_field_csv(path)
    for meta, key in (("# eps=0.25", "r="), ("# r=1", "eps=")):
        path.write_text(meta + "\ni,j,value\n0,0,1.0\n")
        with pytest.raises(ValueError, match=f"bad.csv: metadata line lacks {key}"):
            load_field_csv(path)
    for rows, match in [
        ("0,0,1\n0,1,2\n-1,0,3\n", "negative index \\(-1, 0\\)"),
        ("0,0,1\n0,1,2\n0,0,3\n", "duplicate rows for index \\(0, 0\\)"),
        ("0,0,1\n0,1\n", "does not have 3 columns"),
        ("0,0,1\n0,1,2,3\n", "does not have 3 columns"),
        ("0,0,1\n99999999999999999999,0,2\n", "index too large"),
        ("0,0,1\n0.5,1,2\n", "is not 2 integer indices and a value"),
        ("0,0,1\n0,1,x\n", "is not 2 integer indices and a value"),
        ("0,0,1\n0,1,2\n0,2,3\n", "bad.csv: axis 0 has 1 entries, but r/eps = 4 allows 4 or 5"),
    ]:
        path.write_text("# eps=0.25 r=1\ni,j,value\n" + rows)
        with pytest.raises(ValueError, match=match):
            load_field_csv(path)
    box = "0,0,1\n0,1,2\n1,0,3\n1,1,4\n"  # 2 x 2 entries, so n = 1 or 2
    for meta, match in [
        ("# eps=abc r=1", "bad.csv: metadata eps=abc is not numeric"),
        ("# eps=0.5 r=nan", "bad.csv: r/eps on axis 0 must be finite"),
        ("# eps=0.5 r=0.75", "bad.csv: r/eps on axis 0 = 1.5 is not a positive integer"),
        ("# eps=0.5,0.5 r=1", "bad.csv: a field CSV has one eps and one r"),
    ]:
        path.write_text(meta + "\ni,j,value\n" + box)
        with pytest.raises(ValueError, match=match):
            load_field_csv(path)
    path.write_text("# eps=0.5 r=0.5\ni,j,value\n" + box)
    assert load_field_csv(path)[0].shape == (2, 2)


@pytest.mark.parametrize("bad", ["1_0,100,0.5", "100,1_0,0.5", "100,100,0_5"])
def test_field_csv_names_a_row_numpy_refuses_by_its_text(tmp_path, bad):
    # '1_0' passes int() and float() but not np.loadtxt; the row is named by
    # its text, not by numpy's count of rows within its block of 2^15 lines
    path = tmp_path / "f.csv"
    save_field_csv(path, np.zeros((200, 201)), LatticeDomain2(1.0, 0.005))  # 40,200 rows
    lines = path.read_text().splitlines(keepends=True)
    lines[2 + 40098] = bad + "\n"  # data row 40,099, in the second block
    path.write_text("".join(lines))
    with pytest.raises(ValueError, match=f"f.csv: row '{bad}' is not 2 integer indices and a "
                                         f"value$"):
        load_field_csv(path)


def test_field_csv_loader_memory(tmp_path):
    """A k = 9 field (262,656 rows, 2.1 MB as an array) loads within 24 MB
    traced; holding every row as a list of strings took 126 MB."""
    dom = LatticeDomain2.from_k(1.0, 9)
    p = np.random.default_rng(9).normal(size=(dom.n, dom.n + 1))
    save_field_csv(tmp_path / "f.csv", p, dom)
    tracemalloc.start()
    try:
        q, _, _ = load_field_csv(tmp_path / "f.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(p, q)
    assert peak < 24e6
