"""Tests for the general d-dimensional Goursat solver and its checks."""

import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from ksurf import goursat, ndsys
from ksurf.goursat import (
    BlowUpError,
    CompatibilityError,
    GoursatData2,
    LatticeDomain2,
    solve_goursat_2d,
)
from ksurf.harness import demo_data
from ksurf.ndsys import (
    SystemSpecND,
    check_dependency,
    check_identity,
    load_state_csv,
    save_state_csv,
    sine_gordon_2d_spec,
    sine_gordon_3d_spec,
    solve_goursat_nd,
)
from ksurf.sinegordon import (
    SchemeKind,
    backlund_system,
    check_compatibility_3d,
    hirota_backlund_system,
    hirota_system,
    solve_goursat_3d,
)

RNG = np.random.default_rng(20240820)

A0 = lambda x, y=None, z=None: np.cos(2.0 * x)  # noqa: E731
B0 = lambda x, y=None, z=None: 1.0 + np.sin(y)  # noqa: E731


def theta0_layers(values):
    return lambda x, y, z: values[int(round(z))]


def test_spec_validation():
    good = sine_gordon_2d_spec(SchemeKind.HIROTA, 0.125)
    assert good.num_fields == 2 and good.dim == 2
    # N = len(evol) and d = len(eps): a field or direction too few shows up
    # as rhs keys or directions that do not fit
    with pytest.raises(ValueError, match="rhs keys"):
        replace(good, evol=(frozenset({1}),))
    with pytest.raises(ValueError, match="outside"):
        replace(good, eps=(0.125,))
    with pytest.raises(ValueError, match="positive"):
        replace(good, eps=(0.125, -0.125))
    with pytest.raises(ValueError, match="rhs keys"):
        replace(good, rhs={(0, 1): good.rhs[(0, 1)]})
    with pytest.raises(ValueError, match="deps keys"):
        replace(good, deps={(0, 1): frozenset({0})})
    with pytest.raises(ValueError, match="outside"):
        replace(
            good,
            evol=(frozenset({5}), frozenset({0})),
            rhs={(0, 5): good.rhs[(0, 1)], (1, 0): good.rhs[(1, 0)]},
            deps={(0, 5): frozenset({0, 1}), (1, 0): frozenset({0, 1})},
        )
    with pytest.raises(ValueError, match="at least one field"):
        replace(good, evol=(), rhs={}, deps={})
    with pytest.raises(TypeError):
        replace(good, num_fields=2)  # derived, not settable


def test_dependency_check():
    assert check_dependency(sine_gordon_2d_spec(SchemeKind.HIROTA, 0.125))
    assert check_dependency(sine_gordon_3d_spec(1.0, 0.125))
    # let f_{(0,1)} (field a stepping in y, E_a = {1, 2}) read theta, whose
    # evolution set {0, 1} misses the required direction z = 2
    spec = sine_gordon_3d_spec(1.0, 0.125)
    deps = dict(spec.deps)
    deps[(0, 1)] = frozenset({0, 1, 2})
    assert not check_dependency(replace(spec, deps=deps))


def test_identity_hirota_closes():
    samples = RNG.uniform(-3.0, 3.0, size=(2000, 3))
    for alpha in (0.5, 1.0, 2.0):
        for eps in (2.0**-3, 2.0**-6):
            spec = sine_gordon_3d_spec(alpha, eps)
            assert check_identity(spec, samples) <= 1e-11
            # agrees with the dedicated three-identity check
            direct = check_compatibility_3d(hirota_backlund_system(alpha), samples, eps)
            assert direct <= 1e-11


def test_identity_takes_one_sample_as_a_row():
    spec = sine_gordon_3d_spec(1.0, 2.0**-3)
    for s in RNG.uniform(-3.0, 3.0, size=(5, 3)):
        assert check_identity(spec, s) == check_identity(spec, s[None, :])


def test_identity_naive_fails():
    samples = RNG.uniform(-3.0, 3.0, size=(2000, 3))
    spec = sine_gordon_3d_spec(1.0, 2.0**-4, scheme=SchemeKind.NAIVE)
    assert check_identity(spec, samples) > 1e-3  # measured ~1.5e-2


def test_identity_constant_rhs_is_exact():
    # constant right-hand sides close identically: the square contributions
    # commute as plain float additions
    spec = SystemSpecND(
        evol=(frozenset({0, 1}),),
        rhs={(0, 0): lambda s: 0.7, (0, 1): lambda s: -1.3},
        deps={(0, 0): frozenset(), (0, 1): frozenset()},
        eps=(0.25, 0.5),
    )
    assert check_identity(spec, RNG.normal(size=(100, 1))) == 0.0


def test_identity_keeps_a_nan_defect():
    # f_1 is nan at s > 0, so the square closes at s = -1 only: the defect is
    # nan, not the 0.0 of the sample that closes
    spec = SystemSpecND(
        evol=(frozenset({0, 1}),),
        rhs={(0, 0): lambda s: 0.0 * s[0], (0, 1): lambda s: np.where(s[0] > 0, np.nan, 0.0)},
        deps={(0, 0): frozenset({0}), (0, 1): frozenset({0})},
        eps=(0.25, 0.5),
    )
    assert np.isnan(check_identity(spec, np.array([[1.0], [-1.0]])))
    assert check_identity(spec, np.array([[-1.0], [-2.0]])) == 0.0


@pytest.mark.parametrize("alpha, eps, scheme, match", [
    (8.0, 0.25, SchemeKind.HIROTA, "not admissible"),  # eps = eps0 = 2/alpha
    (1e308, 1.5e-308, SchemeKind.NAIVE, "its increments reach"),  # the naive increments overflow
    (1.0, 1e-309, SchemeKind.NAIVE, "2/eps = inf is not finite"),
], ids=["eps0", "increments", "two_over_eps"])
def test_spec_refuses_overflowing_backlund_step(alpha, eps, scheme, match):
    # the spec refuses by name the steps that check_compatibility_3d refuses
    samples = np.random.default_rng(0).uniform(-3.0, 3.0, size=(100, 3))
    with pytest.raises(ValueError, match=match):
        sine_gordon_3d_spec(alpha, eps, scheme)
    with pytest.raises(ValueError, match=match):
        check_compatibility_3d(backlund_system(alpha, scheme), samples, eps)
    sine_gordon_3d_spec(1.0, 2.0**-6)  # the nd_lattice spec stays admissible


@pytest.mark.parametrize("scheme, eps", [
    (SchemeKind.HIROTA, 2.0), (SchemeKind.HIROTA, np.nan), (SchemeKind.HIROTA, 0.0),
    (SchemeKind.NAIVE, np.inf), (SchemeKind.NAIVE, np.nan), (SchemeKind.NAIVE, -0.25),
])
def test_2d_spec_refuses_inadmissible_step(scheme, eps):
    # the planar spec runs the step check of its scheme, as the 3D spec does
    with pytest.raises(ValueError, match=f"step eps = {eps} is not admissible for rhs "
                                         f"'{scheme.value}'"):
        sine_gordon_2d_spec(scheme, eps)
    assert sine_gordon_2d_spec(scheme, 0.125).eps == (0.125, 0.125)


def test_identity_forms_each_shifted_state_once():
    # three directions of the 3D spec: three shifted states of two stepped
    # fields each (6 calls) and four calls per direction pair (12); the 2D
    # spec has no pair and calls no right-hand side
    for spec, want in ((sine_gordon_3d_spec(1.0, 2.0**-4), 18),
                       (sine_gordon_2d_spec(SchemeKind.HIROTA, 2.0**-4), 0)):
        calls = []

        def counted(f):
            return lambda s: calls.append(1) or f(s)

        counting = replace(spec, rhs={key: counted(f) for key, f in spec.rhs.items()})
        samples = RNG.uniform(-3.0, 3.0, size=(50, spec.num_fields))
        assert check_identity(counting, samples) == check_identity(spec, samples)
        assert len(calls) == want


def test_identity_keeps_nan():
    # a right-hand side that returns NaN makes the defect NaN, with no numpy warning
    spec = sine_gordon_3d_spec(1.0, 2.0**-4)
    rhs = dict(spec.rhs)
    orig = rhs[(2, 1)]
    rhs[(2, 1)] = lambda s: np.where(s[1] > 0.0, np.nan, orig(s))  # NaN at about half the samples
    samples = np.random.default_rng(0).uniform(-3.0, 3.0, size=(100, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isnan(check_identity(replace(spec, rhs=rhs), samples))
        assert check_identity(spec, samples) <= 1e-11


def test_identity_broken_rhs():
    spec = sine_gordon_3d_spec(1.0, 2.0**-4)
    rhs = dict(spec.rhs)
    orig = rhs[(2, 1)]
    rhs[(2, 1)] = lambda s: -orig(s)
    broken = replace(spec, rhs=rhs)
    samples = RNG.uniform(-3.0, 3.0, size=(2000, 3))
    assert check_identity(broken, samples) > 1e-3  # measured ~0.26


def test_identity_2d_is_vacuous():
    # both planar fields evolve in a single direction: no squares to close
    spec = sine_gordon_2d_spec(SchemeKind.HIROTA, 0.125)
    assert check_identity(spec, RNG.uniform(-3, 3, (50, 2))) == 0.0


def test_solve_2d_matches_dedicated_solver():
    eps = 2.0**-4
    dom = LatticeDomain2(1.0, eps)
    ref = solve_goursat_2d(hirota_system(), demo_data(), dom)
    spec = sine_gordon_2d_spec(SchemeKind.HIROTA, eps)
    st = solve_goursat_nd(spec, [A0, lambda x, y: B0(x, y)], 1.0)
    assert st.n == (dom.n, dom.n)
    assert np.array_equal(st.fields[0], ref.a)
    assert np.array_equal(st.fields[1], ref.b)
    assert st.alt_residual == 0.0  # no field has two admissible directions


def test_solve_3d_matches_dedicated_solver():
    eps = 2.0**-4
    dom = LatticeDomain2(1.0, eps)
    theta0 = [0.5, -0.3]
    ref = solve_goursat_3d(hirota_backlund_system(1.0), demo_data(), theta0, dom)
    spec = sine_gordon_3d_spec(1.0, eps)
    st = solve_goursat_nd(
        spec, [A0, B0, theta0_layers(theta0)], (1.0, 1.0, 2.0)
    )
    n = dom.n
    assert st.fields[0].shape == (n, n + 1, 3)
    assert st.fields[1].shape == (n + 1, n, 3)
    assert st.fields[2].shape == (n + 1, n + 1, 2)
    for z in range(3):
        assert np.abs(st.fields[0][:, :, z] - ref.a[z]).max() <= 1e-13  # measured 0
        assert np.abs(st.fields[1][:, :, z] - ref.b[z]).max() <= 1e-13
    for z in range(2):
        assert np.abs(st.fields[2][:, :, z] - ref.theta[z]).max() <= 1e-13
    assert st.alt_residual <= 1e-13  # measured 1.8e-15


@pytest.mark.parametrize("k", [3, 4, 6])
@pytest.mark.parametrize("theta0", [(0.5, -0.3), (1.0, 0.2, -0.7)])
def test_solve_3d_equals_dedicated_solver_bitwise(k, theta0):
    # both define each value along the same path with the same arithmetic;
    # the nd solver checks the layered solver bit for bit
    eps = 2.0**-k
    ref = solve_goursat_3d(hirota_backlund_system(1.0), demo_data(), theta0,
                           LatticeDomain2(1.0, eps))
    st = solve_goursat_nd(sine_gordon_3d_spec(1.0, eps), [A0, B0, theta0_layers(theta0)],
                          (1.0, 1.0, float(len(theta0))))
    for field, layers in zip(st.fields, (ref.a, ref.b, ref.theta)):
        assert field.shape[2] == len(layers)
        for z, want in enumerate(layers):
            assert np.array_equal(field[:, :, z].view(np.int64), want.view(np.int64))


def scalar_oracle(spec, data, r):
    """Site-by-site reference: a lexicographic loop over the box that calls
    every right-hand side on scalars, defines each value from its smallest
    active direction and compares every alternative assignment."""
    n = tuple(round(ri / e) for ri, e in zip(r, spec.eps))
    fields = [
        np.full(tuple(m + (i in spec.evol[k]) for i, m in enumerate(n)), np.nan)
        for k in range(spec.num_fields)
    ]
    worst = 0.0
    for idx in np.ndindex(*(m + 1 for m in n)):
        for k, f in enumerate(fields):
            if any(c >= m for c, m in zip(idx, f.shape)):
                continue
            active = [i for i in sorted(spec.evol[k]) if idx[i] > 0]
            if not active:
                f[idx] = float(data[k](*(c * e for c, e in zip(idx, spec.eps))))
                continue
            vals = []
            for i in active:
                base = tuple(c - (j == i) for j, c in enumerate(idx))
                state = [
                    g[base] if all(b < m for b, m in zip(base, g.shape)) else np.nan
                    for g in fields
                ]
                vals.append(f[base] + spec.eps[i] * spec.rhs[(k, i)](state))
            f[idx] = vals[0]
            worst = max([worst] + [float(abs(v - vals[0])) for v in vals[1:]])
    return fields, worst


def toy_4d_spec():
    # demo 05: one field evolving in four directions at linear rates
    rates = (0.25, -0.5, 1.0, 0.125)
    return SystemSpecND(
        evol=(frozenset(range(4)),),
        rhs={(0, i): (lambda s, c=c: c * s[0]) for i, c in enumerate(rates)},
        deps={(0, i): frozenset({0}) for i in range(4)},
        eps=(0.5, 0.5, 0.25, 0.25),
    )


@pytest.mark.parametrize(
    "case",
    ["1d-growth", "2d-hirota", "2d-naive", "3d-two-layers", "4d-toy"],
)
def test_level_sweep_matches_scalar_oracle(case):
    eps = 2.0**-3
    if case == "1d-growth":
        spec = SystemSpecND(
            evol=(frozenset({0}),),
            rhs={(0, 0): lambda s: 2.0 * s[0]},
            deps={(0, 0): frozenset({0})},
            eps=(eps,),
        )
        args = (spec, [lambda x: 1.0], (1.0,))
    elif case.startswith("2d"):
        scheme = SchemeKind.HIROTA if case == "2d-hirota" else SchemeKind.NAIVE
        args = (sine_gordon_2d_spec(scheme, eps), [A0, lambda x, y: B0(x, y)], (1.0, 1.0))
    elif case == "3d-two-layers":
        args = (sine_gordon_3d_spec(1.0, eps), [A0, B0, theta0_layers([0.5, -0.3])],
                (1.0, 1.0, 2.0))
    else:
        args = (toy_4d_spec(), [lambda *xs: 1.0], (1.0, 1.0, 1.0, 0.5))
    st = solve_goursat_nd(*args)
    ref, worst = scalar_oracle(*args)
    for got, want in zip(st.fields, ref):
        assert got.shape == want.shape
        assert np.array_equal(got, want)
    assert st.alt_residual == worst


def test_rhs_calls_scale_with_levels_not_sites():
    for eps in (2.0**-3, 2.0**-5):
        spec = sine_gordon_3d_spec(1.0, eps)
        calls = dict.fromkeys(spec.rhs, 0)

        def counted(key, fn):
            def wrapped(s):
                calls[key] += 1
                return fn(s)
            return wrapped

        spec = replace(spec, rhs={key: counted(key, fn) for key, fn in spec.rhs.items()})
        st = solve_goursat_nd(spec, [A0, B0, theta0_layers([0.5, -0.3])], (1.0, 1.0, 2.0))
        levels = sum(st.n)
        for (k, i), count in calls.items():
            assert 0 < count <= levels * len(spec.evol[k])


def test_incompatibility_caught_at_every_site():
    # one field u = i + 1000 j on a 111 x 111 box (more than 10^4 sites);
    # the y-step into the single site (37, 50) is off by 1e-3.  It is only
    # an alternative assignment there (x is the smaller active direction),
    # and its lexicographic site count 37 * 111 + 50 is not a multiple of 100
    target = 37.0 + 1000.0 * 49.0
    spec = SystemSpecND(
        evol=(frozenset({0, 1}),),
        rhs={
            (0, 0): lambda s: np.ones_like(s[0]),
            (0, 1): lambda s: 1000.0 + np.where(s[0] == target, 1e-3, 0.0),
        },
        deps={(0, 0): frozenset({0}), (0, 1): frozenset({0})},
        eps=(1.0, 1.0),
    )
    with pytest.raises(CompatibilityError) as exc:
        solve_goursat_nd(spec, [lambda x, y: 0.0], (110.0, 110.0))
    assert exc.value.site == (37.0, 50.0)
    assert exc.value.mismatch == pytest.approx(1e-3)
    assert "directions 0/1" in str(exc.value)


def test_solve_rejects_incompatible_system():
    spec = sine_gordon_3d_spec(1.0, 2.0**-4, scheme=SchemeKind.NAIVE)
    with pytest.raises(CompatibilityError) as exc:
        solve_goursat_nd(spec, [A0, B0, theta0_layers([0.5])], (1.0, 1.0, 1.0))
    assert exc.value.mismatch > 1e-9  # measured ~1.2e-3
    assert "directions" in str(exc.value)


def test_solve_rejects_dependency_violation():
    spec = sine_gordon_3d_spec(1.0, 0.125)
    deps = dict(spec.deps)
    deps[(0, 1)] = frozenset({0, 1, 2})
    with pytest.raises(ValueError, match="dependency"):
        solve_goursat_nd(replace(spec, deps=deps), [A0, B0, theta0_layers([0.5])], 1.0)


def test_solve_domain_validation():
    spec = sine_gordon_2d_spec(SchemeKind.HIROTA, 0.125)
    data = [A0, lambda x, y: B0(x, y)]
    with pytest.raises(ValueError, match="entries"):
        solve_goursat_nd(spec, data, (1.0, 1.0, 1.0))
    with pytest.raises(ValueError, match="integer"):
        solve_goursat_nd(spec, data, (1.0, 0.3))
    for r in (np.inf, np.nan, (1.0, np.inf)):
        with pytest.raises(ValueError, match="finite"):
            solve_goursat_nd(spec, data, r)


def test_solve_refuses_a_box_beyond_memory(monkeypatch):
    # 8 (2 N + 1) bytes per box site: the N padded fields, the level order and
    # the N fields returned; at eps = 1/8 the box is 9 x 9 x 3 = 243 sites.
    # A band's plan adds 8 (d + P + 6) = 120 bytes per band site: a band of 16
    # levels of at most 243/9 = 27 sites each holds at most the 243 of the box
    spec, data = sine_gordon_3d_spec(1.0, 0.125), [A0, B0, theta0_layers([0.5, -0.3])]
    need = 8 * 243 * 7 + 243 * 120
    monkeypatch.setattr(goursat, "_available_bytes", lambda: need - 1)
    with pytest.raises(ValueError, match=f"a box of 9x9x3 sites needs {need} bytes for its 3 "
                                         f"padded fields, their level order, the fields it "
                                         f"returns and the plan of a band of levels, more than "
                                         f"the {need - 1} bytes"):
        solve_goursat_nd(spec, data, (1.0, 1.0, 2.0))
    monkeypatch.setattr(goursat, "_available_bytes", lambda: need)
    assert solve_goursat_nd(spec, data, (1.0, 1.0, 2.0)).fields[2].shape == (9, 9, 2)
    # 894 TiB of padded fields: refused before numpy is asked for them
    monkeypatch.setattr(goursat, "_available_bytes", lambda: 2**33)
    with pytest.raises(ValueError, match=r"a box of 6400001x6400001x3 sites needs \d+ bytes"):
        solve_goursat_nd(sine_gordon_3d_spec(1.0, 2.0**-6), data, (1e5, 1e5, 2.0))


@pytest.mark.parametrize("spec, data, r, box", [
    (sine_gordon_3d_spec(1.0, 2.0**-6), [A0, B0, theta0_layers([0.5, -0.3])], (1.0, 1.0, 2.0),
     (65, 65, 3)),
    (sine_gordon_2d_spec(SchemeKind.HIROTA, 2.0**-7), [A0, B0], 1.0, (129, 129)),
], ids=["3d", "2d"])
def test_solve_peak_within_its_guard(monkeypatch, spec, data, r, box):
    # the traced peak, the box arrays and one band's plan at a time, stays within
    # the guarded bytes: measured 0.60 of them in 3D (the plan and its
    # temporaries about 78 of the 120 bytes per band site) and 0.67 in 2D
    guarded = []
    monkeypatch.setattr(ndsys, "_require_memory", lambda need, *args: guarded.append(need))
    solve_goursat_nd(spec, data, r)  # warm caches
    tracemalloc.start()
    try:
        solve_goursat_nd(spec, data, r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size, band = np.prod(box), ndsys.LEVEL_BAND * np.prod(box) // max(box)
    assert guarded[-1] == 8 * size * (2 * spec.num_fields + 1) + band * 8 * (
        spec.dim + len(spec.rhs) + 6)
    assert peak <= guarded[-1]


def grid_spec(blow=(), wrong=()):
    """One field u = i + 1000 j on the integer lattice: its x-step is infinite
    into the sites of blow and its y-step off by 1e-3 into those of wrong,
    where the y-step is an alternative assignment wherever i > 0."""
    blow_at = [i - 1 + 1000.0 * j for i, j in blow]  # the predecessor values
    wrong_at = [i + 1000.0 * (j - 1) for i, j in wrong]
    return SystemSpecND(
        evol=(frozenset({0, 1}),),
        rhs={
            (0, 0): lambda s: np.where(np.isin(s[0], blow_at), np.inf, 1.0),
            (0, 1): lambda s: 1000.0 + np.where(np.isin(s[0], wrong_at), 1e-3, 0.0),
        },
        deps={(0, 0): frozenset({0}), (0, 1): frozenset({0})},
        eps=(1.0, 1.0),
    )


@pytest.mark.parametrize("band", [1, 2, 3, None], ids=["band1", "band2", "band3", "default"])
def test_bits_and_errors_do_not_depend_on_band_size(monkeypatch, band):
    # the plan is cut out of the level order once per band of levels; its size
    # changes neither a value nor the first failing site and its message
    if band is not None:
        monkeypatch.setattr(ndsys, "LEVEL_BAND", band)
    size = ndsys.LEVEL_BAND
    eps = 2.0**-3
    for args in ((sine_gordon_2d_spec(SchemeKind.HIROTA, eps), [A0, B0], (1.0, 1.0)),
                 (sine_gordon_3d_spec(1.0, eps), [A0, B0, theta0_layers([0.5, -0.3])],
                  (1.0, 1.0, 2.0)),
                 (toy_4d_spec(), [lambda *xs: 1.0], (1.0, 1.0, 1.0, 0.5))):
        st = solve_goursat_nd(*args)
        ref, worst = scalar_oracle(*args)
        for got, want in zip(st.fields, ref):
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert st.alt_residual == worst
    # the first and the last level of the third band, each holding two faulty
    # sites of which the lexicographically first is reported
    for level in (2 * size + 1, 3 * size):
        first, second = (level // 2, level - level // 2), (level // 2 + 1, level - level // 2 - 1)
        with pytest.raises(BlowUpError) as exc:
            solve_goursat_nd(grid_spec(blow=[second, first]), [lambda x, y: 0.0], (60.0, 60.0))
        assert exc.value.field_name == "a_0" and exc.value.site == tuple(map(float, first))
        with pytest.raises(CompatibilityError) as exc:
            solve_goursat_nd(grid_spec(wrong=[second, first]), [lambda x, y: 0.0], (60.0, 60.0))
        assert exc.value.site == tuple(map(float, first))
        assert str(exc.value) == (f"incompatible right-hand sides: propagation mismatch 1.000e-03 "
                                  f"at site {first} (field 0, directions 0/1)")
        # a blow-up and a mismatch on one level: the blow-up's pair (0, 0) runs first
        with pytest.raises(BlowUpError) as exc:
            solve_goursat_nd(grid_spec(blow=[second], wrong=[first]), [lambda x, y: 0.0],
                             (60.0, 60.0))
        assert exc.value.site == tuple(map(float, second))


@pytest.mark.parametrize("bad, shown", [
    (lambda *xs: np.array([1.0, 2.0]), "array([1., 2.])"),
    (lambda *xs: np.array([1.0]), "array([1.])"),
    (lambda *xs: None, "array(None, dtype=object)"),
    (lambda *xs: 1.0 + 0.0j, "array(1.+0.j)"),
    (lambda *xs: np.complex128(0.5 + 2.0j), "array(0.5+2.j)"),
    (lambda *xs: "0.5", "array('0.5', dtype='<U3')"),
], ids=["pair", "length-one", "none", "complex", "numpy-complex", "string"])
def test_solve_refuses_data_that_is_not_a_real_scalar(bad, shown):
    # named by field and site before any level is solved; a bare TypeError
    # (or a silently dropped imaginary part) came from float() before
    calls = []
    spec = sine_gordon_2d_spec(SchemeKind.HIROTA, 2.0**-3)
    spec = replace(spec, rhs={key: (lambda s, f=f: calls.append(1) or f(s))
                              for key, f in spec.rhs.items()})
    data = [A0, lambda x, y: bad(x, y) if y == 0.25 else 1.0]
    with pytest.raises(ValueError) as exc:
        solve_goursat_nd(spec, data, 1.0)
    assert str(exc.value) == f"a_1 data at (0.0, 0.25) is not a real scalar: {shown}"
    assert calls == []


def test_solve_refuses_a_data_list_of_the_wrong_length():
    spec = sine_gordon_3d_spec(1.0, 2.0**-3)
    for data in ([A0, B0], [A0, B0, theta0_layers([0.5]), A0], []):
        with pytest.raises(ValueError, match=f"^{len(data)} data callables for 3 fields$"):
            solve_goursat_nd(spec, data, (1.0, 1.0, 1.0))
    # integer and boolean scalars are real values
    st = solve_goursat_nd(spec, [lambda *xs: 1, lambda *xs: np.int32(2), lambda *xs: True],
                          (1.0, 1.0, 1.0))
    assert st.fields[0][0, 0, 0] == 1.0 and st.fields[2][0, 0, 0] == 1.0


def test_solve_has_no_tolerance_argument():
    # the alternative assignments are held to goursat.COMPAT_TOL, not to a
    # per-call bound
    spec = sine_gordon_2d_spec(SchemeKind.HIROTA, 0.25)
    with pytest.raises(TypeError, match="check_tol"):
        solve_goursat_nd(spec, [A0, lambda x, y: B0(x, y)], 1.0, check_tol=1e-3)


def test_single_field_full_evolution():
    # one field evolving in all three directions with zero right-hand sides
    # stays constant on the whole box
    spec = SystemSpecND(
        evol=(frozenset({0, 1, 2}),),
        rhs={(0, i): (lambda s: 0.0) for i in range(3)},
        deps={(0, i): frozenset({0}) for i in range(3)},
        eps=(0.5, 0.5, 1.0),
    )
    st = solve_goursat_nd(spec, [lambda x, y, z: 4.25], (1.0, 1.0, 2.0))
    assert st.fields[0].shape == (3, 3, 3)
    assert np.all(st.fields[0] == 4.25)
    assert st.alt_residual == 0.0


def test_solve_blowup_detection():
    spec = SystemSpecND(
        evol=(frozenset({0}),),
        rhs={(0, 0): lambda s: np.where(np.asarray(s[0]) > 1.5, np.inf, 1.0)},
        deps={(0, 0): frozenset({0})},
        eps=(0.5, 0.5),
    )
    with pytest.raises(BlowUpError) as exc:
        solve_goursat_nd(spec, [lambda x, y: 1.2], (2.0, 2.0))
    assert exc.value.field_name == "a_0"
    assert exc.value.site == (1.0, 0.0)


def test_solve_refuses_non_finite_data_at_its_site():
    # a_0 is read on the x-axis and a_1 on the y-axis, before any level is solved
    spec = sine_gordon_2d_spec(SchemeKind.HIROTA, 2.0**-3)
    for data, name, site in (([lambda x, y: np.nan if x > 0.3 else 0.0, B0], "a_0", (0.375, 0.0)),
                             ([A0, lambda x, y: np.inf if y == 0.5 else 1.0], "a_1", (0.0, 0.5))):
        with pytest.raises(BlowUpError) as exc:
            solve_goursat_nd(spec, data, 1.0)
        assert exc.value.field_name == name and exc.value.site == site


def test_state_csv_roundtrip(tmp_path):
    spec = sine_gordon_3d_spec(1.0, 2.0**-3)
    st = solve_goursat_nd(spec, [A0, B0, theta0_layers([0.5])], (1.0, 1.0, 1.0))
    for k in range(3):
        path = tmp_path / f"field{k}.csv"
        save_state_csv(st, path, k)
        arr, eps, r = load_state_csv(path)
        assert np.array_equal(arr, st.fields[k])
        assert eps == spec.eps
        assert r == (1.0, 1.0, 1.0)


def test_state_csv_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("nope\n")
    with pytest.raises(ValueError, match="metadata"):
        load_state_csv(path)
    path.write_text("# field=0 eps=0.5,0.5 r=1,1\ni1,value\n0,1.0\n")
    with pytest.raises(ValueError, match="dimension"):
        load_state_csv(path)
    path.write_text("# field=0 eps=0.5,0.5 r=1,1\ni1,i2,value\n0,0,1.0\n1,1,2.0\n")
    with pytest.raises(ValueError, match="box"):
        load_state_csv(path)
    for meta, key in (("# field=0 eps=0.5,0.5", "r="), ("# field=0 r=1,1", "eps=")):
        path.write_text(meta + "\ni1,i2,value\n0,0,1.0\n")
        with pytest.raises(ValueError, match=f"bad.csv: metadata line lacks {key}"):
            load_state_csv(path)
    # the rows must match the metadata: one eps and r per axis, i1..id
    # columns, and n_i or n_i + 1 entries per axis (n_i = r_i/eps_i)
    box = "0,0,1.0\n0,1,2.0\n1,0,3.0\n1,1,4.0\n"  # 2 x 2 entries
    for text, match in [
        ("# field=0 eps=0.5,0.5 r=1\ni1,i2,value\n", "bad.csv: grid dimension 2 does not match"),
        ("# field=0 eps=0.5 r=1,1\ni1,i2,value\n", "bad.csv: grid dimension 2 does not match"),
        ("# field=0 eps=0.5,0.5 r=1,1\nfoo,bar,baz\n", "bad.csv: unexpected header 'foo,bar,baz'"),
        ("# field=0 eps=0.5,0.5 r=1,1\ni2,i1,value\n", "unexpected header"),
        ("# field=0 eps=abc,0.5 r=1,1\ni1,i2,value\n", "bad.csv: metadata eps=abc,0.5 is not numeric"),
        ("# field=0 eps=0.5,0.5 r=1,x\ni1,i2,value\n", "bad.csv: metadata r=1,x is not numeric"),
        ("# field=0 eps=0.25,0.5 r=1,1\ni1,i2,value\n", "bad.csv: axis 0 has 2 entries"),
        ("# field=0 eps=0.5,0.3 r=1,1\ni1,i2,value\n", "bad.csv: r/eps on axis 1 .* not a positive"),
    ]:
        path.write_text(text + box)
        with pytest.raises(ValueError, match=match):
            load_state_csv(path)
    path.write_text("# field=0 eps=0.5,0.5 r=1,0.5\ni1,i2,value\n" + box)
    assert load_state_csv(path)[0].shape == (2, 2)  # n = (2, 1)


@pytest.mark.parametrize(
    "rows, match",
    [
        ("0,0,1.0\n0,1,2.0\n-1,0,3.0\n", "negative index \\(-1, 0\\)"),
        ("0,0,1.0\n0,1,2.0\n0,1,2.0\n", "duplicate rows for index \\(0, 1\\)"),
        ("", "no data rows"),
        ("0,0,1.0\n0,1\n", "does not have 3 columns"),
        # int() and float() take '1_0' and '2_0', np.loadtxt does not: the row is named
        ("0,0,1.0\n0,1_0,2.0\n", "row '0,1_0,2.0' is not 2 integer indices and a value$"),
        ("0,0,1.0\n0,1,2_0\n", "row '0,1,2_0' is not 2 integer indices and a value$"),
    ],
    ids=["negative-index", "duplicate-row", "header-only", "short-row", "digit-group-index",
         "digit-group-value"],
)
def test_state_csv_rejects_malformed_rows(tmp_path, rows, match):
    path = tmp_path / "bad.csv"
    path.write_text("# field=0 eps=0.5,0.5 r=0.5,1\ni1,i2,value\n" + rows)
    with pytest.raises(ValueError, match=match):
        load_state_csv(path)
