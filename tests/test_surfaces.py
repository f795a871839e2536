"""Tests for surface construction, validation, Backlund towers, and OBJ export."""

import tracemalloc

import numpy as np
import pytest

from ksurf import frames, goursat, sinegordon, surfaces
from ksurf.frames import ZeroCurvatureError, propagate_frame
from ksurf.goursat import EdgeField2, GoursatData2, LatticeDomain2, solve_goursat_2d
from ksurf.harness import demo_data, zero_data
from ksurf.sinegordon import (
    BacklundParam,
    SchemeKind,
    hirota_backlund_system,
    hirota_system,
    naive_system,
    reconstruct_phi,
    solve_goursat_3d,
)
from ksurf.surfaces import (
    SurfaceMesh,
    _params,
    _rotation,
    _tower,
    associated_family,
    backlund_step_norms,
    backlund_surface,
    backlund_two_route_residual,
    build_surface,
    ell_xy,
    export_obj,
    load_obj_points,
    solve_backlund_chain,
    surface_from_fields,
    validate_k_surface,
)
from oracles import conjugation_rotation, layer_by_layer, two_path_layers, validate_k_surface_det

MIXED_CHAIN = [(1.0, 0.5), (0.5, -0.25), (2.0, 0.1)]
CONSTANT_CHAIN = [(0.8, 0.5), (0.8, -0.3), (0.8, 0.1)]


@pytest.fixture(scope="module")
def dom():
    return LatticeDomain2.from_k(1.0, 5)


@pytest.fixture(scope="module")
def mesh(dom):
    return build_surface(demo_data(), dom)


@pytest.fixture(scope="module")
def phi(dom):
    sol = solve_goursat_2d(hirota_system(), demo_data(), dom)
    a0, b0 = demo_data().sample(dom)
    return reconstruct_phi(sol, float(b0[0]), SchemeKind.HIROTA)


def test_ell_factors():
    lx, ly = ell_xy(0.25, 1.0)
    assert lx == ly == pytest.approx(1.0 / 1.015625, abs=1e-16)
    lx, ly = ell_xy(0.125, 2.0)
    assert lx == pytest.approx(2.0 / (1.0 + 0.125**2), abs=1e-16)
    assert ly == pytest.approx(0.5 / (1.0 + 0.125**2 / 16.0), abs=1e-16)


def test_build_surface_basics(mesh, dom):
    assert mesh.points.shape == (dom.n + 1, dom.n + 1, 3)
    assert mesh.n == dom.n
    assert np.abs(mesh.points[0, 0]).max() == 0.0  # origin maps to 0
    assert np.isfinite(mesh.points).all()
    assert mesh.bt_chain == ()
    assert not hasattr(mesh, "scheme")  # surfaces are Hirota-only


def test_build_surface_deterministic(mesh, dom):
    again = build_surface(demo_data(), dom)
    assert np.array_equal(mesh.points, again.points)


def test_build_surface_rejects_naive(dom):
    # Hirota-only by signature: there is no scheme to pass
    with pytest.raises(TypeError, match="scheme"):
        build_surface(demo_data(), dom, scheme=SchemeKind.NAIVE)


def test_surface_from_fields_checks(dom):
    naive_sol = solve_goursat_2d(naive_system(), demo_data(), dom)
    with pytest.raises(ZeroCurvatureError):
        surface_from_fields(naive_sol, 1.0)
    hirota_sol = solve_goursat_2d(hirota_system(), demo_data(), dom)
    with pytest.raises(ValueError, match="lambda"):
        surface_from_fields(hirota_sol, -1.0)


def test_surface_from_fields_rejects_nan_cell():
    # a NaN inside the lattice never reaches the bottom-row stream; its cell
    # residual is NaN, which must count as failing, not be skipped
    dom = LatticeDomain2.from_k(1.0, 4)
    sol = solve_goursat_2d(hirota_system(), demo_data(), dom)
    sol.a[3, 5] = np.nan
    with pytest.raises(ZeroCurvatureError) as exc:
        surface_from_fields(sol, 1.0)
    assert np.isnan(exc.value.residual)
    assert exc.value.cell == (3 * dom.eps, 4 * dom.eps)  # the first cell using a[3, 5]


def test_k_surface_properties(mesh, phi, dom):
    rep = validate_k_surface(mesh, phi)
    assert rep.interior_sites == (dom.n - 1) ** 2
    assert rep.edge <= 1e-9  # measured ~1e-13
    assert rep.planarity <= 1e-9
    assert rep.angle <= 1e-9
    assert rep.angle_sum <= 1e-9


def test_validator_detects_broken_mesh(mesh, phi):
    rng = np.random.default_rng(7)
    noisy = SurfaceMesh(
        mesh.points + rng.normal(scale=1e-3, size=mesh.points.shape),
        mesh.eps,
        mesh.r,
        mesh.lam,
    )
    rep = validate_k_surface(noisy, phi)
    assert rep.planarity > 1e-4  # measured ~0.6
    assert rep.edge > 1e-4


def _hirota_phi(fields):
    return reconstruct_phi(fields, fields.b[0, 0], SchemeKind.HIROTA)


def _assert_matches_det_oracle(mesh, phi):
    rep, ref = validate_k_surface(mesh, phi), validate_k_surface_det(mesh, phi)
    assert (rep.edge, rep.angle, rep.angle_sum, rep.interior_sites) == (
        ref.edge, ref.angle, ref.angle_sum, ref.interior_sites)
    # closed-form triple products against LAPACK det: the roundoff digits only
    assert abs(rep.planarity - ref.planarity) <= 1e-14 + 1e-12 * ref.planarity


@pytest.mark.parametrize("lam", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("k", [1, 2, 3, 6, 8])
def test_validator_matches_det_oracle(k, lam):
    # on a noisy mesh and on every layer of the 3-step tower, each with its
    # own angle field
    dom = LatticeDomain2.from_k(1.0, k)
    chain = _params(MIXED_CHAIN)
    sol = solve_backlund_chain(demo_data(), dom, chain)
    a, b = sol.a, sol.b
    tower = _tower(EdgeField2(a[0], b[0], dom), lam, chain, sol.theta, sol.cross)
    for m, a_z, b_z in zip(tower, a, b):
        _assert_matches_det_oracle(m, _hirota_phi(EdgeField2(a_z, b_z, dom)))
    rng = np.random.default_rng(k)
    scale = 1e-3 * dom.eps * min(ell_xy(dom.eps, lam))
    noisy = SurfaceMesh(tower[0].points + rng.normal(scale=scale, size=tower[0].points.shape),
                        dom.eps, dom.r, lam)
    _assert_matches_det_oracle(noisy, _hirota_phi(EdgeField2(a[0], b[0], dom)))


K4_NAN_CASES = [
    # (points site, phi site, residuals fed by the NaN)
    ((5, 0), None, {"edge", "planarity", "angle", "angle_sum"}),
    ((0, 5), None, {"edge", "planarity", "angle", "angle_sum"}),
    ((5, 5), None, {"edge", "planarity", "angle", "angle_sum"}),
    ((0, 0), None, {"edge"}),  # a corner is in no interior star
    (None, (0, 5), {"angle"}),
    (None, (5, 0), {"angle"}),
    (None, (5, 5), {"angle"}),
    (None, (0, 0), set()),  # phi at a corner predicts no angle
]


@pytest.mark.parametrize("pt, ph, fed", K4_NAN_CASES,
                         ids=[f"{'points' if pt else 'phi'}{pt or ph}" for pt, ph, _ in K4_NAN_CASES])
def test_validator_propagates_nan(pt, ph, fed):
    # a NaN the validator reads makes the residual it feeds NaN; the others
    # keep their bits
    dom = LatticeDomain2.from_k(1.0, 4)
    fields = solve_goursat_2d(hirota_system(), demo_data(), dom)
    mesh, phi = _tower(fields, 1.0)[0], _hirota_phi(fields)
    clean = validate_k_surface(mesh, phi)
    if pt is not None:
        mesh.points[pt] = np.nan
    if ph is not None:
        phi.phi[ph] = np.nan
    rep = validate_k_surface(mesh, phi)
    for name in ("edge", "planarity", "angle", "angle_sum"):
        if name in fed:
            assert np.isnan(getattr(rep, name)), name
        else:
            assert getattr(rep, name) == getattr(clean, name), name
    assert rep.interior_sites == clean.interior_sites


def test_validator_memory():
    # traced peak at k = 8: 22.4 MB with np.linalg.det on interleaved xyz,
    # 6.9 MB measured on the coordinate planes in one band per core, 2.2 MB
    # in tiles of rows on 2 cores
    dom = LatticeDomain2.from_k(1.0, 8)
    fields = solve_goursat_2d(hirota_system(), demo_data(), dom)
    mesh, phi = _tower(fields, 1.0)[0], _hirota_phi(fields)
    tracemalloc.start()
    try:
        validate_k_surface(mesh, phi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3e6


def test_validator_refuses_a_phi_of_another_lattice(monkeypatch):
    # a k = 8 mesh against a k = 9 phi is refused by its shapes, before any band runs
    mesh = build_surface(demo_data(), LatticeDomain2.from_k(1.0, 8))
    dom9 = LatticeDomain2.from_k(1.0, 9)
    phi9 = reconstruct_phi(solve_goursat_2d(hirota_system(), demo_data(), dom9), 1.0,
                           SchemeKind.HIROTA)
    monkeypatch.setattr(surfaces, "_bands", lambda *args: pytest.fail("a band ran"))
    with pytest.raises(ValueError, match=r"\(257, 257, 3\).*\(513, 513\).*different lattices"):
        validate_k_surface(mesh, phi9)


def test_step_norms_refuse_meshes_of_two_lattices():
    lo, hi = (build_surface(demo_data(), LatticeDomain2.from_k(1.0, k)) for k in (4, 5))
    with pytest.raises(ValueError, match=r"\(17, 17, 3\).*\(33, 33, 3\).*different lattices"):
        backlund_step_norms(lo, hi)
    with pytest.raises(ValueError, match="different lattices"):
        backlund_step_norms(hi, lo)


def test_small_mesh_validation():
    dom1 = LatticeDomain2(1.0, 1.0)
    data1 = GoursatData2(a0=lambda x: 0.3, b0=lambda y: 0.2)
    mesh1 = build_surface(data1, dom1)
    sol1 = solve_goursat_2d(hirota_system(), data1, dom1)
    ph1 = reconstruct_phi(sol1, 0.2, SchemeKind.HIROTA)
    rep = validate_k_surface(mesh1, ph1)
    assert rep.interior_sites == 0
    assert rep.edge <= 1e-12 and rep.planarity == 0.0 and rep.angle == 0.0


def test_degenerate_data_smoke(dom):
    # constant-angle data: the sweep and immersion stay finite and valid
    data = GoursatData2(a0=lambda x: 0.0, b0=lambda y: np.pi / 2)
    m = build_surface(data, dom)
    assert np.isfinite(m.points).all()
    sol = solve_goursat_2d(hirota_system(), data, dom)
    ph = reconstruct_phi(sol, np.pi / 2, SchemeKind.HIROTA)
    rep = validate_k_surface(m, ph)
    assert rep.edge <= 1e-9 and rep.angle <= 1e-9


def test_associated_family(dom):
    meshes = associated_family(demo_data(), dom, [0.5, 1.0, 2.0])
    assert [m.lam for m in meshes] == [0.5, 1.0, 2.0]
    a0, b0 = demo_data().sample(dom)
    sol = solve_goursat_2d(hirota_system(), demo_data(), dom)
    ph = reconstruct_phi(sol, float(b0[0]), SchemeKind.HIROTA)
    for m in meshes:
        rep = validate_k_surface(m, ph)
        assert rep.edge <= 1e-9  # lambda-scaled targets, measured ~2e-13
        assert rep.planarity <= 1e-9
        assert rep.angle <= 1e-9  # angles are lambda-independent
    # the family members are genuinely different immersions
    gap = np.sqrt(np.sum((meshes[0].points - meshes[2].points) ** 2, axis=-1))
    assert gap.max() > 1e-3  # measured 2.5
    # lambda = 1 member of the family is the plain surface, bitwise
    single = associated_family(demo_data(), dom, [1.0])[0]
    assert np.array_equal(single.points, build_surface(demo_data(), dom).points)


@pytest.mark.parametrize("lam", [1e-20, 1e-8, 1e-3, 1e3, 1e20])
def test_far_lambda_surfaces_stay_valid(dom, phi, lam):
    # the lambda-derivatives of Ud and Vd must be evaluated without
    # cancelling terms for the Sym points to keep precision far from lambda = 1
    rep = validate_k_surface(build_surface(demo_data(), dom, lam), phi)
    assert max(rep.edge, rep.planarity, rep.angle, rep.angle_sum) <= 1e-9  # measured 1.5e-10


def test_associated_family_validation(dom):
    with pytest.raises(ValueError, match="lambda"):
        associated_family(demo_data(), dom, [1.0, 0.0])
    with pytest.raises(ValueError, match="lambda"):
        associated_family(demo_data(), dom, [-2.0])


def test_backlund_surface_tower(dom):
    chain = [BacklundParam(1.0, 0.5), BacklundParam(2.0, -0.25)]
    tower = backlund_surface(demo_data(), dom, chain)
    assert len(tower) == 3
    assert tower[0].bt_chain == ()
    assert tower[1].bt_chain == (chain[0],)
    assert tower[2].bt_chain == (chain[0], chain[1])
    assert np.array_equal(tower[0].points, build_surface(demo_data(), dom).points)
    # every Backlund step moves each point by the same distance
    lam = 1.0
    for z, p in enumerate(chain):
        norms = backlund_step_norms(tower[z], tower[z + 1])
        expected = 2.0 * lam * p.alpha / (p.alpha**2 + lam**2)
        assert np.abs(norms - expected).max() <= 1e-9 * expected
        assert norms.std() / norms.mean() <= 1e-9  # measured ~1e-16
        # the plane-wise norm sums the squares left to right, as np.sum does
        d = tower[z + 1].points - tower[z].points
        assert np.array_equal(norms, np.sqrt(np.sum(d**2, axis=-1)))


def test_backlund_surface_empty_chain(dom):
    tower = backlund_surface(demo_data(), dom, [])
    assert len(tower) == 1
    assert np.array_equal(tower[0].points, build_surface(demo_data(), dom).points)


def _never(*args, **kwargs):
    raise AssertionError("solved or swept beyond memory")


@pytest.mark.parametrize("chain", [(), ((1.0, 0.5),), tuple(MIXED_CHAIN)])
def test_tower_points_refused_before_allocation(monkeypatch, planned, chain):
    # one plan sizes the whole tower, its layered solve and then its R + 1
    # surfaces, before any layer is solved: n = 8, admitted at its figure and
    # refused one byte less
    dom, layers = LatticeDomain2.from_k(1.0, 3), len(chain) + 1
    need = planned(lambda: backlund_surface(demo_data(), dom, chain))
    assert need >= 24 * 81 * layers  # the R + 1 point arrays
    monkeypatch.setattr(goursat, "_available_bytes", lambda: need)
    assert len(backlund_surface(demo_data(), dom, chain)) == layers
    monkeypatch.setattr(goursat, "_available_bytes", lambda: need - 1)
    monkeypatch.setattr(goursat, "_sweep", _never)
    monkeypatch.setattr(sinegordon, "_sweep", _never)
    with pytest.raises(ValueError, match=f" n = 8 steps needs {need} bytes for .* and then its "
                                         f"{layers} surfaces, more than the {need - 1} bytes"):
        backlund_surface(demo_data(), dom, chain)


@pytest.mark.parametrize("call, what", [
    (lambda fields: propagate_frame(fields, 1.0), "a frame on n = 8 steps needs {} bytes for "
                                                   "Psi and dPsi"),
    (lambda fields: backlund_two_route_residual(demo_data(), fields.domain, MIXED_CHAIN),
     "a layered solve on n = 8 steps needs {} bytes for 4 field and 3 theta layers and then its "
     "4 surfaces"),
], ids=["propagate_frame", "two_route"])
def test_frame_arrays_refused_before_allocation(monkeypatch, planned, call, what):
    # the frame of propagate_frame, and both routes of the two-route residual
    # with the layered solve before them, are sized by one plan before
    # anything is allocated: n = 8, admitted at its figure, refused one byte less
    fields = solve_goursat_2d(hirota_system(), demo_data(), LatticeDomain2.from_k(1.0, 3))
    need = planned(lambda: call(fields))
    monkeypatch.setattr(goursat, "_available_bytes", lambda: need)
    call(fields)
    monkeypatch.setattr(goursat, "_available_bytes", lambda: need - 1)
    monkeypatch.setattr(frames, "_cell_residuals", _never)  # the first block's work
    monkeypatch.setattr(sinegordon, "_sweep", _never)
    with pytest.raises(ValueError, match=f"{what.format(need)}, more than the {need - 1} bytes"):
        call(fields)


def test_backlund_surface_rejects_naive(dom):
    # Hirota-only by signature: there is no scheme to pass
    for solve in (backlund_surface, solve_backlund_chain):
        with pytest.raises(TypeError, match="scheme"):
            solve(demo_data(), dom, [(1.0, 0.5)], scheme=SchemeKind.NAIVE)


def test_backlund_zero_data_step(dom):
    # vacuum seed: theta stays 0, the step direction is globally constant
    tower = backlund_surface(zero_data(), dom, [(1.0, 0.0)])
    norms = backlund_step_norms(tower[0], tower[1])
    assert np.abs(norms - 1.0).max() <= 1e-10  # 2*1*1/(1+1) = 1
    diffs = tower[1].points - tower[0].points
    assert np.abs(diffs - diffs[0, 0]).max() <= 1e-10


def test_backlund_chain_tuples_accepted(dom):
    sol = solve_backlund_chain(demo_data(), dom, [(1.0, 0.5)])
    assert len(sol.a) == len(sol.b) == 2 and len(sol.theta) == 1
    assert sol.cross_residual <= 1e-12
    empty = solve_backlund_chain(demo_data(), dom, [])
    assert len(empty.a) == 1 and empty.theta == [] and empty.cross_residual == 0.0


def _count_solves(monkeypatch):
    import ksurf.goursat
    import ksurf.sinegordon
    import ksurf.surfaces

    calls = []
    sweep = ksurf.sinegordon._sweep

    def counting(rhs, data, dom, every, a, b):
        calls.append(len(data[0]))  # the layers stepped together
        return sweep(rhs, data, dom, every, a, b)

    def never(*args):
        raise AssertionError("a layer solved on its own")

    monkeypatch.setattr(ksurf.sinegordon, "_sweep", counting)
    monkeypatch.setattr(ksurf.goursat, "_sweep", counting)  # an empty chain's one-layer solve
    monkeypatch.setattr(ksurf.surfaces, "solve_goursat_2d", never)
    return calls


@pytest.mark.parametrize("steps", [0, 1, 3])
def test_backlund_chain_solves_each_layer_once(monkeypatch, dom, steps):
    # all R + 1 layers in one stacked sweep; the tower stacks only the R
    # layers its theta lives on (layer 0 alone for no steps)
    calls = _count_solves(monkeypatch)
    chain = MIXED_CHAIN[:steps]
    assert len(solve_backlund_chain(demo_data(), dom, chain).a) == steps + 1
    sol = solve_goursat_3d(hirota_backlund_system(0.8), demo_data(), [t for _, t in chain], dom)
    assert sol.layers == steps and len(sol.a) == steps + 1
    assert len(backlund_surface(demo_data(), dom, chain)) == steps + 1
    assert calls == [steps + 1, steps + 1, max(steps, 1)]


def test_backlund_chain_constant_alpha_matches_3d_solve(dom):
    theta0 = [0.5, -0.3, 0.1]
    sol = solve_goursat_3d(hirota_backlund_system(0.8), demo_data(), theta0, dom)
    chain = solve_backlund_chain(demo_data(), dom, [(0.8, t) for t in theta0])
    for name in ("a", "b", "theta"):
        got, ref = getattr(chain, name), getattr(sol, name)
        assert len(got) == len(ref)
        assert all(np.array_equal(x, y) for x, y in zip(got, ref))
    assert chain.cross == sol.cross


@pytest.mark.parametrize("k", [1, 2, 3, 6])
def test_backlund_chain_matches_two_path_oracle(k):
    # theta from its one defining path, checked per site, is bitwise the theta
    # of the two-path propagation, and so are the fields of every layer
    dom = LatticeDomain2.from_k(1.0, k)
    got = solve_backlund_chain(demo_data(), dom, MIXED_CHAIN)
    ref = two_path_layers(hirota_system(), _params(MIXED_CHAIN), demo_data(), dom)
    for layers, want in zip((got.a, got.b, got.theta), ref[:3]):
        assert len(layers) == len(want)
        assert all(np.array_equal(x, y) for x, y in zip(layers, want))
    assert got.cross_residual <= 1e-12 and ref[3] <= 1e-12  # measured <= 5e-15 at k <= 8


def _bits(x):
    return np.asarray(x).view(np.int64)


@pytest.mark.parametrize("chain", [MIXED_CHAIN, CONSTANT_CHAIN, []],
                         ids=["mixed", "constant", "empty"])
@pytest.mark.parametrize("domain", [LatticeDomain2.from_k(1.0, k) for k in (1, 2, 3, 6, 8)]
                         + [LatticeDomain2(0.5, 0.5)], ids=lambda d: f"n{d.n}")
def test_stacked_layers_match_layer_by_layer_oracle(domain, chain):
    # the pass along the axes and the one stacked sweep keep the bits of the
    # layers solved one after another: fields, theta and each step's check
    got = sinegordon._solve_layers(hirota_system(), _params(chain), demo_data(), domain)
    want = layer_by_layer(hirota_system(), _params(chain), demo_data(), domain)
    for name in ("a", "b", "theta"):
        layers, ref = getattr(got, name), getattr(want, name)
        assert len(layers) == len(ref)
        assert all(np.array_equal(_bits(x), _bits(y)) for x, y in zip(layers, ref))
    assert got.cross == want.cross


@pytest.mark.parametrize("k", [3, 4, 5, 6, 8])
def test_tower_points_match_layer_by_layer_oracle(monkeypatch, k):
    # the tower solves layers 0..R-1 only, with the bits of the full solve:
    # fields, theta, each step's check and the points
    solved, solve = [], surfaces._solve_layers

    def recording(*args, **kwargs):
        solved.append(solve(*args, **kwargs))
        return solved[-1]

    monkeypatch.setattr(surfaces, "_solve_layers", recording)
    domain = LatticeDomain2.from_k(1.0, k)
    for chain in ([], MIXED_CHAIN[:1], MIXED_CHAIN):
        ref = layer_by_layer(hirota_system(), _params(chain), demo_data(), domain)
        params, R = _params(chain), len(chain)
        want = _tower(EdgeField2(ref.a[0], ref.b[0], domain), 1.0, params, ref.theta, ref.cross)
        got = backlund_surface(demo_data(), domain, params)
        sol = solved.pop()
        assert len(sol.a) == len(sol.b) == max(R, 1) and len(sol.theta) == R
        for name in ("a", "b", "theta"):
            assert all(np.array_equal(_bits(x), _bits(y))
                       for x, y in zip(getattr(sol, name), getattr(ref, name)))
        assert sol.cross == ref.cross
        assert len(got) == len(want) == R + 1
        for mesh, ref_mesh in zip(got, want):
            assert np.array_equal(_bits(mesh.points), _bits(ref_mesh.points))
            assert mesh.zcc_residual == ref_mesh.zcc_residual
            assert mesh.theta_cross_residual == ref_mesh.theta_cross_residual


def test_backlund_chain_single_cell():
    # n = 1: theta has one site off the y-axis, and the tower still closes
    dom = LatticeDomain2(0.5, 0.5)  # eps*alpha and eps/alpha stay below 2
    sol = solve_backlund_chain(demo_data(), dom, MIXED_CHAIN)
    assert [x.shape for x in sol.a] == [(1, 2)] * 4
    assert [t.shape for t in sol.theta] == [(2, 2)] * 3
    assert sol.cross_residual <= 1e-12
    tower = backlund_surface(demo_data(), dom, MIXED_CHAIN)
    assert len(tower) == 4 and all(m.n == 1 for m in tower)


def test_backlund_chain_checks_every_alpha(dom):
    # eps = 1/32 needs eps*alpha < 2: the third step's alpha = 64 is refused
    with pytest.raises(ValueError, match="admissible"):
        solve_backlund_chain(demo_data(), dom, [(1.0, 0.5), (2.0, 0.1), (64.0, 0.0)])


def test_backlund_two_route(dom):
    chain = [BacklundParam(1.0, 0.5), BacklundParam(0.5, -0.25)]
    for lam in (0.5, 1.0):
        assert backlund_two_route_residual(demo_data(), dom, chain, lam) <= 1e-8
    with pytest.raises(ValueError, match="nonempty"):
        backlund_two_route_residual(demo_data(), dom, [])


def test_dressing_rotation_matches_oracle():
    # the rotation read off the pair (p, q) of G equals the stacked
    # conjugation X -> G^-1 X G, for G any nonzero multiple of an SU(2) matrix
    rng = np.random.default_rng(5)
    for scale in 10.0 ** rng.uniform(-3.0, 3.0, 50):
        p, q = scale * (rng.normal(size=2) + 1j * rng.normal(size=2))
        g = np.array([[p, q], [-np.conj(q), np.conj(p)]])
        assert np.abs(_rotation(p, q) - conjugation_rotation(g)).max() <= 1e-14


def test_export_obj_quads(tmp_path, mesh, dom):
    path = tmp_path / "mesh.obj"
    export_obj(mesh, path)
    lines = path.read_text().splitlines()
    n = dom.n
    v_lines = [l for l in lines if l.startswith("v ")]
    f_lines = [l for l in lines if l.startswith("f ")]
    assert len(v_lines) == (n + 1) ** 2
    assert len(f_lines) == n * n
    pts = load_obj_points(path)
    assert np.array_equal(pts, mesh.points.reshape(-1, 3))  # 17g round trip
    meta = (tmp_path / "mesh.meta").read_text()
    assert f"eps={dom.eps:.17g}" in meta
    assert "lambda=1" in meta
    assert "scheme=hirota" in meta
    assert "bt_chain=\n" in meta


def test_export_obj_tiny_meshes(tmp_path):
    two = SurfaceMesh(np.arange(12, dtype=float).reshape(2, 2, 3), 1.0, 1.0, 1.0)
    path = tmp_path / "two.obj"
    export_obj(two, path)
    lines = path.read_text().splitlines()
    assert sum(l.startswith("v ") for l in lines) == 4
    assert [l for l in lines if l.startswith("f ")] == ["f 1 3 4 2"]

    point = SurfaceMesh(np.zeros((1, 1, 3)), 1.0, 1.0, 1.0)
    path0 = tmp_path / "point.obj"
    export_obj(point, path0)
    lines = path0.read_text().splitlines()
    assert sum(l.startswith("v ") for l in lines) == 1
    assert not any(l.startswith("f ") for l in lines)


def test_export_obj_meta_chain(tmp_path, dom):
    tower = backlund_surface(demo_data(), dom, [(1.0, 0.5), (2.0, -0.25)])
    path = tmp_path / "top.obj"
    export_obj(tower[-1], path)
    meta = (tmp_path / "top.meta").read_text()
    assert "bt_chain=1:0.5,2:-0.25" in meta
    fields = dict(line.split("=", 1) for line in meta.splitlines())
    zcc = float(fields["zcc_residual"])
    assert zcc == tower[-1].zcc_residual  # 17 digits round-trip
    assert 0.0 < zcc <= 1e-12  # the base fields' residual, measured ~5e-16
    cross = float(fields["theta_cross_residual"])
    assert cross == tower[-1].theta_cross_residual
    assert 0.0 < cross <= 1e-12  # worst theta check of both steps, measured ~1e-15


def test_tower_records_theta_cross_residual(dom):
    # mesh z holds the worst theta check of the z steps that built it
    tower = backlund_surface(demo_data(), dom, MIXED_CHAIN)
    cross = solve_backlund_chain(demo_data(), dom, MIXED_CHAIN).cross_residual
    assert tower[0].theta_cross_residual == 0.0
    got = [m.theta_cross_residual for m in tower]
    assert got == sorted(got) and got[-1] == cross
    assert build_surface(demo_data(), dom).theta_cross_residual == 0.0


def test_tower_stream_memory_beyond_points():
    # the stream holds O(n) frame planes per level: at k = 8 with the 3-step
    # chain the traced peak beyond its 4 meshes measured 0.82 MB in blocks of
    # lines (0.15 MB line by line)
    dom = LatticeDomain2.from_k(1.0, 8)
    chain = _params(MIXED_CHAIN)
    sol = solve_backlund_chain(demo_data(), dom, chain)
    fields = EdgeField2(sol.a[0], sol.b[0], dom)
    tracemalloc.start()
    try:
        tower = _tower(fields, 1.0, chain, sol.theta, sol.cross)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - sum(m.points.nbytes for m in tower) <= 1.5e6


def test_tower_frees_the_upper_layers_before_the_stream():
    # beside its 4 meshes the tower holds layer 0's fields, the theta layers
    # and the stream: at k = 8 with the 3-step chain the traced peak beyond
    # the meshes measured 3.3 MB, against 5.4 MB with the stacked fields of
    # layers 1 and 2 kept through the frame sweep
    dom = LatticeDomain2.from_k(1.0, 8)
    n = dom.n
    kept = 8 * (2 * n * (n + 1) + len(MIXED_CHAIN) * (n + 1) ** 2)
    backlund_surface(demo_data(), dom, MIXED_CHAIN)  # warm caches
    tracemalloc.start()
    try:
        tower = backlund_surface(demo_data(), dom, MIXED_CHAIN)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - sum(m.points.nbytes for m in tower) <= kept + 1.5e6
