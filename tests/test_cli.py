"""End-to-end tests for the ksurf command line."""

import tracemalloc
import warnings

import numpy as np
import pytest

from ksurf import goursat, harness, sinegordon
from ksurf.cli import main
from ksurf.goursat import (
    GoursatData2,
    LatticeDomain2,
    load_field_csv,
    save_field_csv,
    solve_goursat_2d,
)
from ksurf.harness import demo_data, load_report
from ksurf.sinegordon import SchemeKind, hirota_system, reconstruct_phi, system_for
from ksurf.surfaces import (
    build_surface,
    export_obj,
    load_obj_points,
    mesh_from_fields,
    validate_k_surface,
)


@pytest.fixture(autouse=True)
def run_in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_solve_writes_fields(tmp_path, capsys):
    assert main(["solve", "--k", "4"]) == 0
    out = capsys.readouterr().out
    assert "solved hirota on n = 16" in out
    a, eps, r = load_field_csv(tmp_path / "solve_a.csv")
    b, _, _ = load_field_csv(tmp_path / "solve_b.csv")
    ref = solve_goursat_2d(hirota_system(), demo_data(), LatticeDomain2.from_k(1.0, 4))
    assert np.array_equal(a, ref.a) and np.array_equal(b, ref.b)
    assert eps == 2.0**-4 and r == 1.0
    assert not (tmp_path / "solve_phi.csv").exists()


def test_solve_with_phi(tmp_path):
    assert main(["solve", "--k", "4", "--phi", "--out", "run"]) == 0
    phi, _, _ = load_field_csv(tmp_path / "run_phi.csv")
    assert phi.shape == (17, 17)
    assert np.isfinite(phi).all()


def write_tabulated(tmp_path, dom):
    """Demo data as "x value" files at the sites of dom; returns the --data value."""
    xs = np.arange(dom.n) * dom.eps
    for name, vals in (("a.txt", np.cos(2.0 * xs)), ("b.txt", 1.0 + np.sin(xs))):
        (tmp_path / name).write_text("".join(f"{x:.17g} {v:.17g}\n" for x, v in zip(xs, vals)))
    return "a.txt,b.txt"


@pytest.mark.parametrize("k", [1, 3, 8])
@pytest.mark.parametrize("source", ["demo", "tabulated"])
def test_phi_files_match_the_resampled_seed(tmp_path, capsys, k, source):
    # phi(0, 0) is the b0 sample the solve stored; for deterministic data a
    # fresh sampling gives the same value, so the files match byte for byte
    dom = LatticeDomain2.from_k(1.0, k)
    spec = "demo" if source == "demo" else write_tabulated(tmp_path, dom)
    data = demo_data() if source == "demo" else GoursatData2(
        *(np.loadtxt(tmp_path / f, usecols=1, ndmin=1) for f in ("a.txt", "b.txt")))
    for scheme in (SchemeKind.NAIVE, SchemeKind.HIROTA):  # Hirota last: surface below
        fields = solve_goursat_2d(system_for(scheme), data, dom)
        phi = reconstruct_phi(fields, float(data.sample(dom)[1][0]), scheme)
        assert main(["solve", "--k", str(k), "--data", spec, "--scheme", scheme.value,
                     "--phi", "--out", "got"]) == 0
        for name, p in (("a", fields.a), ("b", fields.b), ("phi", phi.phi)):
            save_field_csv(f"want_{name}.csv", p, dom)
            assert (tmp_path / f"got_{name}.csv").read_bytes() == \
                (tmp_path / f"want_{name}.csv").read_bytes()
    # surface: the OBJ does not read phi, the printed validation does
    mesh = mesh_from_fields(fields, 1.0)
    report = validate_k_surface(mesh, phi)
    export_obj(mesh, "want.obj")
    capsys.readouterr()
    assert main(["surface", "--k", str(k), "--data", spec, "--out", "got"]) == 0
    assert (f"residuals: edge {report.edge:.3e}, planarity {report.planarity:.3e}, "
            f"angle {report.angle:.3e}, angle sum {report.angle_sum:.3e} "
            f"({report.interior_sites} interior sites)\n") in capsys.readouterr().out
    for ext in ("obj", "meta"):
        assert (tmp_path / f"got.{ext}").read_bytes() == (tmp_path / f"want.{ext}").read_bytes()


def test_k_sets_eps_to_two_to_minus_k(tmp_path, capsys):
    """--k gives eps = 2^-k whatever r is, so n = r * 2^k."""
    assert main(["solve", "--r", "2", "--k", "3"]) == 0
    assert "solved hirota on n = 16" in capsys.readouterr().out
    a, eps, r = load_field_csv(tmp_path / "solve_a.csv")
    assert a.shape == (16, 17) and (eps, r) == (0.125, 2.0)
    assert (tmp_path / "solve_a.csv").read_text().startswith("# eps=0.125 r=2\n")


def test_solve_zero_data(tmp_path):
    assert main(["solve", "--k", "3", "--data", "zero", "--scheme", "naive"]) == 0
    a, _, _ = load_field_csv(tmp_path / "solve_a.csv")
    assert not a.any()


def test_solve_argument_errors(capsys):
    assert main(["solve", "--k", "4", "--eps", "0.125"]) == 1
    assert "error" in capsys.readouterr().err
    assert main(["solve", "--data", "garbage"]) == 1
    assert main(["solve", "--eps", "0.3"]) == 1  # r/eps not integer
    assert main(["solve", "--threads", "1"]) == 1
    assert "unrecognized arguments: --threads" in capsys.readouterr().err
    assert main(["bogus"]) == 1
    assert main([]) == 1


@pytest.mark.parametrize("flags", [["--r", "inf"], ["--r", "nan"], ["--eps", "inf"]])
def test_solve_non_finite_size_exits_one(capsys, flags):
    assert main(["solve", *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "finite" in err


def test_solve_underflowing_step_exits_one(capsys, tmp_path):
    out = str(tmp_path / "s")
    assert main(["solve", "--r", "1e-170", "--eps", "1e-170", "--out", out]) == 1
    assert capsys.readouterr().err.startswith("error: Hirota scheme step eps = 1e-170")


def test_smallest_hirota_step(capsys, tmp_path):
    # 4/eps^2 is finite from eps = 1.4916681462400417e-154 up: the check runs
    # there, and a solve below it is refused by name
    assert main(["check", "--alpha", "1", "--eps", "1.4916681462400417e-154",
                 "--samples", "100"]) == 0
    assert "over 100 samples (hirota)" in capsys.readouterr().out
    assert main(["solve", "--r", "1e-160", "--eps", "1e-160", "--out", str(tmp_path / "s")]) == 1
    assert capsys.readouterr().err == ("error: Hirota scheme step eps = 1e-160 is too small: "
                                       "4/eps^2 overflows\n")


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "solve" in capsys.readouterr().out
    assert main(["converge", "--help"]) == 0


def test_tabulated_data(tmp_path):
    dom = LatticeDomain2.from_k(1.0, 3)
    xs = np.arange(dom.n) * dom.eps
    a0 = np.cos(2.0 * xs)
    b0 = 1.0 + np.sin(xs)
    (tmp_path / "a.txt").write_text(
        "# a0 samples\n"
        + "".join(f"{x:.17g} {v:.17g}\n" for x, v in zip(xs, a0))
    )
    (tmp_path / "b.txt").write_text(
        "".join(f"{x:.17g} {v:.17g}\n" for x, v in zip(xs, b0))
    )
    assert main(["solve", "--k", "3", "--data", "a.txt,b.txt", "--out", "tab"]) == 0
    a, _, _ = load_field_csv(tmp_path / "tab_a.csv")
    ref = solve_goursat_2d(hirota_system(), demo_data(), dom)
    assert np.array_equal(a, ref.a)  # 17g samples reproduce the demo run


def test_tabulated_data_errors(tmp_path, capsys):
    (tmp_path / "short.txt").write_text("0 1.0\n0.125 1.0\n")
    assert main(["solve", "--k", "3", "--data", "short.txt,short.txt"]) == 1
    assert "8 data sites" in capsys.readouterr().err

    rows = [f"{i * 0.125:.17g} 1.0" for i in range(8)]
    rows[3] = "0.37 1.0"  # off-lattice x
    (tmp_path / "off.txt").write_text("\n".join(rows) + "\n")
    assert main(["solve", "--k", "3", "--data", "off.txt,off.txt"]) == 1
    assert "interpolation" in capsys.readouterr().err

    rows = [f"{i * 0.125:.17g} 1.0" for i in range(8)]
    rows[2], rows[3] = rows[3], rows[2]  # not increasing
    (tmp_path / "dec.txt").write_text("\n".join(rows) + "\n")
    assert main(["solve", "--k", "3", "--data", "dec.txt,dec.txt"]) == 1
    assert "increasing" in capsys.readouterr().err

    (tmp_path / "wide.txt").write_text("0 1.0 2.0\n")
    assert main(["solve", "--k", "3", "--data", "wide.txt,wide.txt"]) == 1

    rows = [f"{i * 0.125:.17g} 1.0" for i in range(8)]
    rows[4] = "0.5 x"  # not a number
    (tmp_path / "nan.txt").write_text("\n".join(rows) + "\n")
    assert main(["solve", "--k", "3", "--data", "nan.txt,nan.txt"]) == 1
    assert ("error: nan.txt:5: could not convert string to float: 'x'"
            in capsys.readouterr().err)

    # a non-finite x fails the lattice test by name: nan is false in every
    # comparison, and inf (in the last row, so still increasing) is within its
    # own relative tolerance of any site
    for row, x, site in ((3, "nan", "0.375"), (7, "inf", "0.875")):
        rows = [f"{i * 0.125:.17g} 1.0" for i in range(8)]
        rows[row] = f"{x} 1.0"
        (tmp_path / "x.txt").write_text("\n".join(rows) + "\n")
        assert main(["solve", "--k", "3", "--data", "x.txt,x.txt"]) == 1
        assert (f"error: x.txt: x = {x} does not match lattice site {site} "
                f"(no interpolation is performed)" in capsys.readouterr().err)


def test_blowup_exits_two(tmp_path, capsys):
    rows = [f"{i * 0.125:.17g} 1.0" for i in range(8)]
    rows[5] = "0.625 inf"
    (tmp_path / "inf.txt").write_text("\n".join(rows) + "\n")
    assert main(["solve", "--k", "3", "--data", "inf.txt,inf.txt"]) == 2
    assert "numerical failure" in capsys.readouterr().err


def test_surface_command(tmp_path, capsys):
    assert main(["surface", "--k", "4", "--out", "m"]) == 0
    out = capsys.readouterr().out
    assert "residuals:" in out and "interior sites" in out
    pts = load_obj_points(tmp_path / "m.obj")
    ref = build_surface(demo_data(), LatticeDomain2.from_k(1.0, 4))
    assert np.array_equal(pts, ref.points.reshape(-1, 3))
    meta = (tmp_path / "m.meta").read_text()
    assert "lambda=1" in meta


def test_surface_lambda(tmp_path):
    assert main(["surface", "--k", "4", "--lambda", "0.5", "--out", "fam"]) == 0
    pts = load_obj_points(tmp_path / "fam.obj")
    ref = build_surface(demo_data(), LatticeDomain2.from_k(1.0, 4), 0.5)
    assert np.array_equal(pts, ref.points.reshape(-1, 3))


def test_surface_solves_once(monkeypatch):
    import ksurf.cli
    import ksurf.goursat
    import ksurf.surfaces

    calls = []
    solve = ksurf.goursat.solve_goursat_2d

    def counting(*args, **kwargs):
        calls.append(args[2].n)
        return solve(*args, **kwargs)

    for mod in (ksurf.cli, ksurf.goursat, ksurf.surfaces):
        monkeypatch.setattr(mod, "solve_goursat_2d", counting)
    assert main(["surface", "--k", "3"]) == 0
    assert calls == [8]


@pytest.mark.parametrize("lam", ["1e-200", "1e-104", "1e104", "1e200"])
def test_surface_extreme_lambda_exits_one(tmp_path, capsys, lam):
    assert main(["surface", "--k", "3", "--lambda", lam, "--out", "x"]) == 1
    assert "lambda" in capsys.readouterr().err
    chain = ["--alpha", "1.0", "--theta0", "0.5"]
    assert main(["backlund", "--k", "3", "--lambda", lam, *chain, "--out", "y"]) == 1
    assert "lambda" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())  # no OBJ or .meta written


@pytest.mark.parametrize("lam", ["1e-3", "1e3"])
def test_surface_wide_lambda_is_finite(tmp_path, lam):
    assert main(["surface", "--k", "3", "--lambda", lam, "--out", "x"]) == 0
    assert np.isfinite(load_obj_points(tmp_path / "x.obj")).all()
    chain = ["--alpha", "1.0", "--theta0", "0.5"]
    assert main(["backlund", "--k", "3", "--lambda", lam, *chain, "--out", "y"]) == 0
    assert np.isfinite(load_obj_points(tmp_path / "y_layer1.obj")).all()


def test_surface_rejects_naive(capsys):
    # surface and backlund are Hirota-only: they have no --scheme flag
    assert main(["surface", "--k", "4", "--scheme", "naive"]) == 1
    assert "unrecognized arguments: --scheme naive" in capsys.readouterr().err
    assert main(["backlund", "--k", "3", "--alpha", "1", "--theta0", "0", "--scheme",
                 "hirota"]) == 1
    assert "unrecognized arguments: --scheme hirota" in capsys.readouterr().err


def test_backlund_command(tmp_path, capsys):
    assert (
        main(
            [
                "backlund",
                "--k",
                "4",
                "--alpha",
                "1.0",
                "--theta0",
                "0.5",
                "--alpha",
                "2.0",
                "--theta0",
                "-0.25",
                "--out",
                "tower",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "tower of 3 surfaces" in out
    assert "step 1:" in out and "step 2:" in out
    for z in range(3):
        assert (tmp_path / f"tower_layer{z}.obj").exists()
    meta = (tmp_path / "tower_layer2.meta").read_text()
    assert "bt_chain=1:0.5,2:-0.25" in meta
    assert "theta_cross_residual=" in meta
    assert "theta_cross_residual=0\n" in (tmp_path / "tower_layer0.meta").read_text()


def test_backlund_chain_file(tmp_path):
    (tmp_path / "chain.txt").write_text("1.0 0.5\n")
    assert main(["backlund", "--k", "4", "--bt-file", "chain.txt"]) == 0
    assert (tmp_path / "backlund_layer1.obj").exists()


def test_backlund_nan_theta0_is_a_blowup(capsys):
    assert main(["backlund", "--k", "3", "--alpha", "1", "--theta0", "nan"]) == 2
    err = capsys.readouterr().err
    assert "numerical failure" in err and "field 'theta'" in err
    assert "incompatible" not in err


@pytest.mark.parametrize("theta0", ["1e300", "1e17", "1048576"])
def test_backlund_oversized_theta0_exits_one(monkeypatch, capsys, theta0):
    # its float spacing would swallow every theta step: refused before any solve
    def never(*args):
        raise AssertionError("solved with an oversized theta0")

    monkeypatch.setattr(sinegordon, "_sweep", never)
    assert main(["backlund", "--k", "3", "--alpha", "1", "--theta0", theta0]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: theta0 = {float(theta0)!r} is too large for eps = 0.125")
    assert err.count("\n") == 1


def test_backlund_theta0_past_the_eps_one_half_limit_exits_one(capsys):
    # its rounding alone failed the theta cross check (exit 2, theta0 unnamed)
    theta0 = repr(float(np.nextafter(2.0**22, 0.0)))
    assert main(["backlund", "--k", "1", "--alpha", "1", "--theta0", theta0]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: theta0 = {theta0} is too large for eps = 0.5")
    assert err.count("\n") == 1


def test_surface_points_beyond_memory_exit_one(monkeypatch, capsys, tmp_path):
    # n = 8: fields of 1,152 bytes fit, points of 24 * 81 = 1,944 bytes do not
    monkeypatch.setattr(goursat, "_available_bytes", lambda: 24 * 81 - 1)
    assert main(["surface", "--k", "3"]) == 1
    assert capsys.readouterr().err == ("error: a tower of 1 surfaces on n = 8 steps needs 1944 "
                                       "bytes for its points, more than the 1943 bytes of "
                                       "available memory\n")
    assert not list(tmp_path.iterdir())


def _nan_naive_rhs(a, b, eps):
    # nan everywhere, with numpy's invalid-value warning unless it is silenced
    return np.sqrt(-1.0 - np.asarray(b) ** 2), np.asarray(a) + 0.0


@pytest.mark.parametrize("argv, err", [
    (["backlund", "--k", "3", "--alpha", "1", "--theta0", "inf"],
     "numerical failure: non-finite value in field 'theta' at site (0, 0)\n"),
    # the naive right-hand side is patched to give nan: so is the residual
    (["check", "--scheme", "naive", "--samples", "100"],
     "FAIL: residual nan exceeds 1e-09; the right-hand sides are not compatible\n"),
], ids=["backlund", "check"])
def test_non_finite_runs_print_only_their_named_line(monkeypatch, capsys, tmp_path, argv, err):
    # the failure is named once; numpy does not warn of the values behind it
    monkeypatch.setattr(sinegordon, "naive_rhs", _nan_naive_rhs)  # the backlund run is Hirota
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a RuntimeWarning would raise here
        assert main(argv) == 2
    assert capsys.readouterr().err == err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("alpha", ["1", "1e308"])
def test_check_overflowing_backlund_step_exits_one(capsys, alpha):
    # 2/eps overflows below eps = 1.112536929253601e-308: one named line, no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a RuntimeWarning would raise here
        assert main(["check", "--scheme", "naive", "--alpha", alpha, "--eps", "1e-309",
                     "--samples", "100"]) == 1
        assert main(["check", "--scheme", "naive", "--alpha", "1",
                     "--eps", "1.112536929253601e-308", "--samples", "100"]) == 0
    err = capsys.readouterr().err
    assert err == "error: Backlund step eps = 1e-309 is out of range: 2/eps = inf is not finite\n"


def test_check_overflowing_increments_exit_one(capsys):
    # eps = 1.5e-308 is below 2/alpha and 2/eps is finite, but xi = 2u of the
    # naive check reaches (4/eps) asin(eps alpha/2) = 2.3e308: refused by
    # name before any sample is evaluated, where it printed a nan residual
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a RuntimeWarning would raise here
        assert main(["check", "--scheme", "naive", "--alpha", "1e308", "--eps", "1.5e-308",
                     "--samples", "100"]) == 1
    assert capsys.readouterr().err == (
        "error: Backlund step eps = 1.5e-308 is out of range for alpha = 1e+308: its "
        "increments reach (4/eps) asin(eps alpha/2) = inf\n")
    # at alpha = 1 the two bounds are 2 and 1, and the run keeps its output
    assert main(["check", "--scheme", "naive", "--alpha", "1", "--eps", "1.5e-308",
                 "--samples", "100"]) == 0
    assert capsys.readouterr().out == (
        "alpha = 1      eps = 1.5e-308     residual = 1.174e-307\n"
        "max residual = 1.174e-307 over 100 samples (naive)\n")


# the largest alpha whose increment bound (4/eps) asin(eps alpha/2) is finite at eps = 1.5e-308
ALPHA_MAX = 8.322956178289367e307


@pytest.mark.parametrize("scheme", ["naive", "hirota"])
def test_check_increment_bound_boundary(capsys, scheme):
    # one ulp inside, the check runs (Hirota refuses eps = 1.5e-308 by its own
    # rule, 4/eps^2); one ulp outside, both refuse the increments; no warning
    argv = ["check", "--scheme", scheme, "--eps", "1.5e-308", "--samples", "100", "--alpha"]
    outside = repr(float(np.nextafter(ALPHA_MAX, np.inf)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a RuntimeWarning would raise here
        assert main([*argv, repr(ALPHA_MAX)]) == (0 if scheme == "naive" else 1)
        inside = capsys.readouterr()
        assert main([*argv, outside]) == 1
    if scheme == "naive":
        assert inside.err == "" and "max residual = 4.441e-16" in inside.out
    else:
        assert inside.err.startswith("error: Hirota scheme step eps = 1.5e-308 is too small")
    assert capsys.readouterr().err == (
        f"error: Backlund step eps = 1.5e-308 is out of range for alpha = {outside}: its "
        f"increments reach (4/eps) asin(eps alpha/2) = inf\n")


def test_backlund_layers_beyond_memory_exit_one(monkeypatch, capsys, tmp_path):
    # n = 8192 and 40 steps: the tower solves 40 field layers (not layer 40)
    # and 40 theta layers, 120 arrays of 8 (n+1)^2 bytes, with a mask of
    # (n+1)^2 bytes, and the cross check of two cores holds four temporaries
    # of a one-row tile each, 64.5 GB; 8 GiB hold one layer's fields
    def never(*args):
        raise AssertionError("solved beyond memory")

    monkeypatch.setattr(goursat, "_available_bytes", lambda: 2**33)
    monkeypatch.setattr(goursat, "_cores", lambda: 2)
    monkeypatch.setattr(sinegordon, "_sweep", never)
    monkeypatch.chdir(tmp_path)
    n = 8192
    need = (n + 1) ** 2 * (8 * (2 * 40 + 40) + 1) + 8 * 4 * 2 * n
    assert 16 * n * (n + 1) < 2**33 < need
    assert main(["backlund", "--k", "13", *["--alpha", "1", "--theta0", "0.5"] * 40]) == 1
    assert capsys.readouterr().err == (f"error: a layered solve on n = 8192 steps needs {need} "
                                       f"bytes for 40 field and 40 theta layers, more than the "
                                       f"8589934592 bytes of available memory\n")
    assert not list(tmp_path.iterdir())


def test_backlund_chain_errors(tmp_path, capsys):
    assert main(["backlund", "--k", "4"]) == 1  # no chain given
    assert main(["backlund", "--k", "4", "--alpha", "1.0"]) == 1  # no theta0
    (tmp_path / "chain.txt").write_text("1.0 0.5\n")
    assert (
        main(
            ["backlund", "--k", "4", "--bt-file", "chain.txt", "--alpha", "1.0"]
        )
        == 1
    )
    assert "not both" in capsys.readouterr().err
    (tmp_path / "chain.txt").write_text("1.0 0.5\n1.0 abc\n")
    assert main(["backlund", "--k", "4", "--bt-file", "chain.txt"]) == 1
    assert ("error: chain.txt:2: could not convert string to float: 'abc'"
            in capsys.readouterr().err)


def test_backlund_chain_file_non_finite_alpha_names_its_line(tmp_path, capsys, monkeypatch):
    # BacklundParam holds the one alpha rule, so the file's line is named
    monkeypatch.chdir(tmp_path)
    (tmp_path / "chain.txt").write_text("1.0 0.5\ninf 0.5\n")
    assert main(["backlund", "--k", "4", "--bt-file", "chain.txt"]) == 1
    assert capsys.readouterr().err == "error: chain.txt:2: alpha must be finite and > 0, got inf\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["chain.txt"]


def test_converge_command(tmp_path, capsys):
    assert (
        main(
            [
                "converge",
                "--kmin",
                "4",
                "--kmax",
                "6",
                "--kref",
                "9",
                "--out",
                "rep.csv",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "slope = " in out
    rep = load_report(tmp_path / "rep.csv")
    assert len(rep.rows) == 3
    assert 0.8 <= rep.slope <= 1.2
    assert [e for e, _ in rep.rows] == [2.0**-4, 2.0**-5, 2.0**-6]


def test_converge_default_out_normalizes_quantity(tmp_path):
    assert (
        main(
            [
                "converge",
                "--quantity",
                "quotients_order_1",
                "--kmin",
                "4",
                "--kmax",
                "6",
                "--kref",
                "9",
            ]
        )
        == 0
    )
    assert (tmp_path / "converge_quotients.csv").exists()


def test_converge_degenerate(tmp_path, capsys):
    assert (
        main(
            [
                "converge",
                "--data",
                "zero",
                "--kmin",
                "4",
                "--kmax",
                "6",
                "--kref",
                "9",
                "--out",
                "deg.csv",
            ]
        )
        == 0
    )
    assert "degenerate" in capsys.readouterr().out
    assert "# degenerate=true" in (tmp_path / "deg.csv").read_text()


@pytest.mark.parametrize(
    "quantity, flags, flag",
    [
        ("fields_ab", ["--alpha", "2", "--theta0", "0.1", "--lambda", "5"], "--lambda"),
        ("fields_ab", ["--alpha", "2", "--theta0", "0.1"], "--alpha"),
        ("phi", ["--theta0", "0.1"], "--theta0"),
        ("quotients_order_1", ["--bt-file", "chain.txt"], "--bt-file"),
        ("surface", ["--alpha", "2", "--theta0", "0.1"], "--alpha"),
        ("surface", ["--bt-file", "chain.txt"], "--bt-file"),
        ("quotients", ["--lambda", "1.0"], "--lambda"),
    ],
)
def test_converge_refuses_unread_flags(capsys, quantity, flags, flag):
    # flags the quantity does not read end in an error naming the flag
    argv = ["converge", "--quantity", quantity, "--kmin", "4", "--kmax", "6", "--kref", "9"]
    assert main([*argv, *flags]) == 1
    assert capsys.readouterr().err == f"error: --quantity {quantity} does not read {flag}\n"


def test_converge_reads_surface_flags(tmp_path):
    # --lambda for both surface quantities, the chain flags for surface_bt
    (tmp_path / "chain.txt").write_text("0.5 0.25\n")
    argv = ["converge", "--kmin", "2", "--kmax", "4", "--kref", "6", "--lambda", "2"]
    assert main([*argv, "--quantity", "surface", "--out", "s.csv"]) == 0
    assert main([*argv, "--quantity", "surface_bt", "--bt-file", "chain.txt",
                 "--out", "bt.csv"]) == 0
    assert load_report(tmp_path / "s.csv").rows != load_report(tmp_path / "bt.csv").rows


def test_converge_quotient_order_is_the_quantity_name(capsys):
    assert main(["converge", "--quantity", "quotients", "--quotient-order", "3"]) == 1
    assert "unrecognized arguments: --quotient-order 3" in capsys.readouterr().err


def test_converge_refuses_two_levels_before_solving(monkeypatch, capsys, tmp_path):
    def never(*args):
        raise AssertionError("solved a sweep with no slope to fit")

    monkeypatch.setattr(harness, "solve_goursat_2d", never)
    monkeypatch.setattr(harness, "_solve_one", never)
    assert main(["converge", "--kmin", "1", "--kmax", "2", "--kref", "4"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: k_min..k_max = 1..2 gives fewer than the 3 levels")
    assert main(["converge", "--quantity", "surface", "--scheme", "naive"]) == 1
    assert capsys.readouterr().err == "error: surface sweeps require the Hirota scheme\n"
    # the 2 steps of k_min = 1 form no second quotient ("grids share no sites" before)
    assert main(["converge", "--quantity", "quotients_order_2", "--kmin", "1", "--kmax", "3",
                 "--kref", "5"]) == 1
    assert capsys.readouterr().err == ("error: quotient order 2 needs more than 2 steps per "
                                       "axis, but k_min = 1 gives r * 2^k_min = 2\n")
    for lam in ("nan", "inf", "0"):  # the lambda _tower would refuse after the reference solve
        assert main(["converge", "--quantity", "surface", "--lambda", lam, "--kmin", "5",
                     "--kmax", "9", "--kref", "11"]) == 1
        want = f"error: lambda must be positive and finite, got {float(lam)}\n"
        assert capsys.readouterr().err == want
    assert not list(tmp_path.iterdir())


def test_converge_rejects_tabulated(capsys):
    assert main(["converge", "--data", "a.txt,b.txt"]) == 1
    assert "preset" in capsys.readouterr().err


@pytest.mark.parametrize("kref", ["26", "40"])
def test_converge_refuses_oversized_reference(capsys, tmp_path, kref):
    # the reference's two full fields would take 16 n (n+1) bytes, 72 PB at
    # kref 26: refused with a one-line error before anything is allocated
    tracemalloc.start()
    try:
        code = main(["converge", "--kmin", "1", "--kmax", "3", "--kref", kref])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: a lattice of n = ") and err.count("\n") == 1
    assert "bytes for its two fields" in err
    assert peak < 1e6
    assert not list(tmp_path.iterdir())


def test_converge_surface_bt_default_chain(tmp_path):
    assert (
        main(
            [
                "converge",
                "--quantity",
                "surface_bt",
                "--kmin",
                "4",
                "--kmax",
                "6",
                "--kref",
                "9",
                "--out",
                "bt.csv",
            ]
        )
        == 0
    )
    rep = load_report(tmp_path / "bt.csv")
    assert 0.8 <= rep.slope <= 1.2


def test_check_command(capsys):
    assert main(["check", "--samples", "500"]) == 0
    out = capsys.readouterr().out
    assert "alpha = 0.5" in out and "alpha = 2" in out
    assert "max residual" in out


def test_check_naive_fails(capsys):
    assert main(["check", "--samples", "500", "--scheme", "naive"]) == 2
    captured = capsys.readouterr()
    assert "FAIL" in captured.err
    assert "not compatible" in captured.err


def test_check_deterministic(capsys):
    assert main(["check", "--samples", "200", "--seed", "3"]) == 0
    first = capsys.readouterr().out
    assert main(["check", "--samples", "200", "--seed", "3"]) == 0
    assert capsys.readouterr().out == first


def test_check_samples_beyond_memory_exit_one(monkeypatch, capsys):
    # 24 bytes per (a, b, theta) sample, refused before they are drawn
    monkeypatch.setattr(goursat, "_available_bytes", lambda: 2**33)
    assert main(["check", "--samples", "1000000000000"]) == 1
    assert capsys.readouterr().err == ("error: --samples 1000000000000 needs 24000000000000 bytes "
                                       "for its (a, b, theta) samples, more than the 8589934592 "
                                       "bytes of available memory\n")


def test_check_validation(capsys):
    assert main(["check", "--samples", "0"]) == 1
    assert "--samples" in capsys.readouterr().err


@pytest.mark.parametrize("flags, code, match", [
    (["--alpha", "nan"], 1, "error: alpha must be finite"),
    (["--alpha", "inf"], 1, "error: alpha must be finite"),
    (["--alpha", "64", "--eps", "0.125"], 1, "error: step eps = 0.125 is not admissible"),
    (["--eps", "nan"], 1, "error: step eps = nan is not admissible"),
    (["--eps", "0"], 1, "error: step eps = 0.0 is not admissible"),
    # 4/eps^2 overflows: a named input error, not a nan residual
    (["--alpha", "1", "--eps", "1e-160"], 1, "error: Hirota scheme step eps = 1e-160 is too small"),
    # eps^2 underflows to 0: a named input error, not a ZeroDivisionError
    (["--eps", "1e-170"], 1, "error: Hirota scheme step eps = 1e-170 is too small"),
    # one ulp below the smallest step for which 4/eps^2 is finite
    (["--alpha", "1", "--eps", "1.4916681462400413e-154"], 1,
     "error: Hirota scheme step eps = 1.4916681462400413e-154 is too small"),
])
def test_check_rejects_bad_parameters(capsys, flags, code, match):
    # a nan or inadmissible (alpha, eps) is an input error, never a residual
    assert main(["check", "--samples", "50", *flags]) == code
    assert match in capsys.readouterr().err
