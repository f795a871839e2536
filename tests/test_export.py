"""Text export: field CSV, state CSV and OBJ, byte for byte against per-value writers.

The oracle writers below format one value at a time with f-strings; the
writers under test format blocks of lines with the array formatter of
ksurf._text.  Both must give the same file, because that formatter spells
each value as b"%.17g" does, and b"%.17g" and f"{x:.17g}" give the same text.
"""

import tracemalloc

import numpy as np
import pytest

from ksurf.goursat import LatticeDomain2, save_field_csv, solve_goursat_2d
from ksurf.harness import demo_data, zero_data
from ksurf.ndsys import SystemSpecND, save_state_csv, sine_gordon_3d_spec, solve_goursat_nd
from ksurf.sinegordon import hirota_system
from ksurf.surfaces import SurfaceMesh, export_obj, load_obj_points, mesh_from_fields

SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1.7976931348623157e308, 0.1]


def oracle_field_csv(p, dom):
    out = [f"# eps={dom.eps:.17g} r={dom.r:.17g}\n", "i,j,value\n"]
    for i in range(p.shape[0]):
        out += [f"{i},{j},{p[i][j]:.17g}\n" for j in range(p.shape[1])]
    return "".join(out)


def oracle_state_csv(state, k):
    eps_s = ",".join(f"{e:.17g}" for e in state.spec.eps)
    r_s = ",".join(f"{v:.17g}" for v in state.r)
    cols = ",".join(f"i{i + 1}" for i in range(state.spec.dim))
    out = [f"# field={k} eps={eps_s} r={r_s}\n", f"{cols},value\n"]
    arr = state.fields[k]
    for idx in np.ndindex(*arr.shape):
        out.append(",".join(str(i) for i in idx) + f",{arr[idx]:.17g}\n")
    return "".join(out)


def oracle_obj(points):
    n = points.shape[0] - 1
    out = [f"v {pt[0]:.17g} {pt[1]:.17g} {pt[2]:.17g}\n" for pt in points.reshape(-1, 3)]
    for i in range(n):
        for j in range(n):
            v1, v2 = i * (n + 1) + j + 1, (i + 1) * (n + 1) + j + 1
            out.append(f"f {v1} {v2} {v2 + 1} {v1 + 1}\n")
    return "".join(out)


def wide_normal(rng, shape):
    """Normal samples scaled over most of the float64 exponent range."""
    return rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, size=shape)


def state_3d():
    theta0 = [0.5, -0.3]
    data = [
        lambda x, y=None, z=None: np.cos(2.0 * x),
        lambda x, y=None, z=None: 1.0 + np.sin(y),
        lambda x, y, z: theta0[int(round(z))],
    ]
    return solve_goursat_nd(sine_gordon_3d_spec(1.0, 2.0**-3), data, (1.0, 1.0, 2.0))


def state_1d():
    spec = SystemSpecND(({0},), {(0, 0): lambda s: 0.1 * s[0]}, {(0, 0): (0,)}, (0.25,))
    return solve_goursat_nd(spec, [lambda x: 1.0], 2.0)


@pytest.mark.parametrize("n", [1, 2, 17])
def test_field_csv_bytes_match_oracle(tmp_path, n):
    rng = np.random.default_rng(n)
    dom = LatticeDomain2(n / 8, 0.125)
    for p in (wide_normal(rng, (n, n + 1)), wide_normal(rng, (n + 1, n))):
        save_field_csv(tmp_path / "f.csv", p, dom)
        assert (tmp_path / "f.csv").read_bytes() == oracle_field_csv(p, dom).encode()


@pytest.mark.parametrize("n", [0, 1, 2])
def test_obj_bytes_match_oracle(tmp_path, n):
    points = wide_normal(np.random.default_rng(n), (n + 1, n + 1, 3))
    export_obj(SurfaceMesh(points, 1.0, 1.0, 1.0), tmp_path / "m.obj")
    assert (tmp_path / "m.obj").read_bytes() == oracle_obj(points).encode()


@pytest.mark.parametrize("n", [1, 2, 17])
def test_obj_round_trip_is_bitwise(tmp_path, n):
    points = wide_normal(np.random.default_rng(n), (n + 1, n + 1, 3))
    points.flat[: len(SPECIAL) - 1] = SPECIAL[1:]  # every finite special value and both infinities
    export_obj(SurfaceMesh(points, 1.0, 1.0, 1.0), tmp_path / "m.obj")
    back = load_obj_points(tmp_path / "m.obj")
    assert back.shape == ((n + 1) ** 2, 3)
    assert back.tobytes() == points.tobytes()


def test_obj_reader_edge_cases(tmp_path):
    (tmp_path / "faces.obj").write_text("# no vertex\nf 1 2 3 4\n")
    assert load_obj_points(tmp_path / "faces.obj").shape == (0, 3)
    # three vertex lines of two coordinates would reshape to (2, 3)
    for name, text in (("short.obj", "v 1 2\nv 3 4\nv 5 6\n"),
                       ("ragged.obj", "v 1 2 3\nv 4 5\n")):
        (tmp_path / name).write_text(text)
        with pytest.raises(ValueError, match=rf"{name}: a vertex line has fewer than three"):
            load_obj_points(tmp_path / name)


def test_obj_reader_names_the_line_it_cannot_parse(tmp_path):
    (tmp_path / "bad.obj").write_text("v 1 2 3\nv 1 2 x\nv 4 5 y\n")
    with pytest.raises(ValueError, match=r"bad\.obj: vertex line 'v 1 2 x' holds a coordinate "
                                         r"that is not a number"):
        load_obj_points(tmp_path / "bad.obj")


@pytest.mark.parametrize("make_state", [state_3d, state_1d], ids=["3d", "1d"])
def test_state_csv_bytes_match_oracle(tmp_path, make_state):
    st = make_state()
    for k in range(len(st.fields)):
        save_state_csv(st, tmp_path / "s.csv", k)
        assert (tmp_path / "s.csv").read_bytes() == oracle_state_csv(st, k).encode()


def test_float32_field_bytes_match_oracle(tmp_path):
    # each float32 value is written as the float64 it converts to exactly
    p = wide_normal(np.random.default_rng(5), (9, 8)).clip(-1e38, 1e38).astype(np.float32)
    dom = LatticeDomain2(1.0, 0.125)
    save_field_csv(tmp_path / "f.csv", p, dom)
    assert (tmp_path / "f.csv").read_bytes() == oracle_field_csv(p, dom).encode()


def test_zero_data_files_match_oracle(tmp_path):
    dom = LatticeDomain2.from_k(1.0, 3)
    fields = solve_goursat_2d(hirota_system(), zero_data(), dom)
    for p in (fields.a, fields.b):
        assert not p.any()
        save_field_csv(tmp_path / "f.csv", p, dom)
        assert (tmp_path / "f.csv").read_bytes() == oracle_field_csv(p, dom).encode()
    for st in (state_3d(), state_1d()):
        st.fields[0] = np.zeros_like(st.fields[0])
        save_state_csv(st, tmp_path / "s.csv", 0)
        assert (tmp_path / "s.csv").read_bytes() == oracle_state_csv(st, 0).encode()


def test_special_values_bytes_match_oracle(tmp_path):
    p = np.resize(SPECIAL, (4, 5)) * np.resize([1.0, -1.0], (4, 5))  # each value with both signs
    dom = LatticeDomain2(1.0, 0.25)
    save_field_csv(tmp_path / "f.csv", p, dom)
    assert (tmp_path / "f.csv").read_bytes() == oracle_field_csv(p, dom).encode()

    points = np.resize(SPECIAL, (3, 3, 3)) * np.resize([-1.0, 1.0], (3, 3, 3))
    export_obj(SurfaceMesh(points, 1.0, 1.0, 1.0), tmp_path / "m.obj")
    assert (tmp_path / "m.obj").read_bytes() == oracle_obj(points).encode()

    st = state_3d()
    st.fields[2] = np.resize(SPECIAL, st.fields[2].shape)
    save_state_csv(st, tmp_path / "s.csv", 2)
    assert (tmp_path / "s.csv").read_bytes() == oracle_state_csv(st, 2).encode()


def test_writers_hold_one_row_at_a_time(tmp_path):
    """At k = 8 one row takes under 0.1 MB to format; converting the whole
    array with .tolist() would take several MB (10.7 MB for the OBJ)."""
    dom = LatticeDomain2.from_k(1.0, 8)
    fields = solve_goursat_2d(hirota_system(), demo_data(), dom)
    mesh = mesh_from_fields(fields, 1.0)
    for write in (lambda: export_obj(mesh, tmp_path / "m.obj"),
                  lambda: save_field_csv(tmp_path / "a.csv", fields.a, dom)):
        tracemalloc.start()
        try:
            write()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6
