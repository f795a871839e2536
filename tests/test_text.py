"""The vectorised text formatter against CPython's own b"%.17g" and "%d"."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ksurf._text import BLOCK, lines


def oracle(values):
    return b"".join(b"%.17g\n" % v for v in values)


def spelt(values):
    return lines(b"", b",", floats=np.asarray(values, dtype=np.float64).reshape(-1, 1))


def edges():
    """Decade boundaries and their neighbours, ties and special values."""
    out = []
    for q in range(-8, 19):
        p = float(f"1e{q}")
        out += [p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)]
    out += [1e15 + k / 4 for k in range(16)]  # 16 significant digits and a quarter: ties
    out += [0.0, 5e-324, 2.2250738585072014e-308, np.finfo(float).max, np.inf, np.nan]
    out = np.array(out)
    return np.concatenate((out, -out))


@given(st.lists(st.floats(width=64), min_size=1, max_size=64))
@settings(max_examples=300, deadline=None)
def test_floats_match_percent_g(values):
    assert spelt(values) == oracle(values)


@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
@settings(max_examples=300, deadline=None)
def test_bit_patterns_match_percent_g(bits):
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    assert spelt(values) == oracle(values.tolist())


@pytest.mark.parametrize("size", [1, BLOCK, 1001])
def test_edges_match_percent_g(size):
    values = np.resize(edges(), size)
    assert spelt(values) == oracle(values.tolist())


def test_wide_random_blocks_match_percent_g():
    rng = np.random.default_rng(7)
    values = rng.normal(size=BLOCK) * 10.0 ** rng.integers(-9, 20, size=BLOCK)
    assert spelt(values) == oracle(values.tolist())
    values = np.round(rng.normal(size=BLOCK) * 1e6, rng.integers(0, 9))  # trailing zeros
    assert spelt(values) == oracle(values.tolist())


def test_no_double_rounds_up_to_a_power_of_ten():
    # the formatter's 17 digits never carry into the next decade: for each
    # power of ten it formats, the largest double below it keeps 17 nines
    for k in range(-5, 18):
        below = math.nextafter(float(Fraction(10) ** k), 0.0)
        while Fraction(below) >= Fraction(10) ** k:
            below = math.nextafter(below, 0.0)
        assert Fraction("%.17g" % below) < Fraction(10) ** k
        assert spelt([below]) == b"%.17g\n" % below


def test_complex_values_are_refused():
    # b"%.17g" % complex raises TypeError: so does the formatter, instead of
    # dropping the imaginary part
    with pytest.raises(TypeError):
        lines(b"", b",", floats=np.array([[1 + 2j]]))


def test_lines_join_ints_and_floats():
    ints = np.array([[0, 9999], [10000, 123456789012]])
    floats = np.array([[0.5, -0.0], [1e-7, np.inf]])
    assert lines(b"", b",", ints, floats) == b"0,9999,0.5,-0\n10000,123456789012,9.9999999999999995e-08,inf\n"
    assert lines(b"f ", b" ", ints) == b"f 0 9999\nf 10000 123456789012\n"
    assert lines(b"v ", b" ", floats=floats) == b"v 0.5 -0\nv 9.9999999999999995e-08 inf\n"
    assert lines(b"v ", b" ", floats=np.empty((0, 3))) == b""
