"""Tests for the reference 2x2 / su(2) helpers of the test oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    IDENTITY2,
    SIGMA1,
    SIGMA2,
    SIGMA3,
    SU2_BASIS,
    check_unitary,
    conjugation_rotation,
    dagger,
    det2,
    frobenius,
    inv2,
    su2_embed,
    su2_project,
)

RNG = np.random.default_rng(20240817)


def random_su2(shape=()):
    # uniformish SU(2) via normalized quaternions
    q = RNG.normal(size=shape + (4,))
    q /= np.linalg.norm(q, axis=-1, keepdims=True)
    out = np.empty(shape + (2, 2), dtype=complex)
    out[..., 0, 0] = q[..., 0] + 1j * q[..., 3]
    out[..., 0, 1] = q[..., 2] + 1j * q[..., 1]
    out[..., 1, 0] = -q[..., 2] + 1j * q[..., 1]
    out[..., 1, 1] = q[..., 0] - 1j * q[..., 3]
    return out


def test_su2_project_sigma3():
    assert np.allclose(su2_project(0.5j * SIGMA3), [0.0, 0.0, 1.0], atol=1e-15)


def test_su2_project_identity_is_zero():
    assert np.allclose(su2_project(IDENTITY2), [0.0, 0.0, 0.0], atol=1e-15)


def test_su2_project_discards_trace_part():
    m = 0.5j * (2.0 * SIGMA1 + 3.0 * SIGMA2) + 5.0 * IDENTITY2
    assert np.allclose(su2_project(m), [2.0, 3.0, 0.0], atol=1e-14)


def test_su2_project_embed_roundtrip():
    x = RNG.normal(size=(7, 3))
    assert np.allclose(su2_project(su2_embed(x)), x, atol=1e-14)
    # embed lands in su(2): trace-free anti-Hermitian
    m = su2_embed(x)
    assert np.allclose(m + dagger(m), 0.0, atol=1e-15)
    assert np.allclose(m[..., 0, 0] + m[..., 1, 1], 0.0, atol=1e-15)


def test_su2_norm_convention():
    # |x| = sqrt(2) * ||su2_embed(x)||_F per the module docstring
    x = np.array([1.5, -2.0, 0.25])
    assert np.isclose(np.linalg.norm(x), np.sqrt(2.0) * frobenius(su2_embed(x)))


def test_inv2_matches_numpy():
    a = RNG.normal(size=(5, 2, 2)) + 1j * RNG.normal(size=(5, 2, 2))
    assert np.allclose(inv2(a), np.linalg.inv(a), atol=1e-12)
    assert np.allclose(inv2(a) @ a, IDENTITY2, atol=1e-13)


def test_det2_and_frobenius():
    a = RNG.normal(size=(4, 2, 2)) + 1j * RNG.normal(size=(4, 2, 2))
    assert np.allclose(det2(a), np.linalg.det(a), atol=1e-12)
    assert np.allclose(frobenius(a), np.linalg.norm(a, axis=(-1, -2)), atol=1e-12)


def test_check_unitary_accepts_su2_stack():
    assert check_unitary(random_su2((6,)))


def test_check_unitary_rejects_scaled_and_perturbed():
    g = random_su2()
    assert not check_unitary(2.0 * g)  # det = 4
    assert not check_unitary(g + 1e-6)  # gram deviation above tol
    assert check_unitary(g + 1e-12)


def test_conjugation_rotation_is_so3():
    g = random_su2((8,))
    rot = conjugation_rotation(g)
    assert rot.shape == (8, 3, 3)
    assert np.allclose(np.swapaxes(rot, -1, -2) @ rot, np.eye(3), atol=1e-12)
    assert np.allclose(np.linalg.det(rot), 1.0, atol=1e-12)
    assert np.abs(rot.imag).max() == 0.0  # project returns real coordinates


def test_conjugation_rotation_identity_and_scalar_invariance():
    assert np.allclose(conjugation_rotation(IDENTITY2), np.eye(3), atol=1e-15)
    g = random_su2()
    assert np.allclose(
        conjugation_rotation(g), conjugation_rotation((2.0 - 1.0j) * g), atol=1e-12
    )


def test_conjugation_rotation_matches_definition():
    g = random_su2()
    x = RNG.normal(size=3)
    via_matrix = conjugation_rotation(g) @ x
    via_def = su2_project(inv2(g) @ su2_embed(x) @ g)
    assert np.allclose(via_matrix, via_def, atol=1e-13)


@given(
    st.lists(st.floats(-10, 10), min_size=6, max_size=6),
    st.floats(-5, 5),
    st.floats(-5, 5),
)
@settings(max_examples=50, deadline=None)
def test_su2_project_linear(vals, s, t):
    x = np.array(vals[:3])
    y = np.array(vals[3:])
    lhs = su2_project(s * su2_embed(x) + t * su2_embed(y))
    rhs = s * x + t * y
    assert np.allclose(lhs, rhs, atol=1e-9 * (1.0 + np.abs(rhs).max()))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_conjugation_preserves_norm(seed):
    rng = np.random.default_rng(seed)
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    g = np.array(
        [
            [q[0] + 1j * q[3], q[2] + 1j * q[1]],
            [-q[2] + 1j * q[1], q[0] - 1j * q[3]],
        ]
    )
    x = rng.normal(size=3)
    assert np.isclose(
        np.linalg.norm(conjugation_rotation(g) @ x), np.linalg.norm(x), atol=1e-10
    )
