"""Small helpers for 2x2 complex matrices and the su(2) <-> R^3 identification.

All functions accept stacked arrays of shape (..., 2, 2); results broadcast
over the leading axes.  The identification used throughout the package is

    X = (i/2) * (x1*s1 + x2*s2 + x3*s3)

with the Pauli matrices s1 = [[0,1],[1,0]], s2 = [[0,-i],[i,0]],
s3 = [[1,0],[0,-1]].  Under it the Euclidean norm of (x1,x2,x3) equals
sqrt(2) times the Frobenius norm of X.
"""

from __future__ import annotations

import numpy as np

SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

IDENTITY2 = np.eye(2, dtype=complex)

# (i/2)*sigma_j, the orthogonal su(2) basis vectors mapped to e1, e2, e3
SU2_BASIS = np.stack([0.5j * SIGMA1, 0.5j * SIGMA2, 0.5j * SIGMA3])


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose on the trailing two axes."""
    return np.conj(np.swapaxes(a, -1, -2))


def inv2(a: np.ndarray) -> np.ndarray:
    """Inverse of stacked 2x2 matrices via the adjugate formula."""
    det = a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]
    out = np.empty_like(a)
    out[..., 0, 0] = a[..., 1, 1]
    out[..., 1, 1] = a[..., 0, 0]
    out[..., 0, 1] = -a[..., 0, 1]
    out[..., 1, 0] = -a[..., 1, 0]
    return out / det[..., None, None]


def det2(a: np.ndarray) -> np.ndarray:
    return a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]


def frobenius(a: np.ndarray) -> np.ndarray:
    """Frobenius norm on the trailing two axes."""
    return np.sqrt(np.sum(np.abs(a) ** 2, axis=(-1, -2)))


def su2_project(a: np.ndarray) -> np.ndarray:
    """Project onto su(2) and return real coordinates (x1, x2, x3).

    The input is first projected onto its trace-free anti-Hermitian part P;
    the coordinates satisfy P = (i/2)*(x1*s1 + x2*s2 + x3*s3).  Hermitian and
    trace components are discarded, so e.g. adding a real multiple of the
    identity does not change the result.  Returns an array of shape (..., 3).
    """
    p = 0.5 * (a - dagger(a))
    tr_half = 0.5 * (p[..., 0, 0] + p[..., 1, 1])
    p00 = p[..., 0, 0] - tr_half
    # p is now trace-free anti-Hermitian: p = [[i*x3/2, (x2+i*x1)/2],
    #                                          [(-x2+i*x1)/2, -i*x3/2]]
    x1 = np.imag(p[..., 0, 1] + p[..., 1, 0])
    x2 = np.real(p[..., 0, 1] - p[..., 1, 0])
    x3 = 2.0 * np.imag(p00)
    return np.stack([x1, x2, x3], axis=-1)


def su2_embed(x: np.ndarray) -> np.ndarray:
    """Inverse of su2_project on su(2): coordinates (..., 3) to matrices."""
    x = np.asarray(x, dtype=float)
    return np.einsum("...k,kij->...ij", x, SU2_BASIS)


def check_unitary(a: np.ndarray, tol: float = 1e-10) -> bool:
    """True iff every stacked matrix is special unitary within tol.

    Checks ||A^H A - I||_F <= tol and |det A - 1| <= tol.
    """
    gram = dagger(a) @ a
    dev = frobenius(gram - IDENTITY2)
    det_dev = np.abs(det2(a) - 1.0)
    return bool(np.all(dev <= tol) and np.all(det_dev <= tol))


def conjugation_rotation(g: np.ndarray) -> np.ndarray:
    """SO(3) matrix of v -> su2_project(g^-1 X g) for X = su2_embed(v).

    g may be any invertible multiple of a unitary matrix (the scalar cancels).
    Columns are the images of the basis vectors.
    """
    ginv = inv2(g)
    cols = [su2_project(ginv @ SU2_BASIS[k] @ g) for k in range(3)]
    return np.stack(cols, axis=-1)
