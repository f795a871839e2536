"""Discrete K-surfaces from frames: construction, validation, export.

A surface point is the Sym image of the frame at a lattice site.  Meshes are
(n+1) x (n+1) x 3 arrays of points in R^3 (coordinates in the (i/2) sigma
basis of su(2)).  At lambda = 1 every lattice edge of such a mesh has length
eps * ell with ell = 1/(1 + eps^2/4); for other members of the associated
family the x- and y-edges carry the two lambda-scaled factors of ell_xy
(each still constant across the mesh).  The four edges around each interior
vertex are coplanar and the vertex angles are determined by the
reconstructed angle field phi, independently of lambda.  validate_k_surface
measures all three properties.

Surfaces exist only for the integrable scheme: the naive scheme violates the
discrete zero-curvature condition at order eps^2 per cell, so its frames are
path-dependent.  The surface entry points therefore take no scheme: they
solve with the Hirota scheme.

A Backlund step moves every point by a fixed distance 2*lam*alpha /
(alpha^2 + lam^2); backlund_surface returns the whole tower of meshes, and
backlund_two_route_residual verifies the dressing route against frames
propagated directly in the transformed fields (the two differ by the exact
rigid motion induced by the dressing matrix at the origin).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _text
from .goursat import EdgeField2, GoursatData2, LatticeDomain2, _bands, _fields, solve_goursat_2d
from .frames import _pair, _sweep, _sweep_plan, _sym, _w_planes
from .sinegordon import (
    BacklundParam,
    LayeredField3,
    PhiField,
    _solve_layers,
    hirota_system,
)


def ell_xy(eps: float, lam: float) -> tuple:
    """Per-direction edge factors of the associated family.

    x-edges have length eps * lam / (1 + eps^2 lam^2 / 4) and y-edges
    eps * lam^-1 / (1 + eps^2 lam^-2 / 4); both factors reduce to
    ell = 1/(1 + eps^2/4) at lam = 1 (one frame step from the identity makes
    the lengths explicit).  Angles and planarity are lambda-independent.
    """
    lx = lam / (1.0 + 0.25 * eps * eps * lam * lam)
    ly = (1.0 / lam) / (1.0 + 0.25 * eps * eps / (lam * lam))
    return lx, ly


@dataclass
class SurfaceMesh:
    """Immersion points on all lattice sites plus provenance."""

    points: np.ndarray
    eps: float
    r: float
    lam: float
    bt_chain: tuple = ()
    zcc_residual: float = 0.0
    theta_cross_residual: float = 0.0

    @property
    def n(self) -> int:
        return self.points.shape[0] - 1


def _tower(fields: EdgeField2, lam: float, chain=(), th_layers=(), cross=(),
           check: bool = True) -> list[SurfaceMesh]:
    """The surface stream: the base mesh, then one mesh per dressing prefix.

    One kernel sweep takes the frame lines in blocks, dresses each block by
    (th_layers[z], chain[z].alpha) and applies Sym, holding O(n) frame planes
    per level (one block: a fixed number of sites, at least two lines); every
    mesh records the zero-curvature residual of the base fields from the same
    sweep, and mesh z the worst theta cross residual cross[:z] of the steps
    behind it.  The sweep is sized by its plan before anything is allocated
    (ValueError), unless check is false (frames._sweep).
    """
    if lam <= 0 or not np.isfinite(lam):
        raise ValueError(f"lambda must be positive and finite, got {lam}")
    layers, dom = [(th, p.alpha) for th, p in zip(th_layers, chain)], fields.domain
    sweep = _sweep(fields, lam, layers=layers, sym=True, check=check)
    return [
        SurfaceMesh(pts, dom.eps, dom.r, lam, bt_chain=tuple(chain[:z]),
                    zcc_residual=sweep.residual,
                    theta_cross_residual=max(cross[:z], default=0.0))
        for z, pts in enumerate(sweep.points)
    ]


def _later(n: int, R: int, top: bool) -> tuple:
    """_solve_layers' later phase: a tower of R steps on n beside layers 0..R (top) or 0."""
    return (f"its {R + 1} surfaces", [*_fields(R + 1 if top else 1, n),
                                      ((R, n + 1, n + 1), float), *_sweep_plan(n, R, sym=True)[1]])


def mesh_from_fields(fields: EdgeField2, lam: float) -> SurfaceMesh:
    """Surface mesh of solved Hirota fields (zero curvature checked in the sweep)."""
    return _tower(fields, lam)[0]


def surface_from_fields(fields: EdgeField2, lam: float) -> np.ndarray:
    """Surface points of solved Hirota fields (zero curvature checked in the sweep)."""
    return mesh_from_fields(fields, lam).points


def build_surface(
    data: GoursatData2,
    dom: LatticeDomain2,
    lam: float = 1.0,
) -> SurfaceMesh:
    """Solve the Goursat problem and immerse the solution as a K-surface.

    The origin maps to 0 exactly (the frame starts at (identity, 0)).
    Rebuilding with identical inputs is bit-identical: the sweep, the frame
    recursion, and the Sym projection are all deterministic.
    """
    return mesh_from_fields(solve_goursat_2d(hirota_system(), data, dom), lam)


def associated_family(data: GoursatData2, dom: LatticeDomain2, lambdas) -> list[SurfaceMesh]:
    """Surfaces for several spectral parameters from one field solve.

    The fields do not depend on lambda, so the Goursat problem is solved
    once; each lambda gets its own frame propagation and Sym projection.
    """
    fields = solve_goursat_2d(hirota_system(), data, dom)
    return [mesh_from_fields(fields, float(l)) for l in lambdas]


# ---------------------------------------------------------------------------
# Backlund towers


def _params(bt_chain) -> list[BacklundParam]:
    """The chain as BacklundParams; (alpha, theta0) pairs are converted."""
    return [p if isinstance(p, BacklundParam) else BacklundParam(*p) for p in bt_chain]


def solve_backlund_chain(
    data: GoursatData2,
    dom: LatticeDomain2,
    bt_chain,
) -> LayeredField3:
    """The layered solve of a chain of Backlund steps, each with its own alpha,
    by the Hirota scheme: fields on layers 0..R, theta on 0..R-1 (see
    sinegordon._solve_layers; solve_goursat_3d is the same solve for one alpha).
    """
    return _solve_layers(hirota_system(), _params(bt_chain), data, dom)


def backlund_surface(
    data: GoursatData2,
    dom: LatticeDomain2,
    bt_chain,
    lam: float = 1.0,
) -> list[SurfaceMesh]:
    """Tower of surfaces under a chain of Backlund transformations.

    Element z is the surface after the first z steps of the chain; element 0
    is the undressed surface (an empty chain returns exactly that, bitwise
    equal to build_surface).  All layers are Sym images of one base frame
    dressed by accumulated W matrices, so consecutive layers differ by a
    point-wise step of constant length 2*lam*alpha/(alpha^2 + lam^2).
    Mesh z records the worst theta cross residual of the z steps behind it.
    Layer R carries no theta and is not solved: a blow-up confined to it
    does not stop the tower (solve_backlund_chain solves it).  Only layer 0's
    fields and the theta layers are kept for the frame sweep: the fields of
    layers 1..R-1 are freed before the points are allocated.  One plan sizes
    the whole tower before anything is allocated.
    """
    chain = _params(bt_chain)
    sol = _solve_layers(hirota_system(), chain, data, dom, False, _later(dom.n, len(chain), False))
    base, theta, cross = EdgeField2(sol.a[0].copy(), sol.b[0].copy(), dom), sol.theta, sol.cross
    del sol  # its fields are views of the stacked layers
    return _tower(base, lam, chain, theta, cross, check=False)


def _dot(u, w) -> np.ndarray:
    """u . w of two stacks of three coordinate planes, summed left to right."""
    return u[0] * w[0] + u[1] * w[1] + u[2] * w[2]


def _norm(d) -> np.ndarray:
    """Euclidean norm of a stack of three coordinate planes."""
    return np.sqrt(_dot(d, d))


def backlund_step_norms(mesh_lo: SurfaceMesh, mesh_hi: SurfaceMesh) -> np.ndarray:
    """Per-site Euclidean distance between consecutive tower layers; ValueError
    for meshes of two different lattices."""
    if mesh_lo.points.shape != mesh_hi.points.shape:
        raise ValueError(f"meshes of shapes {mesh_lo.points.shape} and "
                         f"{mesh_hi.points.shape} come from different lattices")
    return _norm(np.moveaxis(mesh_hi.points - mesh_lo.points, -1, 0))


def _rotation(p, q) -> np.ndarray:
    """SO(3) matrix of X -> G^-1 X G on su(2) = R^3, G = [[p, q], [-conj(q), conj(p)]].

    Column k is the Sym point at lambda = 1/2 of the frame G with derivative
    i sigma_k G, which is G^-1 (i sigma_k) G; any nonzero scalar in G cancels.
    """
    dp, dq = _pair(np.array([0, 0, 1j]), np.array([1j, 1, 0]), p, q)  # i sigma_1..3 G
    return _sym((p, q, dp, dq), 0.5, np.empty((3, 3))).T


def backlund_two_route_residual(
    data: GoursatData2,
    dom: LatticeDomain2,
    bt_chain,
    lam: float = 1.0,
) -> float:
    """Compare the dressing route with direct frame propagation.

    Route A is the top of the tower: the base frame dressed by the
    accumulated W chain, then Sym.  Route B propagates a fresh frame (from
    the identity) in the final-layer fields and applies Sym.  The two frames
    differ by the constant right factor G = W_{R-1}(0,0) ... W_0(0,0), each
    W at theta0 of its step, so the surfaces differ by the exact rigid motion

        F_A = R F_B + t,  R = conjugation rotation of G,
        t = F_A(0, 0), since F_B(0, 0) = 0.

    R is read off by the frame kernel's Sym formula (frames._sym).  Returns
    the sup over sites of |F_A - (R F_B + t)|.  One plan sizes it before
    anything is allocated: route B and the comparison hold less than route A.
    """
    chain = _params(bt_chain)
    if not chain:
        raise ValueError("two-route comparison needs a nonempty chain")
    sol = _solve_layers(hirota_system(), chain, data, dom, True, _later(dom.n, len(chain), True))
    top = _tower(EdgeField2(sol.a[0], sol.b[0], dom), lam, chain, sol.theta, check=False)[-1]
    pts_b = _tower(EdgeField2(sol.a[-1], sol.b[-1], dom), lam, check=False)[0].points
    del sol
    gp, gq = 1.0, 0.0  # G, the frame at the origin
    for p in chain:  # theta at the origin is theta0
        gp, gq = _pair(*_w_planes(p.theta0, p.alpha, lam)[:2], gp, gq)
    mapped = pts_b @ _rotation(gp, gq).T
    del pts_b
    mapped += top.points[0, 0]
    return float(np.max(_norm(np.moveaxis(np.subtract(top.points, mapped, out=mapped), -1, 0))))


# ---------------------------------------------------------------------------
# validation


@dataclass
class KSurfaceReport:
    """Sup residuals of the defining K-surface properties.

    edge: relative deviation of every lattice edge length from eps*ell.
    planarity: scaled tetrahedron volumes spanned by the edge stars.
    angle: deviation of vertex-angle cosines from the phi prediction.
    angle_sum: deviation of each interior vertex angle sum from 2 pi.
    interior_sites: number of interior vertices checked (0 for n < 2, in
    which case the last three residuals are trivially 0).
    """

    edge: float
    planarity: float
    angle: float
    angle_sum: float
    interior_sites: int


def validate_k_surface(mesh: SurfaceMesh, phi: PhiField) -> KSurfaceReport:
    """Measure edge-length, planarity, and angle residuals of a mesh.

    The angle field must come from the same fields the mesh was built from
    (Hirota reconstruction); interior vertex (i, j) uses the four neighbor
    values of phi to predict its four corner angles.  The work is done on the
    three coordinate planes of the points, with dot products summed left to
    right.  The edge star of a vertex is xp, yp (to the next sites) and xm, ym
    (to the previous ones); planarity is the closed-form triple products
    |(xp x yp) . xm| and |(xp x yp) . ym|, i.e. |det[xp, yp, xm]| and
    |det[xp, yp, ym]|.  A NaN the validator reads makes the residual it feeds
    NaN.  Each residual is the max over slabs of site rows, one per tile of
    goursat._bands, whose number does not change it: the slab over rows
    r0..r1 takes their x- and y-edges and the interior vertices r0+1..r1-1.
    So the temporaries held at once are those of one slab per core, each of
    O(_BAND_FLOOR + n) sites, however many rows the mesh has.  ValueError,
    before any tile runs, for a mesh and a phi of two different lattices.
    """
    if mesh.points.shape[:2] != phi.phi.shape:
        raise ValueError(f"mesh points of shape {mesh.points.shape} and phi of shape "
                         f"{phi.phi.shape} come from different lattices")
    n, eps = mesh.n, mesh.eps
    lx, ly = ell_xy(eps, mesh.lam)
    tx, ty = eps * lx, eps * ly
    pts, p = np.moveaxis(mesh.points, -1, 0), phi.phi

    def slab(r0, r1):
        m = r1 - r0
        ex = np.subtract(pts[:, r0 + 1 : r1 + 1], pts[:, r0:r1], out=np.empty((3, m, n + 1)))
        ey = np.subtract(pts[:, r0 : r1 + 1, 1:], pts[:, r0 : r1 + 1, :-1], out=np.empty((3, m + 1, n)))
        len_x, len_y = _norm(ex), _norm(ey)
        edge = np.max([np.max(np.abs(len_x - tx)) / tx, np.max(np.abs(len_y - ty)) / ty])
        if m < 2:  # no interior vertex: n = 1
            return edge, 0.0, 0.0, 0.0

        # the star of interior vertex (i, j): the edges out of it, xp = ex[i] and yp = ey[j],
        # and into it, xi = ex[i-1] = -xm and yi = ey[j-1] = -ym
        xp, xi, yp, yi = ex[:, 1:, 1:-1], ex[:, :-1, 1:-1], ey[:, 1:-1, 1:], ey[:, 1:-1, :-1]
        vol_x = vol_y = 0.0  # (xp x yp) . xi and (xp x yp) . yi, one component of the cross at a time
        for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            w = xp[b] * yp[c] - xp[c] * yp[b]
            vol_x, vol_y = vol_x + w * xi[a], vol_y + w * yi[a]
        planarity = np.max([np.max(np.abs(vol_x)) / (tx * tx * ty),
                            np.max(np.abs(vol_y)) / (tx * ty * ty)])
        del w, vol_x, vol_y

        ex /= len_x  # unit edges in place; xp .. yi now view them
        ey /= len_y
        del len_x, len_y
        ppx, pmx = p[r0 + 2 : r1 + 1, 1:-1], p[r0 : r1 - 1, 1:-1]
        ppy, pmy = p[r0 + 1 : r1, 2:], p[r0 + 1 : r1, :-2]
        total, angle = np.zeros((m - 1, n - 1)), []
        # corner (u, v): its cosine sign * (u . v) against sign * cos((phi_u + phi_v) / 2)
        for u, v, sign, pu, pv in ((xp, yp, 1.0, ppx, ppy), (yp, xi, -1.0, ppy, pmx),
                                   (xi, yi, 1.0, pmx, pmy), (yi, xp, -1.0, pmy, ppx)):
            cos = sign * _dot(u, v)
            angle.append(np.max(np.abs(cos - sign * np.cos(0.5 * (pu + pv)))))
            total += np.arccos(np.clip(cos, -1.0, 1.0))
        return edge, planarity, np.max(angle), np.max(np.abs(total - 2.0 * np.pi))

    # tile [lo, hi) of the interior rows 1..n-1 is the slab over rows lo..hi+1 (n = 1: rows 0..1)
    worst = np.max(_bands(max(n - 1, 1), n + 1, lambda lo, hi: slab(lo, min(hi + 1, n))), axis=0)
    return KSurfaceReport(*map(float, worst), (n - 1) ** 2)


# ---------------------------------------------------------------------------
# export


def export_obj(mesh: SurfaceMesh, path) -> None:
    """Write a Wavefront OBJ plus a .meta sidecar.

    Vertices appear in row-major site order (index of site (i, j) is
    i*(n+1) + j + 1); each elementary square becomes one quad face.  Floats
    use 17 significant digits, so points survive a write/read round trip
    bitwise.  The vertex and face lines are formatted a block at a time by
    _text.lines, with the bytes of b"v %.17g %.17g %.17g" and b"f %d %d %d %d",
    so the memory held is bounded by the block.  The sidecar (same name,
    .meta extension) records eps, lambda, r, scheme (always hirota), the
    Backlund chain as comma-separated alpha:theta0 pairs, the zero-curvature
    residual of the fields the mesh was built from, and the worst theta
    cross residual of the Backlund steps behind it.
    """
    path = str(path)
    n = mesh.n
    points = mesh.points.reshape(-1, 3)
    with open(path, "wb") as fh:
        for start in range(0, len(points), _text.BLOCK // 3):
            fh.write(_text.lines(b"v ", b" ", floats=points[start : start + _text.BLOCK // 3]))
        for start in range(0, n * n, _text.BLOCK // 4):
            face = np.arange(start, min(start + _text.BLOCK // 4, n * n))
            v1 = face // n * (n + 1) + face % n + 1  # face (i, j) starts at vertex i (n+1) + j + 1
            fh.write(_text.lines(b"f ", b" ", v1[:, None] + [0, n + 1, n + 2, 1]))
    meta = path[: path.rfind(".")] + ".meta" if "." in path.rsplit("/", 1)[-1] else path + ".meta"
    chain = ",".join(f"{p.alpha:.17g}:{p.theta0:.17g}" for p in mesh.bt_chain)
    with open(meta, "w", encoding="ascii") as fh:
        fh.write(f"eps={mesh.eps:.17g}\n")
        fh.write(f"lambda={mesh.lam:.17g}\n")
        fh.write(f"r={mesh.r:.17g}\n")
        fh.write("scheme=hirota\n")
        fh.write(f"bt_chain={chain}\n")
        fh.write(f"zcc_residual={mesh.zcc_residual:.17g}\n")
        fh.write(f"theta_cross_residual={mesh.theta_cross_residual:.17g}\n")


def _vertex_lines(path):
    """The lines of an OBJ file that start with "v "."""
    with open(path, "r", encoding="ascii") as fh:
        yield from (line for line in fh if line.startswith("v "))


def load_obj_points(path) -> np.ndarray:
    """Read back the vertices of an exported OBJ as an (m, 3) array;
    ValueError naming path for a vertex line of fewer than three coordinates,
    and naming path and the line's text for a coordinate that is no number."""
    rows = [line.split()[1:4] for line in _vertex_lines(path)]
    if min(map(len, rows), default=3) < 3:
        raise ValueError(f"{path}: a vertex line has fewer than three coordinates")
    try:
        return np.array(rows, dtype=float).reshape(-1, 3)
    except ValueError:
        for line in _vertex_lines(path):  # read again only to name the refused line
            try:
                np.array(line.split()[1:4], dtype=float)
            except ValueError:
                raise ValueError(f"{path}: vertex line {line.strip()!r} holds a coordinate "
                                 f"that is not a number") from None
        raise
