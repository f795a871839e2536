"""General d-dimensional first-order lattice systems of Goursat type.

A system has N real fields a_0..a_{N-1} on the lattice eps_0 Z x ... x
eps_{d-1} Z.  Field k evolves in the directions of its evolution set E_k:

    a_k(x + eps_i e_i) = a_k(x) + eps_i * f_{(k,i)}(a_0(x), ..., a_{N-1}(x))

for each i in E_k; in the complementary data directions D_k the field is
only sampled, never stepped.  On the box with n_i = r_i/eps_i steps per
direction, field k extends to index n_i in its evolution directions and to
n_i - 1 in its data directions (the cell the value is attached to must fit
inside the box).  Goursat data prescribes a_k where all E_k coordinates
vanish.

Two structural conditions make the overdetermined propagation consistent:

* dependency (check_dependency): f_{(k,i)} may only read fields a_l with
  E_k minus {i} contained in E_l, so every value it needs exists wherever
  the step is taken;
* closure (check_identity): advancing a_k around an elementary square in
  directions i, j in either order gives the same value,

      eps_i f_{(k,i)}(s) + eps_j f_{(k,j)}(s + shift_i(s))
    = eps_j f_{(k,j)}(s) + eps_i f_{(k,i)}(s + shift_j(s)),

  where shift_i advances every field that evolves in direction i and leaves
  NaN in the components that do not (the dependency condition guarantees
  those are never read).

Every stepped value depends only on values whose index sum is one lower, so
the solver sweeps the box by index-sum hyperplanes, calling each right-hand
side once per hyperplane on all of its sites.  It assigns each value once,
stepping from the smallest admissible direction index, and verifies at every
site that the alternative assignments agree to goursat.COMPAT_TOL.  Because
every value has a unique defining assignment, the result is bitwise the same
as that of any site-by-site enumeration compatible with the dependency order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .goursat import (
    COMPAT_TOL,
    BlowUpError,
    CompatibilityError,
    _check_grid,
    _load_grid,
    _require_memory,
    _require_step,
    _save_grid,
    _step_count,
)
from .sinegordon import (SchemeKind, _require_backlund_step, backlund_eta, backlund_system,
                         backlund_xi, system_for)

LEVEL_BAND = 16  # levels solve_goursat_nd plans at once: the fastest measured, 8 to 32 alike


@dataclass(frozen=True)
class SystemSpecND:
    """System description: evolution sets, right-hand sides, steps, reads.

    evol[k] is the set of direction indices field k evolves in; rhs maps
    (k, i) with i in evol[k] to a function of the state vector (a sequence of
    N values, scalars or aligned arrays); deps[(k, i)] declares which field
    indices that function reads (used by the dependency check and honored on
    trust everywhere else).  eps[i] is the step in direction i, so the
    number of fields N is len(evol) and the dimension d is len(eps).
    """

    evol: tuple
    rhs: Mapping
    deps: Mapping
    eps: tuple

    @property
    def num_fields(self) -> int:
        return len(self.evol)

    @property
    def dim(self) -> int:
        return len(self.eps)

    def __post_init__(self):
        if self.num_fields < 1 or self.dim < 1:
            raise ValueError("need at least one field and one direction")
        if any(e <= 0 for e in self.eps):
            raise ValueError("all lattice steps must be positive")
        want = {(k, i) for k in range(self.num_fields) for i in self.evol[k]}
        for k in range(self.num_fields):
            if not all(0 <= i < self.dim for i in self.evol[k]):
                raise ValueError(f"evol[{k}] mentions directions outside 0..{self.dim - 1}")
        if set(self.rhs.keys()) != want:
            raise ValueError("rhs keys must be exactly {(k, i): i in evol[k]}")
        if set(self.deps.keys()) != want:
            raise ValueError("deps keys must be exactly {(k, i): i in evol[k]}")


def check_dependency(spec: SystemSpecND) -> bool:
    """True when every f_{(k,i)} reads only fields defined where it steps."""
    for (k, i), reads in spec.deps.items():
        need = set(spec.evol[k]) - {i}
        for l in reads:
            if not need <= set(spec.evol[l]):
                return False
    return True


def _shifted_state(spec: SystemSpecND, state: list, i: int) -> list:
    """State advanced by one step in direction i; NaN where undefined."""
    out = []
    for l in range(spec.num_fields):
        if i in spec.evol[l]:
            out.append(state[l] + spec.eps[i] * spec.rhs[(l, i)](state))
        else:
            out.append(np.full_like(np.asarray(state[l], dtype=float), np.nan))
    return out


def check_identity(spec: SystemSpecND, samples: np.ndarray) -> float:
    """Max closure defect over all fields, direction pairs, and samples.

    samples has shape (m, N).  Functions are evaluated on the whole sample
    batch at once, so the right-hand sides must be numpy-vectorized.  A NaN
    defect makes the result NaN.
    """
    s = np.atleast_2d(np.asarray(samples, dtype=float))
    state = [s[:, l] for l in range(spec.num_fields)]
    shifted = functools.cache(lambda i: _shifted_state(spec, state, i))  # formed once, when asked
    defects = []
    with np.errstate(all="ignore"):  # a non-finite defect is returned, not warned of
        for k in range(spec.num_fields):
            dirs = sorted(spec.evol[k])
            for ai, i in enumerate(dirs):
                for j in dirs[ai + 1 :]:
                    lhs = (spec.eps[i] * spec.rhs[(k, i)](state)
                           + spec.eps[j] * spec.rhs[(k, j)](shifted(i)))
                    rhs = (spec.eps[j] * spec.rhs[(k, j)](state)
                           + spec.eps[i] * spec.rhs[(k, i)](shifted(j)))
                    defects.append(np.max(np.abs(lhs - rhs)))
    return float(np.max(defects, initial=0.0))  # a nan stays nan


@dataclass
class StateND:
    """Solved fields plus the observed alternative-assignment residual."""

    fields: list
    spec: SystemSpecND
    r: tuple
    n: tuple
    alt_residual: float


def solve_goursat_nd(spec: SystemSpecND, data: Sequence[Callable], r) -> StateND:
    """Propagate Goursat data through the box prod([0, r_i]).

    data[k] is called with the d site coordinates and must return the value
    of field k there; it is read only on the data face of field k, where all
    E_k coordinates vanish.  Every other value is stepped from the
    index-sum level below, so the box is swept level by level: on level s,
    each right-hand side (k, i) is called once, vectorized over the level-s
    sites of field k with index i > 0, on the states of their predecessors in
    direction i.  The smallest such direction defines the value; the others
    are alternative assignments, compared with it at every site.  Those
    sites are planned once per band of LEVEL_BAND consecutive levels.

    A disagreement beyond COMPAT_TOL raises CompatibilityError and a
    non-finite value BlowUpError; both name a site on the first failing
    level.  ValueError before any level is solved unless data holds one
    callable per field, each returning a real scalar, and when the arrays,
    8 (2 num_fields + 1) bytes per box site, and a band's plan, 8 (d + P + 6)
    bytes for each of its at most LEVEL_BAND prod(n_i + 1)/max(n_i + 1) sites
    (P = len(spec.rhs)), exceed the available memory.
    """
    if not check_dependency(spec):
        raise ValueError("system violates the dependency condition")
    if len(data) != spec.num_fields:
        raise ValueError(f"{len(data)} data callables for {spec.num_fields} fields")
    if isinstance(r, (int, float, np.integer, np.floating)):
        r = (float(r),) * spec.dim
    r = tuple(float(v) for v in r)
    if len(r) != spec.dim:
        raise ValueError(f"r must have {spec.dim} entries")
    dim, num, eps = spec.dim, spec.num_fields, spec.eps
    n = tuple(_step_count(ri, ei, f"r[{i}]/eps[{i}]") for i, (ri, ei) in enumerate(zip(r, eps)))
    shapes = [tuple(m + (i in spec.evol[k]) for i, m in enumerate(n)) for k in range(num)]

    def site(idx):
        return tuple(int(c) * e for c, e in zip(idx, eps))

    # every field is stored in the whole box, NaN outside its own extent, so
    # a predecessor state is one gather per field at flat index site - stride
    box = tuple(ni + 1 for ni in n)
    size = math.prod(box)
    held = min(size, LEVEL_BAND * size // max(box)) * 8 * (dim + len(spec.rhs) + 6)  # a band
    _require_memory(8 * size * (2 * num + 1) + held, "a box of " + "x".join(map(str, box))
                    + " sites", f"its {num} padded fields, their level order, the fields it "
                    "returns and the plan of a band of levels")
    stride = [int(np.prod(box[i + 1 :])) for i in range(dim)]
    full = [np.full(box, np.nan) for _ in range(num)]
    flat = [f.reshape(-1) for f in full]
    for k in range(num):
        face = tuple(1 if i in spec.evol[k] else shapes[k][i] for i in range(dim))
        for idx in np.ndindex(*face):
            val = np.asarray(data[k](*site(idx)))
            if val.shape or val.dtype.kind not in "biuf":
                raise ValueError(f"a_{k} data at {site(idx)} is not a real scalar: {val!r:.60}")
            if not np.isfinite(val):
                raise BlowUpError(f"a_{k}", site(idx))
            full[k][idx] = val

    # the box's flat indices by level (index sum), lexicographic within one
    level = sum(np.ogrid[tuple(slice(m) for m in box)]).reshape(-1)
    order = np.argsort(level, kind="stable")
    bounds = np.concatenate(([0], np.cumsum(np.bincount(level))))
    del level

    worst, top, pairs = 0.0, sum(n) + 1, [(k, i) for k in range(num) for i in sorted(spec.evol[k])]
    for lo in range(1, top, LEVEL_BAND):
        # per pair (k, i): the band's sites of field k with index i > 0, those i defines, level cuts
        band = order[bounds[lo] : bounds[min(lo + LEVEL_BAND, top)]]
        idx, plan = np.unravel_index(band, box), []
        for k, i in pairs:
            on = np.flatnonzero(np.logical_and.reduce([c < m for c, m in zip(idx, shapes[k])])
                                & (idx[i] > 0))
            below = sum(idx[j][on] for j in spec.evol[k] if j < i)  # 0 where i is the smallest
            cut = np.searchsorted(on, bounds[lo : lo + LEVEL_BAND + 1] - bounds[lo]).tolist()
            plan.append((band[on], below == 0 if np.any(below) else None, cut))  # None: all
        for s in range(min(LEVEL_BAND, top - lo)):
            for (k, i), (sites, defines, cut) in zip(pairs, plan):
                if cut[s] == cut[s + 1]:
                    continue
                at = sites[cut[s] : cut[s + 1]]
                base = at - stride[i]
                val = flat[k][base] + eps[i] * spec.rhs[(k, i)]([f[base] for f in flat])
                new = slice(None) if defines is None else defines[cut[s] : cut[s + 1]]
                flat[k][at[new]] = val[new]
                if not np.isfinite(val[new]).all():
                    j = at[new][np.argmin(np.isfinite(val[new]))]
                    raise BlowUpError(f"a_{k}", site(np.unravel_index(j, box)))
                if defines is None:
                    continue
                mism = np.abs(val[~new] - flat[k][at[~new]])
                if not (mism <= COMPAT_TOL).all():
                    j = int(np.argmin(mism <= COMPAT_TOL))
                    idx = np.unravel_index(at[~new][j], box)
                    first = min(d for d in spec.evol[k] if idx[d])  # the defining direction
                    raise CompatibilityError(float(mism[j]), site(idx),
                                             detail=f"field {k}, directions {first}/{i}")
                worst = max(worst, float(mism.max(initial=0.0)))
        del plan
    fields = [np.ascontiguousarray(f[tuple(slice(m) for m in sh)]) for f, sh in zip(full, shapes)]
    return StateND(fields, spec, r, n, worst)


def _state_header(d: int) -> str:
    return "".join(f"i{i + 1}," for i in range(d)) + "value"


def save_state_csv(state: StateND, path, field_index: int) -> None:
    """Write one field as CSV: metadata line, header i1..id, then values."""
    eps_s = ",".join(f"{e:.17g}" for e in state.spec.eps)
    r_s = ",".join(f"{v:.17g}" for v in state.r)
    _save_grid(path, state.fields[field_index], f"field={field_index} eps={eps_s} r={r_s}",
               _state_header)


def load_state_csv(path) -> tuple:
    """Read back a field CSV; returns (array, eps tuple, r tuple).

    ValueError naming path unless the header is i1..id,value, eps and r
    have d entries each, and the rows fill a box with n_i or n_i + 1
    entries on axis i, n_i = r_i/eps_i."""
    arr, eps, r = _load_grid(path, _state_header)
    _check_grid(path, arr, eps, r)
    return arr, eps, r


# ---------------------------------------------------------------------------
# canonical encodings of the sine-Gordon systems


def sine_gordon_2d_spec(scheme, eps: float) -> SystemSpecND:
    """The two-field planar system as a SystemSpecND (directions x=0, y=1);
    ValueError unless eps is a step of system_for(scheme)."""
    rhs = system_for(scheme)
    _require_step(rhs, eps)
    return SystemSpecND(
        evol=(frozenset({1}), frozenset({0})),
        rhs={
            (0, 1): lambda s: rhs.step(s[0], s[1], eps)[0],
            (1, 0): lambda s: rhs.step(s[0], s[1], eps)[1],
        },
        deps={(0, 1): frozenset({0, 1}), (1, 0): frozenset({0, 1})},
        eps=(eps, eps),
    )


def sine_gordon_3d_spec(alpha: float, eps: float, scheme=SchemeKind.HIROTA) -> SystemSpecND:
    """The Backlund-extended system (x=0, y=1, layer direction z=2, step 1).

    Fields: a_0 = a with E = {y, z}, a_1 = b with E = {x, z}, a_2 = theta
    with E = {x, y}, stepped by the sides of backlund_system(alpha, scheme).
    The z-direction right-hand sides are the layer increments backlund_xi
    and backlund_eta of the theta increments; theta never steps in z (a
    fresh theta0 seeds each layer), so its extent in z counts layers.
    ValueError unless eps is a step of that system whose increments stay
    finite (the rule of check_compatibility_3d and solve_goursat_3d).
    """
    rhs6 = backlund_system(alpha, scheme)
    _require_backlund_step(rhs6, eps)
    return SystemSpecND(
        evol=(frozenset({1, 2}), frozenset({0, 2}), frozenset({0, 1})),
        rhs={
            (0, 1): lambda s: rhs6.step(s[0], s[1], eps)[0],
            (0, 2): lambda s: backlund_xi(rhs6.u(s[0], s[2], eps)),
            (1, 0): lambda s: rhs6.step(s[0], s[1], eps)[1],
            (1, 2): lambda s: backlund_eta(rhs6.v(s[1], s[2], eps), s[2], eps),
            (2, 0): lambda s: rhs6.u(s[0], s[2], eps),
            (2, 1): lambda s: rhs6.v(s[1], s[2], eps),
        },
        deps={
            (0, 1): frozenset({0, 1}),
            (0, 2): frozenset({0, 2}),
            (1, 0): frozenset({0, 1}),
            (1, 2): frozenset({1, 2}),
            (2, 0): frozenset({0, 2}),
            (2, 1): frozenset({1, 2}),
        },
        eps=(eps, eps, 1.0),
    )
