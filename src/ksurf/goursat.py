"""Goursat problems for first-order hyperbolic systems on a square lattice.

The domain is the square [0, r]^2 sampled with step eps (r/eps must be an
integer n).  Two real fields live on lattice edges:

    a(x, y)  on the horizontal edge from (x, y) to (x+eps, y),
    b(x, y)  on the vertical edge from (x, y) to (x, y+eps),

stored as arrays of shape (n, n+1) and (n+1, n): index (i, j) is the site
(i*eps, j*eps).  The system

    a(x, y+eps) = a(x, y) + eps * f(a(x, y), b(x, y))
    b(x+eps, y) = b(x, y) + eps * g(a(x, y), b(x, y))

with data a(x, 0) = a0(x), b(0, y) = b0(y) has exactly one solution.  Values
on one anti-diagonal i+j = d depend only on the previous one, so one sweep
(_sweep) fills the lattice anti-diagonal by anti-diagonal, for the stacked
data of any number of layers at once (the Backlund layers of sinegordon),
keeping every site or only those a coarser nested lattice shares (a
convergence reference).  _solve_one, behind solve_goursat_2d, solves one
layer: it checks the step, sizes the lattice, samples and checks the data
and reports a blow-up at its site.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import threading
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import _text


class BlowUpError(RuntimeError):
    """A sweep produced a non-finite value; carries the first offending site."""

    def __init__(self, field_name: str, site: tuple):
        self.field_name = field_name
        self.site = site
        super().__init__(
            f"non-finite value in field {field_name!r} at site "
            + "(" + ", ".join(f"{c:.6g}" for c in site) + ")"
        )


COMPAT_TOL = 1e-9  # largest admissible mismatch of two assignments of one value


class CompatibilityError(RuntimeError):
    """Redundant propagation paths disagreed beyond tolerance.

    Raised when the defining assignment of a lattice value and an alternative
    admissible one differ by more than COMPAT_TOL, i.e. the supplied
    right-hand sides are not mutually compatible.
    """

    def __init__(self, mismatch: float, site: tuple, detail: str = ""):
        self.mismatch = mismatch
        self.site = site
        where = "(" + ", ".join(f"{c:.6g}" for c in site) + ")"
        msg = (
            f"incompatible right-hand sides: propagation mismatch "
            f"{mismatch:.3e} at site {where}"
        )
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


def _step_count(r: float, eps: float, label: str = "r/eps") -> int:
    """The number of steps n = r/eps; ValueError unless both are finite and
    the ratio is a positive integer (to 1e-9 relative)."""
    ratio = r / eps if math.isfinite(r) and math.isfinite(eps) else math.nan
    if not math.isfinite(ratio):
        raise ValueError(f"{label} must be finite, got {r!r}/{eps!r}")
    n = round(ratio)
    if n < 1 or abs(ratio - n) > 1e-9 * max(1.0, ratio):
        raise ValueError(f"{label} = {ratio!r} is not a positive integer")
    return n


@dataclass(frozen=True)
class LatticeDomain2:
    """Square lattice domain: sites (i*eps, j*eps), 0 <= i, j <= n = r/eps."""

    r: float
    eps: float
    n: int = field(init=False)

    def __post_init__(self):
        if self.r <= 0 or self.eps <= 0:
            raise ValueError("domain requires r > 0 and eps > 0")
        object.__setattr__(self, "n", _step_count(self.r, self.eps))

    @classmethod
    def from_k(cls, r: float, k: int) -> "LatticeDomain2":
        """Domain with dyadic step eps = 2**-k."""
        return cls(r, 2.0 ** -k)


@dataclass(frozen=True)
class Rhs2:
    """Right-hand sides of the two-field system as one joint step.

    step(a, b, eps) returns the pair (f, g) and must be numpy-vectorized (it
    is called once per anti-diagonal), so subexpressions shared by f and g
    are evaluated once.  eps0 is the supremum of admissible steps: the step
    is defined and finite for 0 < eps < eps0 on real inputs.
    """

    step: Callable[[np.ndarray, np.ndarray, float], tuple[np.ndarray, np.ndarray]]
    eps0: float
    name: str


@dataclass(frozen=True)
class GoursatData2:
    """Characteristic data: a0 on the x-axis, b0 on the y-axis.

    Each entry is either a callable on [0, r] or a tabulated array with
    exactly n entries (values at 0, eps, ..., (n-1)*eps).
    """

    a0: Callable[[float], float] | np.ndarray | Sequence[float]
    b0: Callable[[float], float] | np.ndarray | Sequence[float]

    def sample(self, dom: LatticeDomain2) -> tuple[np.ndarray, np.ndarray]:
        xs = np.arange(dom.n) * dom.eps
        return _sample_axis(self.a0, xs, "a0"), _sample_axis(self.b0, xs, "b0")


def _sample_axis(data, xs: np.ndarray, label: str) -> np.ndarray:
    if callable(data):
        try:
            vals = np.asarray(data(xs), dtype=float)
        except (TypeError, ValueError):
            # scalar-only callable (math.sin and friends)
            vals = np.asarray([data(x) for x in xs], dtype=float)
        if vals.ndim == 0:
            return np.full(xs.shape, float(vals))
        if vals.shape != xs.shape:
            vals = np.asarray([data(x) for x in xs], dtype=float)
            if vals.shape != xs.shape:
                raise ValueError(f"{label} gives values of shape {vals.shape[1:]}, not scalars")
        return vals
    vals = np.asarray(data, dtype=float)
    if vals.shape != xs.shape:
        raise ValueError(
            f"tabulated {label} has {vals.size} samples, expected {xs.size}"
        )
    return vals.copy()


@dataclass
class EdgeField2:
    """Solution pair on the edge lattice: a is (n, n+1), b is (n+1, n)."""

    a: np.ndarray
    b: np.ndarray
    domain: LatticeDomain2

    def __post_init__(self):
        n = self.domain.n
        if self.a.shape != (n, n + 1) or self.b.shape != (n + 1, n):
            raise ValueError(
                f"field shapes {self.a.shape}, {self.b.shape} do not match "
                f"n = {n}: expected {(n, n + 1)} and {(n + 1, n)}"
            )


def delta_x(p: np.ndarray, eps: float) -> np.ndarray:
    """Forward difference quotient in the first (x) index."""
    return (p[1:, :] - p[:-1, :]) / eps


def delta_y(p: np.ndarray, eps: float) -> np.ndarray:
    """Forward difference quotient in the second (y) index."""
    return (p[:, 1:] - p[:, :-1]) / eps


def _require_step(rhs, eps: float) -> None:
    if not 0.0 < eps < rhs.eps0:
        raise ValueError(
            f"step eps = {eps} is not admissible for rhs {rhs.name!r} "
            f"(requires 0 < eps < {rhs.eps0})"
        )


def solve_goursat_2d(rhs: Rhs2, data: GoursatData2, dom: LatticeDomain2) -> EdgeField2:
    """Solve the discrete Goursat problem by the anti-diagonal sweep: every
    value is assigned once, so the result is bitwise that of the
    lexicographic double loop.  The errors are those of _solve_one.
    """
    return _solve_one(rhs, data, dom, 1)


_MEMINFO = "/proc/meminfo"  # Linux; its MemAvailable counts reclaimable page cache too


def _available_bytes() -> int | None:
    """Memory available for new allocations in bytes: MemAvailable of the
    kernel's meminfo where there is one, otherwise the free physical pages
    (which leave out the page cache the kernel would reclaim), or None where
    the system says neither."""
    try:
        with open(_MEMINFO, "rb") as fh:
            for line in fh:
                if line.startswith(b"MemAvailable:"):
                    return int(line.split()[1]) * 1024  # the figure is in kB
    except OSError:  # no such file here
        pass
    try:
        pages = os.sysconf("SC_AVPHYS_PAGES")
        size = os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):  # no such sysconf name here
        return None
    return pages * size if pages >= 0 and size > 0 else None


def _require_memory(need: int, what: str, purpose: str) -> None:
    """ValueError when what needs need bytes for purpose, more than the
    available memory; called before the bytes are allocated (no check where
    the system reports no figure)."""
    avail = _available_bytes()
    if avail is not None and need > avail:
        raise ValueError(f"{what} needs {need} bytes for {purpose}, more than the "
                         f"{avail} bytes of available memory")


_BAND_FLOOR = 1 << 12  # the fewest sites in a tile of _bands that is not the only one


def _cores() -> int:  # the cores this process may run on
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _tiles(rows: int, per_row: int) -> tuple[list, int, int]:
    """(cuts, runs, held) of _bands over rows of per_row sites: tile k is
    rows cuts[k]..cuts[k+1]-1, runs tiles run at once, and held is the most
    sites those hold together.

    The rows are cut evenly into as many tiles as hold the fewest whole rows
    with at least 2 _BAND_FLOOR sites each, that count rounded up to a
    multiple of runs so that each run does the same work, or into one tile
    per core where that gives more; none under _BAND_FLOOR sites, and one
    tile where no two are that large."""
    per_row = max(per_row, 1)
    most = rows // -(-_BAND_FLOOR // per_row)  # the most tiles of _BAND_FLOOR sites
    fewest = rows // -(-2 * _BAND_FLOOR // per_row)  # tiles of 2 _BAND_FLOOR sites
    runs = max(1, min(_cores(), most))
    count = max(runs, min(most, -(-fewest // runs) * runs))
    return [rows * k // count for k in range(count + 1)], runs, runs * -(-rows // count) * per_row


def _bands(rows: int, per_row: int, fn) -> list:
    """[fn(lo, hi) for the tiles [lo, hi) of range(rows)] (_tiles), rows of
    per_row sites.  The tiles are dealt in contiguous runs to one thread per
    core: run 0 in the caller, the others on threads, each tile after tile
    under the caller's np.errstate, so the temporaries of at most one tile per
    core are held at once.  A run stops at its first failing tile; all are
    joined before this returns or raises the lowest failing tile's error."""
    cuts, runs, _ = _tiles(rows, per_row)
    count, state = len(cuts) - 1, np.geterr()
    out, errors, threads = [None] * count, [None] * count, []

    def run(r):
        with np.errstate(**state):  # a thread starts from numpy's default state
            for k in range(count * r // runs, count * (r + 1) // runs):
                try:
                    out[k] = fn(cuts[k], cuts[k + 1])
                except BaseException as exc:  # raised in the caller, lowest tile first
                    errors[k] = exc
                    return

    try:
        for r in range(1, runs):
            t = threading.Thread(target=run, args=(r,))
            t.start()
            threads.append(t)  # once started, so that every thread listed can be joined
        run(0)
    finally:
        for t in threads:
            t.join()
    for exc in filter(None, errors):
        raise exc
    return out


def _check_data(a_row: np.ndarray, b_col: np.ndarray, eps: float) -> None:
    """BlowUpError of field 'data' at the first non-finite axis sample, if
    any: an a0 sample (on the x-axis) before a b0 sample (on the y-axis),
    then the lowest index."""
    for axis, vals in enumerate((a_row, b_col)):
        if not np.isfinite(vals).all():
            at = int(np.argmin(np.isfinite(vals))) * eps
            raise BlowUpError("data", (at, 0.0) if axis == 0 else (0.0, at))


def _solve_one(rhs: Rhs2, data: GoursatData2, dom: LatticeDomain2, every: int) -> EdgeField2:
    """One layer's solve, kept at the sites i = j = 0 (mod every) as an
    EdgeField2 on LatticeDomain2(r, eps*every).

    ValueError for a step eps the rhs does not admit, for an every that does
    not divide n, and, before the data are sampled, when the two full fields,
    16 n (n+1) bytes, exceed the available memory (a blow-up report may need
    them).  BlowUpError 'data' at the first non-finite sample (_check_data),
    otherwise at the first site in sweep order where a non-finite value
    appears: the systems here are nonlinear and can blow up for large data
    on large domains.  With every > 1 that site comes from a full re-solve
    of the same samples.
    """
    _require_step(rhs, dom.eps)
    kept = LatticeDomain2(dom.r, dom.eps * every)  # ValueError unless every divides n
    _require_memory(16 * dom.n * (dom.n + 1), f"a lattice of n = {dom.n} steps", "its two fields")
    a0, b0 = data.sample(dom)
    _check_data(a0, b0, dom.eps)
    samples = a0[None], b0[None]  # a stack of one layer
    a, b, finite = _sweep(rhs, samples, dom, every)
    if not finite[0]:
        if every > 1:
            a, b, _ = _sweep(rhs, samples, dom, 1)
        _raise_first_blowup(a[0], b[0], dom.eps)
        raise AssertionError(f"the sweep went non-finite but no site of the full lattice did "
                             f"(rhs {rhs.name!r} is not deterministic)")
    return EdgeField2(a[0], b[0], kept)


def _sweep(rhs: Rhs2, samples, dom: LatticeDomain2, every: int):
    """The anti-diagonal sweep of L stacked layers, keeping only the sites
    i = j = 0 (mod every, which divides n).

    samples is the pair (a0, b0) of (L, n) axis samples.  The current
    anti-diagonal d lives in two slot buffers, A[i] = a[i, d-i] indexed by i
    and B[n-1-d+i] = b[i, d-i] indexed by reversed j, slot i a contiguous
    row of L values, one per layer.  A starts as the a0 samples and B as the
    b0 samples reversed.  The cell (i, d-i) moves a[i, d-i] to a[i, d-i+1]
    and b[i, d-i] to b[i+1, d-i], each within its own slot, so one step of
    every layer is one rhs.step on two contiguous views and an in-place
    update, with the arithmetic of the double loop.  The kept sites of each
    new anti-diagonal are then copied out: every every-th slot of every
    every-th anti-diagonal.  Returns (a, b, finite): the kept fields as
    (L, nc, nc+1) and (L, nc+1, nc) arrays, nc = n/every, each layer's
    bitwise its full solve at those sites, and per layer whether it stayed
    finite.  Memory beyond them is O(L n).  A slot only ever gains eps*f, so
    a value that went non-finite leaves its slot non-finite to the end: one
    test of the final slots finds any blow-up of a layer.
    """
    n, eps, nc = dom.n, dom.eps, dom.n // every
    a0, b0 = samples
    A, B = a0.T.copy(), b0.T[::-1].copy()  # slot i of every layer is row i
    L = len(a0)
    a, b = np.empty((L, nc, nc + 1)), np.empty((L, nc + 1, nc))
    a[:, :, 0], b[:, 0] = a0[:, ::every], b0[:, ::every]
    af, bf = a.reshape(L, -1).T, b.reshape(L, -1).T  # site k is row k
    sb = max(nc - 1, 1)  # b's stride; at nc = 1 every diagonal has one kept site
    with np.errstate(all="ignore"):  # a blow-up is the caller's to report, not warned of
        for d in range(2 * n - 1):
            lo, hi = max(0, d - n + 1), min(d, n - 1)
            av, bv = A[lo : hi + 1], B[n - 1 - d + lo : n - d + hi]
            f, g = rhs.step(av, bv, eps)
            f, g = eps * f, eps * g  # both before either slot moves: f, g may be views of them
            av += f
            bv += g
            # av and bv now hold a[i, d-i+1] and b[i+1, d-i], lo <= i <= hi
            if (d + 1) % every == 0:
                e = (d + 1) // every
                i0, i1 = -(-lo // every), hi // every
                af[e + i0 * nc : e + i1 * nc + 1 : nc] = av[i0 * every - lo :: every]
                i0, i1 = -(-(lo + 1) // every), (hi + 1) // every
                bf[e + i0 * (nc - 1) : e + i1 * (nc - 1) + 1 : sb] = \
                    bv[i0 * every - lo - 1 :: every]
    return a, b, np.isfinite(A).all(axis=0) & np.isfinite(B).all(axis=0)


def _raise_first_blowup(a: np.ndarray, b: np.ndarray, eps: float) -> None:
    """Raise BlowUpError at the first non-finite value the sweep wrote, if any.

    Step d writes a[i, d-i+1] and b[i+1, d-i]: the sweep order is by d, then a
    before b, then by i."""
    found = []
    for key, (name, grid, (di, dj)) in enumerate((("a", a[:, 1:], (0, 1)),
                                                  ("b", b[1:, :], (1, 0)))):
        i, j = np.nonzero(~np.isfinite(grid))
        if i.size:
            at = int(np.argmin((i + j) * len(grid) + i))  # lowest d, then lowest i
            i0, j0 = int(i[at]), int(j[at])
            found.append(((i0 + j0, key, i0), name, ((i0 + di) * eps, (j0 + dj) * eps)))
    if found:
        _, name, site = min(found)
        raise BlowUpError(name, site)


def sup_error(p: np.ndarray, eps_p: float, q: np.ndarray, eps_q: float) -> float:
    """Sup-norm distance between grid functions on nested grids.

    p lives on the coarser grid (step eps_p), q on the finer one; eps_p must
    be an integer multiple of eps_q.  Compared at coincident sites, on the
    index range where both arrays are defined.  Axes after the first two hold
    coordinates (surface points, say): there the distance is Euclidean.
    """
    s = _step_count(eps_p, eps_q, "grids are not nested: eps_p/eps_q")
    n0 = min(p.shape[0], (q.shape[0] - 1) // s + 1)
    n1 = min(p.shape[1], (q.shape[1] - 1) // s + 1)
    if n0 == 0 or n1 == 0:
        raise ValueError("grids share no sites")
    diff = p[:n0, :n1] - q[: n0 * s : s, : n1 * s : s]
    if diff.ndim > 2:
        diff = np.sqrt(np.sum(diff * diff, axis=tuple(range(2, diff.ndim))))
    return float(np.max(np.abs(diff)))


def _read_pairs(path, what: str, make) -> list:
    """make(x, y) for each line "x y" of two numbers in a text file; blank
    lines and lines starting with # are skipped.  ValueError naming path:line
    for a line that is not two numbers or that make refuses."""
    out = []
    with open(path, "r", encoding="ascii") as fh:
        for ln, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{ln}: expected '{what}', got {line!r}")
            try:
                out.append(make(float(parts[0]), float(parts[1])))
            except ValueError as exc:
                raise ValueError(f"{path}:{ln}: {exc}") from None
    return out


_ROW_BLOCK = 1 << 15  # lines parsed per np.loadtxt call


def _row_error(lines, path, d: int, parse) -> ValueError:
    """The error naming by its text the first of lines that parse refuses,
    found by bisection (numpy's own message counts rows within the block)."""
    lo, hi = 0, len(lines)  # the first refused line is in lines[lo:hi]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            parse(lines[lo:mid])
            lo = mid
        except ValueError:
            hi = mid
    line = lines[lo].strip()
    cols = line.split(",")
    if len(cols) != d + 1:
        return ValueError(f"{path}: row {line!r} does not have {d + 1} columns")
    try:
        np.array([int(c) for c in cols[:d]], dtype=np.int64)
    except OverflowError:
        return ValueError(f"{path}: index too large in row {line!r}")
    except ValueError:  # a non-integer index, reported below as any other refused row
        pass
    return ValueError(f"{path}: row {line!r} is not {d} integer indices and a value")


def _read_rows(fh, path, d: int) -> np.ndarray:
    """The remaining lines "i1,...,id,value" of fh as a d-dim array; ValueError
    naming path for a row without d + 1 columns, no data rows, a negative or
    too large index, duplicate rows, or an index set that does not fill a box.

    np.loadtxt parses _ROW_BLOCK lines at a time, so at most one block is held
    as text; one scatter then fills the array."""
    row = np.dtype([("i", np.int64, (d,)), ("v", float)])
    parse = functools.partial(np.loadtxt, delimiter=",", dtype=row, ndmin=1, comments=None)
    blocks, text = [], itertools.filterfalse(str.isspace, fh)  # blank lines hold no rows
    while lines := list(itertools.islice(text, _ROW_BLOCK)):
        try:
            blocks.append(parse(lines))
        except ValueError:
            raise _row_error(lines, path, d, parse) from None
    if not blocks:
        raise ValueError(f"{path}: no data rows")
    rows = np.concatenate(blocks)
    del blocks
    idx = rows["i"]
    if (idx < 0).any():
        bad = idx[(idx < 0).any(axis=1)][0]
        raise ValueError(f"{path}: negative index {tuple(int(v) for v in bad)}")
    shape = tuple(int(m) + 1 for m in idx.max(axis=0))
    size = math.prod(shape)
    if size <= rows.size:  # otherwise the box has a hole
        flat = np.ravel_multi_index(tuple(idx.T), shape)
        counts = np.bincount(flat, minlength=size)
        if counts.max() > 1:
            dup = np.unravel_index(int(counts.argmax()), shape)
            raise ValueError(f"{path}: duplicate rows for index {tuple(int(v) for v in dup)}")
    if size != rows.size:
        raise ValueError(f"{path}: grid has missing entries (index set does not fill a full box)")
    arr = np.empty(shape)
    arr.reshape(-1)[flat] = rows["v"]
    return arr


def _check_grid(path, arr: np.ndarray, eps: tuple, r: tuple) -> None:
    """ValueError naming path unless eps and r hold one entry per axis of arr
    and axis i has n_i or n_i + 1 entries, n_i = r_i/eps_i (a field extends
    to n_i in the directions it is stepped in, n_i - 1 in the others)."""
    if not len(eps) == len(r) == arr.ndim:
        raise ValueError(f"{path}: grid dimension {arr.ndim} does not match metadata "
                         f"({len(eps)} eps and {len(r)} r entries)")
    for i, (m, e, ri) in enumerate(zip(arr.shape, eps, r)):
        try:
            n = _step_count(ri, e, f"r/eps on axis {i}")
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        if m not in (n, n + 1):
            raise ValueError(f"{path}: axis {i} has {m} entries, but r/eps = {n} "
                             f"allows {n} or {n + 1}")


def _save_grid(path, arr: np.ndarray, meta: str, header) -> None:
    """Write arr as a grid CSV: the line "# meta", the line header(arr.ndim),
    then one "i1,...,id,value" line per site.

    The sites go in row-major order, _text.BLOCK at a time, each block
    formatted by one _text.lines call: the value's text is that of
    b"%.17g" % float(value), and the memory held is bounded by the block."""
    with open(path, "wb") as fh:
        fh.write(f"# {meta}\n{header(arr.ndim)}\n".encode("ascii"))
        for start in range(0, arr.size, _text.BLOCK):
            stop = min(start + _text.BLOCK, arr.size)
            index = np.unravel_index(np.arange(start, stop), arr.shape)
            fh.write(_text.lines(b"", b",", np.stack(index, axis=1),
                                 arr.flat[start:stop][:, None]))


def _load_grid(path, header) -> tuple[np.ndarray, tuple, tuple]:
    """(array, eps, r) of a grid CSV written by _save_grid, eps and r the
    comma-separated numbers of its metadata; ValueError naming path for a
    missing metadata line, eps= or r=, a header line other than header(d)
    for d index columns, rows that _read_rows refuses, or a non-numeric eps
    or r."""
    with open(path, "r", encoding="ascii") as fh:
        line = fh.readline().strip()
        if not line.startswith("# "):
            raise ValueError(f"{path}: missing metadata line")
        meta = dict(tok.split("=", 1) for tok in line[2:].split() if "=" in tok)
        missing = [f"{key}=" for key in ("eps", "r") if key not in meta]
        if missing:
            raise ValueError(f"{path}: metadata line lacks {', '.join(missing)}")
        line = fh.readline().strip()
        d = line.count(",")
        if line != header(d):
            raise ValueError(f"{path}: unexpected header {line!r}")
        arr = _read_rows(fh, path, d)
    numbers = []
    for key in ("eps", "r"):
        try:
            numbers.append(tuple(float(v) for v in meta[key].split(",")))
        except ValueError:
            raise ValueError(f"{path}: metadata {key}={meta[key]} is not numeric") from None
    return arr, *numbers


def _field_header(d: int) -> str:
    return "i,j,value"


def save_field_csv(path, p: np.ndarray, dom: LatticeDomain2) -> None:
    """Write one grid field as CSV: metadata line, header, then i,j,value."""
    _save_grid(path, p, f"eps={dom.eps:.17g} r={dom.r:.17g}", _field_header)


def load_field_csv(path) -> tuple[np.ndarray, float, float]:
    """Read a field written by save_field_csv; returns (array, eps, r).

    ValueError naming path unless the rows fill a grid with n or n + 1
    entries per axis, n = r/eps."""
    arr, eps, r = _load_grid(path, _field_header)
    if len(eps) != 1 or len(r) != 1:
        raise ValueError(f"{path}: a field CSV has one eps and one r")
    _check_grid(path, arr, eps * 2, r * 2)
    return arr, eps[0], r[0]
