"""Span tracing of ksurf's layers from outside the package.

``Tracer`` wraps public functions of the ksurf modules (the layers) for the
duration of one traced job.  Each wrapper is installed on every module
attribute that holds the original function, so a call is caught wherever
the caller looks the name up (``ksurf.surfaces.solve_goursat_2d`` as well as
``ksurf.goursat.solve_goursat_2d``), and every wrapper is put back afterwards.
A layer that no longer exists is recorded in ``absent``, and one whose
arguments or result no longer fit its observer in ``unobserved``, instead
of failing.

Each layer call is one timed span, nested on a stack.  A span's self time is
its duration minus the time of the spans it caused.  Functions called per
row, per site or per batch (the right-hand sides) are not wrapped: their
time is aggregated in the self time of the span that called them.

A traced job runs twice.  The timing pass (``Tracer(memory=False)``) records
times, counts and residuals with ``tracemalloc`` off.  The memory pass
(``Tracer(memory=True)``) records only peaks: ``tracemalloc`` runs from the
entry to the exit of the outermost span of a layer in ``MEMORY_LAYERS``, so
the text export, which it slows several-fold, runs untraced.  A span's peak
is measured above the traced memory at its entry; its self peak excludes the
intervals of its child spans.
"""

from __future__ import annotations

import functools
import os
import sys
import time
import tracemalloc
from dataclasses import dataclass, field

MB = 1024.0 * 1024.0


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    peak_b: int = 0
    self_peak_b: int = 0
    residual: float = 0.0
    out_bytes: int = 0
    sites: int = 0
    keys: set = field(default_factory=set)
    per_call: dict = field(default_factory=dict)


@dataclass
class _Frame:
    start: float
    base_b: int = 0
    peak_b: int = 0
    self_peak_b: int = 0
    child_s: float = 0.0
    traced: bool = False
    owns_tracemalloc: bool = False


def _file_bytes(path) -> int:
    path = str(path)
    return os.path.getsize(path) if os.path.exists(path) else 0


# Observers run after a span closes; they read the call's arguments and
# result and never call back into ksurf's layers.

def _obs_solve2d(st, args, kwargs, result):
    rhs, data, dom = args[:3]
    a_row, b_col = result.a[:, 0], result.b[0, :]
    # distinct (rhs, data, n): '+backlund' shares the in-layer f, g of its base scheme
    st.keys.add((rhs.name.split("+")[0], dom.n, a_row.tobytes(), b_col.tobytes()))
    st.sites += (dom.n + 1) ** 2
    return f"{rhs.name.split('+')[0]},n={dom.n}"


def _obs_csv(st, args, kwargs, result):
    st.out_bytes += _file_bytes(args[0])
    return f"n={args[2].n}"


def _obs_obj(st, args, kwargs, result):
    mesh, path = args[:2]
    st.out_bytes += _file_bytes(path)
    return f"n={mesh.n}"


def _obs_zcc(st, args, kwargs, result):
    st.residual = max(st.residual, float(result[0]))
    return f"n={args[0].domain.n}"


def _obs_layer3d(st, args, kwargs, result):
    st.residual = max(st.residual, float(result.cross_residual))
    return f"n={result.domain.n},layers={result.layers}"


def _obs_compat(st, args, kwargs, result):
    st.residual = max(st.residual, float(result))


def _obs_validate(st, args, kwargs, result):
    st.residual = max(st.residual, result.edge, result.planarity, result.angle,
                      result.angle_sum)
    return f"n={args[0].n}"


def _obs_surface(st, args, kwargs, result):
    st.sites += result.shape[0] * result.shape[1]
    return f"n={result.shape[0] - 1},layers=1"


def _obs_tower(st, args, kwargs, result):
    st.sites += sum(m.points.shape[0] * m.points.shape[1] for m in result)
    return f"n={result[0].n},layers={len(result)}"


def _obs_nd(st, args, kwargs, result):
    st.residual = max(st.residual, float(result.alt_residual))
    sites = 1
    for ni in result.n:
        sites *= ni + 1
    st.sites += sites
    return "n=" + "x".join(str(ni) for ni in result.n)


def _obs_sweep(st, args, kwargs, result):
    # keep the slope farthest from first order
    if st.calls == 1 or abs(result.slope - 1.0) > abs(st.residual - 1.0):
        st.residual = float(result.slope)


def _obs_phi(st, args, kwargs, result):
    return f"n={result.domain.n}"


# (module, function, observer)
LAYERS = (
    ("goursat", "solve_goursat_2d", _obs_solve2d),
    ("goursat", "save_field_csv", _obs_csv),
    ("sinegordon", "solve_goursat_3d", _obs_layer3d),
    ("sinegordon", "reconstruct_phi", _obs_phi),
    ("sinegordon", "check_compatibility_3d", _obs_compat),
    ("frames", "zero_curvature_residual", _obs_zcc),
    ("surfaces", "build_surface", None),
    ("surfaces", "surface_from_fields", _obs_surface),
    ("surfaces", "solve_backlund_chain", None),
    ("surfaces", "backlund_surface", _obs_tower),
    ("surfaces", "backlund_step_norms", None),
    ("surfaces", "validate_k_surface", _obs_validate),
    ("surfaces", "export_obj", _obs_obj),
    ("ndsys", "solve_goursat_nd", _obs_nd),
    ("harness", "run_sweep", _obs_sweep),
    ("cli", "main", None),
)

ROOT = "bench.job"
MEMORY_LAYERS = {"goursat.solve_goursat_2d", "surfaces.surface_from_fields",
                 "surfaces.backlund_surface"}


class Tracer:
    """Installs layer wrappers, runs one job under them, restores the originals."""

    def __init__(self, memory: bool):
        self.memory = memory
        self.stats: dict[str, LayerStats] = {}
        self.absent: list[str] = []
        self.unobserved: set[str] = set()
        self.wall_s = 0.0
        self._stack: list[_Frame] = []
        self._patches: list[tuple] = []

    # -- span bookkeeping -------------------------------------------------

    def _enter(self, name: str) -> _Frame:
        frame = _Frame(0.0)
        if self.memory:
            if name in MEMORY_LAYERS and not tracemalloc.is_tracing():
                tracemalloc.start()
                frame.owns_tracemalloc = True
            if tracemalloc.is_tracing():
                cur, peak = tracemalloc.get_traced_memory()
                if self._stack and self._stack[-1].traced:
                    parent = self._stack[-1]
                    parent.self_peak_b = max(parent.self_peak_b, peak)
                    parent.peak_b = max(parent.peak_b, peak)
                tracemalloc.reset_peak()
                frame.base_b = frame.peak_b = frame.self_peak_b = cur
                frame.traced = True
        self._stack.append(frame)
        frame.start = time.perf_counter()
        return frame

    def _exit(self, frame: _Frame, st: LayerStats) -> float:
        dur = time.perf_counter() - frame.start
        self._stack.pop()
        if self.memory:
            if frame.traced:
                _, peak = tracemalloc.get_traced_memory()
                tracemalloc.reset_peak()
                frame.peak_b = max(frame.peak_b, peak)
                frame.self_peak_b = max(frame.self_peak_b, peak)
                st.peak_b = max(st.peak_b, frame.peak_b - frame.base_b)
                st.self_peak_b = max(st.self_peak_b, frame.self_peak_b - frame.base_b)
                if self._stack and self._stack[-1].traced:
                    self._stack[-1].peak_b = max(self._stack[-1].peak_b, frame.peak_b)
            if frame.owns_tracemalloc:
                tracemalloc.stop()
            return dur
        st.calls += 1
        st.total_s += dur
        st.self_s += dur - frame.child_s
        if self._stack:
            self._stack[-1].child_s += dur
        return dur

    def _span_wrapper(self, name, fn, st: LayerStats, observe):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = self._exit(frame, st)
            if observe is not None and not self.memory:
                try:
                    label = observe(st, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    # the layer's signature or result changed: keep its
                    # times and counts, drop the detail
                    self.unobserved.add(name)
                    label = None
                if label is not None:
                    st.per_call.setdefault(label, []).append(dur)
            return result

        return wrapper

    # -- installation -----------------------------------------------------

    @staticmethod
    def _modules():
        """ksurf's modules, and the benchmark's workloads module, which
        imports some layers by name."""
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name in ("ksurf", "workloads")
                                      or name.startswith("ksurf."))]

    def install(self) -> None:
        modules = self._modules()
        for mod_name, fn_name, observe in LAYERS:
            name = f"{mod_name}.{fn_name}"
            home = sys.modules.get(f"ksurf.{mod_name}")
            original = getattr(home, fn_name, None) if home is not None else None
            if original is None:
                self.absent.append(name)
                continue
            st = self.stats.setdefault(name, LayerStats())
            wrapper = self._span_wrapper(name, original, st, observe)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, original))

    def restore(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def run(self, job):
        """Run job() traced under a root span; returns its result."""
        root = self.stats.setdefault(ROOT, LayerStats())
        self.install()
        try:
            frame = self._enter(ROOT)
            try:
                return job()
            finally:
                self.wall_s = self._exit(frame, root)
        finally:
            self.restore()
            if tracemalloc.is_tracing():
                tracemalloc.stop()

    def ran_any(self, names) -> bool:
        return any(name in self.stats and self.stats[name].calls for name in names)


def _get(stats, name) -> LayerStats:
    return stats.get(name) or LayerStats()


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(tracer: Tracer, mem: Tracer | None, overhead_frac: float) -> dict:
    """Per-layer metrics of one traced job, as {name: (value, unit)}.

    tracer is the timing pass, mem the memory pass (None when the job ran no
    memory layer).  A layer the job's path does not run reads 0.
    """
    s = tracer.stats
    m = mem.stats if mem is not None else {}
    solve = _get(s, "goursat.solve_goursat_2d")
    csv = _get(s, "goursat.save_field_csv")
    obj = _get(s, "surfaces.export_obj")
    zcc = _get(s, "frames.zero_curvature_residual")
    surf = _get(s, "surfaces.surface_from_fields")
    tower = _get(s, "surfaces.backlund_surface")
    layer3d = _get(s, "sinegordon.solve_goursat_3d")
    compat = _get(s, "sinegordon.check_compatibility_3d")
    validate = _get(s, "surfaces.validate_k_surface")
    nd = _get(s, "ndsys.solve_goursat_nd")
    sweep = _get(s, "harness.run_sweep")
    stream_s = surf.self_s + tower.self_s
    layer_self = sum(st.self_s for name, st in s.items() if name != ROOT)
    wall = tracer.wall_s
    return {
        "goursat.solve_s": (solve.total_s, "s"),
        "goursat.solve_calls": (solve.calls, "count"),
        "goursat.sites_per_s": (_rate(solve.sites, solve.total_s), "1/s"),
        "goursat.peak_mb": (_get(m, "goursat.solve_goursat_2d").peak_b / MB, "MB"),
        "goursat.unique_solve_ratio": (len(solve.keys) / solve.calls if solve.calls else 0.0,
                                       "ratio"),
        "goursat.csv_s": (csv.total_s, "s"),
        "goursat.csv_mb": (csv.out_bytes / MB, "MB"),
        "surfaces.obj_s": (obj.total_s, "s"),
        "surfaces.obj_mb": (obj.out_bytes / MB, "MB"),
        "frames.zcc_s": (zcc.total_s, "s"),
        "frames.zcc_calls": (zcc.calls, "count"),
        "surfaces.stream_s": (stream_s, "s"),
        "surfaces.points_per_s": (_rate(surf.sites + tower.sites, stream_s), "1/s"),
        "surfaces.stream_peak_mb": (max(_get(m, "surfaces.surface_from_fields").self_peak_b,
                                        _get(m, "surfaces.backlund_surface").self_peak_b) / MB,
                                    "MB"),
        "sinegordon.layer3d_self_s": (layer3d.self_s, "s"),
        "sinegordon.phi_s": (_get(s, "sinegordon.reconstruct_phi").total_s, "s"),
        "surfaces.validate_s": (validate.total_s, "s"),
        "sinegordon.compat_s": (compat.total_s, "s"),
        "ndsys.solve_s": (nd.total_s, "s"),
        "ndsys.sites_per_s": (_rate(nd.sites, nd.total_s), "1/s"),
        "harness.sweep_self_s": (sweep.self_s, "s"),
        "cli.self_s": (_get(s, "cli.main").self_s, "s"),
        "frames.zcc_residual": (zcc.residual, "abs"),
        "sinegordon.theta_cross_residual": (layer3d.residual, "abs"),
        "sinegordon.compat_residual": (compat.residual, "abs"),
        "surfaces.validate_residual": (validate.residual, "rel"),
        "ndsys.alt_residual": (nd.residual, "abs"),
        "harness.slope": (sweep.residual, "slope"),
        "trace.wall_s": (wall, "s"),
        "trace.covered_frac": (layer_self / wall if wall > 0 else 0.0, "ratio"),
        "trace.overhead_frac": (overhead_frac, "ratio"),
    }


def layer_table(tracer: Tracer, mem: Tracer | None) -> dict:
    """Raw per-layer stats and per-call times, for the run record."""
    m = mem.stats if mem is not None else {}
    return {
        name: {
            "calls": st.calls,
            "total_s": st.total_s,
            "self_s": st.self_s,
            "peak_mb": _get(m, name).peak_b / MB,
            "self_peak_mb": _get(m, name).self_peak_b / MB,
            "per_call_s": st.per_call,
        }
        for name, st in sorted(tracer.stats.items())
    }
