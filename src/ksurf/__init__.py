"""Integrable discretizations of sine-Gordon: discrete K-surfaces,
Backlund transformations, and convergence experiments.

The package is organized bottom-up:

    goursat    lattice Goursat problems for two edge fields
    sinegordon naive and Hirota schemes, Backlund extension, compatibility
    frames     Lax matrices as SU(2) pairs; one kernel for frames, dressing, Sym
    surfaces   K-surface meshes, validation, Backlund towers, OBJ export
    ndsys      general d-dimensional compatible lattice systems
    harness    convergence sweeps on nested lattices
    cli        the `ksurf` command

The tests compare the kernel against literal 2x2 matrices built in
tests/oracles.py from the formulas in the frames docstring.
"""

from .goursat import (
    BlowUpError,
    CompatibilityError,
    EdgeField2,
    GoursatData2,
    LatticeDomain2,
    Rhs2,
    delta_x,
    delta_y,
    load_field_csv,
    save_field_csv,
    solve_goursat_2d,
    sup_error,
)
from .sinegordon import (
    BacklundParam,
    LayeredField3,
    PhiField,
    Rhs3,
    SchemeKind,
    backlund_system,
    check_compatibility_3d,
    hirota_backlund_system,
    hirota_rhs,
    hirota_system,
    load_backlund_chain,
    naive_backlund_system,
    naive_rhs,
    naive_system,
    reconstruct_phi,
    solve_goursat_3d,
    system_for,
)
from .frames import (
    FrameField,
    ZeroCurvatureError,
    propagate_frame,
    sym_matrices,
    zero_curvature_residual,
)
from .surfaces import (
    KSurfaceReport,
    SurfaceMesh,
    associated_family,
    backlund_surface,
    backlund_two_route_residual,
    build_surface,
    export_obj,
    load_obj_points,
    mesh_from_fields,
    validate_k_surface,
)
from .ndsys import (
    StateND,
    SystemSpecND,
    check_dependency,
    check_identity,
    sine_gordon_2d_spec,
    sine_gordon_3d_spec,
    solve_goursat_nd,
)
from .harness import (
    ConvergenceReport,
    SweepConfig,
    demo_data,
    emit_report,
    fit_slope,
    load_report,
    run_sweep,
    zero_data,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
