"""Command-line interface.

Subcommands:

    solve      solve the Goursat problem, write a/b (optionally phi) as CSV
    surface    build a K-surface, write OBJ + .meta, print validation
    backlund   build a Backlund tower of surfaces, one OBJ per layer
    converge   run a convergence sweep, write an epsilon/error CSV report
    check      evaluate the 3D compatibility residual on random samples

Only solve, converge and check take --scheme; surface and backlund are
Hirota-only.  converge refuses --lambda unless the quantity is surface or
surface_bt, and --alpha, --theta0, --bt-file unless it is surface_bt; the
quotient order is the m of the quantity quotients_order_<m>.

Exit codes: 0 success, 1 invalid arguments or inputs, 2 numerical failure
(blow-up, incompatibility, residual above threshold); failures print the
offending site or residual to stderr.  Every subcommand is deterministic:
identical flags give bit-identical results, also where the residual checks
run in bands on several cores.

Numbers in output files carry 17 significant digits, enough to round-trip
float64 exactly.  Tabulated data files (--data APATH,BPATH) hold one
"x value" pair per line with strictly increasing x matching the lattice
sites of the requested grid exactly; values are used as given, never
interpolated.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .goursat import (
    COMPAT_TOL,
    BlowUpError,
    CompatibilityError,
    GoursatData2,
    LatticeDomain2,
    _plan,
    _read_pairs,
    save_field_csv,
    solve_goursat_2d,
)
from .frames import ZeroCurvatureError
from .harness import SweepConfig, demo_data, emit_report, run_sweep, zero_data
from .sinegordon import (
    BacklundParam,
    SchemeKind,
    backlund_system,
    check_compatibility_3d,
    hirota_system,
    load_backlund_chain,
    reconstruct_phi,
    system_for,
)
from .surfaces import (
    backlund_step_norms,
    backlund_surface,
    export_obj,
    mesh_from_fields,
    validate_k_surface,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"error: {message}\n")


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--r", type=float, default=1.0, help="domain size (default 1.0)")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--k", type=int, default=None,
                   help="lattice level: eps = 2^-k, n = r*2^k (default 6)")
    g.add_argument("--eps", type=float, default=None, help="lattice step (r/eps must be integer)")
    p.add_argument(
        "--data", default="demo",
        help="'demo', 'zero', or 'APATH,BPATH' tabulated files (default demo)",
    )


def _add_chain(p: argparse.ArgumentParser):
    p.add_argument("--alpha", type=float, action="append", default=None,
                   help="Backlund parameter, repeat per step")
    p.add_argument("--theta0", type=float, action="append", default=None,
                   help="origin angle, repeat per step")
    p.add_argument("--bt-file", default=None,
                   help="file with one 'alpha theta0' pair per line")


def _build_parser() -> _Parser:
    top = _Parser(prog="ksurf", description=__doc__.split("\n\n")[0])
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve the Goursat problem and write fields")
    _add_common(p)
    p.add_argument("--scheme", choices=["naive", "hirota"], default="hirota",
                   help="discretization scheme (default hirota)")
    p.add_argument("--out", default="solve", help="output prefix (default 'solve')")
    p.add_argument("--phi", action="store_true", help="also reconstruct and write phi")

    p = sub.add_parser("surface", help="build a K-surface and export OBJ")
    _add_common(p)
    p.add_argument("--lambda", dest="lam", type=float, default=1.0,
                   help="spectral parameter (default 1.0)")
    p.add_argument("--out", default="surface", help="output prefix (default 'surface')")

    p = sub.add_parser("backlund", help="build a tower of Backlund-transformed surfaces")
    _add_common(p)
    p.add_argument("--lambda", dest="lam", type=float, default=1.0,
                   help="spectral parameter (default 1.0)")
    _add_chain(p)
    p.add_argument("--out", default="backlund", help="output prefix (default 'backlund')")

    p = sub.add_parser("converge", help="run a convergence sweep")
    p.add_argument("--quantity", default="fields_ab",
                   help="fields_ab | phi | surface | surface_bt | quotients[_order_m]")
    p.add_argument("--r", type=float, default=1.0)
    p.add_argument("--kmin", type=int, default=5)
    p.add_argument("--kmax", type=int, default=10)
    p.add_argument("--kref", type=int, default=12,
                   help="reference level, eps = 2^-kref (default 12); a fields_ab reference "
                        "keeps only the kmax sites, at O(r 2^kref) memory beyond them; a "
                        "reference whose two full fields exceed the available memory is refused")
    p.add_argument("--scheme", choices=["naive", "hirota"], default="hirota")
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="spectral parameter, surface and surface_bt only (default 1.0)")
    _add_chain(p)  # surface_bt only
    p.add_argument("--data", default="demo")
    p.add_argument("--out", default=None,
                   help="report path (default converge_<quantity>.csv)")

    p = sub.add_parser("check", help="measure the 3D compatibility residual")
    p.add_argument("--scheme", choices=["naive", "hirota"], default="hirota")
    p.add_argument("--samples", type=int, default=10000,
                   help="random (a, b, theta) samples in [-3, 3]^3 (default 10000)")
    p.add_argument("--alpha", type=float, action="append", default=None,
                   help="Backlund parameters to test (default 0.5 1 2)")
    p.add_argument("--eps", type=float, action="append", default=None,
                   help="lattice steps to test (default 1/8 and 1/64)")
    p.add_argument("--seed", type=int, default=0, help="sample seed (default 0)")
    return top


def _domain(args) -> LatticeDomain2:
    if args.eps is not None:
        return LatticeDomain2(args.r, args.eps)
    return LatticeDomain2.from_k(args.r, args.k if args.k is not None else 6)


def _load_tabulated(path: str, dom: LatticeDomain2) -> np.ndarray:
    pairs = _read_pairs(path, "x value", lambda x, v: (x, v))
    if len(pairs) != dom.n:
        raise ValueError(
            f"{path}: {len(pairs)} rows, but the grid needs {dom.n} data sites"
        )
    xs, vals = np.array(pairs, dtype=float).T
    if (xs[1:] <= xs[:-1]).any():
        raise ValueError(f"{path}: x values must be strictly increasing")
    want = np.arange(len(xs)) * dom.eps
    off = ~np.isfinite(xs) | (np.abs(xs - want) > 1e-12 * np.maximum(1.0, np.abs(xs)))
    if off.any():
        i = int(off.argmax())
        raise ValueError(
            f"{path}: x = {float(xs[i])!r} does not match lattice site {float(want[i])!r} "
            f"(no interpolation is performed)"
        )
    return vals


def _resolve_data(spec: str, dom: LatticeDomain2) -> GoursatData2:
    if spec == "demo":
        return demo_data()
    if spec == "zero":
        return zero_data()
    if "," in spec:
        apath, bpath = spec.split(",", 1)
        return GoursatData2(_load_tabulated(apath, dom), _load_tabulated(bpath, dom))
    raise ValueError(f"--data must be 'demo', 'zero', or 'APATH,BPATH', got {spec!r}")


def _chain(args, default=None) -> list:
    if args.bt_file is not None:
        if args.alpha is not None or args.theta0 is not None:
            raise ValueError("pass --bt-file or --alpha/--theta0 lists, not both")
        return load_backlund_chain(args.bt_file)
    if args.alpha is None and args.theta0 is None:
        if default is not None:
            return list(default)
        raise ValueError("a Backlund chain needs --alpha/--theta0 pairs or --bt-file")
    if args.alpha is None or args.theta0 is None or len(args.alpha) != len(args.theta0):
        raise ValueError("--alpha and --theta0 must appear the same number of times")
    return [BacklundParam(a, t) for a, t in zip(args.alpha, args.theta0)]


def _cmd_solve(args) -> int:
    dom = _domain(args)
    data = _resolve_data(args.data, dom)
    scheme = SchemeKind(args.scheme)
    fields = solve_goursat_2d(system_for(scheme), data, dom)
    save_field_csv(f"{args.out}_a.csv", fields.a, dom)
    save_field_csv(f"{args.out}_b.csv", fields.b, dom)
    print(f"solved {args.scheme} on n = {dom.n} (eps = {dom.eps:.6g}, r = {dom.r:.6g})")
    print(f"wrote {args.out}_a.csv and {args.out}_b.csv")
    if args.phi:
        field = reconstruct_phi(fields, fields.b[0, 0], scheme)
        save_field_csv(f"{args.out}_phi.csv", field.phi, dom)
        print(f"wrote {args.out}_phi.csv")
    return 0


def _cmd_surface(args) -> int:
    dom = _domain(args)
    data = _resolve_data(args.data, dom)
    fields = solve_goursat_2d(hirota_system(), data, dom)
    mesh = mesh_from_fields(fields, args.lam)
    phi = reconstruct_phi(fields, fields.b[0, 0], SchemeKind.HIROTA)
    report = validate_k_surface(mesh, phi)
    export_obj(mesh, f"{args.out}.obj")
    print(f"surface on n = {dom.n} (eps = {dom.eps:.6g}), lambda = {args.lam:.6g}")
    print(
        f"residuals: edge {report.edge:.3e}, planarity {report.planarity:.3e}, "
        f"angle {report.angle:.3e}, angle sum {report.angle_sum:.3e} "
        f"({report.interior_sites} interior sites)"
    )
    print(f"wrote {args.out}.obj and {args.out}.meta")
    return 0


def _cmd_backlund(args) -> int:
    dom = _domain(args)
    data = _resolve_data(args.data, dom)
    chain = _chain(args)
    meshes = backlund_surface(data, dom, chain, args.lam)
    for z, mesh in enumerate(meshes):
        export_obj(mesh, f"{args.out}_layer{z}.obj")
    print(f"tower of {len(meshes)} surfaces on n = {dom.n} (eps = {dom.eps:.6g})")
    for z in range(1, len(meshes)):
        norms = backlund_step_norms(meshes[z - 1], meshes[z])
        p = chain[z - 1]
        expect = 2.0 * args.lam * p.alpha / (p.alpha**2 + args.lam**2)
        print(
            f"step {z}: |dF| mean {norms.mean():.6g} (expected {expect:.6g}, "
            f"spread {norms.max() - norms.min():.3e})"
        )
    print(f"wrote {args.out}_layer0.obj .. {args.out}_layer{len(meshes) - 1}.obj")
    return 0


def _cmd_converge(args) -> int:
    given = {"--lambda": args.lam, "--alpha": args.alpha, "--theta0": args.theta0,
             "--bt-file": args.bt_file}
    reads = {"surface": ("--lambda",), "surface_bt": tuple(given)}.get(args.quantity, ())
    for flag, value in given.items():
        if value is not None and flag not in reads:
            raise ValueError(f"--quantity {args.quantity} does not read {flag}")
    chain = ()
    if args.quantity == "surface_bt":
        chain = tuple(_chain(args, default=[BacklundParam(1.0, 0.5)]))
    cfg = SweepConfig(
        r=args.r,
        k_min=args.kmin,
        k_max=args.kmax,
        k_ref=args.kref,
        quantity=args.quantity,
        scheme=SchemeKind(args.scheme),
        lam=1.0 if args.lam is None else args.lam,
        bt_chain=chain,
    )
    if "," in args.data:
        raise ValueError(
            "converge solves on several grids, so --data must be a preset "
            "('demo' or 'zero'); tabulated files fix a single grid"
        )
    dom_fine = LatticeDomain2.from_k(cfg.r, cfg.k_ref)
    data = _resolve_data(args.data, dom_fine)
    report = run_sweep(cfg, data)
    out = args.out if args.out is not None else f"converge_{cfg.quantity}.csv"
    emit_report(report, out)
    for eps, err in report.rows:
        print(f"eps = {eps:.6g}   error = {err:.6e}")
    if report.degenerate:
        print("degenerate sweep: all errors at roundoff, no slope fitted")
    else:
        print(f"slope = {report.slope:.4f}, intercept = {report.intercept:.4f}")
    print(f"wrote {out}")
    return 0


def _cmd_check(args) -> int:
    alphas = args.alpha if args.alpha else [0.5, 1.0, 2.0]
    eps_list = args.eps if args.eps else [2.0**-3, 2.0**-6]
    if args.samples < 1:
        raise ValueError("--samples must be >= 1")
    samples, = _plan(f"--samples {args.samples}", "its (a, b, theta) samples",
                     [((args.samples, 3), float)])
    np.random.default_rng(args.seed).random(out=samples)
    samples *= 6.0  # in place, the bits of rng.uniform(-3.0, 3.0)
    samples -= 3.0
    residuals = []
    for alpha in alphas:
        rhs6 = backlund_system(alpha, SchemeKind(args.scheme))
        for eps in eps_list:
            residuals.append(check_compatibility_3d(rhs6, samples, eps))
            print(f"alpha = {alpha:<6g} eps = {eps:<12g} residual = {residuals[-1]:.3e}")
    worst = float(np.max(residuals))  # a nan residual stays nan and fails
    print(f"max residual = {worst:.3e} over {args.samples} samples ({args.scheme})")
    if not worst <= COMPAT_TOL:
        print(
            f"FAIL: residual {worst:.3e} exceeds {COMPAT_TOL:.0e}; "
            f"the right-hand sides are not compatible",
            file=sys.stderr,
        )
        return 2
    return 0


_COMMANDS = {
    "solve": _cmd_solve,
    "surface": _cmd_surface,
    "backlund": _cmd_backlund,
    "converge": _cmd_converge,
    "check": _cmd_check,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help, or a usage error
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (BlowUpError, CompatibilityError, ZeroCurvatureError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
