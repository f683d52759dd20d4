"""Command-line interface: define a surface, evolve it, verify, analyze, export.

Commands
--------
evolve    emit the time series (t, xi, H, evolved curvatures, metric factors)
collapse  JSON collapse report from both engines with their disagreement
verify    run the cross-check suite on the built-in grid or one surface
export    write evolved point clouds as CSV plus JSON sidecars

Exit codes: 0 success, 2 invalid surface or configuration, 3 unsupported
operation, 4 numerical failure.  Diagnostics go to stderr, data to stdout or
files.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import verification
from .catalog import (
    make_euclidean_cylinder,
    make_horosphere,
    make_hyperbolic_cylinder,
    make_hyperbolic_umbilic,
    make_sphere_product,
    make_sphere_umbilic,
    mean_curvature,
    sphere_curvatures_from_g,
    sphere_family_from_kappa1,
    surface_from_json,
)
from .closed_form import resolve_profile
from .collapse import analyze
# sample stays importable here: perfbench/layers.py traces it at this module.
from .embedding import sample  # noqa: F401
from .embedding import _texts, export_csv, export_metadata, get_embedding, overwrite, snapshots
from .errors import (InvalidFrameError, InvalidInputError, IsoflowError, NumericalRangeError,
                     UnsupportedEmbeddingError)
from .flow_ode import DEFAULT_OPTIONS, OdeOptions, estimate_tstar, integrate
from .spaceform import parallel_curvature, parallel_metric_factor

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_UNSUPPORTED = 3
EXIT_NUMERICAL = 4


def _add_surface_args(parser):
    grp = parser.add_argument_group("surface definition")
    grp.add_argument("--surface-json", metavar="FILE",
                     help="JSON surface document (overrides family flags)")
    grp.add_argument("--family", choices=_FAMILIES)
    grp.add_argument("--m", type=int, help="curved multiplicity (euclidean-cylinder)")
    grp.add_argument("--n", type=int, help="hypersurface dimension")
    grp.add_argument("--kappa", type=float, help="principal curvature")
    grp.add_argument("--kappa1", type=float, help="leading principal curvature")
    grp.add_argument("--m1", type=int, help="first multiplicity")
    grp.add_argument("--m2", type=int, help="second multiplicity")
    grp.add_argument("--l", type=int, help="first factor dimension (sphere-product)")
    grp.add_argument("--s-param", type=float,
                     help="ladder parameter s in (0, pi/g) instead of --kappa1")
    grp.add_argument("--mults", type=str,
                     help="comma-separated multiplicities for sphere-gN families")


def _sphere_g(args, g):
    mults = [int(x) for x in args.mults.split(",") if x.strip()] if args.mults else None
    if args.s_param is not None:
        return sphere_curvatures_from_g(g, args.s_param, mults)
    if args.kappa1 is not None:
        return sphere_family_from_kappa1(g, args.kappa1, mults)
    raise InvalidInputError(f"family {args.family!r} needs --kappa1 or --s-param")


# --family value -> (flags it needs, constructor of the parsed arguments).
# Each lambda looks its make_* up in this module when it runs, so a patched
# cli.make_* is the one called.
_FAMILIES = {
    "euclidean-cylinder": (("m", "n", "kappa"),
                           lambda a: make_euclidean_cylinder(a.m, a.n, a.kappa)),
    "horosphere": (("n", "kappa"), lambda a: make_horosphere(a.n, a.kappa)),
    "hyperbolic-umbilic": (("n", "kappa"), lambda a: make_hyperbolic_umbilic(a.n, a.kappa)),
    "hyperbolic-cylinder": (("m1", "m2", "kappa1"),
                            lambda a: make_hyperbolic_cylinder(a.m1, a.m2, a.kappa1)),
    "sphere-umbilic": (("n", "kappa"), lambda a: make_sphere_umbilic(a.n, a.kappa)),
    "sphere-product": (("l", "n", "kappa1"), lambda a: make_sphere_product(a.l, a.n, a.kappa1)),
    **{f"sphere-g{g}": ((), lambda a, g=g: _sphere_g(a, g)) for g in (2, 3, 4, 6)},
}


def build_surface(args):
    if args.surface_json:
        with open(args.surface_json, encoding="utf-8") as fh:
            return surface_from_json(fh.read())
    if not args.family:
        raise InvalidInputError("give either --surface-json or --family with its flags")
    flags, construct = _FAMILIES[args.family]
    missing = [n for n in flags if getattr(args, n) is None]
    if missing:
        raise InvalidInputError(
            f"family {args.family!r} needs flags: {', '.join('--' + n for n in missing)}"
        )
    return construct(args)


def _write_output(text, path):
    """A command's whole output, to stdout or written in place over the file at path."""
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    with overwrite(path) as fh:
        fh.write(text.encode("utf-8"))


# ---------------------------------------------------------------------------
# evolve

def cmd_evolve(args) -> int:
    surface = build_surface(args)
    opts = OdeOptions(args.rel_tol, args.abs_tol)
    if not (math.isfinite(args.t_start) and math.isfinite(args.t_end)):
        raise InvalidInputError(
            f"--t-start and --t-end must be finite, got {args.t_start!r} and {args.t_end!r}")
    times = np.linspace(args.t_start, args.t_end, args.samples)

    # Each engine's own domain picks the rows: the closed form's t < t*, and
    # each ODE run's t <= its end.
    keep, engines = times, []
    if args.engine in ("closed", "both"):
        closed = resolve_profile(surface)
        keep = keep[keep < closed.t_star]
        engines.append(closed)
    if args.engine in ("ode", "both"):
        # Each run starts at xi(0) = 0: one forward to the window's far end and one
        # backward to its near end (empty unless below 0); a time reads the run on its side.
        forward = integrate(surface, max(args.t_start, args.t_end, 0.0), opts)
        backward = integrate(surface, min(args.t_start, args.t_end, 0.0), opts)
        keep = keep[keep <= forward.t_domain[1]]
        ode_xi = np.where(keep < 0.0, backward.xi(np.minimum(keep, 0.0)),
                          forward.xi(np.maximum(keep, 0.0)))
        engines.append(forward)
    dropped = len(times) - len(keep)
    if dropped:
        # Name the earliest collapse time, not the ODE run's end just before it.
        t_star = min((e.t_star for e in engines if e.t_star is not None), default=math.inf)
        named = f" (t* = {t_star:.9g})" if math.isfinite(t_star) else ""
        print(f"warning: {dropped} sample(s) beyond the flow domain{named} were clipped",
              file=sys.stderr)

    xi = ode_xi if args.engine == "ode" else closed.xi(keep)
    sf, blocks = surface.space_form, surface.blocks
    columns = {"t": keep, "xi": xi, "H": mean_curvature(surface, xi)}
    for i, b in enumerate(blocks, start=1):
        columns[f"kappa_hat_{i}"] = parallel_curvature(sf, b.kappa, xi)
    with np.errstate(over="ignore"):  # an overflowing factor raises below
        factors = [parallel_metric_factor(sf, b.kappa, xi) for b in blocks]
    bad = ~np.isfinite(factors).all(axis=0)
    if bad.any():
        i = int(np.argmax(bad))
        raise NumericalRangeError(f"a metric factor at xi = {float(xi[i])!r} leaves double "
                                  f"range: {tuple(float(f[i]) for f in factors)}")
    columns.update((f"factor_{i}", f) for i, f in enumerate(factors, start=1))
    if args.engine == "both":
        columns["discrepancy"] = np.abs(xi - ode_xi)

    if args.format == "json":
        rows = [dict(zip(columns, row)) for row in zip(*(c.tolist() for c in columns.values()))]
        text = json.dumps({"surface": surface.to_dict(), "engine": args.engine,
                           "rows": rows}, indent=2) + "\n"
    else:  # the header line also when no sample is kept
        # Each field carries the comma after it; the last of a row, a newline.
        cells = _texts(np.stack(list(columns.values()), axis=1)).reshape(len(keep), len(columns))
        cells[:, -1] = [cell[:-1] + b"\n" for cell in cells[:, -1]]
        text = ",".join(columns) + "\n" + b"".join(cells.ravel().tolist()).decode()
    _write_output(text, args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# collapse

def cmd_collapse(args) -> int:
    surface = build_surface(args)
    opts = OdeOptions(args.rel_tol, args.abs_tol)
    profile = resolve_profile(surface)
    report_closed = analyze(surface, profile)
    t_ode, err_bound, numeric = estimate_tstar(surface, opts, full_output=True)
    report_ode = analyze(surface, numeric)

    if math.isinf(profile.t_star) and math.isinf(t_ode):
        delta = 0.0
    elif math.isinf(profile.t_star) or math.isinf(t_ode):
        delta = None
    else:
        delta = abs(profile.t_star - t_ode)
    doc = {
        "surface": surface.to_dict(),
        "closed": report_closed.to_dict(),
        "ode": {
            "t_star": None if math.isinf(t_ode) else t_ode,
            "error_bound": err_bound,
            "report": report_ode.to_dict(),
            "integrator": {
                "nfev": numeric.nfev,
                "accepted_steps": numeric.accepted_steps,
                "rejected_steps": numeric.rejected_steps,
                "t_end": float(numeric.times[-1]),
            },
        },
        "delta_t_star": delta,
    }
    _write_output(json.dumps(doc, indent=2) + "\n", args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify

def cmd_verify(args) -> int:
    opts = OdeOptions(args.rel_tol, args.abs_tol)
    checks = args.check if args.check else None
    surfaces = None
    if args.surface_json or args.family:
        surface = build_surface(args)
        resolve_profile(surface)  # without a closed form, exit 4 as collapse does
        surfaces = [("cli surface", surface)]
    results = verification.run_verification(surfaces=surfaces, checks=checks, opts=opts)
    width = max(len(r.check) for r in results)
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        failed += 0 if r.passed else 1
        print(f"{status}  {r.check:<{width}}  {r.label}: {r.detail}")
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return EXIT_OK if failed == 0 else 1


# ---------------------------------------------------------------------------
# export

def cmd_export(args) -> int:
    surface = build_surface(args)
    emb = get_embedding(surface)  # an unsupported family exits 3 even if every time is clipped
    times = [float(x) for x in args.times.split(",") if x.strip()]
    if not times:
        raise InvalidInputError(f"--times needs at least one snapshot time, got {args.times!r}")
    if not all(math.isfinite(t) for t in times):
        raise InvalidInputError(f"snapshot times must be finite, got {args.times!r}")
    if not (math.isfinite(args.extent) and args.extent > 0.0):
        raise InvalidInputError(f"--extent must be finite and > 0, got {args.extent!r}")
    profile = resolve_profile(surface)
    kept = [t for t in times if t <= profile.t_star]
    if len(kept) < len(times):
        print(
            f"warning: {len(times) - len(kept)} snapshot time(s) beyond "
            f"t* = {profile.t_star:.9g} were clipped",
            file=sys.stderr,
        )
    resolution = (
        [int(x) for x in args.resolution.split(",")]
        if "," in args.resolution
        else int(args.resolution)
    )
    os.makedirs(args.output_dir, exist_ok=True)
    stem = args.stem or surface.family
    for idx, snap in enumerate(snapshots(surface, resolution, kept, profile,
                                         extent=args.extent)):
        if idx == 0 and emb.ambient_dim > 4:  # after the frame is built, which may fail
            print(f"warning: ambient dimension {emb.ambient_dim} exceeds the default export "
                  "target of 4; downstream viewers may not cope", file=sys.stderr)
        csv_path = os.path.join(args.output_dir, f"{stem}_{idx:03d}.csv")
        export_csv(snap, csv_path)
        export_metadata(snap, os.path.join(args.output_dir, f"{stem}_{idx:03d}.json"))
        print(csv_path)
    return EXIT_OK


# ---------------------------------------------------------------------------

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="isoflow",
        description="Mean curvature flow of isoparametric hypersurfaces "
        "in space forms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_evolve = sub.add_parser("evolve", help="emit the flow time series")
    _add_surface_args(p_evolve)
    p_evolve.add_argument("--t-start", type=float, default=0.0)
    p_evolve.add_argument("--t-end", type=float, required=True)
    p_evolve.add_argument("--samples", type=int, default=101)
    p_evolve.add_argument("--engine", choices=["closed", "ode", "both"], default="both")
    p_evolve.add_argument("--format", choices=["csv", "json"], default="csv")
    p_evolve.add_argument("--output", help="output file (default stdout)")
    p_evolve.set_defaults(fn=cmd_evolve)

    p_collapse = sub.add_parser("collapse", help="collapse report from both engines")
    _add_surface_args(p_collapse)
    p_collapse.add_argument("--output", help="output file (default stdout)")
    p_collapse.set_defaults(fn=cmd_collapse)

    p_verify = sub.add_parser("verify", help="run the cross-check suite")
    _add_surface_args(p_verify)
    p_verify.add_argument(
        "--check", action="append", choices=sorted(verification.ALL_CHECKS),
        help="restrict to named checks (repeatable)",
    )
    p_verify.set_defaults(fn=cmd_verify)
    for p in (p_evolve, p_collapse, p_verify):
        p.add_argument("--rel-tol", type=float, default=DEFAULT_OPTIONS.rel_tol)
        p.add_argument("--abs-tol", type=float, default=DEFAULT_OPTIONS.abs_tol)

    p_export = sub.add_parser("export", help="write evolved point clouds")
    _add_surface_args(p_export)
    p_export.add_argument("--times", required=True,
                          help="comma-separated snapshot times")
    p_export.add_argument("--resolution", default="12",
                          help="samples per intrinsic axis (int or comma list)")
    p_export.add_argument("--extent", type=float, default=1.0,
                          help="half-width of flat/hyperbolic parameter boxes")
    p_export.add_argument("--output-dir", default=".")
    p_export.add_argument("--stem", help="output filename stem (default family)")
    p_export.set_defaults(fn=cmd_export)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (InvalidInputError, InvalidFrameError, json.JSONDecodeError,
            OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except UnsupportedEmbeddingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except IsoflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
