"""Command-line interface: define a surface, evolve it, verify, analyze, export.

Commands
--------
evolve    emit the time series (t, xi, H, evolved curvatures, metric factors)
collapse  JSON collapse report from both engines with their disagreement
verify    run the cross-check suite on the built-in grid or one surface
export    write evolved point clouds as CSV plus JSON sidecars

Exit codes: 0 success, 2 invalid surface or configuration, 3 unsupported
operation, 4 numerical failure.  Diagnostics go to stderr, data to stdout or
files.  The environment variable ISOFLOW_TOL overrides the default ODE
tolerances (rel_tol = ISOFLOW_TOL, abs_tol = ISOFLOW_TOL / 100).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys

import numpy as np

from . import verification
from .catalog import (
    flow_state,
    make_euclidean_cylinder,
    make_horosphere,
    make_hyperbolic_cylinder,
    make_hyperbolic_umbilic,
    make_sphere_product,
    make_sphere_umbilic,
    sphere_curvatures_from_g,
    sphere_family_from_kappa1,
    surface_from_json,
)
from .closed_form import resolve_profile
from .collapse import analyze
# sample stays importable here: perfbench/layers.py traces it at this module.
from .embedding import export_csv, export_metadata, get_embedding, sample, snapshots  # noqa: F401
from .errors import InvalidFrameError, InvalidInputError, IsoflowError, UnsupportedEmbeddingError
from .flow_ode import DEFAULT_OPTIONS, OdeOptions, estimate_tstar, integrate

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
    grp.add_argument("--g", type=int, choices=[2, 3, 4, 6],
                     help="number of distinct curvatures (sphere-g)")
    grp.add_argument("--s-param", type=float,
                     help="ladder parameter s in (0, pi/g) instead of --kappa1")
    grp.add_argument("--mults", type=str,
                     help="comma-separated multiplicities for sphere-g families")


def _sphere_g(args, g):
    if g is None:
        raise InvalidInputError("--family sphere-g needs --g")
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
    "sphere-g": ((), lambda a: _sphere_g(a, a.g)),
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


def _options_from(args) -> OdeOptions:
    rel = DEFAULT_OPTIONS.rel_tol
    abs_ = DEFAULT_OPTIONS.abs_tol
    env = os.environ.get("ISOFLOW_TOL")
    if env:
        rel = float(env)
        abs_ = rel / 100.0
    if getattr(args, "rel_tol", None) is not None:
        rel = args.rel_tol
    if getattr(args, "abs_tol", None) is not None:
        abs_ = args.abs_tol
    return OdeOptions(rel_tol=rel, abs_tol=abs_)


def _open_output(path):
    """The output stream as a context manager: stdout is left open."""
    if path is None or path == "-":
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8")


# ---------------------------------------------------------------------------
# evolve

def cmd_evolve(args) -> int:
    surface = build_surface(args)
    opts = _options_from(args)
    times = np.linspace(args.t_start, args.t_end, args.samples)

    engines = {}
    if args.engine in ("closed", "both"):
        engines["closed"] = resolve_profile(surface)
    if args.engine in ("ode", "both"):
        engines["ode"] = integrate(surface, args.t_end, opts)

    # Clip rows past the maximal domain of any engine in use.
    hi = math.inf
    if "closed" in engines:
        hi = min(hi, engines["closed"].t_star)
    if "ode" in engines:
        hi = min(hi, engines["ode"].t_domain[1] + 1e-15)
    keep = times[times < hi] if math.isfinite(hi) else times
    dropped = len(times) - len(keep)
    if dropped:
        # Name the earliest collapse time, not the ODE run's end just before it.
        t_star = min((e.t_star for e in engines.values() if e.t_star is not None), default=hi)
        print(
            f"warning: {dropped} sample(s) beyond the flow domain "
            f"(t* = {t_star if math.isfinite(t_star) else hi:.9g}) were clipped",
            file=sys.stderr,
        )

    primary = "closed" if "closed" in engines else "ode"
    rows = []
    for t in keep:
        xi = float(engines[primary].xi(t))
        state = flow_state(surface, xi, t)
        row = {
            "t": float(t),
            "xi": xi,
            "H": state.mean_curvature,
        }
        for i, k in enumerate(state.kappa_hat, start=1):
            row[f"kappa_hat_{i}"] = k
        for i, f in enumerate(state.factors, start=1):
            row[f"factor_{i}"] = f
        if args.engine == "both":
            row["discrepancy"] = abs(xi - float(engines["ode"].xi(t)))
        rows.append(row)

    with _open_output(args.output) as out:
        if args.format == "csv":
            if rows:
                header = list(rows[0])
                out.write(",".join(header) + "\n")
                for row in rows:
                    out.write(",".join(f"{row[h]:.17g}" for h in header) + "\n")
        else:
            json.dump({"surface": surface.to_dict(), "engine": args.engine,
                       "rows": rows}, out, indent=2)
            out.write("\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# collapse

def cmd_collapse(args) -> int:
    surface = build_surface(args)
    opts = _options_from(args)
    profile = resolve_profile(surface)
    report_closed = analyze(surface, profile)
    t_ode, err_bound, _, numeric = estimate_tstar(surface, opts, full_output=True)
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
    with _open_output(args.output) as out:
        json.dump(doc, out, indent=2)
        out.write("\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify

def cmd_verify(args) -> int:
    opts = _options_from(args)
    checks = args.check if args.check else None
    if args.surface_json or args.family:
        surfaces = [("cli surface", build_surface(args))]
    else:
        surfaces = None
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
    get_embedding(surface)  # an unsupported family exits 3 even if every time is clipped
    times = [float(x) for x in args.times.split(",") if x.strip()]
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
    p_evolve.add_argument("--rel-tol", type=float)
    p_evolve.add_argument("--abs-tol", type=float)
    p_evolve.set_defaults(fn=cmd_evolve)

    p_collapse = sub.add_parser("collapse", help="collapse report from both engines")
    _add_surface_args(p_collapse)
    p_collapse.add_argument("--output", help="output file (default stdout)")
    p_collapse.add_argument("--rel-tol", type=float)
    p_collapse.add_argument("--abs-tol", type=float)
    p_collapse.set_defaults(fn=cmd_collapse)

    p_verify = sub.add_parser("verify", help="run the cross-check suite")
    _add_surface_args(p_verify)
    p_verify.add_argument(
        "--check", action="append", choices=sorted(verification.ALL_CHECKS),
        help="restrict to named checks (repeatable)",
    )
    p_verify.add_argument("--rel-tol", type=float)
    p_verify.add_argument("--abs-tol", type=float)
    p_verify.set_defaults(fn=cmd_verify)

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
            FileNotFoundError, ValueError, MemoryError) as exc:
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
