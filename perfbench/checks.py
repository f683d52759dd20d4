"""Output checks of the three workloads, each against a computation of its own.

Each check returns a list of problems; an empty list means the output is
correct.  None of them asks isoflow for the answer it is checking: collapse
times, offsets and focal limits come from ``referee``, grid verdicts are
counted against check names and labels fixed here, and cloud constraints use
their own inner products.  The one exception is the export round-trip check,
which compares the CSV with the arrays ``isoflow.sample`` returns, since it
checks that the writer loses nothing.
"""

from __future__ import annotations

import json
import math

import numpy as np

import mpmath as mp

from referee import DPS, Flow, rel_err

CLOSED_TSTAR_RTOL = 1e-10
ODE_TSTAR_RTOL = 1e-7
XI_RTOL = 1e-10
FRAME_TOL = 1e-10

INSTANCE_CHECKS = (
    "validation", "oracle-agreement", "ode-residual", "tstar-consistency",
    "focal-dimension", "focal-condition", "pythagorean", "xi-zero",
    "embedding-constraints",
)
GLOBAL_CHECKS = ("curvature-parametrization", "typo-resolution", "identities")
GRID_SIZE = 53

_G = {"sphere-g3": 3, "sphere-g4": 4, "sphere-g6": 6}


def exact_blocks(spec):
    """(kbar, [(kappa, mult), ...]) of the surface a workload spec names.

    The curvature passed on the command line is taken as the exact double
    the CLI parses; every other curvature follows from the family's
    relations at the referee's precision: kappa2 = -1/kappa1 for products
    of spheres, 1/kappa1 for hyperbolic cylinders, and the cotangent ladder
    cot(s + j pi / g), s = arccot(kappa1), for the g-families.
    """
    fam = spec["family"]
    with mp.workdps(DPS):
        if fam == "euclidean-cylinder":
            m, n, k = spec["m"], spec["n"], mp.mpf(spec["kappa"])
            return 0, [(k, m)] + ([(mp.mpf(0), n - m)] if m < n else [])
        if fam in ("horosphere", "hyperbolic-umbilic"):
            return -1, [(mp.mpf(spec["kappa"]), spec["n"])]
        if fam == "hyperbolic-cylinder":
            k = mp.mpf(spec["kappa1"])
            return -1, [(k, spec["m1"]), (1 / k, spec["m2"])]
        if fam == "sphere-umbilic":
            return 1, [(mp.mpf(spec["kappa"]), spec["n"])]
        if fam == "sphere-product":
            k = mp.mpf(spec["kappa1"])
            return 1, [(k, spec["l"]), (-1 / k, spec["n"] - spec["l"])]
        g = _G[fam]
        s = mp.acot(mp.mpf(spec["kappa1"]))
        mults = spec.get("mults") or [1] * g
        return 1, [(mp.cot(s + j * mp.pi / g), mults[j]) for j in range(g)]


def referee_flow(spec):
    kbar, blocks = exact_blocks(spec)
    return Flow(kbar, blocks)


def check_collapse(spec, rc, stdout, flow=None):
    """Problems with one ``isoflow collapse`` result; also returns t* errors.

    Returns (problems, closed_rel_err, ode_rel_err); the errors are None for
    eternal flows and for outputs that carry no number.
    """
    if rc != 0:
        return [f"exit code {rc}"], None, None
    try:
        doc = json.loads(stdout)
        closed, ode = doc["closed"], doc["ode"]
        reports = {"closed": closed, "ode": ode["report"]}
        t_closed, t_ode = closed["t_star"], ode["t_star"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"malformed collapse document: {exc!r}"], None, None
    flow = flow or referee_flow(spec)
    problems = []
    kind, dim = flow.limit()
    for engine, report in reports.items():
        if (report.get("limit_kind"), report.get("focal_dimension")) != (kind, dim):
            problems.append(
                f"{engine} limit ({report.get('limit_kind')}, "
                f"{report.get('focal_dimension')}) != referee ({kind}, {dim})"
            )
    t_ref = flow.t_star()
    if t_ref is None:
        if t_closed is not None or t_ode is not None:
            problems.append(f"eternal flow, got t* closed {t_closed}, ode {t_ode}")
        return problems, None, None
    if t_closed is None or t_ode is None:
        problems.append(f"t* = {float(t_ref):.6g}, got closed {t_closed}, ode {t_ode}")
        return problems, None, None
    e_closed, e_ode = rel_err(t_closed, t_ref), rel_err(t_ode, t_ref)
    if not e_closed <= CLOSED_TSTAR_RTOL:
        problems.append(f"closed t* rel err {e_closed:.3e} > {CLOSED_TSTAR_RTOL:g}")
    if not e_ode <= ODE_TSTAR_RTOL:
        problems.append(f"ode t* rel err {e_ode:.3e} > {ODE_TSTAR_RTOL:g}")
    return problems, e_closed, e_ode


def check_verify_pass(verdicts, labels):
    """Problems with one verify pass: [(check, label, passed), ...]."""
    problems = []
    if len(labels) != GRID_SIZE or len(set(labels)) != GRID_SIZE:
        problems.append(f"grid has {len(set(labels))} distinct labels, expected {GRID_SIZE}")
    expected = {(c, lab) for c in INSTANCE_CHECKS for lab in labels}
    expected |= {(c, "global") for c in GLOBAL_CHECKS}
    seen = {}
    for check, label, passed in verdicts:
        key = (check, label)
        seen[key] = seen.get(key, 0) + 1
        if not passed:
            problems.append(f"FAIL {check} {label}")
    missing = expected - set(seen)
    extra = set(seen) - expected
    repeated = [k for k, v in seen.items() if v > 1]
    if missing:
        problems.append(f"{len(missing)} verdicts missing, e.g. {sorted(missing)[0]}")
    if extra:
        problems.append(f"{len(extra)} unexpected verdicts, e.g. {sorted(extra)[0]}")
    if repeated:
        problems.append(f"{len(repeated)} verdicts repeated, e.g. {sorted(repeated)[0]}")
    return problems


def _inner(kbar, u, v):
    prod = np.sum(u * v, axis=-1)
    if kbar == -1:
        prod = prod - 2.0 * u[..., 0] * v[..., 0]
    return prod


def read_csv(path):
    """(header, values): every field parsed with float(), which rounds correctly."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        rows = [[float(x) for x in line.split(",")] for line in fh if line.strip()]
    return header, np.array(rows, dtype=float).reshape(len(rows), len(header))


def check_export(csv_path, json_path, family, kbar, t, resolution, dim,
                 sampled_points, sampled_normals, xi_ref):
    """Problems with one exported snapshot (CSV plus sidecar)."""
    problems = []
    header, values = read_csv(csv_path)
    want = [f"x{i}" for i in range(dim)] + [f"nx{i}" for i in range(dim)] + ["t"]
    if header != want:
        return [f"header {header} != {want}"]
    rows = math.prod(resolution)
    if values.shape[0] != rows:
        return [f"{values.shape[0]} rows, expected {rows}"]
    F, N, tcol = values[:, :dim], values[:, dim:2 * dim], values[:, -1]
    if not np.all(tcol == t):
        problems.append("t column differs from the snapshot time")
    scale = 1.0 + np.sum(F * F, axis=-1) + np.sum(N * N, axis=-1)
    residuals = {"<N,N> - 1": _inner(kbar, N, N) - 1.0}
    if kbar != 0:
        residuals["<F,F> - kbar"] = _inner(kbar, F, F) - kbar
        residuals["<F,N>"] = _inner(kbar, F, N)
    for name, r in residuals.items():
        worst = float(np.max(np.abs(r) / scale))
        if not worst <= FRAME_TOL:
            problems.append(f"{name} = {worst:.3e} (scaled) > {FRAME_TOL:g}")
    if not (np.array_equal(F, sampled_points) and np.array_equal(N, sampled_normals)):
        bad = int(np.sum(F != sampled_points) + np.sum(N != sampled_normals))
        problems.append(f"{bad} CSV values do not round-trip to the sampled float64")
    with open(json_path, encoding="utf-8") as fh:
        side = json.load(fh)
    if side.get("family") != family or side.get("t") != t:
        problems.append(f"sidecar family/t {side.get('family')}/{side.get('t')}")
    if side.get("resolution") != list(resolution):
        problems.append(f"sidecar resolution {side.get('resolution')} != {list(resolution)}")
    xi = side.get("xi")
    if not isinstance(xi, float):
        problems.append(f"sidecar xi {xi!r}")
    else:
        err = rel_err(xi, xi_ref)
        if not err <= XI_RTOL:
            problems.append(f"sidecar xi rel err {err:.3e} > {XI_RTOL:g}")
    return problems
