"""Judge a finished run: every op's outputs against ``checks``.

Runs in the workload's process after its timed ops.  An op's outcomes must
be identical in every round.  An op listed in ``workloads.FAULTS`` that
fails its check counts as failed; any other op that fails makes the run
incorrect (and counts as failed too).
"""

from __future__ import annotations

import os
import warnings

import isoflow

import checks
import workloads
from referee import Flow, rel_err

_FAULTS = {name for name, _, _ in workloads.FAULTS}



def cloud_surface(spec):
    """The isoflow surface of an export-cloud spec, built through the public API."""
    fam = spec["family"]
    if fam == "euclidean-cylinder":
        return isoflow.make_euclidean_cylinder(spec["m"], spec["n"], spec["kappa"])
    if fam == "sphere-product":
        return isoflow.make_sphere_product(spec["l"], spec["n"], spec["kappa1"])
    if fam == "horosphere":
        return isoflow.make_horosphere(spec["n"], spec["kappa"])
    return isoflow.make_hyperbolic_cylinder(spec["m1"], spec["m2"], spec["kappa1"])


def _cli_key(outcome):
    rc, stdout, _ = outcome  # stderr carries once-per-process warnings
    return rc, stdout


def check(work, outcomes):
    """(problems, indices of failed ops) for one run."""
    problems = []
    failed = set()
    key = (lambda o: o) if work.name == "verify-grid" else _cli_key
    for i, runs in enumerate(outcomes):
        if any(key(o) != key(runs[0]) for o in runs[1:]):
            problems.append(f"{work.ops[i][0]}: output differs between rounds")

    if work.name == "verify-grid":
        for r in range(len(outcomes[0])):
            verdicts = [v for runs in outcomes for v in runs[r]]
            problems += [f"pass {r}: {p}" for p in checks.check_verify_pass(verdicts, work.labels)]
        failed = {i for i, runs in enumerate(outcomes) if not all(v[2] for v in runs[0])}
    elif work.name == "collapse-sweep":
        for i, (name, spec, _) in enumerate(work.ops):
            rc, stdout, _ = outcomes[i][0]
            found, _, _ = checks.check_collapse(spec, rc, stdout)
            if found:
                failed.add(i)
                if name not in _FAULTS:
                    problems.append(f"{name} {spec}: {'; '.join(found)}")
    else:
        for i, (name, spec, t, res, dim) in enumerate(work.clouds):
            found = _check_cloud(outcomes[i][0], spec, t, res, dim)
            if found:
                failed.add(i)
                problems.append(f"{name} t={t!r}: {'; '.join(found)}")
    return problems, failed


def _check_cloud(outcome, spec, t, resolution, dim):
    rc, stdout, _ = outcome
    if rc != 0:
        return [f"exit code {rc}"]
    csv_path = stdout.strip()
    json_path = os.path.splitext(csv_path)[0] + ".json"
    surface = cloud_surface(spec)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        snap = isoflow.sample(surface, list(resolution), t, isoflow.resolve_profile(surface))
    flow = checks.referee_flow(spec)
    try:
        return checks.check_export(
            csv_path, json_path, surface.family, flow.kbar, t, resolution, dim,
            snap.points, snap.normals, flow.xi_at(t))
    except (OSError, ValueError) as exc:  # missing file, ragged CSV, bad JSON
        return [f"unreadable output: {exc}"]


def layer_errors(records):
    """Largest t* relative error per layer over traced non-fault ops.

    ``records`` maps layer -> {(op, key): (surface dict, t*)}; the referee
    takes the curvature blocks exactly as the program holds them.
    """
    out = {}
    exact_of = {}
    for layer, seen in records.items():
        worst = 0.0
        for (op, key), (surface, value) in seen.items():
            if op in _FAULTS:
                continue
            if key not in exact_of:
                blocks = [(b["kappa"], b["mult"]) for b in surface["blocks"]]
                exact_of[key] = Flow(surface["space_form"], blocks).t_star()
            exact = exact_of[key]
            if exact is None:
                err = 0.0 if value == float("inf") else 1.0
            elif value == float("inf"):
                err = 1.0
            else:
                err = rel_err(value, exact)
            worst = max(worst, err)
        out[layer] = worst
    return out
