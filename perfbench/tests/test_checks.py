"""Tests of the benchmark's own checks: the referee and each output check.

    python3 -m pytest perfbench/tests -q
"""

import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys

import mpmath as mp
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(1, BENCH)

import isoflow  # noqa: E402
import isoflow.cli as cli  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import verdicts  # noqa: E402
import workloads  # noqa: E402
from referee import DPS, Flow  # noqa: E402

# The referee's agreement with the paper's formulas, far below the 1e-10
# the checks ask of the program.
REFEREE_RTOL = mp.mpf(10) ** (12 - DPS)


def _rel(a, b):
    with mp.workdps(DPS):
        return abs(a - b) / abs(b)


@pytest.mark.parametrize("n,kappa", [(1, 0.3), (2, 1.0), (5, -2.5), (200, 700.0), (3, 1e7)])
def test_referee_sphere_umbilic(n, kappa):
    with mp.workdps(DPS):
        k = mp.mpf(kappa)
        exact = mp.log1p(1 / k**2) / (2 * n)
    assert _rel(Flow(1, [(kappa, n)]).t_star(), exact) < REFEREE_RTOL


@pytest.mark.parametrize("m,n,kappa", [(2, 2, 1.0), (1, 3, -2.0), (3, 3, 1e-2), (5, 9, 1e4)])
def test_referee_euclidean_sphere_and_cylinder(m, n, kappa):
    blocks = [(kappa, m)] + ([(0.0, n - m)] if n > m else [])
    flow = Flow(0, blocks)
    with mp.workdps(DPS):
        exact = 1 / (2 * m * mp.mpf(kappa) ** 2)
    assert _rel(flow.t_star(), exact) < REFEREE_RTOL
    assert flow.limit() == (("point", 0) if m == n else ("focal_submanifold", n - m))


@pytest.mark.parametrize("n,kappa", [(2, 2.0), (3, -1.5), (1, 1.0 + 1e-6), (50, 1e5)])
def test_referee_hyperbolic_umbilic(n, kappa):
    with mp.workdps(DPS):
        k2 = mp.mpf(kappa) ** 2
        exact = mp.log1p(1 / (k2 - 1)) / (2 * n)
    assert _rel(Flow(-1, [(kappa, n)]).t_star(), exact) < REFEREE_RTOL


@pytest.mark.parametrize("l,n,delta", [(1, 2, 1.0), (1, 3, 1e-8), (5, 200, 1e-4)])
def test_referee_product_of_spheres_near_minimal(l, n, delta):
    spec = {"family": "sphere-product", "l": l, "n": n,
            "kappa1": math.sqrt((n - l) / l) * (1 + delta)}
    kbar, blocks = checks.exact_blocks(spec)
    with mp.workdps(DPS):
        k2 = blocks[0][0] ** 2
        exact = mp.log(l * (k2 + 1) / (l * (k2 + 1) - n)) / (2 * n)
    flow = Flow(kbar, blocks)
    assert _rel(flow.t_star(), exact) < REFEREE_RTOL
    assert flow.limit() == ("focal_submanifold", n - l)


def test_referee_eternal_flows_and_offsets():
    assert Flow(-1, [(1.0, 3)]).t_star() is None
    assert Flow(-1, [(1.0, 3)]).limit() == ("eternal", None)
    assert Flow(-1, [(0.5, 2)]).limit() == ("totally_geodesic_limit", None)
    # Horosphere: xi(t) = n kappa t exactly.
    assert _rel(Flow(-1, [(-1.0, 3)]).xi_at(0.25), mp.mpf(-0.75)) < REFEREE_RTOL
    # Euclidean sphere: xi(t) = (1 - sqrt(1 - 2 m kappa^2 t)) / kappa.
    with mp.workdps(DPS):
        exact = (1 - mp.sqrt(1 - 2 * 2 * mp.mpf(1.5) ** 2 * mp.mpf(0.1))) / mp.mpf(1.5)
    assert _rel(Flow(0, [(1.5, 2)]).xi_at(0.1), exact) < REFEREE_RTOL


def _collapse(spec):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(["collapse"] + workloads.argv(spec))
    return rc, out.getvalue()


def _scaled(stdout, engine, factor):
    doc = json.loads(stdout)
    if engine == "closed":
        doc["closed"]["t_star"] *= factor
    else:
        doc["ode"]["t_star"] *= factor
    return json.dumps(doc)


@pytest.mark.parametrize("spec", [
    {"family": "sphere-g4", "kappa1": 3.0, "mults": [2, 1, 2, 1]},
    {"family": "hyperbolic-cylinder", "m1": 2, "m2": 3, "kappa1": 1.7},
])
def test_collapse_check_rejects_tstar_off_by_1e6(spec):
    rc, stdout = _collapse(spec)
    assert checks.check_collapse(spec, rc, stdout)[0] == []
    for engine in ("closed", "ode"):
        problems, _, _ = checks.check_collapse(spec, rc, _scaled(stdout, engine, 1 + 1e-6))
        assert any(engine in p for p in problems)


def test_collapse_check_rejects_wrong_limit_and_eternal_numbers():
    spec = {"family": "sphere-product", "l": 1, "n": 3, "kappa1": 2.0}
    rc, stdout = _collapse(spec)
    doc = json.loads(stdout)
    doc["closed"]["focal_dimension"] = 1
    assert checks.check_collapse(spec, rc, json.dumps(doc))[0]
    eternal = {"family": "horosphere", "n": 2, "kappa": 1.0}
    rc, stdout = _collapse(eternal)
    assert checks.check_collapse(eternal, rc, stdout)[0] == []
    doc = json.loads(stdout)
    doc["ode"]["t_star"] = 50.0
    assert checks.check_collapse(eternal, rc, json.dumps(doc))[0]
    assert checks.check_collapse(eternal, 4, "")[0] == ["exit code 4"]


def test_every_fault_case_fails_its_check():
    for name, spec, _ in workloads.FAULTS:
        try:
            rc, stdout = _collapse(spec)
        except (ZeroDivisionError, OverflowError):
            continue  # faults d and f crash the command outright
        assert checks.check_collapse(spec, rc, stdout)[0], name


def _pass(labels):
    verdicts_ = [(c, lab, True) for lab in labels for c in checks.INSTANCE_CHECKS]
    return verdicts_ + [(c, "global", True) for c in checks.GLOBAL_CHECKS]


def test_verify_check_rejects_missing_failed_or_repeated_verdict():
    labels = [f"surface {i}" for i in range(checks.GRID_SIZE)]
    full = _pass(labels)
    assert checks.check_verify_pass(full, labels) == []
    assert any("missing" in p for p in checks.check_verify_pass(full[:-1], labels))
    assert any("missing" in p for p in checks.check_verify_pass(full[1:], labels))
    failed = [full[0][:2] + (False,)] + full[1:]
    assert any(p.startswith("FAIL") for p in checks.check_verify_pass(failed, labels))
    assert any("repeated" in p for p in checks.check_verify_pass(full + full[:1], labels))
    assert checks.check_verify_pass(full, labels[:-1])


def _export(tmp_path, spec, t, resolution):
    argv = ["export"] + workloads.argv(spec) + [
        "--times", repr(t), "--resolution", ",".join(map(str, resolution)),
        "--output-dir", str(tmp_path), "--stem", "snap"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) == 0
    return out.getvalue().strip()


def _check_cloud(csv_path, spec, t, resolution, dim):
    surface = verdicts.cloud_surface(spec)
    snap = isoflow.sample(surface, list(resolution), t, isoflow.resolve_profile(surface))
    flow = checks.referee_flow(spec)
    return checks.check_export(
        csv_path, csv_path[:-4] + ".json", surface.family, flow.kbar, t, resolution,
        dim, snap.points, snap.normals, flow.xi_at(t))


def _rewrite(path, fmt):
    header, values = checks.read_csv(path)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in values:
            fh.write(",".join(format(v, fmt) for v in row) + "\n")


CLOUD = ({"family": "hyperbolic-cylinder", "m1": 1, "m2": 1, "kappa1": 2.0}, 0.05, (9, 8), 4)


def test_export_check_accepts_the_writer_and_rejects_16_digits(tmp_path):
    spec, t, res, dim = CLOUD
    path = _export(tmp_path, spec, t, res)
    assert _check_cloud(path, spec, t, res, dim) == []
    _rewrite(path, ".17g")
    assert _check_cloud(path, spec, t, res, dim) == []
    _rewrite(path, ".16g")
    assert any("round-trip" in p for p in _check_cloud(path, spec, t, res, dim))


def test_export_check_rejects_rows_header_and_sidecar(tmp_path):
    spec, t, res, dim = CLOUD
    path = _export(tmp_path, spec, t, res)
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines[:-1])
    assert any("rows" in p for p in _check_cloud(path, spec, t, res, dim))
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines([lines[0].replace("nx0", "n0")] + lines[1:])
    assert any("header" in p for p in _check_cloud(path, spec, t, res, dim))
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    side = path[:-4] + ".json"
    with open(side, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["xi"] *= 1 + 1e-9
    with open(side, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    assert any("xi" in p for p in _check_cloud(path, spec, t, res, dim))


def test_inputs_repeat_per_seed_and_keep_the_fault_cases():
    assert workloads.collapse_sweep(7) == workloads.collapse_sweep(7)
    assert workloads.collapse_sweep(7) != workloads.collapse_sweep(8)
    names = [name for name, _ in workloads.collapse_sweep(8)]
    assert len(names) == len(set(names))
    assert names[-len(workloads.FAULTS):] == [name for name, _, _ in workloads.FAULTS]
    assert workloads.export_clouds(3) == workloads.export_clouds(3)
    for _, spec, t, res, _ in workloads.export_clouds(3):
        assert 0 < t < workloads.paper_tstar(spec)
        assert 1.2e4 < math.prod(res) < 1.3e4


def test_benchmark_json_names_the_metrics_run_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
