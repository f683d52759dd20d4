"""Command-line surface: outputs, exit codes, clipping, determinism."""

import json
import math
import os
import subprocess
import sys

import pytest

import isoflow
from isoflow.cli import main


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def parse_csv(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, map(float, ln.split(",")))) for ln in lines[1:]]
    return header, rows


class TestEvolve:
    def test_both_engines_agree(self, capsys):
        rc, out, err = run_cli(
            capsys, "evolve", "--family", "euclidean-cylinder", "--m", "2",
            "--n", "2", "--kappa", "1", "--t-end", "0.2", "--engine", "both",
            "--samples", "21",
        )
        assert rc == 0
        header, rows = parse_csv(out)
        assert header[:3] == ["t", "xi", "H"]
        assert "discrepancy" in header
        assert max(r["discrepancy"] for r in rows) <= 1e-8

    def test_horosphere_offset_is_linear(self, capsys):
        rc, out, _ = run_cli(
            capsys, "evolve", "--family", "horosphere", "--n", "3", "--kappa", "1",
            "--t-end", "2", "--engine", "closed", "--samples", "9",
        )
        assert rc == 0
        _, rows = parse_csv(out)
        for r in rows:
            assert r["xi"] == pytest.approx(3.0 * r["t"], rel=1e-12, abs=1e-12)

    def test_minimal_surface_is_constant(self, capsys, tmp_path):
        doc = {"space_form": 1,
               "blocks": [{"kappa": 1.0, "mult": 1}, {"kappa": -1.0, "mult": 1}],
               "family": "minimal"}
        path = tmp_path / "clifford.json"
        path.write_text(json.dumps(doc))
        rc, out, _ = run_cli(
            capsys, "evolve", "--surface-json", str(path), "--t-end", "3",
            "--engine", "closed", "--samples", "7",
        )
        assert rc == 0
        _, rows = parse_csv(out)
        assert all(r["xi"] == 0.0 for r in rows)

    def test_rows_clipped_past_collapse(self, capsys):
        rc, out, err = run_cli(
            capsys, "evolve", "--family", "euclidean-cylinder", "--m", "2",
            "--n", "2", "--kappa", "1", "--t-end", "0.3", "--engine", "closed",
            "--samples", "31",
        )
        assert rc == 0
        _, rows = parse_csv(out)
        assert rows[-1]["t"] < 0.25
        assert "clipped" in err

    def test_json_format_deterministic(self, capsys):
        args = ("evolve", "--family", "sphere-umbilic", "--n", "2", "--kappa", "1",
                "--t-end", "0.1", "--format", "json", "--samples", "5")
        rc1, out1, _ = run_cli(capsys, *args)
        rc2, out2, _ = run_cli(capsys, *args)
        assert rc1 == rc2 == 0
        assert out1 == out2
        doc = json.loads(out1)
        assert len(doc["rows"]) == 5

    def test_invalid_surface_exits_2(self, capsys):
        rc, _, err = run_cli(
            capsys, "evolve", "--family", "horosphere", "--n", "3", "--kappa", "5",
            "--t-end", "1",
        )
        assert rc == 2
        assert "error" in err

    def test_missing_flags_exit_2(self, capsys):
        rc, _, err = run_cli(capsys, "evolve", "--family", "sphere-product",
                             "--t-end", "1")
        assert rc == 2

    def test_missing_surface_file_exit_2(self, capsys):
        rc, _, err = run_cli(capsys, "evolve", "--surface-json", "/no/such/file.json",
                             "--t-end", "1")
        assert rc == 2

    def test_minimal_tag_with_nonzero_curvature_sum_exit_2(self, capsys, tmp_path):
        doc = {"space_form": 1, "blocks": [{"kappa": 1.0, "mult": 2}],
               "family": "minimal"}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        rc, _, err = run_cli(capsys, "evolve", "--surface-json", str(path),
                             "--t-end", "0.1", "--engine", "closed")
        assert rc == 2

    def test_ode_engine_alone(self, capsys):
        rc, out, _ = run_cli(
            capsys, "evolve", "--family", "hyperbolic-cylinder", "--m1", "1",
            "--m2", "1", "--kappa1", "2", "--t-end", "0.1", "--engine", "ode",
            "--samples", "6",
        )
        assert rc == 0
        header, rows = parse_csv(out)
        assert "discrepancy" not in header
        assert rows[-1]["xi"] > 0


class TestCollapse:
    def test_sphere_umbilic_report(self, capsys):
        rc, out, _ = run_cli(
            capsys, "collapse", "--family", "sphere-umbilic", "--n", "2",
            "--kappa", "1",
        )
        assert rc == 0
        doc = json.loads(out)
        assert doc["closed"]["t_star"] == pytest.approx(math.log(2.0) / 4.0)
        assert doc["closed"]["limit_kind"] == "point"
        assert doc["delta_t_star"] <= 1e-7

    def test_g2_report(self, capsys):
        rc, out, _ = run_cli(
            capsys, "collapse", "--family", "sphere-product", "--l", "1",
            "--n", "2", "--kappa1", "2",
        )
        doc = json.loads(out)
        assert doc["closed"]["t_star"] == pytest.approx(math.log(5.0 / 3.0) / 4.0)
        assert doc["closed"]["focal_dimension"] == 1
        assert doc["ode"]["report"]["focal_dimension"] == 1

    def test_collapse_time_below_evaluation_offset(self, capsys):
        # t* = 2.5e-9 lies below the 1e-8 offset the limit is evaluated at.
        rc, out, _ = run_cli(
            capsys, "collapse", "--family", "sphere-umbilic", "--n", "2",
            "--kappa", "1e4",
        )
        assert rc == 0
        doc = json.loads(out)
        expected = math.log1p(1e-8) / 4.0
        assert doc["closed"]["t_star"] == pytest.approx(expected, rel=1e-12)
        assert doc["ode"]["t_star"] == pytest.approx(expected, rel=1e-7)
        assert doc["closed"]["limit_kind"] == "point"

    def test_eternal_reports_null(self, capsys):
        rc, out, _ = run_cli(
            capsys, "collapse", "--family", "horosphere", "--n", "3", "--kappa", "1",
        )
        doc = json.loads(out)
        assert doc["closed"]["t_star"] is None
        assert doc["ode"]["t_star"] is None
        assert doc["closed"]["limit_kind"] == "eternal"

    def test_integrator_counters(self, capsys):
        counters = {}
        for family in ("sphere-umbilic", "horosphere"):
            rc, out, _ = run_cli(capsys, "collapse", "--family", family, "--n", "2",
                                 "--kappa", "1")
            assert rc == 0
            ode = json.loads(out)["ode"]
            counters[family] = c = ode["integrator"]
            # 2 calls pick the first step, 12 per attempt, 3 per accepted step's interpolant.
            assert c["nfev"] == 2 + 15 * c["accepted_steps"] + 12 * c["rejected_steps"]
        assert counters["horosphere"]["guard_trigger"] is None  # it never collapses
        trigger = counters["sphere-umbilic"]["guard_trigger"]
        # The guard stops where c - kappa s = sqrt(singularity_guard), just before t*.
        assert trigger["factor"] == pytest.approx(math.sqrt(1e-9), rel=1e-3)
        assert 0.0 < math.log(2.0) / 4.0 - trigger["t"] < 1e-6
        assert 0.0 < math.pi / 4 - trigger["xi"] < 1e-4


class TestVerify:
    def test_subset_check_on_single_surface(self, capsys):
        rc, out, _ = run_cli(
            capsys, "verify", "--family", "sphere-product", "--l", "1", "--n", "2",
            "--kappa1", "2", "--check", "oracle-agreement", "--check", "xi-zero",
        )
        assert rc == 0
        assert "PASS" in out and "FAIL" not in out

    def test_unknown_check_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "--check", "nonsense"])


class TestExport:
    def test_files_written(self, capsys, tmp_path):
        rc, out, _ = run_cli(
            capsys, "export", "--family", "sphere-product", "--l", "1", "--n", "2",
            "--kappa1", "2", "--times", "0,0.05,0.1", "--resolution", "6",
            "--output-dir", str(tmp_path),
        )
        assert rc == 0
        csvs = sorted(tmp_path.glob("*.csv"))
        metas = sorted(tmp_path.glob("*.json"))
        assert len(csvs) == 3 and len(metas) == 3
        assert len(csvs[0].read_text().splitlines()) == 37  # 6*6 rows + header

    def test_times_beyond_domain_clipped(self, capsys, tmp_path):
        rc, _, err = run_cli(
            capsys, "export", "--family", "euclidean-cylinder", "--m", "2", "--n", "2",
            "--kappa", "1", "--times", "0,0.5", "--resolution", "5",
            "--output-dir", str(tmp_path),
        )
        assert rc == 0
        assert "clipped" in err
        assert len(list(tmp_path.glob("*.csv"))) == 1

    def test_unsupported_family_exits_3(self, capsys, tmp_path):
        rc, _, err = run_cli(
            capsys, "export", "--family", "sphere-g3", "--kappa1", "2",
            "--times", "0", "--output-dir", str(tmp_path),
        )
        assert rc == 3

    def test_custom_stem(self, capsys, tmp_path):
        rc, _, _ = run_cli(
            capsys, "export", "--family", "horosphere", "--n", "2", "--kappa", "1",
            "--times", "0,1", "--resolution", "4", "--output-dir", str(tmp_path),
            "--stem", "snap",
        )
        assert rc == 0
        assert sorted(p.name for p in tmp_path.glob("snap_*.csv")) == [
            "snap_000.csv", "snap_001.csv",
        ]

    def test_export_and_help_leave_scipy_unloaded(self, tmp_path):
        # Only the integrator needs scipy; a fresh interpreter shows what loads.
        code = f"""
import sys
import isoflow.cli as cli
assert cli.main(["export", "--family", "sphere-product", "--l", "1", "--n", "2",
                 "--kappa1", "2", "--times", "0,0.05", "--resolution", "6",
                 "--output-dir", {str(tmp_path)!r}]) == 0
try:
    cli.main(["--help"])
except SystemExit as exc:
    assert exc.code == 0
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded
"""
        src = os.path.dirname(os.path.dirname(isoflow.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert len(list(tmp_path.glob("*.csv"))) == 2


class TestToleranceOverride:
    def test_env_var_applies(self, capsys, monkeypatch):
        monkeypatch.setenv("ISOFLOW_TOL", "1e-6")
        rc, out, _ = run_cli(
            capsys, "evolve", "--family", "sphere-umbilic", "--n", "2", "--kappa", "1",
            "--t-end", "0.1", "--engine", "both", "--samples", "5",
        )
        assert rc == 0
        _, rows = parse_csv(out)
        # looser tolerance still comfortably under the closed form scale
        assert max(r["discrepancy"] for r in rows) < 1e-4
