"""Command-line surface: outputs, exit codes, clipping, determinism."""

import hashlib
import json
import math
import os
import subprocess
import sys

import pytest

import isoflow
from isoflow.cli import main
from isoflow.collapse import ETERNAL_CHECK_TIME


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

    @pytest.mark.parametrize("argv, code", [
        # valid surfaces: t* and the evaluation offset underflow to 0 (exit 4)
        (["--family", "hyperbolic-umbilic", "--n", "2", "--kappa", "1e300"], 4),
        # valid surfaces: the closed form overflows to a nan offset (exit 4)
        (["--family", "sphere-umbilic", "--n", "2", "--kappa", "1e200"], 4),
        (["--family", "sphere-product", "--l", "1", "--n", "2", "--kappa1", "1e160"], 4),
        # not a surface: invalid input (exit 2)
        (["--family", "sphere-umbilic", "--n", "2", "--kappa", "inf"], 2),
        # valid surface: t* = 5e-601 underflows to 0 (exit 4)
        (["--family", "euclidean-cylinder", "--m", "1", "--n", "1", "--kappa", "1e300"], 4),
    ])
    def test_extreme_curvature_exit_codes(self, capsys, argv, code):
        rc, out, err = run_cli(capsys, "collapse", *argv)
        assert rc == code
        assert out == "" and err.startswith("error: ")

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
        assert counters["horosphere"]["t_end"] == ETERNAL_CHECK_TIME  # it never collapses
        # A collapsing run ends at t* - _limit_eval_offset(t*), where analyze reads it.
        t_star = math.log(2.0) / 4.0
        assert counters["sphere-umbilic"]["t_end"] == pytest.approx(t_star - 1e-8, abs=1e-14)


class TestVerify:
    def test_subset_check_on_single_surface(self, capsys):
        rc, out, _ = run_cli(
            capsys, "verify", "--family", "sphere-product", "--l", "1", "--n", "2",
            "--kappa1", "2", "--check", "oracle-agreement", "--check", "xi-zero",
        )
        assert rc == 0
        assert "PASS" in out and "FAIL" not in out

    def test_hyperbolic_kappa_next_to_one_gives_a_verdict(self, capsys):
        # The oracle runs to its collapse stop, past the 0.99 t* window, so
        # oracle-agreement judges it instead of failing on the domain (exit 2).
        rc, out, _ = run_cli(capsys, "verify", "--family", "hyperbolic-umbilic", "--n", "2",
                             "--kappa", "1.0000000000000002")
        assert rc in (0, 1)
        assert "PASS  oracle-agreement" in out

    def test_check_that_raises_fails_instead_of_ending_the_run(self, capsys):
        # The frame of this valid surface is off the quadric by more than
        # check_frame allows; that is one FAIL, not an invalid-input exit (2).
        rc, out, _ = run_cli(capsys, "verify", "--family", "hyperbolic-cylinder", "--m1", "1",
                             "--m2", "1", "--kappa1", "1.000000001")
        assert rc == 1
        lines = out.splitlines()
        assert lines[-1].endswith("/12 checks passed")
        [line] = [x for x in lines if x.split()[1] == "embedding-constraints"]
        assert line.startswith("FAIL") and "InvalidFrameError: " in line

    def test_each_check_that_reads_a_failing_profile_fails(self, capsys):
        # t* = 5e-601 underflows to 0 in both engines; the eight checks that
        # read the closed form or the quadrature each report the error, and
        # the checks that do not still pass.
        rc, out, _ = run_cli(capsys, "verify", "--family", "euclidean-cylinder", "--m", "1",
                             "--n", "1", "--kappa", "1e300")
        error = "NumericalRangeError: euclidean_cylinder collapse time underflows to 0.0"
        assert rc == 1
        assert out == "\n".join([
            "PASS  validation                 cli surface: JSON round-trip re-validates",
            f"FAIL  oracle-agreement           cli surface: {error}",
            f"FAIL  ode-residual               cli surface: {error}",
            f"FAIL  tstar-consistency          cli surface: {error}",
            f"FAIL  focal-dimension            cli surface: {error}",
            f"FAIL  focal-condition            cli surface: {error}",
            f"FAIL  pythagorean                cli surface: {error}",
            f"FAIL  xi-zero                    cli surface: {error}",
            f"FAIL  embedding-constraints      cli surface: {error}",
            "PASS  curvature-parametrization  global: kappa1*kappa2+1: 2.89e-15; g4 ladder vs"
            " explicit: 9.24e-14; sum vs a-formula: 1.01e-12; cylinder product: 1.11e-16",
            "PASS  typo-resolution            global: cylinder t* forms: 1.11e-16; g4 t* forms:"
            " 1.39e-16",
            "PASS  identities                 global: max identity residual = 3.00 ulp (tol 4)",
            "4/12 checks passed",
            "",
        ])

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

    def test_unsupported_family_exits_3_with_every_time_clipped(self, capsys, tmp_path):
        for times in ("0", "1e9"):  # one kept time, then none
            rc, _, _ = run_cli(
                capsys, "export", "--family", "sphere-g3", "--kappa1", "2",
                "--times", times, "--output-dir", str(tmp_path),
            )
            assert rc == 3
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("flags", [
        ["--times", "nan"],
        ["--times", "0,inf"],
        ["--times", "0.1", "--extent", "nan"],
        ["--times", "0.1", "--extent", "inf"],
        ["--times", "0.1", "--extent", "0"],
        ["--times", "0.1", "--extent", "-1"],
    ])
    def test_non_finite_times_and_bad_extent_exit_2(self, capsys, tmp_path, flags):
        rc, _, err = run_cli(
            capsys, "export", "--family", "euclidean-cylinder", "--m", "1", "--n", "2",
            "--kappa", "1", "--resolution", "3,3", "--output-dir", str(tmp_path), *flags,
        )
        assert rc == 2
        assert "clipped" not in err
        assert not list(tmp_path.iterdir())

    def test_overflowing_frame_exits_2(self, capsys, tmp_path):
        # |u|^2 overflows at this extent, so the frame holds inf and NaN rows.
        with pytest.warns(RuntimeWarning):
            rc, _, err = run_cli(
                capsys, "export", "--family", "horosphere", "--n", "2", "--kappa", "1",
                "--times", "1", "--extent", "1e200", "--output-dir", str(tmp_path),
            )
        assert rc == 2
        assert "error: " in err
        assert not list(tmp_path.glob("*.csv"))

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

    @pytest.mark.parametrize("surface", [
        ["--family", "euclidean-cylinder", "--m", "2", "--n", "2", "--kappa", "-1.5"],
        ["--family", "sphere-product", "--l", "1", "--n", "3", "--kappa1", "2"],
        ["--family", "horosphere", "--n", "2", "--kappa", "-1"],
        ["--family", "hyperbolic-cylinder", "--m1", "1", "--m2", "1", "--kappa1", "2"],
    ])
    def test_files_equal_one_time_exports(self, capsys, tmp_path, surface):
        def digests(directory):
            return [hashlib.sha256(p.read_bytes()).hexdigest()
                    for p in sorted(directory.iterdir())]

        times = ["0", "0.05", "0.1"]
        common = ["export", *surface, "--resolution", "5"]
        rc, _, _ = run_cli(capsys, *common, "--times", ",".join(times),
                           "--output-dir", str(tmp_path / "all"))
        assert rc == 0
        for idx, t in enumerate(times):
            rc, _, _ = run_cli(capsys, *common, "--times", t,
                               "--output-dir", str(tmp_path / "one"),
                               "--stem", f"t{idx}")
            assert rc == 0
        assert len(digests(tmp_path / "all")) == 6
        assert digests(tmp_path / "all") == digests(tmp_path / "one")

    def test_export_and_help_leave_scipy_unloaded(self, tmp_path):
        # No command loads scipy, not even collapse, whose DOP853 profile ends
        # at the collapse stop; a fresh interpreter shows what loads.
        code = f"""
import sys
import isoflow.cli as cli
assert cli.main(["export", "--family", "sphere-product", "--l", "1", "--n", "2",
                 "--kappa1", "2", "--times", "0,0.05", "--resolution", "6",
                 "--output-dir", {str(tmp_path)!r}]) == 0
assert cli.main(["collapse", "--family", "sphere-umbilic", "--n", "2", "--kappa", "1"]) == 0
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

    def test_verify_leaves_numpy_random_and_scipy_unloaded(self):
        # The identities draws are SplitMix64 on numpy arrays, and the DOP853
        # oracle reads its table from a file: the whole grid loads neither.
        code = """
import io, sys
from contextlib import redirect_stdout
import isoflow.cli as cli
with redirect_stdout(io.StringIO()) as out:
    assert cli.main(["verify"]) == 0
assert out.getvalue().endswith("/480 checks passed\\n"), out.getvalue()[-200:]
loaded = sorted(m for m in sys.modules
                if m.split(".")[0] == "scipy" or m.startswith("numpy.random"))
assert not loaded, loaded
"""
        src = os.path.dirname(os.path.dirname(isoflow.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr


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
