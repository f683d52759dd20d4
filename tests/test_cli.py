"""Command-line surface: outputs, exit codes, clipping, determinism."""

import hashlib
import json
import math
import os
import re
import subprocess
import sys
import warnings

import pytest

import isoflow
from isoflow import cli, verification
from isoflow.cli import main
from isoflow.catalog import make_hyperbolic_cylinder, surface_from_json
from isoflow.collapse import ETERNAL_CHECK_TIME
from isoflow.embedding import Embedding, get_embedding, overwrite


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

    def test_window_ending_below_its_start_is_integrated(self, capsys):
        # The ODE run reaches the window's far end, --t-start; an eternal flow
        # clips nothing and names no collapse time.
        rc, out, err = run_cli(
            capsys, "evolve", "--family", "horosphere", "--n", "2", "--kappa", "1",
            "--t-start", "2", "--t-end", "1", "--samples", "4", "--engine", "ode",
        )
        assert rc == 0
        assert err == ""
        _, rows = parse_csv(out)
        assert [r["t"] for r in rows] == pytest.approx([2.0, 5.0 / 3.0, 4.0 / 3.0, 1.0])
        for r in rows:
            assert r["xi"] == pytest.approx(2.0 * r["t"], rel=1e-12)

    def test_window_from_negative_time_is_integrated_both_ways(self, capsys):
        # t* = log(2)/4: the ODE runs backward to -0.5 and forward to its collapse stop.
        rc, out, err = run_cli(
            capsys, "evolve", "--family", "sphere-umbilic", "--n", "2", "--kappa", "1",
            "--t-start", "-0.5", "--t-end", "0.2", "--samples", "3", "--engine", "both",
        )
        assert rc == 0
        assert err == f"warning: 1 sample(s) beyond the flow domain (t* = {math.log(2) / 4:.9g})" \
            " were clipped\n"
        _, rows = parse_csv(out)
        assert [r["t"] for r in rows] == pytest.approx([-0.5, -0.15])
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

    def test_clipped_rows_name_the_collapse_time(self, capsys):
        # The ODE run ends 1e-8 before t* = log(2)/4; every engine names t* itself.
        outs, errs = {}, set()
        for engine in ("ode", "closed", "both"):
            rc, outs[engine], err = run_cli(
                capsys, "evolve", "--family", "sphere-umbilic", "--n", "2", "--kappa", "1",
                "--t-end", "1", "--engine", engine, "--samples", "41",
            )
            assert rc == 0
            errs.add(err)
        assert errs == {"warning: 34 sample(s) beyond the flow domain "
                        "(t* = 0.173286795) were clipped\n"}
        _, rows = parse_csv(outs["both"])
        assert len(rows) == 7 and rows[-1]["t"] == pytest.approx(0.15)
        assert [r["xi"] for r in parse_csv(outs["closed"])[1]] == [r["xi"] for r in rows]

    @pytest.mark.parametrize("samples, err", [
        ("3", "warning: 3 sample(s) beyond the flow domain (t* = 0.173286795) were clipped\n"),
        ("0", ""),
    ], ids=["every-sample-clipped", "no-sample"])
    def test_csv_without_rows_keeps_its_header(self, capsys, samples, err):
        # A window past t* = log(2)/4, or no samples at all: the CSV is its header
        # line, as --format json prints "rows": [] and an export without points
        # writes only its header.
        argv = ["evolve", "--family", "sphere-umbilic", "--n", "2", "--kappa", "1",
                "--t-start", "5", "--t-end", "6", "--samples", samples]
        assert run_cli(capsys, *argv) == (0, "t,xi,H,kappa_hat_1,factor_1,discrepancy\n", err)
        rc, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert rc == 0 and json.loads(out)["rows"] == []

    def test_row_at_a_known_offset(self, capsys):
        # The Euclidean sphere of radius 1 has radius 0.5 at t = 3/16: xi = 0.5,
        # kappa_hat 2, H = m kappa_hat = 4 and metric factor (1 - xi)^2 = 0.25.
        rc, out, err = run_cli(
            capsys, "evolve", "--family", "euclidean-cylinder", "--m", "2", "--n", "2",
            "--kappa", "1", "--t-start", "0.1875", "--t-end", "0.1875", "--samples", "1",
            "--engine", "closed")
        assert (rc, err) == (0, "")
        header, [row] = parse_csv(out)
        assert header == ["t", "xi", "H", "kappa_hat_1", "factor_1"]
        assert row == pytest.approx({"t": 0.1875, "xi": 0.5, "H": 4.0, "kappa_hat_1": 2.0,
                                     "factor_1": 0.25})

    @pytest.mark.parametrize("engine", ["closed", "ode", "both"])
    @pytest.mark.parametrize("window", [
        # t* = 50, and an eternal flow: each last time has an ulp above 2e-15.
        ["--family", "euclidean-cylinder", "--m", "1", "--n", "2", "--kappa", "0.1",
         "--t-end", "20"],
        ["--family", "hyperbolic-umbilic", "--n", "2", "--kappa", "0.5", "--t-end", "16"],
    ])
    def test_window_inside_the_domain_keeps_its_last_row(self, capsys, window, engine):
        rc, out, err = run_cli(capsys, "evolve", *window, "--samples", "3",
                               "--engine", engine)
        assert (rc, err) == (0, "")
        assert [r["t"] for r in parse_csv(out)[1]] == [0.0, float(window[-1]) / 2,
                                                      float(window[-1])]

    @pytest.mark.parametrize("window", [
        ["--family", "horosphere", "--n", "3", "--kappa", "1", "--t-end", "1e300"],
        ["--family", "euclidean-cylinder", "--m", "1", "--n", "2", "--kappa", "1",
         "--t-start=-1e300", "--t-end", "0", "--engine", "ode"],
    ])
    def test_window_of_huge_times_is_integrated(self, capsys, window):
        # Steps grow until 0.01 * err3 of the error norm underflows.
        rc, out, err = run_cli(capsys, "evolve", *window, "--samples", "3")
        assert (rc, err) == (0, "")
        assert len(parse_csv(out)[1]) == 3

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

    @pytest.mark.parametrize("window", [["--t-end", "nan"], ["--t-end", "inf"],
                                        ["--t-start=-inf", "--t-end", "0.1"]])
    def test_non_finite_window_exits_2(self, capsys, window):
        rc, out, err = run_cli(capsys, "evolve", "--family", "sphere-umbilic", "--n", "2",
                               "--kappa", "1", "--engine", "closed", *window)
        assert (rc, out) == (2, "")
        assert err.startswith("error: --t-start and --t-end must be finite")
        assert err.count("\n") == 1

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

    def test_hyperbolic_cylinder_whose_curvature_gap_squared_overflows(self, capsys, tmp_path):
        # (kappa1 - kappa2)^2 overflows past kappa1 ~ 1.34e154, where t* ~ 1 / (2 m1 kappa1^2)
        # lies below the least normal double: one error line and exit 4, not a traceback.
        surface = ["--family", "hyperbolic-cylinder", "--m1", "1", "--m2", "1",
                   "--kappa1", "1e155"]
        for argv in (["collapse"], ["evolve", "--t-end", "0.1", "--samples", "3"],
                     ["export", "--times", "0", "--output-dir", str(tmp_path)], ["verify"]):
            rc, out, err = run_cli(capsys, *argv, *surface)
            assert (rc, out) == (4, ""), argv
            assert err == "error: hyperbolic_cylinder collapse time underflows to 0.0\n"

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
            # 2 calls pick the first step and 12 per attempt: analyze reads the
            # run at its last node, so the interpolant is never built.
            assert c["nfev"] == 2 + 12 * (c["accepted_steps"] + c["rejected_steps"])
        assert counters["horosphere"]["t_end"] == ETERNAL_CHECK_TIME  # it never collapses
        # A collapsing run ends at t* - _limit_eval_offset(t*), where analyze reads it.
        t_star = math.log(2.0) / 4.0
        assert counters["sphere-umbilic"]["t_end"] == pytest.approx(t_star - 1e-8, abs=1e-14)


# --family value -> (its other flags, the cli constructor it must call).
_FAMILY_CASES = {
    "euclidean-cylinder": (["--m", "1", "--n", "2", "--kappa", "1"], "make_euclidean_cylinder"),
    "horosphere": (["--n", "2", "--kappa", "1"], "make_horosphere"),
    "hyperbolic-umbilic": (["--n", "2", "--kappa", "2"], "make_hyperbolic_umbilic"),
    "hyperbolic-cylinder": (["--m1", "1", "--m2", "1", "--kappa1", "2"],
                            "make_hyperbolic_cylinder"),
    "sphere-umbilic": (["--n", "2", "--kappa", "1"], "make_sphere_umbilic"),
    "sphere-product": (["--l", "1", "--n", "2", "--kappa1", "2"], "make_sphere_product"),
    "sphere-g2": (["--kappa1", "2"], "sphere_family_from_kappa1"),
    "sphere-g3": (["--kappa1", "2"], "sphere_family_from_kappa1"),
    "sphere-g4": (["--kappa1", "2"], "sphere_family_from_kappa1"),
    "sphere-g6": (["--kappa1", "2"], "sphere_family_from_kappa1"),
}


class TestFamilyTable:
    def test_every_family_has_a_case(self):
        assert list(_FAMILY_CASES) == list(cli._FAMILIES)

    @pytest.mark.parametrize("family, flags, name", [
        *((family, flags, name) for family, (flags, name) in _FAMILY_CASES.items()),
        ("sphere-g4", ["--s-param", "0.3", "--mults", "1,2,1,2"], "sphere_curvatures_from_g"),
    ])
    def test_constructor_is_looked_up_when_called(self, capsys, monkeypatch, family, flags,
                                                  name):
        # A tracer patches cli.make_* after import; the table must call the patched one.
        original, calls = getattr(cli, name), []

        def spy(*args):
            calls.append(original(*args))
            return calls[-1]

        monkeypatch.setattr(cli, name, spy)
        rc, out, err = run_cli(capsys, "collapse", "--family", family, *flags)
        assert rc == 0, err
        assert len(calls) == 1
        assert json.loads(out)["surface"] == calls[0].to_dict()

    @pytest.mark.parametrize("argv", [["--family", "sphere-g", "--kappa1", "2"],
                                      ["--family", "sphere-g3", "--g", "3", "--kappa1", "2"]])
    def test_sphere_families_are_spelled_only_sphere_gN(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(["collapse", *argv])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


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

    def test_each_check_that_reads_a_failing_profile_fails(self, capsys, monkeypatch):
        # t* = 5e-601 underflows to 0 in both engines.  verify on that one
        # surface exits 4 with one error line, as collapse does.
        surface = ["--family", "euclidean-cylinder", "--m", "1", "--n", "1", "--kappa", "1e300"]
        rc, out, err = run_cli(capsys, "verify", *surface)
        error = "NumericalRangeError: euclidean_cylinder collapse time underflows to 0.0"
        assert (rc, out, err) == (4, "", "error: euclidean_cylinder collapse time underflows"
                                         " to 0.0\n")
        # A grid run checks each surface: the eight checks that read the closed
        # form or the quadrature each report the error, and the checks that do
        # not still pass.
        monkeypatch.setattr(verification, "builtin_grid", lambda: [
            ("cli surface", isoflow.make_euclidean_cylinder(1, 1, 1e300))])
        rc, out, _ = run_cli(capsys, "verify")
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

    @pytest.mark.parametrize("times", ["", ",", " , "])
    def test_empty_times_exit_2_before_the_output_dir_is_made(self, capsys, tmp_path, times):
        out_dir = tmp_path / "out"
        rc, out, err = run_cli(
            capsys, "export", "--family", "horosphere", "--n", "2", "--kappa", "1",
            "--times", times, "--output-dir", str(out_dir),
        )
        assert (rc, out) == (2, "")
        assert err == f"error: --times needs at least one snapshot time, got {times!r}\n"
        assert not out_dir.exists()

    def test_overflowing_frame_exits_2(self, capsys, tmp_path):
        # The frame overflows: one error line and no numpy warning.
        for argv in (
            # |u|^2 overflows at this extent.
            ["--family", "horosphere", "--n", "2", "--kappa", "1", "--times", "1",
             "--extent", "1e200"],
            # cosh and sinh of the hyperbolic chart overflow at this extent.
            ["--family", "hyperbolic-cylinder", "--m1", "1", "--m2", "2", "--kappa1", "2",
             "--times", "0.01", "--extent", "800", "--resolution", "3,3,3"],
        ):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rc, _, err = run_cli(capsys, "export", *argv, "--output-dir", str(tmp_path))
            assert rc == 2
            assert err == "error: frame is not finite, or its squared norm overflows\n"
            assert not list(tmp_path.glob("*.csv"))

    def test_sphere_product_whose_curvature_squared_overflows(self, capsys, tmp_path):
        # kappa1^2 overflows past kappa1 ~ 1.34e154, where t* lies below the least normal
        # double: export and verify, with every check or one, end in one error line and
        # exit 4, as collapse does, not a traceback or a FAIL per check.
        surface = ["--family", "sphere-product", "--l", "1", "--n", "3", "--kappa1", "1e160"]
        for argv in (["export", "--times", "0", "--output-dir", str(tmp_path)], ["verify"],
                     ["verify", "--check", "embedding-constraints"], ["collapse"]):
            rc, out, err = run_cli(capsys, *argv, *surface)
            assert (rc, out, err) == (4, "", "error: sphere_g2 collapse time underflows to 0.0\n")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("surface", [
        ["--family", "horosphere", "--n", "33", "--kappa", "1"],
        ["--family", "euclidean-cylinder", "--m", "20", "--n", "40", "--kappa", "1"],
        ["--family", "hyperbolic-cylinder", "--m1", "2", "--m2", "31", "--kappa1", "1.5"],
    ])
    def test_grid_of_more_than_32_axes_exits_2(self, capsys, tmp_path, surface):
        # numpy broadcasts at most 32 dimensions: one error line, not a traceback.
        rc, out, err = run_cli(capsys, "export", *surface, "--times", "0",
                               "--resolution", "1", "--output-dir", str(tmp_path))
        assert rc == 2 and out == ""
        assert re.fullmatch(r"error: a grid of \d+ axes exceeds numpy's limit of 32 axes\n", err)
        assert not list(tmp_path.iterdir())

    def test_grid_of_32_axes_exports(self, capsys, tmp_path):
        rc, out, _ = run_cli(capsys, "export", "--family", "horosphere", "--n", "32",
                             "--kappa", "1", "--times", "0", "--resolution", "1",
                             "--output-dir", str(tmp_path))
        assert rc == 0 and out == f"{tmp_path / 'horosphere_000.csv'}\n"
        header, rows = parse_csv((tmp_path / "horosphere_000.csv").read_text())
        assert len(rows) == 1 and len(header) == 2 * 34 + 1  # x0..x33, nx0..nx33, t

    def test_overflowing_snapshot_exits_4(self, capsys, tmp_path):
        # A valid flow time whose xi = 800 overflows cosh: the frame is finite, the cloud not.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, _, err = run_cli(
                capsys, "export", "--family", "horosphere", "--n", "2", "--kappa", "1",
                "--times", "400", "--output-dir", str(tmp_path),
            )
        assert rc == 4
        assert err.count("error: ") == 1 and "t = 400.0" in err
        assert "RuntimeWarning" not in err
        assert not list(tmp_path.iterdir())

    def test_memory_error_exits_2(self, capsys, tmp_path, monkeypatch):
        # What a grid too large to allocate raises, without allocating one.
        def frame_grid(self, resolution, extent=1.0):
            raise MemoryError("Unable to allocate 74.5 GiB for an array")

        monkeypatch.setattr(Embedding, "frame_grid", frame_grid)
        rc, out, err = run_cli(
            capsys, "export", "--family", "euclidean-cylinder", "--m", "1", "--n", "2",
            "--kappa", "1", "--times", "0.1", "--resolution", "100000",
            "--output-dir", str(tmp_path),
        )
        assert rc == 2
        assert err == "error: Unable to allocate 74.5 GiB for an array\n"
        assert out == ""

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
        # S^1 x S^2 lies in R^5, past the default export target: each command warns once.
        warning = ("warning: ambient dimension 5 exceeds the default export target of 4; "
                   "downstream viewers may not cope\n" if "sphere-product" in surface else "")
        rc, _, err = run_cli(capsys, *common, "--times", ",".join(times),
                             "--output-dir", str(tmp_path / "all"))
        assert (rc, err) == (0, warning)
        for idx, t in enumerate(times):
            rc, _, err = run_cli(capsys, *common, "--times", t,
                                 "--output-dir", str(tmp_path / "one"), "--stem", f"t{idx}")
            assert (rc, err) == (0, warning)
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
        # The identities offsets are evenly spaced, with no generator, and the DOP853
        # oracle's table is written into its step: the whole grid loads neither.
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


class TestNumpyOnlyRuntime:
    def test_commands_run_with_scipy_blocked(self, tmp_path):
        # No command needs scipy: with its import blocked, a fresh interpreter
        # verifies the grid, runs collapse and both engines (whose DOP853
        # profiles end at the collapse stop), exports and prints help. The
        # tests above check that, unblocked, no command loads it either.
        code = f"""
import io, math, sys
from contextlib import redirect_stdout
sys.modules["scipy"] = None
import isoflow
import isoflow.cli as cli
prof = isoflow.integrate(isoflow.make_sphere_umbilic(2, 1.0), 1.0)
assert math.isfinite(prof.t_star)
with redirect_stdout(io.StringIO()) as out:
    assert cli.main(["verify"]) == 0
assert out.getvalue().endswith("/480 checks passed\\n"), out.getvalue()[-200:]
with redirect_stdout(io.StringIO()):
    assert cli.main(["collapse", "--family", "sphere-umbilic", "--n", "2", "--kappa", "1"]) == 0
    assert cli.main(["evolve", "--family", "sphere-umbilic", "--n", "2", "--kappa", "1",
                     "--t-end", "0.2", "--engine", "both", "--samples", "5"]) == 0
    assert cli.main(["export", "--family", "sphere-product", "--l", "1", "--n", "2",
                     "--kappa1", "2", "--times", "0,0.05", "--resolution", "6",
                     "--output-dir", {str(tmp_path)!r}]) == 0
    try:
        cli.main(["--help"])
    except SystemExit as exc:
        assert exc.code == 0
"""
        src = os.path.dirname(os.path.dirname(isoflow.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert len(list(tmp_path.glob("*.csv"))) == 2


class TestTolerances:
    EVOLVE = ("evolve", "--family", "sphere-umbilic", "--n", "2", "--kappa", "1",
              "--t-end", "0.1", "--engine", "both", "--samples", "5")

    def test_flags_apply(self, capsys):
        rc, out, _ = run_cli(capsys, *self.EVOLVE, "--rel-tol", "1e-6", "--abs-tol", "1e-8")
        assert rc == 0
        loose = [r["discrepancy"] for r in parse_csv(out)[1]]
        # looser tolerance still comfortably under the closed form scale
        assert max(loose) < 1e-4
        default = [r["discrepancy"] for r in parse_csv(run_cli(capsys, *self.EVOLVE)[1])[1]]
        assert loose != default

    @pytest.mark.parametrize("argv", [
        ["collapse", "--family", "sphere-umbilic", "--n", "2", "--kappa", "1",
         "--abs-tol", "inf"],
        [*EVOLVE, "--rel-tol", "inf", "--abs-tol", "inf"],
    ])
    def test_infinite_tolerance_exits_2(self, capsys, argv):
        rc, out, err = run_cli(capsys, *argv)
        assert (rc, out) == (2, "")
        assert err.startswith("error: ") and "must be positive and finite" in err


class TestUnusablePaths:
    @pytest.mark.parametrize("argv", [
        ["collapse", "--surface-json", "{dir}"],
        ["collapse", "--family", "sphere-umbilic", "--n", "2", "--kappa", "1",
         "--output", "{dir}"],
        ["export", "--family", "euclidean-cylinder", "--m", "1", "--n", "2", "--kappa", "1",
         "--times", "0", "--output-dir", "{file}"],
    ])
    def test_directory_or_file_in_the_wrong_place_exits_2(self, capsys, tmp_path, argv):
        # A directory where a file is read or written, and a file where a directory is made.
        (tmp_path / "file").write_text("")
        argv = [a.format(dir=tmp_path, file=tmp_path / "file") for a in argv]
        rc, out, err = run_cli(capsys, *argv)
        assert (rc, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1


class TestOutputFiles:
    """Writing over an existing file leaves the bytes of a fresh one.

    Exports and ``--output`` go through one writer, in place and cut to length.
    """

    EXPORT = ["export", "--family", "hyperbolic-cylinder", "--m1", "1", "--m2", "1",
              "--kappa1", "2", "--times", "0.01", "--resolution", "5,6", "--stem", "c"]
    SURFACE = ["--family", "sphere-umbilic", "--n", "2", "--kappa", "1"]
    OUTPUT = {"evolve": ["evolve", *SURFACE, "--t-end", "0.2", "--samples", "9"],
              "collapse": ["collapse", *SURFACE]}

    def outputs(self, capsys, directory):
        """rc and the bytes of each file of every command writing into ``directory``."""
        directory.mkdir(exist_ok=True)
        rcs = [run_cli(capsys, *self.EXPORT, "--output-dir", str(directory))[0]]
        for name, argv in self.OUTPUT.items():
            rcs.append(run_cli(capsys, *argv, "--output", str(directory / f"{name}.out"))[0])
        return rcs, {path.name: path.read_bytes() for path in sorted(directory.iterdir())}

    @pytest.mark.parametrize("factor", [3, 0.5], ids=["longer", "shorter"])
    def test_over_existing_files(self, capsys, tmp_path, factor):
        rcs, fresh = self.outputs(capsys, tmp_path / "fresh")
        assert rcs == [0, 0, 0] and sorted(fresh) == [
            "c_000.csv", "c_000.json", "collapse.out", "evolve.out"]
        (tmp_path / "over").mkdir()
        for name, data in fresh.items():
            (tmp_path / "over" / name).write_bytes(b"#" * int(factor * len(data)))
        assert self.outputs(capsys, tmp_path / "over") == (rcs, fresh)

    def test_output_goes_through_the_export_writer(self, capsys, monkeypatch, tmp_path):
        written = []

        def spy(path):
            written.append(os.path.basename(path))
            return overwrite(path)

        monkeypatch.setattr(cli, "overwrite", spy)
        rcs, _ = self.outputs(capsys, tmp_path)
        assert rcs == [0, 0, 0] and written == ["evolve.out", "collapse.out"]

    def test_through_symlinks(self, capsys, tmp_path):
        rcs, fresh = self.outputs(capsys, tmp_path / "fresh")
        (tmp_path / "links").mkdir()
        for name, data in fresh.items():
            (tmp_path / name).write_bytes(b"#" * (2 * len(data)))
            (tmp_path / "links" / name).symlink_to(tmp_path / name)
        assert self.outputs(capsys, tmp_path / "links") == (rcs, fresh)
        for name in fresh:
            assert (tmp_path / "links" / name).is_symlink()
            assert (tmp_path / name).read_bytes() == fresh[name]

    def test_symlinks_to_dev_null_exit_0(self, capsys, tmp_path):
        names = ["c_000.csv", "c_000.json", "evolve.out", "collapse.out"]
        for name in names:
            (tmp_path / name).symlink_to(os.devnull)
        rcs, written = self.outputs(capsys, tmp_path)
        assert rcs == [0, 0, 0] and written == dict.fromkeys(sorted(names), b"")


class TestSurfaceJson:
    """--surface-json blocks may come in any order; the surface is the same."""

    @staticmethod
    def write(tmp_path, name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    def test_euclidean_zero_block_first(self, capsys, tmp_path):
        # The closed form reads the leading block: a zero block given first must not lead.
        blocks = [{"kappa": 1.5, "mult": 1}, {"kappa": 0.0, "mult": 2}]
        docs = [{"space_form": 0, "blocks": order, "family": "euclidean_cylinder"}
                for order in (blocks, blocks[::-1])]
        paths = [self.write(tmp_path, f"cyl{i}.json", doc) for i, doc in enumerate(docs)]
        for argv in (["collapse"], ["evolve", "--t-end", "0.2", "--samples", "5"]):
            canonical, reversed_ = (run_cli(capsys, *argv, "--surface-json", path)
                                    for path in paths)
            assert canonical[0] == 0
            assert reversed_ == canonical

    def test_hyperbolic_cylinder_small_curvature_first(self, capsys, tmp_path):
        # The embedding takes sqrt(kappa1^2 - 1) of the block with |kappa| > 1, given second.
        path = self.write(tmp_path, "hcyl.json", {
            "space_form": -1, "family": "hyperbolic_cylinder",
            "blocks": [{"kappa": 0.5, "mult": 1}, {"kappa": 2.0, "mult": 1}]})
        rc, out, _ = run_cli(capsys, "verify", "--surface-json", path)
        assert rc == 0
        assert "FAIL" not in out
        rc, out, _ = run_cli(capsys, "export", "--surface-json", path, "--times", "0.05",
                             "--resolution", "4", "--output-dir", str(tmp_path))
        assert rc == 0
        assert out.strip().endswith("hyperbolic_cylinder_000.csv")

    def test_hyperbolic_cylinder_of_negative_curvatures(self, capsys, tmp_path):
        # The flipped cylinder: -0.5 leads, and sqrt(kappa^2 - 1) of it was a math domain
        # error (exit 2).  Its frame is the cylinder's with the normal negated.
        path = self.write(tmp_path, "hcyl.json", {
            "space_form": -1, "family": "hyperbolic_cylinder",
            "blocks": [{"kappa": -0.5, "mult": 1}, {"kappa": -2.0, "mult": 1}]})
        rc, out, err = run_cli(capsys, "verify", "--surface-json", path)
        assert (rc, err) == (0, "")
        assert out.endswith("12/12 checks passed\n")
        rc, out, err = run_cli(capsys, "export", "--surface-json", path, "--times", "0,0.05",
                               "--resolution", "4", "--output-dir", str(tmp_path / "flipped"))
        assert (rc, err) == (0, "")
        assert len(out.splitlines()) == 2
        flipped = get_embedding(surface_from_json((tmp_path / "hcyl.json").read_text()))
        flipped = flipped.frame_grid(4)
        upright = get_embedding(make_hyperbolic_cylinder(1, 1, 2.0)).frame_grid(4)
        assert [c.tobytes() for c in flipped[0]] == [c.tobytes() for c in upright[0]]
        assert [c.tobytes() for c in flipped[1]] == [(-c).tobytes() for c in upright[1]]

    @pytest.mark.parametrize("doc, message", [
        ({"space_form": 0.5, "family": "euclidean_cylinder",
          "blocks": [{"kappa": 1.5, "mult": 2}]}, "ambient curvature"),
        ({"space_form": True, "family": "sphere_umbilic",
          "blocks": [{"kappa": 1.0, "mult": 2}]}, "ambient curvature"),
        ({"space_form": 1, "family": "sphere_umbilic",
          "blocks": [{"kappa": 1.0, "mult": 1.7}]}, "multiplicity"),
        ({"space_form": 1, "family": "sphere_umbilic",
          "blocks": [{"kappa": 1.0, "mult": True}]}, "multiplicity"),
    ])
    def test_non_integer_space_form_or_multiplicity_exits_2(self, capsys, tmp_path, doc,
                                                            message):
        # int() would take each for a valid value: 0.5 for R^n, 1.7 and true for 1.
        path = self.write(tmp_path, "doc.json", doc)
        rc, out, err = run_cli(capsys, "collapse", "--surface-json", path)
        assert (rc, out) == (2, "")
        assert err.startswith(f"error: {message}") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [["collapse"], ["verify"],
                                      ["evolve", "--t-end", "0.1", "--samples", "3"]])
    def test_multiplicity_too_large_for_a_float_exits_2(self, capsys, tmp_path, argv):
        # The mean curvature sum(m * kappa) raised OverflowError: a traceback and exit 1.
        path = self.write(tmp_path, "doc.json", {
            "space_form": 1, "family": "sphere_umbilic",
            "blocks": [{"kappa": 2.0, "mult": 10**400}]})
        rc, out, err = run_cli(capsys, *argv, "--surface-json", path)
        assert (rc, out) == (2, "")
        assert err.startswith("error: multiplicity must be a positive integer that fits a float")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("kappa", ["2", True])
    def test_curvature_that_is_not_a_json_number_exits_2(self, capsys, tmp_path, kappa):
        # float() would take "2" for 2.0 and true for 1.0.
        path = self.write(tmp_path, "doc.json", {
            "space_form": 1, "family": "sphere_umbilic", "blocks": [{"kappa": kappa, "mult": 2}]})
        rc, out, err = run_cli(capsys, "collapse", "--surface-json", path)
        assert (rc, out) == (2, "")
        assert err.startswith("error: curvatures must be JSON numbers") and err.count("\n") == 1

    def test_integer_curvature_reads_as_its_float(self, capsys, tmp_path):
        outs = [run_cli(capsys, "collapse", "--surface-json", self.write(
            tmp_path, f"{i}.json", {"space_form": 1, "family": "sphere_umbilic",
                                    "blocks": [{"kappa": kappa, "mult": 2}]}))
                for i, kappa in enumerate((2, 2.0))]
        assert outs[0][0] == 0 and outs[0] == outs[1]

    def test_hyperbolic_umbilic_with_horosphere_curvature_exits_2(self, capsys, tmp_path):
        # |kappa| = 1 is a horosphere, which the umbilic closed form cannot take.
        path = self.write(tmp_path, "umb.json", {
            "space_form": -1, "family": "hyperbolic_umbilic",
            "blocks": [{"kappa": 1.0, "mult": 2}]})
        rc, out, err = run_cli(capsys, "collapse", "--surface-json", path)
        assert (rc, out) == (2, "")
        assert "horosphere" in err

    def test_minimal_tag_on_a_non_minimal_surface_exits_2(self, capsys, tmp_path):
        # Every command rejects it as it reads the document, the ODE engine included.
        path = self.write(tmp_path, "minimal.json", {
            "space_form": 1, "family": "minimal", "blocks": [{"kappa": 2.0, "mult": 1}]})
        for argv in (["collapse"], ["verify"],
                     ["evolve", "--t-end", "0.1", "--samples", "3", "--engine", "ode"]):
            rc, out, err = run_cli(capsys, *argv, "--surface-json", path)
            assert (rc, out) == (2, ""), argv
            assert err == "error: family 'minimal' needs sum(m_i kappa_i) = 0, got 2.0\n"

    @pytest.mark.parametrize("argv", [
        # At xi = -800 the factor sinh^2 overflows while H and kappa_hat_1 stay finite.
        ["--family", "hyperbolic-umbilic", "--n", "2", "--kappa", "2",
         "--t-start", "-400", "--t-end", "0", "--engine", "ode"],
        # The horosphere's factor exp(-2 xi) overflows long before t = -1e300.
        ["--family", "horosphere", "--n", "3", "--kappa", "1", "--t-start=-1e300",
         "--t-end", "0"],
    ])
    def test_overflowing_metric_factor_exits_4(self, capsys, argv):
        # One error line and no rows, not a row with an infinite factor.
        rc, out, err = run_cli(capsys, "evolve", *argv, "--samples", "3")
        assert (rc, out) == (4, "")
        assert err.startswith("error: a metric factor at xi = ") and err.count("\n") == 1
